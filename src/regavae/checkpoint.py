"""Versioned binary checkpoints.

Layout: magic "RGVC", format version u32, u32 length + UTF-8 JSON header
(model config echo, vocabulary, training counters), u32 parameter count, then
per parameter: u32 name length + name, u32 ndim, u32 dims, raw float64
little-endian data, and nothing after the last parameter. Round-trips are
bit-exact, and saves replace the file atomically. This is version 2 (one
stacked `inj.{l}.w_v`/`w_z` pair per layer, no `attn.wk_b`); others are rejected.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from typing import get_type_hints

import numpy as np

from .errors import ConfigError, InputError
from .model import ModelConfig, VaeModel

_MAGIC = b"RGVC"
_VERSION = 2
# Field type -> the Python types its JSON value may take.
_JSON_TYPES = {int: int, float: (int, float), str: str}


def check_json_fields(raw, types: dict, what: str) -> None:
    """Raise InputError ("<what> ...") unless `raw` is a JSON object whose
    keys are all in `types` (name -> int, float or str) and whose values have
    those types. bool is an int subclass, an int is a valid float, and
    Python's json reads NaN and Infinity, which JSON itself does not have."""
    if not isinstance(raw, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = set(raw) - set(types)
    if unknown:
        raise InputError(f"{what} has unknown keys {sorted(unknown)}")
    for name, value in raw.items():
        if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[name]])
                or (isinstance(value, float) and not math.isfinite(value))):
            raise InputError(f"{what} key {name!r} must be {types[name].__name__}, "
                             f"got {value!r}")


@contextmanager
def atomic_write(path):
    """Binary file handle for `path` that replaces it only once the block
    completes: the bytes go to `<path>.tmp` in the same directory, which is
    moved over `path` on success and removed on any error, so a save that
    fails or is killed leaves the previous file whole. No fsync: this guards
    against a killed process, not against power loss."""
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as f:
            yield f
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)


class ByteReader:
    """The bytes of the file at `path`, read once and taken front to back. A
    take that asks for more bytes than are left raises InputError
    ("<path>: <what> is truncated"), so a corrupt size field costs one
    comparison instead of an allocation of the size it claims."""

    def __init__(self, path, what: str):
        with open(path, "rb") as f:
            self._view = memoryview(f.read())
        self._pos = 0
        self._truncated = f"{path}: {what} is truncated"

    def take(self, n: int) -> memoryview:
        start, self._pos = self._pos, self._pos + n
        if self._pos > len(self._view):
            raise InputError(self._truncated)
        return self._view[start:self._pos]

    def at_end(self) -> bool:
        return self._pos == len(self._view)


def save_checkpoint(path, model: VaeModel, vocab: list[str], extra: dict | None = None) -> None:
    header = {
        "format_version": _VERSION,
        "config": {k: v for k, v in vars(model.config).items()},
        "vocab": list(vocab),
        "extra": extra or {},
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as f:
        f.write(_MAGIC)
        f.write(struct.pack("<I", _VERSION))
        f.write(struct.pack("<I", len(blob)))
        f.write(blob)
        f.write(struct.pack("<I", len(model.params)))
        for name in sorted(model.params):
            data = model.params[name].data
            nb = name.encode("utf-8")
            f.write(struct.pack("<I", len(nb)))
            f.write(nb)
            f.write(struct.pack("<I", data.ndim))
            f.write(struct.pack(f"<{data.ndim}I", *data.shape))
            f.write(data.astype("<f8").tobytes())


def load_checkpoint(path) -> tuple[VaeModel, list[str], dict]:
    r = ByteReader(path, "checkpoint")
    if r.take(4) != _MAGIC:
        raise InputError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", r.take(4))
    if version != _VERSION:
        raise InputError(f"{path}: checkpoint format version {version}, expected {_VERSION}")
    (hlen,) = struct.unpack("<I", r.take(4))
    try:
        header = json.loads(str(r.take(hlen), "utf-8"))
        check_json_fields(header["config"], get_type_hints(ModelConfig),
                          f"{path}: checkpoint config")
        extra = header.get("extra", {})
        # The extra fields are training counters, all integers.
        check_json_fields(extra, dict.fromkeys(extra, int), f"{path}: checkpoint 'extra'")
        config = ModelConfig(**header["config"])
        model = VaeModel(config, seed=0)
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise InputError(f"{path}: checkpoint header is corrupt ({e!r})") from e
    vocab = header.get("vocab")
    if (not isinstance(vocab, list) or len(vocab) != config.vocab_size
            or not all(isinstance(w, str) for w in vocab)):
        raise InputError(f"{path}: checkpoint vocabulary is not a list of "
                         f"vocab_size={config.vocab_size} words")
    (count,) = struct.unpack("<I", r.take(4))
    loaded = set()
    for _ in range(count):
        (nlen,) = struct.unpack("<I", r.take(4))
        name = str(r.take(nlen), "utf-8", errors="replace")
        (ndim,) = struct.unpack("<I", r.take(4))
        shape = struct.unpack(f"<{ndim}I", r.take(4 * ndim))
        # math.prod: an int64 product of corrupt dims could wrap to a small size.
        data = np.frombuffer(r.take(8 * math.prod(shape)), dtype="<f8").reshape(shape).copy()
        if name not in model.params:
            raise InputError(f"checkpoint parameter {name!r} unknown to the model")
        if model.params[name].data.shape != data.shape:
            raise InputError(f"checkpoint parameter {name!r} has shape {data.shape}, "
                             f"expected {model.params[name].data.shape}")
        model.params[name].data = data
        loaded.add(name)
    if not r.at_end():
        raise InputError(f"{path}: checkpoint has bytes after its last parameter")
    missing = sorted(set(model.params) - loaded)
    if missing:
        raise InputError(f"{path}: checkpoint lacks parameters {missing}")
    return model, vocab, extra
