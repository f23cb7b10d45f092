"""Versioned binary checkpoints.

Layout, version 3: magic "RGVC", u32 format version, u32 length + UTF-8 JSON
header (model config, vocabulary, training counters), then one little-endian
float64 block of every parameter in `model.parameter_layout` order, and
nothing after it. The config alone decides each parameter's name and shape,
so the file stores neither. A load checks the header and a vocabulary that
begins with `data.SPECIALS`, then counts the config's floats against the
bytes left, and only then builds the model: a header that claims a huge model
costs no more than the file's size. Round-trips are bit-exact, and saves
replace the file atomically. Versions 1 and 2, which stored a name and shape
per parameter, are rejected with a message to rerun training.
"""

from __future__ import annotations

import json
import math
import os
import struct
from contextlib import contextmanager
from typing import get_type_hints

import numpy as np

from .data import SPECIALS
from .errors import ConfigError, InputError
from .model import ModelConfig, VaeModel, parameter_layout

_MAGIC = b"RGVC"
_VERSION = 3
_F8 = np.dtype("<f8")
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
        self._what = f"{path}: {what}"

    def take(self, n: int) -> memoryview:
        start, self._pos = self._pos, self._pos + n
        if self._pos > len(self._view):
            raise InputError(f"{self._what} is truncated")
        return self._view[start:self._pos]

    def take_blocks(self, blocks) -> list[np.ndarray]:
        """All the bytes left, as one array per (count, dtype) of `blocks`,
        in order. The running size is checked against the bytes left after
        each block, so a lazy `blocks` is read no further than the file goes;
        bytes left over after the last block raise InputError too."""
        left, sizes = len(self._view) - self._pos, []
        for count, dtype in blocks:
            sizes.append((count * dtype.itemsize, dtype))
            if (left := left - sizes[-1][0]) < 0:
                raise InputError(f"{self._what} is truncated")
        if left:
            raise InputError(f"{self._what} has bytes after its last block")
        return [np.frombuffer(self.take(n), dtype).copy() for n, dtype in sizes]


def save_checkpoint(path, model: VaeModel, vocab: list[str], extra: dict | None = None) -> None:
    header = {"config": vars(model.config), "vocab": list(vocab), "extra": extra or {}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    with atomic_write(path) as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob)
        for t in model.params.values():
            f.write(np.ascontiguousarray(t.data, dtype=_F8))


def load_checkpoint(path) -> tuple[VaeModel, list[str], dict]:
    r = ByteReader(path, "checkpoint")
    if r.take(4) != _MAGIC:
        raise InputError(f"{path} is not a checkpoint file")
    (version,) = struct.unpack("<I", r.take(4))
    if version != _VERSION:
        raise InputError(f"{path}: checkpoint format version {version}, expected {_VERSION}; "
                         f"rerun training (train-vae, then train-regavae) to rewrite it")
    (hlen,) = struct.unpack("<I", r.take(4))
    try:
        header = json.loads(str(r.take(hlen), "utf-8"))
        check_json_fields(header["config"], get_type_hints(ModelConfig),
                          f"{path}: checkpoint config")
        extra = header.get("extra", {})
        # The extra fields are training counters, all integers.
        check_json_fields(extra, dict.fromkeys(extra, int), f"{path}: checkpoint 'extra'")
        config = ModelConfig(**header["config"])
    except (ValueError, KeyError, TypeError, ConfigError) as e:
        raise InputError(f"{path}: checkpoint header is corrupt ({e!r})") from e
    vocab = header.get("vocab")
    if (not isinstance(vocab, list) or len(vocab) != config.vocab_size
            or vocab[:len(SPECIALS)] != SPECIALS or not all(isinstance(w, str) for w in vocab)):
        raise InputError(f"{path}: checkpoint vocabulary is not a list of "
                         f"vocab_size={config.vocab_size} words that begins with {SPECIALS}")
    blocks = r.take_blocks((math.prod(shape), _F8) for _, shape, _ in parameter_layout(config))
    return VaeModel(config, values=blocks), vocab, extra
