"""Versioned binary checkpoints.

Layout, version 3: magic "RGVC", u32 format version, u32 length + UTF-8 JSON
header (model config, vocabulary, non-negative training counters), then the
model's parameter buffer `VaeModel.flat` as one little-endian float64 block,
and nothing after it. The config alone decides each parameter's name, shape
and place (`model.parameter_layout`), so the file stores none of them. A load
checks the header and a vocabulary that begins with `data.SPECIALS`, then
compares the config's parameter count (`ModelConfig.n_params`, in closed
form) against the bytes left, and only then reads the block straight into
the buffer the model is built around: a load holds the block once, and a
header that claims a huge model costs one comparison. Round-trips are
bit-exact, and saves replace the file atomically. Versions 1 and 2, which
stored a name and shape per parameter, are rejected with a message to rerun
training.
"""

from __future__ import annotations

import json
import os
import struct
import sys
from contextlib import contextmanager
from typing import get_type_hints

import numpy as np

from .autograd import check_views
from .data import SPECIALS
from .errors import ConfigError, InputError
from .model import ModelConfig, VaeModel

_MAGIC = b"RGVC"
_VERSION = 3
_F8 = np.dtype("<f8")
# Field type -> the Python types its JSON value may take.
_JSON_TYPES = {int: int, float: (int, float), str: str}


def check_json_fields(raw, types: dict, what: str) -> None:
    """Raise InputError ("<what> ...") unless `raw` is a JSON object whose
    keys are all in `types` (name -> int, float or str) and whose values have
    those types. bool is an int subclass, an int is a valid float, and
    Python's json reads NaN and Infinity, which JSON itself does not have; a
    float field's value, int or float, must not exceed the largest float in size."""
    if not isinstance(raw, dict):
        raise InputError(f"{what} must be a JSON object")
    unknown = set(raw) - set(types)
    if unknown:
        raise InputError(f"{what} has unknown keys {sorted(unknown)}")
    for name, value in raw.items():
        if (isinstance(value, bool) or not isinstance(value, _JSON_TYPES[types[name]])
                or (types[name] is float and not abs(value) <= sys.float_info.max)):
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
    """The binary file `f`, read once, front to back. The file must open with
    `magic` and the u32 format `version`; another version raises InputError
    naming `rerun`, the command that rewrites the file. A take that asks for
    more bytes than are left raises InputError ("<path>: <what> is truncated"),
    so a corrupt size field costs a comparison, not an allocation. A read that
    ends early, as when the file shrank after it was opened, raises it too."""

    def __init__(self, f, what: str, magic: bytes, version: int, rerun: str):
        self._f = f
        self.left = os.fstat(f.fileno()).st_size  # the bytes not taken yet
        self._what = f"{f.name}: {what}"
        if self.take(4) != magic:
            raise InputError(f"{f.name} is not a {what} file")
        (found,) = struct.unpack("<I", self.take(4))
        if found != version:
            raise InputError(f"{self._what} format version {found}, expected {version}; "
                             f"rerun {rerun} to rewrite it")

    def take(self, n: int) -> bytes:
        if n > self.left:
            raise InputError(f"{self._what} is truncated")
        self.left -= n
        if len(data := self._f.read(n)) != n:
            raise InputError(f"{self._what} is truncated")
        return data

    def take_blocks(self, blocks) -> list[np.ndarray]:
        """All the bytes left, read into a new array per (count, dtype) of `blocks`;
        InputError if the blocks need more bytes or leave some over."""
        blocks = list(blocks)
        if (need := sum(count * dtype.itemsize for count, dtype in blocks)) != self.left:
            raise InputError(f"{self._what} is truncated" if need > self.left
                             else f"{self._what} has bytes after its last block")
        arrays = [np.empty(count, dtype) for count, dtype in blocks]
        for a in arrays:
            if self._f.readinto(a) != a.nbytes:
                raise InputError(f"{self._what} is truncated")
        self.left = 0
        return arrays


def save_checkpoint(path, model: VaeModel, vocab: list[str], extra: dict | None = None) -> None:
    header = {"config": vars(model.config), "vocab": list(vocab), "extra": extra or {}}
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    check_views(model.params, model.flat)
    with atomic_write(path) as f:
        f.write(_MAGIC + struct.pack("<II", _VERSION, len(blob)) + blob)
        f.write(model.flat.astype(_F8, copy=False))


def load_checkpoint(path) -> tuple[VaeModel, list[str], dict]:
    with open(path, "rb") as f:
        r = ByteReader(f, "checkpoint", _MAGIC, _VERSION,
                       "training (train-vae, then train-regavae)")
        (hlen,) = struct.unpack("<I", r.take(4))
        try:
            header = json.loads(str(r.take(hlen), "utf-8"))
            check_json_fields(header["config"], get_type_hints(ModelConfig),
                              f"{path}: checkpoint config")
            extra = header.get("extra", {})
            # The extra fields are training counters, all non-negative integers.
            check_json_fields(extra, dict.fromkeys(extra, int), f"{path}: checkpoint 'extra'")
            if negative := [name for name, value in extra.items() if value < 0]:
                raise InputError(f"{path}: checkpoint 'extra' keys {negative} must be >= 0")
            config = ModelConfig(**header["config"])
        except (ValueError, KeyError, TypeError, ConfigError) as e:
            raise InputError(f"{path}: checkpoint header is corrupt ({e!r})") from e
        vocab = header.get("vocab")
        if (not isinstance(vocab, list) or len(vocab) != config.vocab_size
                or vocab[:len(SPECIALS)] != SPECIALS or not all(isinstance(w, str) for w in vocab)):
            raise InputError(f"{path}: checkpoint vocabulary is not a list of "
                             f"vocab_size={config.vocab_size} words that begins with {SPECIALS}")
        (flat,) = r.take_blocks([(config.n_params, _F8)])
    return VaeModel(config, flat=flat), vocab, extra
