"""Fixtures shared by the test modules."""

import os

import numpy as np
import pytest

from regavae import autograd as ag
from regavae.mixture import regavae_loss
from regavae.model import VaeModel


@pytest.fixture
def sampled_latents(monkeypatch):
    """sampled_latents(model, *args, **kw) runs `regavae_loss(model, *args,
    **kw)` and returns the per-layer latents it hands to `decode`, as (B, d_z)
    arrays: `regavae_loss` makes a lone document a pack of one (B = 1)."""
    decode = VaeModel.decode

    def run(model, *args, **kw):
        seen = []

        def spy(self, z_layers, targets):
            seen.append([z.data for z in z_layers])
            return decode(self, z_layers, targets)

        with monkeypatch.context() as m:
            m.setattr(VaeModel, "decode", spy)
            regavae_loss(model, *args, **kw)
        assert len(seen) == 1
        return seen[0]

    return run


@pytest.fixture
def attention_groups():
    """attention_groups(q, k, v, offsets, causal, start, heads) is attention
    within the segments of `offsets` by its kernel, `_attention_group`, run
    once per segment length, as the op groups them. Segment i's keys and
    values are `start` cached rows followed by one row per query row, so k
    and v have offsets[-1] + B * start rows, segment by segment."""
    def run(q, k, v, offsets, causal, start, heads):
        offsets = np.asarray(offsets)
        lengths, out = np.diff(offsets), np.empty_like(q)
        for n in np.unique(lengths):
            segs = np.flatnonzero(lengths == n)
            rows = offsets[segs, None] + np.arange(n)
            keys = rows[:, :1] + start * segs[:, None] + np.arange(n + start)
            got, _ = ag._attention_group(q[rows], k[keys], v[keys], heads, causal)
            out[rows.reshape(-1)] = got.reshape(-1, q.shape[1])
        return out

    return run


@pytest.fixture
def cut_after_sizing(monkeypatch):
    """cut_after_sizing(path, n) makes each later `os.fstat` return the size
    it finds and then cut `path` to n bytes: the file shrinks after a reader
    has sized it and before it reads, as when it is rewritten in place."""
    fstat = os.fstat

    def arm(path, n):
        def sized_then_cut(fd):
            st = fstat(fd)
            os.truncate(path, n)
            return st

        monkeypatch.setattr(os, "fstat", sized_then_cut)

    return arm
