"""Fixtures shared by the test modules."""

import pytest

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
