"""Model tests: the flat parameter buffer and its views, posterior shapes
and init behavior, reparameterization statistics of `regavae_loss`'s
latents, latent-injection loop oracle, decode NLL oracles, ELBO gradient
check, overfit smoke test, attention head layout against a per-head
reference, generation contracts, and cached generation against a full
re-decode of every prefix."""

import numpy as np
import pytest

from regavae.autograd import Adam, Tape, Tensor, backward, zero_grads
from regavae.checkpoint import load_checkpoint, save_checkpoint
from regavae.data import BOS, EOS, SPECIALS
from regavae.errors import ConfigError, ContractError, InputError
from regavae.mixture import regavae_loss
from regavae.model import (LatentGaussian, ModelConfig, VaeModel, _LayerCache,
                           gaussian_kl_standard, parameter_layout)


def tiny_config(**kw):
    base = dict(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                r_rank=2, max_seq_len=32)
    base.update(kw)
    return ModelConfig(**base)


@pytest.fixture(scope="module")
def model():
    return VaeModel(tiny_config(), seed=0)


class TestConfig:
    def test_rejects_indivisible_heads(self):
        with pytest.raises(ConfigError):
            tiny_config(d_h=10, n_heads=3)

    def test_rejects_nonpositive_sizes(self):
        with pytest.raises(ConfigError):
            tiny_config(d_z=0)

    def test_rejects_vocabulary_smaller_than_specials(self):
        with pytest.raises(ConfigError, match="vocab_size"):
            tiny_config(vocab_size=len(SPECIALS) - 1)
        tiny_config(vocab_size=len(SPECIALS))

    def test_d_ff_default(self):
        assert tiny_config().d_ff == 4 * 16


def assert_views_of_flat(m):
    """Every parameter is the C-ordered view of its slice of `m.flat`, the
    slices following one another in `parameter_layout` order."""
    assert list(m.params) == [name for name, _, _ in parameter_layout(m.config)]
    assert m.flat.dtype == np.float64 and m.flat.flags["C_CONTIGUOUS"]
    lo = 0
    for p in m.params.values():
        assert p.data.base is m.flat and p.data.flags["C_CONTIGUOUS"]
        assert (p.data.__array_interface__["data"][0]
                == m.flat.__array_interface__["data"][0] + 8 * lo)
        lo += p.data.size
    assert lo == m.flat.size


class TestParameterBuffer:
    def test_fresh_model_views_its_buffer(self):
        assert_views_of_flat(VaeModel(tiny_config(), seed=3))

    def test_fresh_model_draws_in_layout_order(self):
        # The values a per-parameter draw in layout order gives, bit for bit.
        m = VaeModel(tiny_config(), seed=3)
        rng = np.random.default_rng(3)
        for name, shape, init in parameter_layout(m.config):
            assert m.params[name].data.tobytes() == init(rng, shape).tobytes(), name

    def test_loaded_model_views_the_file_block(self, tmp_path):
        m = VaeModel(tiny_config(), seed=3)
        save_checkpoint(tmp_path / "m.ckpt", m, SPECIALS + [f"w{i}" for i in range(16)])
        back, _, _ = load_checkpoint(tmp_path / "m.ckpt")
        assert_views_of_flat(back)
        assert back.flat.tobytes() == m.flat.tobytes()

    def test_adam_copies_and_rebinds_nothing(self):
        m = VaeModel(tiny_config(), seed=3)
        before = {name: (p.data, p.data.tobytes()) for name, p in m.params.items()}
        opt = Adam(m.params, m.flat, lr=1e-3)
        assert opt.flat is m.flat
        for name, p in m.params.items():
            assert p.data is before[name][0] and p.data.tobytes() == before[name][1]


class TestEncode:
    def test_shapes_and_count(self, model):
        posts = model.encode([4, 5, 6])
        assert len(posts) == model.config.n_layers
        for g in posts:
            assert g.mean_array.shape == (model.config.d_z,)
            assert g.log_var_array.shape == (model.config.d_z,)

    def test_fresh_posterior_unit_variance_moderate_means(self):
        # Fresh posterior heads start with log-variance exactly 0 (unit
        # variance) and input-dependent means of moderate magnitude, so the
        # initial KL is small but nonzero.
        m = VaeModel(tiny_config(), seed=3)
        for g in m.encode([4, 5, 6]):
            assert np.max(np.abs(g.mean_array)) < 3.0
            np.testing.assert_allclose(g.log_var_array, 0.0, atol=1e-12)
        from regavae.model import gaussian_kl_standard
        from regavae.autograd import Tape
        with Tape():
            kl = sum(gaussian_kl_standard(g).item() for g in m.encode([4, 5, 6]))
        assert 0.0 < kl < 5.0

    def test_log_var_clamped(self, model):
        for g in model.encode([4, 5]):
            assert np.all(g.log_var_array >= -10.0)
            assert np.all(g.log_var_array <= 10.0)

    def test_empty_input_raises(self, model):
        with pytest.raises(InputError):
            model.encode([])

    def test_long_input_truncates_with_warning(self, model):
        with pytest.warns(UserWarning):
            posts = model.encode([4] * 100)
        assert len(posts) == model.config.n_layers

    def test_deterministic(self, model):
        a = model.encode([4, 5, 6])
        b = model.encode([4, 5, 6])
        for g1, g2 in zip(a, b):
            np.testing.assert_array_equal(g1.mean_array, g2.mean_array)


class TestReparameterize:
    """At k=0 `regavae_loss` decodes z = mean + exp(0.5 * log_var) * eps per
    layer, eps ~ N(0, I) from the document's own generator."""

    def test_moments(self, sampled_latents):
        # A pack of n copies of one document: n draws per layer, around its
        # posterior mean with standard deviations 1 and 2.
        m = VaeModel(tiny_config(d_z=2), seed=3)
        for l in range(2):
            m.params[f"post.{l}.b_lv"].data[:] = [0.0, np.log(4.0)]
        n = 5000
        z = sampled_latents(m, [[4, 5]] * n, [[6]] * n, None, 0, 1.0,
                            [np.random.default_rng([0, i]) for i in range(n)])
        for g, zl in zip(m.encode([4, 5]), z):
            np.testing.assert_allclose((zl.mean(axis=0) - g.mean_array) / [1.0, 2.0], 0.0,
                                       atol=0.06)
            np.testing.assert_allclose(zl.std(axis=0), [1.0, 2.0], rtol=0.05)

    def test_gradient_flows_to_mean_and_logvar(self):
        # With beta = 0 only the reconstruction reaches the posterior heads,
        # through the sampled latents.
        m = VaeModel(tiny_config(), seed=4)
        with Tape() as tape:
            _, total = regavae_loss(m, [4, 5], [6, 7], None, 0, 0.0, np.random.default_rng(1))
            backward(total, tape)
        for l in range(2):
            assert np.any(m.params[f"post.{l}.b_mu"].grad != 0)
            assert np.any(m.params[f"post.{l}.b_lv"].grad != 0)

    def test_deterministic_given_rng(self, model, sampled_latents):
        z1 = sampled_latents(model, [4, 5], [6, 7], None, 0, 1.0, np.random.default_rng([5, 6]))
        z2 = sampled_latents(model, [4, 5], [6, 7], None, 0, 1.0, np.random.default_rng([5, 6]))
        for a, b in zip(z1, z2):
            np.testing.assert_array_equal(a, b)


class TestGaussianKl:
    def test_standard_prior_is_zero(self):
        g = LatentGaussian.from_arrays(np.zeros(4), np.zeros(4))
        with Tape():
            assert abs(gaussian_kl_standard(g).item()) < 1e-12

    def test_unit_mean_shift_is_half(self):
        g = LatentGaussian.from_arrays(np.array([1.0]), np.array([0.0]))
        with Tape():
            assert abs(gaussian_kl_standard(g).item() - 0.5) < 1e-12


class TestInjectLatent:
    @staticmethod
    def _oracle(model, v, z_of_row, layer):
        """Explicit per-rank, per-row loop over sum_j (W_v,j v_i) * (W_z,j z):
        rank j's maps are rows j*d_h:(j+1)*d_h of the stacked parameters."""
        c = model.config
        wv = model.params[f"inj.{layer}.w_v"].data
        wz = model.params[f"inj.{layer}.w_z"].data
        expect = np.zeros_like(v)
        for i in range(v.shape[0]):
            for j in range(c.r_rank):
                rows = slice(j * c.d_h, (j + 1) * c.d_h)
                expect[i] += (wv[rows] @ v[i]) * (wz[rows] @ z_of_row[i])
        return expect

    def test_matches_loop_oracle(self, model):
        c = model.config
        rng = np.random.default_rng(2)
        v = rng.standard_normal((3, c.d_h))
        z = rng.standard_normal(c.d_z)
        out = model.inject_latent(Tensor(v), Tensor(z), 0).data
        np.testing.assert_allclose(out, self._oracle(model, v, [z] * 3, 0), atol=1e-12)

    def test_pack_matches_loop_oracle(self, model):
        # Three segments of 2, 1 and 3 rows, each with its own latent.
        c = model.config
        rng = np.random.default_rng(3)
        v = rng.standard_normal((6, c.d_h))
        z = rng.standard_normal((3, c.d_z))
        offsets = np.array([0, 2, 3, 6])
        out = model.inject_latent(Tensor(v), Tensor(z), 1, offsets).data
        z_of_row = [z[0], z[0], z[1], z[2], z[2], z[2]]
        np.testing.assert_allclose(out, self._oracle(model, v, z_of_row, 1), atol=1e-12)

    def test_layer_out_of_range(self, model):
        v = Tensor(np.zeros((2, model.config.d_h)))
        z = Tensor(np.zeros(model.config.d_z))
        with pytest.raises(ContractError):
            model.inject_latent(v, z, model.config.n_layers)


class TestDecode:
    def _latents(self, model, rng=None):
        rng = rng or np.random.default_rng(0)
        return [Tensor(rng.standard_normal(model.config.d_z))
                for _ in range(model.config.n_layers)]

    def test_logit_shape_and_nll_near_uniform_at_init(self):
        # A fresh model's mean NLL should sit near the uniform baseline
        # ln(vocab_size), well inside +-15%.
        m = VaeModel(tiny_config(), seed=9)
        z = self._latents(m)
        logits, nll = m.decode(z, [4, 5, 6])
        assert logits.shape == (4, m.config.vocab_size)  # +1 step for eos
        uniform = np.log(m.config.vocab_size)
        assert abs(nll.item() - uniform) / uniform < 0.15

    def test_wrong_latent_count_raises(self, model):
        with pytest.raises(ContractError):
            model.decode([Tensor(np.zeros(model.config.d_z))], [4, 5])

    def test_nll_matches_manual_cross_entropy(self, model):
        z = self._latents(model)
        tokens = [4, 7, 9]
        logits, nll = model.decode(z, tokens)
        targets = tokens + [EOS]
        lg = logits.data
        man = 0.0
        for i, t in enumerate(targets):
            row = lg[i] - lg[i].max()
            man += -(row[t] - np.log(np.exp(row).sum()))
        np.testing.assert_allclose(nll.item(), man / len(targets), atol=1e-10)


class TestElbo:
    def test_breakdown_total(self, model):
        bd, total = model.elbo_step([4, 5], [6, 7], beta=0.5,
                                    rng=np.random.default_rng(0))
        np.testing.assert_allclose(bd.total, bd.recon_nll + 0.5 * bd.kl, atol=1e-12)
        np.testing.assert_allclose(total.item(), bd.total, atol=1e-12)

    def test_gradient_matches_finite_difference(self):
        # Full-loss gradient check on a few random coordinates of every
        # parameter family that participates in the ELBO.
        m = VaeModel(tiny_config(), seed=1)
        x, y = [4, 5, 6], [7, 8]
        rng_key = [0, 0]

        def loss_value():
            with Tape():
                _, total = m.elbo_step(x, y, 1.0, np.random.default_rng(rng_key))
                return total.item()

        zero_grads(m.params)
        with Tape() as tape:
            _, total = m.elbo_step(x, y, 1.0, np.random.default_rng(rng_key))
            backward(total, tape)

        picker = np.random.default_rng(7)
        eps = 1e-5
        for name in ["tok_emb", "pos_emb", "enc.0.attn.wq", "dec.1.ff.w1",
                     "post.0.w_mu", "post.1.w_lv", "inj.0.w_v", "inj.1.w_z",
                     "dec.lnf.g"]:
            p = m.params[name]
            flat = p.data.reshape(-1)
            gflat = p.grad.reshape(-1)
            for idx in picker.choice(flat.size, size=3, replace=False):
                orig = flat[idx]
                flat[idx] = orig + eps
                hi = loss_value()
                flat[idx] = orig - eps
                lo = loss_value()
                flat[idx] = orig
                fd = (hi - lo) / (2 * eps)
                assert abs(gflat[idx] - fd) <= 1e-4 + 1e-4 * abs(fd), \
                    f"{name}[{idx}]: analytic {gflat[idx]} vs fd {fd}"

    def test_overfits_single_pair(self):
        # Memorization smoke test: a tiny model should drive NLL down on one
        # pair within a few hundred steps.
        m = VaeModel(tiny_config(), seed=2)
        opt = Adam(m.params, m.flat, lr=3e-3)
        first = last = None
        for step in range(250):
            zero_grads(m.params)
            with Tape() as tape:
                bd, total = m.elbo_step([4, 5, 6], [7, 8, 9], 0.0,
                                        np.random.default_rng([3, step]))
                backward(total, tape)
            opt.step()
            if first is None:
                first = bd.recon_nll
            last = bd.recon_nll
        assert last < first * 0.25, (first, last)


def _reference_attention(model, h, prefix, causal, past=None):
    """Per-head numpy attention: head i reads and writes columns
    i*dk:(i+1)*dk. `past` holds the (keys, values) of earlier positions."""
    c = model.config
    p = {name: t.data for name, t in model.params.items()}
    q = h @ p[f"{prefix}.attn.wq"].T + p[f"{prefix}.attn.wq_b"]
    k = h @ p[f"{prefix}.attn.wk"].T  # no key bias
    v = h @ p[f"{prefix}.attn.wv"].T + p[f"{prefix}.attn.wv_b"]
    if past is not None:
        k, v = np.vstack([past[0], k]), np.vstack([past[1], v])
    n, m = q.shape[0], k.shape[0]
    dk = c.d_h // c.n_heads
    out = np.empty((n, c.d_h))
    for i in range(c.n_heads):
        cols = slice(i * dk, (i + 1) * dk)
        s = q[:, cols] @ k[:, cols].T / np.sqrt(dk)
        if causal:
            s = s + np.triu(np.full((n, m), -1e9), k=m - n + 1)
        e = np.exp(s - s.max(axis=1, keepdims=True))
        out[:, cols] = (e / e.sum(axis=1, keepdims=True)) @ v[:, cols]
    return out @ p[f"{prefix}.attn.wo"].T + p[f"{prefix}.attn.wo_b"]


class TestAttentionHeadLayout:
    """Batched heads against a per-head column-slice reference."""

    ATOL = 1e-12

    @pytest.fixture(scope="class")
    def model4(self):
        m = VaeModel(tiny_config(n_heads=4), seed=0)
        rng = np.random.default_rng(5)
        for name, t in m.params.items():  # unit-scale weights: heads differ
            if ".attn." in name:
                t.data[...] = rng.standard_normal(t.shape) * 0.5
        return m

    def test_non_causal(self, model4):
        h = np.random.default_rng(6).standard_normal((5, 16))
        got = model4._attention(Tensor(h), "enc.0", False, np.array([0, 5])).data
        ref = _reference_attention(model4, h, "enc.0", causal=False)
        np.testing.assert_allclose(got, ref, rtol=0, atol=self.ATOL)

    def test_causal_rows(self, model4):
        h = np.random.default_rng(7).standard_normal((6, 16))
        got = model4._attention(Tensor(h), "dec.1", True, np.array([0, 6])).data
        ref = _reference_attention(model4, h, "dec.1", causal=True)
        np.testing.assert_allclose(got, ref, rtol=0, atol=self.ATOL)

    def test_cached_one_row(self, model4):
        rng = np.random.default_rng(8)
        prefix, new = rng.standard_normal((4, 16)), rng.standard_normal((1, 16))
        cache = _LayerCache(None, np.empty((0, 16)), np.empty((0, 16)))
        model4._attention(Tensor(prefix), "dec.0", True, np.array([0, 4]), cache, 0)
        past = (cache.keys.copy(), cache.values.copy())
        got = model4._attention(Tensor(new), "dec.0", True, np.array([0, 1]), cache, 4).data
        ref = _reference_attention(model4, new, "dec.0", causal=True, past=past)
        np.testing.assert_allclose(got, ref, rtol=0, atol=self.ATOL)
        assert cache.keys.shape == cache.values.shape == (5, 16)


class TestGenerate:
    def _latents(self, model):
        rng = np.random.default_rng(4)
        return [Tensor(rng.standard_normal(model.config.d_z))
                for _ in range(model.config.n_layers)]

    def test_greedy_deterministic(self, model):
        z = self._latents(model)
        a = model.generate(z, 8)
        b = model.generate(z, 8)
        assert a == b

    def test_respects_max_len_and_no_eos(self, model):
        z = self._latents(model)
        out = model.generate(z, 5)
        assert len(out) <= 5
        assert EOS not in out

    def test_top_k_requires_rng(self, model):
        for max_len in (5, 0):
            with pytest.raises(ContractError):
                model.generate(self._latents(model), max_len, strategy="top_k")

    def test_top_k_below_one_raises(self, model):
        with pytest.raises(ContractError):
            model.generate(self._latents(model), 5, "top_k", np.random.default_rng(0), top_k=0)

    def test_top_k_reproducible(self, model):
        z = self._latents(model)
        a = model.generate(z, 8, strategy="top_k", rng=np.random.default_rng(1))
        b = model.generate(z, 8, strategy="top_k", rng=np.random.default_rng(1))
        assert a == b

    def test_unknown_strategy(self, model):
        with pytest.raises(ContractError):
            model.generate(self._latents(model), 5, strategy="beam")

    def test_wrong_latents_raise_before_decoding(self, model):
        z = self._latents(model)
        with pytest.raises(ContractError):
            model.generate(z[:-1], 0)
        with pytest.raises(ContractError):
            model.generate(z[:-1] + [Tensor(np.ones(model.config.d_z + 1))], 0)


def _reference_generate(model, z_layers, max_len, strategy="greedy", rng=None, top_k=10):
    """Generation without a cache: every step re-decodes [bos] + prefix and
    keeps the last row of the logits."""
    c = model.config
    out = []
    for _ in range(max_len):
        inputs = [BOS] + out
        if len(inputs) > c.max_seq_len:
            break
        logits = model._decoder_logits(z_layers, inputs).data[-1]
        if strategy == "greedy":
            nxt = int(np.argmax(logits))
        else:
            cand = np.argsort(-logits, kind="stable")[:min(top_k, logits.size)]
            probs = np.exp(logits[cand] - logits[cand].max())
            probs /= probs.sum()
            nxt = int(rng.choice(cand, p=probs))
        if nxt == EOS:
            break
        out.append(nxt)
    return out


class TestCachedGenerate:
    """Incremental decoding against the full re-decode of every prefix."""

    ATOL = 1e-12

    @pytest.fixture(scope="class", params=["tiny", "default"])
    def any_model(self, request):
        if request.param == "tiny":
            return VaeModel(tiny_config(), seed=0)
        return VaeModel(ModelConfig(vocab_size=60), seed=1)

    def _latent_sets(self, model, n=4):
        rng = np.random.default_rng(11)
        return [[Tensor(rng.standard_normal(model.config.d_z))
                 for _ in range(model.config.n_layers)] for _ in range(n)]

    def test_step_logits_match_full_redecode(self, any_model, monkeypatch):
        c = any_model.config
        real = any_model._decoder_logits
        rows, widths = [], []

        def spy(z_layers, inputs, *args):
            logits = real(z_layers, inputs, *args)
            widths.append(len(inputs))
            rows.append(logits.data[-1].copy())
            return logits

        monkeypatch.setattr(any_model, "_decoder_logits", spy)
        runs = []
        for z in self._latent_sets(any_model):
            first = len(rows)
            out = any_model.generate(z, 12)
            runs.append((z, out, rows[first:]))
        monkeypatch.undo()
        assert set(widths) == {1}  # one new token per step
        for z, out, steps in runs:
            assert len(steps) in (len(out), len(out) + 1)  # +1: the step that drew EOS
            for t, got in enumerate(steps):
                ref = any_model._decoder_logits(z, [BOS] + out[:t]).data[-1]
                np.testing.assert_allclose(got, ref, rtol=0, atol=self.ATOL)

    def test_greedy_matches_reference(self, any_model):
        for z in self._latent_sets(any_model):
            assert any_model.generate(z, 16) == _reference_generate(any_model, z, 16)

    def test_top_k_matches_reference(self, any_model):
        for i, z in enumerate(self._latent_sets(any_model)):
            got = any_model.generate(z, 16, strategy="top_k",
                                     rng=np.random.default_rng(i), top_k=5)
            ref = _reference_generate(any_model, z, 16, strategy="top_k",
                                      rng=np.random.default_rng(i), top_k=5)
            assert got == ref

    def test_stops_at_max_seq_len(self):
        m = VaeModel(tiny_config(max_seq_len=6), seed=0)
        lengths = []
        for z in self._latent_sets(m, n=6):
            out = m.generate(z, 50)
            assert out == _reference_generate(m, z, 50)
            lengths.append(len(out))
        assert max(lengths) == m.config.max_seq_len
