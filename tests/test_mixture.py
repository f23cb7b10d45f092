"""Mixture posterior tests: weight oracles, categorical sampling frequencies,
closed-form KLs against Monte Carlo estimates, the mixture upper bound, the
k=0 reduction to the plain ELBO, and frozen-key gradient behavior."""

import numpy as np
import pytest

from regavae.autograd import Tape, backward, zero_grads
from regavae.errors import ContractError, RetrievalError
from regavae.mixture import (MixturePosterior, MixturePrior, kl_categorical,
                             kl_gaussian_diag, kl_mixture_upper_bound,
                             mixture_weights, regavae_loss, sample_mixture)
from regavae.model import LatentGaussian, ModelConfig, VaeModel
from regavae.retrieval import RetrievalDatabase, RetrievalEntry, build_database
from regavae.data import CorpusPair


def gauss(mean, log_var=None):
    mean = np.asarray(mean, dtype=np.float64)
    lv = np.zeros_like(mean) if log_var is None else np.asarray(log_var, float)
    return LatentGaussian.from_arrays(mean, lv)


def mc_kl_gaussian(a, b, n=200_000, seed=0):
    """Monte Carlo KL(a||b) for diagonal Gaussians."""
    rng = np.random.default_rng(seed)
    sa = np.exp(0.5 * a.log_var_array)
    x = a.mean_array + sa * rng.standard_normal((n, a.dim))

    def logpdf(x, g):
        v = np.exp(g.log_var_array)
        return -0.5 * np.sum((x - g.mean_array) ** 2 / v
                             + g.log_var_array + np.log(2 * np.pi), axis=1)

    return float(np.mean(logpdf(x, a) - logpdf(x, b)))


def mc_kl_mixture(p: MixturePosterior, q: MixturePrior, n=100_000, seed=0):
    """Monte Carlo estimate of the true KL between mixture p and prior q."""
    rng = np.random.default_rng(seed)
    comps = rng.choice(len(p.components), size=n, p=p.weights)
    d = p.components[0].dim
    eps = rng.standard_normal((n, d))
    mus = np.stack([g.mean_array for g in p.components])
    sds = np.stack([np.exp(0.5 * g.log_var_array) for g in p.components])
    x = mus[comps] + sds[comps] * eps

    def log_mix(x, weights, mus, lvs):
        parts = []
        for w, m, lv in zip(weights, mus, lvs):
            if w == 0:
                continue
            v = np.exp(lv)
            lp = -0.5 * np.sum((x - m) ** 2 / v + lv + np.log(2 * np.pi), axis=1)
            parts.append(np.log(w) + lp)
        return np.logaddexp.reduce(np.stack(parts), axis=0)

    lvs = np.stack([g.log_var_array for g in p.components])
    logp = log_mix(x, p.weights, mus, lvs)
    logq = log_mix(x, q.weights, np.zeros_like(mus), np.zeros_like(lvs))
    return float(np.mean(logp - logq))


class TestMixtureWeights:
    def test_no_retrieval_is_pure_query(self):
        np.testing.assert_array_equal(mixture_weights(np.array([1.0, 0.0]), []),
                                      [1.0])

    def test_hand_computed_softmax(self):
        # query [1,0]; keys [1,0] (cos 1) and [0,1] (cos 0); self logit 1.0
        q = np.array([1.0, 0.0])
        keys = [gauss([2.0, 0.0]), gauss([0.0, 3.0])]
        w = mixture_weights(q, keys)
        e = np.exp([1.0, 1.0, 0.0])
        np.testing.assert_allclose(w, e / e.sum(), atol=1e-12)

    def test_sums_to_one_and_query_first(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            q = rng.standard_normal(4)
            keys = [gauss(rng.standard_normal(4)) for _ in range(3)]
            w = mixture_weights(q, keys)
            assert abs(w.sum() - 1.0) < 1e-12
            assert w.shape == (4,)
            assert np.all(w > 0)

    def test_self_logit_monotone(self):
        q = np.array([1.0, 0.0])
        keys = [gauss([0.0, 1.0])]
        w_lo = mixture_weights(q, keys, self_logit=0.0)
        w_hi = mixture_weights(q, keys, self_logit=3.0)
        assert w_hi[0] > w_lo[0]


class TestMixtureDataclasses:
    def test_weight_validation(self):
        with pytest.raises(ContractError):
            MixturePosterior([gauss([0.0])], np.array([0.5]))
        with pytest.raises(ContractError):
            MixturePosterior([gauss([0.0]), gauss([1.0])], np.array([1.0]))
        with pytest.raises(ContractError):
            MixturePrior(2, np.array([0.7, 0.7]))

    def test_dimension_agreement(self):
        with pytest.raises(ContractError):
            MixturePosterior([gauss([0.0]), gauss([0.0, 1.0])],
                             np.array([0.5, 0.5]))

    def test_matching_prior_policies(self):
        mp = MixturePosterior([gauss([0.0, 0.0]), gauss([1.0, 1.0])],
                              np.array([0.7, 0.3]))
        tied = MixturePrior.matching(mp, "tied")
        np.testing.assert_array_equal(tied.weights, [0.7, 0.3])
        uni = MixturePrior.matching(mp, "uniform")
        np.testing.assert_array_equal(uni.weights, [0.5, 0.5])
        with pytest.raises(ContractError):
            MixturePrior.matching(mp, "other")


class TestSampleMixture:
    def test_component_frequencies(self):
        mp = MixturePosterior(
            [gauss([-10.0]), gauss([0.0]), gauss([10.0])],
            np.array([0.2, 0.3, 0.5]))
        rng = np.random.default_rng(0)
        counts = np.zeros(3)
        n = 20000
        for _ in range(n):
            _, idx = sample_mixture(mp, rng)
            counts[idx] += 1
        np.testing.assert_allclose(counts / n, [0.2, 0.3, 0.5], atol=0.015)

    def test_single_component_skips_categorical(self):
        # With one component the draw must consume exactly the same rng stream
        # as a bare reparameterized sample.
        from regavae.model import reparameterize
        g = gauss([1.0, 2.0], [0.1, 0.2])
        z1, idx = sample_mixture(MixturePosterior([g], np.array([1.0])),
                                 np.random.default_rng(9))
        z2 = reparameterize(g, np.random.default_rng(9))
        assert idx == 0
        np.testing.assert_array_equal(z1.data, z2.data)

    def test_deterministic_given_rng(self):
        mp = MixturePosterior([gauss([0.0]), gauss([5.0])], np.array([0.4, 0.6]))
        z1, i1 = sample_mixture(mp, np.random.default_rng(3))
        z2, i2 = sample_mixture(mp, np.random.default_rng(3))
        assert i1 == i2
        np.testing.assert_array_equal(z1.data, z2.data)


class TestGaussianKl:
    def test_identical_is_zero(self):
        g = gauss([1.0, -2.0], [0.3, -0.4])
        assert abs(kl_gaussian_diag(g, g)) < 1e-12

    def test_textbook_value(self):
        # KL(N(1,1) || N(0,1)) = 0.5
        assert abs(kl_gaussian_diag(gauss([1.0]), gauss([0.0])) - 0.5) < 1e-12

    def test_asymmetry(self):
        a = gauss([0.0], [np.log(4.0)])
        b = gauss([0.0], [0.0])
        assert kl_gaussian_diag(a, b) != pytest.approx(kl_gaussian_diag(b, a))

    def test_matches_monte_carlo(self):
        rng = np.random.default_rng(1)
        for trial in range(10):
            d = int(rng.integers(1, 5))
            a = gauss(rng.uniform(-2, 2, d), rng.uniform(-1, 1, d))
            b = gauss(rng.uniform(-2, 2, d), rng.uniform(-1, 1, d))
            closed = kl_gaussian_diag(a, b)
            est = mc_kl_gaussian(a, b, seed=trial)
            assert abs(closed - est) < 0.05 + 0.02 * abs(closed)

    def test_dimension_mismatch(self):
        with pytest.raises(ContractError):
            kl_gaussian_diag(gauss([0.0]), gauss([0.0, 0.0]))


class TestCategoricalKl:
    def test_identical_zero(self):
        assert kl_categorical([0.3, 0.7], [0.3, 0.7]) == 0.0

    def test_hand_value(self):
        got = kl_categorical([1.0, 0.0], [0.5, 0.5])
        assert abs(got - np.log(2.0)) < 1e-12

    def test_absolute_continuity(self):
        assert kl_categorical([0.5, 0.5], [1.0, 0.0]) == float("inf")
        assert np.isfinite(kl_categorical([1.0, 0.0], [1.0, 0.0]))


class TestMixtureUpperBound:
    def test_zero_iff_standard(self):
        mp = MixturePosterior([gauss([0.0, 0.0]), gauss([0.0, 0.0])],
                              np.array([0.6, 0.4]))
        q = MixturePrior.matching(mp, "tied")
        assert abs(kl_mixture_upper_bound(mp, q)) < 1e-12

    def test_upper_bounds_monte_carlo_kl(self):
        rng = np.random.default_rng(2)
        for trial in range(20):
            n_comp = int(rng.integers(1, 4))
            d = int(rng.integers(1, 4))
            comps = [gauss(rng.uniform(-2, 2, d), rng.uniform(-1, 1, d))
                     for _ in range(n_comp)]
            w = rng.dirichlet(np.ones(n_comp))
            mp = MixturePosterior(comps, w)
            q = MixturePrior.matching(mp, "uniform")
            bound = kl_mixture_upper_bound(mp, q)
            est = mc_kl_mixture(mp, q, n=50_000, seed=trial)
            # The bound must sit above the MC estimate (minus MC noise).
            assert bound >= est - 0.05, (trial, bound, est)

    def test_tied_weights_drop_categorical_term(self):
        comps = [gauss([1.0]), gauss([-1.0])]
        mp = MixturePosterior(comps, np.array([0.8, 0.2]))
        tied = kl_mixture_upper_bound(mp, MixturePrior.matching(mp, "tied"))
        expect = 0.8 * kl_gaussian_diag(comps[0], gauss([0.0])) \
            + 0.2 * kl_gaussian_diag(comps[1], gauss([0.0]))
        assert abs(tied - expect) < 1e-12

    def test_component_count_mismatch(self):
        mp = MixturePosterior([gauss([0.0])], np.array([1.0]))
        with pytest.raises(ContractError):
            kl_mixture_upper_bound(mp, MixturePrior(1, np.array([0.5, 0.5])))


@pytest.fixture(scope="module")
def trained_bits():
    cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                      r_rank=2, max_seq_len=32)
    model = VaeModel(cfg, seed=0)
    # Give the posterior heads nonzero weights so keys/queries are informative.
    rng = np.random.default_rng(5)
    for l in range(cfg.n_layers):
        model.params[f"post.{l}.w_mu"].data[:] = 0.2 * rng.standard_normal(
            model.params[f"post.{l}.w_mu"].data.shape)
    corpus = [CorpusPair([4 + i, 5 + i], [6 + i, 7 + i]) for i in range(6)]
    db = build_database(corpus, model)
    return model, db, corpus


class TestRegavaeLoss:
    def test_k0_reduces_to_plain_elbo(self, trained_bits):
        model, db, _ = trained_bits
        x, y = [4, 5, 6], [7, 8]
        with Tape():
            bd1, t1 = regavae_loss(model, x, y, None, 0, 0.7,
                                   np.random.default_rng([1, 2]))
        with Tape():
            bd2, t2 = model.elbo_step(x, y, 0.7, np.random.default_rng([1, 2]))
        assert t1.item() == t2.item()  # bit-identical
        assert bd1.recon_nll == bd2.recon_nll
        assert bd1.kl == bd2.kl

    def test_k_positive_empty_db_raises(self, trained_bits):
        model, _, _ = trained_bits
        with pytest.raises(RetrievalError):
            with Tape():
                regavae_loss(model, [4], [5], None, 2, 1.0,
                             np.random.default_rng(0))

    def test_keys_carry_no_gradient(self, trained_bits):
        model, db, _ = trained_bits
        zero_grads(model.params)
        with Tape() as tape:
            _, total = regavae_loss(model, [4, 5], [6, 7], db, 3, 1.0,
                                    np.random.default_rng([2, 0]))
            backward(total, tape)
        # Key tensors live only in the database; model grads must exist and the
        # stored key arrays must be untouched by backward.
        assert any(p.grad is not None and np.any(p.grad != 0)
                   for p in model.params.values())
        for e in db.entries:
            assert e.key.mean.grad is None

    def test_deterministic_given_rng(self, trained_bits):
        model, db, _ = trained_bits
        with Tape():
            _, t1 = regavae_loss(model, [4, 5], [6, 7], db, 2, 1.0,
                                 np.random.default_rng([7, 7]))
        with Tape():
            _, t2 = regavae_loss(model, [4, 5], [6, 7], db, 2, 1.0,
                                 np.random.default_rng([7, 7]))
        assert t1.item() == t2.item()

    def test_exclude_id_changes_neighbors(self, trained_bits):
        model, db, corpus = trained_bits
        from regavae.mixture import retrieve_mixture
        posts = model.encode(corpus[0].source_tokens)
        _, _, hits_all = retrieve_mixture(posts, db, 2)
        _, _, hits_excl = retrieve_mixture(posts, db, 2, exclude_id=hits_all[0].id)
        assert hits_all[0].id not in [e.id for e in hits_excl]

    def test_retrieved_keys_are_the_hits_own_keys(self, trained_bits):
        model, db, corpus = trained_bits
        from regavae.mixture import retrieve_mixture
        _, keys, hits = retrieve_mixture(model.encode(corpus[0].source_tokens), db, 3)
        assert len(keys) == 3
        assert all(key is e.key for key, e in zip(keys, hits))
