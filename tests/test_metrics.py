"""Metric tests: hand-computed n-gram oracles for BLEU/Self-BLEU/Dist-n/
Rouge-L, constructed-posterior oracles for active units, perplexity sanity,
and MetricReport serialization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from regavae.data import CorpusPair
from regavae.errors import InputError
from regavae.metrics import (MetricReport, active_units, corpus_bleu,
                             count_active_units, dist_n, heldout_kl,
                             perplexity, rouge_l, self_bleu, sentence_bleu)
from regavae.model import ModelConfig, VaeModel

tokens = st.lists(st.integers(0, 9), min_size=1, max_size=12)


class TestSentenceBleu:
    def test_identical_is_exactly_100(self):
        s = ["the", "cat", "sat", "on", "the", "mat"]
        assert sentence_bleu(s, [s]) == 100.0

    def test_disjoint_is_zero(self):
        assert sentence_bleu(["a", "b"], [["c", "d"]]) == 0.0

    def test_hand_computed_partial(self):
        # cand "a b c", ref "a b d": p1=2/3; clipped 2-grams: "a b" -> 1 of 2,
        # smoothed (1+1)/(2+1); 3-grams: 0 of 1 -> 1/2; no 4-grams -> (0+1)/(0+1)=1.
        # BP=1 (equal lengths). BLEU = 100 * (2/3 * 2/3 * 1/2 * 1)^(1/4).
        got = sentence_bleu(["a", "b", "c"], [["a", "b", "d"]])
        want = 100.0 * (2 / 3 * 2 / 3 * 1 / 2 * 1.0) ** 0.25
        assert abs(got - want) < 1e-9

    def test_brevity_penalty(self):
        # cand "a b" vs ref "a b c d": p1=1, p2 smoothed (1+1)/(1+1)=1,
        # p3/p4 have zero totals -> smoothed 1. BP = exp(1 - 4/2).
        got = sentence_bleu(["a", "b"], [["a", "b", "c", "d"]])
        want = 100.0 * np.exp(1 - 4 / 2)
        assert abs(got - want) < 1e-9

    def test_needs_reference(self):
        with pytest.raises(InputError):
            sentence_bleu(["a"], [])

    @given(tokens)
    @settings(max_examples=50, deadline=None)
    def test_self_identity_property(self, toks):
        assert sentence_bleu(toks, [toks]) == pytest.approx(100.0)


class TestSelfBleu:
    def test_identical_sentences_exactly_100(self):
        s = ["x", "y", "z", "w", "v"]
        for k in (2, 3, 5):
            assert self_bleu([s] * k) == 100.0

    def test_fully_distinct_lower_than_identical(self):
        a = ["a", "b", "c", "d"]
        b = ["e", "f", "g", "h"]
        assert self_bleu([a, b]) < 100.0

    def test_needs_two(self):
        with pytest.raises(InputError):
            self_bleu([["a", "b"]])


class TestCorpusBleu:
    def test_identical_corpus_100(self):
        cands = [["a", "b", "c"], ["d", "e", "f", "g"]]
        assert corpus_bleu(cands, cands) == pytest.approx(100.0)

    def test_mismatched_lengths(self):
        with pytest.raises(InputError):
            corpus_bleu([["a"]], [["a"], ["b"]])

    def test_empty_corpus(self):
        with pytest.raises(InputError):
            corpus_bleu([], [])

    def test_order_sensitive_aggregation(self):
        # Pooled statistics, not mean of sentence scores: one perfect and one
        # disjoint pair give a corpus score strictly between the two.
        cands = [["a", "b", "c"], ["x", "y", "z"]]
        refs = [["a", "b", "c"], ["p", "q", "r"]]
        score = corpus_bleu(cands, refs)
        assert 0.0 < score < 100.0


class TestDistN:
    def test_hand_oracle_repeated_unigram(self):
        # "a a a a": 3 bigrams, 1 unique -> 1/3 exactly.
        assert dist_n([["a", "a", "a", "a"]], 2) == 1 / 3

    def test_all_distinct_is_one(self):
        assert dist_n([["a", "b", "c", "d"]], 2) == 1.0

    def test_duplication_cannot_increase(self):
        gens = [["a", "b", "c"], ["b", "c", "d"]]
        base = dist_n(gens, 2)
        for m in (2, 3, 5):
            assert dist_n(gens * m, 2) <= base + 1e-12

    def test_no_ngrams_raises(self):
        with pytest.raises(InputError):
            dist_n([["a"]], 2)
        with pytest.raises(InputError):
            dist_n([], 2)

    @given(st.lists(tokens, min_size=1, max_size=6))
    @settings(max_examples=50, deadline=None)
    def test_range_property(self, gens):
        if all(len(g) < 2 for g in gens):
            return
        v = dist_n(gens, 2)
        assert 0.0 < v <= 1.0


class TestRougeL:
    def test_identity_100(self):
        s = ["the", "cat", "sat"]
        assert rouge_l(s, s) == 100.0

    def test_hand_lcs_two_thirds(self):
        # LCS("the cat sat", "the cat ran") = 2; P = R = 2/3; F1 = 2/3.
        got = rouge_l(["the", "cat", "sat"], ["the", "cat", "ran"])
        assert abs(got - 100.0 * (2 / 3)) < 1e-9

    def test_disjoint_zero(self):
        assert rouge_l(["a", "b"], ["c", "d"]) == 0.0

    def test_subsequence_not_substring(self):
        # LCS("a x b y c", "a b c") = 3, P=3/5, R=1, F1=2*(3/5)/(8/5)=3/4.
        got = rouge_l(["a", "x", "b", "y", "c"], ["a", "b", "c"])
        assert abs(got - 75.0) < 1e-9

    def test_empty_raises(self):
        with pytest.raises(InputError):
            rouge_l([], ["a"])

    @given(tokens, tokens)
    @settings(max_examples=50, deadline=None)
    def test_symmetry_of_f1(self, a, b):
        assert rouge_l(a, b) == pytest.approx(rouge_l(b, a))


class TestActiveUnits:
    def test_constant_means_zero(self):
        assert count_active_units(np.zeros((10, 4)), 0.2) == 0

    def test_single_active_dimension(self):
        # One dimension alternating +-1: variance 1 > 0.2; others constant.
        means = np.zeros((10, 4))
        means[::2, 2] = 1.0
        means[1::2, 2] = -1.0
        assert count_active_units(means, 0.2) == 1

    def test_threshold_is_strict(self):
        # Variance exactly at the threshold does not count.
        means = np.zeros((2, 1))
        means[0, 0] = 1.0  # variance of {1, 0} is 0.25
        assert count_active_units(means, 0.25) == 0
        assert count_active_units(means, 0.2499) == 1

    def test_monotone_in_threshold(self):
        rng = np.random.default_rng(0)
        means = rng.standard_normal((50, 8)) * rng.uniform(0, 2, 8)
        counts = [count_active_units(means, t) for t in (0.0, 0.2, 0.5, 1.0, 5.0)]
        assert counts == sorted(counts, reverse=True)

    def test_model_aggregation_sums_layers(self):
        cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                          r_rank=2, max_seq_len=32)
        model = VaeModel(cfg, seed=0)
        data = [CorpusPair([4, 5], [6]), CorpusPair([7, 8], [9])]
        # Fresh heads: means are tiny, variance far below threshold -> AU = 0.
        assert active_units(model, data) == 0
        # Make layer-0 means depend strongly on the input.
        model.params["post.0.w_mu"].data[:] = 10.0 * np.random.default_rng(1).standard_normal(
            model.params["post.0.w_mu"].data.shape)
        assert active_units(model, data) >= 1

    def test_needs_two_examples(self):
        cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                          r_rank=2, max_seq_len=32)
        with pytest.raises(InputError):
            active_units(VaeModel(cfg, seed=0), [CorpusPair([4], [5])])


class TestPerplexity:
    @pytest.fixture(scope="class")
    def model(self):
        cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                          r_rank=2, max_seq_len=32)
        return VaeModel(cfg, seed=0)

    def test_fresh_model_near_uniform(self, model):
        data = [CorpusPair([4, 5], [6, 7]), CorpusPair([8, 9], [10, 11])]
        ppl = perplexity(model, data)
        # Zero-init posteriors have zero KL, so ppl ~ vocab_size at init.
        assert 0.5 * model.config.vocab_size < ppl < 2.0 * model.config.vocab_size

    def test_deterministic(self, model):
        data = [CorpusPair([4, 5], [6, 7])]
        assert perplexity(model, data) == perplexity(model, data)

    def test_empty_dataset_raises(self, model):
        with pytest.raises(InputError):
            perplexity(model, [])

    def test_truncated_target_counts_only_the_tokens_decode_scores(self):
        # decode keeps max_seq_len - 2 = 6 target tokens and scores them and
        # the end token, so a target that truncates to the same 6 tokens
        # spreads the same KL over the same 7 tokens.
        cfg = ModelConfig(vocab_size=20, n_layers=2, d_h=16, n_heads=2, d_z=4,
                          r_rank=2, max_seq_len=8)
        model = VaeModel(cfg, seed=0)
        src, tgt = [4, 5], [6, 7, 8, 9, 10, 11]
        ppl = perplexity(model, [CorpusPair(src, tgt)])
        with pytest.warns(UserWarning, match="truncated from 11 to 6"):
            assert perplexity(model, [CorpusPair(src, tgt + [12, 13, 14, 15, 16])]) == ppl

    def test_heldout_kl_zero_with_zeroed_heads(self, model):
        # Zeroed mean heads give exactly the prior: KL is exactly 0.
        import copy
        m = copy.deepcopy(model)
        for l in range(m.config.n_layers):
            m.params[f"post.{l}.w_mu"].data[:] = 0.0
        data = [CorpusPair([4, 5], [6])]
        assert heldout_kl(m, data) == 0.0


class TestMetricReport:
    def test_round_trip_json(self):
        r = MetricReport(ppl=12.5, self_bleu=40.0, dist2=0.3, au=5,
                         bleu=22.0, rouge_l=31.0)
        back = MetricReport.from_json(r.to_json())
        assert back == r

    def test_optional_fields_omitted_from_text(self):
        r = MetricReport(ppl=2.0, self_bleu=1.0, dist2=0.5, au=0)
        text = r.to_text()
        assert "ppl" in text and "bleu" not in text.replace("self_bleu", "")

    def test_text_is_flat_key_value(self):
        r = MetricReport(ppl=2.0, self_bleu=1.0, dist2=0.5, au=3)
        for line in r.to_text().strip().splitlines():
            key, val = line.split(" ", 1)
            float(val)  # parses

    def test_range_validation(self):
        with pytest.raises(InputError):
            MetricReport(ppl=0.5, self_bleu=1.0, dist2=0.5, au=0)
        with pytest.raises(InputError):
            MetricReport(ppl=2.0, self_bleu=150.0, dist2=0.5, au=0)
        with pytest.raises(InputError):
            MetricReport(ppl=2.0, self_bleu=1.0, dist2=1.5, au=0)
        with pytest.raises(InputError):
            MetricReport(ppl=2.0, self_bleu=1.0, dist2=0.5, au=-1)
