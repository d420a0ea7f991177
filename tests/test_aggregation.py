import math
from dataclasses import replace
from functools import reduce

import numpy as np
import pytest

from dpgb import aggregation
from dpgb.aggregation import secure_sum, write_ledger
from dpgb.dp_core import BudgetExceededError, PrivacyLedger, dense_laplace_noise
from dpgb.mechanisms import finish_release, prepare_activity_metric_scaling, prepare_joint_clipping
from dpgb.schema import Dimensions, ScaleMatrix, UserCells
from conftest import random_dataset, random_histogram, raw_histogram
from sparse_reference import SparseHistogram, clip_l1, make_dataset, per_cell, users_of


def as_rows(hist):
    """One vector as a block of rows for secure_sum."""
    cells = [hist.dims.cell_index(*cell) for cell in hist.cells]
    return UserCells(np.zeros(len(cells), dtype=np.int64), np.array(cells, dtype=np.int64),
                     np.array(list(hist.cells.values()), dtype=float),
                     np.arange(len(cells)), np.array([0, len(cells)]))


class TestSecureSum:
    def test_empty_list(self, small_dims):
        assert np.array_equal(secure_sum([], small_dims), np.zeros(small_dims.total_cells))
        with pytest.raises(TypeError):
            secure_sum([])  # dims are required

    def test_two_single_cell_vectors(self, small_dims):
        a = SparseHistogram(small_dims, {(0, 0, 0, 0): 1.0})
        b = SparseHistogram(small_dims, {(0, 0, 0, 0): 2.0})
        total = secure_sum([as_rows(a), as_rows(b)], small_dims)
        assert total[0] == 3.0 and np.count_nonzero(total) == 1

    def test_permuted_copies_match_scaled_copy(self, small_dims, rng):
        base = random_histogram(rng, small_dims, max_cells=10)
        n = 7
        total = secure_sum([as_rows(base)] * n, small_dims)
        assert np.allclose(total, base.scale(float(n)).to_dense(), rtol=1e-9, atol=0.0)

    def test_accepts_bare_histograms(self, small_dims, rng):
        # a generator works as well as a list: one pass, user order, and
        # each row lands in the running total in turn, across blocks too
        hists = [random_histogram(rng, small_dims) for _ in range(3)]
        total = secure_sum([as_rows(h) for h in hists], small_dims)
        assert np.array_equal(secure_sum((as_rows(h) for h in hists), small_dims), total)
        expected = np.zeros(small_dims.total_cells)
        for hist in hists:
            for cell, value in hist.cells.items():
                expected[small_dims.cell_index(*cell)] += value
        assert total.tobytes() == expected.tobytes()
        blocks = [as_rows(h) for h in hists]
        one_block = blocks[0]._replace(cell=np.concatenate([b.cell for b in blocks]),
                                       value=np.concatenate([b.value for b in blocks]))
        assert secure_sum([one_block], small_dims).tobytes() == expected.tobytes()


class TestServerWork:
    """The server tail, finish_release on a prepared aggregate: noise every
    cell, descale by one multiplication, threshold and clamp."""

    def test_test_mode_identity_pipeline(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 12)
        clip = 6.0
        prepared = prepare_joint_clipping(data, clip, small_dims)
        result = finish_release(prepared, 1.0, 0.0, 5, test_mode=True)
        assert np.array_equal(result.released, prepared.pre_noise_dense)  # bit-exact
        expected = reduce(
            lambda x, y: x.add(y),
            [clip_l1(raw_histogram(recs, small_dims), clip) for _, recs in users_of(data)],
            SparseHistogram.empty(small_dims))
        assert np.array_equal(result.released, expected.to_dense())
        assert result.suppressed_cells == 0

    def test_descale_roundtrip(self, small_dims, rng):
        # contributions pre-scaled by 1/k, descaling by k restores the raw sums
        k = 4.0
        scales = ScaleMatrix(np.full((small_dims.num_activities, 3), k))
        data = random_dataset(rng, small_dims, 10)
        prepared = prepare_activity_metric_scaling(data, scales, 1e9, small_dims)
        result = finish_release(prepared, 1.0, 0.0, 5, test_mode=True)
        raw = reduce(lambda x, y: x.add(y),
                     [raw_histogram(recs, small_dims) for _, recs in users_of(data)],
                     SparseHistogram.empty(small_dims))
        assert np.allclose(result.released, raw.to_dense(), rtol=1e-12, atol=0.0)

    def test_descaling_is_single_multiplication(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 8)
        scales = ScaleMatrix(np.exp(rng.normal(0, 1, size=(small_dims.num_activities, 3))))
        prepared = prepare_activity_metric_scaling(data, scales, 5.0, small_dims)
        result = finish_release(prepared, 2.0, 0.0, 17)
        noisy = prepared.pre_noise_dense + dense_laplace_noise(
            5.0 / 2.0, 17, small_dims.total_cells)
        descaled = noisy * per_cell(scales, small_dims)
        kept = result.released != 0.0
        assert kept.any()
        assert np.array_equal(result.released[kept], descaled[kept])
        assert np.all(descaled[~kept] <= 0.0)

    def test_threshold_suppresses_small_cells(self, small_dims):
        prepared = prepare_joint_clipping(make_dataset("w", []), 10.0, small_dims)
        result = finish_release(prepared, 2.0, 3.0, 23)
        threshold = 3.0 * (10.0 / 2.0)
        released = result.released[result.released != 0.0]
        assert np.all(released >= threshold)
        assert result.suppressed_cells == small_dims.total_cells - released.size

    def test_tau_zero_clamps_negatives_out(self, small_dims):
        prepared = prepare_joint_clipping(make_dataset("w", []), 10.0, small_dims)
        result = finish_release(prepared, 2.0, 0.0, 23)
        noise = dense_laplace_noise(10.0 / 2.0, 23, small_dims.total_cells)
        assert np.any(noise < 0)
        assert np.all(result.released >= 0)
        assert np.array_equal(result.released, np.maximum(noise, 0.0))

    def test_suppression_monotone_in_tau(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 10)
        prepared = prepare_joint_clipping(data, 8.0, small_dims)
        kept_cells = None
        for tau in (0.0, 1.0, 2.0, 4.0):
            result = finish_release(prepared, 2.0, tau, 99)
            cells = set(np.flatnonzero(result.released).tolist())
            if kept_cells is not None:
                assert cells <= kept_cells  # raising tau never resurrects a cell
            kept_cells = cells

    def test_unbiased_before_threshold_and_clamp(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 6, max_records=4)
        scales = ScaleMatrix(np.full((small_dims.num_activities, 3), 2.0))
        clip, epsilon = 5.0, 2.0
        prepared = prepare_activity_metric_scaling(data, scales, clip, small_dims)
        # lift every cell 40 noise scales clear of zero, so no draw is clamped
        offset = 40.0 * clip / epsilon
        lifted = replace(prepared, pre_noise_dense=prepared.pre_noise_dense + offset)
        n_seeds = 1500
        acc = np.zeros(small_dims.total_cells)
        for seed in range(n_seeds):
            acc += finish_release(lifted, epsilon, 0.0, seed).released
        mean = acc / n_seeds
        expected = (prepared.pre_noise_dense + offset) * per_cell(scales, small_dims)
        # per-cell standard error of the mean of descaled Laplace noise
        se = math.sqrt(2.0) * (clip / epsilon) * 2.0 / math.sqrt(n_seeds)
        assert np.all(np.abs(mean - expected) <= 4.0 * se)

    def test_budget_abort(self, small_dims):
        prepared = prepare_joint_clipping(make_dataset("w", []), 1.0, small_dims)
        overspent = replace(prepared, charge_fractions=(("a", 0.75), ("b", 0.5)))
        with pytest.raises(BudgetExceededError):
            finish_release(overspent, 1.0, 0.0, 1)

    def test_deterministic(self, small_dims, rng):
        data = random_dataset(rng, small_dims, 5)
        prepared = prepare_joint_clipping(data, 4.0, small_dims)
        a = finish_release(prepared, 1.0, 2.0, 31)
        b = finish_release(prepared, 1.0, 2.0, 31)
        assert np.array_equal(a.released, b.released)
        assert a.suppressed_cells == b.suppressed_cells

    def test_ledger_snapshot_isolated(self, small_dims):
        prepared = prepare_joint_clipping(make_dataset("w", []), 1.0, small_dims)
        a = finish_release(prepared, 1.0, 0.0, 1)
        b = finish_release(prepared, 1.0, 0.0, 2)
        assert a.ledger is not b.ledger  # every release owns its ledger
        assert a.ledger.total() == b.ledger.total() == 1.0


def test_write_ledger(tmp_path):
    ledger = PrivacyLedger(budget=2.0)
    ledger.charge("noise", 2.0)
    path = tmp_path / "run.ledger"
    write_ledger(path, ledger)
    text = path.read_text()
    assert "noise,2.0" in text
    assert "total,2.0" in text


@pytest.mark.parametrize("test_mode", [False, True])
@pytest.mark.parametrize("block_cells", [4 * 15, 2 * 15 + 1, 7])
def test_noise_blocks_do_not_change_the_release(monkeypatch, rng, test_mode, block_cells):
    # 6 slice rows of 15 cells: blocks of 4 rows (4 + 2), 2 rows (2 + 2 + 2)
    # and, below one row, 1 row, against the default single block
    dims = Dimensions(num_activities=2, num_regions=5)
    pre = rng.lognormal(0.0, 2.0, size=dims.total_cells)
    pre[rng.random(dims.total_cells) < 0.4] = 0.0
    scales = np.exp(rng.normal(0.0, 1.0, size=(2, 3)))
    noise_b = np.exp(rng.normal(0.0, 1.0, size=(2, 3)))
    assert aggregation._NOISE_BLOCK_CELLS >= dims.total_cells
    whole, whole_suppressed = aggregation.noise_descale_threshold(
        pre, scales, noise_b, 0.5, 41, test_mode=test_mode)
    monkeypatch.setattr(aggregation, "_NOISE_BLOCK_CELLS", block_cells)
    blocked, blocked_suppressed = aggregation.noise_descale_threshold(
        pre, scales, noise_b, 0.5, 41, test_mode=test_mode)
    assert blocked.tobytes() == whole.tobytes()
    assert blocked_suppressed == whole_suppressed
    assert whole_suppressed > 0 and np.count_nonzero(whole) > 0
