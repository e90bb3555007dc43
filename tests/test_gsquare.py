"""G^2 test: cross-checks against scipy, decision behaviour, counters."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.stats import chi2_contingency

from repro.citests.gsquare import GSquareTest
from repro.datasets.dataset import DiscreteDataset


def make_dataset(rows, arities=None, layout="variable-major"):
    return DiscreteDataset.from_rows(np.asarray(rows), arities=arities, layout=layout)


@pytest.fixture()
def dependent_data(rng):
    """Y strongly depends on X."""
    m = 2000
    x = rng.integers(0, 2, m)
    noise = rng.random(m) < 0.1
    y = np.where(noise, 1 - x, x)
    z = rng.integers(0, 2, m)
    return make_dataset(np.column_stack([x, y, z]))


@pytest.fixture()
def independent_data(rng):
    m = 2000
    return make_dataset(rng.integers(0, 3, size=(m, 3)), arities=[3, 3, 3])


class TestAgainstScipy:
    def test_marginal_statistic_matches_scipy(self, rng):
        m = 1000
        rows = rng.integers(0, 3, size=(m, 2))
        ds = make_dataset(rows, arities=[3, 3])
        res = GSquareTest(ds).test(0, 1, ())
        table = np.zeros((3, 3))
        for a, b in rows:
            table[a, b] += 1
        expected_stat, expected_p, expected_dof, _ = chi2_contingency(
            table, correction=False, lambda_="log-likelihood"
        )
        assert res.statistic == pytest.approx(expected_stat, rel=1e-10)
        assert res.dof == expected_dof
        assert res.p_value == pytest.approx(expected_p, rel=1e-8)

    def test_conditional_statistic_is_sum_of_slices(self, rng):
        m = 3000
        rows = np.column_stack(
            [rng.integers(0, 2, m), rng.integers(0, 2, m), rng.integers(0, 3, m)]
        )
        ds = make_dataset(rows, arities=[2, 2, 3])
        res = GSquareTest(ds).test(0, 1, (2,))
        total = 0.0
        for zv in range(3):
            sub = rows[rows[:, 2] == zv]
            table = np.zeros((2, 2))
            for a, b, _ in sub:
                table[a, b] += 1
            if (table.sum(axis=0) > 0).sum() > 1 and (table.sum(axis=1) > 0).sum() > 1:
                stat, _, _, _ = chi2_contingency(
                    table + 0, correction=False, lambda_="log-likelihood"
                )
                total += stat
            # slices with degenerate margins contribute 0
        assert res.statistic == pytest.approx(total, rel=1e-8, abs=1e-9)
        assert res.dof == 1 * 1 * 3


class TestDecisions:
    def test_detects_dependence(self, dependent_data):
        res = GSquareTest(dependent_data).test(0, 1, ())
        assert not res.independent
        assert res.p_value < 1e-6

    def test_accepts_independence(self, independent_data):
        res = GSquareTest(independent_data).test(0, 1, ())
        assert res.p_value > 0.001  # not astronomically small

    def test_conditioning_breaks_dependence(self, rng):
        # X -> Z -> Y chain: X and Y dependent, independent given Z.
        m = 5000
        x = rng.integers(0, 2, m)
        z = np.where(rng.random(m) < 0.9, x, 1 - x)
        y = np.where(rng.random(m) < 0.9, z, 1 - z)
        ds = make_dataset(np.column_stack([x, y, z]))
        tester = GSquareTest(ds)
        assert not tester.test(0, 1, ()).independent
        assert tester.test(0, 1, (2,)).independent

    def test_layout_invariance(self, dependent_data):
        vm = GSquareTest(dependent_data).test(0, 1, (2,))
        sm = GSquareTest(dependent_data.with_layout("sample-major")).test(0, 1, (2,))
        assert vm.statistic == pytest.approx(sm.statistic, rel=1e-12)
        assert vm.independent == sm.independent

    def test_alpha_controls_decision(self, rng):
        m = 800
        x = rng.integers(0, 2, m)
        y = np.where(rng.random(m) < 0.45, 1 - x, x)  # weak dependence
        ds = make_dataset(np.column_stack([x, y]))
        res = GSquareTest(ds, alpha=0.05).test(0, 1, ())
        p = res.p_value
        strict = GSquareTest(ds, alpha=min(p / 2, 0.5)).test(0, 1, ())
        loose = GSquareTest(ds, alpha=min(p * 1.5, 0.99)).test(0, 1, ())
        assert strict.independent
        assert not loose.independent

    def test_zero_dof_is_independent(self):
        ds = make_dataset([[0, 0], [0, 1], [0, 0]], arities=[1, 2])
        res = GSquareTest(ds).test(0, 1, ())
        assert res.dof == 0
        assert res.p_value == 1.0
        assert res.independent

    def test_invalid_alpha(self, independent_data):
        with pytest.raises(ValueError):
            GSquareTest(independent_data, alpha=0.0)
        with pytest.raises(ValueError):
            GSquareTest(independent_data, alpha=1.0)

    def test_invalid_dof_adjust(self, independent_data):
        with pytest.raises(ValueError):
            GSquareTest(independent_data, dof_adjust="magic")


class TestDofAdjust:
    def test_slices_mode_counts_nonempty(self, rng):
        m = 400
        x = rng.integers(0, 2, m)
        y = rng.integers(0, 2, m)
        z = rng.integers(0, 2, m) * 3  # values {0, 3} of arity 4: 2 empty slices
        ds = make_dataset(np.column_stack([x, y, z]), arities=[2, 2, 4])
        structural = GSquareTest(ds, dof_adjust="structural").test(0, 1, (2,))
        adjusted = GSquareTest(ds, dof_adjust="slices").test(0, 1, (2,))
        assert structural.dof == 4
        assert adjusted.dof == 2
        assert structural.statistic == pytest.approx(adjusted.statistic)


class TestGroupEvaluation:
    def test_group_results_match_individual(self, dependent_data):
        tester = GSquareTest(dependent_data)
        sets = [(), (2,)]
        group = tester.test_group(0, 1, sets)
        singles = [GSquareTest(dependent_data).test(0, 1, s) for s in sets]
        for g, s in zip(group, singles, strict=True):
            assert g.statistic == pytest.approx(s.statistic, rel=1e-12)
            assert g.independent == s.independent

    def test_group_counters_account_reuse(self, dependent_data):
        tester = GSquareTest(dependent_data)
        tester.test_group(0, 1, [(2,), (2,)])
        m = dependent_data.n_samples
        # first test: m * (1 + 2) accesses, second reuses XY: m * 1
        assert tester.counters.data_accesses == m * 3 + m * 1
        assert tester.counters.n_tests == 2


class TestCompressionEquivalence:
    def test_compressed_matches_dense(self, rng):
        m = 120
        rows = np.column_stack(
            [rng.integers(0, 2, m), rng.integers(0, 2, m)]
            + [rng.integers(0, 5, m) for _ in range(3)]
        )
        ds = make_dataset(rows, arities=[2, 2, 5, 5, 5])
        dense = GSquareTest(ds, compress_threshold=10**9).test(0, 1, (2, 3, 4))
        compressed = GSquareTest(ds, compress_threshold=0).test(0, 1, (2, 3, 4))
        assert compressed.statistic == pytest.approx(dense.statistic, rel=1e-12)
        assert compressed.dof == dense.dof
        assert compressed.independent == dense.independent
