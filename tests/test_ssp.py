"""Absolute monotonicity radii: certificates, bisection, known values."""

import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from essprk import ssp
from essprk.errors import DomainError
from essprk.methods import catalog, family_n2p1, lookup, ssprk_43
from essprk.ssp import (
    DEFAULT_BISECTION_TOL,
    MonotonicityReport,
    SSPResult,
    _bracket,
    abs_monotonic,
    ssp_coefficient,
)
from essprk.tableau import ButcherTableau, shu_osher_to_butcher

from conftest import make_random_tableau, run_python


def reference_transformed(A, b, r):
    """Oracle: the transform by scipy's triangular solve.

    Its bits depend on scipy's BLAS kernel; ``ssp._transformed`` agrees
    with it to ``SOLVE_TOL`` of :func:`absolute_transformed`.
    """
    s = b.size
    K = np.vstack([A, b])
    M = np.eye(s) + r * A
    X = solve_triangular(
        M, K.T, lower=True, trans="T", unit_diagonal=True, check_finite=False
    ).T
    return X, 1.0 - r * X.sum(axis=1)


def ordered_transformed(A, b, r):
    """Oracle: the back substitution ``ssp._transformed`` documents, one
    entry at a time: X[i, j] = K[i, j] - sum over k > j of X[i, k] (rA)[k, j],
    each sum numpy's sum of a vector, so the bits must match."""
    s = b.size
    K = np.vstack([A, b])
    rA = r * A
    X = K.copy()
    for i in range(s + 1):
        for j in range(s - 2, -1, -1):
            X[i, j] = K[i, j] - (X[i, j + 1:] * rA[j + 1:, j]).sum()
    return X, np.array([1.0 - r * row.sum() for row in X])


def absolute_transformed(A, b, r):
    """The substitution run on |K| and |rA| with every sign made +.

    It bounds the terms summed into each entry of X and of the leftover
    column, the scale that rounding errors of any summation order have.
    """
    K, rA = np.abs(np.vstack([A, b])), np.abs(r * A)
    for j in range(b.size - 2, -1, -1):
        K[:, j] += (K[:, j + 1:] * rA[j + 1:, j]).sum(axis=1)
    return K, 1.0 + r * K.sum(axis=1)


# Measured against scipy's solve (its OpenBLAS on the SkylakeX kernel) over
# the tests below: at most 1.1e-15 of the absolute transform in X and
# 6.8e-16 in the leftover column, 5 and 3 units of roundoff.  The
# tolerance allows about four times the larger.
SOLVE_TOL = 4e-15


def assert_same_bits(got, want):
    assert got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def reference_ssp_coefficient(tableau, tol=DEFAULT_BISECTION_TOL):
    """Oracle: bisection over [0, 2s] with a triangular solve at every probe."""
    base = abs_monotonic(tableau, 0.0)
    if not base.feasible:
        return SSPResult((0.0, 0.0), base)
    r_max = 2.0 * tableau.s
    top = abs_monotonic(tableau, r_max)
    if top.feasible:
        return SSPResult((r_max, r_max), top)
    lo, hi = 0.0, r_max
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if abs_monotonic(tableau, mid).feasible:
            lo = mid
        else:
            hi = mid
    return SSPResult((lo, hi), abs_monotonic(tableau, lo))


def assert_matches_reference(tableau):
    got, want = ssp_coefficient(tableau), reference_ssp_coefficient(tableau)
    assert got.coefficient == want.coefficient
    assert got.effective_coefficient == want.effective_coefficient
    assert got.bracket == want.bracket
    a, b = got.certificate, want.certificate
    assert (a.feasible, a.radius, a.worst_index) == (b.feasible, b.radius, b.worst_index)
    assert a.worst_entry == b.worst_entry or (
        np.isnan(a.worst_entry) and np.isnan(b.worst_entry)
    )
    assert np.array_equal(a.coefficients, b.coefficients, equal_nan=True)
    assert np.array_equal(a.remainder, b.remainder, equal_nan=True)
    return got, want


def _catalog_tableaux():
    for entry in catalog():
        for role in ("main", "start", "stop"):
            tableau = getattr(entry, role)
            if tableau is not None:
                yield pytest.param(tableau, id=f"{entry.label}-{role}")


def _random_oracle_tableau(rng):
    """Nonnegative tableau of 2-17 stages, a third of them with zeroed entries."""
    s = int(rng.integers(2, 18))
    A = np.tril(rng.uniform(0.0, rng.choice([1.0 / s, 1.0, 3.0]), (s, s)), -1)
    b = rng.uniform(0.05, 1.0, s)
    if rng.integers(3) == 0:
        A[rng.uniform(size=(s, s)) < 0.5] = 0.0
        b[rng.uniform(size=s) < 0.3] = 0.0
        b[0] = max(b[0], 0.05)
    return ButcherTableau(A=A, b=b / b.sum())


class TestFeasibilityReport:
    def test_negative_radius_rejected(self, ssprk33):
        with pytest.raises(ValueError, match="nonnegative"):
            abs_monotonic(ssprk33, -0.1)

    def test_feasible_below_radius(self, ssprk33):
        rep = abs_monotonic(ssprk33, 0.5)
        assert rep.feasible
        assert rep.radius == 0.5
        assert rep.coefficients.shape == (4, 3)
        assert rep.remainder.shape == (4,)
        assert rep.worst_entry >= -1e-12

    def test_infeasible_above_radius(self, ssprk33):
        rep = abs_monotonic(ssprk33, 1.3)
        assert not rep.feasible
        assert rep.worst_entry < -1e-12
        kind = rep.worst_index[0]
        assert kind in ("coefficients", "remainder")
        # the reported location really holds the reported value
        if kind == "coefficients":
            _, i, j = rep.worst_index
            assert rep.coefficients[i, j] == rep.worst_entry
        else:
            assert rep.remainder[rep.worst_index[1]] == rep.worst_entry

    def test_nonfinite_input_is_infeasible(self):
        A = np.zeros((2, 2))
        A[1, 0] = np.nan
        rep = abs_monotonic(ButcherTableau(A=A, b=np.array([0.5, 0.5])), 1.0)
        assert not rep.feasible
        assert rep.worst_entry == -np.inf


class TestResultFromEvidence:
    def test_report_verdict_from_its_arrays(self):
        report = MonotonicityReport(0.25, [[0.5], [1.0]], [1.0, -0.25])
        assert not report.feasible
        assert (report.worst_entry, report.worst_index) == (-0.25, ("remainder", 1))
        report = MonotonicityReport(0.25, [[0.5], [np.nan]], [1.0, 1.0])
        assert not report.feasible
        assert report.worst_entry == -np.inf

    def test_empty_report_refused(self):
        with pytest.raises(ValueError, match="coefficients of shape"):
            MonotonicityReport(0.0, [], [])

    def test_one_dimensional_coefficients_refused(self):
        with pytest.raises(ValueError, match="coefficients of shape"):
            MonotonicityReport(0.0, [0.5, 0.5], [1.0, 1.0])

    def test_remainder_of_another_length_refused(self):
        # a (3, 2) array is s = 2, so the remainder needs 3 entries, not 5
        with pytest.raises(ValueError, match="remainder of shape"):
            MonotonicityReport(0.0, np.ones((3, 2)), np.ones(5))

    def test_coefficient_is_the_lower_end_over_the_stages(self, ssprk33):
        res = SSPResult((0.5, 0.75), abs_monotonic(ssprk33, 0.5))
        assert (res.coefficient, res.effective_coefficient) == (0.5, 0.5 / 3)

    def test_certificate_off_the_lower_end_refused(self, ssprk33):
        with pytest.raises(ValueError, match="lower end"):
            SSPResult((0.0, 0.0), abs_monotonic(ssprk33, 0.7157))

    @pytest.mark.parametrize("bracket", [(-0.1, 0.5), (0.6, 0.5), (np.nan, 0.5)])
    def test_negative_or_unordered_bracket_refused(self, ssprk33, bracket):
        with pytest.raises(ValueError, match="nonnegative and in order"):
            SSPResult(bracket, abs_monotonic(ssprk33, 0.5))

    def test_positive_coefficient_needs_a_feasible_certificate(self, ssprk33):
        with pytest.raises(ValueError, match="infeasible certificate"):
            SSPResult((1.3, 1.4), abs_monotonic(ssprk33, 1.3))


class TestCoefficient:
    def test_forward_euler(self, forward_euler):
        res = ssp_coefficient(forward_euler)
        assert res.coefficient == pytest.approx(1.0, abs=1e-9)
        assert res.effective_coefficient == pytest.approx(1.0, abs=1e-9)

    def test_three_stage_third_order(self, ssprk33):
        res = ssp_coefficient(ssprk33)
        assert res.coefficient == pytest.approx(1.0, abs=1e-9)
        assert res.bracket[1] - res.bracket[0] <= 1e-10
        assert res.certificate.feasible

    def test_four_stage_third_order(self):
        res = ssp_coefficient(ssprk_43())
        assert res.coefficient == pytest.approx(2.0, abs=1e-9)
        assert res.effective_coefficient == pytest.approx(0.5, abs=1e-9)

    def test_classical_rk4_has_no_radius(self, rk4):
        # all coefficients are nonnegative but the transform fails for r > 0
        res = ssp_coefficient(rk4)
        assert res.coefficient <= 1e-9
        assert res.certificate.feasible

    def test_negative_weight_fails_at_zero(self):
        A = np.zeros((2, 2))
        A[1, 0] = 1.0
        res = ssp_coefficient(ButcherTableau(A=A, b=np.array([1.5, -0.5])))
        assert res.coefficient == 0.0
        assert res.bracket == (0.0, 0.0)
        assert not res.certificate.feasible
        assert res.certificate.worst_index == ("coefficients", 2, 1)
        assert res.certificate.worst_entry == -0.5

    def test_all_zero_weights_hit_the_cap(self):
        # degenerate but structurally valid: feasible at every radius
        res = ssp_coefficient(ButcherTableau(A=np.zeros((2, 2)), b=np.zeros(2)))
        assert res.coefficient == 4.0
        assert res.bracket == (4.0, 4.0)

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 5))
    def test_feasibility_is_monotone_in_the_radius(self, seed, s):
        t = make_random_tableau(np.random.default_rng(seed), s)
        res = ssp_coefficient(t)
        C = res.coefficient
        for f in (0.0, 0.25, 0.5, 0.75, 1.0):
            assert abs_monotonic(t, f * C).feasible
        if res.bracket[0] < res.bracket[1]:  # not capped
            assert not abs_monotonic(t, 1.01 * C + 1e-6).feasible


class TestTransformOracle:
    """``_transformed`` gives the ordered substitution bit for bit, and
    scipy's triangular solve to rounding."""

    @staticmethod
    def assert_matches(tableau, r):
        X, rem = ssp._transformed(tableau.A, tableau.b, r)
        X0, rem0 = ordered_transformed(tableau.A, tableau.b, r)
        assert X.flags.c_contiguous
        assert_same_bits(X, X0)
        assert_same_bits(rem, rem0)
        X1, rem1 = reference_transformed(tableau.A, tableau.b, r)
        scale, rem_scale = absolute_transformed(tableau.A, tableau.b, r)
        assert (np.abs(X - X1) <= SOLVE_TOL * scale).all()
        assert (np.abs(rem - rem1) <= SOLVE_TOL * rem_scale).all()

    def assert_matches_at_known_radii(self, tableau):
        for r in (0.0, 0.5, 1.0, *ssp_coefficient(tableau).bracket):
            self.assert_matches(tableau, r)

    @pytest.mark.parametrize("tableau", list(_catalog_tableaux()))
    def test_catalog(self, tableau):
        self.assert_matches_at_known_radii(tableau)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sparse_family(self, n, branch):
        self.assert_matches_at_known_radii(
            shu_osher_to_butcher(family_n2p1(n, branch)))

    def test_random_tableaux(self):
        rng = np.random.default_rng(20122)
        for k in range(1500):
            if k % 3:
                tableau = _random_oracle_tableau(rng)
            else:
                tableau = make_random_tableau(
                    rng, int(rng.integers(2, 18)), nonnegative=False)
            self.assert_matches(tableau, rng.uniform(0.0, 2.0 * tableau.s))

    @pytest.mark.parametrize("entry", [1e155, 1e300, 1.7e308, np.nan])
    def test_non_finite_verdict_unchanged(self, entry, monkeypatch):
        A = np.array([[0.0, 0.0, 0.0], [entry, 0.0, 0.0], [0.25, entry, 0.0]])
        tableau = ButcherTableau(A=A, b=np.array([0.2, 0.3, 0.5]))
        for r in (0.0, 0.5, 1.0, 2.0):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = abs_monotonic(tableau, r)
            with monkeypatch.context() as patch, np.errstate(all="ignore"):
                patch.setattr(ssp, "_transformed", reference_transformed)
                want = abs_monotonic(tableau, r)
            assert got.feasible == want.feasible
            assert got.worst_entry == want.worst_entry
            assert got.worst_index == want.worst_index


class TestPolynomialScreen:
    """The solve-free probes give the oracle's result bit for bit."""

    @pytest.mark.parametrize("tableau", list(_catalog_tableaux()))
    def test_catalog(self, tableau):
        assert_matches_reference(tableau)

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("n", [3, 4, 5])
    def test_sparse_family(self, n, branch):
        got, _ = assert_matches_reference(shu_osher_to_butcher(family_n2p1(n, branch)))
        assert got.coefficient == pytest.approx(n * n - n, abs=1e-9)

    def test_random_nonnegative_tableaux(self):
        rng = np.random.default_rng(20121)
        for _ in range(1000):
            assert_matches_reference(_random_oracle_tableau(rng))

    @pytest.mark.parametrize(
        "A, b",
        [
            # entries near the float range overflow the polynomial terms
            ([[0.0, 0.0, 0.0], [1e300, 0.0, 0.0], [1e300, 1e300, 0.0]],
             [0.2, 0.3, 0.5]),
            ([[0.0, 0.0, 0.0], [1e-300, 0.0, 0.0], [1e300, 1e300, 0.0]],
             [0.2, 0.3, 0.5]),
            ([[0.0, 0.0], [1e300, 0.0]], [1e-300, 1.0]),
            ([[0.0, 0.0], [float("nan"), 0.0]], [0.5, 0.5]),
            ([[0.0, 0.0], [1.0, 0.0]], [0.5, float("nan")]),
            ([[0.0, 0.0], [1.0, 0.0]], [1.5, -0.5]),
        ],
        ids=["overflow", "tiny-and-huge", "huge-pair", "nan-entry",
             "nan-weight", "negative-weight"],
    )
    def test_fail_safe(self, A, b):
        tableau = ButcherTableau(A=np.array(A), b=np.array(b))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = assert_matches_reference(tableau)
        assert got.coefficient == 0.0 or got.coefficient == want.coefficient

    @pytest.mark.parametrize("tableau", list(_catalog_tableaux()))
    def test_exact_test_runs_only_at_the_bracket_ends(self, tableau, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[1])
            return abs_monotonic(*args, **kwargs)

        monkeypatch.setattr(ssp, "abs_monotonic", counted)
        result = ssp_coefficient(tableau)
        assert len(calls) <= 3
        assert result.bracket[0] in calls


class TestBisect:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_bad_tolerance(self, tol):
        probe, probes = self._bounded(lambda r: r < 1.0)
        with pytest.raises(DomainError, match="tolerance"):
            _bracket(probe, 0.0, 2.0, tol)
        assert probes == []
        with pytest.raises(DomainError, match="tolerance"):
            ssp_coefficient(lookup("SSPRK(3,3)").main, tol=tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -1e-3])
    def test_bad_tolerance_rejected_without_a_bisection(self, tol):
        # radius 0 already fails here, so no bisection ever runs
        negative = ButcherTableau(A=np.zeros((2, 2)), b=[1.5, -0.5])
        with pytest.raises(DomainError, match="tolerance"):
            ssp_coefficient(negative, tol=tol)

    @staticmethod
    def _bounded(feasible):
        # records its probes; a bisection that does not end fails here
        # instead of hanging
        probes = []

        def probe(r):
            probes.append(r)
            assert len(probes) <= 2000, "bisection did not end"
            return feasible(r)

        return probe, probes

    def test_zero_tolerance_ends_at_adjacent_floats(self):
        probe, _ = self._bounded(lambda r: r < 1.0)
        lo, hi = _bracket(probe, 0.0, 2.0, 0.0)
        assert hi == 1.0
        assert lo == np.nextafter(1.0, 0.0)

    def test_zero_tolerance_ends_below_the_smallest_float(self):
        probe, _ = self._bounded(lambda r: r <= 0.0)
        lo, hi = _bracket(probe, 0.0, 2.0, 0.0)
        assert (lo, hi) == (0.0, 5e-324)

    def test_failing_lower_end_probes_only_it(self):
        probe, probes = self._bounded(lambda r: False)
        assert _bracket(probe, 0.5, 2.0, 1e-3) is None
        assert probes == [0.5]

    def test_holding_upper_end_probes_both_ends(self):
        probe, probes = self._bounded(lambda r: True)
        assert _bracket(probe, 0.5, 2.0, 1e-3) == (2.0, 2.0)
        assert probes == [0.5, 2.0]

    def test_zero_tolerance_coefficient_returns(self):
        script = (
            "import math\n"
            "from essprk.methods import lookup\n"
            "from essprk.ssp import ssp_coefficient\n"
            "res = ssp_coefficient(lookup('SSPRK(3,3)').main, tol=0.0)\n"
            "lo, hi = res.bracket\n"
            "assert res.coefficient == lo, res.bracket\n"
            "assert hi == math.nextafter(lo, math.inf), res.bracket\n"
            "assert res.certificate.feasible\n"
        )
        proc = run_python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
