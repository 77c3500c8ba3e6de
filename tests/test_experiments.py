"""Burgers total-variation experiments and van der Pol convergence."""

import sys
import warnings
from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essprk import experiments, integrator
from essprk.errors import DomainError, EssprkError, NonFiniteState
from essprk.experiments import (
    TV_TOL,
    BurgersGrid,
    burgers_rhs,
    convergence_slope,
    dt_fe,
    max_tvd_sigma,
    reference_solution,
    run_tvd,
    run_tvd_single,
    total_variation,
    vdp_convergence,
    vdp_single_convergence,
)
from essprk.integrator import IVP, composite_from_entry, rk_step, run_single
from essprk.methods import catalog, dop853, lookup
from essprk.optimizer import perturbation_pair_tableaux
from essprk.order_conditions import classical_order
from essprk.ssp import ssp_coefficient
from essprk.tableau import emit_tableau, parse_tableau

from conftest import run_python

# square wave over one bisection's final time, continuous profile past the
# shock time
TV_RUNS = (("square_wave", 0.6), ("continuous", 1.62))


@pytest.fixture(scope="module")
def continuous_grid():
    return BurgersGrid()


@pytest.fixture(scope="module")
def square_grid():
    return BurgersGrid(initial_profile="square_wave")


@pytest.fixture(scope="module")
def scheme_432():
    return composite_from_entry(lookup("ESSPRK(4,3,2)"))


@pytest.fixture(scope="module")
def scheme_442():
    return composite_from_entry(lookup("ESSPRK(4,4,2)"))


class TestGrid:
    def test_spacing(self, continuous_grid):
        g = continuous_grid
        assert g.dx * g.m == pytest.approx(2.0, abs=1e-15)
        assert g.x[0] == 0.0
        assert g.x[-1] == pytest.approx(2.0 - g.dx)

    def test_continuous_profile_values(self, continuous_grid):
        u = continuous_grid.initial_state()
        assert u[0] == pytest.approx(0.5)
        # peak of the dip/bump at the quarter points
        assert u.max() == pytest.approx(0.75)
        assert u.min() == pytest.approx(0.25)

    def test_square_profile_values(self, square_grid):
        u = square_grid.initial_state()
        assert u[49] == 0.0
        assert u[50] == 1.0
        assert u[150] == 1.0
        assert u[151] == 0.0
        assert set(np.unique(u)) == {0.0, 1.0}

    def test_rejects_tiny_grid(self):
        with pytest.raises(DomainError, match="cells"):
            BurgersGrid(m=1)

    @pytest.mark.parametrize("m", [2.5, 200.0, True])
    def test_rejects_non_integer_cell_count(self, m):
        with pytest.raises(DomainError, match="integer"):
            BurgersGrid(m=m)

    def test_rejects_unknown_profile(self):
        with pytest.raises(DomainError, match="initial_profile"):
            BurgersGrid(initial_profile="sawtooth")


def same_bits(a, b):
    """Equal bit patterns, except that any NaN matches any NaN."""
    nan = np.isnan(a)
    return np.array_equal(nan, np.isnan(b)) and a[~nan].tobytes() == b[~nan].tobytes()


class TestUpwindRhs:
    @pytest.mark.parametrize("overflow", [False, True])
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_roll_formula_bit_for_bit(self, seed, overflow):
        rng = np.random.default_rng(seed)
        grid = BurgersGrid(m=4000)
        u = rng.normal(size=grid.m) * 10.0 ** rng.uniform(-3.0, 3.0, grid.m)
        # zero differences, whose sign must survive, and signed zeros
        u[1000:1100] = 1.5
        u[rng.integers(0, grid.m, 200)] = 0.0
        u[rng.integers(0, grid.m, 200)] = -0.0
        if overflow:
            u[rng.integers(0, grid.m, 300)] = rng.choice([1e200, -1e200, 1e160], 300)
            u[2000:2010] = 1e300
        with np.errstate(over="ignore", invalid="ignore"):
            f = 0.5 * u * u
            expected = -(f - np.roll(f, 1)) * (1.0 / grid.dx)
        assert same_bits(burgers_rhs(grid)(u), expected)

    def test_constant_state_is_steady(self, continuous_grid):
        rhs = burgers_rhs(continuous_grid)
        np.testing.assert_array_equal(rhs(np.full(200, 2.0)), np.zeros(200))

    def test_single_spike(self, continuous_grid):
        rhs = burgers_rhs(continuous_grid)
        u = np.zeros(200)
        u[0] = 1.0
        r = rhs(u)
        assert r[0] == pytest.approx(-0.5 / continuous_grid.dx)
        assert r[1] == pytest.approx(0.5 / continuous_grid.dx)
        assert np.all(r[2:] == 0.0)

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-3.0, max_value=3.0),
            min_size=4,
            max_size=40,
        )
    )
    def test_conservation(self, values):
        # periodic flux differences telescope to zero
        grid = BurgersGrid(m=len(values))
        r = burgers_rhs(grid)(np.array(values))
        assert abs(r.sum()) < 1e-9 / grid.dx

    def test_forward_euler_keeps_variation_down(self, continuous_grid):
        rhs = burgers_rhs(continuous_grid)
        dt = dt_fe(continuous_grid)
        u = continuous_grid.initial_state()
        tv = total_variation(u)
        for _ in range(10):
            u = u + dt * rhs(u)
            tv_next = total_variation(u)
            assert tv_next <= tv + 1e-12
            tv = tv_next


class TestForwardEulerStep:
    def test_continuous_limit(self, continuous_grid):
        assert dt_fe(continuous_grid) == pytest.approx(0.01 / 0.75)

    def test_square_limit(self, square_grid):
        assert dt_fe(square_grid) == pytest.approx(0.01)

    def test_zero_data_rejected(self):
        class Flat(BurgersGrid):
            def initial_state(self):
                return np.zeros(self.m)

        with pytest.raises(DomainError, match="zero"):
            dt_fe(Flat(m=8))


class TestTotalVariation:
    def test_square_wave(self, square_grid):
        assert total_variation(square_grid.initial_state()) == pytest.approx(2.0)

    def test_continuous(self, continuous_grid):
        assert total_variation(continuous_grid.initial_state()) == pytest.approx(
            1.0
        )

    def test_constant(self):
        assert total_variation(np.full(7, 3.25)) == 0.0

    @pytest.mark.parametrize("m", [2, 3, 200, 4000])
    def test_matches_diff_formula(self, m):
        u = np.random.default_rng(m).normal(size=m)
        expected = float(np.sum(np.abs(np.diff(u))) + abs(u[0] - u[-1]))
        assert total_variation(u) == expected

    def test_short_vector_rejected(self):
        with pytest.raises(DomainError, match="length"):
            total_variation(np.array([1.0]))

    @settings(max_examples=25, deadline=None)
    @given(
        st.lists(
            st.floats(min_value=-5.0, max_value=5.0),
            min_size=2,
            max_size=30,
        ),
        st.integers(min_value=0, max_value=29),
    )
    def test_rotation_invariant(self, values, shift):
        u = np.array(values)
        assert total_variation(np.roll(u, shift)) == pytest.approx(
            total_variation(u), abs=1e-12
        )


class TestRunTvd:
    def test_monotone_below_limit(self, scheme_442, continuous_grid):
        report = run_tvd(scheme_442, continuous_grid, 0.88, 1.62)
        assert report.monotone
        assert report.max_increase <= 1e-10
        assert report.final_time >= 1.62
        dt = 0.88 * dt_fe(continuous_grid)
        assert report.final_time == pytest.approx(np.ceil(1.62 / dt) * dt)
        assert report.tv_series.size == int(np.ceil(1.62 / dt)) + 1
        assert report.tv_series[0] == pytest.approx(1.0)

    def test_variation_grows_past_limit(self, scheme_442, continuous_grid):
        report = run_tvd(scheme_442, continuous_grid, 1.60, 1.62)
        assert not report.monotone
        assert report.max_increase > 1e-4

    def test_square_wave_past_limit(self, square_grid):
        scheme = composite_from_entry(lookup("ESSPRK(5,4,2)"))
        assert not run_tvd(scheme, square_grid, 2.15, 0.6).monotone

    def test_series_read_only(self, scheme_442, continuous_grid):
        report = run_tvd(scheme_442, continuous_grid, 0.5, 0.1)
        with pytest.raises(ValueError):
            report.tv_series[0] = 0.0

    def test_bad_sigma(self, scheme_442, continuous_grid):
        with pytest.raises(DomainError, match="sigma"):
            run_tvd(scheme_442, continuous_grid, 0.0, 1.0)

    def test_bad_final_time(self, scheme_442, continuous_grid):
        with pytest.raises(DomainError, match="final time"):
            run_tvd(scheme_442, continuous_grid, 0.5, -1.0)

    @pytest.mark.parametrize("value", [np.inf, np.nan])
    def test_non_finite_sigma_or_final_time(self, scheme_442, continuous_grid, value):
        with pytest.raises(DomainError, match="sigma"):
            run_tvd(scheme_442, continuous_grid, value, 1.0)
        with pytest.raises(DomainError, match="final time"):
            run_tvd(scheme_442, continuous_grid, 0.5, value)
        with pytest.raises(DomainError, match="final time"):
            run_tvd_single(scheme_442.main, continuous_grid, 0.5, value)

    def test_too_few_composite_steps_name_sigma_and_final_time(
        self, scheme_442, continuous_grid
    ):
        with pytest.raises(DomainError, match="sigma=50.0 and tf=0.01 give 1 step;"):
            run_tvd(scheme_442, continuous_grid, 50.0, 0.01)
        with pytest.raises(DomainError, match="tf=0.01 give 1 step;"):
            experiments._monotone_at(scheme_442, continuous_grid, 50.0, 0.01)
        report = run_tvd_single(scheme_442.main, continuous_grid, 50.0, 0.01)
        assert report.tv_series.size == 2
        # tf / dt underflows to 0 steps, too few even for one method
        with pytest.raises(DomainError, match="give 0 steps; a run needs at least 1"):
            run_tvd_single(scheme_442.main, continuous_grid, 1e300, 5e-324)

    def test_infinite_final_time_stops_the_bisection(self, scheme_442):
        grid = BurgersGrid(m=50, initial_profile="square_wave")
        with pytest.raises(DomainError, match="final time"):
            max_tvd_sigma(scheme_442, grid, np.inf)

    # 1e-320 makes tf / dt overflow and 5e-324 makes dt underflow to 0
    @pytest.mark.parametrize(
        "sigma, tf",
        [(1e-12, 0.6), (1e-300, 0.6), (1e-320, 0.6), (5e-324, 0.6), (0.5, 1e300)],
    )
    def test_too_many_steps_rejected_before_stepping(
        self, scheme_442, no_stepping, sigma, tf
    ):
        grid = BurgersGrid(m=50, initial_profile="square_wave")
        with pytest.raises(DomainError, match="steps, more than the limit"):
            run_tvd(scheme_442, grid, sigma, tf)
        with pytest.raises(DomainError, match="steps, more than the limit"):
            run_tvd_single(scheme_442.main, grid, sigma, tf)

    def test_too_many_steps_stop_the_bisection(self, scheme_442, no_stepping):
        grid = BurgersGrid(m=50, initial_profile="square_wave")
        with pytest.raises(DomainError, match="steps, more than the limit"):
            max_tvd_sigma(scheme_442, grid, 1e300)


# sigma_max on the default square grid (tf 0.6, tol 0.01) as printed by
# `essprk sigma-table` when every probe stepped to its final time; stopping
# probes at the first increase must not move them
SIGMA_TABLE = {
    "ESSPRK(4,3,2)": 1.99609375,
    "ESSPRK(4,4,2)": 1.0962263344845269,
    "ESSPRK(3,3,2)": 1.0683593749378133,
    "ESSPRK(5,4,2)": 2.022430028077693,
    "ESSPRK(4,4,3)": 1.0831970724239,
}


class TestMaxSigma:
    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.01])
    def test_bad_tolerance(self, tol, scheme_432):
        grid = BurgersGrid(m=50, initial_profile="square_wave")
        with pytest.raises(DomainError, match="tolerance"):
            max_tvd_sigma(scheme_432, grid, 0.6, tol=tol)

    @pytest.mark.parametrize("tol", [float("nan"), float("inf"), -0.01])
    def test_bad_tolerance_makes_no_probe(self, tol, scheme_432, monkeypatch):
        probes = []
        monkeypatch.setattr(
            experiments, "_monotone_at", lambda *args: probes.append(args)
        )
        grid = BurgersGrid(m=50, initial_profile="square_wave")
        with pytest.raises(DomainError, match="tolerance"):
            max_tvd_sigma(scheme_432, grid, 0.6, tol=tol)
        assert probes == []

    def test_zero_tolerance_returns(self):
        script = (
            "from essprk.experiments import BurgersGrid, max_tvd_sigma\n"
            "from essprk.integrator import composite_from_entry\n"
            "from essprk.methods import lookup\n"
            "scheme = composite_from_entry(lookup('ESSPRK(4,3,2)'))\n"
            "grid = BurgersGrid(m=50, initial_profile='square_wave')\n"
            "coarse = max_tvd_sigma(scheme, grid, 0.6, tol=0.01)\n"
            "fine = max_tvd_sigma(scheme, grid, 0.6, tol=0.0)\n"
            "assert coarse <= fine <= coarse + 0.01, (coarse, fine)\n"
        )
        proc = run_python(script, timeout=120)
        assert proc.returncode == 0, proc.stderr

    @pytest.mark.parametrize("label", sorted(SIGMA_TABLE))
    def test_pinned_values(self, label, square_grid):
        scheme = composite_from_entry(lookup(label))
        assert max_tvd_sigma(scheme, square_grid, 0.6) == SIGMA_TABLE[label]

    @pytest.mark.parametrize(
        "factor", [0.5, 0.9, 0.99, 1.0, 1.05, 1.1, 1.25, 1.5, 2.0, 3.0, 6.0]
    )
    def test_probe_verdict_is_run_tvd_verdict(
        self, factor, scheme_442, square_grid, continuous_grid
    ):
        sigma = factor * scheme_442.coefficient
        for grid, tf in ((square_grid, 0.6), (continuous_grid, 1.62)):
            try:
                expected = run_tvd(scheme_442, grid, sigma, tf).monotone
            except NonFiniteState:
                expected = False
            assert experiments._monotone_at(scheme_442, grid, sigma, tf) is expected

    def test_four_stage_third_order(self, scheme_432, square_grid):
        sigma = max_tvd_sigma(scheme_432, square_grid, 0.6)
        assert sigma == pytest.approx(2.00, abs=0.05)
        assert sigma >= scheme_432.coefficient - 0.02

    def test_four_stage_fourth_order(self, scheme_442, square_grid):
        sigma = max_tvd_sigma(scheme_442, square_grid, 0.6)
        assert sigma == pytest.approx(1.07, abs=0.05)
        assert sigma >= scheme_442.coefficient - 0.02

    def test_certified_ratio_is_safe(self, scheme_442, square_grid, continuous_grid):
        c = scheme_442.coefficient
        assert run_tvd(scheme_442, square_grid, 0.99 * c, 0.6).monotone
        assert run_tvd(scheme_442, continuous_grid, 0.99 * c, 1.62).monotone

    def test_unsafe_bracket_rejected(self, scheme_432, square_grid):
        import dataclasses

        # forge an absurd certified value to hit the failure branch;
        # object.__setattr__ sidesteps the constructor check on purpose
        forged = object.__new__(type(scheme_432))
        for f in dataclasses.fields(scheme_432):
            object.__setattr__(forged, f.name, getattr(scheme_432, f.name))
        object.__setattr__(forged, "coefficient", 30.0)
        with pytest.raises(EssprkError, match="half the SSP coefficient"):
            max_tvd_sigma(forged, square_grid, 0.6)

    @pytest.mark.parametrize("coefficient", [0.0, -1.0, float("nan")])
    def test_no_positive_coefficient_steps_nothing(
        self, coefficient, scheme_432, square_grid, monkeypatch
    ):
        import dataclasses

        # C = 0 would bracket [0, 0], which the theorem alone would settle
        forged = object.__new__(type(scheme_432))
        for f in dataclasses.fields(scheme_432):
            object.__setattr__(forged, f.name, getattr(scheme_432, f.name))
        object.__setattr__(forged, "coefficient", coefficient)
        probes = []
        monkeypatch.setattr(
            experiments, "_monotone_at", lambda *args: probes.append(args)
        )
        with pytest.raises(EssprkError, match="no positive SSP coefficient"):
            max_tvd_sigma(forged, square_grid, 0.6)
        assert probes == []


def proven_ratio(scheme):
    return min(
        ssp_coefficient(t).coefficient
        for t in (scheme.start, scheme.main, scheme.stop)
    )


class NegativeEntryGrid(BurgersGrid):
    """Continuous profile with one cell below zero."""

    def initial_state(self):
        u = super().initial_state()
        u[0] = -0.01
        return u


COMPOSITES = [e.label for e in catalog() if e.scheme is not None]


class TestProvenRatio:
    """Probes at or below the proven ratio R are settled without stepping."""

    @pytest.mark.parametrize("label", COMPOSITES)
    def test_settled_probes_are_monotone_when_stepped(self, label):
        # the stepped oracle beside the theorem, on runs max_tvd_sigma skips
        scheme = composite_from_entry(lookup(label))
        R = proven_ratio(scheme)
        runs = [
            (BurgersGrid(m=200, initial_profile=profile), sigma, tf)
            for profile, tf in TV_RUNS
            for sigma in (0.5 * R, R)
        ]
        runs.append((BurgersGrid(m=4000, initial_profile="square_wave"), R, 0.6))
        for grid, sigma, tf in runs:
            report = run_tvd(scheme, grid, sigma, tf)
            assert report.monotone, (grid, sigma)
            assert report.max_increase <= TV_TOL, (grid, sigma)

    @pytest.mark.parametrize("label", sorted(SIGMA_TABLE))
    def test_bisection_steps_only_probes_above_the_proven_ratio(
        self, label, square_grid, monkeypatch
    ):
        scheme = composite_from_entry(lookup(label))
        probes = []
        stepped = experiments._monotone_at

        def recorded(scheme, grid, sigma, tf):
            probes.append(sigma)
            return stepped(scheme, grid, sigma, tf)

        monkeypatch.setattr(experiments, "_monotone_at", recorded)
        assert max_tvd_sigma(scheme, square_grid, 0.6) == SIGMA_TABLE[label]
        assert probes
        assert min(probes) > proven_ratio(scheme)

    def test_negative_data_step_the_half_coefficient_end(
        self, scheme_442, monkeypatch
    ):
        probes = []

        def recorded(scheme, grid, sigma, tf):
            probes.append(sigma)
            return False

        monkeypatch.setattr(experiments, "_monotone_at", recorded)
        grid = NegativeEntryGrid()
        assert np.min(grid.initial_state()) < 0.0
        with pytest.raises(EssprkError, match="half the SSP coefficient"):
            max_tvd_sigma(scheme_442, grid, 1.62)
        assert probes == [0.5 * scheme_442.coefficient]


class TestReferenceSolution:
    def test_exponential(self):
        ivp = IVP(rhs=lambda v: v, u0=np.array([1.0]), t0=0.0, tf=1.0)
        ref = reference_solution(ivp)
        assert abs(ref[0] - np.e) <= 1e-11

    def test_harmonic_oscillator_period(self):
        ivp = IVP(
            rhs=lambda v: np.array([v[1], -v[0]]),
            u0=np.array([1.0, 0.5]),
            t0=0.0,
            tf=2.0 * np.pi,
        )
        ref = reference_solution(ivp)
        assert np.max(np.abs(ref - np.array([1.0, 0.5]))) <= 1e-10

    def test_no_convergence_reported(self):
        ivp = IVP(rhs=lambda v: v, u0=np.array([1.0]), t0=0.0, tf=1.0)
        with pytest.raises(EssprkError, match="did not converge"):
            reference_solution(ivp, max_doublings=0)


class TestDop853Reference:
    # final state of the van der Pol problem as certified by classical RK4
    # with step halving (522 240 steps), before the reference moved to DOP853
    RK4_REFERENCE = np.array([-2.0196202305995876, -0.03421831109467063])

    @staticmethod
    def data_file() -> bytes:
        return resources.files("essprk.data").joinpath("dop853.json").read_bytes()

    def test_matches_installed_scipy_coefficients(self):
        coef = pytest.importorskip("scipy.integrate._ivp.dop853_coefficients")
        t = parse_tableau(self.data_file())
        assert t.label == "DOP853"
        assert np.array_equal(t.A, coef.A[:12, :12])
        assert np.array_equal(t.b, coef.B)

    def test_file_round_trips_byte_for_byte(self):
        data = self.data_file()
        assert emit_tableau(parse_tableau(data)) == data

    def test_classical_order_saturated(self):
        order = classical_order(parse_tableau(self.data_file()))
        assert order == 5 and order.saturated

    def test_van_der_pol_reference_matches_rk4_certificate(self):
        ref = experiments._vdp_reference()
        assert np.max(np.abs(ref - self.RK4_REFERENCE)) <= 1e-12


class TestSlopeFit:
    def test_exact_power_law(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        errors = 3.0 * h**4
        assert convergence_slope(h, errors) == pytest.approx(4.0, abs=1e-10)

    def test_floor_points_excluded(self):
        h = np.array([0.1, 0.05, 0.025, 0.0125])
        errors = np.array([1e-2, 1e-3, 5e-11, 5e-11])
        clean = convergence_slope(h[:2], errors[:2])
        assert convergence_slope(h, errors) == pytest.approx(clean)

    def test_all_noise_rejected(self):
        with pytest.raises(DomainError, match="floor"):
            convergence_slope([0.1, 0.05], [1e-12, 1e-12])


def reference_vdp_rhs(u):
    """The numpy-scalar van der Pol formula _vdp_rhs must reproduce."""
    return np.array(
        [u[1], experiments.VDP_MU * (1.0 - u[0] * u[0]) * u[1] - u[0]]
    )


def test_vdp_rhs_matches_numpy_scalar_formula_bit_for_bit():
    rng = np.random.default_rng(2012)
    # magnitudes from 1e-3 to 1e3 exercise the rounding of every term
    states = rng.normal(size=(1000, 2)) * 10.0 ** rng.uniform(-3, 3, (1000, 2))
    for u in states:
        expected = reference_vdp_rhs(u).tobytes()
        out = experiments._vdp_rhs(u)
        assert out.dtype == np.float64 and out.shape == (2,)
        assert out.tobytes() == expected
        slope = experiments._vdp_slope(*u.tolist())
        assert type(slope) is tuple and all(type(x) is float for x in slope)
        assert np.array(slope).tobytes() == expected


def test_vdp_slope_overflows_to_inf_without_raising():
    # float ** raises OverflowError here; the studies need inf, which the
    # step then diagnoses
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert experiments._vdp_slope(1e200, 1.0) == (1.0, -np.inf)


class TestVdpStudyFailure:
    """A blow-up inside a study fails as the rk_step path failed."""

    vdp_slope = staticmethod(experiments._vdp_slope)

    def inject(self, monkeypatch, bad, s, stage):
        # every slope call counts, whichever path makes it; from step 2 on,
        # the call for ``stage`` of each s-stage step returns ``bad``
        calls = []

        def slope(x, y):
            calls.append(0)
            out = self.vdp_slope(x, y)
            n = len(calls)
            return (bad, out[1]) if n > s and (n - 1) % s == stage else out

        monkeypatch.setattr(experiments, "_vdp_slope", slope)
        monkeypatch.setattr(
            experiments, "_vdp_rhs", lambda u: np.array(slope(*u.tolist()))
        )
        return calls

    @pytest.mark.parametrize("label", ["ESSPRK(4,4,2)", "DOP853"])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_slope_at_each_stage(self, monkeypatch, label, bad):
        tableau = dop853() if label == "DOP853" else lookup(label).main
        experiments._vdp_reference()  # warm: the reference must not see bad
        n = experiments.VDP_STEP_COUNTS[0]
        for stage in range(tableau.s):
            calls = self.inject(monkeypatch, bad, tableau.s, stage)
            # the same schedule through rk_step, with the same bad slope
            with pytest.raises(NonFiniteState) as numpy_path:
                run_single(tableau, experiments.vdp_ivp(), n)
            calls.clear()
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteState) as float_path:
                    vdp_single_convergence(tableau)
            assert str(float_path.value) == str(numpy_path.value)
            assert float_path.value.stage == numpy_path.value.stage == stage
            assert float_path.value.step == numpy_path.value.step == 2


class TestVdpRouting:
    """The studies step generated float steps; only the reference, which
    certifies them, steps rk_step, so tracing rk_step counts its steps."""

    @staticmethod
    def count_rk_steps(monkeypatch):
        # rebind rk_step wherever essprk binds it, as the benchmark tracer does
        calls = []
        original = integrator.rk_step

        def counted(*args, **kwargs):
            calls.append(0)
            return original(*args, **kwargs)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("essprk") and module is not None:
                if getattr(module, "rk_step", None) is original:
                    monkeypatch.setattr(module, "rk_step", counted)
        return calls

    def test_warm_studies_make_no_rk_step_calls(self, monkeypatch, scheme_432):
        experiments._vdp_reference()
        calls = self.count_rk_steps(monkeypatch)
        vdp_convergence(scheme_432)
        vdp_single_convergence(scheme_432.main)
        assert calls == []

    def test_cold_reference_steps_rk_step(self, monkeypatch):
        calls = self.count_rk_steps(monkeypatch)
        experiments._vdp_reference.__wrapped__()
        assert len(calls) == 6144

    def test_import_generates_no_step(self):
        script = (
            "import builtins\n"
            "seen = []\n"
            "real = builtins.compile\n"
            "def compile(source, filename, *args, **kwargs):\n"
            "    seen.append(filename)\n"
            "    return real(source, filename, *args, **kwargs)\n"
            "builtins.compile = compile\n"
            "import essprk, essprk.cli\n"
            "print(seen.count('<essprk step>'))\n"
            "from essprk import experiments, integrator\n"
            "ivp = experiments.vdp_ivp()\n"
            "main = essprk.lookup('ESSPRK(4,4,2)').main\n"
            "integrator._float_step(main, experiments._vdp_slope, ivp.rhs, 2)\n"
            "print(seen.count('<essprk step>'))\n"
        )
        proc = run_python(script, timeout=60)
        assert proc.returncode == 0, proc.stderr
        # the second count shows the hook sees a generated step
        assert proc.stdout.split() == ["0", "1"]


class TestVdpConvergence:
    def test_third_order_composite(self, scheme_432):
        steps, errors, slope = vdp_convergence(scheme_432)
        assert steps[0] == 400 and steps[-1] == 12800
        assert np.all(np.diff(errors) < 0)
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_fourth_order_composite(self, scheme_442):
        _, errors, slope = vdp_convergence(scheme_442)
        assert slope == pytest.approx(4.0, abs=0.25)
        assert errors[-1] < 1e-7


class TestPerturbationPair:
    def test_weights_sum_to_zero(self, scheme_432):
        fwd, bwd = perturbation_pair_tableaux(scheme_432)
        for t in (fwd, bwd):
            assert abs(t.b.sum()) < 1e-12
            assert t.b.min() < 0

    def test_deterministic(self, scheme_432):
        a = perturbation_pair_tableaux(scheme_432)
        b = perturbation_pair_tableaux(scheme_432)
        for x, y in zip(a, b):
            np.testing.assert_array_equal(x.A, y.A)
            np.testing.assert_array_equal(x.b, y.b)

    def test_linear_composite_order(self, scheme_432):
        # bracketing the main run by the raw pair still gives third order
        fwd, bwd = perturbation_pair_tableaux(scheme_432)
        lam = -0.7
        rhs = lambda v: lam * v
        errors = []
        for n in (20, 40, 80):
            dt = 1.0 / n
            u = rk_step(fwd, rhs, np.array([1.0]), dt)
            for _ in range(n):
                u = rk_step(scheme_432.main, rhs, u, dt)
            u = rk_step(bwd, rhs, u, dt)
            errors.append(abs(u[0] - np.exp(lam)))
        slope = convergence_slope(
            [1 / 20, 1 / 40, 1 / 80], errors, floor=0.0
        )
        assert slope == pytest.approx(3.0, abs=0.2)

    def test_breaks_square_wave_monotonicity(self, scheme_432, square_grid):
        # negative weights spoil the variation bound at the certified ratio
        fwd, bwd = perturbation_pair_tableaux(scheme_432)
        rhs = burgers_rhs(square_grid)
        dt = scheme_432.coefficient * dt_fe(square_grid)
        n = int(np.ceil(0.6 / dt))
        u = rk_step(fwd, rhs, square_grid.initial_state(), dt)
        tv = [total_variation(u)]
        for _ in range(n):
            u = rk_step(scheme_432.main, rhs, u, dt)
            tv.append(total_variation(u))
        u = rk_step(bwd, rhs, u, dt)
        tv.append(total_variation(u))
        assert max(np.diff(tv)) > 1e-4
