"""Stepping, composite runs, observation semantics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essprk.errors import DomainError, NonFiniteState
from essprk.integrator import (
    IVP,
    CompositeScheme,
    composite_from_entry,
    composite_steps,
    rk_step,
    run_composite,
    run_single,
    shu_osher_step,
    trajectory_csv,
)
from essprk.experiments import _dop853
from essprk.methods import catalog, family_n2p1, lookup
from essprk.ssp import ssp_coefficient
from essprk.tableau import ButcherTableau, shu_osher_to_butcher

from conftest import make_random_tableau


def exponential_ivp(rate=1.0, span=1.0):
    return IVP(rhs=lambda u: rate * u, u0=np.array([1.0]), t0=0.0, tf=span)


def stability_value(tableau, z):
    """P(z) with u_{n+1} = P(z) u_n on u' = lambda*u, z = lambda*dt."""
    s = tableau.s
    M = np.eye(s) - z * tableau.A
    return 1.0 + z * (tableau.b @ np.linalg.solve(M, np.ones(s)))


@pytest.fixture(scope="module")
def scheme_442():
    return composite_from_entry(lookup("ESSPRK(4,4,2)"))


class TestIVP:
    def test_validation(self):
        with pytest.raises(DomainError, match="tf > t0"):
            IVP(rhs=lambda u: u, u0=np.ones(1), t0=1.0, tf=1.0)
        with pytest.raises(DomainError, match="finite"):
            IVP(rhs=lambda u: u, u0=np.array([np.inf]), t0=0.0, tf=1.0)

    def test_scalar_initial_state_promoted(self):
        ivp = IVP(rhs=lambda u: u, u0=2.0, t0=0.0, tf=1.0)
        assert ivp.u0.shape == (1,)


def structured_tableaux():
    """Every catalog main, start and stop tableau, and DOP853."""
    out = [_dop853()]
    for entry in catalog():
        out += [t for t in (entry.main, entry.start, entry.stop) if t is not None]
    return out


def reference_rk_step(tableau, rhs, u, dt):
    """The stage and update formulas rk_step must reproduce bit for bit."""
    A, b, s = tableau.A, tableau.b, tableau.s
    slopes = np.empty((s,) + u.shape)
    for i in range(s):
        stage = u if i == 0 else u + dt * (A[i, :i] @ slopes[:i])
        slopes[i] = rhs(stage)
    return u + dt * (b @ slopes)


class TestRkStep:
    def test_zero_field_leaves_state_unchanged(self, ssprk33):
        u = np.array([3.0, -1.0])
        out = rk_step(ssprk33, lambda v: np.zeros_like(v), u, 0.5)
        assert np.array_equal(out, u)

    def test_forward_euler_linear_update(self, forward_euler):
        lam, dt = -0.7, 0.25
        out = rk_step(forward_euler, lambda u: lam * u, np.array([2.0]), dt)
        assert out[0] == pytest.approx(2.0 * (1 + lam * dt), abs=1e-15)

    def test_third_order_stability_polynomial(self, ssprk33):
        z = 0.1
        out = rk_step(ssprk33, lambda u: u, np.array([1.0]), z)
        truncated = 1 + z + z**2 / 2 + z**3 / 6
        assert abs(out[0] - truncated) <= 5e-6
        assert out[0] == pytest.approx(stability_value(ssprk33, z), abs=1e-14)

    def test_rejects_nonpositive_dt(self, ssprk33):
        with pytest.raises(DomainError, match="positive"):
            rk_step(ssprk33, lambda u: u, np.ones(1), 0.0)

    def test_nonfinite_stage_carries_index(self, ssprk33):
        calls = []

        def rhs(u):
            calls.append(0)
            return u * np.inf if len(calls) > 1 else u

        with pytest.raises(NonFiniteState) as info:
            rk_step(ssprk33, rhs, np.ones(1), 0.1)
        assert info.value.stage == 1

    @pytest.mark.parametrize("m", [2, 4000])
    @pytest.mark.parametrize("s", range(2, 18))
    def test_matches_reference_formula_bit_for_bit(self, s, m):
        rng = np.random.default_rng(1000 * s + m)
        tableau = make_random_tableau(rng, s, nonnegative=False)
        u = rng.normal(size=m)
        u[rng.integers(0, m, m // 4 + 1)] = 0.0

        def rhs(v):
            return np.sin(v) - 0.3 * v * v

        out = rk_step(tableau, rhs, u, 0.03)
        assert out.tobytes() == reference_rk_step(tableau, rhs, u, 0.03).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4000])
    def test_structured_tableaux_match_reference_bit_for_bit(self, m):
        # catalog and DOP853 rows have exact zeros, which random ones lack
        rng = np.random.default_rng(m)
        u = rng.normal(size=m)

        def rhs(v):
            return np.cos(v) - 0.2 * v * v

        for tableau in structured_tableaux():
            out = rk_step(tableau, rhs, u, 0.07)
            expected = reference_rk_step(tableau, rhs, u, 0.07)
            assert out.tobytes() == expected.tobytes(), tableau.label

    @pytest.mark.parametrize("m", [2, 4000])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_slope_at_each_stage_raises_silently(self, bad, m):
        tableau = _dop853()
        u = np.linspace(-1.0, 1.0, m)
        for stage in range(tableau.s):
            calls = []

            def rhs(v):
                calls.append(0)
                out = np.sin(v)
                if len(calls) == stage + 1:
                    out[m // 2] = bad
                return out

            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(NonFiniteState) as info:
                    rk_step(tableau, rhs, u, 0.01)
            assert info.value.stage == stage
            assert len(calls) == stage + 1

    def test_overflowing_sum_of_finite_slopes_is_not_an_error(self, forward_euler):
        # a screen that tests only the sum of the slopes would reject this
        out = rk_step(forward_euler, lambda v: np.full(2, 1e308), np.zeros(2), 1.0)
        assert np.array_equal(out, [1e308, 1e308])


class TestShuOsherStep:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_matches_butcher_path(self, seed):
        rng = np.random.default_rng(seed)
        form = family_n2p1(3)
        tab = shu_osher_to_butcher(form)
        u = rng.normal(size=4)
        dt = 0.05

        def rhs(v):
            return np.sin(v) - 0.1 * v

        a = shu_osher_step(form, rhs, u, dt)
        b = rk_step(tab, rhs, u, dt)
        assert np.max(np.abs(a - b)) <= 1e-12


class TestRunSingle:
    def test_forward_euler_compound_growth(self, forward_euler):
        traj = run_single(forward_euler, exponential_ivp(), 1000)
        assert traj.final[0] == pytest.approx((1 + 1 / 1000) ** 1000, abs=1e-12)
        assert abs(traj.final[0] - math.e) / math.e < 0.002

    def test_observation_selection(self, ssprk33):
        traj = run_single(ssprk33, exponential_ivp(), 10, observe_at=[0, 5])
        assert traj.steps.tolist() == [0, 5, 10]
        assert traj.times[1] == pytest.approx(0.5)
        full = run_single(ssprk33, exponential_ivp(), 10, observe_at="all")
        assert full.steps.tolist() == list(range(11))

    def test_final_always_recorded(self, ssprk33):
        traj = run_single(ssprk33, exponential_ivp(), 7, observe_at=[2])
        assert traj.steps.tolist() == [2, 7]
        assert traj.final is traj.states[-1] or np.array_equal(
            traj.final, traj.states[-1]
        )

    def test_determinism(self, ssprk33):
        mu = 2.0

        def rhs(u):
            return np.array([u[1], mu * (1 - u[0] ** 2) * u[1] - u[0]])

        ivp = IVP(rhs=rhs, u0=np.array([2.0, 1.0]), t0=0.0, tf=5.0)
        a = run_single(ssprk33, ivp, 400, observe_at="all")
        b = run_single(ssprk33, ivp, 400, observe_at="all")
        assert np.array_equal(a.states, b.states)

    def test_step_count_validated(self, ssprk33):
        with pytest.raises(DomainError):
            run_single(ssprk33, exponential_ivp(), 0)

    def test_blowup_carries_step_index(self, forward_euler):
        ivp = IVP(
            rhs=lambda u: u * u, u0=np.array([1e150]), t0=0.0, tf=10.0
        )
        with np.errstate(over="ignore"), pytest.raises(NonFiniteState) as info:
            run_single(forward_euler, ivp, 10)
        assert info.value.step is not None


class TestCompositeScheme:
    def test_catalog_entries_build(self):
        for label in ("ESSPRK(3,3,2)", "ESSPRK(4,4,2)", "ESSPRK(4,4,3)", "ESSPRK(5,4,2)"):
            scheme = composite_from_entry(lookup(label))
            assert scheme.q in (3, 4)

    def test_entry_without_companions_rejected(self):
        with pytest.raises(DomainError, match="companions"):
            composite_from_entry(lookup("SSPRK(3,3)"))

    def test_coefficient_is_the_main_methods_certified_value(self):
        e = lookup("ESSPRK(4,4,2)")
        scheme = CompositeScheme(start=e.start, main=e.main, stop=e.stop, q=e.q)
        assert scheme.coefficient == ssp_coefficient(e.main).coefficient

    def test_mismatched_companions_rejected(self):
        a = lookup("ESSPRK(4,4,2)")
        b = lookup("ESSPRK(4,4,3)")
        with pytest.raises(DomainError, match="target"):
            CompositeScheme(start=a.start, main=a.main, stop=b.stop, q=4)

    def test_nan_stop_weight_rejected(self):
        e = lookup("ESSPRK(3,3,2)")
        b = e.stop.b.copy()
        b[-1] = np.nan
        stop = ButcherTableau(A=e.stop.A, b=b)
        with pytest.raises(DomainError, match="target"):
            CompositeScheme(start=e.start, main=e.main, stop=stop, q=3)

    def test_unsupported_order_rejected(self, rk4):
        with pytest.raises(DomainError, match="orders 3 and 4"):
            CompositeScheme(start=rk4, main=rk4, stop=rk4, q=5)


class TestRunComposite:
    def test_zero_field_constant(self, scheme_442):
        ivp = IVP(
            rhs=lambda u: np.zeros_like(u), u0=np.array([4.0]), t0=0.0, tf=1.0
        )
        traj = run_composite(scheme_442, ivp, 3, observe_at=[0, 2, 3])
        assert np.array_equal(traj.states, 4.0 * np.ones((3, 1)))

    def test_requires_three_steps(self, scheme_442):
        with pytest.raises(DomainError, match="at least 3 steps"):
            run_composite(scheme_442, exponential_ivp(), 2)

    def test_linear_run_equals_stability_product(self, scheme_442):
        lam = -0.831
        ivp = exponential_ivp(rate=lam, span=0.3)
        traj = run_composite(scheme_442, ivp, 3)
        z = lam * 0.1
        expected = (
            stability_value(scheme_442.stop, z)
            * stability_value(scheme_442.main, z)
            * stability_value(scheme_442.start, z)
        )
        assert traj.final[0] == pytest.approx(expected, abs=1e-14)

    def test_linear_convergence_at_effective_order(self, scheme_442):
        errors, sizes = [], []
        for n in (50, 100, 200, 400):
            traj = run_composite(scheme_442, exponential_ivp(), n)
            errors.append(abs(traj.final[0] - math.e))
            sizes.append(1.0 / n)
        slope = np.polyfit(np.log(sizes), np.log(errors), 1)[0]
        assert slope >= 3.8

    def test_observation_is_sharper_than_raw_states(self, scheme_442):
        n = 40
        ivp = exponential_ivp()
        traj = run_composite(scheme_442, ivp, n, observe_at=[n // 2])
        raw = dict(
            (k, u.copy()) for k, _, u in composite_steps(scheme_442, ivp, n)
        )
        t_mid = traj.times[0]
        exact = math.exp(t_mid)
        observed_err = abs(traj.states[0][0] - exact)
        raw_err = abs(raw[n // 2][0] - exact)
        assert observed_err < raw_err / 10
        assert observed_err < 1e-6

    def test_first_step_not_observable(self, scheme_442):
        with pytest.raises(DomainError, match="first observable"):
            run_composite(scheme_442, exponential_ivp(), 10, observe_at=[1])

    def test_observe_all_skips_step_one(self, scheme_442):
        traj = run_composite(scheme_442, exponential_ivp(), 5, observe_at="all")
        assert traj.steps.tolist() == [0, 2, 3, 4, 5]

    def test_determinism(self, scheme_442):
        ivp = exponential_ivp()
        a = run_composite(scheme_442, ivp, 50, observe_at="all")
        b = run_composite(scheme_442, ivp, 50, observe_at="all")
        assert np.array_equal(a.states, b.states)


def test_trajectory_csv(ssprk33):
    traj = run_single(ssprk33, exponential_ivp(), 4, observe_at=[0, 2])
    text = trajectory_csv(traj)
    lines = text.strip().split("\n")
    assert lines[0] == "step,t,component_0"
    assert len(lines) == 4
    assert lines[1].startswith("0,0.0,")
    # values survive a parse round trip exactly
    assert float(lines[-1].split(",")[2]) == traj.final[0]
