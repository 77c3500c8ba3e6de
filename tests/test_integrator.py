"""Stepping, composite runs, observation semantics."""

import json
import math
import warnings
from functools import partial

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essprk import integrator, order_conditions
from essprk.errors import DomainError, NonFiniteState
from essprk.integrator import (
    IVP,
    CompositeScheme,
    Trajectory,
    _float_step,
    composite_from_entry,
    composite_steps,
    rk_step,
    run_composite,
    run_single,
    shu_osher_step,
)
from essprk.methods import catalog, dop853, family_n2p1, lookup
from essprk.ssp import ssp_coefficient
from essprk.tableau import ButcherTableau, ShuOsherForm, shu_osher_to_butcher

from conftest import make_random_tableau, run_python

COMPANION_LABELS = (
    "ESSPRK(3,3,2)", "ESSPRK(4,3,2)", "ESSPRK(4,4,2)", "ESSPRK(4,4,3)", "ESSPRK(5,4,2)",
)


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
        for t0, tf in [(0.0, np.inf), (-np.inf, 0.0), (-1e308, 1e308)]:
            with pytest.raises(DomainError, match="finite span"):
                IVP(rhs=lambda u: u, u0=np.ones(1), t0=t0, tf=tf)
        with pytest.raises(DomainError, match="tf > t0"):
            IVP(rhs=lambda u: u, u0=np.ones(1), t0=np.nan, tf=1.0)

    def test_scalar_initial_state_promoted(self):
        ivp = IVP(rhs=lambda u: u, u0=2.0, t0=0.0, tf=1.0)
        assert ivp.u0.shape == (1,)


def structured_tableaux():
    """Every catalog main, start and stop tableau, and DOP853."""
    out = [dop853()]
    for entry in catalog():
        out += [t for t in (entry.main, entry.start, entry.stop) if t is not None]
    return out


def reference_step(tableau, rhs, u, dt):
    """The step rk_step and _float_step must both give bit for bit: stage i
    is u + dt * (a_i0*k0 + a_i1*k1 + ...) and the update u + dt * (b_0*k0 +
    b_1*k1 + ...), each sum taken left to right over its whole row of
    [A; b], zero entries included."""
    A, b = tableau.A.tolist(), tableau.b.tolist()

    def combination(coefs, slopes):
        total = coefs[0] * slopes[0]
        for a, k in zip(coefs[1:], slopes[1:]):
            total = total + a * k
        return total

    slopes = []
    for i in range(tableau.s):
        stage = u if i == 0 else u + dt * combination(A[i][:i], slopes)
        slopes.append(rhs(stage))
    return u + dt * combination(b, slopes)


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
        assert out.tobytes() == reference_step(tableau, rhs, u, 0.03).tobytes()

    @pytest.mark.parametrize("m", [1, 2, 3, 4000])
    def test_structured_tableaux_match_reference_bit_for_bit(self, m):
        # catalog and DOP853 rows have exact zeros, which random ones lack
        rng = np.random.default_rng(m)
        u = rng.normal(size=m)

        def rhs(v):
            return np.cos(v) - 0.2 * v * v

        for tableau in structured_tableaux():
            out = rk_step(tableau, rhs, u, 0.07)
            expected = reference_step(tableau, rhs, u, 0.07)
            assert out.tobytes() == expected.tobytes(), tableau.label

    @pytest.mark.parametrize("m", [2, 4000])
    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_slope_at_each_stage_raises_silently(self, bad, m):
        tableau = dop853()
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

    @pytest.mark.parametrize("m", [2, 4000])
    @pytest.mark.parametrize(
        "A, b, message",
        [
            # stage 2 reads 1.5e308 + 1.5e308
            ([[0, 0, 0], [1, 0, 0], [1, 1, 0]], [0, 0, 1], "stage 2 produced"),
            ([[0, 0], [0.5, 0]], [0.75, 0.75], "step update produced"),
        ],
        ids=["stage", "update"],
    )
    @pytest.mark.parametrize("path", ["butcher", "shu-osher"])
    def test_overflowing_weighted_sum_raises_silently(self, path, A, b, message, m):
        # every slope at a finite state is finite, so only a weighted sum
        # of them overflows: BLAS stage sums raised this error after an
        # overflow warning, which the step no longer prints
        K = np.vstack((A, b)).astype(float)
        s = K.shape[1]
        if path == "butcher":
            step = partial(rk_step, ButcherTableau(A=K[:s], b=K[s]))
        else:
            form = ShuOsherForm(v=np.ones(s + 1), alpha=np.zeros_like(K), beta=K)
            step = partial(shu_osher_step, form)

        def rhs(v):
            return np.where(np.isfinite(v), 1.5e308, v)

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteState, match=message):
                step(rhs, np.zeros(m), 0.5)

    def test_slope_may_be_a_list_or_a_scalar(self, ssprk33):
        # broadcast as numpy does, as when slopes were stored in a buffer
        out = rk_step(ssprk33, lambda v: [1.0, 2.0], np.zeros(2), 0.5)
        assert out.tolist() == [0.5, 1.0]
        out = rk_step(ssprk33, lambda v: 1.0, np.zeros(2), 0.5)
        assert out.tolist() == [0.5, 0.5]

    @pytest.mark.parametrize(
        "u", [np.ones((2, 2)), np.array(1.0), np.empty(0)],
        ids=["matrix", "scalar", "empty"],
    )
    def test_state_must_be_a_nonempty_vector(self, ssprk33, u):
        with pytest.raises(DomainError, match="nonempty vector"):
            rk_step(ssprk33, lambda v: v, u, 0.1)
        with pytest.raises(DomainError, match="nonempty vector"):
            shu_osher_step(family_n2p1(3), lambda v: v, u, 0.1)


def slope1(x):
    return (x - x * x * x,)


def slope2(x, y):
    return y, 2.0 * (1.0 - x * x) * y - x


def slope3(x, y, z):
    return y * z - 0.5 * x, x - 0.25 * z * x, 0.3 * x * y - z


def as_rhs(slope):
    return lambda u: np.array(slope(*u.tolist()))


def seeded_states(dim, count):
    rng = np.random.default_rng(100 + dim)
    for _ in range(count):
        u = rng.normal(size=dim) * 10.0 ** rng.uniform(-2, 1, dim)
        yield tuple(u.tolist()), float(10.0 ** rng.uniform(-4, -1))


class TestFloatStep:
    @pytest.mark.parametrize("slope", [slope1, slope2, slope3])
    def test_matches_python_loop_bit_for_bit(self, slope):
        dim = slope.__code__.co_argcount
        for tableau in structured_tableaux():
            step = _float_step(tableau, slope, as_rhs(slope), dim)
            for u, dt in seeded_states(dim, 20):
                out = step(u, dt)
                assert type(out) is tuple and all(type(x) is float for x in out)
                expected = reference_step(tableau, as_rhs(slope), np.array(u), dt)
                assert np.array(out).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("slope", [slope1, slope2, slope3])
    def test_equals_rk_step_byte_for_byte(self, slope):
        # the cubic's larger steps go far past its stability limit, which
        # amplifies any difference in a stage's rounding
        dim = slope.__code__.co_argcount
        rhs = as_rhs(slope)
        for tableau in structured_tableaux():
            step = _float_step(tableau, slope, rhs, dim)
            for u, dt in seeded_states(dim, 20):
                out = np.array(step(u, dt))
                expected = rk_step(tableau, rhs, np.array(u), dt)
                assert out.tobytes() == expected.tobytes(), tableau.label

    def test_non_finite_coefficient_rejected(self):
        A = np.array([[0.0, 0.0], [np.nan, 0.0]])
        tableau = ButcherTableau(A=A, b=np.ones(2))
        with pytest.raises(DomainError, match="non-finite"):
            _float_step(tableau, slope1, as_rhs(slope1), 1)


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

    def test_callers_arrays_left_writable(self):
        states = np.zeros((2, 2))
        traj = Trajectory(np.arange(2), np.zeros(2), states)
        assert states.flags.writeable
        states[1, 0] = 1.0
        assert traj.final[0] == 0.0
        with pytest.raises(ValueError):
            traj.states[0, 0] = 1.0

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


@pytest.mark.parametrize("n", [2.5, 4.0, True])
@pytest.mark.parametrize("run", ["run_single", "run_composite", "composite_steps"])
def test_step_count_must_be_an_integer(scheme_442, run, n):
    ivp = exponential_ivp()
    calls = {
        "run_single": lambda: run_single(scheme_442.main, ivp, n),
        "run_composite": lambda: run_composite(scheme_442, ivp, n),
        "composite_steps": lambda: list(composite_steps(scheme_442, ivp, n)),
    }
    with pytest.raises(DomainError, match="must be an integer"):
        calls[run]()


@pytest.mark.parametrize(
    "k", [2.7, True, "3", np.nan], ids=["fraction", "bool", "string", "nan"]
)
@pytest.mark.parametrize("run", ["run_single", "run_composite"])
def test_observation_step_must_be_an_integer(scheme_442, run, k):
    # run_single once recorded 2.7 as step 2, True as step 1, "3" as step 3
    ivp = exponential_ivp()
    calls = {
        "run_single": lambda: run_single(scheme_442.main, ivp, 10, observe_at=[k]),
        "run_composite": lambda: run_composite(scheme_442, ivp, 10, observe_at=[k]),
    }
    with pytest.raises(DomainError, match="observation step must be an integer"):
        calls[run]()


def test_numpy_integer_step_count(scheme_442):
    ivp = exponential_ivp()
    assert run_single(scheme_442.main, ivp, np.int64(4)).steps.tolist() == [4]
    a = run_composite(scheme_442, ivp, np.int64(4))
    assert np.array_equal(a.final, run_composite(scheme_442, ivp, 4).final)
    assert len(list(composite_steps(scheme_442, ivp, np.int64(4)))) == 5


class TestCompositeScheme:
    def test_catalog_entries_build(self):
        # each companion entry carries the scheme it was verified as at load
        for label in COMPANION_LABELS:
            entry = lookup(label)
            scheme = composite_from_entry(entry)
            assert scheme is entry.scheme and scheme.main is entry.main
            assert scheme.q in (3, 4)

    def test_warm_catalog_verifies_no_composite_again(self, monkeypatch):
        catalog()

        def refuse(*args, **kwargs):
            raise AssertionError("a catalog composite was verified again")

        monkeypatch.setattr(integrator, "check_companions", refuse)
        monkeypatch.setattr(integrator, "ssp_coefficient", refuse)
        monkeypatch.setattr(order_conditions, "elementary_weights", refuse)
        for label in COMPANION_LABELS:
            assert composite_from_entry(lookup(label)).q == lookup(label).q

    def test_cold_catalog_verifies_each_composite_once(self):
        # every essprk module's binding of the two checks is counted, so a
        # second verification anywhere, at load or on use, shows
        script = (
            "import json, sys\n"
            "import essprk\n"
            "counts = {'check_companions': 0, 'ssp_coefficient': 0}\n"
            "def counted(name, f):\n"
            "    def wrapper(*args, **kwargs):\n"
            "        counts[name] += 1\n"
            "        return f(*args, **kwargs)\n"
            "    return wrapper\n"
            "for key, module in list(sys.modules.items()):\n"
            "    if not key.startswith('essprk.'):\n"
            "        continue\n"
            "    for name in counts:\n"
            "        if callable(getattr(module, name, None)):\n"
            "            setattr(module, name, counted(name, getattr(module, name)))\n"
            "cold = dict(counts)\n"
            "essprk.catalog()\n"
            "loaded = dict(counts)\n"
            f"for label in {COMPANION_LABELS!r}:\n"
            "    essprk.composite_from_entry(essprk.lookup(label))\n"
            "print(json.dumps([cold, loaded, counts]))\n"
        )
        proc = run_python(script, timeout=120)
        assert proc.returncode == 0, proc.stderr
        none = {"check_companions": 0, "ssp_coefficient": 0}
        once = {"check_companions": 5, "ssp_coefficient": 9}
        assert json.loads(proc.stdout) == [none, once, once]

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

