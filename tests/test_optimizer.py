"""Multistart searches for main methods and their start/stop companions.

The heavy searches run with coarse settings here; the acceptance suite
re-runs the headline recoveries at full precision.
"""

import numpy as np
import pytest
from scipy.linalg import block_diag, solve_triangular

from essprk import optimizer
from essprk.errors import DomainError, OrderConditionsInfeasible
from essprk.integrator import CompositeScheme
from essprk.methods import catalog, lookup
from essprk.optimizer import (
    MainSearchOutcome,
    SearchConfig,
    _main_constraints,
    _margins,
    _margins_jacobian,
    _max_radius_search,
    _pack_dim,
    _packed_weights,
    _split,
    _start_stop_constraints,
    _tangents,
    optimize_main,
    optimize_start_stop,
)
from essprk.order_conditions import (
    EffectiveOrderSpec,
    _companion_conditions,
    _companion_gaps,
    _weights_jacobian,
    effective_order,
    effective_order_residuals,
    elementary_weights,
)
from essprk.ssp import ssp_coefficient
from essprk.tableau import ButcherTableau

COARSE = SearchConfig(restarts=2, seed=0)


def central_difference(f, x, h=1e-6):
    return np.stack(
        [(f(x + h * e) - f(x - h * e)) / (2.0 * h) for e in np.eye(x.size)], axis=1
    )


def assert_jacobian(exact, f, x):
    np.testing.assert_allclose(exact, central_difference(f, x), rtol=1e-6, atol=1e-7)


def wrap(tableau, spec):
    return MainSearchOutcome(
        tableau=tableau,
        ssp=ssp_coefficient(tableau),
        residuals=effective_order_residuals(elementary_weights(tableau), spec),
        spec=spec,
    )


class TestSearchConfig:
    def test_defaults_valid(self):
        SearchConfig()

    @pytest.mark.parametrize(
        "kw",
        [
            {"restarts": 0},
            {"max_iterations": 0},
            {"residual_tol": 0.0},
            {"residual_tol": float("inf")},
            {"residual_tol": float("nan")},
            {"restarts": True},
            {"restarts": 2.0},
            {"max_iterations": 2.5},
            {"max_iterations": False},
            {"seed": -1},
            {"seed": 1.5},
            {"seed": True},
        ],
    )
    def test_rejects_bad_settings(self, kw):
        with pytest.raises(DomainError):
            SearchConfig(**kw)


class TestMainSearch:
    def test_recovers_three_stage_optimum(self):
        out = optimize_main(3, EffectiveOrderSpec(3, 2), COARSE)
        assert out.converged
        assert out.ssp.coefficient == pytest.approx(1.0, abs=2e-3)
        assert np.max(np.abs(out.residuals)) <= 1e-10
        assert effective_order(out.tableau) >= 3

    def test_deterministic_for_fixed_seed(self):
        a = optimize_main(3, EffectiveOrderSpec(3, 2), COARSE)
        b = optimize_main(3, EffectiveOrderSpec(3, 2), COARSE)
        assert np.array_equal(a.tableau.A, b.tableau.A)
        assert np.array_equal(a.tableau.b, b.tableau.b)

    def test_more_restarts_never_hurt(self):
        one = optimize_main(
            3, EffectiveOrderSpec(3, 2), SearchConfig(restarts=1, seed=0)
        )
        two = optimize_main(3, EffectiveOrderSpec(3, 2), COARSE)
        assert two.ssp.coefficient >= one.ssp.coefficient - 1e-12

    def test_order_five_returns_zero_coefficient_report(self):
        out = optimize_main(4, EffectiveOrderSpec(5, 2), COARSE)
        assert not out.converged
        assert out.ssp.coefficient == 0.0
        # four stages leave the deepest chain weight at zero, off by 1/120
        assert np.max(np.abs(out.residuals)) == pytest.approx(1 / 120, abs=1e-6)

    def test_order_five_certificate_is_taken_at_zero(self):
        # the coefficient is overridden to zero, so its certificate must be
        # taken at radius zero, not where the fit happens to be feasible
        config = SearchConfig(restarts=2, seed=1)
        out = optimize_main(8, EffectiveOrderSpec(5, 2), config)
        assert not out.converged
        assert out.ssp.bracket == (0.0, 0.0)
        assert out.ssp.coefficient == out.ssp.certificate.radius == 0.0

    def test_unreachable_order_raises(self):
        with pytest.raises(OrderConditionsInfeasible) as info:
            optimize_main(2, EffectiveOrderSpec(3, 2), SearchConfig(restarts=1, seed=0))
        assert np.max(np.abs(info.value.best_residuals)) == pytest.approx(
            1 / 6, abs=1e-6
        )

    def test_stage_count_validated(self):
        with pytest.raises(DomainError):
            optimize_main(1, EffectiveOrderSpec(3, 2))

    def test_stage_count_capped(self):
        with pytest.raises(DomainError, match="2..32"):
            optimize_main(33, EffectiveOrderSpec(3, 2))


class TestStartStopSearch:
    def test_companions_for_classical_method(self, ssprk33):
        main = wrap(ssprk33, EffectiveOrderSpec(3, 2))
        out = optimize_start_stop(main, SearchConfig(restarts=1, seed=0))
        assert out.success
        assert out.start.s == 4
        assert out.stop.s == 3
        assert out.min_radius >= main.ssp.coefficient - 1e-3
        assert out.worst_residual <= 1e-10
        assert out.starting.free == ()

    def test_start_method_stage_count_capped(self):
        # a 32-stage main would need a 33-stage start method
        s = 32
        main = wrap(
            ButcherTableau(A=np.zeros((s, s)), b=np.full(s, 1.0 / s)),
            EffectiveOrderSpec(3, 2),
        )
        with pytest.raises(DomainError, match="32-stage cap"):
            optimize_start_stop(main)

    def test_order_five_rejected(self, rk4):
        main = wrap(rk4, EffectiveOrderSpec(5, 4))
        with pytest.raises(DomainError, match="orders 3 and 4"):
            optimize_start_stop(main)


class TestExactJacobians:
    @pytest.mark.parametrize("s", [2, 3, 4, 5])
    def test_elementary_weights(self, s):
        x = np.random.default_rng(s).uniform(-0.5, 1.0, _pack_dim(s))

        def weights(y):
            (A, b), = _split(y, [s])
            return elementary_weights(ButcherTableau(A=A, b=b))

        (A, b), = _split(x, [s])
        assert_jacobian(_weights_jacobian(A, b, *_tangents(s)), weights, x)

    # two tableaux side by side, and the perturbation pair's shape: one
    # 4-stage tableau on the trees of orders 1 to 4
    @pytest.mark.parametrize(
        "stages,rows", [([5, 4], slice(None)), ([4], slice(1, 9))]
    )
    def test_packed_weights(self, stages, rows):
        weights, jacobian = _packed_weights(stages, rows)
        x = np.random.default_rng(len(stages)).uniform(
            -0.5, 1.0, sum(_pack_dim(s) for s in stages)
        )
        exact = jacobian(x)
        assert exact.shape == (weights(x).size, x.size)
        assert_jacobian(exact, weights, x)

    @pytest.mark.parametrize("q,p", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
    def test_order_residuals(self, q, p):
        fun, jac = _main_constraints(5, EffectiveOrderSpec(q, p))
        x = np.random.default_rng(q + p).uniform(-0.5, 1.0, _pack_dim(5))
        assert_jacobian(jac(x), fun, x)

    # n_free counts values packed after the tableaux: none, since the
    # start/stop search eliminates the free starting weights
    @pytest.mark.parametrize(
        "stages,n_free", [([2], 0), ([3], 0), ([5], 0), ([4, 3], 0)]
    )
    @pytest.mark.parametrize("r", [0.0, 0.7, 3.0])
    def test_margins_including_radius_column(self, stages, n_free, r):
        rng = np.random.default_rng(sum(stages))
        n = sum(_pack_dim(s) for s in stages) + n_free
        z = np.append(rng.uniform(-0.2, 0.6, n), r)
        exact = _margins_jacobian(z, stages)
        assert exact.shape == (_margins(z, stages).size, z.size)
        assert_jacobian(exact, lambda y: _margins(y, stages), z)

    @pytest.mark.parametrize(
        "label,q,p",
        [("ESSPRK(3,3,2)", 3, 2), ("ESSPRK(4,4,2)", 4, 2), ("ESSPRK(4,4,3)", 4, 3)],
    )
    def test_start_stop_equalities(self, label, q, p):
        main = lookup(label).main
        _, targets, gaps = _companion_conditions(elementary_weights(main), q, p)
        stages = [main.s + 1, main.s]
        fun, jac = _start_stop_constraints(targets, gaps, stages)
        n = sum(_pack_dim(s) for s in stages)
        x = np.random.default_rng(main.s).uniform(-0.2, 0.6, n)
        assert_jacobian(jac(x), fun, x)


class TestStartStopForCatalogMains:
    def test_effective_order_four_main(self):
        entry = lookup("ESSPRK(4,4,2)")
        main = wrap(entry.main, EffectiveOrderSpec(4, 2))
        out = optimize_start_stop(main, SearchConfig(restarts=4, seed=0))
        assert out.success
        assert out.worst_residual <= 1e-10
        assert out.min_radius >= main.ssp.coefficient - 1e-9
        assert out.starting.free == ()

    def test_same_seed_is_bit_identical(self):
        main = wrap(lookup("ESSPRK(3,3,2)").main, EffectiveOrderSpec(3, 2))
        a = optimize_start_stop(main, SearchConfig(restarts=2, seed=5))
        b = optimize_start_stop(main, SearchConfig(restarts=2, seed=5))
        for x, y in [(a.start, b.start), (a.stop, b.stop)]:
            assert np.array_equal(x.A, y.A)
            assert np.array_equal(x.b, y.b)
        assert np.array_equal(a.starting.values, b.starting.values)


def packed(tableau):
    """The packed vector of a tableau: rows of A below the diagonal, then b."""
    return np.concatenate([tableau.A[np.tril_indices(tableau.s, -1)], tableau.b])


class TestOneFormulation:
    """The search solves exactly the conditions check_companions tests."""

    @pytest.mark.parametrize(
        "entry", [e for e in catalog() if e.start is not None], ids=lambda e: e.label
    )
    def test_search_equalities_are_the_checked_gaps(self, entry, monkeypatch):
        # stand in for the solver: keep the search's equalities and return
        # the catalog pair, packed
        seen = {}
        x = np.concatenate([packed(entry.start), packed(entry.stop)])

        def search(eq, eq_jac, stages, start, r_floor, config):
            seen["eq"] = eq
            return x

        monkeypatch.setattr(optimizer, "_max_radius_search", search)
        main = wrap(entry.main, EffectiveOrderSpec(entry.q, entry.p))
        out = optimize_start_stop(main)
        for found, known in [(out.start, entry.start), (out.stop, entry.stop)]:
            assert np.array_equal(found.A, known.A)
            assert np.array_equal(found.b, known.b)
        gaps = _companion_gaps(entry.main, entry.start, entry.stop, entry.q)
        assert np.array_equal(seen["eq"](x), gaps)
        assert out.worst_residual == np.max(np.abs(gaps))
        assert out.starting.free == ()

    def test_outcome_composes_with_its_main(self):
        main = wrap(lookup("ESSPRK(3,3,2)").main, EffectiveOrderSpec(3, 2))
        out = optimize_start_stop(main, SearchConfig(restarts=1, seed=0))
        # construction runs check_companions and raises on a miss
        CompositeScheme(start=out.start, main=main.tableau, stop=out.stop, q=3)


def random_point(stages, seed):
    n = sum(_pack_dim(s) for s in stages)
    return np.random.default_rng(seed).uniform(-0.5, 1.0, n)


def margins_jacobian_closed_form(z, stages):
    """:func:`_margins_jacobian` in closed form: with K = [A; b],
    M = I + rA and X = K M^-1, a step (dA, dK) moves X by (dK - X r dA) M^-1
    and a step in r moves it by -X A M^-1, M^-1 from a triangular solve;
    the blocks are assembled with ``block_diag``."""
    r = z[-1]
    blocks, r_col = [], []
    for A, b in _split(z[:-1], stages):
        s = b.size
        dA, db = _tangents(s)
        X, _ = optimizer._transformed(A, b, r)
        M_inv = solve_triangular(
            np.eye(s) + r * A, np.eye(s), lower=True, unit_diagonal=True,
            check_finite=False,
        )
        dK = np.concatenate([dA, db[:, None, :]], axis=1)
        dX = np.concatenate([(dK - r * (X @ dA)) @ M_inv, [-X @ A @ M_inv]])
        drem = -r * dX.sum(axis=2)
        drem[-1] -= X.sum(axis=1)
        J = np.concatenate([dX[:, optimizer._structural(s)], drem], axis=1).T
        blocks.append(J[:, :-1])
        r_col.append(J[:, -1])
    return np.column_stack([block_diag(*blocks), np.concatenate(r_col)])


CALLBACK_SHAPES = [([4], slice(None)), ([5, 4], slice(None)), ([4], slice(1, 9))]


class TestCallbacksBitForBit:
    """The weight callbacks and the widened equality Jacobian give the bytes
    of their formulas written with tableaux, ``block_diag`` and ``np.pad``,
    so SLSQP sees the same numbers.  The margin Jacobian runs the
    certificate's back substitution on tangent right-hand sides; it matches
    its closed form, an explicit triangular inverse, to rounding."""

    @pytest.mark.parametrize("stages,rows", CALLBACK_SHAPES)
    def test_packed_weights(self, stages, rows):
        weights, jacobian = _packed_weights(stages, rows)
        x = random_point(stages, len(stages))
        split = _split(x, stages)
        expected = np.concatenate(
            [elementary_weights(ButcherTableau(A=A, b=b))[rows] for A, b in split]
        )
        assert weights(x).tobytes() == expected.tobytes()
        expected = block_diag(
            *[_weights_jacobian(A, b, *_tangents(b.size))[rows] for A, b in split]
        )
        assert jacobian(x).shape == expected.shape
        assert jacobian(x).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("stages", [[4], [5, 4], [2], [6, 5], [17]])
    @pytest.mark.parametrize("r", [0.0, 0.7, 3.0, "2s"])
    def test_margins_jacobian(self, stages, r):
        # "2s" is the top of the search's radius range
        r = 2.0 * min(stages) if r == "2s" else r
        z = np.append(random_point(stages, sum(stages)), r)
        expected = margins_jacobian_closed_form(z, stages)
        found = _margins_jacobian(z, stages)
        assert found.shape == expected.shape
        assert np.max(np.abs(found - expected)) <= 4e-15 * np.max(np.abs(expected))

    @pytest.mark.parametrize("stages", [[4], [5, 4]])
    @pytest.mark.parametrize("r", [0.0, 0.7, 3.0])
    def test_widened_equality_jacobian(self, stages, r, monkeypatch):
        # stand in for SLSQP: keep the constraints the search hands it
        seen = {}

        def minimize(*args, constraints, **kwargs):
            seen["cons"] = constraints
            raise StopIteration

        monkeypatch.setattr(optimizer, "minimize", minimize)
        weights, jacobian = _packed_weights(stages, slice(1, 9))
        x = random_point(stages, len(stages))
        with pytest.raises(StopIteration):
            _max_radius_search(weights, jacobian, stages, lambda k: x, 0.0, COARSE)
        z = np.append(x, r)
        widened = seen["cons"][0]["jac"](z)
        expected = np.pad(jacobian(z[:-1]), ((0, 0), (0, 1)))
        assert widened.shape == expected.shape
        assert widened.tobytes() == expected.tobytes()


class TestWeightsOncePerPoint:
    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        weights = optimizer._weights

        def counted(*args):
            calls.append(args)
            return weights(*args)

        monkeypatch.setattr(optimizer, "_weights", counted)
        return calls

    def test_main_constraints_then_jacobian(self, calls):
        fun, jac = _main_constraints(4, EffectiveOrderSpec(3, 2))
        x = random_point([4], 0)
        fun(x)
        jac(x)
        assert len(calls) == 1

    def test_start_stop_constraints_then_jacobian(self, calls):
        main = lookup("ESSPRK(3,3,2)").main
        _, targets, gaps = _companion_conditions(elementary_weights(main), 3, 2)
        stages = [4, 3]
        fun, jac = _start_stop_constraints(targets, gaps, stages)
        x = random_point(stages, 0)
        fun(x)
        jac(x)
        fun(x)
        assert len(calls) == 2  # one per tableau

    def test_point_changed_in_place(self):
        spec = EffectiveOrderSpec(4, 2)
        fun, _ = _main_constraints(4, spec)
        x, y = random_point([4], 1), random_point([4], 2)
        first = fun(x)
        x[:] = y
        assert np.array_equal(fun(x), _main_constraints(4, spec)[0](y))
        assert not np.array_equal(fun(x), first)

    def test_weights_are_read_only(self):
        weights, _ = _packed_weights([4])
        w = weights(random_point([4], 3))
        assert not w.flags.writeable
        with pytest.raises(ValueError):
            w[0] = 2.0
