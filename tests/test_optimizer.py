"""Multistart searches for main methods and their start/stop companions.

The heavy searches run with coarse settings here; the acceptance suite
re-runs the headline recoveries at full precision.
"""

import numpy as np
import pytest

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

    def test_unreachable_order_raises(self):
        with pytest.raises(OrderConditionsInfeasible) as info:
            optimize_main(2, EffectiveOrderSpec(3, 2), SearchConfig(restarts=1, seed=0))
        assert np.max(np.abs(info.value.best_residuals)) == pytest.approx(
            1 / 6, abs=1e-6
        )

    def test_stage_count_validated(self):
        with pytest.raises(DomainError):
            optimize_main(1, EffectiveOrderSpec(3, 2))


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
