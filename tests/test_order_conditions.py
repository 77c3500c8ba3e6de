"""Order machinery: elementary weights, order ladders, starting weights."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from essprk.errors import DomainError, OrderConditionsInfeasible
from essprk import order_conditions
from essprk.methods import essprk_332, essprk_432
from essprk.order_conditions import (
    DEFAULT_ORDER_TOL,
    N_TREES,
    TREE_DENSITY,
    TREE_ORDER,
    EffectiveOrderSpec,
    OrderEstimate,
    StartingWeights,
    classical_order,
    conjugacy_residuals,
    effective_order,
    effective_order_residuals,
    elementary_weights,
    order5_barrier_witness,
    recover_starting_weights,
    resolve_free_weights,
    start_stop_targets,
)

from essprk.tableau import ButcherTableau

from conftest import make_random_tableau


def test_tree_tables():
    assert N_TREES == 18
    assert TREE_ORDER.tolist() == [0, 1, 2, 3, 3, 4, 4, 4, 4] + [5] * 9
    assert TREE_DENSITY.tolist() == [
        0, 1, 2, 3, 6, 4, 8, 12, 24, 5, 10, 15, 30, 20, 20, 40, 60, 120,
    ]
    with pytest.raises(ValueError):
        TREE_DENSITY[0] = 7


class TestElementaryWeights:
    def test_fourth_order_method_matches_exact_flow(self, rk4):
        w = elementary_weights(rk4)
        assert w.shape == (N_TREES,)
        for i in range(1, N_TREES):
            if TREE_ORDER[i] <= 4:
                assert w[i] == pytest.approx(1.0 / TREE_DENSITY[i], abs=1e-15)
        # the four-chain composition tree needs five stages to be nonzero
        assert w[17] == 0.0

    def test_read_only(self, ssprk33):
        w = elementary_weights(ssprk33)
        with pytest.raises(ValueError):
            w[0] = 2.0

    def test_first_weights_are_sums(self, ssprk33):
        w = elementary_weights(ssprk33)
        assert w[0] == 1.0
        assert w[1] == pytest.approx(ssprk33.b.sum(), abs=1e-15)
        assert w[2] == pytest.approx(ssprk33.b @ ssprk33.c, abs=1e-15)


class TestClassicalOrder:
    def test_known_methods(self, forward_euler, ssprk33, rk4):
        assert classical_order(forward_euler) == 1
        assert classical_order(ssprk33) == 3
        assert classical_order(rk4) == 4
        assert not classical_order(rk4).saturated

    def test_estimate_is_an_int(self, rk4):
        est = classical_order(rk4)
        assert isinstance(est, int)
        assert est + 1 == 5

    def test_saturated_exactly_at_order_five(self):
        for order in range(6):
            assert OrderEstimate(order).saturated == (order == 5)

    def test_tolerance_matters(self, ssprk33):
        # a sloppy tolerance accepts the order-four conditions too
        assert classical_order(ssprk33, tol=1.0) >= 4


class TestEffectiveOrderSpec:
    @pytest.mark.parametrize("q,p", [(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)])
    def test_accepts_supported_pairs(self, q, p):
        spec = EffectiveOrderSpec(q, p)
        assert (spec.q, spec.p) == (q, p)

    @pytest.mark.parametrize("q,p", [(2, 1), (3, 3), (4, 4), (5, 5), (6, 2), (4, 1)])
    def test_rejects_unsupported_pairs(self, q, p):
        with pytest.raises(DomainError):
            EffectiveOrderSpec(q, p)

    def test_accepts_exactly_the_attainable_pairs(self):
        accepted = set()
        for q, p in itertools.product(range(8), repeat=2):
            try:
                EffectiveOrderSpec(q, p)
            except DomainError:
                continue
            accepted.add((q, p))
        assert accepted == {(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)}
        with pytest.raises(DomainError, match="2 <= p < q <= 5"):
            EffectiveOrderSpec(4.5, 2)


class TestEffectiveOrder:
    def test_classically_accurate_methods(self, forward_euler, ssprk33, rk4):
        assert effective_order(forward_euler) == 1
        assert effective_order(ssprk33) == 3
        assert effective_order(rk4) == 4

    def test_family_members_gain_an_order(self):
        for t in (essprk_332(0.5), essprk_432(0.4)):
            assert classical_order(t) == 2
            assert effective_order(t) == 3

    def test_residuals_vanish_for_classical_methods(self, rk4, ssprk33):
        w4 = elementary_weights(rk4)
        for spec in (EffectiveOrderSpec(4, 2), EffectiveOrderSpec(4, 3)):
            assert np.max(np.abs(effective_order_residuals(w4, spec))) < 1e-14
        w3 = elementary_weights(ssprk33)
        assert np.max(np.abs(effective_order_residuals(w3, EffectiveOrderSpec(3, 2)))) < 1e-14

    @settings(max_examples=40, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 5))
    def test_classical_never_exceeds_effective(self, seed, s):
        t = make_random_tableau(np.random.default_rng(seed), s)
        assert classical_order(t) <= effective_order(t)


class TestStartingWeights:
    def test_validation(self):
        with pytest.raises(DomainError, match="length 9"):
            StartingWeights(np.zeros(8))
        bad0 = np.zeros(9)
        with pytest.raises(DomainError, match="must be 1"):
            StartingWeights(bad0)
        bad1 = np.zeros(9)
        bad1[0] = 1.0
        bad1[1] = 0.5
        with pytest.raises(DomainError, match="normalization"):
            StartingWeights(bad1)

    def test_nan_guard_covers_fixed_slots_only(self):
        v = np.zeros(9)
        v[0] = 1.0
        v[5] = np.nan
        with pytest.raises(DomainError, match="NaN"):
            StartingWeights(v)
        ok = StartingWeights(v, free=(5,))
        assert np.isnan(ok.values[5])

    def test_fill(self):
        v = np.zeros(9)
        v[0] = 1.0
        v[3] = v[4] = np.nan
        sw = StartingWeights(v, free=(3, 4))
        filled = sw.fill([0.25, -0.5])
        assert filled.free == ()
        assert filled.values[3] == 0.25
        assert filled.values[4] == -0.5
        with pytest.raises(DomainError):
            sw.fill([1.0])


class TestRecovery:
    def test_order_three_weights(self):
        t = essprk_332(0.5)
        w = elementary_weights(t)
        sw = recover_starting_weights(w, EffectiveOrderSpec(3, 2))
        assert sw.free == (3, 4)
        assert sw.values[2] == pytest.approx(-1 / 6 + w[3] / 2, abs=1e-14)
        assert np.all(sw.values[5:] == 0.0)

    def test_infeasible_main_method_raises(self, ssprk33):
        w = elementary_weights(ssprk33)
        with pytest.raises(OrderConditionsInfeasible) as info:
            recover_starting_weights(w, EffectiveOrderSpec(4, 2))
        assert np.max(np.abs(info.value.best_residuals)) > 1e-3
        # the chain-of-four weight is identically zero on three stages
        assert info.value.best_residuals[-1] == pytest.approx(-1 / 24, abs=1e-12)

    def test_targets_require_resolved_weights(self):
        t = essprk_432(0.3)
        w = elementary_weights(t)
        sw = recover_starting_weights(w, EffectiveOrderSpec(3, 2))
        with pytest.raises(DomainError, match="free slots"):
            start_stop_targets(w, sw)

    def test_round_trip_through_targets(self):
        t = essprk_332(0.5)
        w = elementary_weights(t)
        sw = recover_starting_weights(w, EffectiveOrderSpec(3, 2))
        filled = sw.fill([0.033, -0.041])
        rho, tau = start_stop_targets(w, filled)
        assert rho[0] == tau[0] == 1.0
        assert rho[1] == tau[1] == pytest.approx(w[1], abs=1e-15)
        # a starting method hitting rho exactly reproduces the free choices
        fake = np.concatenate([rho, np.zeros(N_TREES - 9)])
        resolved = resolve_free_weights(w, sw, fake)
        assert np.allclose(resolved.values, filled.values, atol=1e-14)

    def test_resolve_is_identity_when_nothing_free(self, rk4):
        w = elementary_weights(rk4)
        sw = recover_starting_weights(w, EffectiveOrderSpec(4, 3))
        filled = sw.fill(np.zeros(len(sw.free)))
        assert resolve_free_weights(w, filled, np.zeros(N_TREES)) is filled


class TestConjugacy:
    def test_zero_perturbation_reduces_to_classical(self, rk4):
        w = elementary_weights(rk4)
        identity = StartingWeights(np.r_[1.0, np.zeros(8)])
        res = conjugacy_residuals(w, identity, 4)
        assert np.max(np.abs(res)) < 1e-14
        res5 = conjugacy_residuals(w, identity, 5)
        assert res5[17] == pytest.approx(-1 / 120, abs=1e-15)

    def test_family_satisfies_order_three_conjugacy(self):
        t = essprk_332(0.7)
        w = elementary_weights(t)
        sw = recover_starting_weights(w, EffectiveOrderSpec(3, 2)).fill([0.0, 0.0])
        res = conjugacy_residuals(w, sw, 3)
        assert np.max(np.abs(res)) < 1e-14

    def test_low_order_free_slot_rejected(self):
        v = np.r_[1.0, np.zeros(8)]
        v[2] = np.nan
        sw = StartingWeights(v, free=(2,))
        with pytest.raises(DomainError, match="unresolved"):
            conjugacy_residuals(np.ones(N_TREES), sw, 3)

    def test_order_q_free_slot_tolerated(self):
        v = np.r_[1.0, np.zeros(8)]
        v[3] = np.nan
        sw = StartingWeights(v, free=(3,))
        res = conjugacy_residuals(np.ones(N_TREES), sw, 3)
        assert np.isfinite(res[[1, 2, 4]]).all()


class TestNonFiniteInput:
    @pytest.mark.parametrize("where", ["A", "b"])
    def test_nan_entry_has_order_zero(self, rk4, where):
        A, b = rk4.A.copy(), rk4.b.copy()
        if where == "A":
            A[3, 2] = np.nan
        else:
            b[2] = np.nan
        t = ButcherTableau(A=A, b=b)
        assert effective_order(t) == 0
        assert not effective_order(t).saturated
        assert classical_order(t) == 0

    def test_nan_weight_fails_its_gate(self, rk4, monkeypatch):
        # a NaN first in the order-four gate must stop the ladder at three
        w = elementary_weights(rk4).copy()
        w[8] = np.nan
        monkeypatch.setattr(order_conditions, "elementary_weights", lambda t: w)
        assert effective_order(rk4) == 3

    @pytest.mark.parametrize("spec", [EffectiveOrderSpec(3, 2), EffectiveOrderSpec(4, 3)])
    def test_recover_starting_weights_rejects_nan(self, rk4, spec):
        w = elementary_weights(rk4).copy()
        w[2] = np.nan
        with pytest.raises(OrderConditionsInfeasible):
            recover_starting_weights(w, spec)

    def test_barrier_rejects_nan_weight(self, rk4):
        t = ButcherTableau(A=rk4.A, b=np.array([0.25, np.nan, 0.25, 0.5]))
        with pytest.raises(DomainError, match="positive"):
            order5_barrier_witness(t)

    def test_barrier_never_reads_nan_defect_as_zero(self, rk4):
        A = rk4.A.copy()
        A[2, 1] = np.nan
        wit = order5_barrier_witness(ButcherTableau(A=A, b=rk4.b))
        assert wit.conclusive
        assert "inconclusive" not in wit.note


class TestBarrier:
    def test_conclusive_for_classical_rk4(self, rk4):
        wit = order5_barrier_witness(rk4)
        assert wit.conclusive
        assert wit.jensen_gap == pytest.approx(-1 / 96, abs=1e-15)
        assert np.allclose(wit.stage_defect, [0, 1 / 8, -1 / 8, 0], atol=1e-15)

    def test_inconclusive_when_defect_vanishes(self, forward_euler):
        wit = order5_barrier_witness(forward_euler)
        assert not wit.conclusive
        assert "inconclusive" in wit.note

    def test_requires_positive_weights(self):
        from essprk.tableau import ButcherTableau

        A = np.zeros((2, 2))
        A[1, 0] = 1.0
        t = ButcherTableau(A=A, b=np.array([1.5, -0.5]))
        with pytest.raises(DomainError, match="positive"):
            order5_barrier_witness(t)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(2, 6))
    def test_positive_weight_methods_never_reach_order_five(self, seed, s):
        t = make_random_tableau(np.random.default_rng(seed), s)
        assert effective_order(t) < 5
