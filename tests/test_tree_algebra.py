"""The generated tree algebra against the hand-written formulas it replaced.

The ``reference_*`` functions below are the closed forms that
``essprk.order_conditions`` and ``essprk.optimizer`` once spelled out term
by term.  They stay here as independent oracles: the weights and their
Jacobian must match them bit for bit, the targets built from the Butcher
product, the eliminated (q, p) conditions and the starting weights to
rounding, and the effective-order gates verdict for verdict.
"""

import numpy as np
import pytest

from essprk.errors import DomainError
from essprk.methods import catalog, family_n2p1
from essprk.order_conditions import (
    N_TREES,
    TREE_DENSITY,
    TREE_ORDER,
    EffectiveOrderSpec,
    StartingWeights,
    _elimination,
    _pack_dim,
    _residual_jacobian,
    _tangents,
    _unpack,
    _weights_jacobian,
    butcher_inverse,
    butcher_product,
    check_companions,
    classical_order,
    conjugacy_residuals,
    effective_order,
    effective_order_residuals,
    elementary_weights,
    recover_starting_weights,
    resolve_free_weights,
    start_stop_targets,
)
from essprk.tableau import ButcherTableau, shu_osher_to_butcher

from conftest import make_random_tableau

EXACT = np.r_[1.0, 1.0 / TREE_DENSITY[1:]]


def reference_elementary_weights(tableau):
    A, b, c = tableau.A, tableau.b, tableau.c
    c2 = c * c
    c3 = c2 * c
    Ac = A @ c
    AAc = A @ Ac
    Ac2 = A @ c2
    return np.array(
        [
            1.0, b.sum(), b @ c, b @ c2, b @ Ac, b @ c3, b @ (c * Ac), b @ Ac2,
            b @ AAc, b @ (c2 * c2), b @ (c2 * Ac), b @ (c * Ac2), b @ (c * AAc),
            b @ (Ac * Ac), b @ (A @ c3), b @ (A @ (c * Ac)), b @ (A @ Ac2),
            b @ (A @ AAc),
        ]
    )


def reference_weights_jacobian(A, b):
    dA, db = _tangents(b.size)
    n, s = db.shape

    def Am(u):
        return A @ u[0], dA @ u[0] + u[1] @ A.T

    def mul(u, v):
        return u[0] * v[0], u[1] * v[0] + u[0] * v[1]

    one = (np.ones(s), np.zeros((n, s)))
    c = Am(one)
    c2 = mul(c, c)
    c3 = mul(c2, c)
    Ac, Ac2 = Am(c), Am(c2)
    AAc = Am(Ac)
    cAc = mul(c, Ac)
    terms = [
        one, c, c2, Ac, c3, cAc, Ac2, AAc, mul(c2, c2), mul(c2, Ac),
        mul(c, Ac2), mul(c, AAc), mul(Ac, Ac), Am(c3), Am(cAc), Am(Ac2), Am(AAc),
    ]
    J = np.zeros((N_TREES, n))
    for i, (u, du) in enumerate(terms, start=1):
        J[i] = db @ u + du @ b
    return J


def reference_start_stop_values(w, v):
    a1, a2 = w[1], w[2]
    b2, b3, b4, b5, b6, b7, b8 = v[2:9]
    start = np.array(
        [
            1.0,
            w[1],
            w[2] + b2,
            w[3] + b3,
            w[4] + a1 * b2 + b4,
            w[5] + b5,
            w[6] + a2 * b2 + b6,
            w[7] + a1 * b3 + b7,
            w[8] + a1 * b4 + a2 * b2 + b8,
        ]
    )
    stop = np.array(
        [
            1.0,
            w[1],
            w[2] - b2,
            w[3] - 2.0 * a1 * b2 - b3,
            w[4] - a1 * b2 - b4,
            w[5] - 3.0 * a1 * a1 * b2 - 3.0 * a1 * b3 - b5,
            w[6] - (a1 * a1 + a2 - b2) * b2 - a1 * b3 - a1 * b4 - b6,
            w[7] - 2.0 * a1 * b4 - a1 * a1 * b2 - b7,
            w[8] - a1 * b4 - a2 * b2 + b2 * b2 - b8,
        ]
    )
    return start, stop


def reference_conjugacy_targets(v):
    b2, b3, b4, b5, b6, b7, b8 = v[2:9]
    b2sq = b2 * b2
    return np.array(
        [
            1.0,
            1.0,
            0.5,
            1.0 / 3.0 + 2.0 * b2,
            1.0 / 6.0,
            0.25 + 3.0 * b2 + 3.0 * b3,
            0.125 + b2 + b3 + b4,
            1.0 / 12.0 + b2 - b3 + 2.0 * b4,
            1.0 / 24.0,
            0.2 + 4.0 * b2 + 6.0 * b3 + 4.0 * b5,
            0.1 + 5.0 / 3.0 * b2 - 2.0 * b2sq + 2.5 * b3 + b4 + b5 + 2.0 * b6,
            1.0 / 15.0 + 4.0 / 3.0 * b2 + 0.5 * b3 + 2.0 * b4 + 2.0 * b6 + b7,
            1.0 / 30.0 + b2 / 3.0 - 2.0 * b2sq + 0.5 * b3 + 0.5 * b4 + b6 + b8,
            0.05 + 2.0 / 3.0 * b2 - b2sq + b3 + b4 + 2.0 * b6,
            0.05 + b2 + 3.0 * b4 - b5 + 3.0 * b7,
            0.025 + b2 / 3.0 + 1.5 * b4 - b6 + b7 + b8,
            1.0 / 60.0 + b2 / 3.0 - 0.5 * b3 + b4 - b7 + 2.0 * b8,
            1.0 / 120.0,
        ]
    )


def reference_effective_order(tableau, tol):
    if not (np.isfinite(tableau.A).all() and np.isfinite(tableau.b).all()):
        return 0
    w = reference_elementary_weights(tableau)
    b2 = -1.0 / 6.0 + 0.5 * w[3]
    b2sq = b2 * b2
    gates = [
        [w[1] - 1.0],
        [w[2] - 0.5],
        [w[4] - 1.0 / 6.0],
        [w[8] - 1.0 / 24.0, 0.25 - w[3] + w[5] - 2.0 * w[6] + w[7]],
        [
            w[17] - 1.0 / 120.0,
            0.25 * w[9] - w[10] + w[13] - b2sq,
            0.3 - 1.5 * w[3] + w[5] + 0.5 * w[9] - 3.0 * w[10] + 3.0 * w[11]
            - w[14] - 6.0 * b2sq,
            1.0 / 15.0 - 0.5 * w[3] + w[6] + 0.5 * w[9] - 2.0 * w[10] + w[11]
            + w[12] - w[15] - 2.0 * b2sq,
            19.0 / 60.0 - w[3] + w[5] - 2.0 * w[6] + w[11] - 2.0 * w[12]
            + w[16] - 4.0 * b2sq,
        ],
    ]
    order = 0
    for gate in gates:
        if not all(abs(g) <= tol for g in gate):
            break
        order += 1
    return order


def reference_effective_order_residuals(w, spec):
    """The (q, p) conditions with alpha eliminated, one closed form per row."""
    q, p = spec.q, spec.p
    res = [w[1] - 1.0, w[2] - 0.5]
    if p >= 3:
        res.append(w[3] - 1.0 / 3.0)
    res.append(w[4] - 1.0 / 6.0)
    if p >= 4:
        res += [w[5] - 0.25, w[6] - 0.125, w[7] - 1.0 / 12.0]
    if q >= 4:
        if p == 2:
            res.append(0.25 - w[3] + w[5] - 2.0 * w[6] + w[7])
        elif p == 3:
            res.append(1.0 / 12.0 - w[5] + 2.0 * w[6] - w[7])
        res.append(w[8] - 1.0 / 24.0)
    if q >= 5:
        res.append(w[17] - 1.0 / 120.0)
        if p == 2:
            b2 = -1.0 / 6.0 + 0.5 * w[3]
            b2sq = b2 * b2
            res += [
                0.25 * w[9] - w[10] + w[13] - b2sq,
                0.3 - 1.5 * w[3] + w[5] + 0.5 * w[9] - 3.0 * w[10]
                + 3.0 * w[11] - w[14] - 6.0 * b2sq,
                1.0 / 15.0 - 0.5 * w[3] + w[6] + 0.5 * w[9] - 2.0 * w[10]
                + w[11] + w[12] - w[15] - 2.0 * b2sq,
                19.0 / 60.0 - w[3] + w[5] - 2.0 * w[6] + w[11] - 2.0 * w[12]
                + w[16] - 4.0 * b2sq,
            ]
        elif p == 3:
            res += [
                0.25 * w[9] - w[10] + w[13],
                0.2 - w[5] - 0.5 * w[9] + 3.0 * w[10] - 3.0 * w[11] + w[14],
                0.1 - w[6] - 0.5 * w[9] + 2.0 * w[10] - w[11] - w[12] + w[15],
                1.0 / 60.0 - w[5] + 2.0 * w[6] - w[11] + 2.0 * w[12] - w[16],
            ]
        else:
            res += [
                0.25 * w[9] - w[10] + w[13],
                0.05 + 0.5 * w[9] - 3.0 * w[10] + 3.0 * w[11] - w[14],
                0.025 + 0.5 * w[9] - 2.0 * w[10] + w[11] + w[12] - w[15],
                1.0 / 60.0 - w[11] + 2.0 * w[12] - w[16],
            ]
    return np.array(res)


def reference_recover_starting_weights(w, spec):
    """The nine starting weights for (q, p), NaN in the free slots."""
    q, p = spec.q, spec.p
    order = TREE_ORDER[:9]
    v = np.full(9, np.nan)
    v[0] = 1.0
    v[1] = 0.0
    v[2] = 0.0 if p >= 3 else -1.0 / 6.0 + 0.5 * w[3]
    v[order > q] = 0.0
    if q >= 4:
        if p == 2:
            v[3] = 1.0 / 12.0 - 0.5 * w[3] + w[5] / 3.0
        else:
            v[3] = -1.0 / 12.0 + w[5] / 3.0
        v[4] = -1.0 / 24.0 - w[5] / 3.0 + w[6]
    if q == 5:
        b2sq = v[2] * v[2]
        if p == 2:
            v[5] = -1.0 / 120.0 + 0.25 * w[3] - 0.5 * w[5] + 0.25 * w[9]
            v[6] = (
                7.0 / 720.0 + b2sq + w[3] / 12.0 - 0.5 * w[6]
                - 0.125 * w[9] + 0.5 * w[10]
            )
            v[7] = (
                8.0 / 45.0 - 2.0 * b2sq - 7.0 / 12.0 * w[3] + 0.5 * w[5]
                - w[6] + 0.25 * w[9] - w[10] + w[11]
            )
        elif p == 3:
            v[5] = 3.0 / 40.0 - 0.5 * w[5] + 0.25 * w[9]
            v[6] = 3.0 / 80.0 - 0.5 * w[6] - 0.125 * w[9] + 0.5 * w[10]
            v[7] = -1.0 / 60.0 + 0.5 * w[5] - w[6] + 0.25 * w[9] - w[10] + w[11]
        else:
            v[5] = -0.05 + 0.25 * w[9]
            v[6] = -0.025 - 0.125 * w[9] + 0.5 * w[10]
            v[7] = -1.0 / 60.0 + 0.25 * w[9] - w[10] + w[11]
        v[8] = -1.0 / 120.0 + b2sq + 0.125 * w[9] - 0.5 * w[10] + w[12]
    return v


def catalog_tableaux():
    out = []
    for entry in catalog():
        out += [t for t in (entry.main, entry.start, entry.stop) if t is not None]
    for n in (3, 4, 5):
        for branch in ("plus", "minus"):
            out.append(shu_osher_to_butcher(family_n2p1(n, branch)))
    return out


def random_tableaux(count, seed):
    rng = np.random.default_rng(seed)
    out = []
    for k in range(count):
        s = int(rng.integers(1, 18))
        out.append(
            ButcherTableau(A=np.tril(rng.normal(size=(s, s)), -1), b=rng.normal(size=s))
        )
    return out


def random_weights(rng):
    w = rng.normal(size=N_TREES)
    w[0] = 1.0
    return w


def random_starting(rng):
    v = rng.normal(size=9)
    v[0], v[1] = 1.0, 0.0
    return StartingWeights(v)


def assert_close(actual, expected):
    # 1e-14 absolute, relative for the entries above one in size
    np.testing.assert_allclose(actual, expected, rtol=1e-14, atol=1e-14)


def composed(first, second):
    """Tableau of one step of ``first`` followed by one step of ``second``."""
    s, t = first.s, second.s
    A = np.zeros((s + t, s + t))
    A[:s, :s] = first.A
    A[s:, :s] = first.b
    A[s:, s:] = second.A
    return ButcherTableau(A=A, b=np.r_[first.b, second.b])


class TestTreeTable:
    def test_tables_are_derived_unchanged(self):
        assert TREE_ORDER.tolist() == [0, 1, 2, 3, 3, 4, 4, 4, 4] + [5] * 9
        assert TREE_DENSITY.tolist() == [
            0, 1, 2, 3, 6, 4, 8, 12, 24, 5, 10, 15, 30, 20, 20, 40, 60, 120,
        ]
        assert not TREE_ORDER.flags.writeable

    def test_weights_bit_for_bit(self):
        tableaux = catalog_tableaux() + random_tableaux(500, 7)
        tableaux += [make_random_tableau(np.random.default_rng(k), 1 + k % 17)
                     for k in range(200)]
        for t in tableaux:
            w = elementary_weights(t)
            assert np.array_equal(w, reference_elementary_weights(t)), t.s

    def test_weights_do_not_depend_on_the_layout_of_A(self):
        rng = np.random.default_rng(14)
        for k in range(200):
            s = 1 + k % 17
            A, b = np.tril(rng.normal(size=(s, s)), -1), rng.normal(size=s)
            c_layout = ButcherTableau(A=np.ascontiguousarray(A), b=b)
            f_layout = ButcherTableau(A=np.asfortranarray(A), b=b)
            assert c_layout.A.flags.c_contiguous and f_layout.A.flags.c_contiguous
            assert (elementary_weights(c_layout).tobytes()
                    == elementary_weights(f_layout).tobytes())

    @pytest.mark.parametrize("s", [1, 2, 3, 5, 8, 17])
    def test_jacobian_bit_for_bit(self, s):
        rng = np.random.default_rng(s)
        for _ in range(20):
            A, b = _unpack(rng.normal(size=_pack_dim(s)), s)
            assert np.array_equal(
                _weights_jacobian(A, b), reference_weights_jacobian(A, b)
            )

    @pytest.mark.parametrize("s", [2, 4, 6])
    def test_jacobian_against_central_differences(self, s):
        x = np.random.default_rng(s).normal(size=_pack_dim(s))

        def weights(y):
            A, b = _unpack(y, s)
            return elementary_weights(ButcherTableau(A=A, b=b))

        h = 1e-6
        fd = np.stack(
            [(weights(x + h * e) - weights(x - h * e)) / (2 * h)
             for e in np.eye(x.size)],
            axis=1,
        )
        np.testing.assert_allclose(_weights_jacobian(*_unpack(x, s)), fd,
                                   rtol=1e-6, atol=1e-6)


class TestButcherProduct:
    def test_composition_of_methods(self):
        # the weights of "first, then second" are those of the two-step tableau
        rng = np.random.default_rng(3)
        for _ in range(50):
            first, second = (
                make_random_tableau(rng, int(rng.integers(1, 6)), nonnegative=False)
                for _ in range(2)
            )
            assert_close(
                butcher_product(elementary_weights(first), elementary_weights(second)),
                elementary_weights(composed(first, second)),
            )

    def test_exact_flow_composes_with_itself(self):
        # two half steps of the exact flow are one whole step
        half = EXACT * 0.5 ** TREE_ORDER
        assert_close(butcher_product(half, half), EXACT)

    def test_inverse_on_both_sides(self):
        rng = np.random.default_rng(4)
        identity = np.eye(N_TREES)[0]
        for _ in range(100):
            a = random_weights(rng)
            inverse = butcher_inverse(a)
            # the zeros come from cancelling terms of size up to about 100
            for product in (butcher_product(a, inverse), butcher_product(inverse, a)):
                np.testing.assert_allclose(product, identity, atol=1e-12)

    def test_associative(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            a, b, c = (random_weights(rng) for _ in range(3))
            assert_close(
                butcher_product(butcher_product(a, b), c),
                butcher_product(a, butcher_product(b, c)),
            )

    def test_results_read_only(self):
        a = random_weights(np.random.default_rng(6))
        for out in (butcher_product(a, a), butcher_inverse(a)):
            with pytest.raises(ValueError):
                out[1] = 0.0

    @pytest.mark.parametrize("bad", [np.ones(9), np.ones(19), np.ones((2, 18))])
    def test_wrong_length_rejected(self, bad):
        good = np.ones(N_TREES)
        with pytest.raises(DomainError, match="length-18"):
            butcher_product(bad, good)
        with pytest.raises(DomainError, match="length-18"):
            butcher_product(good, bad)
        with pytest.raises(DomainError, match="length-18"):
            butcher_inverse(bad)

    def test_empty_tree_weight_must_be_one(self):
        a = np.ones(N_TREES)
        a[0] = 0.5
        with pytest.raises(DomainError, match="empty tree"):
            butcher_product(a, np.ones(N_TREES))
        with pytest.raises(DomainError, match="empty tree"):
            butcher_inverse(a)


class TestTargetsAgainstClosedForms:
    def test_start_stop_targets(self):
        rng = np.random.default_rng(8)
        for _ in range(2000):
            w, starting = random_weights(rng), random_starting(rng)
            start, stop = start_stop_targets(w, starting)
            ref_start, ref_stop = reference_start_stop_values(w, starting.values)
            assert_close(start, ref_start)
            assert_close(stop, ref_stop)

    def test_conjugacy_targets(self):
        rng = np.random.default_rng(9)
        for _ in range(2000):
            w, starting = random_weights(rng), random_starting(rng)
            target = reference_conjugacy_targets(starting.values)
            for q in range(1, 6):
                keep = (TREE_ORDER >= 1) & (TREE_ORDER <= q)
                expected = np.where(keep, w - target, 0.0)
                assert_close(conjugacy_residuals(w, starting, q), expected)

    def test_resolve_free_weights(self):
        rng = np.random.default_rng(10)
        for free in [(3, 4), (5, 6, 7, 8)]:
            for _ in range(200):
                w, ws = random_weights(rng), random_weights(rng)
                v = random_starting(rng).values.copy()
                v[list(free)] = np.nan
                resolved = resolve_free_weights(w, StartingWeights(v, free), ws)
                v[list(free)] = 0.0
                base, _ = reference_start_stop_values(w, v)
                assert_close(resolved.values[list(free)], ws[list(free)] - base[list(free)])


class TestEffectiveOrderGates:
    @pytest.mark.parametrize("tol", [1e-14, 1e-10, 1e-3])
    def test_same_verdict_as_hand_gates(self, tol):
        tableaux = catalog_tableaux() + random_tableaux(1000, 11)
        rng = np.random.default_rng(12)
        tableaux += [make_random_tableau(rng, int(rng.integers(1, 7)))
                     for _ in range(1000)]
        for t in tableaux:
            assert int(effective_order(t, tol)) == reference_effective_order(t, tol)


class TestFreeSlots:
    """A free slot t reaches row t alone through order q, on both sides."""

    @staticmethod
    def moves(q, free):
        # (slot, start move, stop move) on the rows through order q when
        # one free slot goes from 0 to 1, over random weights
        rng = np.random.default_rng(q)
        rows = (TREE_ORDER[:9] >= 1) & (TREE_ORDER[:9] <= q)
        for _ in range(20):
            w = random_weights(rng)
            v = random_starting(rng).values.copy()
            v[list(free)] = 0.0
            base = start_stop_targets(w, StartingWeights(v))
            for slot in free:
                bumped = v.copy()
                bumped[slot] = 1.0
                moved = start_stop_targets(w, StartingWeights(bumped))
                yield slot, *((m - b)[rows] for m, b in zip(moved, base))

    @pytest.mark.parametrize("q,free", [(3, (3, 4)), (4, (5, 6, 7, 8))])
    def test_each_free_slot_enters_one_start_row_with_unit_coefficient(self, q, free):
        rows = (TREE_ORDER[:9] >= 1) & (TREE_ORDER[:9] <= q)
        for slot, start, _ in self.moves(q, free):
            np.testing.assert_allclose(start, np.eye(9)[slot][rows], atol=1e-12)

    @pytest.mark.parametrize("q,free", [(3, (3, 4)), (4, (5, 6, 7, 8))])
    def test_each_free_slot_enters_one_stop_row_with_coefficient_minus_one(
        self, q, free
    ):
        rows = (TREE_ORDER[:9] >= 1) & (TREE_ORDER[:9] <= q)
        for slot, _, stop in self.moves(q, free):
            np.testing.assert_allclose(stop, -np.eye(9)[slot][rows], atol=1e-12)


# row k of reference_effective_order_residuals at (q, p) is sign times the
# generated row, and the conjugacy residual, at tree |PINNED[(q, p)][k]|
PINNED = {
    (3, 2): (1, 2, 4),
    (4, 2): (1, 2, 4, 7, 8),
    (4, 3): (1, 2, 3, 4, -7, 8),
    (5, 2): (1, 2, 4, 7, 8, 17, 13, -14, -15, 16),
    (5, 3): (1, 2, 3, 4, -7, 8, 17, 13, 14, 15, -16),
    (5, 4): (1, 2, 3, 4, 5, 6, 7, 8, 17, 13, -14, -15, -16),
}


def with_classical_weights(w, p):
    """w with every weight of order at most p set to the exact flow's."""
    w = w.copy()
    classical = (TREE_ORDER >= 1) & (TREE_ORDER <= p)
    w[classical] = EXACT[classical]
    return w


class TestClosedFormsPinnedToProduct:
    @pytest.mark.parametrize("q,p", sorted(PINNED))
    def test_elimination_matches_conjugacy(self, q, p):
        # the residual rows are w - alpha^-1.E.alpha at their trees, with
        # alpha solved so that the conjugacy residuals of the others vanish
        spec = EffectiveOrderSpec(q, p)
        rng = np.random.default_rng(10 * q + p)
        trees = _elimination(q, p)[0]
        assert trees.tolist() == sorted(np.abs(PINNED[(q, p)]))
        fixing = [
            t for t in range(1, N_TREES) if TREE_ORDER[t] <= q and t not in trees
        ]
        for _ in range(200):
            w = with_classical_weights(random_weights(rng), p)
            starting = recover_starting_weights(w, spec, tol=np.inf)
            starting = starting.fill(rng.normal(size=len(starting.free)))
            conj = conjugacy_residuals(w, starting, q)
            assert np.max(np.abs(conj[fixing])) <= 1e-13
            np.testing.assert_allclose(
                conj[trees], effective_order_residuals(w, spec),
                rtol=1e-13, atol=1e-13,
            )


class TestEliminationAgainstClosedForms:
    @pytest.mark.parametrize("classical", [False, True], ids=["raw", "classical"])
    @pytest.mark.parametrize("q,p", sorted(PINNED))
    def test_rows_match_hand_rows(self, q, p, classical):
        spec = EffectiveOrderSpec(q, p)
        pinned = np.array(PINNED[(q, p)])
        rows = np.searchsorted(_elimination(q, p)[0], np.abs(pinned))
        rng = np.random.default_rng(100 + 10 * q + p)
        for _ in range(500):
            w = random_weights(rng)
            if classical:
                w = with_classical_weights(w, p)
            np.testing.assert_allclose(
                np.sign(pinned) * effective_order_residuals(w, spec)[rows],
                reference_effective_order_residuals(w, spec),
                rtol=1e-13, atol=1e-13,
            )

    @pytest.mark.parametrize("q,p", sorted(PINNED))
    def test_starting_weights_match_hand_forms(self, q, p):
        spec = EffectiveOrderSpec(q, p)
        rng = np.random.default_rng(200 + 10 * q + p)
        for _ in range(500):
            w = with_classical_weights(random_weights(rng), p)
            starting = recover_starting_weights(w, spec, tol=np.inf)
            assert starting.free == tuple(np.flatnonzero(TREE_ORDER[:9] == q))
            np.testing.assert_allclose(
                starting.values, reference_recover_starting_weights(w, spec),
                rtol=1e-13, atol=1e-13,
            )

    def test_starting_weights_below_classical_order_are_zero(self):
        # at (5, 4) alpha of order three is 0 exactly; the closed forms read
        # it off w(5) and w(6), which is 0 only once they are exact
        rng = np.random.default_rng(13)
        for _ in range(100):
            starting = recover_starting_weights(
                random_weights(rng), EffectiveOrderSpec(5, 4), tol=np.inf
            )
            assert starting.values[2:5].tolist() == [0.0, 0.0, 0.0]

    def test_gate_orders(self):
        assert TREE_ORDER[_elimination(5, 2)[0]].tolist() == [
            1, 2, 3, 4, 4, 5, 5, 5, 5, 5,
        ]

    def test_non_finite_weight_reaches_only_its_rows(self):
        w = with_classical_weights(np.zeros(N_TREES), 2)
        w[17] = np.inf
        res = effective_order_residuals(w, EffectiveOrderSpec(5, 2))
        assert np.isinf(res[-1])
        assert np.isfinite(res[:-1]).all()

    @pytest.mark.parametrize("q,p", sorted(PINNED))
    def test_residual_jacobian_is_exact(self, q, p):
        # the residuals are at most quadratic in w, so a central difference
        # with unit step is exact up to rounding
        spec = EffectiveOrderSpec(q, p)
        rng = np.random.default_rng(300 + 10 * q + p)
        for _ in range(50):
            w = random_weights(rng)
            diff = np.stack(
                [0.5 * (reference_effective_order_residuals(w + e, spec)
                        - reference_effective_order_residuals(w - e, spec))
                 for e in np.eye(N_TREES)],
                axis=1,
            )
            diff[:, 0] = 0.0
            rows = np.searchsorted(_elimination(q, p)[0], np.abs(PINNED[(q, p)]))
            signs = np.sign(PINNED[(q, p)])[:, None]
            np.testing.assert_allclose(
                signs * _residual_jacobian(w, spec)[rows], diff,
                rtol=1e-12, atol=1e-12,
            )


class TestCheckCompanions:
    def test_catalog_companions_hit_their_targets(self):
        for entry in catalog():
            if entry.start is not None:
                check_companions(entry.main, entry.start, entry.stop, entry.q)

    def test_nan_weight_fails(self):
        entry = next(e for e in catalog() if e.start is not None)
        b = entry.stop.b.copy()
        b[-1] = np.nan
        stop = ButcherTableau(A=entry.stop.A, b=b)
        with pytest.raises(DomainError, match="target"):
            check_companions(entry.main, entry.start, stop, entry.q)

    def test_swapped_companions_miss(self):
        entry = next(e for e in catalog() if e.label == "ESSPRK(4,4,2)")
        with pytest.raises(DomainError, match="target"):
            check_companions(entry.main, entry.stop, entry.start, 4)

    @pytest.mark.parametrize("q", [2, 5])
    def test_orders_outside_three_and_four_rejected(self, q):
        entry = next(e for e in catalog() if e.start is not None)
        with pytest.raises(DomainError, match="3 and 4"):
            check_companions(entry.main, entry.start, entry.stop, q)

    def test_uses_the_main_methods_classical_order(self):
        entry = next(e for e in catalog() if e.label == "ESSPRK(4,4,3)")
        assert int(classical_order(entry.main)) == 3
        check_companions(entry.main, entry.start, entry.stop, 4)


def test_resolve_free_weights_rejects_wrong_length():
    t = shu_osher_to_butcher(family_n2p1(3))
    w = elementary_weights(t)
    starting = recover_starting_weights(w, EffectiveOrderSpec(4, 2))
    resolved = starting.fill(np.zeros(len(starting.free)))
    for sw in (starting, resolved):
        with pytest.raises(DomainError, match="length-18"):
            resolve_free_weights(w[:9], sw, w)
        with pytest.raises(DomainError, match="length-18"):
            resolve_free_weights(w, sw, w[:9])
