"""Rooted-tree order conditions for explicit Runge-Kutta methods.

Everything here works over a fixed set of 18 rooted trees, enough to decide
order of accuracy through five.  Index 0 is the empty tree; indices 1..17
enumerate the trees of order one through five.  For a tableau (A, b) with
abscissae c the elementary weight of each tree is a scalar built from b, A
and componentwise powers of c:

    idx  order  weight           idx  order  weight
     1     1    sum(b)            9     5    b.c^4
     2     2    b.c              10     5    b.(c^2*Ac)
     3     3    b.c^2            11     5    b.(c*Ac^2)
     4     3    b.Ac             12     5    b.(c*A(Ac))
     5     4    b.c^3            13     5    b.(Ac)^2  (dot of Ac with Ac)
     6     4    b.(c*Ac)         14     5    b.A(c^3)
     7     4    b.Ac^2           15     5    b.A(c*Ac)
     8     4    b.A(Ac)          16     5    b.A(Ac^2)
                                 17     5    b.A(A(Ac))

A method has classical order p when its weights match 1/density for every
tree of order at most p.  It has *effective* order q when a one-off
preparation step exists whose composition with the method raises the
accuracy to q: weights then need only match a conjugated target.  The
conditions below express that target through the elementary weights of the
preparation step (the "starting weights"), following a normalization that
pins the order-one starting weight to zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, OrderConditionsInfeasible
from .tableau import ButcherTableau

__all__ = [
    "TREE_ORDER",
    "TREE_DENSITY",
    "N_TREES",
    "OrderEstimate",
    "EffectiveOrderSpec",
    "StartingWeights",
    "BarrierWitness",
    "elementary_weights",
    "classical_order",
    "effective_order",
    "effective_order_residuals",
    "recover_starting_weights",
    "start_stop_targets",
    "conjugacy_residuals",
    "resolve_free_weights",
    "order5_barrier_witness",
    "DEFAULT_ORDER_TOL",
]

N_TREES = 18

# order (number of nodes) of each tree; index 0 is the empty-tree sentinel
TREE_ORDER = np.array([0, 1, 2, 3, 3, 4, 4, 4, 4, 5, 5, 5, 5, 5, 5, 5, 5, 5])
TREE_ORDER.flags.writeable = False

# density of each tree; the exact flow has weight 1/density on every tree
TREE_DENSITY = np.array(
    [0, 1, 2, 3, 6, 4, 8, 12, 24, 5, 10, 15, 30, 20, 20, 40, 60, 120]
)
TREE_DENSITY.flags.writeable = False

DEFAULT_ORDER_TOL = 1e-10

_VALID_ORDER_PAIRS = {(3, 2), (4, 2), (4, 3), (5, 2), (5, 3), (5, 4)}


class OrderEstimate(int):
    """Order of accuracy as an int, with a cap flag.

    The check only covers trees through order five, so a result of 5 means
    "at least five".  ``saturated`` is True exactly in that case.
    """

    saturated: bool

    def __new__(cls, value: int, saturated: bool = False) -> "OrderEstimate":
        self = super().__new__(cls, value)
        self.saturated = bool(saturated)
        return self

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.saturated:
            return f"OrderEstimate(>= {int(self)})"
        return f"OrderEstimate({int(self)})"


@dataclass(frozen=True)
class EffectiveOrderSpec:
    """Target pair (q, p): effective order q with classical order p.

    Only the attainable combinations with 2 <= p < q <= 5 are accepted.
    """

    q: int
    p: int

    def __post_init__(self) -> None:
        if (self.q, self.p) not in _VALID_ORDER_PAIRS:
            raise DomainError(
                f"unsupported order pair (q={self.q}, p={self.p}); "
                f"expected one of {sorted(_VALID_ORDER_PAIRS)}"
            )


@dataclass(frozen=True, eq=False)
class StartingWeights:
    """Elementary weights of the preparation (starting) perturbation.

    ``values`` has length 9: index 0 carries the empty-tree weight (always 1)
    and indices 1..8 the weights of the trees through order four.  Index 1 is
    pinned to zero by normalization.  Entries the main method does not
    determine are listed in ``free`` and stored as NaN so they can never be
    consumed silently; fill them with :meth:`fill` once chosen.
    """

    values: np.ndarray
    free: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        v = np.array(self.values, dtype=float)
        if v.shape != (9,):
            raise DomainError(f"starting weights must have length 9, got {v.shape}")
        if v[0] != 1.0:
            raise DomainError("starting weight 0 (empty tree) must be 1")
        if v[1] != 0.0:
            raise DomainError("starting weight 1 must be 0 (normalization)")
        free = tuple(int(i) for i in self.free)
        if any(i < 2 or i > 8 for i in free):
            raise DomainError(f"free slots must lie in 2..8, got {free}")
        fixed = np.ones(9, dtype=bool)
        fixed[list(free)] = False
        if not np.isfinite(v[fixed]).all():
            raise DomainError("starting weights contain NaN outside declared free slots")
        v.flags.writeable = False
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "free", free)

    def fill(self, free_values) -> "StartingWeights":
        """Return a copy with the free slots set to ``free_values`` (in order)."""
        free_values = np.atleast_1d(np.asarray(free_values, dtype=float))
        if free_values.shape != (len(self.free),):
            raise DomainError(
                f"expected {len(self.free)} free values, got {free_values.shape}"
            )
        v = np.array(self.values)
        v[list(self.free)] = free_values
        return StartingWeights(v, ())


def elementary_weights(tableau: ButcherTableau) -> np.ndarray:
    """All 18 elementary weights of a tableau, as a read-only vector."""
    A = tableau.A
    b = tableau.b
    c = tableau.c
    c2 = c * c
    c3 = c2 * c
    Ac = A @ c
    AAc = A @ Ac
    Ac2 = A @ c2
    w = np.array(
        [
            1.0,
            b.sum(),
            b @ c,
            b @ c2,
            b @ Ac,
            b @ c3,
            b @ (c * Ac),
            b @ Ac2,
            b @ AAc,
            b @ (c2 * c2),
            b @ (c2 * Ac),
            b @ (c * Ac2),
            b @ (c * AAc),
            b @ (Ac * Ac),
            b @ (A @ c3),
            b @ (A @ (c * Ac)),
            b @ (A @ Ac2),
            b @ (A @ AAc),
        ]
    )
    w.flags.writeable = False
    return w


def _finite(tableau: ButcherTableau) -> bool:
    return bool(np.isfinite(tableau.A).all() and np.isfinite(tableau.b).all())


def classical_order(
    tableau: ButcherTableau, tol: float = DEFAULT_ORDER_TOL
) -> OrderEstimate:
    """Largest p <= 5 with every weight of order <= p matching the exact flow.

    Returns an :class:`OrderEstimate`; ``saturated`` marks that all checked
    conditions passed, so the true order may exceed five.  A tableau with a
    non-finite entry has order 0.
    """
    if not _finite(tableau):
        return OrderEstimate(0)
    w = elementary_weights(tableau)
    target = np.zeros(N_TREES)
    target[1:] = 1.0 / TREE_DENSITY[1:]
    ok = np.abs(w - target) <= tol
    order = 0
    for p in range(1, 6):
        if not ok[TREE_ORDER == p].all():
            break
        order = p
    return OrderEstimate(order, saturated=(order == 5))


def _second_weight_from_third_tree(w3: float) -> float:
    # order-two starting weight implied when the classical order stops at two
    return -1.0 / 6.0 + 0.5 * w3


def effective_order_residuals(
    weights: np.ndarray, spec: EffectiveOrderSpec
) -> np.ndarray:
    """Left-minus-right residuals of the main-method conditions for (q, p).

    ``weights`` is a length-18 elementary-weight vector.  The result is zero
    (to tolerance) exactly when the method has effective order q with
    classical order p.  For q = 5 with p = 2 the implied order-two starting
    weight is substituted before evaluating the quadratic terms.
    """
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_TREES,):
        raise DomainError(f"expected a length-{N_TREES} weight vector, got {w.shape}")
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
            b2 = _second_weight_from_third_tree(w[3])
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
        else:  # p == 4
            res += [
                0.25 * w[9] - w[10] + w[13],
                0.05 + 0.5 * w[9] - 3.0 * w[10] + 3.0 * w[11] - w[14],
                0.025 + 0.5 * w[9] - 2.0 * w[10] + w[11] + w[12] - w[15],
                1.0 / 60.0 - w[11] + 2.0 * w[12] - w[16],
            ]
    out = np.array(res)
    out.flags.writeable = False
    return out


def effective_order(
    tableau: ButcherTableau, tol: float = DEFAULT_ORDER_TOL
) -> OrderEstimate:
    """Largest q <= 5 for which some preparation step raises accuracy to q.

    Order one needs weight 1 on the single-node tree; two adds the order-two
    weight; three adds the chain-of-three weight; four adds the chain-of-four
    weight plus one combined condition; five adds the order-five chain and
    four combined conditions quadratic in the implied order-two starting
    weight.  Classical order conditions imply these, never the reverse.
    A tableau with a non-finite entry has effective order 0.
    """
    if not _finite(tableau):
        return OrderEstimate(0)
    w = elementary_weights(tableau)
    gates = [
        [w[1] - 1.0],
        [w[2] - 0.5],
        [w[4] - 1.0 / 6.0],
        [w[8] - 1.0 / 24.0, 0.25 - w[3] + w[5] - 2.0 * w[6] + w[7]],
    ]
    b2 = _second_weight_from_third_tree(w[3])
    b2sq = b2 * b2
    gates.append(
        [
            w[17] - 1.0 / 120.0,
            0.25 * w[9] - w[10] + w[13] - b2sq,
            0.3 - 1.5 * w[3] + w[5] + 0.5 * w[9] - 3.0 * w[10] + 3.0 * w[11]
            - w[14] - 6.0 * b2sq,
            1.0 / 15.0 - 0.5 * w[3] + w[6] + 0.5 * w[9] - 2.0 * w[10] + w[11]
            + w[12] - w[15] - 2.0 * b2sq,
            19.0 / 60.0 - w[3] + w[5] - 2.0 * w[6] + w[11] - 2.0 * w[12]
            + w[16] - 4.0 * b2sq,
        ]
    )
    order = 0
    for gate in gates:
        # written so that a NaN residual fails the gate
        if not all(abs(g) <= tol for g in gate):
            break
        order += 1
    return OrderEstimate(order, saturated=(order == 5))


def recover_starting_weights(
    weights: np.ndarray,
    spec: EffectiveOrderSpec,
    tol: float = DEFAULT_ORDER_TOL,
) -> StartingWeights:
    """Starting weights implied by a main method of effective order (q, p).

    Weights of order below q are forced by the main method and are filled in;
    weights of order q itself stay free (slots 3, 4 for q = 3 and 5..8 for
    q = 4) for the start/stop search to choose.  Raises when the main method
    does not satisfy the (q, p) conditions to ``tol``.
    """
    w = np.asarray(weights, dtype=float)
    res = effective_order_residuals(w, spec)
    worst = float(np.max(np.abs(res)))
    if not worst <= tol:
        raise OrderConditionsInfeasible(
            "main method does not satisfy effective order conditions "
            f"(worst residual {worst:.3e} for q={spec.q}, p={spec.p})",
            best_residuals=res,
        )
    q, p = spec.q, spec.p
    v = np.full(9, np.nan)
    v[0] = 1.0
    v[1] = 0.0
    v[2] = 0.0 if p >= 3 else _second_weight_from_third_tree(w[3])
    if q == 3:
        free = (3, 4)
        v[5:] = 0.0  # order-4 slots never enter an order-3 composite
    else:
        if p == 2:
            v[3] = 1.0 / 12.0 - 0.5 * w[3] + w[5] / 3.0
        else:
            v[3] = -1.0 / 12.0 + w[5] / 3.0
        v[4] = -1.0 / 24.0 - w[5] / 3.0 + w[6]
        free = (5, 6, 7, 8) if q == 4 else ()
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
            v[7] = (
                -1.0 / 60.0 + 0.5 * w[5] - w[6] + 0.25 * w[9] - w[10] + w[11]
            )
        else:  # p == 4
            v[5] = -0.05 + 0.25 * w[9]
            v[6] = -0.025 - 0.125 * w[9] + 0.5 * w[10]
            v[7] = -1.0 / 60.0 + 0.25 * w[9] - w[10] + w[11]
        v[8] = -1.0 / 120.0 + b2sq + 0.125 * w[9] - 0.5 * w[10] + w[12]
    return StartingWeights(v, free)


def _start_stop_values(w: np.ndarray, v: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # group-product formulas: start target = (perturbation then main),
    # stop target = (main then inverse perturbation); both through order four
    a1, a2 = w[1], w[2]
    b2, b3, b4, b5, b6, b7, b8 = v[2], v[3], v[4], v[5], v[6], v[7], v[8]
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
    start.flags.writeable = False
    stop.flags.writeable = False
    return start, stop


def start_stop_targets(
    weights: np.ndarray, starting: StartingWeights
) -> tuple[np.ndarray, np.ndarray]:
    """Target elementary weights for the starting and stopping methods.

    Given main-method weights and fully resolved starting weights, returns
    two length-9 vectors (indices 1..8; index 0 is the empty tree).  A
    starting method must hit the first, a stopping method the second, for
    the composite to run at the main method's effective order.
    """
    if starting.free:
        raise DomainError(
            f"starting weights still have free slots {starting.free}; "
            "fill them before forming targets"
        )
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_TREES,):
        raise DomainError(f"expected a length-{N_TREES} weight vector, got {w.shape}")
    return _start_stop_values(w, starting.values)


def conjugacy_residuals(
    weights: np.ndarray, starting: StartingWeights, q: int
) -> np.ndarray:
    """Residuals of the main weights against their conjugate-order targets.

    For every tree of order <= q the main-method weight must equal an
    expression in the starting weights; the returned vector holds weight
    minus expression, indexed like the tree table (entry 0 unused).  Only
    starting weights of order below q enter, so free slots of order q are
    never touched.
    """
    if not 1 <= q <= 5:
        raise DomainError(f"order must lie in 1..5, got {q}")
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_TREES,):
        raise DomainError(f"expected a length-{N_TREES} weight vector, got {w.shape}")
    v = starting.values
    b2, b3, b4, b5, b6, b7, b8 = v[2], v[3], v[4], v[5], v[6], v[7], v[8]
    b2sq = b2 * b2
    targets = np.array(
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
    keep = (TREE_ORDER >= 1) & (TREE_ORDER <= q)
    needed = [i for i in starting.free if TREE_ORDER[i] < q]
    if needed:
        raise DomainError(
            f"starting weights have unresolved slots {tuple(needed)} of order "
            f"below {q}"
        )
    out = np.zeros(N_TREES)
    out[keep] = w[keep] - targets[keep]
    out.flags.writeable = False
    return out


def resolve_free_weights(
    weights: np.ndarray,
    starting: StartingWeights,
    start_weights: np.ndarray,
) -> StartingWeights:
    """Fill free starting-weight slots from a concrete starting method.

    ``start_weights`` is the length-18 elementary-weight vector of the
    starting method.  Each free slot appears linearly, with unit coefficient,
    in exactly one start-target row, so the fill is a direct subtraction.
    """
    if not starting.free:
        return starting
    w = np.asarray(weights, dtype=float)
    ws = np.asarray(start_weights, dtype=float)
    if ws.shape != (N_TREES,):
        raise DomainError(
            f"expected a length-{N_TREES} weight vector for the starting method, "
            f"got {ws.shape}"
        )
    probe = np.array(starting.values)
    probe[list(starting.free)] = 0.0
    base, _ = _start_stop_values(w, probe)
    return starting.fill([ws[i] - base[i] for i in starting.free])


@dataclass(frozen=True, eq=False)
class BarrierWitness:
    """Certificate that effective order five is out of reach for a tableau.

    ``stage_defect`` is c^2/2 - A c, the residual of the stage-order-two
    identity.  With all-positive weights, effective order five forces both
    moments below to agree with a square, which the strict Jensen inequality
    forbids unless the defect vanishes identically.  ``conclusive`` is True
    when the defect is nonzero, so order five is excluded; a vanishing
    defect leaves the test silent.
    """

    stage_defect: np.ndarray
    weighted_mean: float
    weighted_square: float
    jensen_gap: float
    conclusive: bool
    note: str

    def __post_init__(self) -> None:
        v = np.array(self.stage_defect, dtype=float)
        v.flags.writeable = False
        object.__setattr__(self, "stage_defect", v)


def order5_barrier_witness(
    tableau: ButcherTableau, tol: float = 1e-12
) -> BarrierWitness:
    """Witness that a positive-weight tableau cannot reach effective order five.

    Requires every weight strictly positive.  The first stage of an explicit
    method always has zero defect, so any other nonzero component already
    makes the defect nonconstant and settles the question; the Jensen gap
    (mean squared minus mean of squares, under the weights) is reported as
    the quantitative version.
    """
    b = tableau.b
    if not np.all(b > 0.0):
        raise DomainError("barrier applies only to positive weights")
    c = tableau.c
    v = 0.5 * c * c - tableau.A @ c
    mean = float(b @ v)
    square = float(b @ (v * v))
    gap = mean * mean - square
    nonzero = not np.max(np.abs(v)) <= tol
    if nonzero:
        note = (
            "stage defect is nonzero, so these weights admit no effective "
            "order five"
        )
    else:
        note = "barrier inconclusive"
    return BarrierWitness(
        stage_defect=v,
        weighted_mean=mean,
        weighted_square=square,
        jensen_gap=gap,
        conclusive=nonzero,
        note=note,
    )
