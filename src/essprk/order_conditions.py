"""Rooted-tree order conditions for explicit Runge-Kutta methods.

Everything here works over one table of 18 rooted trees, enough to decide
order of accuracy through five.  Index 0 is the empty tree; every other
tree is the sorted tuple of its children's indices, and the table derives
orders, densities, elementary weights and their Jacobian in (A, b):

    idx  children   weight           idx  children   weight
     1   ()         sum(b)            9   (1,1,1,1)  b.(c^2*c^2)
     2   (1,)       b.c              10   (1,1,2)    b.(c^2*Ac)
     3   (1,1)      b.c^2            11   (1,3)      b.(c*Ac^2)
     4   (2,)       b.Ac             12   (1,4)      b.(c*A(Ac))
     5   (1,1,1)    b.c^3            13   (2,2)      b.(Ac)^2
     6   (1,2)      b.(c*Ac)         14   (5,)       b.A(c^3)
     7   (3,)       b.Ac^2           15   (6,)       b.A(c*Ac)
     8   (4,)       b.A(Ac)          16   (7,)       b.A(Ac^2)
                                     17   (8,)       b.A(A(Ac))

A method has classical order p when its weights match 1/density for every
tree of order at most p.  The table also compiles, at import, into the
Butcher product of B-series (Butcher 1969; Hairer, Lubich and Wanner,
*Geometric Numerical Integration*, III.1): the weights of "run a, then b"
are (a.b)(t) = sum of b(s) * prod a(u) over the rooted subtrees s of t,
empty and whole included, with u the trees cut away to leave s.  A method
Phi has *effective* order q when a preparation step alpha, whose weights
are the "starting weights" (order-one weight pinned to zero), makes
alpha.Phi.alpha^-1 agree with the exact flow E through order q.  Starting
and stopping methods target alpha.Phi and Phi.alpha^-1.

For each attainable (q, p), :func:`effective_order_residuals` and
:func:`recover_starting_weights` read one elimination of alpha from
Phi - alpha^-1.E.alpha, generated from the product in exact integer
arithmetic on first use and compiled to constant arrays, so a call runs
no product.  The tests pin it to the hand-written closed forms.
"""

from __future__ import annotations

import itertools
import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

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
    "conjugacy_residuals",
    "resolve_free_weights",
    "order5_barrier_witness",
    "butcher_product",
    "butcher_inverse",
    "check_companions",
    "DEFAULT_ORDER_TOL",
]

# the rooted trees through order five by order, each the sorted tuple of
# its children's indices; index 0 is the empty tree
_CHILDREN = (
    None,
    (),
    (1,),
    (1, 1), (2,),
    (1, 1, 1), (1, 2), (3,), (4,),
    (1, 1, 1, 1), (1, 1, 2), (1, 3), (1, 4), (2, 2), (5,), (6,), (7,), (8,),
)
_INDEX = {children: i for i, children in enumerate(_CHILDREN)}
N_TREES = len(_CHILDREN)


def _frozen(values) -> np.ndarray:
    out = np.array(values)
    out.flags.writeable = False
    return out


def _order_and_density():
    order, density = [0], [0]
    for children in _CHILDREN[1:]:
        order.append(1 + sum(order[i] for i in children))
        density.append(order[-1] * math.prod(density[i] for i in children))
    return _frozen(order), _frozen(density)


# order (number of nodes) and density of each tree; the exact flow has
# weight 1/density on every tree, and index 0 holds 0 in both
TREE_ORDER, TREE_DENSITY = _order_and_density()

# weights of the exact flow and of the identity map, by tree
_EXACT = _frozen(np.r_[1.0, 1.0 / TREE_DENSITY[1:]])
_IDENTITY = _frozen(np.eye(N_TREES)[0])

DEFAULT_ORDER_TOL = 1e-10


def _trees_through(q: int) -> int:
    """Number of (nonempty) trees of order at most q; they are indices 1 to it."""
    return int(np.count_nonzero(TREE_ORDER[1:] <= q))


class OrderEstimate(int):
    """Order of accuracy as an int, with a cap flag.

    The check only covers trees through order five, so a result of 5 means
    "at least five".  ``saturated`` is True exactly in that case.
    """

    @property
    def saturated(self) -> bool:
        return int(self) == 5

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        if self.saturated:
            return f"OrderEstimate(>= {int(self)})"
        return f"OrderEstimate({int(self)})"


@dataclass(frozen=True)
class EffectiveOrderSpec:
    """Target pair (q, p): effective order q with classical order p.

    Only the attainable combinations, integers with 2 <= p < q <= 5, are
    accepted.
    """

    q: int
    p: int

    def __post_init__(self) -> None:
        integers = all(isinstance(k, numbers.Integral) for k in (self.q, self.p))
        if not (integers and 2 <= self.p < self.q <= 5):
            raise DomainError(
                f"unsupported order pair (q={self.q}, p={self.p}); "
                "expected integers with 2 <= p < q <= 5"
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


def _halves(children: tuple) -> tuple:
    # (child, None) for A times the child's stage vector, else the trees
    # whose stage vectors multiply to this one
    if len(children) == 1:
        return children[0], None
    half = (len(children) + 1) // 2
    return _INDEX[children[:half]], _INDEX[children[half:]]


# how each tree from index 2 on forms its stage vector
_STAGES = [None, None] + [_halves(children) for children in _CHILDREN[2:]]


def elementary_weights(tableau: ButcherTableau) -> np.ndarray:
    """All 18 elementary weights of a tableau, as a read-only vector.

    Every sum is numpy's ``sum`` over a row of elementwise products: A times
    a stage vector is ``(A * g).sum(axis=1)`` and the weights are
    ``(G * b).sum(axis=1)`` over the stacked stage vectors G, so the
    summation order is fixed by numpy, not by the BLAS kernel.
    """
    return _frozen(_weights(tableau.A, tableau.b, tableau.c))


def _weights(A: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """The weights of :func:`elementary_weights` from a strictly lower
    triangular A, its weights b and its row sums c, with no tableau built."""
    # stage vectors by tree; A times the all-ones vector is c
    g = [None, None, c]
    for left, right in _STAGES[3:]:
        g.append((A * g[left]).sum(axis=1) if right is None else g[left] * g[right])
    G = np.array(g[2:])
    return np.concatenate(([1.0, b.sum()], (G * b).sum(axis=1)))


def _weights_jacobian(A, b, dA, db) -> np.ndarray:
    """Jacobian of the 18 elementary weights along the tangent directions
    (dA[k], db[k]) of (A, b), one column per k.

    Forward mode over the stage plan of :func:`elementary_weights`: every
    stage vector travels with one tangent row per direction.
    """
    n, s = db.shape
    g = [None, (np.ones(s), np.zeros((n, s)))]
    for left, right in _STAGES[2:]:
        u, du = g[left]
        if right is None:
            g.append((A @ u, dA @ u + du @ A.T))
        else:
            v, dv = g[right]
            g.append((u * v, du * v + u * dv))
    J = np.zeros((N_TREES, n))
    for i, (u, du) in enumerate(g[1:], start=1):
        J[i] = db @ u + du @ b
    return J


def _cuts(t: int):
    # (subtree, forest) per rooted subtree of tree t: its index, 0 when
    # empty, and the indices of the trees cut away to leave it
    yield 0, (t,)
    for choice in itertools.product(*(list(_cuts(u)) for u in _CHILDREN[t])):
        kept = tuple(sorted(s for s, _ in choice if s))
        yield _INDEX[kept], sum((forest for _, forest in choice), ())


# every term of the product but the whole-tree ones, as (tree, subtree,
# forest) index arrays; forests, of at most four trees, are padded with the
# empty tree
_CUT_ROW, _CUT_SUBTREE, _CUT_FOREST = map(np.array, zip(*[
    (t, s, forest + (0,) * (4 - len(forest)))
    for t in range(1, N_TREES) for s, forest in _cuts(t) if s != t
]))


def _cut_terms(forests: np.ndarray, b: np.ndarray) -> np.ndarray:
    # the product a.b less its whole-tree terms b(t), given the products of
    # a over each term's forest
    terms = b[_CUT_SUBTREE] * forests
    return np.bincount(_CUT_ROW, weights=terms, minlength=N_TREES)


def _weight_vector(weights) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (N_TREES,):
        raise DomainError(f"expected a length-{N_TREES} weight vector, got {w.shape}")
    return w


def _series(weights) -> np.ndarray:
    w = _weight_vector(weights)
    if w[0] != 1.0:
        raise DomainError("weight 0 (empty tree) must be 1")
    return w


def butcher_product(a, b) -> np.ndarray:
    """Weights of the composition "run a, then b", through order five.

    ``a`` and ``b`` are length-18 weight vectors with weight 1 on the empty
    tree, such as the elementary weights of two methods.
    """
    a, b = _series(a), _series(b)
    return _frozen(b + _cut_terms(a[_CUT_FOREST].prod(axis=1), b))


def butcher_inverse(a) -> np.ndarray:
    """Weights of the inverse map: ``butcher_product(a, inverse)`` is the identity."""
    forests = _series(a)[_CUT_FOREST].prod(axis=1)
    inverse = _IDENTITY
    # a tree's cut terms read only smaller trees, so each sweep settles
    # one more order
    for _ in range(TREE_ORDER.max()):
        inverse = _IDENTITY - _cut_terms(forests, inverse)
    return _frozen(inverse)


# in units of _H^order at each tree, the exact flow's weights are integers
_H = int(np.lcm.reduce(TREE_DENSITY[1:]))


@lru_cache(maxsize=1)
def _conjugate_expansion() -> tuple:
    """alpha^-1.E.alpha = E + L alpha + Q alpha(2)^2, in units of _H^order.

    Every slot of alpha but alpha(1) = 0 has order two or more, so no
    product of three slots fits in five nodes, and of the products of two
    only alpha(2)^2 survives (the tests hold the expansion to the product).
    The product gives L and Q at alpha = +-1 in one slot; in these units
    all of it is integers, exact in floats.  Returns the units, E, L by
    tree and slot, and Q.
    """
    units = np.array([_H ** int(k) for k in TREE_ORDER] + [_H**4], dtype=object)
    scale = units.astype(float)
    flow = np.r_[1.0, scale[1:N_TREES] / TREE_DENSITY[1:]]

    def target(slot, value):
        alpha = _IDENTITY.copy()
        alpha[slot] = value
        return butcher_product(butcher_product(butcher_inverse(alpha), flow), alpha)

    linear = np.zeros((N_TREES, 9))
    for j in range(2, 9):
        linear[:, j] = (target(j, scale[j]) - target(j, -scale[j])) / (2 * scale[j])
    square = (target(2, scale[2]) + target(2, -scale[2]) - 2 * flow) / (2 * scale[-1])
    return units, flow, linear, square


@lru_cache(maxsize=None)
def _elimination(q: int, p: int) -> tuple:
    """The (q, p) conditions with the starting weights alpha eliminated.

    alpha below order p is 0.  Gauss-Jordan elimination in integers over
    the slots of orders p to q-1, in tree order, makes the lowest-index
    independent rows of each order the pivots that fix alpha, and reduces
    the rest to the residuals w - alpha^-1.E.alpha.  Returns their trees,
    the terms of the residuals and of alpha(2..8) as affine forms in
    z = (1, w(1), ..., w(17), alpha(2)^2), and the (entry of z,
    coefficient) terms of alpha(2).
    """
    units, flow, linear, square = _conjugate_expansion()
    slots = [j for j in range(2, 9) if p <= TREE_ORDER[j] < q]
    n = len(slots)
    # row t, over the slots and then z: L alpha + E + Q alpha(2)^2 - w(t),
    # which is minus the residual at t
    system = np.column_stack([linear[:, slots], flow, -np.eye(N_TREES)[:, 1:], square])
    pivots, residuals = {}, {}
    for t in range(1, _trees_through(q) + 1):
        row = system[t].astype(np.int64).astype(object)
        for c, pivot in pivots.items():
            if row[c]:
                row = pivot[c] * row - row[c] * pivot
        lead = np.flatnonzero(row[:n])
        if lead.size:
            c = lead[0]
            for d, P in pivots.items():
                if P[c]:
                    pivots[d] = row[c] * P - P[c] * row
            pivots[c] = row
        else:
            residuals[t] = row[n:] * units / (row[n + t] * units[t])
    alpha = np.zeros((7, N_TREES + 1))
    for c, P in pivots.items():
        alpha[slots[c] - 2] = -P[n:] * units / (P[c] * units[slots[c]])
    second = tuple((int(j), alpha[0, j]) for j in np.flatnonzero(alpha[0]))
    trees = sorted(residuals)
    res = np.array([residuals[t] for t in trees], dtype=float)
    return _frozen(trees), _terms(res), _terms(alpha), second


def _terms(forms: np.ndarray) -> tuple:
    # the nonzero terms of affine forms in z, row by row, constant first
    row, col = np.nonzero(forms)
    return row, col, forms[row, col], len(forms)


def _inputs(second: tuple, w: np.ndarray) -> tuple[np.ndarray, float]:
    """z = (1, w(1), ..., w(17), alpha(2)^2) and alpha(2) at the weights w."""
    z = np.empty(N_TREES + 1)
    z[:N_TREES] = w
    z[0] = 1.0
    a2 = 0.0
    for j, k in second:
        a2 += k * z[j]
    z[-1] = a2 * a2
    return z, a2


def _evaluate(terms: tuple, z: np.ndarray) -> np.ndarray:
    # term by term, so a non-finite entry of z reaches only the rows using it
    row, col, coef, n = terms
    return np.bincount(row, weights=coef * z[col], minlength=n)


def _finite(tableau: ButcherTableau) -> bool:
    return bool(np.isfinite(tableau.A).all() and np.isfinite(tableau.b).all())


def _ladder(passed: np.ndarray, row_order: np.ndarray) -> OrderEstimate:
    """Largest p <= 5 such that every row of order at most p passed."""
    return OrderEstimate(int(row_order[~passed].min(initial=6)) - 1)


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
    # huge finite entries may overflow to inf or NaN, which fail their rows
    with np.errstate(over="ignore", invalid="ignore"):
        passed = np.abs(elementary_weights(tableau) - _EXACT)[1:] <= tol
    return _ladder(passed, TREE_ORDER[1:])


def effective_order_residuals(
    weights: np.ndarray, spec: EffectiveOrderSpec
) -> np.ndarray:
    """Left-minus-right residuals of the main-method conditions for (q, p).

    ``weights`` is a length-18 elementary-weight vector.  The result is zero
    (to tolerance) exactly when the method has effective order q with
    classical order p.  Each row is w - alpha^-1.E.alpha at one tree, in
    tree order, with the starting weights alpha solved from the others.
    """
    _, terms, _, second = _elimination(spec.q, spec.p)
    res = _evaluate(terms, _inputs(second, _weight_vector(weights))[0])
    res.flags.writeable = False
    return res


def _residual_jacobian(w: np.ndarray, spec: EffectiveOrderSpec) -> np.ndarray:
    """Jacobian of ``effective_order_residuals`` in the weights at ``w``.

    Exact: the residuals are affine in z, and alpha(2) is affine in w.
    """
    _, (row, col, coef, n), _, second = _elimination(spec.q, spec.p)
    J = np.zeros((n, N_TREES + 1))
    J[row, col] = coef
    a2 = _inputs(second, w)[1]
    for j, k in second:
        J[:, j] += 2.0 * a2 * k * J[:, -1]
    J[:, 0] = 0.0
    return J[:, :-1]


def effective_order(
    tableau: ButcherTableau, tol: float = DEFAULT_ORDER_TOL
) -> OrderEstimate:
    """Largest q <= 5 for which some preparation step raises accuracy to q.

    The gates are the rows of :func:`effective_order_residuals` at
    (q, p) = (5, 2), grouped by order: one and two need the classical
    weights, three the chain of three, four the chain of four plus one
    combined condition, and five the chain of five plus four combined
    conditions quadratic in the implied order-two starting weight.
    Classical order implies these, never the reverse.  A tableau with a
    non-finite entry has effective order 0.
    """
    if not _finite(tableau):
        return OrderEstimate(0)
    with np.errstate(over="ignore", invalid="ignore"):
        res = effective_order_residuals(
            elementary_weights(tableau), EffectiveOrderSpec(5, 2)
        )
    # written so that a NaN residual fails its gate
    return _ladder(np.abs(res) <= tol, TREE_ORDER[_elimination(5, 2)[0]])


def recover_starting_weights(
    weights: np.ndarray,
    spec: EffectiveOrderSpec,
    tol: float = DEFAULT_ORDER_TOL,
) -> StartingWeights:
    """Starting weights implied by a main method of effective order (q, p).

    Weights of order below q are forced by the main method and are filled in;
    weights of the trees of order q itself stay free for the start/stop
    search to choose, and those above q are zero.  Raises when the main
    method does not satisfy the (q, p) conditions to ``tol``.
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
    _, _, terms, second = _elimination(spec.q, spec.p)
    v = np.r_[1.0, 0.0, _evaluate(terms, _inputs(second, w)[0])]
    free = np.flatnonzero(TREE_ORDER[:9] == spec.q)
    v[free] = np.nan
    return StartingWeights(v, tuple(free))


def _starting_series(starting: StartingWeights) -> np.ndarray:
    # alpha with its free slots and order-five trees at 0: a slot of order
    # q cancels from the rows of order q of alpha^-1.E.alpha and reaches no
    # row of lower order in any product
    alpha = np.zeros(N_TREES)
    alpha[:9] = starting.values
    alpha[list(starting.free)] = 0.0
    return alpha


def _start_stop_targets(w, starting: StartingWeights) -> tuple:
    """The targets alpha.Phi and Phi.alpha^-1 for main weights Phi.

    A starting method must hit the first, a stopping method the second,
    for the composite to run at the main method's effective order.  Free
    slots of alpha count as 0; both targets are length-18 series.
    """
    alpha = _starting_series(starting)
    return butcher_product(alpha, w), butcher_product(w, butcher_inverse(alpha))


def conjugacy_residuals(
    weights: np.ndarray, starting: StartingWeights, q: int
) -> np.ndarray:
    """Residuals of the main weights against their conjugate-order targets.

    For every tree of order <= q the main-method weight must equal that of
    alpha^-1.E.alpha, with E the exact flow; the returned vector holds
    weight minus target, indexed like the tree table (entry 0 unused).
    Only starting weights of order below q enter, so free slots of order
    q are never touched.
    """
    if not 1 <= q <= 5:
        raise DomainError(f"order must lie in 1..5, got {q}")
    w = _weight_vector(weights)
    needed = [i for i in starting.free if TREE_ORDER[i] < q]
    if needed:
        raise DomainError(
            f"starting weights have unresolved slots {tuple(needed)} of order "
            f"below {q}"
        )
    alpha = _starting_series(starting)
    target = butcher_product(butcher_product(butcher_inverse(alpha), _EXACT), alpha)
    keep = (TREE_ORDER >= 1) & (TREE_ORDER <= q)
    return _frozen(np.where(keep, w - target, 0.0))


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
    w = _weight_vector(weights)
    ws = _weight_vector(start_weights)
    if not starting.free:
        return starting
    free = list(starting.free)
    base = _start_stop_targets(w, starting)[0]
    return starting.fill(ws[free] - base[free])


def _companion_conditions(w, q: int, p: int, tol: float = DEFAULT_ORDER_TOL):
    """The start/stop conditions for main weights Phi at effective order (q, p).

    Returns the starting weights alpha, their order-q slots free; the
    targets alpha.Phi and Phi.alpha^-1 with those slots at 0; and the linear
    map ``gaps(u, v)`` from the start and stop misses of the targets, or
    from rows of their Jacobians, to the conditions left.  A free slot t
    adds itself to row t of alpha.Phi, subtracts itself from row t of
    Phi.alpha^-1 and reaches no other row through order q: start row t
    becomes the sum of the two rows, and stop row t drops.  ``gaps``
    slices, so a NaN beyond order q reaches no row.
    """
    # the starting weights cover the trees through order four
    if q not in (3, 4):
        raise DomainError("start/stop targets cover effective orders 3 and 4 only")
    starting = recover_starting_weights(w, EffectiveOrderSpec(q, p), tol)
    targets = _start_stop_targets(w, starting)
    low = slice(1, _trees_through(q - 1) + 1)
    free = slice(low.stop, _trees_through(q) + 1)

    def gaps(u, v):
        return np.concatenate([u[low], u[free] + v[free], v[low]])

    return starting, targets, gaps


def _companion_gaps(
    main: ButcherTableau, start: ButcherTableau, stop: ButcherTableau, q: int
) -> np.ndarray:
    """The conditions :func:`check_companions` thresholds, one per row."""
    _, (to_start, to_stop), gaps = _companion_conditions(
        elementary_weights(main), q, int(classical_order(main))
    )
    return gaps(elementary_weights(start) - to_start, elementary_weights(stop) - to_stop)


def check_companions(
    main: ButcherTableau, start: ButcherTableau, stop: ButcherTableau, q: int
) -> None:
    """Raise unless start and stop hit their targets for main at order q.

    The main method must carry effective order q (3 or 4) at its own
    classical order.  Every weight of order <= q must match its target,
    the free starting weights eliminated, to ``DEFAULT_ORDER_TOL``; a NaN
    weight fails.
    """
    worst = np.max(np.abs(_companion_gaps(main, start, stop, q)))
    if not worst <= DEFAULT_ORDER_TOL:
        raise DomainError(f"start/stop weights miss their targets by {worst:.3e}")


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
