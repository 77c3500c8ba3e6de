"""Numerical search for strongly stable methods of prescribed effective order.

Two searches live here.  The main search looks for an s-stage tableau
maximizing the SSP coefficient subject to the effective-order conditions;
the start/stop search then builds the preparation and finishing methods a
composite run needs, maximizing the smaller of their two SSP coefficients.
It solves the conditions ``check_companions`` tests, with the free
order-q starting weights eliminated, so x holds only packed tableaux.

Both treat the radius r as a decision variable and maximize it in one
nonlinear program over z = (x, r): the order conditions are equalities, the
nonnegativity margins of the transformed coefficients at r are
inequalities, and every constraint comes with its exact Jacobian.  Each
restart first solves for a feasible point with r pinned at the least
radius the search needs (zero for a main method, the main method's
coefficient for its companions), then maximizes r from that point, or
from its raw start when the first solve failed.  Restarts draw their
initial guesses from a per-restart seeded stream and are merged
deterministically, so a fixed seed always reproduces the same outcome.
An unconstrained fit builds a composite's raw perturbation pair.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.optimize import least_squares, minimize

from .errors import DomainError, EssprkError, OrderConditionsInfeasible
from .integrator import CompositeScheme, _integer
from .order_conditions import (
    EffectiveOrderSpec,
    StartingWeights,
    _companion_conditions,
    _residual_jacobian,
    _starting_series,
    _trees_through,
    _weights,
    _weights_jacobian,
    butcher_inverse,
    classical_order,
    effective_order_residuals,
    elementary_weights,
    resolve_free_weights,
)
from .ssp import (
    SSPResult,
    _back_substitute,
    _transformed,
    abs_monotonic,
    ssp_coefficient,
)
from .tableau import MAX_STAGES, ButcherTableau

__all__ = [
    "SearchConfig",
    "MainSearchOutcome",
    "StartStopOutcome",
    "optimize_main",
    "optimize_start_stop",
    "perturbation_pair_tableaux",
]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the multistart searches.

    Each restart makes at most two solves of ``max_iterations`` iterations
    (one least-squares solve for effective order five).  A point counts as
    feasible when every order residual is within ``residual_tol`` and no
    margin is below ``-residual_tol``.  ``seed``, a nonnegative integer,
    fixes every restart's initial guess.
    """

    restarts: int = 8
    seed: int = 0
    max_iterations: int = 200
    residual_tol: float = 1e-10

    def __post_init__(self) -> None:
        for name, least in (("restarts", 1), ("max_iterations", 1), ("seed", 0)):
            if _integer(getattr(self, name), name) < least:
                raise DomainError(f"{name} must be at least {least}")
        tol = self.residual_tol
        if isinstance(tol, bool) or not isinstance(tol, numbers.Real):
            raise DomainError(f"residual_tol must be a number, got {tol!r}")
        if not 0.0 < tol < math.inf:
            raise DomainError(f"residual_tol must be positive and finite, got {tol}")


@dataclass(frozen=True, eq=False)
class MainSearchOutcome:
    """Best main method found by :func:`optimize_main`.

    ``converged`` marks that the order residuals closed to the configured
    tolerance; only then is the residual bound guaranteed.  A search for
    effective order five ends with ``converged`` False and a zero
    coefficient whenever the stage count cannot carry the conditions.
    """

    tableau: ButcherTableau
    ssp: SSPResult
    residuals: np.ndarray
    spec: EffectiveOrderSpec
    converged: bool = True

    def __post_init__(self) -> None:
        r = np.array(self.residuals, dtype=float)
        r.flags.writeable = False
        object.__setattr__(self, "residuals", r)


@dataclass(frozen=True, eq=False)
class StartStopOutcome:
    """Joint start/stop search result.

    ``starting`` carries the perturbation weights resolved from the start
    method found.  ``min_radius`` is the smaller of the two certified SSP
    coefficients, and ``success`` records whether it reached the main
    method's coefficient.
    """

    start: ButcherTableau
    stop: ButcherTableau
    starting: StartingWeights
    min_radius: float
    success: bool
    worst_residual: float


def _pack_dim(s: int) -> int:
    return s * (s - 1) // 2 + s


@lru_cache(maxsize=None)
def _below_diagonal(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of the entries below the diagonal of an s x s
    A, row by row, as read-only arrays."""
    index = np.tril_indices(s, -1)
    for i in index:
        i.flags.writeable = False
    return index


def _split(x: np.ndarray, stages) -> list:
    """(A, b) of each tableau packed in x: the rows of A below the diagonal,
    then b, one tableau per stage count."""
    out, k = [], 0
    for s in stages:
        A = np.zeros((s, s))
        m = k + s * (s - 1) // 2
        A[_below_diagonal(s)] = x[k:m]
        out.append((A, np.array(x[m : m + s])))
        k = m + s
    return out


@lru_cache(maxsize=16)
def _tangents(s: int) -> tuple[np.ndarray, np.ndarray]:
    """Derivatives of (A, b) along each packed coordinate, stacked first."""
    dA, db = map(np.array, zip(*[_split(e, [s])[0] for e in np.eye(_pack_dim(s))]))
    dA.flags.writeable = db.flags.writeable = False
    return dA, db


def _block_diagonal(blocks, extra: int = 0) -> np.ndarray:
    """The blocks along the diagonal of one zero array, ``extra`` zero
    columns after them."""
    out = np.zeros((
        sum(B.shape[0] for B in blocks), sum(B.shape[1] for B in blocks) + extra
    ))
    i = j = 0
    for B in blocks:
        m, n = B.shape
        out[i : i + m, j : j + n] = B
        i, j = i + m, j + n
    return out


def _packed_weights(stages, q: int):
    """Elementary weights of the tableaux packed in x, stacked, and their
    block-diagonal Jacobian, as functions of x.

    Only the trees of order at most q are computed: the weights past them
    are NaN and their Jacobian rows zero, and the conditions of effective
    order q read none of them.  The weights come read-only and are kept for
    the last x, keyed on its bytes, since SLSQP evaluates the constraints
    and then their Jacobian at one point, and may reuse the buffer of x in
    place.
    """
    last = [None, None]

    def weights(x):
        key = x.tobytes()
        if key != last[0]:
            # _split builds each A strictly lower triangular, as a tableau
            # would, and c is the tableau's own row sums
            w = np.concatenate([
                _weights(A, b, A.sum(axis=1), q) for A, b in _split(x, stages)
            ])
            w.flags.writeable = False
            last[:] = key, w
        return last[1]

    def jacobian(x):
        return _block_diagonal([
            _weights_jacobian(A, b, *_tangents(b.size), q) for A, b in _split(x, stages)
        ])

    return weights, jacobian


def _random_start(rng: np.random.Generator, s: int) -> np.ndarray:
    x = rng.uniform(0.0, 1.0 / s, size=_pack_dim(s))
    b = x[-s:]  # the weights are packed last
    total = b.sum()
    if total > 0.0:
        b /= total  # weights normalized to sum 1
    return x


@lru_cache(maxsize=None)
def _structural(s: int) -> np.ndarray:
    """Read-only mask of the transformed (s+1) x s entries that are not
    always zero."""
    mask = np.arange(s + 1)[:, None] > np.arange(s)
    mask.flags.writeable = False
    return mask


def _margins(z: np.ndarray, stages) -> np.ndarray:
    """Nonnegativity margins at radius z[-1] of the tableaux packed in z[:-1].

    Only structural entries count: the always-zero upper triangle would
    give the solver constraints with vanishing gradients.
    """
    out = []
    for A, b in _split(z[:-1], stages):
        X, rem = _transformed(A, b, z[-1])
        out += [X[_structural(b.size)], rem]
    return np.concatenate(out)


def _margins_jacobian(z: np.ndarray, stages) -> np.ndarray:
    """Jacobian of :func:`_margins` in z, the radius column last.

    The certificate's back substitution in forward mode: X(I + rA) = K, with
    K = [A; b], gives dX(I + rA) = dK - X d(rA), solved at once for each
    packed step (dK - r X dA) and the radius step (-X A); the leftover
    column 1 - r X 1 follows.
    """
    r = z[-1]
    blocks, r_col = [], []
    for A, b in _split(z[:-1], stages):
        s = b.size
        dA, db = _tangents(s)
        X, _ = _transformed(A, b, r)
        dK = np.concatenate([dA, db[:, None, :]], axis=1)
        dX = _back_substitute(np.concatenate([dK - r * (X @ dA), [-X @ A]]), r * A)
        drem = -r * dX.sum(axis=2)
        drem[-1] -= X.sum(axis=1)
        J = np.concatenate([dX[:, _structural(s)], drem], axis=1).T
        blocks.append(J[:, :-1])
        r_col.append(J[:, -1])
    out = _block_diagonal(blocks, 1)
    out[:, -1] = np.concatenate(r_col)
    return out


def _main_constraints(s: int, spec: EffectiveOrderSpec):
    """Order residuals of a packed s-stage tableau and their exact Jacobian."""
    weights, weights_jacobian = _packed_weights([s], spec.q)

    def fun(x):
        return effective_order_residuals(weights(x), spec)

    def jac(x):
        return _residual_jacobian(weights(x), spec) @ weights_jacobian(x)

    return fun, jac


def _start_stop_constraints(targets, gaps, stages, q: int):
    """The start/stop conditions ``gaps`` over (x_start, x_stop), with
    Jacobian, for a main method of effective order q."""
    weights, weights_jacobian = _packed_weights(stages, q)
    goal = np.concatenate(targets)

    def fun(x):
        return gaps(*np.split(weights(x) - goal, 2))

    def jac(x):
        return gaps(*np.split(weights_jacobian(x), 2))

    return fun, jac


def _least_squares_fit(eq, eq_jac, start, lower, config) -> np.ndarray:
    """Closest fit of the equalities over the restarts, with x >= ``lower``.

    Each restart is one least-squares solve from ``start(k)``; the search
    stops early once a fit meets the residual tolerance.
    """
    best_x, best_val = None, np.inf
    for k in range(config.restarts):
        x = least_squares(
            eq,
            start(k),
            jac=eq_jac,
            bounds=(lower, np.inf),
            ftol=1e-15, xtol=1e-15, gtol=1e-15,
            max_nfev=config.max_iterations,
        ).x
        val = float(np.max(np.abs(eq(x))))
        if val < best_val:
            best_val, best_x = val, x
        if best_val <= config.residual_tol:
            break
    return best_x


def _max_radius_search(eq, eq_jac, stages, start, r_floor, config) -> np.ndarray:
    """Best x over the restarts, maximizing the common radius r in each.

    x packs one tableau per entry of ``stages``; ``start(k)`` gives restart
    k's initial x.  Each restart first solves for a feasible point with r
    pinned by its bounds to ``r_floor``, the radius the caller needs at
    least, then maximizes r on [0, 2 min stages]
    from that point, or from the raw start when it is infeasible.  Every
    solution passing the feasibility check competes.  When none does,
    raises with the residuals of the closest fit with nonnegative tableau
    entries, which are the margins at r = 0.
    """
    cons = [
        {
            "type": "eq",
            "fun": lambda z: eq(z[:-1]),
            "jac": lambda z: _block_diagonal([eq_jac(z[:-1])], 1),
        },
        {"type": "ineq", "fun": _margins, "jac": _margins_jacobian, "args": (stages,)},
    ]

    def solve(z0, r_lo, r_hi):
        grad = np.zeros(z0.size)
        grad[-1] = -1.0
        return minimize(
            lambda z: -z[-1],
            z0,
            jac=lambda z: grad,
            method="SLSQP",
            bounds=[(None, None)] * (z0.size - 1) + [(r_lo, r_hi)],
            constraints=cons,
            options={"maxiter": config.max_iterations, "ftol": 1e-14},
        ).x

    def feasible(z):
        return bool(
            np.isfinite(z).all()
            and np.max(np.abs(eq(z[:-1]))) <= config.residual_tol
            and np.min(_margins(z, stages)) >= -config.residual_tol
        )

    best = None
    for k in range(config.restarts):
        z0 = np.append(start(k), r_floor)
        z1 = solve(z0, r_floor, r_floor)
        ok1 = feasible(z1)
        z2 = solve(z1 if ok1 else z0, 0.0, 2.0 * min(stages))
        for z, ok in ((z1, ok1), (z2, feasible(z2))):
            if ok and (best is None or z[-1] > best[-1]):
                best = z
    if best is None:
        miss = eq(_least_squares_fit(eq, eq_jac, start, 0.0, config))
        raise OrderConditionsInfeasible(
            f"no feasible point found in {config.restarts} restarts "
            f"(best residual {np.max(np.abs(miss)):.3e})",
            best_residuals=miss,
        )
    return best[:-1]


def optimize_main(
    s: int,
    spec: EffectiveOrderSpec,
    config: SearchConfig | None = None,
) -> MainSearchOutcome:
    """Search for the s-stage method of effective order (q, p) with largest
    SSP coefficient.

    Runs ``config.restarts`` independent searches and keeps the best; the
    result carries an independently certified coefficient.  Raises when no
    restart can even satisfy the order conditions with nonnegative
    coefficients (carrying the residual vector of the closest fit).  Order
    five is handled specially: no such method admits a positive
    coefficient, so the search fits the order conditions alone (signs
    unconstrained) by least squares and reports the certified coefficient
    of whatever it finds, converged or not, rather than hunting for a
    feasible point forever.  ``s`` must lie in 2 to 32, which is checked
    before anything is allocated.
    """
    if not 2 <= s <= MAX_STAGES:
        raise DomainError(f"stage count must lie in 2..{MAX_STAGES}, got {s}")
    config = config or SearchConfig()
    eq, eq_jac = _main_constraints(s, spec)

    def start(k):
        return _random_start(np.random.default_rng((config.seed, k)), s)

    if spec.q >= 5:
        x = _least_squares_fit(eq, eq_jac, start, -np.inf, config)
    else:
        x = _max_radius_search(eq, eq_jac, [s], start, 0.0, config)
    (A, b), = _split(x, [s])
    residuals = eq(x)
    converged = bool(np.max(np.abs(residuals)) <= config.residual_tol)
    labels = {} if spec.q >= 5 else {"q": spec.q, "p": spec.p}
    tableau = ButcherTableau(A=A, b=b, **labels)
    result = ssp_coefficient(tableau)
    if not converged:
        # only order five gets here: no method of this effective order
        # exists at this stage count, so the attainable coefficient is zero
        result = SSPResult((0.0, 0.0), abs_monotonic(tableau, 0.0))
    return MainSearchOutcome(
        tableau=tableau,
        ssp=result,
        residuals=residuals,
        spec=spec,
        converged=converged,
    )


def optimize_start_stop(
    main: MainSearchOutcome,
    config: SearchConfig | None = None,
) -> StartStopOutcome:
    """Jointly search for starting and stopping methods for ``main``.

    Decision variables are the two tableaux and a common radius, which the
    search maximizes; the free perturbation weights of order q are
    eliminated from the conditions and resolved from the start method
    found.  The reported ``min_radius`` is the smaller of the two
    certified SSP coefficients.  The starting method has s+1 stages and
    the stopping method s, for a main method of s stages; s+1 may not
    exceed 32.
    """
    config = config or SearchConfig()
    s = main.tableau.s
    if s + 1 > MAX_STAGES:
        raise DomainError(
            f"a {s + 1}-stage start method exceeds the {MAX_STAGES}-stage cap"
        )
    w_main = elementary_weights(main.tableau)
    starting, targets, gaps = _companion_conditions(
        w_main, main.spec.q, main.spec.p, config.residual_tol
    )
    stages = [s + 1, s]
    eq, eq_jac = _start_stop_constraints(targets, gaps, stages, main.spec.q)

    def start(k):
        rng = np.random.default_rng((config.seed, k, 1))
        return np.concatenate([_random_start(rng, n) for n in stages])

    # pinning the first solve at the main method's coefficient, the radius
    # a useful pair needs, keeps it out of degenerate pairs (stages with zero
    # weight) whose radius is a poor local maximum
    x = _max_radius_search(eq, eq_jac, stages, start, main.ssp.coefficient, config)
    start_tab, stop_tab = [ButcherTableau(A=A, b=b) for A, b in _split(x, stages)]
    min_radius = min(
        ssp_coefficient(start_tab).coefficient, ssp_coefficient(stop_tab).coefficient
    )
    resolved = resolve_free_weights(w_main, starting, elementary_weights(start_tab))
    return StartStopOutcome(
        start=start_tab,
        stop=stop_tab,
        starting=resolved,
        min_radius=min_radius,
        success=bool(min_radius + 1e-9 >= main.ssp.coefficient),
        worst_residual=float(np.max(np.abs(eq(x)))),
    )


def perturbation_pair_tableaux(
    scheme: CompositeScheme,
) -> tuple[ButcherTableau, ButcherTableau]:
    """Methods realizing the raw perturbation and its inverse directly.

    The perturbation fixes target weights with zero weight on the one-node
    tree, so any method hitting them has weights summing to zero, hence
    some negative ones: the pair demonstrates why composites use the
    combined start/stop methods instead.  Each method has q stages, whose
    packed coefficients outnumber the trees through order q for the
    orders a composite admits.  Each is a least-squares fit, signs free,
    over up to 40 restarts drawn in turn from one fixed-seed stream, so the
    pair is deterministic; raises when a fit stalls above 1e-9.
    """
    w = elementary_weights(scheme.main)
    starting = _companion_conditions(w, scheme.q, int(classical_order(scheme.main)))[0]
    resolved = resolve_free_weights(w, starting, elementary_weights(scheme.start))
    alpha = _starting_series(resolved)
    s, rows = scheme.q, slice(1, _trees_through(scheme.q) + 1)
    weights, jacobian = _packed_weights([s], s)
    dim = _pack_dim(s)
    rng = np.random.default_rng(1234)
    # 100 * dim is least_squares' own default evaluation budget
    config = SearchConfig(restarts=40, max_iterations=100 * dim, residual_tol=1e-11)
    out = []
    for target in (alpha, butcher_inverse(alpha)):
        goal = target[rows]
        x = _least_squares_fit(
            lambda x: weights(x)[rows] - goal, lambda x: jacobian(x)[rows],
            lambda k: rng.uniform(-0.8, 0.8, size=dim), -np.inf, config,
        )
        residual = float(np.max(np.abs(weights(x)[rows] - goal)))
        if not residual <= 1e-9:
            raise EssprkError(f"weight fit stalled at residual {residual:.2e}")
        out.append(ButcherTableau(*_split(x, [s])[0]))
    return tuple(out)
