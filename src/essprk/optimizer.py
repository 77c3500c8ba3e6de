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
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
from scipy.linalg import block_diag, solve_triangular
from scipy.optimize import least_squares, minimize

from .errors import DomainError, OrderConditionsInfeasible
from .order_conditions import (
    EffectiveOrderSpec,
    StartingWeights,
    _companion_conditions,
    _pack_dim,
    _packed_weights,
    _residual_jacobian,
    _tangents,
    _unpack,
    _weights_jacobian,
    effective_order_residuals,
    elementary_weights,
    resolve_free_weights,
)
from .ssp import SSPResult, _transformed, ssp_coefficient
from .tableau import ButcherTableau

__all__ = [
    "SearchConfig",
    "MainSearchOutcome",
    "StartStopOutcome",
    "optimize_main",
    "optimize_start_stop",
]


@dataclass(frozen=True)
class SearchConfig:
    """Tuning knobs for the multistart searches.

    Each restart makes at most two solves of ``max_iterations`` iterations
    (one least-squares solve for effective order five).  A point counts as
    feasible when every order residual is within ``residual_tol`` and no
    margin is below ``-residual_tol``.
    """

    restarts: int = 8
    seed: int = 0
    max_iterations: int = 200
    residual_tol: float = 1e-10

    def __post_init__(self) -> None:
        # bools are integers to Python, so True would pass as one restart
        for name in ("restarts", "max_iterations"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral):
                raise DomainError(f"{name} must be an integer, got {value!r}")
            if value < 1:
                raise DomainError(f"{name} must be at least 1")
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


def _split(x: np.ndarray, stages) -> list:
    """Unpack consecutive tableaux of the given stage counts."""
    parts = np.split(x, np.cumsum([_pack_dim(s) for s in stages[:-1]]))
    return [_unpack(part, s) for part, s in zip(parts, stages)]


def _random_start(rng: np.random.Generator, s: int) -> np.ndarray:
    x = rng.uniform(0.0, 1.0 / s, size=_pack_dim(s))
    nA = s * (s - 1) // 2
    total = x[nA:].sum()
    if total > 0.0:
        x[nA:] /= total  # weights normalized to sum 1
    return x


def _structural(s: int) -> np.ndarray:
    """Mask of the transformed (s+1) x s entries that are not always zero."""
    return np.arange(s + 1)[:, None] > np.arange(s)


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

    With K = [A; b], M = I + rA and X = K M^-1, a step (dA, dK) moves X by
    (dK - X r dA) M^-1 and a step in r moves it by -X A M^-1; the leftover
    column 1 - r X 1 follows.
    """
    r = z[-1]
    blocks, r_col = [], []
    for A, b in _split(z[:-1], stages):
        s = b.size
        dA, db = _tangents(s)
        X, _ = _transformed(A, b, r)
        M_inv = solve_triangular(
            np.eye(s) + r * A, np.eye(s), lower=True, unit_diagonal=True,
            check_finite=False,
        )
        dK = np.concatenate([dA, db[:, None, :]], axis=1)
        dX = np.concatenate([(dK - r * (X @ dA)) @ M_inv, [-X @ A @ M_inv]])
        drem = -r * dX.sum(axis=2)
        drem[-1] -= X.sum(axis=1)
        J = np.concatenate([dX[:, _structural(s)], drem], axis=1).T
        blocks.append(J[:, :-1])
        r_col.append(J[:, -1])
    return np.column_stack([block_diag(*blocks), np.concatenate(r_col)])


def _main_constraints(s: int, spec: EffectiveOrderSpec):
    """Order residuals of a packed s-stage tableau and their exact Jacobian."""
    weights, weights_jacobian = _packed_weights(s)

    def fun(x):
        return effective_order_residuals(weights(x), spec)

    def jac(x):
        return _residual_jacobian(weights(x), spec) @ weights_jacobian(x)

    return fun, jac


def _start_stop_constraints(targets, gaps, stages):
    """The start/stop conditions ``gaps`` over (x_start, x_stop), with Jacobian."""

    def fun(x):
        start, stop = (
            elementary_weights(ButcherTableau(A=A, b=b)) - target
            for (A, b), target in zip(_split(x, stages), targets)
        )
        return gaps(start, stop)

    def jac(x):
        J = block_diag(*[_weights_jacobian(A, b) for A, b in _split(x, stages)])
        return gaps(*np.split(J, 2))

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
            "jac": lambda z: np.pad(eq_jac(z[:-1]), ((0, 0), (0, 1))),
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
        z2 = solve(z1 if feasible(z1) else z0, 0.0, 2.0 * min(stages))
        for z in (z1, z2):
            if feasible(z) and (best is None or z[-1] > best[-1]):
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
    feasible point forever.
    """
    if s < 2:
        raise DomainError(f"need at least 2 stages, got {s}")
    config = config or SearchConfig()
    eq, eq_jac = _main_constraints(s, spec)

    def start(k):
        return _random_start(np.random.default_rng((config.seed, k)), s)

    if spec.q >= 5:
        x = _least_squares_fit(eq, eq_jac, start, -np.inf, config)
    else:
        x = _max_radius_search(eq, eq_jac, [s], start, 0.0, config)
    A, b = _unpack(x, s)
    residuals = eq(x)
    converged = bool(np.max(np.abs(residuals)) <= config.residual_tol)
    labels = {} if spec.q >= 5 else {"q": spec.q, "p": spec.p}
    tableau = ButcherTableau(A=A, b=b, **labels)
    result = ssp_coefficient(tableau)
    if not converged:
        # only order five gets here: no method of this effective order
        # exists at this stage count, so the attainable coefficient is zero
        result = SSPResult(
            coefficient=0.0,
            effective_coefficient=0.0,
            bracket=(0.0, 0.0),
            certificate=result.certificate,
        )
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
    the stopping method s, for a main method of s stages.
    """
    config = config or SearchConfig()
    s = main.tableau.s
    w_main = elementary_weights(main.tableau)
    starting, targets, gaps = _companion_conditions(
        w_main, main.spec.q, main.spec.p, config.residual_tol
    )
    stages = [s + 1, s]
    eq, eq_jac = _start_stop_constraints(targets, gaps, stages)

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
