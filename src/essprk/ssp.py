"""Strong-stability certificates for explicit Runge-Kutta tableaux.

A method applied with step size r times the forward-Euler limit keeps every
convex-monotone bound of the problem exactly when its stacked coefficients
stay nonnegative after the transformation K -> K(I + rA)^(-1), together
with the leftover column 1 - r K(I + rA)^(-1) 1.  The largest such r is the
SSP coefficient; dividing by the stage count gives the per-stage (effective)
coefficient used to compare methods of different sizes.

The feasible radii form one interval [0, R] (Kraaijevanger, "Contractivity
of Runge-Kutta methods", BIT 1991), so bisection finds R.  Because A is
nilpotent, (I + rA)^(-1) = sum_k (-rA)^k and the transformed coefficients
are polynomials in r of degree at most s.  The bisection probes them with
one product against the powers of r, with no substitution; the exact test,
a back substitution whose sums numpy orders, so that its bits do not depend
on the BLAS kernel, certifies both ends of the final bracket.  A probe
whose verdict differs from the exact one, as on non-finite values it may,
leaves an end that fails that check, and the bisection reruns with exact
probes.  The search differentiates the transform with that same back
substitution, run on tangent right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import DomainError
from .tableau import ButcherTableau

__all__ = [
    "MonotonicityReport",
    "SSPResult",
    "abs_monotonic",
    "ssp_coefficient",
    "DEFAULT_BISECTION_TOL",
    "DEFAULT_ENTRY_TOL",
]

DEFAULT_BISECTION_TOL = 1e-10
DEFAULT_ENTRY_TOL = 1e-12


@dataclass(frozen=True, eq=False)
class MonotonicityReport:
    """Feasibility of the nonnegativity test at one radius.

    ``coefficients`` is the transformed (s+1) x s array, ``remainder`` the
    leftover column; both must be nonnegative (to tolerance) for
    feasibility.  ``worst_entry`` is the most negative value found and
    ``worst_index`` locates it: ("coefficients", row, col) or
    ("remainder", row).
    """

    feasible: bool
    radius: float
    worst_entry: float
    worst_index: tuple
    coefficients: np.ndarray
    remainder: np.ndarray

    def __post_init__(self) -> None:
        for name in ("coefficients", "remainder"):
            a = np.array(getattr(self, name), dtype=float)
            a.flags.writeable = False
            object.__setattr__(self, name, a)


@dataclass(frozen=True, eq=False)
class SSPResult:
    """SSP coefficient with its bisection bracket and feasibility certificate."""

    coefficient: float
    effective_coefficient: float
    bracket: tuple[float, float]
    certificate: MonotonicityReport

    def __post_init__(self) -> None:
        lo, hi = self.bracket
        if not (lo <= self.coefficient <= hi):
            raise ValueError(
                f"coefficient {self.coefficient} outside bracket [{lo}, {hi}]"
            )
        if self.coefficient < 0.0:
            raise ValueError("SSP coefficient cannot be negative")


def _back_substitute(K: np.ndarray, rA: np.ndarray) -> np.ndarray:
    """Solve X(I + rA) = K in place over K's last two axes, rA strictly lower
    triangular, by back substitution over the columns, last first:
    X[..., j] = K[..., j] - sum over k > j of X[..., k] (rA)[k, j], each sum
    numpy's ``sum`` along a row.  Runs under the caller's ``np.errstate``.
    """
    for j in range(rA.shape[0] - 2, -1, -1):
        K[..., j] -= (K[..., j + 1:] * rA[j + 1:, j]).sum(axis=-1)
    return K


def _transformed(A: np.ndarray, b: np.ndarray, r: float):
    """Raw transform: X with X(I + rA) = [A; b], and the leftover column.

    rA is formed first, so X(0) is [A; b] exactly.  Overflow and NaN pass
    through, silently, to the finiteness check of abs_monotonic.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        X = _back_substitute(np.vstack([A, b]), r * A)
        rem = 1.0 - r * X.sum(axis=1)
    return X, rem


def abs_monotonic(
    tableau: ButcherTableau, r: float, tol: float = DEFAULT_ENTRY_TOL
) -> MonotonicityReport:
    """Test nonnegativity of the transformed coefficients at radius ``r``.

    I + rA is unit lower triangular, so the back substitution never divides;
    non-finite input yields an infeasible report rather than an exception.
    """
    if r < 0.0:
        raise ValueError(f"radius must be nonnegative, got {r}")
    X, rem = _transformed(tableau.A, tableau.b, r)
    if not (np.isfinite(X).all() and np.isfinite(rem).all()):
        return MonotonicityReport(
            feasible=False,
            radius=r,
            worst_entry=-np.inf,
            worst_index=("coefficients", -1, -1),
            coefficients=X,
            remainder=rem,
        )
    ij = np.unravel_index(np.argmin(X), X.shape)
    k = int(np.argmin(rem))
    if X[ij] <= rem[k]:
        worst = float(X[ij])
        index: tuple = ("coefficients", int(ij[0]), int(ij[1]))
    else:
        worst = float(rem[k])
        index = ("remainder", k)
    return MonotonicityReport(
        feasible=bool(worst >= -tol),
        radius=r,
        worst_entry=worst,
        worst_index=index,
        coefficients=X,
        remainder=rem,
    )


def _bracket(
    feasible: Callable[[float], bool], lo: float, hi: float, tol: float
) -> tuple[float, float] | None:
    """Bracket the end of the feasible interval that starts at ``lo``.

    None when ``lo`` fails and (hi, hi) when ``hi`` holds.  Otherwise
    halves [lo, hi] until it is no wider than ``tol`` or its midpoint
    rounds to an endpoint, so it ends for any tolerance, zero included.
    ``tol`` must be finite and nonnegative; it is checked before any probe.
    """
    if not 0.0 <= tol < math.inf:
        raise DomainError(
            f"bisection tolerance must be finite and nonnegative, got {tol}"
        )
    if not feasible(lo):
        return None
    if feasible(hi):
        return hi, hi
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if mid == lo or mid == hi:
            break
        if feasible(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def _polynomial_screen(A: np.ndarray, b: np.ndarray) -> Callable[[float], bool]:
    """Solve-free feasibility probe from the polynomial form of the transform.

    X(r) = [A; b] sum_k (-r)^k A^k has degree below s and the leftover
    column 1 + sum_k (-r)^(k+1) [A; b] A^k 1 degree s; one row of ``coef``
    holds the coefficients of one power of -r.  Each power [A; b] A^(k+1)
    sums its products over the inner index in order, so the coefficients do
    not depend on the BLAS kernel; the probe's own product does.  Probes
    run under the caller's ``np.errstate``.  A probe that meets a NaN reads
    infeasible; non-finite values may give a verdict other than the exact
    test's, which the end check of :func:`ssp_coefficient` catches.
    """
    s = b.size
    width = (s + 1) * s
    coef = np.zeros((s + 1, width + s + 1))
    coef[0, width:] = 1.0
    # entries near the float range overflow here; the end check settles them
    with np.errstate(all="ignore"):
        term = np.vstack([A, b])
        for k in range(s):
            coef[k, :width] = term.ravel()
            coef[k + 1, width:] = term.sum(axis=1)
            term = (term[:, :, None] * A).sum(axis=1)
    exponents = np.arange(s + 1)

    def feasible(r: float) -> bool:
        worst = ((-r) ** exponents @ coef).min()
        return bool(worst >= -DEFAULT_ENTRY_TOL)

    return feasible


def ssp_coefficient(
    tableau: ButcherTableau, tol: float = DEFAULT_BISECTION_TOL
) -> SSPResult:
    """SSP coefficient by bisection over [0, 2s].

    The feasible radii form one interval [0, R] (Kraaijevanger 1991), so
    bisection brackets R.  Returns 0 when the test already fails at radius
    0 (some negative coefficient or weight).  Each probe evaluates the
    transformed coefficients as polynomials in the radius, with no solve
    (see the module docstring).  :func:`abs_monotonic` then certifies both
    ends of the bracket: its report at the lower end must be feasible and
    is the returned certificate, and the upper end must be infeasible.  A
    screen verdict that differs from the exact one at any probe, such as
    one on non-finite values, leaves an end that fails this check, since
    the exact verdicts form one interval; the bisection then runs again
    with exact probes throughout, so the exact test always certifies the
    returned bracket.  ``tol`` must be finite and nonnegative; the
    bisection also ends when its midpoint rounds to an endpoint.
    """
    s = tableau.s
    r_max = 2.0 * s

    def exact(r: float) -> bool:
        return abs_monotonic(tableau, r).feasible

    screen = _polynomial_screen(tableau.A, tableau.b)
    # the screen's probes overflow silently; the end check settles them
    with np.errstate(all="ignore"):
        lo, hi = _bracket(screen, 0.0, r_max, tol) or (0.0, 0.0)
    certificate = abs_monotonic(tableau, lo)
    if lo < hi:
        confirmed = certificate.feasible and not exact(hi)
    else:
        confirmed = certificate.feasible == (lo > 0.0)
    if not confirmed:
        lo, hi = _bracket(exact, 0.0, r_max, tol) or (0.0, 0.0)
        certificate = abs_monotonic(tableau, lo)
    return SSPResult(
        coefficient=lo,
        effective_coefficient=lo / s,
        bracket=(lo, hi),
        certificate=certificate,
    )
