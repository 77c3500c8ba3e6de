"""Benchmark problems: Burgers total-variation runs and van der Pol accuracy.

The advection test discretizes the inviscid Burgers equation with a
first-order upwind flux on a periodic grid; forward Euler is provably
total-variation diminishing there up to a known step size, which makes the
largest oscillation-free step ratio of a composite scheme a measurable
quantity.  Every run reads the total variation after each step from one
generator; the bisection for that ratio settles each probe at or below the
proven SSP ratio by theorem, and stops each other probe at the first
increase, which already settles its verdict.  Burgers runs step with
numpy's ``rk_step``.  The van der Pol oscillator supplies the smooth
convergence study.  Its studies step a 2-vector whose slope costs far
less than ``rk_step``'s numpy overhead, so each study generates float
steps for its tableaux (``integrator._float_step``), which give
``rk_step``'s bytes, and steps those.  Its reference solution steps the
eighth-order :func:`~essprk.methods.dop853` the same way, certified as
:func:`reference_solution` describes.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache, partial
from typing import Iterator

import numpy as np

from .errors import DomainError, EssprkError, NonFiniteState
from .integrator import (
    IVP,
    CompositeScheme,
    _float_step,
    _integer,
    _steps,
    composite_steps,
    rk_step,
)
from .methods import dop853
from .ssp import _bracket, ssp_coefficient
from .tableau import ButcherTableau

__all__ = [
    "BurgersGrid",
    "TVDReport",
    "burgers_rhs",
    "dt_fe",
    "total_variation",
    "run_tvd",
    "run_tvd_single",
    "max_tvd_sigma",
    "vdp_convergence",
    "vdp_single_convergence",
    "reference_solution",
    "convergence_slope",
    "VDP_STEP_COUNTS",
]

TV_TOL = 1e-10
# a TV series this long fits in memory; the paper's runs take a few thousand
MAX_BURGERS_STEPS = 10**7
REFERENCE_ACCURACY = 1e-11
# rk_step retakes this many evenly spaced steps of each reference run
REFERENCE_SAMPLES = 32
VDP_MU = 2.0
VDP_FINAL_TIME = 50.0
VDP_STEP_COUNTS = tuple(100 * 2**k for k in range(2, 8))

_PROFILES = ("continuous", "square_wave")


@dataclass(frozen=True, eq=False)
class BurgersGrid:
    """Uniform periodic grid on [0, 2) with one of the two initial profiles."""

    m: int = 200
    initial_profile: str = "continuous"

    def __post_init__(self) -> None:
        if _integer(self.m, "m") < 2:
            raise DomainError(f"need at least 2 cells, got {self.m}")
        if self.initial_profile not in _PROFILES:
            raise DomainError(
                f"initial_profile must be one of {_PROFILES}, "
                f"got {self.initial_profile!r}"
            )

    @property
    def dx(self) -> float:
        return 2.0 / self.m

    @property
    def x(self) -> np.ndarray:
        return np.arange(self.m) * self.dx

    def initial_state(self) -> np.ndarray:
        if self.initial_profile == "continuous":
            return 0.5 - 0.25 * np.sin(np.pi * self.x)
        x = self.x
        return np.where((x >= 0.5) & (x <= 1.5), 1.0, 0.0)


def burgers_rhs(grid: BurgersGrid):
    """Upwind semi-discretization of u_t + (u^2/2)_x = 0, periodic."""
    scale = -1.0 / grid.dx

    def rhs(u: np.ndarray) -> np.ndarray:
        # overflow gives inf, which a step reports with numpy's warnings off
        flux = 0.5 * u
        flux *= u
        # (flux[i] - flux[i-1]) * (-1/dx) is -(flux[i] - flux[i-1]) / dx
        # bit for bit, the sign of a zero difference included
        out = np.empty_like(flux)
        np.subtract(flux[1:], flux[:-1], out=out[1:])
        np.subtract(flux[:1], flux[-1:], out=out[:1])
        out *= scale
        return out

    return rhs


def dt_fe(grid: BurgersGrid) -> float:
    """Largest provably TVD forward Euler step: dx over the sup of the data."""
    top = float(np.max(np.abs(grid.initial_state())))
    if top == 0.0:
        raise DomainError("initial data is identically zero")
    return grid.dx / top


def total_variation(u: np.ndarray) -> float:
    """Periodic discrete total variation, sum of |u_{i+1} - u_i|."""
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 2:
        raise DomainError("need a vector of length at least 2")
    d = u[1:] - u[:-1]
    np.abs(d, out=d)
    return float(np.sum(d) + abs(u[0] - u[-1]))


@dataclass(frozen=True, eq=False)
class TVDReport:
    """Per-step total variation of one composite run at step ratio sigma.

    ``max_increase`` (the largest step-to-step rise) and ``monotone`` (no
    rise above ``TV_TOL``; a NaN rise fails) are worked out from
    ``tv_series``, a read-only copy of the caller's series, not passed in.
    The series must be one-dimensional with at least 2 entries.
    """

    sigma: float
    tv_series: np.ndarray
    final_time: float
    monotone: bool = field(init=False)
    max_increase: float = field(init=False)

    def __post_init__(self) -> None:
        tv = np.array(self.tv_series, dtype=float)
        if tv.ndim != 1 or tv.size < 2:
            raise ValueError(
                f"tv_series of shape {tv.shape} is not a series of at least "
                "2 entries"
            )
        tv.flags.writeable = False
        object.__setattr__(self, "tv_series", tv)
        max_increase = float(np.max(np.diff(tv)))
        object.__setattr__(self, "monotone", bool(max_increase <= TV_TOL))
        object.__setattr__(self, "max_increase", max_increase)


def _burgers_ivp(grid: BurgersGrid, sigma: float, tf: float, least: int = 3):
    # n = ceil(tf / dt) steps at dt = sigma * dt_fe, ending at n * dt >= tf
    if not 0.0 < sigma < math.inf:
        raise DomainError(f"sigma must be positive and finite, got {sigma}")
    if not 0.0 < tf < math.inf:
        raise DomainError(f"final time must be positive and finite, got {tf}")
    dt = sigma * dt_fe(grid)
    # dt can underflow to 0 and tf / dt overflow to inf
    steps = tf / dt if dt > 0.0 else math.inf
    if not steps < MAX_BURGERS_STEPS:
        raise DomainError(
            f"sigma={sigma!r} and tf={tf!r} need {steps:.3g} steps, "
            f"more than the limit of {MAX_BURGERS_STEPS}"
        )
    n = math.ceil(steps)
    if n < least:
        raise DomainError(
            f"sigma={sigma!r} and tf={tf!r} give {n} step{'s' * (n != 1)}; "
            f"a {'composite ' * (least > 1)}run needs at least {least}"
        )
    ivp = IVP(rhs=burgers_rhs(grid), u0=grid.initial_state(), t0=0.0, tf=n * dt)
    return ivp, n


def _variations(steps) -> Iterator[float]:
    """Total variation of each state a step generator yields, in order."""
    for _, _, u in steps:
        yield total_variation(u)


def _tvd_report(steps, sigma: float, ivp: IVP, n: int) -> TVDReport:
    tv = np.fromiter(_variations(steps), dtype=float, count=n + 1)
    return TVDReport(sigma, tv, ivp.tf)


def run_tvd(
    scheme: CompositeScheme,
    grid: BurgersGrid,
    sigma: float,
    tf: float,
) -> TVDReport:
    """Composite run at dt = sigma * dt_fe with total variation after every step.

    The step count is ceil(tf / dt), so the run finishes at or just past tf
    with the step size at sigma times the forward Euler limit to within one
    rounding; the exact final time is reported.
    """
    ivp, n = _burgers_ivp(grid, sigma, tf)
    return _tvd_report(composite_steps(scheme, ivp, n), sigma, ivp, n)


def run_tvd_single(
    tableau: ButcherTableau,
    grid: BurgersGrid,
    sigma: float,
    tf: float,
) -> TVDReport:
    """Same accounting as run_tvd but stepping one method with no bracket."""
    ivp, n = _burgers_ivp(grid, sigma, tf, least=1)
    step = partial(rk_step, tableau, ivp.rhs)
    return _tvd_report(_steps(step, step, step, ivp, n), sigma, ivp, n)


def _monotone_at(
    scheme: CompositeScheme, grid: BurgersGrid, sigma: float, tf: float
) -> bool:
    """``run_tvd(scheme, grid, sigma, tf).monotone``, or False on blow-up.

    Stops stepping at the first total-variation increase, which settles
    the verdict; a blown-up run is a monotonicity failure, not an error.
    """
    ivp, n = _burgers_ivp(grid, sigma, tf)
    variations = _variations(composite_steps(scheme, ivp, n))
    try:
        # a NaN increase fails, as in run_tvd
        return all(b - a <= TV_TOL for a, b in itertools.pairwise(variations))
    except NonFiniteState:
        return False


def max_tvd_sigma(
    scheme: CompositeScheme,
    grid: BurgersGrid,
    tf: float,
    tol: float = 0.01,
) -> float:
    """Largest ratio keeping total variation monotone.

    Brackets sigma over [C/2, 2C] around the certified coefficient C with
    the bisection of :func:`essprk.ssp.ssp_coefficient`, and returns the
    lower end; that is 2C outright in the (never observed) case that 2C
    still shows no increase, and an error if C/2 already shows one.  Probes
    at or below the proven ratio R are settled by theorem: when the data
    are nonnegative, so the upwind flux is monotone, ``dt_fe`` is the
    forward Euler TVD limit and the start, main and stop radii are all at
    least sigma, each step is a convex combination of forward Euler steps
    within that limit (Shu and Osher 1988; Gottlieb, Shu and Tadmor 2001).
    R is the least of those radii, or 0 on data with a negative entry.
    Probes above R are observed: the verdict of :func:`run_tvd` at default
    tolerance, stopped at the first increase or blow-up.  The bisection
    ends once the bracket is no wider than ``tol`` or its midpoint rounds
    to an endpoint; ``tol`` must be finite and nonnegative.  A scheme
    whose coefficient is not positive has no bracket and raises before
    any probe.
    """
    # with C <= 0 the bracket collapses to [0, 0], which the theorem would
    # settle without a single run
    if not scheme.coefficient > 0.0:
        raise EssprkError("no positive SSP coefficient to bracket")
    nonnegative = np.min(grid.initial_state()) >= 0.0
    tableaux = (scheme.start, scheme.main, scheme.stop) if nonnegative else ()
    proven = min((ssp_coefficient(t).coefficient for t in tableaux), default=0.0)
    bracket = _bracket(
        lambda sigma: sigma <= proven or _monotone_at(scheme, grid, sigma, tf),
        0.5 * scheme.coefficient, 2.0 * scheme.coefficient, tol,
    )
    if bracket is None:
        raise EssprkError(
            "spatial discretization not TVD at half the SSP coefficient"
        )
    return bracket[0]


# ---- van der Pol convergence ----


def _vdp_slope(x: float, y: float) -> tuple[float, float]:
    # no ** here: float ** raises OverflowError where * gives inf
    return y, VDP_MU * (1.0 - x * x) * y - x


def _vdp_rhs(u: np.ndarray) -> np.ndarray:
    # Python floats round as numpy scalars do, at about half the call cost
    return np.array(_vdp_slope(*u.tolist()))


def vdp_ivp() -> IVP:
    return IVP(rhs=_vdp_rhs, u0=np.array([2.0, 1.0]), t0=0.0, tf=VDP_FINAL_TIME)


def _float_run(ivp: IVP, slope, *tableaux):
    """``run(n)``: ``_steps`` over n steps of the (start, main, stop) schedule.

    Steps the float steps generated here once per distinct tableau
    (``integrator._float_step``), which give ``rk_step``'s bytes.  The
    generator yields (step, time, state), each state after u0 a tuple of floats.
    """
    steps = {
        t: _float_step(t, slope, ivp.rhs, ivp.u0.size)
        for t in dict.fromkeys(tableaux)
    }
    first, main, stop = (steps[t] for t in tableaux)

    def start(u, dt):
        # step 1 alone starts from an array, the run's u0
        return first(tuple(u.tolist()), dt)

    return partial(_steps, start, main, stop, ivp)


def _final(states) -> np.ndarray:
    """The last state a step generator yields, as an array."""
    for _, _, u in states:
        pass
    return np.array(u)


def _check_slope(ivp: IVP, slope) -> None:
    d = ivp.u0.size
    try:
        out = slope(*ivp.u0.tolist())
    except TypeError as exc:
        raise DomainError(
            f"slope cannot take the state's {d} components: {exc}"
        ) from None
    if not hasattr(out, "__len__"):
        raise DomainError(f"slope returns a {type(out).__name__}, not {d} values")
    if len(out) != d:
        raise DomainError(
            f"slope returns a length-{len(out)} result for a state of length {d}"
        )


def reference_solution(ivp: IVP, slope, max_doublings: int = 16) -> np.ndarray:
    """Final state by eighth-order DOP853 stepping, certified by step halving.

    ``slope`` is ``ivp.rhs`` written over the state's components:
    ``slope(*u)`` returns the tuple of floats ``ivp.rhs(u)`` returns as an
    array; a ``slope`` that cannot take u0's components or returns another
    number of them raises ``DomainError`` before any step.  Each comparison
    steps n and 2n DOP853 steps, both with float steps generated for
    ``slope`` (``integrator._float_step``), from n = 2048, doubling n after
    each disagreement, for at most ``max_doublings`` comparisons.  Once the
    two final states agree to ``REFERENCE_ACCURACY`` in the max norm it
    returns the 2n result (its own error is far below the agreement
    threshold).

    The stepper and ``slope`` are checked apart from the resolution: from
    every (n / ``REFERENCE_SAMPLES``)-th state of each run, one ``rk_step``
    with ``ivp.rhs``, which shares no stepping code with the float step,
    must give the bytes of the run's next state, or ``EssprkError`` names
    the step.  A ``slope`` that disagrees with ``ivp.rhs`` where a sampled
    step goes is never certified.
    """
    if _integer(max_doublings, "max_doublings") < 0:
        raise DomainError(f"max_doublings must be nonnegative, got {max_doublings}")
    _check_slope(ivp, slope)
    tableau = dop853()
    run = _float_run(ivp, slope, tableau, tableau, tableau)

    def final(n: int) -> np.ndarray:
        dt = (ivp.tf - ivp.t0) / n
        every = n // REFERENCE_SAMPLES
        for (k, _, u), (_, _, v) in itertools.pairwise(run(n)):
            if k % every == 0 and (
                rk_step(tableau, ivp.rhs, u, dt).tobytes() != np.array(v).tobytes()
            ):
                msg = "rk_step with ivp.rhs differs from the float step with slope"
                raise EssprkError(f"step {k + 1} of {n}: {msg}")
        return np.array(v)

    n = 2048
    coarse = final(n) if max_doublings > 0 else None
    for _ in range(max_doublings):
        n *= 2
        result = final(n)
        if float(np.max(np.abs(result - coarse))) <= REFERENCE_ACCURACY:
            return result
        coarse = result
    raise EssprkError(
        f"reference solution did not converge to {REFERENCE_ACCURACY:g} "
        f"within {n} steps"
    )


@lru_cache(maxsize=1)
def _vdp_reference() -> np.ndarray:
    return reference_solution(vdp_ivp(), _vdp_slope)


def convergence_slope(
    step_sizes, errors, floor: float = 10.0 * REFERENCE_ACCURACY
) -> float:
    """Least-squares slope of log error against log step size.

    Points with error at or below ``floor`` sit in the reference solution's
    noise and are excluded from the fit.  Step sizes must be positive and
    finite, errors finite and nonnegative, one per step size, and the
    points kept must span two step sizes; anything else raises
    :class:`DomainError` naming the field, so a NaN error is never dropped.
    """
    h = np.asarray(step_sizes, dtype=float)
    e = np.asarray(errors, dtype=float)
    if h.ndim != 1 or e.shape != h.shape:
        raise DomainError(
            f"step_sizes and errors must be vectors of one length, got shapes "
            f"{h.shape} and {e.shape}"
        )
    if not np.all((h > 0.0) & (h < math.inf)):
        raise DomainError(f"step_sizes must be positive and finite, got {h.tolist()}")
    if not np.all((e >= 0.0) & (e < math.inf)):
        raise DomainError(f"errors must be finite and nonnegative, got {e.tolist()}")
    if not 0.0 <= floor < math.inf:
        raise DomainError(f"floor must be nonnegative and finite, got {floor}")
    keep = e > floor
    if np.count_nonzero(keep) < 2:
        raise DomainError("fewer than two points above the error floor")
    if np.ptp(h[keep]) == 0.0:
        raise DomainError("step_sizes above the error floor are all equal")
    return float(np.polyfit(np.log(h[keep]), np.log(e[keep]), 1)[0])


def _vdp_study(*tableaux):
    ivp = vdp_ivp()
    ref = _vdp_reference()
    run = _float_run(ivp, _vdp_slope, *tableaux)
    ns = np.array(VDP_STEP_COUNTS)
    errors = np.empty(ns.size)
    for i, n in enumerate(ns):
        errors[i] = float(np.max(np.abs(_final(run(int(n))) - ref)))
    slope = convergence_slope(VDP_FINAL_TIME / ns, errors)
    return ns, errors, slope


def vdp_convergence(scheme: CompositeScheme):
    """(step counts, max-norm errors at t=50, fitted slope) for a composite.

    Each run is the raw composite sequence, whose final state is the one
    :func:`run_composite` records.
    """
    return _vdp_study(scheme.start, scheme.main, scheme.stop)


def vdp_single_convergence(tableau: ButcherTableau):
    """Same study but stepping one tableau alone (no start/stop bracket)."""
    return _vdp_study(tableau, tableau, tableau)

