"""Fixed-step time integration, single-method and composite.

A composite run brackets a long stretch of main-method steps with one
starting step and one stopping step; only the bracketed sequence carries
the main method's effective order, so states observed mid-run must be
produced by applying the stopping method to a copy of the running state.
Everything here is deterministic: no adaptivity, no internal randomness.

One loop, ``_steps``, schedules every run; its caller, which owns the
right-hand side, picks the step function.  The public runs and the
Burgers experiments step with numpy's :func:`rk_step`.  The van der Pol
studies step a small system whose slope is cheap, where ``rk_step``'s
numpy overhead would dominate, so they use ``_float_step``: straight-line
Python over floats, generated once per tableau, that hands any
non-finite result back to ``rk_step`` for the diagnosis.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Iterable, Iterator

import numpy as np

from .errors import DomainError, NonFiniteState
from .order_conditions import check_companions
from .ssp import ssp_coefficient
from .tableau import ButcherTableau, ShuOsherForm

__all__ = [
    "IVP",
    "CompositeScheme",
    "Trajectory",
    "rk_step",
    "shu_osher_step",
    "run_single",
    "run_composite",
    "composite_steps",
    "composite_from_entry",
]

RightHandSide = Callable[[np.ndarray], np.ndarray]


@dataclass(frozen=True, eq=False)
class IVP:
    """Autonomous initial value problem u' = rhs(u), u(t0) = u0, on [t0, tf]."""

    rhs: RightHandSide
    u0: np.ndarray
    t0: float
    tf: float

    def __post_init__(self) -> None:
        u0 = np.atleast_1d(np.array(self.u0, dtype=float))
        if u0.ndim != 1 or u0.size < 1:
            raise DomainError("u0 must be a vector")
        if not np.isfinite(u0).all():
            raise DomainError("u0 must be finite")
        # an infinite end gives an infinite span, and so can two finite ends
        if not (self.tf > self.t0 and math.isfinite(self.tf - self.t0)):
            raise DomainError(
                f"need tf > t0 with a finite span, got [{self.t0}, {self.tf}]"
            )
        u0.flags.writeable = False
        object.__setattr__(self, "u0", u0)


@dataclass(frozen=True, eq=False)
class CompositeScheme:
    """Start/main/stop triple verified to run at effective order q.

    Construction checks what the triple claims: the main method must
    actually carry effective order q and the companions must hit their
    target weights to 1e-10.  ``coefficient`` is not passed in; it is the
    main method's certified SSP coefficient, computed once the check holds.
    This is the only place a triple is verified: the catalog builds one
    scheme per companion entry at load, and runs reuse it.
    """

    start: ButcherTableau
    main: ButcherTableau
    stop: ButcherTableau
    q: int
    coefficient: float = field(init=False)

    def __post_init__(self) -> None:
        check_companions(self.main, self.start, self.stop, self.q)
        coefficient = ssp_coefficient(self.main).coefficient
        object.__setattr__(self, "coefficient", coefficient)


def composite_from_entry(entry) -> CompositeScheme:
    """The composite scheme of a catalog entry, verified when the catalog loaded."""
    if entry.scheme is None:
        raise DomainError(f"{entry.label} has no start/stop companions in the catalog")
    return entry.scheme


@dataclass(frozen=True, eq=False)
class Trajectory:
    """States recorded at selected steps; the final state is always last."""

    steps: np.ndarray
    times: np.ndarray
    states: np.ndarray

    def __post_init__(self) -> None:
        for name in ("steps", "times", "states"):
            a = np.array(getattr(self, name))
            a.flags.writeable = False
            object.__setattr__(self, name, a)

    @property
    def final(self) -> np.ndarray:
        return self.states[-1]


def _all_finite(x: np.ndarray) -> bool:
    # counting is cheaper than isfinite(x).all() on both small and large x,
    # and unlike a dot or sum screen it warns on nothing
    return np.count_nonzero(np.isfinite(x)) == x.size


def rk_step(
    tableau: ButcherTableau, rhs: RightHandSide, u: np.ndarray, dt: float
) -> np.ndarray:
    """One explicit Runge-Kutta step of size dt from state u."""
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    u = np.asarray(u, dtype=float)
    A, b, s = tableau.A, tableau.b, tableau.s
    slopes = np.empty((s,) + u.shape)
    for i in range(s):
        if i == 0:
            stage = u
        else:
            # u + dt * (A[i, :i] @ slopes[:i]), formed in one buffer; .dot
            # gives the bits of @ without the matmul ufunc's dispatch cost
            stage = A[i, :i].dot(slopes[:i])
            stage *= dt
            stage += u
        slopes[i] = rhs(stage)
        if not _all_finite(slopes[i]):
            raise NonFiniteState(
                f"stage {i} produced a non-finite value", stage=i
            )
    out = b.dot(slopes)
    out *= dt
    out += u
    if not _all_finite(out):
        raise NonFiniteState("step update produced a non-finite value")
    return out


def shu_osher_step(
    form: ShuOsherForm, rhs: RightHandSide, u: np.ndarray, dt: float
) -> np.ndarray:
    """One step evaluated through the Shu-Osher recursion directly.

    Numerically identical (up to roundoff) to :func:`rk_step` on the
    converted tableau; kept as an independent path so the conversion can
    be cross-checked end to end.
    """
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    u = np.asarray(u, dtype=float)
    s = form.s
    v, al, be = form.v, form.alpha, form.beta
    stages = np.empty((s,) + u.shape)
    slopes = np.empty_like(stages)
    for i in range(s):
        acc = v[i] * u
        if i:
            acc = acc + al[i, :i] @ stages[:i] + dt * (be[i, :i] @ slopes[:i])
        stages[i] = acc
        slopes[i] = rhs(acc)
        if not _all_finite(slopes[i]):
            raise NonFiniteState(
                f"stage {i} produced a non-finite value", stage=i
            )
    out = v[s] * u + al[s] @ stages + dt * (be[s] @ slopes)
    if not _all_finite(out):
        raise NonFiniteState("step update produced a non-finite value")
    return out


def _float_step(tableau: ButcherTableau, slope, rhs: RightHandSide, dim: int):
    """``rk_step(tableau, rhs, u, dt)`` as straight-line Python over floats.

    Returns ``step(u, dt)`` for a state ``u`` that is a tuple of ``dim``
    floats; ``slope(*stage)`` must return the tuple ``rhs`` returns as an
    array.  Stage i is ``u_c + dt * (a_i0*k0_c + a_i1*k1_c + ...)`` and
    the update ``u_c + dt * (b_0*k0_c + b_1*k1_c + ...)``, each sum taken
    left to right over the whole row, zero entries included, so a
    non-finite slope at any stage reaches the update.  This order is fixed
    by the source, not by a BLAS kernel, so it can differ from
    ``rk_step``'s in the last bits.  A non-finite update re-runs the step
    through ``rk_step``, which raises the stage's ``NonFiniteState``.

    The source embeds the ``repr`` of each coefficient, which round-trips
    a finite float exactly, and no other text from the input.
    """
    if not (np.isfinite(tableau.A).all() and np.isfinite(tableau.b).all()):
        raise DomainError("tableau has a non-finite coefficient")
    A, b, s = tableau.A.tolist(), tableau.b.tolist(), tableau.s
    comps = range(dim)

    def row(coefs, c):
        return " + ".join(f"({a!r})*k{j}_{c}" for j, a in enumerate(coefs))

    def names(prefix):
        return "".join(f"{prefix}{c}, " for c in comps)

    lines = ["def step(u, dt):", f"    {names('u')}= u"]
    for i in range(s):
        stage = names("u") if i == 0 else "".join(
            f"u{c} + dt * ({row(A[i][:i], c)}), " for c in comps
        )
        lines.append(f"    {names(f'k{i}_')}= f({stage})")
    lines += [f"    v{c} = u{c} + dt * ({row(b, c)})" for c in comps]
    lines += [
        f"    if {' and '.join(f'isfinite(v{c})' for c in comps)}:",
        f"        return ({names('v')})",
        "    return fallback(u, dt)",
    ]

    def fallback(u, dt):
        return tuple(rk_step(tableau, rhs, np.array(u), dt).tolist())

    namespace = {"f": slope, "isfinite": math.isfinite, "fallback": fallback}
    exec(compile("\n".join(lines), "<essprk step>", "exec"), namespace)
    return namespace["step"]


def _tagged(step, u, dt, k):
    try:
        return step(u, dt)
    except NonFiniteState as exc:
        raise NonFiniteState(
            f"step {k}: {exc}", stage=exc.stage, step=k
        ) from None


def _normalize_observe(observe_at, n: int, composite: bool):
    if observe_at is None:
        return {n}
    if isinstance(observe_at, str):
        if observe_at != "all":
            raise DomainError(f"observe_at must be 'all' or indices, got {observe_at!r}")
        return set(range(0, n + 1)) - ({1} if composite else set())
    out = set()
    for k in observe_at:
        k = int(k)
        if not 0 <= k <= n:
            raise DomainError(f"observation step {k} outside 0..{n}")
        if composite and k == 1:
            raise DomainError(
                "no accurate observation exists one step into a composite "
                "run; the first observable interior step is 2"
            )
        out.add(k)
    out.add(n)
    return out


def _check_steps(n, least: int) -> None:
    # bools are integers to Python, and a fractional n would reach range()
    if isinstance(n, bool) or not isinstance(n, numbers.Integral):
        raise DomainError(f"step count must be an integer, got {n!r}")
    if n < least:
        raise DomainError(f"need at least {least} steps, got {n}")


def _steps(start, main, stop, ivp: IVP, n: int):
    """Yield (step, time, state) from u0 through n uniform steps.

    ``start``, ``main`` and ``stop`` are step functions ``(u, dt) -> u``,
    chosen once per run by the caller that owns the rhs.  Step 1 takes
    ``start``, step n takes ``stop`` and every other step ``main``; a
    single method is the schedule with itself in all three.  A
    ``NonFiniteState`` leaves tagged with its step number.
    """
    dt = (ivp.tf - ivp.t0) / n
    u = ivp.u0
    yield 0, ivp.t0, u
    for k in range(1, n + 1):
        step = start if k == 1 else stop if k == n else main
        u = _tagged(step, u, dt, k)
        yield k, ivp.t0 + k * dt, u


def run_single(
    tableau: ButcherTableau,
    ivp: IVP,
    n: int,
    observe_at: Iterable[int] | str | None = None,
) -> Trajectory:
    """n uniform steps of one tableau.

    ``observe_at`` selects recorded step indices (``"all"`` for every step);
    the final state is always recorded.  Default: final state only.
    """
    _check_steps(n, 1)
    obs = _normalize_observe(observe_at, n, composite=False)
    step = partial(rk_step, tableau, ivp.rhs)
    return _pack([r for r in _steps(step, step, step, ivp, n) if r[0] in obs])


def composite_steps(
    scheme: CompositeScheme, ivp: IVP, n: int
) -> Iterator[tuple[int, float, np.ndarray]]:
    """Yield (step, time, raw state) for every step of a composite run.

    The raw sequence applies the starting method once, then the main
    method, then the stopping method; interior raw states are the
    perturbed ones, accurate only to the main method's classical order.
    """
    _check_steps(n, 3)
    tableaux = (scheme.start, scheme.main, scheme.stop)
    yield from _steps(*(partial(rk_step, t, ivp.rhs) for t in tableaux), ivp, n)


def run_composite(
    scheme: CompositeScheme,
    ivp: IVP,
    n: int,
    observe_at: Iterable[int] | str | None = None,
) -> Trajectory:
    """Composite run: one starting step, n-2 main steps, one stopping step.

    Observed interior states are produced by applying the stopping method
    to a copy of the running state, leaving the raw trajectory untouched;
    step 1 is not observable this way and is rejected in ``observe_at``.
    The final state is always recorded.
    """
    _check_steps(n, 3)
    obs = _normalize_observe(observe_at, n, composite=True)
    dt = (ivp.tf - ivp.t0) / n
    stop = partial(rk_step, scheme.stop, ivp.rhs)
    records = []
    prev = None
    for k, t, u in composite_steps(scheme, ivp, n):
        if k in obs:
            # steps 0 and n are recorded raw; at any other step, one
            # stopping step from the previous raw state lands on the
            # accurate solution at this time
            records.append((k, t, u if k in (0, n) else _tagged(stop, prev, dt, k)))
        prev = u
    return _pack(records)


def _pack(records) -> Trajectory:
    steps = np.array([r[0] for r in records], dtype=int)
    times = np.array([r[1] for r in records])
    states = np.array([r[2] for r in records])
    return Trajectory(steps=steps, times=times, states=states)
