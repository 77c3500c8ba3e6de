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
numpy overhead would dominate, so they use ``_float_step``: the same
sums, in ``_add_column``'s one order, as straight-line Python over
floats, generated once per tableau.  No step calls BLAS.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field
from functools import lru_cache, partial
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
        u0 = _vector(np.atleast_1d(np.array(self.u0, dtype=float)), "u0")
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
    # counting beats isfinite(x).all() at any size, and unlike a sum warns of nothing
    return np.count_nonzero(np.isfinite(x)) == x.size


def _vector(u, name: str) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    if u.ndim != 1 or u.size < 1:
        raise DomainError(f"{name} must be a nonempty vector, got shape {u.shape}")
    return u


def _add_column(sums: np.ndarray, j: int, column: np.ndarray, x) -> None:
    # every step's one summation order, which _float_step writes out: for
    # j = 0, 1, ... in turn, row r of sums is c_0*x_0 + c_1*x_1 + ..., zeros
    # kept; term 0 is written, as 0.0 + (-0.0) would lose the product's sign
    if j:
        sums[j:] += column * x
    else:
        np.multiply(column, x, out=sums)


# [A; b], held once per tableau: a run steps at most three, each many times
@lru_cache(maxsize=8)
def _stacked(tableau: ButcherTableau) -> np.ndarray:
    return np.vstack((tableau.A, tableau.b))


def rk_step(
    tableau: ButcherTableau, rhs: RightHandSide, u: np.ndarray, dt: float
) -> np.ndarray:
    """One explicit Runge-Kutta step of size dt from state u, a vector.

    Each stage and the update sum in ``_add_column``'s order, with numpy's
    overflow and invalid warnings off, the rhs's too; a non-finite slope or
    update raises ``NonFiniteState``.
    """
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    u = _vector(u, "state")
    K = _stacked(tableau)
    # row r sums stage r + 1; the last row, the update
    sums = np.empty((tableau.s, u.size))
    stage = u
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(tableau.s):
            k = np.asarray(rhs(stage))
            if not _all_finite(k):
                raise NonFiniteState(f"stage {j} produced a non-finite value", stage=j)
            _add_column(sums, j, K[j + 1 :, j, None], k)
            stage = sums[j] * dt
            stage += u
    if not _all_finite(stage):
        raise NonFiniteState("step update produced a non-finite value")
    return stage


def shu_osher_step(
    form: ShuOsherForm, rhs: RightHandSide, u: np.ndarray, dt: float
) -> np.ndarray:
    """One step evaluated through the Shu-Osher recursion directly.

    Both sums of each stage are in :func:`rk_step`'s order.  Equal to
    ``rk_step`` on the converted tableau up to roundoff; kept as an
    independent path so the conversion can be cross-checked end to end.
    """
    if not dt > 0.0:
        raise DomainError(f"step size must be positive, got {dt}")
    u = _vector(u, "state")
    # row r of each holds a sum of stage r + 1; the last row, the update's
    stage_sums, slope_sums = np.empty((2, form.s, u.size))
    stage = form.v[0] * u
    with np.errstate(over="ignore", invalid="ignore"):
        for j in range(form.s):
            k = np.asarray(rhs(stage))
            if not _all_finite(k):
                raise NonFiniteState(f"stage {j} produced a non-finite value", stage=j)
            _add_column(stage_sums, j, form.alpha[j + 1 :, j, None], stage)
            _add_column(slope_sums, j, form.beta[j + 1 :, j, None], k)
            stage = form.v[j + 1] * u + stage_sums[j] + dt * slope_sums[j]
    if not _all_finite(stage):
        raise NonFiniteState("step update produced a non-finite value")
    return stage


def _float_step(tableau: ButcherTableau, slope, rhs: RightHandSide, dim: int):
    """``rk_step(tableau, rhs, u, dt)`` as straight-line Python over floats.

    Returns ``step(u, dt)`` for a state ``u`` that is a tuple of ``dim``
    floats; ``slope(*stage)`` must return the tuple ``rhs`` returns as an
    array.  Each sum is written out in ``rk_step``'s order, so the two
    give equal bytes, and a non-finite slope at any stage reaches the
    update.  A non-finite update re-runs the step through ``rk_step``,
    which raises the stage's ``NonFiniteState``.

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
    out = {n}
    for k in observe_at:
        k = _integer(k, "observation step")
        if not 0 <= k <= n:
            raise DomainError(f"observation step {k} outside 0..{n}")
        if composite and k == 1:
            raise DomainError(
                "no accurate observation exists one step into a composite "
                "run; the first observable interior step is 2"
            )
        out.add(k)
    return out


def _integer(value, what: str) -> int:
    # bools are integers to Python, and int() would truncate a fraction
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise DomainError(f"{what} must be an integer, got {value!r}")
    return int(value)


def _check_steps(n, least: int) -> None:
    if _integer(n, "step count") < least:
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
