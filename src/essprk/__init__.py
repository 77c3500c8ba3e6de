"""Strong-stability-preserving Runge-Kutta methods with effective order.

A library for constructing, verifying, optimizing, and running explicit
Runge-Kutta methods whose accuracy comes from effective order: a low
classical order main method bracketed by starting and stopping methods so
the composition reaches a higher order while keeping a large
strong-stability-preserving coefficient.

The usual entry points:

- :func:`catalog` / :func:`lookup` for the built-in methods,
- :func:`ssp_coefficient` for certified coefficients,
- :func:`effective_order` / :func:`classical_order` for accuracy checks,
- :func:`optimize_main` / :func:`optimize_start_stop` to search for methods,
- :func:`composite_from_entry` and :func:`run_composite` to integrate,
- :mod:`essprk.experiments` for the benchmark problems.
"""

from .errors import (
    DomainError,
    EssprkError,
    NonFiniteState,
    OrderConditionsInfeasible,
    TableauParseError,
)
from .integrator import (
    IVP,
    CompositeScheme,
    Trajectory,
    composite_from_entry,
    composite_steps,
    rk_step,
    run_composite,
    run_single,
    shu_osher_step,
)
from .methods import (
    CatalogEntry,
    catalog,
    essprk_332,
    essprk_432,
    family_n2p1,
    lookup,
    ssprk_33,
    ssprk_43,
)
from .order_conditions import (
    BarrierWitness,
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
)
from .ssp import MonotonicityReport, SSPResult, abs_monotonic, ssp_coefficient
from .tableau import (
    ButcherTableau,
    ShuOsherForm,
    emit_shu_osher,
    emit_tableau,
    parse_shu_osher,
    parse_tableau,
    shu_osher_to_butcher,
)

__version__ = "0.1.0"

# served on first use, so that importing essprk leaves scipy.optimize unloaded
_OPTIMIZER_NAMES = frozenset({
    "MainSearchOutcome",
    "SearchConfig",
    "StartStopOutcome",
    "optimize_main",
    "optimize_start_stop",
})


def __getattr__(name: str):
    if name in _OPTIMIZER_NAMES:
        from . import optimizer

        return getattr(optimizer, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BarrierWitness",
    "ButcherTableau",
    "CatalogEntry",
    "CompositeScheme",
    "DomainError",
    "EffectiveOrderSpec",
    "EssprkError",
    "IVP",
    "MainSearchOutcome",
    "MonotonicityReport",
    "NonFiniteState",
    "OrderConditionsInfeasible",
    "OrderEstimate",
    "SSPResult",
    "SearchConfig",
    "ShuOsherForm",
    "StartStopOutcome",
    "StartingWeights",
    "TableauParseError",
    "Trajectory",
    "abs_monotonic",
    "catalog",
    "classical_order",
    "composite_from_entry",
    "composite_steps",
    "conjugacy_residuals",
    "effective_order",
    "effective_order_residuals",
    "elementary_weights",
    "emit_shu_osher",
    "emit_tableau",
    "essprk_332",
    "essprk_432",
    "family_n2p1",
    "lookup",
    "optimize_main",
    "optimize_start_stop",
    "order5_barrier_witness",
    "parse_shu_osher",
    "parse_tableau",
    "recover_starting_weights",
    "resolve_free_weights",
    "rk_step",
    "run_composite",
    "run_single",
    "shu_osher_step",
    "shu_osher_to_butcher",
    "ssp_coefficient",
    "ssprk_33",
    "ssprk_43",
    "__version__",
]
