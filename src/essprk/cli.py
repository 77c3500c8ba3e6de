"""Command line front end.

Seven subcommands wire the library to files and the experiment drivers:
``check`` and ``ssp`` inspect a method, ``optimize`` searches for one,
``catalog`` lists the built-in methods, and ``convergence``, ``burgers``
and ``sigma-table`` drive the benchmark problems.  Results go to stdout
as JSON or CSV; progress notes go to stderr.  Exit codes: 0 on success,
1 when the mathematics or an input file is at fault, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import json
import math
import sys
from pathlib import Path

import numpy as np

from .errors import DomainError, EssprkError, TableauParseError
from .experiments import (
    VDP_FINAL_TIME,
    BurgersGrid,
    max_tvd_sigma,
    run_tvd,
    run_tvd_single,
    vdp_convergence,
    vdp_single_convergence,
)
from .methods import catalog, lookup
from .order_conditions import (
    EffectiveOrderSpec,
    classical_order,
    effective_order,
    elementary_weights,
    recover_starting_weights,
)
from .ssp import ssp_coefficient
from .tableau import (
    emit_tableau,
    load_document,
    parse_shu_osher,
    parse_tableau,
    shu_osher_to_butcher,
)

__all__ = ["main", "build_parser"]


def _log(message: str) -> None:
    print(message, file=sys.stderr)


def _emit_json(payload) -> None:
    print(json.dumps(payload, indent=2, allow_nan=False))


def _resolve(target: str):
    """Catalog entry for a known label, or a tableau read from a file.

    Returns (tableau, entry) with entry None for file inputs.  Files may
    hold either serialized form; coefficient matrices are converted.
    """
    try:
        entry = lookup(target)
    except DomainError:
        entry = None
    if entry is not None:
        return entry.main, entry
    path = Path(target)
    if not path.is_file():
        raise DomainError(f"no catalog method or readable file named {target!r}")
    doc = load_document(path.read_bytes())
    try:
        return parse_tableau(doc), None
    except TableauParseError:
        # a document with an alpha key declares the Shu-Osher form
        if not (isinstance(doc, dict) and "alpha" in doc):
            raise
    return shu_osher_to_butcher(parse_shu_osher(doc), label=path.stem), None


def _composite_or_single(args):
    """Pick the bracketed scheme when available and not overridden."""
    tableau, entry = _resolve(args.scheme)
    if args.main_only:
        return tableau, None
    if entry is None or entry.scheme is None:
        if entry is not None:
            _log(f"{entry.label} has no start/stop companions; running it alone")
        return tableau, None
    return tableau, entry.scheme


def _cmd_check(args) -> int:
    tableau, entry = _resolve(args.target)
    s = tableau.b.size
    p = int(classical_order(tableau))
    estimate = effective_order(tableau)
    q = int(estimate)
    result = ssp_coefficient(tableau)

    weights = None
    if 2 <= p < q <= 4:
        spec = EffectiveOrderSpec(q, p)
        recovered = recover_starting_weights(elementary_weights(tableau), spec)
        weights = [None if math.isnan(x) else float(x) for x in recovered.values]

    notes = []
    if estimate.saturated:
        notes.append("effective order is a lower bound; testing stops at five")
    if result.coefficient == 0.0:
        if float(np.min(tableau.b)) < 0.0:
            notes.append(
                "a negative weight leaves no feasible positive radius, "
                "so the coefficient is exactly zero"
            )
        else:
            notes.append("no positive radius of absolute monotonicity")

    _emit_json(
        {
            "label": tableau.label or args.target,
            "stages": s,
            "classical_order": p,
            "effective_order": q,
            "starting_weights": weights,
            "ssp_coefficient": result.coefficient,
            "effective_ssp_coefficient": result.effective_coefficient,
            "notes": notes,
        }
    )
    return 0


def _ssp_payload(tableau, label: str) -> dict:
    """The ``ssp`` report; a non-finite worst entry is written as null."""
    result = ssp_coefficient(tableau)
    certificate = result.certificate
    worst = certificate.worst_entry
    return {
        "label": label,
        "stages": tableau.b.size,
        "coefficient": result.coefficient,
        "effective_coefficient": result.effective_coefficient,
        "bracket": list(result.bracket),
        "certificate": {
            "feasible": certificate.feasible,
            "radius": certificate.radius,
            "worst_entry": worst if math.isfinite(worst) else None,
            "worst_index": list(certificate.worst_index),
        },
    }


def _cmd_ssp(args) -> int:
    tableau, _ = _resolve(args.target)
    _emit_json(_ssp_payload(tableau, tableau.label or args.target))
    return 0


def _cmd_optimize(args) -> int:
    # imported here so that no other command pays for scipy.optimize
    from .optimizer import SearchConfig, optimize_main

    spec = EffectiveOrderSpec(args.q, args.p)
    config = SearchConfig(restarts=args.restarts, seed=args.seed)
    _log(
        f"searching {args.s} stages for effective order {args.q} "
        f"(classical {args.p}), {args.restarts} restarts, seed {args.seed}"
    )
    outcome = optimize_main(args.s, spec, config)
    label = f"ESSPRK({args.s},{args.q},{args.p})"
    tableau = dataclasses.replace(
        outcome.tableau, label=label, q=args.q, p=args.p
    )
    Path(args.out).write_bytes(emit_tableau(tableau))
    _emit_json(
        {
            "label": label,
            "stages": args.s,
            "q": args.q,
            "p": args.p,
            "converged": outcome.converged,
            "coefficient": outcome.ssp.coefficient,
            "effective_coefficient": outcome.ssp.effective_coefficient,
            "worst_residual": float(np.max(np.abs(outcome.residuals))),
            "out": args.out,
        }
    )
    return 0


def _cmd_catalog(args) -> int:
    rows = []
    for entry in catalog():
        s = entry.main.b.size
        rows.append(
            {
                "label": entry.label,
                "stages": s,
                "q": entry.q,
                "p": entry.p,
                "ssp_coefficient": entry.ssp_coefficient,
                "effective_ssp_coefficient": entry.ssp_coefficient / s,
                "start_stages": None if entry.start is None else entry.start.b.size,
                "stop_stages": None if entry.stop is None else entry.stop.b.size,
            }
        )
    _emit_json(rows)
    return 0


def _cmd_convergence(args) -> int:
    tableau, scheme = _composite_or_single(args)
    if scheme is None:
        steps, errors, slope = vdp_single_convergence(tableau)
    else:
        steps, errors, slope = vdp_convergence(scheme)
    _log(f"fitted slope {slope:.4f}")
    print("n,dt,error")
    for n, err in zip(steps, errors):
        dt = VDP_FINAL_TIME / float(n)
        print(f"{int(n)},{dt!r},{float(err)!r}")
    return 0


def _cmd_burgers(args) -> int:
    profile = "continuous" if args.ic == "continuous" else "square_wave"
    grid = BurgersGrid(initial_profile=profile)
    tf = args.tf if args.tf is not None else (1.62 if args.ic == "continuous" else 0.6)
    tableau, scheme = _composite_or_single(args)
    if scheme is None:
        report = run_tvd_single(tableau, grid, args.sigma, tf)
    else:
        report = run_tvd(scheme, grid, args.sigma, tf)
    _log(
        f"monotone={report.monotone} max_increase={report.max_increase:.3e} "
        f"final_time={report.final_time:.6f}"
    )
    dt = report.final_time / (report.tv_series.size - 1)
    print("step,t,total_variation")
    for k, tv in enumerate(report.tv_series):
        print(f"{k},{float(k * dt)!r},{float(tv)!r}")
    return 0


def _cmd_sigma_table(args) -> int:
    grid = BurgersGrid(initial_profile="square_wave")
    # printed only once every bisection has succeeded, so a failed run
    # leaves no partial table on stdout
    lines = ["q,p,s,sigma_max,percent_over_C"]
    for entry in catalog():
        scheme = entry.scheme
        if scheme is None:
            continue
        _log(f"bisecting {entry.label}")
        sigma = max_tvd_sigma(scheme, grid, args.tf, tol=args.tol)
        over = 100.0 * (sigma - scheme.coefficient) / scheme.coefficient
        lines.append(
            f"{entry.q},{entry.p},{entry.main.b.size},"
            f"{float(sigma)!r},{float(over)!r}"
        )
    print("\n".join(lines))
    return 0


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        # the message argparse gives for type=float
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not 0.0 < value < math.inf:
        raise argparse.ArgumentTypeError(
            f"must be positive and finite, got {text!r}"
        )
    return value


def build_parser() -> argparse.ArgumentParser:
    """A new parser for the ``essprk`` command line."""
    parser = argparse.ArgumentParser(
        prog="essprk",
        description=(
            "Inspect, search for, and run strong-stability-preserving "
            "Runge-Kutta methods with enhanced effective order."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scheme_flags(p):
        p.add_argument(
            "--scheme",
            required=True,
            help="catalog label or tableau file path",
        )
        p.add_argument(
            "--main-only",
            action="store_true",
            help="step the main method alone, without start/stop bracketing",
        )

    p = sub.add_parser(
        "check", help="orders, starting weights, and coefficient of a method"
    )
    p.add_argument("target", help="catalog label or tableau file path")
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("ssp", help="certified coefficient with bisection bracket")
    p.add_argument("target", help="catalog label or tableau file path")
    p.set_defaults(func=_cmd_ssp)

    p = sub.add_parser("optimize", help="search for a method and write it to a file")
    p.add_argument("--s", type=int, required=True, help="stage count")
    p.add_argument("--q", type=int, required=True, help="effective order")
    p.add_argument("--p", type=int, required=True, help="classical order")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--restarts", type=int, default=8)
    p.add_argument("--out", required=True, help="output tableau file")
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("catalog", help="list built-in methods")
    p.set_defaults(func=_cmd_catalog)

    p = sub.add_parser(
        "convergence", help="van der Pol error table for a composite run"
    )
    add_scheme_flags(p)
    p.set_defaults(func=_cmd_convergence)

    p = sub.add_parser(
        "burgers", help="total variation series on the advection test"
    )
    add_scheme_flags(p)
    p.add_argument("--ic", choices=["continuous", "square"], default="continuous")
    p.add_argument("--sigma", type=_positive_float, required=True,
                   help="step size as a multiple of the forward Euler limit")
    p.add_argument("--tf", type=_positive_float, default=None,
                   help="final time (default 1.62 continuous, 0.6 square)")
    p.set_defaults(func=_cmd_burgers)

    p = sub.add_parser(
        "sigma-table",
        help="largest monotone step ratio for every bracketed catalog method",
    )
    p.add_argument("--tf", type=_positive_float, default=0.6)
    p.add_argument("--tol", type=_positive_float, default=0.01,
                   help="bisection tolerance, positive and finite")
    p.set_defaults(func=_cmd_sigma_table)

    return parser


@functools.lru_cache(maxsize=1)
def _parser() -> argparse.ArgumentParser:
    # one parser per process: building it costs more than a small check
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (EssprkError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
