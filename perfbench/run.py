"""essprk benchmark: run one workload, check its results, print its metrics.

    python3 perfbench/run.py --workload {search,vdp,burgers,certify,all} \
        --seed N --seconds S --trace 0|1

Run from the root of a checkout; the library is imported from ``src``.
With ``--trace 0`` the workload's cycles run untraced, each in a fresh
interpreter, until ``--seconds`` of item time is measured, and the
end-to-end metrics are printed.  With ``--trace 1`` one cycle runs
untraced and the same cycle again with spans recorded around essprk's
public functions; the per-layer metrics come from the traced cycle, the
tracing overhead is the ratio of the two, and the checked payloads of the
two cycles must be equal.  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  ``--workload all`` runs
the four in turn and ends with one object whose metric names are prefixed
by the workload.  Details of each run are kept in .perfbench_out/.  See
perfbench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench_out"

WORKLOADS = ("search", "vdp", "burgers", "certify")
SETUP_REPEATS = 7
# a search cycle is one set of five searches whose costs differ 50-fold,
# so a run times whole sets, two of them, each with its own config seed
MIN_CYCLES = {"search": 2}
# no new cycle starts after this much wall time, and every child is
# killed at the hard limit, so a run ends well inside three minutes
WALL_SOFT_S = 100.0
WALL_HARD_S = 170.0
THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

START = time.monotonic()


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def child_env() -> dict:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_child(args: list[str]) -> str:
    remaining = WALL_HARD_S - (time.monotonic() - START)
    if remaining <= 0:
        raise BenchError("out of time before starting a child process")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "cycle.py"), *args],
            cwd=ROOT,
            env=child_env(),
            capture_output=True,
            text=True,
            timeout=remaining,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"child {args[0]} exceeded the time limit") from exc
    if proc.returncode != 0:
        raise BenchError(
            f"child {args[0]} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return proc.stdout


def declared(kind: str, values: dict) -> dict:
    """The metrics of one kind that BENCHMARK.json declares, with values."""
    specs = json.loads((ROOT / "BENCHMARK.json").read_text())[kind]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def measure_setup() -> tuple[float, float, dict]:
    """Median CPU and wall seconds of the set-up probes, and the versions."""
    probes = [json.loads(run_child(["setup"])) for _ in range(SETUP_REPEATS)]
    return (
        statistics.median(p["setup_s"] for p in probes),
        statistics.median(p["setup_wall_s"] for p in probes),
        probes[0]["env"],
    )


def run_cycle(args, workdir: str, trace: int, index: int) -> dict:
    out = Path(workdir) / f"cycle-{index}-trace{trace}.json"
    child = ["cycle", "--index", str(index), "--trace", str(trace),
             "--workdir", workdir, "--out", str(out)]
    if trace:
        child += ["--spans", str(OUT / f"spans-{args.workload}.npz")]
    run_child(child)
    result = json.loads(out.read_text())
    result["cpu_s"] = sum(r["ms"] for r in result["items"]) / 1e3
    result["wall_s"] = sum(r["wall_ms"] for r in result["items"]) / 1e3
    return result


def source_identity() -> dict:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    git_sha = None
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            cwd=ROOT,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
            capture_output=True,
            text=True,
            timeout=10,
        )
        if proc.returncode == 0:
            git_sha = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return {"git_sha": git_sha, "source_sha256": digest.hexdigest()}


def tail(ms: list[float]):
    """(percentile, value): the highest percentile with 10 items beyond it."""
    n = len(ms)
    if n < 20:
        return None
    return 100.0 * (n - 10) / n, sorted(ms)[n - 11]


def timed_items(workload: str, cycles: list[dict]) -> list[dict]:
    """The items the metrics count: a search run counts each set as one."""
    if workload != "search":
        return [r for c in cycles for r in c["items"]]
    return [
        {
            "kind": "search_set",
            "ms": c["cpu_s"] * 1e3,
            "wall_ms": c["wall_s"] * 1e3,
            "failure": "; ".join(r["failure"] for r in c["items"] if r["failure"])
            or None,
            "known": False,
        }
        for c in cycles
    ]


def summarize_failures(items: list[dict]) -> dict:
    failures = [r for r in items if r["failure"] is not None]
    by_kind: dict[str, int] = {}
    for r in failures:
        by_kind[r["kind"]] = by_kind.get(r["kind"], 0) + 1
    unknown = [r["failure"] for r in failures if not r["known"]]
    return {
        "failed": len(failures),
        "by_kind": by_kind,
        "unknown": unknown[:20],
        "unknown_count": len(unknown),
    }


def untraced_run(args, workdir: str) -> tuple[dict, list[str]]:
    setup_s, setup_wall_s, env = measure_setup()
    cycles = []
    measured = 0.0
    while len(cycles) < MIN_CYCLES.get(args.workload, 1) or (
        measured < args.seconds and time.monotonic() - START < WALL_SOFT_S
    ):
        cycles.append(run_cycle(args, workdir, 0, len(cycles)))
        measured += cycles[-1]["cpu_s"]
    items = timed_items(args.workload, cycles)
    ms = [r["ms"] for r in items]
    wall = sum(r["wall_ms"] for r in items) / 1e3
    failures = summarize_failures(items)
    deficit = (
        None if args.workload != "search"
        else sum(c["coef_deficit"] for c in cycles)
    )
    metrics = declared("end_to_end", {
        "setup_s": setup_s,
        "items_per_s": len(items) / measured,
        "item_p50_ms": statistics.median(ms),
        "peak_rss_mb": max(c["rss_mb"] for c in cycles),
    })
    t = tail(ms)
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace=0 "
        f"cycles={len(cycles)} items={len(items)} cpu_s={measured:.3f} "
        f"wall_s={wall:.3f}",
        f"  setup_s       {setup_s:.4f} s (median of {SETUP_REPEATS} fresh "
        f"interpreters; wall {setup_wall_s:.4f} s)",
        f"  items_per_s   {metrics['items_per_s']['value']:.4f} 1/s",
        f"  item_p50_ms   {metrics['item_p50_ms']['value']:.4f} ms",
        "  item_tail_ms  "
        + (f"{t[1]:.4f} ms (p{t[0]:.2f} of {len(items)} items)" if t
           else f"- (needs 20 items, have {len(items)})"),
        f"  fail_frac     {failures['failed'] / len(items):.6f} "
        f"({failures['failed']}/{len(items)})",
        "  coef_deficit  " + (f"{deficit:.6g}" if deficit is not None else "-"),
        f"  peak_rss_mb   {metrics['peak_rss_mb']['value']:.2f} MB",
    ]
    detail = {}
    if args.workload == "search":
        detail["search_times_s"] = [[r["ms"] / 1e3 for r in c["items"]] for c in cycles]
        lines += [
            f"  cycle {k} search times (s): " + " ".join(f"{t:.3f}" for t in times)
            for k, times in enumerate(detail["search_times_s"])
        ]
    detail.update({
        "cycles": len(cycles),
        "cpu_s": measured,
        "wall_s": wall,
        "setup_wall_s": setup_wall_s,
        "item_tail_ms": None if t is None else
        {"percentile": t[0], "value": t[1], "items": len(items)},
        "fail_frac": failures["failed"] / len(items),
        "coef_deficit": deficit,
    })
    return _result(items, failures, metrics, detail, lines, env)


def traced_run(args, workdir: str) -> tuple[dict, list[str]]:
    plain = run_cycle(args, workdir, 0, 0)
    traced = run_cycle(args, workdir, 1, 0)
    equal = [r["digest"] for r in plain["items"]] == [
        r["digest"] for r in traced["items"]
    ]
    overhead = traced["cpu_s"] / plain["cpu_s"]
    layers = dict(traced["layers"])
    layers["optimizer.coef_deficit"] = traced["coef_deficit"] or 0.0
    layers["trace.overhead_ratio"] = overhead
    metrics = declared("per_layer", layers)
    items = timed_items(args.workload, [plain, traced])
    failures = summarize_failures(items)
    lines = [
        f"perfbench {args.workload} seed={args.seed} trace=1 "
        f"cycle items={len(traced['items'])} spans={traced['spans']}",
        f"  untraced cycle {plain['cpu_s']:.4f} s, traced cycle "
        f"{traced['cpu_s']:.4f} s, overhead ratio {overhead:.4f}",
        "  checked payloads equal across the two cycles: "
        + ("yes" if equal else "NO"),
    ] + [f"  {name:<50} {m['value']:.6g} {m['unit']}" for name, m in metrics.items()]
    detail = {"payloads_equal": equal, "spans": traced["spans"]}
    result, lines = _result(items, failures, metrics, detail, lines, traced["env"])
    result["correct"] = result["correct"] and equal
    return result, lines


def _result(items, failures, metrics, detail, lines, env):
    if failures["failed"]:
        lines.append(
            f"  failures by kind: {json.dumps(failures['by_kind'], sort_keys=True)}"
            f"; outside the known defects: {failures['unknown_count']}"
        )
        lines += [f"    {m}" for m in failures["unknown"]]
    result = {
        "correct": failures["unknown_count"] == 0,
        "attempted": len(items),
        "failed": failures["failed"],
        "metrics": metrics,
    }
    detail = dict(detail, failures=failures, env=dict(env, **source_identity()))
    lines.append(
        "  env: " + " ".join(f"{k}={v}" for k, v in detail["env"].items())
    )
    return dict(result, detail=detail), lines


def run_all(args) -> int:
    """Each workload in its own run.py process, then one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True,
            text=True,
        )
        if proc.returncode != 0:
            print(proc.stderr, end="", file=sys.stderr)
            return proc.returncode
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = metric
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "essprk" / "__init__.py").is_file():
        print(f"error: no essprk sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        run_child(["generate", "--workload", args.workload,
                   "--seed", str(args.seed), "--workdir", workdir])
        result, lines = (traced_run if args.trace else untraced_run)(args, workdir)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail = result.pop("detail")
    record = dict(result, workload=args.workload, seed=args.seed,
                  seconds=args.seconds, trace=args.trace, detail=detail)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1) + "\n")
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
