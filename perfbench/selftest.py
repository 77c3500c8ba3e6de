"""Self-test of the benchmark itself.

For each workload it runs ``run.py --trace 1``, which executes one cycle
untraced and the same seeded cycle again with spans recorded, and checks:

- the checked result payloads of the two cycles are equal, so tracing
  changes no result the benchmark checks;
- every per-layer metric that BENCHMARK.json declares is emitted;
- each layer the workload calls reports a nonzero value;
- every failure is one of the known defects (``correct`` is true).

It also runs ``run.py --trace 0`` with a one-second window and checks that
every declared end-to-end metric is emitted and positive.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

Takes about three minutes for all four workloads on a 2-CPU machine,
most of it the search cycles.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# metrics that must be nonzero in a traced run of each workload: the
# layers the workload is built to exercise, plus the catalog it loads
CALLED = {
    "search": [
        "optimizer.optimize_main.s",
        "optimizer.optimize_start_stop.s",
        "optimizer.slsqp.calls",
        "optimizer.slsqp.nit",
        "optimizer.slsqp.nfev",
        "optimizer.slsqp.s",
        "optimizer.slsqp.success_ratio",
        "order_conditions.elementary_weights.calls",
        "order_conditions.elementary_weights.s",
        "order_conditions.effective_order_residuals.calls",
        "order_conditions.effective_order_residuals.s",
        "ssp.ssp_coefficient.calls",
        "ssp.abs_monotonic.calls",
        "methods.catalog.s",
    ],
    "vdp": [
        "integrator.rk_step.calls",
        "integrator.rk_step.s",
        "integrator.rhs.calls",
        "integrator.rhs.s",
        "integrator.step_overhead_ratio",
        "integrator.composite_from_entry.s",
        "experiments.reference_solution.s",
        "experiments.reference_solution.steps",
        "experiments.vdp_convergence.s",
        "methods.catalog.s",
    ],
    "burgers": [
        "integrator.rk_step.calls",
        "integrator.rk_step.s",
        "integrator.rhs.calls",
        "integrator.rhs.s",
        "integrator.step_overhead_ratio",
        "integrator.composite_from_entry.s",
        "experiments.max_tvd_sigma.s",
        "experiments.run_tvd.calls",
        "experiments.run_tvd.s",
        "experiments.total_variation.calls",
        "experiments.total_variation.s",
        "methods.catalog.s",
    ],
    "certify": [
        "cli.main.calls",
        "cli.main.s",
        "cli.main.exit_nonzero",
        "tableau.parse.calls",
        "tableau.parse.s",
        "tableau.parse.reject_ratio",
        "order_conditions.verdicts.calls",
        "order_conditions.verdicts.s",
        "order_conditions.elementary_weights.calls",
        "ssp.ssp_coefficient.calls",
        "ssp.ssp_coefficient.s",
        "ssp.abs_monotonic.calls",
        "methods.catalog.s",
    ],
}


def run(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=200,
    )
    if proc.returncode != 0:
        raise AssertionError(f"run.py exited {proc.returncode}: {proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    record = ROOT / ".perfbench_out" / f"result-{workload}-seed{seed}-trace{trace}.json"
    return result, json.loads(record.read_text())["detail"]


def check(workload: str, seed: int, declared: dict) -> list[str]:
    problems = []
    result, detail = run(workload, seed, 1, 1)
    if not detail["payloads_equal"]:
        problems.append("traced and untraced payloads differ")
    if not result["correct"]:
        problems.append(f"failures outside the known defects: {detail['failures']}")
    metrics = result["metrics"]
    missing = [m for m in declared["per_layer"] if m not in metrics]
    if missing:
        problems.append(f"per-layer metrics missing: {missing}")
    zero = [m for m in CALLED[workload] + ["trace.overhead_ratio"]
            if not metrics.get(m, {}).get("value")]
    if zero:
        problems.append(f"called layers reporting zero: {zero}")

    result, _ = run(workload, seed, 1, 0)
    metrics = result["metrics"]
    if sorted(metrics) != sorted(declared["end_to_end"]):
        problems.append(f"end-to-end metrics {sorted(metrics)}")
    elif not all(m["value"] > 0 for m in metrics.values()):
        problems.append(f"end-to-end metric not positive: {metrics}")
    return problems


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("workloads", nargs="*", default=list(CALLED))
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {kind: [m["name"] for m in bench[kind]]
                for kind in ("per_layer", "end_to_end")}
    failed = False
    for workload in args.workloads:
        try:
            problems = check(workload, args.seed, declared)
        except (AssertionError, subprocess.TimeoutExpired) as exc:
            problems = [str(exc)]
        failed |= bool(problems)
        print(f"{'FAIL' if problems else 'PASS'} {workload}")
        for problem in problems:
            print(f"  {problem}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
