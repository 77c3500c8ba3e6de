"""Child process of the benchmark: a set-up probe, input generation, or
one workload cycle.

Each call runs in a fresh interpreter, so essprk's catalog cache and van
der Pol reference cache start cold in every cycle, as they do for every
``essprk`` command.  run.py starts it from the checkout root with ``src``
on PYTHONPATH and one BLAS/OpenMP thread:

    python3 perfbench/cycle.py setup
    python3 perfbench/cycle.py generate --workload W --seed N --workdir DIR
    python3 perfbench/cycle.py cycle --index K --trace 0|1 --workdir DIR \
        --out FILE [--spans FILE]

``generate`` writes the seeded items (and certify's documents) to DIR once
per run, so that no cycle touches essprk before its first item.  Only the
standard library is imported before the set-up clock starts.

Times are CPU time of this process (``time.process_time``).  essprk is
single-threaded and CPU-bound here (one BLAS thread, no I/O beyond small
cached files), so on an idle machine CPU time equals wall time; unlike
wall time it does not grow when other processes share the CPU.  Wall time
is recorded beside it.
"""

import argparse
import json
import os
import sys
import time

ITEMS = "items.json"


def environment() -> dict:
    import numpy
    import scipy

    def blas(module):
        info = module.__config__.CONFIG["Build Dependencies"]["blas"]
        return f"{info.get('name')}-{info.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy),
        "scipy_blas": blas(scipy),
        "nproc": os.cpu_count(),
    }


def setup(args) -> None:
    """Time importing essprk and loading and verifying its catalog."""
    t0, w0 = time.process_time(), time.perf_counter()
    import essprk

    essprk.catalog()
    cpu, wall = time.process_time() - t0, time.perf_counter() - w0
    print(json.dumps({"setup_s": cpu, "setup_wall_s": wall, "env": environment()}))


def _digest(payload) -> str:
    import hashlib

    text = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def generate(args) -> None:
    import workloads

    items = workloads.make_items(args.workload, args.seed, args.workdir)
    manifest = {"workload": args.workload, "items": items}
    with open(os.path.join(args.workdir, ITEMS), "w") as f:
        json.dump(manifest, f)


def cycle(args) -> None:
    import resource

    import workloads

    with open(os.path.join(args.workdir, ITEMS)) as f:
        manifest = json.load(f)
    items = workloads.for_cycle(manifest["items"], args.index)
    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # documents are addressed relative to the work directory, so the
    # output of a command never contains the directory's name
    os.chdir(args.workdir)
    records = []
    deficit = 0.0
    for item in items:
        t0, w0 = time.process_time(), time.perf_counter()
        try:
            payload, failure = workloads.run_item(item)
        except Exception as exc:  # any escaped exception fails the item
            payload = {"exception": type(exc).__name__, "message": str(exc)}
            failure = f"{item['kind']}: {type(exc).__name__}: {exc}"
        else:
            deficit += workloads.coefficient_deficit(item, payload)
        ms = (time.process_time() - t0) * 1e3
        wall_ms = (time.perf_counter() - w0) * 1e3
        records.append({
            "kind": item["kind"],
            "ms": ms,
            "wall_ms": wall_ms,
            "failure": failure,
            "known": failure is not None and item["kind"] in workloads.KNOWN_DEFECTS,
            "digest": _digest(payload),
        })
    result = {
        "items": records,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "coef_deficit": deficit if manifest["workload"] == "search" else None,
        "env": environment(),
        "layers": None,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics()
        result["spans"] = len(tracer.name_id)
        if args.spans:
            tracer.save(args.spans)
    with open(args.out, "w") as f:
        json.dump(result, f)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    sub = parser.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    p = sub.add_parser("generate")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--workdir", required=True)
    p = sub.add_parser("cycle")
    p.add_argument("--index", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--workdir", required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--spans")
    args = parser.parse_args()
    {"setup": setup, "generate": generate, "cycle": cycle}[args.mode](args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
