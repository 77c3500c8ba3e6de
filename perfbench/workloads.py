"""The four workloads: seeded inputs, the call into essprk, the result check.

Every workload is a list of items built from the seed alone, and each item
is one call sequence into essprk's public API whose result is checked
against the acceptance tolerances (never against byte digests, so a later
change may move low-order digits).  ``run_item`` returns the item's checked
payload and a failure reason, or None when the checks pass.

essprk functions are looked up through their modules at call time, so that
the tracer's wrappers are the ones called in a traced cycle.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os

import numpy as np

import essprk.cli as cli
import essprk.experiments as experiments
import essprk.integrator as integrator
import essprk.methods as methods
import essprk.optimizer as optimizer
import essprk.order_conditions as order_conditions
import essprk.ssp as ssp
import essprk.tableau as tableau

# ---- search: acceptance criterion 4 plus one companion search ----

# (s, q, p, restarts, reference coefficient, tolerance); a reference of 0
# marks the unreachable effective order five, which must not converge
SEARCHES = [
    (3, 3, 2, 3, 1.0, 1e-3),
    (4, 3, 2, 3, 2.0, 1e-3),
    (4, 4, 2, 4, 0.88, 0.01),
    (4, 5, 2, 2, 0.0, 1e-6),
]
COMPANION_LABEL = "ESSPRK(3,3,2)"
COMPANION_RESTARTS = 1
# cycle k of a run searches with SearchConfig.seed = 1000 * seed + k, so
# the cycles of one run average over different random starts
SEEDS_PER_WORKLOAD_SEED = 1000
# coefficients within this of the reference count as no deficit: ten times
# the searches' default radius tolerance
DEFICIT_SLACK = 1e-6

# ---- vdp: acceptance criterion 5 ----

VDP_STUDIES = [
    ("composite", "ESSPRK(3,3,2)", 2.8, 3.2),
    ("composite", "ESSPRK(4,3,2)", 2.8, 3.2),
    ("composite", "ESSPRK(4,4,2)", 3.75, 4.25),
    ("composite", "ESSPRK(5,4,2)", 3.75, 4.25),
    ("main_only", "ESSPRK(4,4,2)", -math.inf, 2.5),
]

# ---- burgers: acceptance criterion 6 on a fine grid ----

BURGERS_SCHEMES = [
    "ESSPRK(3,3,2)",
    "ESSPRK(4,3,2)",
    "ESSPRK(4,4,2)",
    "ESSPRK(5,4,2)",
    "ESSPRK(4,4,3)",
]
BURGERS_CELLS = 4000
SIGMA_TOL = 0.01
SQUARE_TF = 0.6
SMOOTH_TF = 1.62

# ---- certify: generated files through `essprk check` and `essprk ssp` ----

# label -> (q, p, reference coefficient, tolerance), from the paper's table
# (two decimals) and the closed forms (exact); independent of the catalog
CATALOG_REFERENCE = {
    "ESSPRK(3,3,2)": (3, 2, 1.0, 0.005),
    "ESSPRK(4,3,2)": (3, 2, 2.0, 0.005),
    "ESSPRK(4,4,2)": (4, 2, 0.88, 0.005),
    "ESSPRK(4,4,3)": (4, 3, 0.78, 0.005),
    "ESSPRK(5,4,2)": (4, 2, 1.97, 0.005),
    "ESSPRK(10,4,2)": (4, 2, 6.0, 1e-6),
    "ESSPRK(17,4,2)": (4, 2, 12.0, 1e-6),
    "SSPRK(3,3)": (3, 3, 1.0, 0.005),
    "SSPRK(4,3)": (3, 3, 2.0, 0.005),
}
CATALOG_COPIES = 10
RANDOM_TABLEAUX = 750
MALFORMED_COPIES = 15
MALFORMED = (
    "truncated",
    "not_object",
    "missing_field",
    "bad_shape",
    "not_explicit",
    "bad_stage_count",
    "bad_label",
    "bad_order_tag",
    "shu_osher_bad_shape",
    "missing_file",
)
# ROADMAP open item 5: documents the parser accepts or fails on with a
# traceback; their failures are counted and expected until it is fixed
KNOWN_DEFECTS = (
    "nan_entry",
    "non_numeric_entry",
    "shu_osher_invalid",
    "bool_stage_count",
)


def make_items(workload: str, seed: int, workdir: str) -> list[dict]:
    """Items of one cycle; certify also writes its documents to workdir."""
    rng = np.random.default_rng(seed)
    if workload == "search":
        items = [
            {"kind": "main", "s": s, "q": q, "p": p, "restarts": r,
             "ref": ref, "tol": tol, "seed": seed}
            for s, q, p, r, ref, tol in SEARCHES
        ]
        items.append({"kind": "start_stop", "label": COMPANION_LABEL,
                      "restarts": COMPANION_RESTARTS, "seed": seed})
        return items
    if workload == "vdp":
        # fixed order: the first study always pays for the cold reference
        # solution, so the median study time compares like with like
        return [
            {"kind": kind, "label": label, "lo": lo, "hi": hi}
            for kind, label, lo, hi in VDP_STUDIES
        ]
    if workload == "burgers":
        return [
            {"kind": "tvd", "label": BURGERS_SCHEMES[i], "m": BURGERS_CELLS}
            for i in rng.permutation(len(BURGERS_SCHEMES))
        ]
    if workload == "certify":
        docs = _certify_documents(rng, workdir)
        items = [dict(doc, cmd=cmd) for doc in docs for cmd in ("check", "ssp")]
        return [items[i] for i in rng.permutation(len(items))]
    raise ValueError(f"unknown workload {workload!r}")


def for_cycle(items: list[dict], index: int) -> list[dict]:
    """The items of cycle ``index``: searches get that cycle's config seed."""
    return [
        dict(item, seed=SEEDS_PER_WORKLOAD_SEED * item["seed"] + index)
        if "seed" in item else item
        for item in items
    ]


def run_item(item: dict):
    """(payload, failure reason or None) for one item."""
    kind = item["kind"]
    if kind == "main":
        return _run_main_search(item)
    if kind == "start_stop":
        return _run_companion_search(item)
    if kind in ("composite", "main_only"):
        return _run_vdp(item)
    if kind == "tvd":
        return _run_burgers(item)
    return _run_cli(item)


def coefficient_deficit(item: dict, payload: dict) -> float:
    """max(0, reference - found) for a search item, less the slack."""
    if item["kind"] == "main":
        ref, found = item["ref"], float(payload["C"])
    elif item["kind"] == "start_stop":
        ref, found = float(payload["main_C"]), float(payload["min_radius"])
    else:
        return 0.0
    return max(0.0, ref - found - DEFICIT_SLACK)


# ---- search ----


def _run_main_search(item):
    spec = order_conditions.EffectiveOrderSpec(item["q"], item["p"])
    config = optimizer.SearchConfig(restarts=item["restarts"], seed=item["seed"])
    out = optimizer.optimize_main(item["s"], spec, config)
    C = out.ssp.coefficient
    payload = {
        "C": repr(C),
        "converged": out.converged,
        "residual": repr(float(np.max(np.abs(out.residuals)))),
    }
    name = f"({item['s']},{item['q']},{item['p']})"
    if item["ref"] == 0.0:
        if out.converged or C > item["tol"]:
            return payload, f"{name}: unreachable order converged or C={C}"
    elif not out.converged or abs(C - item["ref"]) > item["tol"]:
        return payload, f"{name}: converged={out.converged} C={C}"
    return payload, None


def _run_companion_search(item):
    main = methods.lookup(item["label"]).main
    spec = order_conditions.EffectiveOrderSpec(3, 2)
    outcome = optimizer.MainSearchOutcome(
        tableau=main,
        ssp=ssp.ssp_coefficient(main),
        residuals=order_conditions.effective_order_residuals(
            order_conditions.elementary_weights(main), spec
        ),
        spec=spec,
    )
    config = optimizer.SearchConfig(restarts=item["restarts"], seed=item["seed"])
    out = optimizer.optimize_start_stop(outcome, config)
    payload = {
        "main_C": repr(outcome.ssp.coefficient),
        "min_radius": repr(out.min_radius),
        "success": out.success,
        "residual": repr(out.worst_residual),
    }
    if not out.success or out.worst_residual > config.residual_tol:
        return payload, (
            f"start/stop: success={out.success} "
            f"residual={out.worst_residual:.2e}"
        )
    return payload, None


# ---- vdp ----


def _run_vdp(item):
    entry = methods.lookup(item["label"])
    if item["kind"] == "composite":
        scheme = integrator.composite_from_entry(entry)
        _, errors, slope = experiments.vdp_convergence(scheme)
    else:
        _, errors, slope = experiments.vdp_single_convergence(entry.main)
    payload = {"errors": [repr(float(e)) for e in errors], "slope": repr(slope)}
    if not item["lo"] <= slope <= item["hi"]:
        return payload, f"{item['kind']} {item['label']}: slope {slope}"
    return payload, None


# ---- burgers ----


def _run_burgers(item):
    scheme = integrator.composite_from_entry(methods.lookup(item["label"]))
    square = experiments.BurgersGrid(m=item["m"], initial_profile="square_wave")
    smooth = experiments.BurgersGrid(m=item["m"])
    sigma = experiments.max_tvd_sigma(scheme, square, SQUARE_TF, tol=SIGMA_TOL)
    safe = 0.99 * scheme.coefficient
    runs = [
        experiments.run_tvd(scheme, square, safe, SQUARE_TF),
        experiments.run_tvd(scheme, smooth, safe, SMOOTH_TF),
    ]
    payload = {
        "sigma": repr(sigma),
        "max_increase": [repr(r.max_increase) for r in runs],
        "monotone": [r.monotone for r in runs],
    }
    if sigma < scheme.coefficient - SIGMA_TOL:
        return payload, f"{item['label']}: sigma_max {sigma} below C"
    if not all(r.monotone for r in runs):
        return payload, f"{item['label']}: safe-step run not monotone"
    return payload, None


# ---- certify ----


def _run_cli(item):
    out, err = io.StringIO(), io.StringIO()
    exc_name = None
    code = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main([item["cmd"], item["path"]])
        except Exception as exc:  # an escaped exception is a checked failure
            exc_name = type(exc).__name__
    payload = {
        "code": code,
        "stdout": out.getvalue(),
        "stderr": err.getvalue(),
        "exception": exc_name,
    }
    return payload, _check_cli(item, payload)


def _check_cli(item, payload) -> str | None:
    where = f"{item['cmd']} {item['path']} ({item['kind']})"
    if payload["exception"] is not None:
        return f"{where}: uncaught {payload['exception']}"
    if item["kind"] in MALFORMED or item["kind"] in KNOWN_DEFECTS:
        if payload["code"] not in (1, 2) or "error:" not in payload["stderr"]:
            return f"{where}: accepted (exit {payload['code']})"
        return None
    if payload["code"] != 0:
        return f"{where}: exit {payload['code']}"
    doc = json.loads(payload["stdout"])
    C = doc["ssp_coefficient"] if item["cmd"] == "check" else doc["coefficient"]
    if item["cmd"] == "ssp":
        lo, hi = doc["bracket"]
        if not (lo <= C <= hi and hi - lo <= 1e-9):
            return f"{where}: bracket {doc['bracket']} around {C}"
    if item["kind"] == "random":
        if item["cmd"] == "check":
            p, q = doc["classical_order"], doc["effective_order"]
            if not 1 <= p <= q < 5:
                return f"{where}: orders p={p} q={q}"
        if (C > 0.0) != item["positive"]:
            return f"{where}: coefficient {C} with positive={item['positive']}"
        return None
    if doc["label"] != item["label"]:
        return f"{where}: label {doc['label']!r}"
    if abs(C - item["C"]) > item["tol"]:
        return f"{where}: coefficient {C} vs {item['C']}"
    if item["cmd"] == "check":
        if doc["classical_order"] != item["p"] or doc["effective_order"] < item["q"]:
            return (
                f"{where}: orders p={doc['classical_order']} "
                f"q={doc['effective_order']}"
            )
    return None


def _random_tableau_doc(rng, positive: bool, s_max: int = 6) -> dict:
    s = int(rng.integers(2, s_max + 1))
    low, high = (0.05, 1.0) if positive else (-1.0, 1.0)
    A = np.tril(rng.uniform(low, high, (s, s)), -1)
    b = rng.uniform(0.05, 1.0, s)
    b /= b.sum()
    return {"label": "", "s": s, "A": A.tolist(), "b": b.tolist(),
            "q": None, "p": None}


def _random_shu_osher_doc(rng) -> dict:
    s = int(rng.integers(2, 5))
    v = np.zeros(s + 1)
    alpha = np.zeros((s + 1, s))
    beta = np.zeros((s + 1, s))
    v[0] = 1.0
    for i in range(1, s + 1):
        row = rng.uniform(0.0, 1.0, i)
        alpha[i, :i] = row / row.sum() * rng.uniform(0.1, 0.95)
        v[i] = 1.0 - alpha[i, :i].sum()
        beta[i, :i] = rng.uniform(0.0, 0.6, i)
    return {"s": s, "v": v.tolist(), "alpha": alpha.tolist(),
            "beta": beta.tolist()}


def _malformed_text(kind: str, rng) -> str:
    """A document of the given malformed kind, varied by the seed."""
    doc = _random_tableau_doc(rng, positive=True, s_max=5)
    s = doc["s"]
    if kind == "truncated":
        text = json.dumps(doc)
        return text[: int(rng.integers(1, len(text) - 1))]
    if kind == "not_object":
        return json.dumps(rng.uniform(0, 1, 4).tolist())
    if kind == "missing_field":
        del doc[("s", "A", "b")[int(rng.integers(3))]]
    elif kind == "bad_shape":
        if rng.integers(2):
            doc["A"] = doc["A"][:-1]
        else:
            doc["b"] = doc["b"] + [0.0]
    elif kind == "not_explicit":
        i = int(rng.integers(s))
        j = int(rng.integers(i, s))
        doc["A"][i][j] = float(rng.uniform(0.1, 1.0))
    elif kind == "bad_stage_count":
        doc["s"] = [0, -s, str(s), float(s)][int(rng.integers(4))]
    elif kind == "bad_label":
        doc["label"] = [7, ["x"], {"name": "x"}][int(rng.integers(3))]
    elif kind == "bad_order_tag":
        doc["q"] = ["three", 2.5][int(rng.integers(2))]
    elif kind == "nan_entry":
        i = int(rng.integers(1, s))
        doc["A"][i][int(rng.integers(i))] = math.nan
    elif kind == "non_numeric_entry":
        if rng.integers(2):
            doc["b"][int(rng.integers(s))] = "x"
        else:
            doc = _random_shu_osher_doc(rng)
            doc["v"][int(rng.integers(len(doc["v"])))] = "x"
    elif kind == "bool_stage_count":
        doc = {"label": "", "s": True, "A": [[0.0]], "b": [1.0],
               "q": None, "p": None}
    elif kind == "shu_osher_bad_shape":
        doc = _random_shu_osher_doc(rng)
        doc["alpha"] = doc["alpha"][:-1]
    elif kind == "shu_osher_invalid":
        # ShuOsherForm's own ValueError escapes parse_shu_osher: rows whose
        # v + sum(alpha) is not 1 (as ROADMAP item 5 states), or a
        # non-explicit alpha, which takes the same path
        doc = _random_shu_osher_doc(rng)
        i = int(rng.integers(1, doc["s"] + 1))
        if rng.integers(2):
            doc["v"][i] += 0.25
        else:
            doc["alpha"][i - 1][i - 1] = 0.5
            doc["v"][i - 1] -= 0.5
    else:
        raise ValueError(f"unknown malformed kind {kind!r}")
    return json.dumps(doc)


def _certify_documents(rng, workdir: str) -> list[dict]:
    """Write the seeded documents and describe what each must produce."""
    docs: list[dict] = []

    def write(name: str, data: bytes | str, **info) -> None:
        mode = "wb" if isinstance(data, bytes) else "w"
        with open(os.path.join(workdir, name), mode) as f:
            f.write(data)
        docs.append(dict(info, path=name))

    for copy in range(CATALOG_COPIES):
        for entry in methods.catalog():
            q, p, C, tol = CATALOG_REFERENCE[entry.label]
            name = f"catalog-{len(docs):04d}.json"
            write(name, tableau.emit_tableau(entry.main), kind="catalog",
                  label=entry.main.label or name, q=q, p=p, C=C, tol=tol)
        for n in (3, 4):
            name = f"family_n{n}-{len(docs):04d}"
            write(f"{name}.json", tableau.emit_shu_osher(methods.family_n2p1(n)),
                  kind="family", label=name, q=4, p=2, C=float(n * n - n),
                  tol=1e-6)
    for k in range(RANDOM_TABLEAUX):
        doc = _random_tableau_doc(rng, positive=bool(k % 2))
        A, b = np.array(doc["A"]), np.array(doc["b"])
        below = A[np.tril_indices(doc["s"], -1)]
        write(f"random-{len(docs):04d}.json", json.dumps(doc),
              kind="random", positive=bool((below > 0).all() and (b > 0).all()))
    for copy in range(MALFORMED_COPIES):
        for kind in MALFORMED + KNOWN_DEFECTS:
            if kind == "missing_file":
                docs.append({"kind": kind, "path": f"absent-{len(docs):04d}.json"})
                continue
            write(f"bad-{len(docs):04d}.json", _malformed_text(kind, rng),
                  kind=kind)
    return docs
