"""Span tracer installed around essprk's public functions.

The wrappers live here, not in the library: each one replaces a function
at every name it is bound to inside the loaded ``essprk`` modules, because
``from .x import f`` gives every importing module its own binding.  A
wrapper records one span (name, start, end, parent span) per call in
compact arrays kept in memory; self time (a span's duration minus the
durations of its direct children) and the per-layer metrics are derived
from the arrays once the traced cycle ends, and the spans are written out.
"""

from __future__ import annotations

import sys
import time
from array import array

import numpy as np

# (module, attribute, span name); several functions may share one span name
TRACED = [
    ("essprk.tableau", "parse_tableau", "tableau.parse"),
    ("essprk.tableau", "parse_shu_osher", "tableau.parse"),
    ("essprk.order_conditions", "elementary_weights", "order_conditions.elementary_weights"),
    ("essprk.order_conditions", "effective_order_residuals", "order_conditions.effective_order_residuals"),
    ("essprk.order_conditions", "classical_order", "order_conditions.verdicts"),
    ("essprk.order_conditions", "effective_order", "order_conditions.verdicts"),
    ("essprk.order_conditions", "recover_starting_weights", "order_conditions.verdicts"),
    ("essprk.ssp", "ssp_coefficient", "ssp.ssp_coefficient"),
    ("essprk.ssp", "abs_monotonic", "ssp.abs_monotonic"),
    ("essprk.methods", "catalog", "methods.catalog"),
    ("essprk.optimizer", "optimize_main", "optimizer.optimize_main"),
    ("essprk.optimizer", "optimize_start_stop", "optimizer.optimize_start_stop"),
    ("essprk.optimizer", "minimize", "optimizer.slsqp"),
    ("essprk.integrator", "rk_step", "integrator.rk_step"),
    ("essprk.integrator", "composite_from_entry", "integrator.composite_from_entry"),
    ("essprk.experiments", "reference_solution", "experiments.reference_solution"),
    ("essprk.experiments", "vdp_convergence", "experiments.vdp_convergence"),
    ("essprk.experiments", "vdp_single_convergence", "experiments.vdp_convergence"),
    ("essprk.experiments", "max_tvd_sigma", "experiments.max_tvd_sigma"),
    ("essprk.experiments", "run_tvd", "experiments.run_tvd"),
    ("essprk.experiments", "run_tvd_single", "experiments.run_tvd"),
    ("essprk.experiments", "total_variation", "experiments.total_variation"),
    ("essprk.cli", "main", "cli.main"),
]
RHS = "integrator.rhs"

class Tracer:
    """Span store plus the counters recorded at the same boundaries."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self.counters: dict[str, float] = {}

    def _id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def count(self, key: str, amount: float = 1) -> None:
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, name: str, fn, on_result=None, on_error=None):
        nid = self._id(name)
        stack, ids, parent, start, end = (
            self._stack, self.name_id, self.parent, self.start, self.end
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(ids)
            ids.append(nid)
            parent.append(stack[-1] if stack else -1)
            start.append(0.0)
            end.append(0.0)
            stack.append(sid)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                end[sid] = clock()
                start[sid] = t0
                stack.pop()
                if on_error is not None:
                    on_error(exc)
                raise
            end[sid] = clock()
            start[sid] = t0
            stack.pop()
            if on_result is not None:
                on_result(result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every TRACED function at each of its bindings in essprk."""
        import essprk.cli  # noqa: F401  (loads every essprk module)
        from essprk.errors import NonFiniteState

        def nonfinite(exc):
            if isinstance(exc, NonFiniteState):
                self.count("integrator.nonfinite")

        def exit_code(code):
            if code != 0:
                self.count("cli.main.exit_nonzero")

        hooks = {
            "tableau.parse": dict(on_error=lambda exc: self.count("tableau.parse.rejects")),
            "optimizer.slsqp": dict(on_result=self._slsqp_result),
            "integrator.rk_step": dict(on_error=nonfinite),
            "cli.main": dict(
                on_result=exit_code,
                on_error=lambda exc: self.count("cli.main.uncaught"),
            ),
        }
        for module_name, attr, name in TRACED:
            original = getattr(sys.modules[module_name], attr)
            self._rebind(original, self.wrap(name, original, **hooks.get(name, {})))

        experiments = sys.modules["essprk.experiments"]
        IVP = sys.modules["essprk.integrator"].IVP
        vdp_ivp, burgers_rhs = experiments.vdp_ivp, experiments.burgers_rhs

        def traced_vdp_ivp():
            ivp = vdp_ivp()
            return IVP(rhs=self.wrap(RHS, ivp.rhs), u0=ivp.u0, t0=ivp.t0, tf=ivp.tf)

        def traced_burgers_rhs(grid):
            return self.wrap(RHS, burgers_rhs(grid))

        self._rebind(vdp_ivp, traced_vdp_ivp)
        self._rebind(burgers_rhs, traced_burgers_rhs)

    @staticmethod
    def _rebind(original, replacement) -> None:
        for module_name, module in list(sys.modules.items()):
            if module is None or not (
                module_name == "essprk" or module_name.startswith("essprk.")
            ):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, replacement)

    def _slsqp_result(self, res) -> None:
        self.count("optimizer.slsqp.nit", int(getattr(res, "nit", 0)))
        self.count("optimizer.slsqp.nfev", int(getattr(res, "nfev", 0)))
        self.count("optimizer.slsqp.successes", int(bool(res.success)))

    def arrays(self):
        ids = np.frombuffer(self.name_id, dtype=np.uint16).astype(np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int32).astype(np.int64)
        dur = np.frombuffer(self.end, dtype=float) - np.frombuffer(self.start, dtype=float)
        return ids, parent, dur

    def save(self, path) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start, dtype=float),
            end=np.frombuffer(self.end, dtype=float),
        )

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics derived from the spans and counters.

        ``trace.overhead_ratio`` and ``optimizer.coef_deficit`` are filled
        in by the caller, which knows the untraced cycle and the checks.
        """
        ids, parent, dur = self.arrays()
        n_names = max(len(self.names), 1)
        has_parent = parent >= 0
        child_time = np.bincount(
            parent[has_parent], weights=dur[has_parent], minlength=ids.size
        )
        self_time = dur - child_time
        calls = np.bincount(ids, minlength=n_names)
        selfs = np.bincount(ids, weights=self_time, minlength=n_names)

        def c(name):
            i = self._ids.get(name)
            return int(calls[i]) if i is not None else 0

        def s(name):
            i = self._ids.get(name)
            return float(selfs[i]) if i is not None else 0.0

        def ratio(num, den):
            return num / den if den else 0.0

        ref = self._ids.get("experiments.reference_solution", -1)
        step = self._ids.get("integrator.rk_step", -2)
        under_ref = (ids == step) & has_parent
        ref_steps = int(np.count_nonzero(ids[parent[under_ref]] == ref))
        k = self.counters.get
        out = {
            "optimizer.optimize_main.s": s("optimizer.optimize_main"),
            "optimizer.optimize_start_stop.s": s("optimizer.optimize_start_stop"),
            "optimizer.slsqp.calls": c("optimizer.slsqp"),
            "optimizer.slsqp.nit": int(k("optimizer.slsqp.nit", 0)),
            "optimizer.slsqp.nfev": int(k("optimizer.slsqp.nfev", 0)),
            "optimizer.slsqp.s": s("optimizer.slsqp"),
            "optimizer.slsqp.success_ratio": ratio(
                k("optimizer.slsqp.successes", 0), c("optimizer.slsqp")
            ),
            "ssp.abs_monotonic.calls": c("ssp.abs_monotonic"),
            "tableau.parse.reject_ratio": ratio(
                k("tableau.parse.rejects", 0), c("tableau.parse")
            ),
            "methods.catalog.s": s("methods.catalog"),
            "integrator.step_overhead_ratio": ratio(
                s("integrator.rk_step"), s(RHS)
            ),
            "integrator.composite_from_entry.s": s("integrator.composite_from_entry"),
            "integrator.nonfinite.count": int(k("integrator.nonfinite", 0)),
            "experiments.reference_solution.s": s("experiments.reference_solution"),
            "experiments.reference_solution.steps": ref_steps,
            "experiments.vdp_convergence.s": s("experiments.vdp_convergence"),
            "experiments.max_tvd_sigma.s": s("experiments.max_tvd_sigma"),
            "cli.main.exit_nonzero": int(k("cli.main.exit_nonzero", 0)),
            "cli.main.uncaught": int(k("cli.main.uncaught", 0)),
        }
        for name in (
            "order_conditions.elementary_weights",
            "order_conditions.effective_order_residuals",
            "order_conditions.verdicts",
            "ssp.ssp_coefficient",
            "tableau.parse",
            "integrator.rk_step",
            RHS,
            "experiments.run_tvd",
            "experiments.total_variation",
            "cli.main",
        ):
            out[f"{name}.calls"] = c(name)
            out[f"{name}.s"] = s(name)
        return out
