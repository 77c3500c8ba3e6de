"""The names the benchmark's tracer wraps stay bound in the library.

``perfbench/tracer.py`` looks up every (module, attribute) of its
``TRACED`` list with ``getattr`` and rebinds it wherever essprk binds it,
so a renamed function would crash a traced benchmark run, and a call that
bypasses the module-level name would read as zero calls.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import numpy as np

import essprk.cli  # noqa: F401  (loads every essprk module, as the tracer does)
from essprk import optimizer, order_conditions
from essprk.methods import lookup

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer.TRACED


def test_every_traced_name_exists():
    names = traced_names()
    assert len(names) == 23
    for module_name, attribute, _ in names:
        assert callable(getattr(importlib.import_module(module_name), attribute)), (
            module_name, attribute,
        )


def test_verdicts_and_searches_call_the_residuals_by_name(monkeypatch):
    main = lookup("ESSPRK(4,4,2)").main
    # rebind the residuals wherever essprk binds them, as the tracer does
    calls = []
    original = order_conditions.effective_order_residuals

    def counted(*args, **kwargs):
        calls.append(args[1])
        return original(*args, **kwargs)

    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("essprk") and module is not None:
            if getattr(module, "effective_order_residuals", None) is original:
                monkeypatch.setattr(module, "effective_order_residuals", counted)

    order_conditions.effective_order(main)
    assert calls == [order_conditions.EffectiveOrderSpec(5, 2)]
    spec = order_conditions.EffectiveOrderSpec(5, 2)
    fun, _ = optimizer._main_constraints(4, spec)
    fun(np.full(order_conditions._pack_dim(4), 0.25))
    assert calls[1:] == [spec]
