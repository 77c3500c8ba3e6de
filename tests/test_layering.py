"""Which library module owns what, read from the source with ``ast``.

The optimizer alone owns the layout that packs tableaux into a vector: the
packing helpers and the weights routine built on them are defined in
``optimizer.py`` and imported by no other module, so the tree algebra and
the experiments never see the layout.  The weight recursion they call is
the tree algebra's own, shared with the optimizer alone, and every
block-diagonal Jacobian is placed by hand, not by ``block_diag``.  The SSP
transform's back substitution is defined once, in ``ssp.py``: the
certificate and the search's margin Jacobian both run it, so no module
needs ``scipy.linalg``.  ``CompositeScheme`` alone verifies a
start/main/stop triple, so only ``integrator.py`` imports the check.
The experiments build no method: the optimizer fits the perturbation
pair, and ``methods.py`` alone reads the package's data files.  Each
result works out its verdict from the evidence it holds, so no verdict
field can be passed to a constructor.
"""

import ast
import dataclasses
from pathlib import Path

import pytest

from essprk.experiments import TVDReport
from essprk.integrator import CompositeScheme
from essprk.order_conditions import BarrierWitness
from essprk.ssp import MonotonicityReport, SSPResult

SRC = Path(__file__).resolve().parents[1] / "src" / "essprk"
PACKING = ("_pack_dim", "_split", "_tangents", "_packed_weights")


def modules():
    return {path.name: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}


def defined(tree):
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }


def imported(tree):
    return {
        alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }


@pytest.mark.parametrize("name", PACKING)
def test_defined_only_in_the_optimizer(name):
    assert [m for m, tree in modules().items() if name in defined(tree)] == [
        "optimizer.py"
    ]


@pytest.mark.parametrize("name", PACKING)
def test_imported_by_no_module(name):
    assert [m for m, tree in modules().items() if name in imported(tree)] == []


def test_the_weight_recursion_is_shared_with_the_optimizer_only():
    # the search calls it on unpacked (A, b) without building a tableau
    trees = modules().items()
    assert [m for m, tree in trees if "_weights" in defined(tree)] == [
        "order_conditions.py"
    ]
    assert [m for m, tree in trees if "_weights" in imported(tree)] == [
        "optimizer.py"
    ]


def test_no_module_imports_block_diag():
    assert [m for m, tree in modules().items() if "block_diag" in imported(tree)] == []


def test_no_module_imports_scipy_linalg():
    def names(tree):
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom):
                yield node.module or ""
            elif isinstance(node, ast.Import):
                yield from (alias.name for alias in node.names)

    assert [
        m
        for m, tree in modules().items()
        if any(n.startswith("scipy.linalg") for n in names(tree))
    ] == []


def test_the_back_substitution_is_defined_only_in_ssp():
    assert [
        m for m, tree in modules().items() if "_back_substitute" in defined(tree)
    ] == ["ssp.py"]


def test_only_the_integrator_imports_the_companion_check():
    trees = modules().items()
    assert [m for m, tree in trees if "check_companions" in imported(tree)] == [
        "integrator.py"
    ]


def test_experiments_import_no_order_conditions_or_optimizer():
    tree = modules()["experiments.py"]
    assert [
        node.module
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and node.module in ("order_conditions", "optimizer")
    ] == []


def test_the_pair_fit_is_not_a_separate_function():
    assert [m for m, tree in modules().items() if "_fit_weights" in defined(tree)] == []


def test_the_optimizer_builds_the_perturbation_pair():
    trees = modules().items()
    assert [
        m for m, tree in trees if "perturbation_pair_tableaux" in defined(tree)
    ] == ["optimizer.py"]


def test_only_methods_reads_package_data():
    def reads(tree):
        return any(
            isinstance(node, ast.Attribute)
            and node.attr == "files"
            and isinstance(node.value, ast.Name)
            and node.value.id == "resources"
            for node in ast.walk(tree)
        )

    assert [m for m, tree in modules().items() if reads(tree)] == ["methods.py"]


VERDICTS = {
    MonotonicityReport: {"feasible", "worst_entry", "worst_index"},
    SSPResult: {"coefficient", "effective_coefficient"},
    TVDReport: {"monotone", "max_increase"},
    BarrierWitness: {"jensen_gap", "conclusive", "note"},
    CompositeScheme: {"coefficient"},
}


@pytest.mark.parametrize("cls", VERDICTS, ids=lambda cls: cls.__name__)
def test_verdicts_are_worked_out_not_passed_in(cls):
    fields = dataclasses.fields(cls)
    assert {f.name for f in fields if not f.init} == VERDICTS[cls]
