import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from essprk.tableau import ButcherTableau

ROOT = Path(__file__).resolve().parent.parent


def run_python(script, timeout):
    """Run ``script`` in a fresh interpreter that imports this checkout's src.

    A child process lets a test fail on ``timeout`` instead of hanging.
    """
    return _run_interpreter(["-c", script], timeout)


def run_module(module, *args, timeout):
    """Run ``python -m module args`` like :func:`run_python`."""
    return _run_interpreter(["-m", module, *args], timeout)


def _run_interpreter(argv, timeout):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, *argv], env=env, capture_output=True,
        text=True, timeout=timeout,
    )


@pytest.fixture
def ssprk33():
    A = np.zeros((3, 3))
    A[1, 0] = 1.0
    A[2, 0] = 0.25
    A[2, 1] = 0.25
    return ButcherTableau(A=A, b=np.array([1 / 6, 1 / 6, 2 / 3]))


@pytest.fixture
def rk4():
    A = np.zeros((4, 4))
    A[1, 0] = 0.5
    A[2, 1] = 0.5
    A[3, 2] = 1.0
    return ButcherTableau(A=A, b=np.array([1 / 6, 1 / 3, 1 / 3, 1 / 6]))


@pytest.fixture
def forward_euler():
    return ButcherTableau(A=np.zeros((1, 1)), b=np.ones(1))


@pytest.fixture
def no_stepping(monkeypatch):
    """Fail any Burgers run that starts stepping, before it fills a series."""
    from essprk import experiments

    def stepped(steps):
        raise AssertionError("a Burgers run started stepping")

    monkeypatch.setattr(experiments, "_variations", stepped)


def make_random_tableau(rng, s, nonnegative=True):
    """Random explicit tableau; nonnegative entries keep SSP radii positive."""
    A = np.tril(rng.uniform(0.0, 1.0 / s, (s, s)), -1)
    if not nonnegative:
        A = np.tril(rng.uniform(-1.0, 1.0, (s, s)), -1)
    b = rng.uniform(0.05, 1.0, s)
    b = b / b.sum()
    return ButcherTableau(A=A, b=b)


def _tableau_doc(**fields):
    # Heun's method as a tableau document
    doc = {"label": "", "s": 2, "A": [[0.0, 0.0], [1.0, 0.0]],
           "b": [0.5, 0.5], "q": None, "p": None}
    doc.update(fields)
    return json.dumps(doc)


def _shu_osher_doc(**fields):
    # Heun's method in Shu-Osher form: u1 = u + dt F(u),
    # u+ = u/2 + (u1 + dt F(u1))/2
    doc = {"s": 2, "v": [1.0, 0.0, 0.5],
           "alpha": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]],
           "beta": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.5]]}
    doc.update(fields)
    return json.dumps(doc)


NAN, INF = float("nan"), float("inf")

# Malformed documents that parse_tableau / parse_shu_osher must reject, by
# kind; each entry is (form, JSON text).  json.dumps writes NaN and the
# infinities as the bare tokens Python's json module reads back.
MALFORMED_DOCUMENTS = {
    "non_finite": [
        ("tableau", _tableau_doc(A=[[0.0, 0.0], [NAN, 0.0]])),
        ("tableau", _tableau_doc(A=[[0.0, 0.0], [INF, 0.0]])),
        ("tableau", _tableau_doc(b=[-INF, 0.5])),
        ("tableau", _tableau_doc(b=[0.5, NAN])),
        ("tableau", _tableau_doc().replace("[0.5, 0.5]", "[0.5, 1e400]")),
        ("shu_osher", _shu_osher_doc(v=[1.0, NAN, 0.5])),
        ("shu_osher", _shu_osher_doc(alpha=[[0.0, 0.0], [INF, 0.0], [0.0, 0.5]])),
        ("shu_osher", _shu_osher_doc(beta=[[0.0, 0.0], [1.0, 0.0], [0.0, NAN]])),
    ],
    "bool_field": [
        ("tableau", _tableau_doc(s=True, A=[[0.0]], b=[1.0])),
        ("tableau", _tableau_doc(q=True)),
        ("tableau", _tableau_doc(p=False)),
        ("shu_osher", _shu_osher_doc(s=True)),
    ],
    "non_numeric": [
        ("tableau", _tableau_doc(b=["x", 0.5])),
        ("tableau", _tableau_doc(b=["0.5", 0.5])),
        ("tableau", _tableau_doc(b=[None, 0.5])),
        ("tableau", _tableau_doc(A=[[0.0, 0.0], [True, 0.0]])),
        ("shu_osher", _shu_osher_doc(v=[1.0, "x", 0.5])),
    ],
    "shu_osher_invalid": [
        # v + sum(alpha) = 1.25 on the update row
        ("shu_osher", _shu_osher_doc(v=[1.0, 0.0, 0.75])),
        # stage 1 uses itself through alpha, and through beta
        ("shu_osher", _shu_osher_doc(
            v=[1.0, -0.5, 0.5],
            alpha=[[0.0, 0.0], [1.0, 0.5], [0.0, 0.5]])),
        ("shu_osher", _shu_osher_doc(
            beta=[[0.0, 0.0], [1.0, 0.5], [0.0, 0.5]])),
    ],
}
