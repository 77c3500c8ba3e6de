"""Byte-stable CLI output: ``check`` and ``ssp`` for every catalog label, and
``catalog``; and one ``convergence`` and one ``burgers`` output on every
BLAS kernel.

``data/cli_golden.json`` holds the stdout each command printed when the
fixture was captured.  Any change to a printed byte, the last digit of a
float included, fails here.  To capture it again after an intended change
of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json

The capture also prints the same bytes under every OpenBLAS kernel, since
no printed number goes through a BLAS or LAPACK call, and its SSP
bisections run their exact tests at the same radii.  So do
``convergence`` for ESSPRK(3,3,2), (4,4,2) and (5,4,2), and for (4,4,2)
with ``--main-only``, and ``burgers`` for ESSPRK(4,4,2) at sigma 0.9:
every step, ``rk_step`` and the generated float step alike, sums its
stages left to right in one order and calls no BLAS routine.
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest

from essprk.cli import main
from essprk.methods import catalog

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"

# OpenBLAS kernels from SSE3 to AVX-512; a DYNAMIC_ARCH build runs the one
# OPENBLAS_CORETYPE names
KERNELS = ("SkylakeX", "Haswell", "Sandybridge", "Nehalem", "Prescott")

# van der Pol studies whose errors are measured against the DOP853 reference
CONVERGENCE = tuple(
    ("convergence", "--scheme", label)
    for label in ("ESSPRK(3,3,2)", "ESSPRK(4,4,2)", "ESSPRK(5,4,2)")
) + (("convergence", "--scheme", "ESSPRK(4,4,2)", "--main-only"),)


def commands():
    labels = [entry.label for entry in catalog()]
    return ([[cmd, label] for cmd in ("check", "ssp") for label in labels]
            + [["catalog"]])


def stdout_of(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    return out.getvalue()


def capture():
    return {" ".join(argv): stdout_of(argv) for argv in commands()}


def test_every_catalog_label_is_captured():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(" ".join(argv) for argv in commands())


@pytest.mark.parametrize("argv", commands(), ids=" ".join)
def test_stdout_is_byte_identical(argv):
    golden = json.loads(GOLDEN.read_text())
    assert stdout_of(argv) == golden[" ".join(argv)]


def _runs_every_kernel():
    config = np.show_config(mode="dicts")
    blas = config.get("Build Dependencies", {}).get("blas", {})
    simd = config.get("SIMD Extensions", {})
    cpu = {*simd.get("baseline", []), *simd.get("found", [])}
    return ("DYNAMIC_ARCH" in blas.get("openblas configuration", "")
            and bool({"X86_V4", "AVX512_SKX"} & cpu))


def _one_hash_per_kernel(script):
    """SHA-256 prefix of the stdout of ``script`` in one child per kernel."""
    from conftest import run_python  # not on the path of a script run

    hashes = {}
    for kernel in KERNELS:
        proc = run_python(
            "import os\n"
            f"os.environ['OPENBLAS_CORETYPE'] = {kernel!r}\n" + script,
            timeout=120,
        )
        assert proc.returncode == 0, (kernel, proc.stderr[-2000:])
        hashes[kernel] = hashlib.sha256(proc.stdout.encode()).hexdigest()[:16]
    return hashes


every_kernel = pytest.mark.skipif(
    not _runs_every_kernel(),
    reason="needs an OpenBLAS DYNAMIC_ARCH build on an AVX-512 CPU",
)


@every_kernel
def test_one_output_on_every_blas_kernel():
    # the radii of the exact tests follow the screen's bisection path
    hashes = _one_hash_per_kernel(
        "import runpy\n"
        "from essprk import ssp\n"
        "radii, exact = [], ssp.abs_monotonic\n"
        "ssp.abs_monotonic = lambda t, r: radii.append(r) or exact(t, r)\n"
        f"runpy.run_path({str(Path(__file__))!r}, run_name='__main__')\n"
        "print(radii)\n"
    )
    assert len(set(hashes.values())) == 1, hashes


@every_kernel
def test_convergence_one_output_on_every_blas_kernel():
    # one cold reference per child, shared by its four studies
    hashes = _one_hash_per_kernel(
        "from essprk.cli import main\n"
        f"for argv in {CONVERGENCE!r}:\n"
        "    assert main(list(argv)) == 0\n"
    )
    assert len(set(hashes.values())) == 1, hashes


@every_kernel
def test_burgers_one_output_on_every_blas_kernel():
    # 135 rk_step steps on 200 cells, the total variation printed after each
    hashes = _one_hash_per_kernel(
        "from essprk.cli import main\n"
        "assert main(['burgers', '--scheme', 'ESSPRK(4,4,2)', '--sigma', '0.9']) == 0\n"
    )
    assert len(set(hashes.values())) == 1, hashes


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
