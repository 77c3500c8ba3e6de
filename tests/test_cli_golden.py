"""Byte-stable CLI output: ``check`` and ``ssp`` for every catalog label, and
``catalog``.

``data/cli_golden.json`` holds the stdout each command printed when the
fixture was captured.  Any change to a printed byte, the last digit of a
float included, fails here.  To capture it again after an intended change
of output:

    PYTHONPATH=src python tests/test_cli_golden.py > tests/data/cli_golden.json
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from essprk.cli import main
from essprk.methods import catalog

GOLDEN = Path(__file__).resolve().parent / "data" / "cli_golden.json"


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


if __name__ == "__main__":
    json.dump(capture(), sys.stdout, indent=1, sort_keys=True)
    sys.stdout.write("\n")
