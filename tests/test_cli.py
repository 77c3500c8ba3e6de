"""Exit codes, output formats, and determinism of the command line."""

import importlib
import json
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from essprk import cli
from essprk.cli import _ssp_payload, main
from essprk.errors import TableauParseError
from essprk.methods import catalog, family_n2p1
from essprk.tableau import (
    ButcherTableau,
    ShuOsherForm,
    emit_shu_osher,
    emit_tableau,
    parse_shu_osher,
)

from conftest import (
    MALFORMED_DOCUMENTS,
    ROOT,
    _shu_osher_doc,
    _tableau_doc,
    run_module,
    run_python,
)


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_capped_cli(*argv):
    """Run the CLI in a child that caps its own address space at 2 GiB, so
    an allocation that gets past a size check fails there and cannot
    exhaust the host."""
    script = (
        "import resource, sys\n"
        "soft, hard = resource.getrlimit(resource.RLIMIT_AS)\n"
        "cap = 2 << 30\n"
        "if hard != resource.RLIM_INFINITY:\n"
        "    cap = min(cap, hard)\n"
        "resource.setrlimit(resource.RLIMIT_AS, (cap, hard))\n"
        "from essprk.cli import main\n"
        f"sys.exit(main({list(argv)!r}))\n"
    )
    return run_python(script, timeout=120)


@pytest.fixture()
def negative_weight_file(tmp_path):
    tableau = ButcherTableau(
        A=np.array([[0.0, 0.0], [0.5, 0.0]]),
        b=np.array([1.5, -0.5]),
        label="negative-demo",
    )
    path = tmp_path / "neg.json"
    path.write_bytes(emit_tableau(tableau))
    return str(path)


class TestCheck:
    def test_catalog_label(self, capsys):
        code, out, _ = run_cli(capsys, "check", "ESSPRK(4,4,2)")
        assert code == 0
        doc = json.loads(out)
        assert doc["stages"] == 4
        assert doc["classical_order"] == 2
        assert doc["effective_order"] == 4
        assert doc["ssp_coefficient"] == pytest.approx(0.88, abs=0.01)
        weights = doc["starting_weights"]
        assert weights[0] == 1.0 and weights[1] == 0.0
        # order-four slots stay free until a starting method fixes them
        assert weights[5:] == [None, None, None, None]

    def test_negative_weight_note(self, capsys, negative_weight_file):
        code, out, _ = run_cli(capsys, "check", negative_weight_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["ssp_coefficient"] == 0.0
        assert any("negative weight" in note for note in doc["notes"])

    def test_overflowing_entry_gives_verdict_silently(self, capsys, tmp_path):
        A = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0], [1e155, 0.25, 0.0]])
        path = tmp_path / "big.json"
        tableau = ButcherTableau(A=A, b=np.array([0.25, 0.25, 0.5]))
        path.write_bytes(emit_tableau(tableau))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, "check", str(path))
        assert code == 0 and err == ""
        assert json.loads(out)["classical_order"] == 1

    @pytest.mark.parametrize("entry", catalog(), ids=lambda e: e.label)
    def test_label_and_its_emitted_file_print_the_same(self, capsys, tmp_path, entry):
        # one tableau, one verdict: the stored layout of A does not depend
        # on whether it was converted, built or read back from a file
        path = tmp_path / "main.json"
        path.write_bytes(emit_tableau(entry.main))
        by_label = run_cli(capsys, "check", entry.label)
        assert by_label == run_cli(capsys, "check", str(path))

    def test_missing_target(self, capsys):
        code, _, err = run_cli(capsys, "check", "nope.json")
        assert code == 1
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_shu_osher_file(self, capsys, tmp_path):
        from essprk.methods import family_n2p1
        from essprk.tableau import emit_shu_osher

        path = tmp_path / "sparse.json"
        path.write_bytes(emit_shu_osher(family_n2p1(3)))
        code, out, _ = run_cli(capsys, "check", str(path))
        assert code == 0
        doc = json.loads(out)
        assert doc["stages"] == 10
        assert doc["effective_order"] == 4
        assert doc["ssp_coefficient"] == pytest.approx(6.0, abs=1e-6)


class TestOverflowingFiles:
    """Finite entries whose products overflow end as a verdict or an error.

    Either way the command writes no warning and no traceback, even with
    warnings turned into errors.
    """

    @staticmethod
    def assert_contained(capsys, command, path):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, str(path))
        if code == 0:
            assert err == ""
            json.loads(out)
        else:
            assert code in (1, 2)
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("command", ["check", "ssp"])
    def test_butcher_file(self, capsys, tmp_path, command):
        tableau = ButcherTableau(A=np.tril(np.full((3, 3), 1e300), -1),
                                 b=np.array([0.25, 0.25, 0.5]))
        path = tmp_path / "huge.json"
        path.write_bytes(emit_tableau(tableau))
        self.assert_contained(capsys, command, path)

    @pytest.mark.parametrize("command", ["check", "ssp"])
    def test_row_sum_past_float_range(self, capsys, tmp_path, command):
        # two finite entries whose sum, the abscissa c, overflows
        path = tmp_path / "huge-row.json"
        path.write_text(json.dumps({
            "label": "huge-row", "s": 3,
            "A": [[0.0, 0.0, 0.0], [0.5, 0.0, 0.0], [1.7e308, 1.7e308, 0.0]],
            "b": [0.25, 0.25, 0.5], "q": None, "p": None,
        }))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run_cli(capsys, command, str(path))
        assert (code, err) == (0, "")
        assert json.loads(out)["label"] == "huge-row"

    def test_shu_osher_file(self, capsys, tmp_path):
        alpha = np.array([[0.0, 0.0, 0.0], [-3.0, 0.0, 0.0],
                          [1e200, -1e200, 0.0], [0.5, 0.0, 0.5]])
        beta = np.array([[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                         [1.0, 1.0, 0.0], [0.0, 0.0, 0.5]])
        form = ShuOsherForm(v=1.0 - alpha.sum(axis=1), alpha=alpha, beta=beta)
        path = tmp_path / "huge-alpha.json"
        path.write_bytes(emit_shu_osher(form))
        self.assert_contained(capsys, "check", path)


class TestMalformedFiles:
    """Each kind of malformed file ends as `error: ...` with exit code 1."""

    @staticmethod
    def assert_rejected(capsys, tmp_path, kind):
        for k, (_, text) in enumerate(MALFORMED_DOCUMENTS[kind]):
            path = tmp_path / f"{kind}-{k}.json"
            path.write_text(text)
            code, out, err = run_cli(capsys, "check", str(path))
            assert code == 1, text
            assert out == ""
            assert err.startswith("error:") and err.count("\n") == 1
            assert "Traceback" not in err

    def test_non_finite_entry(self, capsys, tmp_path):
        self.assert_rejected(capsys, tmp_path, "non_finite")

    def test_bool_stage_count_or_order_tag(self, capsys, tmp_path):
        self.assert_rejected(capsys, tmp_path, "bool_field")

    def test_non_numeric_entry(self, capsys, tmp_path):
        self.assert_rejected(capsys, tmp_path, "non_numeric")

    def test_invalid_shu_osher_form(self, capsys, tmp_path):
        self.assert_rejected(capsys, tmp_path, "shu_osher_invalid")

    def test_shu_osher_file_reports_its_own_parse_error(self, capsys, tmp_path):
        path = tmp_path / "bad-v.json"
        path.write_text(_shu_osher_doc(v=[1.0, "x", 0.0]))
        code, _, err = run_cli(capsys, "check", str(path))
        assert code == 1
        assert err == "error: field 'v' is not numeric\n"
        for kind, documents in MALFORMED_DOCUMENTS.items():
            for k, (form, text) in enumerate(documents):
                if form != "shu_osher":
                    continue
                with pytest.raises(TableauParseError) as info:
                    parse_shu_osher(text)
                path = tmp_path / f"{kind}-{k}.json"
                path.write_text(text)
                _, _, err = run_cli(capsys, "check", str(path))
                assert err == f"error: {info.value}\n"


    @pytest.mark.parametrize("command", ["check", "ssp"])
    def test_huge_stage_count_is_refused_before_allocating(self, command, tmp_path):
        # a well-formed 1000-stage chain, 6 MB
        s = 1000
        A = np.eye(s, k=-1)
        path = tmp_path / "chain.json"
        path.write_text(json.dumps(
            {"label": "chain", "s": s, "A": A.tolist(), "b": A[-1].tolist(),
             "q": None, "p": None}
        ))
        proc = run_capped_cli(command, str(path))
        assert proc.returncode == 1, proc.stderr
        assert proc.stdout == ""
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_each_file_is_decoded_once(self, capsys, tmp_path, monkeypatch):
        documents = {
            "tableau": (_tableau_doc(label="heun"), 0),
            "shu_osher": (emit_shu_osher(family_n2p1(3)).decode(), 0),
            "bad_shu_osher": (_shu_osher_doc(v=[1.0, "x", 0.0]), 1),
            "not_json": ("{", 1),
            # a valid tableau stays one, whatever other keys it has
            "tableau_with_alpha": (_tableau_doc(label="heun", alpha=[]), 0),
        }
        decoded = []
        loads = json.loads

        def counted(*args, **kwargs):
            decoded.append(args[0])
            return loads(*args, **kwargs)

        monkeypatch.setattr(json, "loads", counted)
        for name, (text, exit_code) in documents.items():
            path = tmp_path / f"{name}.json"
            path.write_text(text)
            decoded.clear()
            code, out, _ = run_cli(capsys, "check", str(path))
            assert (code, len(decoded)) == (exit_code, 1), name
            if name.startswith("tableau"):
                assert loads(out)["label"] == "heun"


class TestSsp:
    def test_bracket_and_certificate(self, capsys):
        code, out, _ = run_cli(capsys, "ssp", "SSPRK(3,3)")
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficient"] == pytest.approx(1.0, abs=1e-8)
        lo, hi = doc["bracket"]
        assert lo <= doc["coefficient"] <= hi
        assert doc["certificate"]["feasible"] is True
        assert doc["certificate"]["radius"] == doc["coefficient"]

    def test_zero_coefficient(self, capsys, negative_weight_file):
        code, out, _ = run_cli(capsys, "ssp", negative_weight_file)
        assert code == 0
        doc = json.loads(out)
        assert doc["coefficient"] == 0.0
        assert doc["certificate"]["feasible"] is False

    def test_non_finite_certificate_serializes(self):
        tableau = ButcherTableau(
            A=np.array([[0.0, 0.0], [np.nan, 0.0]]), b=np.array([0.5, 0.5])
        )
        doc = json.loads(json.dumps(_ssp_payload(tableau, "nan"), allow_nan=False))
        assert doc["coefficient"] == 0.0
        assert doc["certificate"]["feasible"] is False
        assert doc["certificate"]["worst_entry"] is None


class TestOptimize:
    def test_three_stage_search(self, capsys, tmp_path):
        out_file = tmp_path / "found.json"
        argv = [
            "optimize", "--s", "3", "--q", "3", "--p", "2",
            "--seed", "0", "--restarts", "2", "--out", str(out_file),
        ]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        assert doc["converged"] is True
        assert doc["coefficient"] == pytest.approx(1.0, abs=1e-2)
        assert doc["worst_residual"] <= 1e-10
        assert out_file.exists()

        code2, out2, _ = run_cli(capsys, "check", str(out_file))
        assert code2 == 0
        parsed = json.loads(out2)
        assert parsed["effective_order"] == 3
        assert parsed["classical_order"] == 2

    def test_seeded_runs_are_byte_identical(self, capsys, tmp_path):
        argv = [
            "optimize", "--s", "3", "--q", "3", "--p", "2",
            "--seed", "7", "--restarts", "2",
        ]
        code_a, out_a, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "a.json"))
        code_b, out_b, _ = run_cli(capsys, *argv, "--out", str(tmp_path / "b.json"))
        assert code_a == code_b == 0
        assert out_a.replace("a.json", "b.json") == out_b
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json"
        ).read_bytes()

    def test_invalid_order_pair(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "optimize", "--s", "3", "--q", "2", "--p", "3",
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "error:" in err

    def test_negative_seed(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "optimize", "--s", "3", "--q", "3", "--p", "2",
            "--restarts", "1", "--seed", "-1", "--out", str(tmp_path / "x.json"),
        )
        assert code == 1
        assert "error:" in err
        assert "Traceback" not in err


    def test_huge_stage_count_is_refused_before_allocating(self, tmp_path):
        out_file = tmp_path / "x.json"
        proc = run_capped_cli(
            "optimize", "--s", "100000", "--q", "3", "--p", "2",
            "--restarts", "1", "--out", str(out_file),
        )
        assert proc.returncode == 1, proc.stderr
        assert "error:" in proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out_file.exists()


class TestCatalogCommand:
    def test_lists_every_entry(self, capsys):
        code, out, _ = run_cli(capsys, "catalog")
        assert code == 0
        rows = json.loads(out)
        assert [r["label"] for r in rows] == [e.label for e in catalog()]
        by_label = {r["label"]: r for r in rows}
        assert by_label["ESSPRK(4,3,2)"]["start_stages"] == 5
        assert by_label["ESSPRK(4,3,2)"]["stop_stages"] == 4
        assert by_label["SSPRK(3,3)"]["start_stages"] is None
        for r in rows:
            assert r["effective_ssp_coefficient"] == pytest.approx(
                r["ssp_coefficient"] / r["stages"]
            )

    def test_byte_identical(self, capsys):
        _, out_a, _ = run_cli(capsys, "catalog")
        _, out_b, _ = run_cli(capsys, "catalog")
        assert out_a == out_b


class TestConvergenceCommand:
    def test_composite_csv(self, capsys):
        code, out, err = run_cli(capsys, "convergence", "--scheme", "ESSPRK(4,3,2)")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,dt,error"
        assert len(lines) == 7
        errors = [float(line.split(",")[2]) for line in lines[1:]]
        assert all(a > b for a, b in zip(errors, errors[1:]))
        assert "slope" in err

    def test_unknown_scheme(self, capsys):
        code, _, err = run_cli(capsys, "convergence", "--scheme", "RK(99)")
        assert code == 1
        assert "error:" in err


class TestBurgersCommand:
    def test_published_setting_keeps_variation_low(self, capsys):
        code, out, err = run_cli(
            capsys, "burgers", "--scheme", "ESSPRK(4,4,2)",
            "--ic", "continuous", "--sigma", "0.88",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "step,t,total_variation"
        tv = np.array([float(line.split(",")[2]) for line in lines[1:]])
        assert tv[0] == pytest.approx(1.0)
        assert tv[-1] <= 1.0
        assert np.max(np.diff(tv)) <= 1e-10
        assert "monotone=True" in err

    def test_square_wave_past_limit(self, capsys):
        code, out, err = run_cli(
            capsys, "burgers", "--scheme", "ESSPRK(5,4,2)",
            "--ic", "square", "--sigma", "2.15",
        )
        assert code == 0
        assert "monotone=False" in err

    def test_main_only_accepted(self, capsys):
        code, out, _ = run_cli(
            capsys, "burgers", "--scheme", "SSPRK(3,3)",
            "--ic", "square", "--sigma", "0.9", "--tf", "0.2",
        )
        assert code == 0
        tv = np.array(
            [float(line.split(",")[2]) for line in out.strip().splitlines()[1:]]
        )
        assert np.max(np.diff(tv)) <= 1e-10

    def test_missing_sigma_is_usage_error(self, capsys):
        code, _, _ = run_cli(
            capsys, "burgers", "--scheme", "ESSPRK(4,4,2)"
        )
        assert code == 2

    @pytest.mark.parametrize("flag", ["--sigma", "--tf"])
    @pytest.mark.parametrize("value", ["inf", "nan", "0", "-1"])
    def test_bad_sigma_or_final_time_is_usage_error(self, capsys, flag, value):
        args = {"--sigma": "0.9", "--tf": "0.05", flag: value}
        code, out, err = run_cli(
            capsys, "burgers", "--scheme", "ESSPRK(4,4,2)",
            *[text for item in args.items() for text in item],
        )
        assert code == 2
        assert out == ""
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "positive and finite" in errors[0]

    @pytest.mark.parametrize(
        "flag, value",
        [("--sigma", "1e-320"), ("--sigma", "1e-300"), ("--sigma", "1e-12"),
         ("--sigma", "5e-324"), ("--tf", "1e300")],
    )
    def test_too_many_steps_is_an_error(self, capsys, no_stepping, flag, value):
        args = {"--sigma": "0.9", "--tf": "0.05", flag: value}
        code, out, err = run_cli(
            capsys, "burgers", "--scheme", "SSPRK(3,3)",
            *[text for item in args.items() for text in item],
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "more than the limit" in errors[0]

    def test_too_few_steps_names_sigma_and_final_time(self, capsys):
        code, out, err = run_cli(
            capsys, "burgers", "--scheme", "ESSPRK(4,4,2)",
            "--sigma", "50", "--tf", "0.01",
        )
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert errors == [
            "error: sigma=50.0 and tf=0.01 give 1 step; "
            "a composite run needs at least 3"
        ]


class TestSigmaTableCommand:
    def test_rows_and_safety_margin(self, capsys):
        code, out, _ = run_cli(capsys, "sigma-table")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "q,p,s,sigma_max,percent_over_C"
        assert len(lines) == 6
        coefficients = {
            (e.q, e.p, e.main.b.size): e.ssp_coefficient
            for e in catalog()
            if e.start is not None
        }
        for line in lines[1:]:
            q, p, s, sigma, over = line.split(",")
            key = (int(q), int(p), int(s))
            assert key in coefficients
            assert float(sigma) >= coefficients[key] - 0.03

    def test_byte_identical(self, capsys):
        _, out_a, _ = run_cli(capsys, "sigma-table")
        _, out_b, _ = run_cli(capsys, "sigma-table")
        assert out_a == out_b

    @pytest.mark.parametrize("tol", ["nan", "inf", "0", "-0.01", "1e-400"])
    def test_bad_tolerance_is_usage_error(self, capsys, tol):
        code, out, err = run_cli(capsys, "sigma-table", "--tol", tol)
        assert code == 2
        assert out == ""
        assert "bisecting" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "positive and finite" in errors[0]

    @pytest.mark.parametrize("tf", ["nan", "inf", "0", "-0.6"])
    def test_bad_final_time_is_usage_error(self, capsys, tf):
        code, out, err = run_cli(capsys, "sigma-table", "--tf", tf)
        assert code == 2
        assert out == ""
        assert "bisecting" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "positive and finite" in errors[0]

    def test_too_few_steps_names_sigma_and_final_time(self, capsys):
        # the 2C probe of the first composite gets 2 steps at tf 0.02
        code, out, err = run_cli(capsys, "sigma-table", "--tf", "0.02")
        assert code == 1
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "sigma=" in errors[0] and "tf=0.02 give 2 steps" in errors[0]

    def test_too_many_steps_is_an_error(self, capsys, no_stepping):
        code, out, err = run_cli(capsys, "sigma-table", "--tf", "1e300")
        assert code == 1
        # no partial table: the header waits for every bisection
        assert out == ""
        assert "Traceback" not in err
        errors = [line for line in err.splitlines() if "error:" in line]
        assert len(errors) == 1
        assert "more than the limit" in errors[0]


class TestUsageErrors:
    def test_no_arguments(self, capsys):
        assert run_cli(capsys)[0] == 2

    def test_unknown_command(self, capsys):
        assert run_cli(capsys, "frobnicate")[0] == 2

    def test_help_exits_cleanly(self, capsys):
        code, out, _ = run_cli(capsys, "--help")
        assert code == 0
        assert "subcommand" in out or "usage" in out


class TestParserReuse:
    CALLS = [
        ["check", "SSPRK(3,3)"],
        ["ssp", "ESSPRK(4,4,2)"],
        ["burgers", "--scheme", "ESSPRK(4,4,2)"],
        ["burgers", "--scheme", "ESSPRK(4,4,2)", "--sigma", "0.9",
         "--tf", "0.05", "--main-only"],
        ["burgers", "--scheme", "ESSPRK(4,4,2)", "--sigma", "0.9",
         "--tf", "0.05"],
        ["check", "ESSPRK(4,4,2)"],
    ]

    def _outputs(self, capsys):
        return [run_cli(capsys, *argv) for argv in self.CALLS]

    def test_one_parser_per_process(self):
        assert cli._parser() is cli._parser()
        assert cli.build_parser() is not cli.build_parser()
        assert cli.build_parser() is not cli._parser()

    def test_same_output_as_a_fresh_parser(self, capsys, monkeypatch):
        cached = self._outputs(capsys)
        monkeypatch.setattr(cli, "_parser", cli.build_parser)
        fresh = self._outputs(capsys)
        assert cached == fresh
        assert [code for code, _, _ in cached] == [0, 0, 2, 0, 0, 0]
        # the flag given in one call does not stick to the next
        assert cached[3][1] != cached[4][1]


_JSON_SCALARS = (
    st.none()
    | st.booleans()
    | st.integers(-(10**20), 10**20)
    | st.floats()
    | st.text(max_size=4)
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_ENTRIES = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, 1.0, -1.0, 0.5, 1e-300, 1e300, -1e300, 1.7e308]
)


@st.composite
def _documents(draw):
    """Tableau and Shu-Osher documents, mostly well shaped, with any entries."""
    s = draw(st.integers(1, 4))
    matrix = st.lists(st.lists(_ENTRIES, min_size=s, max_size=s),
                      min_size=s, max_size=s + 1)
    vector = st.lists(_ENTRIES, min_size=s, max_size=s + 1)
    fields = {
        "label": st.text(max_size=4) | _JSON_VALUES,
        "s": st.just(s) | _JSON_VALUES,
        "A": matrix.map(lambda rows: [
            [0.0 if j >= i else x for j, x in enumerate(row)]
            for i, row in enumerate(rows)
        ]) | matrix | _JSON_VALUES,
        "b": vector | _JSON_VALUES,
        "q": st.sampled_from([None, 2, 3, 4]) | _JSON_VALUES,
        "p": st.sampled_from([None, 1, 2, 3]) | _JSON_VALUES,
        "v": vector | _JSON_VALUES,
        "alpha": matrix | _JSON_VALUES,
        "beta": matrix | _JSON_VALUES,
    }
    keys = draw(st.sets(st.sampled_from(sorted(fields))))
    return {key: draw(fields[key]) for key in sorted(keys)}


class TestFuzzedFiles:
    """Whatever a file holds, check and ssp end with exit 0, 1 or 2."""

    def _assert_contained(self, capsys, path):
        for command in ("check", "ssp"):
            code, _, err = run_cli(capsys, command, str(path))
            assert code in (0, 1, 2)
            assert "Traceback" not in err

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.binary(max_size=200))
    def test_random_bytes(self, capsys, tmp_path, data):
        path = tmp_path / "doc.json"
        path.write_bytes(data)
        self._assert_contained(capsys, path)

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(doc=_documents() | _JSON_VALUES)
    def test_random_documents(self, capsys, tmp_path, doc):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        self._assert_contained(capsys, path)


def test_commands_leave_scipy_optimize_unloaded():
    script = (
        "import contextlib, io, sys\n"
        "import essprk\n"
        "from essprk import cli\n"
        "essprk.catalog()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['check', 'SSPRK(3,3)']) == 0\n"
        "assert 'scipy.optimize' not in sys.modules\n"
        "from essprk import optimize_main\n"
        "assert optimize_main is sys.modules['essprk.optimizer'].optimize_main\n"
    )
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_commands_leave_scipy_unloaded(tmp_path):
    # only the optimizer needs scipy
    path = tmp_path / "sparse.json"
    path.write_bytes(emit_shu_osher(family_n2p1(3)))
    script = (
        "import contextlib, io, sys\n"
        "def scipy_modules():\n"
        "    return [m for m in sys.modules if m.split('.')[0] == 'scipy']\n"
        "import essprk\n"
        "from essprk import cli\n"
        "essprk.catalog()\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    for command in ('check', 'ssp'):\n"
        f"        for target in ('SSPRK(3,3)', {str(path)!r}):\n"
        "            assert cli.main([command, target]) == 0\n"
        "assert not scipy_modules(), scipy_modules()\n"
        "essprk.optimize_main\n"
        "assert 'scipy.optimize' in sys.modules\n"
    )
    proc = run_python(script, timeout=120)
    assert proc.returncode == 0, proc.stderr


def test_python_dash_m_essprk_runs_the_cli():
    package = run_module("essprk", "catalog", timeout=120)
    module = run_module("essprk.cli", "catalog", timeout=120)
    assert package.returncode == 0, package.stderr
    assert package.stdout == module.stdout
    assert json.loads(package.stdout)[0]["label"] == "ESSPRK(3,3,2)"


def test_console_script_names_cli_main(capsys):
    # the essprk line of [project.scripts], read as text: tomllib is 3.11+
    text = (ROOT / "pyproject.toml").read_text()
    scripts = text.split("[project.scripts]", 1)[1].split("\n[", 1)[0]
    target = re.search(r'^essprk\s*=\s*"([\w.]+):(\w+)"', scripts, re.M)
    assert target is not None, scripts
    entry = getattr(importlib.import_module(target[1]), target[2])
    assert entry is main
    assert entry(["catalog"]) == 0
    assert json.loads(capsys.readouterr().out)[0]["label"] == "ESSPRK(3,3,2)"
