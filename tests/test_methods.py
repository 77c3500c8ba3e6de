"""Closed-form families and the verified method catalog."""

import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from essprk.errors import DomainError
from essprk.methods import (
    DEFAULT_GAMMA_332,
    DEFAULT_GAMMA_432,
    catalog,
    essprk_332,
    essprk_432,
    family_n2p1,
    lookup,
    ssprk_33,
    ssprk_43,
)
from essprk.order_conditions import (
    EffectiveOrderSpec,
    classical_order,
    effective_order,
    effective_order_residuals,
    elementary_weights,
)
from essprk.ssp import ssp_coefficient
from essprk.tableau import shu_osher_to_butcher


class TestThreeStageFamily:
    @pytest.mark.parametrize("gamma", np.linspace(0.25, 1.0, 5).tolist())
    def test_coefficient_is_constant(self, gamma):
        t = essprk_332(gamma)
        assert ssp_coefficient(t).coefficient == pytest.approx(1.0, abs=1e-8)
        assert effective_order(t) == 3

    def test_left_endpoint_is_the_classical_method(self, ssprk33):
        t = essprk_332(0.25)
        assert np.allclose(t.A, ssprk33.A, atol=1e-15)
        assert np.allclose(t.b, ssprk33.b, atol=1e-15)
        assert classical_order(t) == 3

    def test_right_endpoint_weights(self):
        assert np.allclose(essprk_332(1.0).b, [2 / 3, 1 / 6, 1 / 6], atol=1e-15)

    def test_interior_members_have_classical_order_two(self):
        assert classical_order(essprk_332(DEFAULT_GAMMA_332)) == 2

    @pytest.mark.parametrize("gamma", [0.2, 1.05, -1.0])
    def test_domain(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            essprk_332(gamma)


class TestFourStageFamily:
    @pytest.mark.parametrize("gamma", np.linspace(1 / 6, 0.5, 5).tolist())
    def test_coefficient_is_constant(self, gamma):
        t = essprk_432(gamma)
        assert ssp_coefficient(t).coefficient == pytest.approx(2.0, abs=1e-8)
        assert effective_order(t) == 3

    def test_left_endpoint_is_the_classical_method(self):
        t = essprk_432(1 / 6)
        ref = ssprk_43()
        assert np.allclose(t.A, ref.A, atol=1e-15)
        assert np.allclose(t.b, ref.b, atol=1e-15)
        assert classical_order(t) == 3

    def test_right_endpoint_weights(self):
        assert np.allclose(essprk_432(0.5).b, [1 / 2, 1 / 6, 1 / 6, 1 / 6], atol=1e-15)

    def test_interior_members_have_classical_order_two(self):
        assert classical_order(essprk_432(DEFAULT_GAMMA_432)) == 2

    @pytest.mark.parametrize("gamma", [0.1, 0.51])
    def test_domain(self, gamma):
        with pytest.raises(DomainError, match="gamma"):
            essprk_432(gamma)


class TestSparseFamily:
    @pytest.mark.parametrize("n,expected", [(3, 6.0), (4, 12.0)])
    @pytest.mark.parametrize("branch", ["plus", "minus"])
    def test_coefficient_and_orders(self, n, expected, branch):
        form = family_n2p1(n, branch)
        t = shu_osher_to_butcher(form)
        assert t.s == n * n + 1
        assert ssp_coefficient(t).coefficient == pytest.approx(expected, abs=1e-6)
        res = effective_order_residuals(
            elementary_weights(t), EffectiveOrderSpec(4, 2)
        )
        assert np.max(np.abs(res)) <= 1e-10
        assert classical_order(t) == 2
        assert effective_order(t) == 4

    def test_known_small_case_entries(self):
        form = family_n2p1(3, "plus")
        assert form.v[0] == 1.0
        assert form.v[10] == pytest.approx(0.04, abs=1e-15)
        assert form.alpha[6, 0] == pytest.approx(0.5, abs=1e-15)
        assert form.alpha[10, 9] == pytest.approx(0.48, abs=1e-12)
        assert form.alpha[10, 4] == pytest.approx(0.48, abs=1e-12)
        assert family_n2p1(3, "minus").alpha[6, 0] == pytest.approx(0.3, abs=1e-15)

    def test_known_larger_case_entries(self):
        form = family_n2p1(4, "plus")
        assert form.v[17] == pytest.approx(1 / 85, abs=1e-15)
        assert form.alpha[11, 3] == pytest.approx((15 + math.sqrt(21)) / 42, abs=1e-15)

    def test_chain_structure(self):
        form = family_n2p1(3)
        # each stage feeds the next; one row splits between two sources
        for i in range(1, 10):
            expected = 1.0 if i != 6 else 1.0 - form.alpha[6, 0]
            assert form.alpha[i, i - 1] == pytest.approx(expected, abs=1e-15)
        assert np.count_nonzero(form.alpha[10]) == 2

    def test_domain(self):
        with pytest.raises(DomainError, match="n >= 3"):
            family_n2p1(2)
        with pytest.raises(DomainError, match="branch"):
            family_n2p1(3, "either")


class TestCatalog:
    def test_all_entries_present(self):
        labels = [e.label for e in catalog()]
        assert labels == [
            "ESSPRK(3,3,2)",
            "ESSPRK(4,3,2)",
            "ESSPRK(4,4,2)",
            "ESSPRK(4,4,3)",
            "ESSPRK(5,4,2)",
            "ESSPRK(10,4,2)",
            "ESSPRK(17,4,2)",
            "SSPRK(3,3)",
            "SSPRK(4,3)",
        ]

    def test_lookup(self):
        entry = lookup("ESSPRK(4,4,2)")
        assert entry.main.s == 4
        with pytest.raises(DomainError, match="available"):
            lookup("ESSPRK(9,9,9)")

    def test_orders_match_labels(self):
        for e in catalog():
            assert effective_order(e.main) >= e.q, e.label
            assert classical_order(e.main) == e.p, e.label

    def test_coefficients_match_reference_values(self):
        for e in catalog():
            measured = ssp_coefficient(e.main).coefficient
            assert measured >= e.ssp_coefficient - 0.005, e.label
            assert measured == pytest.approx(e.ssp_coefficient, abs=0.005), e.label

    def test_companion_stage_counts(self):
        for e in catalog():
            if e.label.startswith("ESSPRK") and e.main.s <= 5:
                assert e.start is not None and e.stop is not None, e.label
                assert e.start.s == e.main.s + 1
                assert e.stop.s == e.main.s
            else:
                assert e.start is None and e.stop is None

    def test_companions_are_usable_at_full_step_sizes(self):
        for e in catalog():
            if e.start is None:
                continue
            for t in (e.start, e.stop):
                assert ssp_coefficient(t).coefficient >= e.ssp_coefficient - 0.005

    def test_four_stage_anchor_weight(self):
        # frozen 15-digit coefficient files survive the round trip exactly
        entry = lookup("ESSPRK(4,4,2)")
        assert entry.main.b[0] == float("0.384422161080494")

    def test_stop_method_anchor_abscissa(self):
        entry = lookup("ESSPRK(4,4,3)")
        assert entry.stop.c[1] == float("0.556337718891090")


def test_data_files_follow_their_package(tmp_path):
    # a second copy of the library under another name, with no essprk on
    # the path, reads the data files inside itself
    src = Path(__file__).resolve().parents[1] / "src" / "essprk"
    shutil.copytree(src, tmp_path / "essprk_copy",
                    ignore=shutil.ignore_patterns("__pycache__"))
    script = (
        "import sys\n"
        "from essprk_copy.methods import catalog, dop853\n"
        "assert len(catalog()) > 0 and dop853().s == 12\n"
        "assert not any(m.split('.')[0] == 'essprk' for m in sys.modules)\n"
    )
    env = dict(os.environ, PYTHONPATH=str(tmp_path))
    done = subprocess.run([sys.executable, "-c", script], env=env, cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
