"""Tableau and Shu-Osher representations: construction, conversion, files."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular

from essprk.errors import DomainError, TableauParseError
from essprk.methods import family_n2p1
from essprk.tableau import (
    ButcherTableau,
    ShuOsherForm,
    emit_shu_osher,
    emit_tableau,
    parse_shu_osher,
    parse_tableau,
    shu_osher_to_butcher,
)

from conftest import MALFORMED_DOCUMENTS, make_random_tableau


def classic_shu_osher_33():
    # u1 = u + dt F(u); u2 = 3/4 u + 1/4 (u1 + dt F(u1));
    # u+ = 1/3 u + 2/3 (u2 + dt F(u2))
    v = np.array([1.0, 0.0, 0.75, 1 / 3])
    alpha = np.zeros((4, 3))
    beta = np.zeros((4, 3))
    alpha[1, 0] = beta[1, 0] = 1.0
    alpha[2, 1] = beta[2, 1] = 0.25
    alpha[3, 2] = beta[3, 2] = 2 / 3
    return ShuOsherForm(v=v, alpha=alpha, beta=beta)


def reference_shu_osher_to_butcher(form):
    """Oracle: the conversion's (A, b) by scipy's triangular solve.

    Its bits depend on scipy's BLAS kernel; ``shu_osher_to_butcher`` agrees
    with it to ``SOLVE_TOL`` of :func:`absolute_rows`.
    """
    s = form.s
    al, be = form.alpha, form.beta
    A = solve_triangular(np.eye(s) - al[:s], be[:s], lower=True,
                         unit_diagonal=True, check_finite=False)
    return A, be[s] + al[s] @ A


def ordered_shu_osher_to_butcher(form):
    """Oracle: the recursion ``shu_osher_to_butcher`` documents, one term at
    a time: row i of [A; b] is beta_i plus the sum of alpha_ij row_j taken
    over j < i left to right, so the bits must match."""
    rows = [form.beta[0]]
    for i in range(1, form.s + 1):
        total = 0.0
        for j in range(i):
            total = total + form.alpha[i, j] * rows[j]
        rows.append(form.beta[i] + total)
    return np.array(rows[:-1]), rows[-1]


def absolute_rows(form):
    """The recursion run on |alpha| and |beta|: it bounds the terms summed
    into each entry of [A; b], the scale that rounding errors of any
    summation order have."""
    al, rows = np.abs(form.alpha), np.abs(form.beta)
    for i in range(1, form.s + 1):
        rows[i] += (al[i, :i, None] * rows[:i]).sum(axis=0)
    return rows


# Measured against scipy's solve (its OpenBLAS on the SkylakeX kernel) over
# TestConversionOracle: at most 6.6e-16 of the absolute rows, 3 units of
# roundoff.  The tolerance allows about six times that.
SOLVE_TOL = 4e-15


def _random_form(rng, alpha_lo, alpha_hi):
    """Random explicit form of 2-17 stages; v closes each row to one."""
    s = int(rng.integers(2, 18))
    below = np.tril(np.ones((s + 1, s)), -1)
    alpha = rng.uniform(alpha_lo, alpha_hi, (s + 1, s)) * below
    beta = rng.uniform(0.0, 1.0, (s + 1, s)) * below
    return ShuOsherForm(v=1.0 - alpha.sum(axis=1), alpha=alpha, beta=beta)


def _paired_form(rng, x):
    """Random form whose rows from stage 2 on hold alpha = +y and -y, |y| <= x.

    The pair cancels exactly in v + sum(alpha), so x may be huge.
    """
    s = int(rng.integers(3, 18))
    alpha = np.zeros((s + 1, s))
    for i in range(2, s + 1):
        j, k = rng.choice(i, size=2, replace=False)
        alpha[i, j] = x * rng.uniform(-1.0, 1.0)
        alpha[i, k] = -alpha[i, j]
    beta = rng.uniform(0.0, 1.0, (s + 1, s)) * np.tril(np.ones((s + 1, s)), -1)
    return ShuOsherForm(v=np.ones(s + 1), alpha=alpha, beta=beta)


class TestButcherTableau:
    def test_c_is_row_sums(self, ssprk33):
        assert np.array_equal(ssprk33.c, ssprk33.A.sum(axis=1))
        assert ssprk33.s == 3

    def test_arrays_frozen(self, ssprk33):
        with pytest.raises(ValueError):
            ssprk33.A[0, 0] = 1.0
        with pytest.raises(ValueError):
            ssprk33.b[0] = 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            ButcherTableau(A=np.zeros((3, 3)), b=np.zeros(2))
        with pytest.raises(ValueError):
            ButcherTableau(A=np.zeros((2, 3)), b=np.zeros(3))
        with pytest.raises(ValueError):
            ButcherTableau(A=np.zeros((1, 1)), b=np.zeros((1, 1)))

    def test_construction_rejects_upper_entries(self):
        # stepping would read the lower triangle and the row sums the whole A
        A = np.array([[0.0, 5.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match=r"A\[0,1\] != 0 on or above"):
            ButcherTableau(A=A, b=np.array([0.5, 0.5]))

    @pytest.mark.parametrize(
        "entries, first",
        [
            ({(0, 1): np.nan}, "0,1"),
            ({(2, 2): -np.inf}, "2,2"),
            ({(1, 2): 1.0, (0, 2): np.nan, (2, 0): 3.0}, "0,2"),
        ],
    )
    def test_construction_names_first_nonzero_or_nan_upper_entry(
        self, entries, first
    ):
        A = np.zeros((3, 3))
        A[1, 0] = 1.0
        for ij, value in entries.items():
            A[ij] = value
        with pytest.raises(ValueError, match=rf"A\[{first}\] != 0 on or above"):
            ButcherTableau(A=A, b=np.full(3, 1 / 3))


class TestShuOsher:
    def test_conversion_matches_classic_method(self, ssprk33):
        t = shu_osher_to_butcher(classic_shu_osher_33())
        assert np.allclose(t.A, ssprk33.A, atol=1e-15)
        assert np.allclose(t.b, ssprk33.b, atol=1e-15)

    def test_rejects_diagonal_reference(self):
        v = np.array([1.0, 0.0])
        alpha = np.zeros((2, 1))
        beta = np.zeros((2, 1))
        beta[0, 0] = 1.0  # stage 0 cannot use itself
        with pytest.raises(ValueError, match="explicit"):
            ShuOsherForm(v=v, alpha=alpha, beta=beta)

    def test_rejects_inconsistent_rows(self):
        v = np.array([1.0, 0.5])
        alpha = np.zeros((2, 1))
        beta = np.zeros((2, 1))
        alpha[1, 0] = 0.4  # v + sum(alpha) = 0.9
        with pytest.raises(ValueError, match="expected 1"):
            ShuOsherForm(v=v, alpha=alpha, beta=beta)

    @pytest.mark.parametrize("field,index", [("v", (2,)), ("alpha", (2, 1))])
    def test_rejects_nan_stage_row(self, field, index):
        form = classic_shu_osher_33()
        parts = {"v": form.v.copy(), "alpha": form.alpha.copy(), "beta": form.beta}
        parts[field][index] = np.nan
        with pytest.raises(ValueError, match="expected 1"):
            ShuOsherForm(**parts)

    def test_nan_beta_converts_to_non_finite_tableau(self):
        form = classic_shu_osher_33()
        beta = form.beta.copy()
        beta[2, 0] = np.nan
        with pytest.raises(DomainError, match="non-finite tableau"):
            shu_osher_to_butcher(ShuOsherForm(v=form.v, alpha=form.alpha, beta=beta))

    def test_file_round_trip(self):
        form = classic_shu_osher_33()
        back = parse_shu_osher(emit_shu_osher(form))
        assert np.array_equal(back.v, form.v)
        assert np.array_equal(back.alpha, form.alpha)
        assert np.array_equal(back.beta, form.beta)


class TestConversionOracle:
    """``shu_osher_to_butcher`` gives the ordered recursion bit for bit, and
    scipy's triangular solve to rounding."""

    @staticmethod
    def assert_matches(form):
        tableau = shu_osher_to_butcher(form)
        A, b = ordered_shu_osher_to_butcher(form)
        assert tableau.A.flags.c_contiguous
        assert tableau.A.tobytes() == A.tobytes()
        assert tableau.b.tobytes() == b.tobytes()
        A1, b1 = reference_shu_osher_to_butcher(form)
        got = np.vstack([tableau.A, tableau.b])
        assert (np.abs(got - np.vstack([A1, b1]))
                <= SOLVE_TOL * absolute_rows(form)).all()

    def test_classic_method(self):
        self.assert_matches(classic_shu_osher_33())

    @pytest.mark.parametrize("branch", ["plus", "minus"])
    @pytest.mark.parametrize("n", [3, 4, 5, 6])
    def test_sparse_family(self, n, branch):
        self.assert_matches(family_n2p1(n, branch))

    def test_random_convex_forms(self):
        rng = np.random.default_rng(20123)
        for _ in range(1000):
            self.assert_matches(_random_form(rng, 0.0, 1.0))

    def test_random_forms_with_large_alpha(self):
        rng = np.random.default_rng(20124)
        tested = 0
        while tested < 1000:
            form = _random_form(rng, -3.0, 3.0)
            if np.abs(form.alpha).max() > 1.0:
                self.assert_matches(form)
                tested += 1

    @pytest.mark.parametrize("x", [1e12, 1e18])
    def test_random_forms_with_huge_alpha(self, x):
        rng = np.random.default_rng(20125)
        for _ in range(200):
            self.assert_matches(_paired_form(rng, x))

    def test_alpha_products_beyond_the_float_range_are_refused(self):
        # 1e200 * 1e200 overflows in row 3
        alpha = np.zeros((5, 4))
        alpha[2, :2] = [1e200, -1e200]
        alpha[3, [0, 2]] = [1e200, -1e200]
        alpha[4, 3] = 1.0
        beta = np.zeros((5, 4))
        beta[1, 0] = beta[4, 3] = 1.0
        form = ShuOsherForm(v=1.0 - alpha.sum(axis=1), alpha=alpha, beta=beta)
        with pytest.raises(DomainError, match="non-finite tableau"):
            shu_osher_to_butcher(form)


class TestTableauFiles:
    def test_round_trip_preserves_metadata(self, ssprk33):
        t = ButcherTableau(A=ssprk33.A, b=ssprk33.b, label="demo", q=3, p=3)
        back = parse_tableau(emit_tableau(t))
        assert np.array_equal(back.A, t.A)
        assert np.array_equal(back.b, t.b)
        assert (back.label, back.q, back.p) == ("demo", 3, 3)

    def test_emit_is_stable(self, rk4):
        doc = emit_tableau(rk4)
        assert emit_tableau(parse_tableau(doc)) == doc

    @pytest.mark.parametrize(
        "mutate",
        [
            lambda d: d.pop("s"),
            lambda d: d.pop("A"),
            lambda d: d.pop("b"),
            lambda d: d.update(s="3"),
            lambda d: d.update(s=0),
            lambda d: d.update(b=[1.0]),
            lambda d: d.update(A=[[0.0]]),
            lambda d: d.update(label=7),
            lambda d: d.update(q="four"),
            lambda d: d.update(A=[["x", 0], [0, 0]], b=[0.5, 0.5], s=2),
        ],
    )
    def test_parse_rejects_malformed_documents(self, ssprk33, mutate):
        doc = json.loads(emit_tableau(ssprk33))
        mutate(doc)
        with pytest.raises(TableauParseError):
            parse_tableau(json.dumps(doc))

    def test_parse_rejects_garbage(self):
        with pytest.raises(TableauParseError):
            parse_tableau("{not json")
        with pytest.raises(TableauParseError):
            parse_tableau("[1, 2]")

    def test_parse_rejects_implicit_matrix(self):
        doc = {"s": 2, "A": [[0.0, 0.5], [0.5, 0.0]], "b": [0.5, 0.5]}
        with pytest.raises(TableauParseError, match="explicit"):
            parse_tableau(json.dumps(doc))

    @settings(max_examples=50, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), s=st.integers(1, 8))
    def test_round_trip_random(self, seed, s):
        t = make_random_tableau(np.random.default_rng(seed), s, nonnegative=False)
        back = parse_tableau(emit_tableau(t))
        assert np.array_equal(back.A, t.A)
        assert np.array_equal(back.b, t.b)


PARSERS = {"tableau": parse_tableau, "shu_osher": parse_shu_osher}

_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(max_size=3)
    | st.floats(allow_nan=True, allow_infinity=True),
    lambda inner: st.lists(inner, max_size=4),
    max_leaves=12,
)


class TestParserTotality:
    @pytest.mark.parametrize(
        "kind, match",
        [
            ("non_finite", "non-finite"),
            ("bool_field", "integer"),
            ("non_numeric", "not numeric"),
            ("shu_osher_invalid", "invalid Shu-Osher form"),
        ],
    )
    def test_known_malformed_kinds_rejected(self, kind, match):
        for form, text in MALFORMED_DOCUMENTS[kind]:
            with pytest.raises(TableauParseError, match=match):
                PARSERS[form](text)

    def test_undecodable_bytes_rejected(self):
        for parse in PARSERS.values():
            with pytest.raises(TableauParseError, match="UTF-8"):
                parse(b"\xff\xfe{")

    def test_deep_nesting_rejected(self):
        for parse in PARSERS.values():
            with pytest.raises(TableauParseError, match="malformed JSON"):
                parse("[" * 100_000 + "]" * 100_000)

    @settings(max_examples=200, deadline=None)
    @given(
        form=st.sampled_from(["tableau", "shu_osher"]),
        field=st.sampled_from(["s", "A", "b", "q", "p", "v", "alpha", "beta"]),
        value=_json_values,
    )
    def test_any_field_value_parses_finite_or_raises(self, form, field, value):
        so = classic_shu_osher_33()
        if form == "tableau":
            doc = json.loads(emit_tableau(shu_osher_to_butcher(so)))
        else:
            doc = json.loads(emit_shu_osher(so))
        doc[field] = value
        try:
            out = PARSERS[form](json.dumps(doc))
        except TableauParseError:
            return
        arrays = (out.A, out.b) if form == "tableau" else (out.v, out.alpha, out.beta)
        assert all(np.isfinite(a).all() for a in arrays)

    @settings(max_examples=200, deadline=None)
    @given(data=st.binary(max_size=64))
    def test_any_bytes_parse_or_raise(self, data):
        for parse in PARSERS.values():
            try:
                parse(data)
            except TableauParseError:
                pass

    def test_overflowing_conversion_rejected(self):
        # every entry is finite, but the update row overflows to -inf
        v = np.array([1.0, 1.0, 1.0])
        alpha = np.zeros((3, 2))
        beta = np.zeros((3, 2))
        alpha[2] = [1e308, -1e308]
        beta[1, 0] = 1e308
        beta[2, 0] = 1e308
        form = ShuOsherForm(v=v, alpha=alpha, beta=beta)
        with pytest.raises(DomainError, match="non-finite"):
            shu_osher_to_butcher(form)
