"""Representations of explicit Runge-Kutta methods.

Two equivalent forms are supported: the Butcher tableau (A, b, c) and the
modified Shu-Osher form (v, alpha, beta), which writes each stage as a
combination of previous stages and is the natural home of sparse SSP
families.  Abscissae are always recomputed as row sums of A, never stored
independently.
"""
from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .errors import DomainError, TableauParseError

ROW_SUM_TOL = 1e-13
# the most stages a method file or a search takes: above the catalog's 17, and
# small enough that one tableau's tangents, s**2 (s**2 + s) / 2 floats, are 4 MB
MAX_STAGES = 32


def _frozen(a, shape=None):
    out = np.array(a, dtype=float, order="C")
    if shape is not None and out.shape != shape:
        raise ValueError(f"expected shape {shape}, got {out.shape}")
    out.flags.writeable = False
    return out


@lru_cache(maxsize=32)
def _on_or_above_diagonal(s: int) -> np.ndarray:
    mask = np.triu(np.ones((s, s), dtype=bool))
    mask.flags.writeable = False
    return mask


@dataclass(frozen=True, eq=False)
class ButcherTableau:
    """Coefficients of an explicit s-stage Runge-Kutta method.

    A is s x s strictly lower triangular, which construction enforces, and
    b the length-s weight vector.  A is stored C-ordered, whatever layout it
    comes in, so no result depends on how it was built.  c is derived from
    the row sums of A on construction, inf past the float range.  label, q
    and p are optional metadata carried through file round-trips; they are
    never trusted by the verification routines.
    """

    A: np.ndarray
    b: np.ndarray
    label: str | None = None
    q: int | None = None
    p: int | None = None
    c: np.ndarray = field(init=False)

    def __post_init__(self):
        b = _frozen(self.b)
        if b.ndim != 1 or b.size < 1:
            raise ValueError("b must be a nonempty vector")
        s = b.size
        A = _frozen(self.A, (s, s))
        # counts NaN as nonzero, so a NaN on or above the diagonal fails
        if np.count_nonzero(A[_on_or_above_diagonal(s)]):
            i, j = np.argwhere(np.triu(A))[0]
            raise ValueError(f"A[{i},{j}] != 0 on or above the diagonal")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        with np.errstate(over="ignore"):
            c = A.sum(axis=1)
        object.__setattr__(self, "c", _frozen(c))

    @property
    def s(self) -> int:
        return self.b.size


@dataclass(frozen=True, eq=False)
class ShuOsherForm:
    """Modified Shu-Osher form with s stages.

    Stage i is v_i * u + sum_{j<i} (alpha_ij Y_j + dt * beta_ij F(Y_j));
    the final row (index s) produces the step update.  alpha and beta are
    (s+1) x s, v has length s+1.
    """

    v: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray

    def __post_init__(self):
        v = _frozen(self.v)
        if v.ndim != 1 or v.size < 2:
            raise ValueError("v must have length s+1 with s >= 1")
        s = v.size - 1
        alpha = _frozen(self.alpha, (s + 1, s))
        beta = _frozen(self.beta, (s + 1, s))
        for name, m in (("alpha", alpha), ("beta", beta)):
            for i in range(s + 1):
                if np.any(m[i, i:] != 0.0):
                    raise ValueError(
                        f"{name} row {i} references stage >= {i} (not explicit)")
        # written so that a NaN row fails
        bad = ~(np.abs(v + alpha.sum(axis=1) - 1.0) <= ROW_SUM_TOL)
        if np.any(bad):
            i = int(np.nonzero(bad)[0][0])
            raise ValueError(
                f"row {i}: v + sum(alpha) = {v[i] + alpha[i].sum()!r}, expected 1")
        object.__setattr__(self, "v", v)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)

    @property
    def s(self) -> int:
        return self.v.size - 1


def shu_osher_to_butcher(form: ShuOsherForm, label: str | None = None,
                         q: int | None = None, p: int | None = None) -> ButcherTableau:
    """Convert a modified Shu-Osher form to the equivalent Butcher tableau.

    Unrolling the stage recursion gives the rows of [A; b] in one forward
    recursion over the s+1 rows: row i is beta_i + sum_j alpha_ij row_j,
    the sum taken over j < i in order, so b is its last row.  Products of
    alpha past the float range leave a non-finite tableau, which is refused.
    """
    al, K = form.alpha, np.array(form.beta)
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, form.s + 1):
            K[i] += (al[i, :i, None] * K[:i]).sum(axis=0)
    if not np.isfinite(K).all():
        raise DomainError("Shu-Osher form converts to a non-finite tableau")
    return ButcherTableau(A=K[:-1], b=K[-1], label=label, q=q, p=p)


def _is_int(value) -> bool:
    # a JSON true/false arrives as a bool, which Python counts as an int
    return isinstance(value, int) and not isinstance(value, bool)


def load_document(text):
    """The JSON value ``text`` decodes to; a value that is not text is
    taken as decoded already, so a document is decoded once."""
    if not isinstance(text, (bytes, bytearray, str)):
        return text
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        return json.loads(text)
    except UnicodeDecodeError as exc:
        raise TableauParseError(f"not UTF-8 text: {exc}") from exc
    except (json.JSONDecodeError, RecursionError) as exc:
        raise TableauParseError(f"malformed JSON: {exc}") from exc


def _stage_count(doc) -> int:
    if not isinstance(doc, dict):
        raise TableauParseError("top level must be an object")
    if "s" not in doc:
        raise TableauParseError("field 's' missing")
    s = doc["s"]
    if not _is_int(s) or not 1 <= s <= MAX_STAGES:
        raise TableauParseError(f"field 's' must be an integer in 1..{MAX_STAGES}")
    return s


def _numeric_field(obj, name: str, shape: tuple) -> np.ndarray:
    """The field as a float array of the given shape with finite entries.

    Every entry must be a JSON number: strings, booleans and nulls are
    rejected even where numpy would convert them, and so are NaN and the
    infinities, which Python's json module accepts.
    """
    try:
        arr = np.array(obj, dtype=float)
    except (TypeError, ValueError, OverflowError) as exc:
        raise TableauParseError(f"field '{name}' is not numeric") from exc
    if arr.shape != shape:
        raise TableauParseError(
            f"field '{name}' has shape {arr.shape}, expected {shape}")
    entries = obj if len(shape) == 1 else [x for row in obj for x in row]
    if not all(type(x) in (int, float) for x in entries):
        raise TableauParseError(f"field '{name}' is not numeric")
    if not np.isfinite(arr).all():
        raise TableauParseError(f"field '{name}' has a non-finite entry")
    return arr


def parse_tableau(text) -> ButcherTableau:
    """Read a tableau JSON document, as text or as the value it decodes to.

    Expected shape: {"label": str, "s": int, "A": [[...]], "b": [...],
    "q": int|null, "p": int|null}.  Rejects non-explicit A and non-finite
    or non-numeric entries; any malformed input raises TableauParseError.
    """
    doc = load_document(text)
    s = _stage_count(doc)
    if "A" not in doc:
        raise TableauParseError("field 'A' missing")
    if "b" not in doc:
        raise TableauParseError("field 'b' missing")
    A = _numeric_field(doc["A"], "A", (s, s))
    b = _numeric_field(doc["b"], "b", (s,))
    label = doc.get("label")
    if label is not None and not isinstance(label, str):
        raise TableauParseError("field 'label' must be a string or null")
    q, p = doc.get("q"), doc.get("p")
    for nm, val in (("q", q), ("p", p)):
        if val is not None and not _is_int(val):
            raise TableauParseError(f"field '{nm}' must be an integer or null")
    try:
        return ButcherTableau(A=A, b=b, label=label, q=q, p=p)
    except ValueError as exc:  # the fields above fix every other invariant
        raise TableauParseError(f"field 'A' is not explicit: {exc}") from exc


def _rows_json(m) -> str:
    return "[" + ",\n      ".join(json.dumps(list(r)) for r in m) + "]"


def emit_tableau(tableau: ButcherTableau) -> bytes:
    """Serialize to the tableau JSON document, one A row per line.

    Floats use shortest round-trip repr, so parse(emit(t)) reproduces t
    bit for bit and emit(parse(x)) is the identity on files produced here.
    """
    label = json.dumps(tableau.label if tableau.label is not None else "")
    text = (
        "{\n"
        f' "label": {label},\n'
        f' "s": {tableau.s},\n'
        f' "A": {_rows_json(tableau.A)},\n'
        f' "b": {json.dumps(list(tableau.b))},\n'
        f' "q": {json.dumps(tableau.q)},\n'
        f' "p": {json.dumps(tableau.p)}\n'
        "}\n"
    )
    return text.encode("utf-8")


def parse_shu_osher(text) -> ShuOsherForm:
    """Read a Shu-Osher JSON document {"s", "v", "alpha", "beta"}, as text
    or as the value it decodes to.

    Any malformed input, including a form that is not explicit or whose
    rows do not satisfy v + sum(alpha) = 1, raises TableauParseError.
    """
    doc = load_document(text)
    s = _stage_count(doc)
    v = _numeric_field(doc.get("v"), "v", (s + 1,))
    alpha = _numeric_field(doc.get("alpha"), "alpha", (s + 1, s))
    beta = _numeric_field(doc.get("beta"), "beta", (s + 1, s))
    try:
        return ShuOsherForm(v=v, alpha=alpha, beta=beta)
    except ValueError as exc:
        raise TableauParseError(f"invalid Shu-Osher form: {exc}") from exc


def emit_shu_osher(form: ShuOsherForm) -> bytes:
    text = (
        "{\n"
        f' "s": {form.s},\n'
        f' "v": {json.dumps(list(form.v))},\n'
        f' "alpha": {_rows_json(form.alpha)},\n'
        f' "beta": {_rows_json(form.beta)}\n'
        "}\n"
    )
    return text.encode("utf-8")
