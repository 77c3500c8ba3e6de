"""Catalog of concrete strong-stability-preserving methods.

Three sources feed the catalog: closed-form families (the three- and
four-stage effective-order-three families, the classical third-order
baselines they contain, and the sparse n^2+1-stage effective-order-four
family), frozen coefficient files for methods with published or searched
15-digit tableaux, and the start/stop companions needed to run composites.
Nothing in an entry is trusted: every catalog load re-verifies orders,
coefficients, and start/stop targets from scratch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

import numpy as np

from .errors import DomainError
from .order_conditions import check_companions, classical_order, effective_order
from .ssp import ssp_coefficient
from .tableau import ButcherTableau, ShuOsherForm, parse_tableau, shu_osher_to_butcher

__all__ = [
    "CatalogEntry",
    "essprk_332",
    "essprk_432",
    "ssprk_33",
    "ssprk_43",
    "family_n2p1",
    "catalog",
    "lookup",
    "DEFAULT_GAMMA_332",
    "DEFAULT_GAMMA_432",
]

# default free parameters for the catalog's family entries; interior values
# keep the classical order at two so the effective-order machinery is
# actually exercised (the endpoints collapse to classical third order)
DEFAULT_GAMMA_332 = 0.5
DEFAULT_GAMMA_432 = 1.0 / 3.0


@dataclass(frozen=True, eq=False)
class CatalogEntry:
    """One catalog method with optional start/stop companions.

    ``ssp_coefficient`` is the two-decimal reference value; the load-time
    check recomputes the true coefficient and requires agreement.  ``start``
    and ``stop`` are None for methods meant to run standalone.
    """

    label: str
    main: ButcherTableau
    start: ButcherTableau | None
    stop: ButcherTableau | None
    q: int
    p: int
    ssp_coefficient: float


def essprk_332(gamma: float) -> ButcherTableau:
    """Three-stage effective-order-three family with SSP coefficient 1.

    gamma in [1/4, 1] is free; gamma = 1/4 gives the classical three-stage
    third-order method, interior values have classical order two.
    """
    if not 0.25 <= gamma <= 1.0:
        raise DomainError(f"gamma must lie in [1/4, 1], got {gamma}")
    A = np.zeros((3, 3))
    A[1, 0] = 1.0
    A[2, 0] = gamma
    A[2, 1] = gamma
    b = np.array([(5.0 * gamma - 1.0) / (6.0 * gamma), 1.0 / 6.0, 1.0 / (6.0 * gamma)])
    return ButcherTableau(A=A, b=b, label=f"ESSPRK(3,3,2;gamma={gamma:g})", q=3, p=2)


def essprk_432(gamma: float) -> ButcherTableau:
    """Four-stage effective-order-three family with SSP coefficient 2.

    gamma in [1/6, 1/2] is free; gamma = 1/6 gives the classical four-stage
    third-order method.
    """
    if not 1.0 / 6.0 <= gamma <= 0.5:
        raise DomainError(f"gamma must lie in [1/6, 1/2], got {gamma}")
    A = np.zeros((4, 4))
    A[1, 0] = 0.5
    A[2, 0] = 0.5
    A[2, 1] = 0.5
    A[3, :3] = gamma
    b = np.array(
        [
            (8.0 * gamma - 1.0) / (12.0 * gamma),
            1.0 / 6.0,
            1.0 / 6.0,
            1.0 / (12.0 * gamma),
        ]
    )
    return ButcherTableau(A=A, b=b, label=f"ESSPRK(4,3,2;gamma={gamma:g})", q=3, p=2)


def ssprk_33() -> ButcherTableau:
    """Classical three-stage third-order SSP method (coefficient 1)."""
    A = np.zeros((3, 3))
    A[1, 0] = 1.0
    A[2, 0] = 0.25
    A[2, 1] = 0.25
    b = np.array([1.0 / 6.0, 1.0 / 6.0, 2.0 / 3.0])
    return ButcherTableau(A=A, b=b, label="SSPRK(3,3)", q=3, p=3)


def ssprk_43() -> ButcherTableau:
    """Classical four-stage third-order SSP method (coefficient 2)."""
    A = np.zeros((4, 4))
    A[1, 0] = 0.5
    A[2, 0] = 0.5
    A[2, 1] = 0.5
    A[3, :3] = 1.0 / 6.0
    b = np.array([1.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0, 0.5])
    return ButcherTableau(A=A, b=b, label="SSPRK(4,3)", q=3, p=3)


def family_n2p1(n: int, branch: str = "plus") -> ShuOsherForm:
    """Sparse (n^2+1)-stage effective-order-four family, coefficient n^2-n.

    Returns the modified Shu-Osher form; stage i feeds stage i+1 along a
    chain, with one extra coupling whose strength is a root of a quadratic
    (``branch`` picks the sign).  Classical order is two.
    """
    if n < 3:
        raise DomainError(f"family is defined only for n >= 3, got n = {n}")
    if branch not in ("plus", "minus"):
        raise DomainError(f"branch must be 'plus' or 'minus', got {branch!r}")
    sign = 1.0 if branch == "plus" else -1.0
    s = n * n + 1
    v = np.zeros(s + 1)
    v[0] = 1.0
    v[s] = 2.0 / ((n * n + 1) * ((n - 1) ** 2 + 1))
    alpha = np.zeros((s + 1, s))
    pivot = (n * n - 1 + sign * math.sqrt(n**3 - 3 * n**2 + n + 1)) / (
        4 * n * n - 6 * n + 2
    )
    # stage and weight indices below follow 1-based numbering shifted down
    pivot_row = n * n - 2 * n + 3
    alpha[pivot_row, (n - 2) ** 2 - 1] = pivot
    alpha[s, s - 1] = (n * (n - 1) ** 2) / ((2 * n - 1) * (n * n + 1) * (1.0 - pivot))
    alpha[s, n * n - 2 * n + 1] = 1.0 - v[s] - alpha[s, s - 1]
    for i in range(1, n * n + 1):
        alpha[i, i - 1] = 1.0 - pivot if i == pivot_row else 1.0
    beta = alpha / (n * n - n)
    return ShuOsherForm(v=v, alpha=alpha, beta=beta)


def _load_tableau(name: str) -> ButcherTableau:
    text = resources.files("essprk.data").joinpath(name).read_text()
    return parse_tableau(text)


def _verify_entry(entry: CatalogEntry) -> None:
    main = entry.main
    eo = effective_order(main)
    if eo < entry.q:
        raise DomainError(
            f"{entry.label}: effective order {int(eo)} below labeled {entry.q}"
        )
    co = classical_order(main)
    if co != entry.p:
        raise DomainError(
            f"{entry.label}: classical order {int(co)} != labeled {entry.p}"
        )
    measured = ssp_coefficient(main).coefficient
    if abs(measured - entry.ssp_coefficient) > 0.005:
        raise DomainError(
            f"{entry.label}: coefficient {measured:.6f} does not match "
            f"{entry.ssp_coefficient} to 2 decimals"
        )
    if (entry.start is None) != (entry.stop is None):
        raise DomainError(f"{entry.label}: start/stop must come as a pair")
    if entry.start is not None:
        s = main.s
        if entry.start.s > s + 1 or entry.stop.s > s:
            raise DomainError(f"{entry.label}: start/stop exceed stage caps")
        check_companions(main, entry.start, entry.stop, entry.q)


def _entry(
    label: str,
    main: ButcherTableau,
    q: int,
    p: int,
    coefficient: float,
    stem: str | None = None,
) -> CatalogEntry:
    """A catalog entry; ``stem`` names its start/stop companion files."""
    start = stop = None
    if stem is not None:
        start = _load_tableau(f"{stem}_start.json")
        stop = _load_tableau(f"{stem}_stop.json")
    return CatalogEntry(label, main, start, stop, q, p, coefficient)


@lru_cache(maxsize=1)
def catalog() -> tuple[CatalogEntry, ...]:
    """All shipped methods, verified at load.

    Entries with start/stop companions can be run as composites at their
    effective order; the rest are standalone baselines or family members.
    """
    entries = [
        _entry("ESSPRK(3,3,2)", essprk_332(DEFAULT_GAMMA_332), 3, 2, 1.0,
               "essprk_3_3_2"),
        _entry("ESSPRK(4,3,2)", essprk_432(DEFAULT_GAMMA_432), 3, 2, 2.0,
               "essprk_4_3_2"),
        _entry("ESSPRK(4,4,2)", _load_tableau("essprk_4_4_2.json"), 4, 2, 0.88,
               "essprk_4_4_2"),
        _entry("ESSPRK(4,4,3)", _load_tableau("essprk_4_4_3.json"), 4, 3, 0.78,
               "essprk_4_4_3"),
        _entry("ESSPRK(5,4,2)", _load_tableau("essprk_5_4_2.json"), 4, 2, 1.97,
               "essprk_5_4_2"),
    ]
    for n in (3, 4):
        label = f"ESSPRK({n * n + 1},4,2)"
        main = shu_osher_to_butcher(family_n2p1(n), label=label, q=4, p=2)
        entries.append(_entry(label, main, 4, 2, float(n * n - n)))
    entries += [
        _entry("SSPRK(3,3)", ssprk_33(), 3, 3, 1.0),
        _entry("SSPRK(4,3)", ssprk_43(), 3, 3, 2.0),
    ]
    for entry in entries:
        _verify_entry(entry)
    return tuple(entries)


def lookup(label: str) -> CatalogEntry:
    """Fetch a catalog entry by its label."""
    for entry in catalog():
        if entry.label == label:
            return entry
    labels = ", ".join(e.label for e in catalog())
    raise DomainError(f"unknown method {label!r}; available: {labels}")
