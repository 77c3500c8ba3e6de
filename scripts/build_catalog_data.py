"""Regenerate the frozen coefficient files under src/essprk/data/.

Published 15-digit tableaux are copied in verbatim, and the DOP853
tableau behind the van der Pol reference solution is taken from the
installed scipy (scipy/integrate/_ivp/dop853_coefficients.py); everything
else is searched with fixed seeds.  A rerun is deterministic and reaches
the same certified coefficients, but the searched files need not match the
shipped ones: the searched main method may differ in its low digits, and a
companion pair, which is not unique, may be a different pair altogether.
Every written file is checked by loading the catalog and DOP853 from the
output directory.

Run from anywhere: python3 scripts/build_catalog_data.py [--out DIR]
(DIR defaults to src/essprk/data).
"""

import argparse
import sys
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from essprk.methods import (  # noqa: E402
    DEFAULT_GAMMA_332,
    DEFAULT_GAMMA_432,
    essprk_332,
    essprk_432,
)
from essprk.optimizer import (  # noqa: E402
    MainSearchOutcome,
    SearchConfig,
    optimize_main,
    optimize_start_stop,
)
from essprk.order_conditions import (  # noqa: E402
    EffectiveOrderSpec,
    effective_order_residuals,
    elementary_weights,
)
from essprk.ssp import ssp_coefficient  # noqa: E402
from essprk.tableau import ButcherTableau, emit_tableau, parse_tableau  # noqa: E402

DATA = ROOT / "src" / "essprk" / "data"


def write(out_dir: Path, name: str, tableau: ButcherTableau) -> None:
    path = out_dir / name
    path.write_bytes(emit_tableau(tableau))
    print(f"  wrote {path}")


def dop853() -> ButcherTableau:
    # the 12 stages that advance the solution; scipy's rows 12-15 only feed
    # its dense output
    from scipy.integrate._ivp import dop853_coefficients as coef

    return ButcherTableau(A=coef.A[:12, :12], b=coef.B, label="DOP853")


def write_reference_tableau(out_dir: Path) -> None:
    tableau = dop853()
    write(out_dir, "dop853.json", tableau)
    data = (out_dir / "dop853.json").read_bytes()
    back = parse_tableau(data)
    if not (
        np.array_equal(back.A, tableau.A)
        and np.array_equal(back.b, tableau.b)
        and emit_tableau(back) == data
    ):
        raise SystemExit("dop853.json does not round-trip")
    print("  DOP853 round-trips bit for bit")


def as_outcome(tableau: ButcherTableau, spec: EffectiveOrderSpec) -> MainSearchOutcome:
    w = elementary_weights(tableau)
    return MainSearchOutcome(
        tableau=tableau,
        ssp=ssp_coefficient(tableau),
        residuals=effective_order_residuals(w, spec),
        spec=spec,
    )


# ---- published four-stage methods, effective order four ----

A_442 = np.zeros((4, 4))
A_442[1, 0] = 0.730429885783319
A_442[2, :2] = [0.251830917810810, 0.393133720334985]
A_442[3, :3] = [0.141062771617064, 0.220213358584678, 0.638723869798257]
b_442 = [0.384422161080494, 0.261154113377550, 0.127250689937518, 0.227173035604438]

R_442 = np.zeros((5, 5))
R_442[1, 0] = 0.545722177514735
R_442[2, :2] = [0.366499989048164, 0.476431698393363]
R_442[3, :3] = [0.135697968350722, 0.176400587890242, 0.262662253246864]
R_442[4, :4] = [0.103648417776838, 0.134737771331049, 0.200625899485633, 0.541860654643112]
bR_442 = [0.233699169638954, 0.294263351266422, 0.065226988215286, 0.176168374199685, 0.230642116679654]

T_442 = np.zeros((4, 4))
T_442[1, 0] = 0.509877496215340
T_442[2, :2] = [0.182230305923759, 0.253543829605247]
T_442[3, :3] = [0.148498121305090, 0.206610981494095, 0.578094238501017]
bT_442 = [0.307865440399752, 0.171863794704750, 0.233603236964822, 0.286667527930676]

A_443 = np.zeros((4, 4))
A_443[1, 0] = 0.601245068769724
A_443[2, :2] = [0.139346829159954, 0.297541890726109]
A_443[3, :3] = [0.060555450075478, 0.129301708677891, 0.557903005003740]
b_443 = [0.220532078662434, 0.180572397883936, 0.181420582644840, 0.417474940808790]

R_443 = np.zeros((5, 5))
R_443[1, 0] = 0.438463764036947
R_443[2, :2] = [0.213665532574654, 0.425670863150903]
R_443[3, :3] = [0.061345094040860, 0.122213530726218, 0.250794800886942]
R_443[4, :4] = [0.039559973266996, 0.078812561688700, 0.161731525131914, 0.563312404874697]
bR_443 = [0.154373542967849, 0.307547588471376, 0.054439037790856, 0.189611674483496, 0.294028156286422]

T_443 = np.zeros((4, 4))
T_443[1, 0] = 0.556337718891090
T_443[2, :2] = [0.166867537553458, 0.262003150663414]
T_443[3, :3] = [0.104422177204659, 0.163956032598547, 0.546630737839510]
bT_443 = [0.203508169408374, 0.096469758967330, 0.321630956102914, 0.378391115521382]

EXPECTED_C = {
    "ESSPRK(4,4,2)": 0.8769810676,
    "ESSPRK(4,4,2)-start": 1.4096189,
    "ESSPRK(4,4,2)-stop": 1.4096189,
    "ESSPRK(4,4,3)": 0.7789282319,
    "ESSPRK(4,4,3)-start": 1.1447926642,
    "ESSPRK(4,4,3)-stop": 1.1447926642,
}


def published(label, A, b, q=None, p=None):
    t = ButcherTableau(A=np.asarray(A), b=np.asarray(b, float), label=label, q=q, p=p)
    C = ssp_coefficient(t).coefficient
    want = EXPECTED_C[label]
    if abs(C - want) > 5e-7:
        raise SystemExit(f"{label}: coefficient {C:.10f}, expected {want}")
    print(f"  {label}: C = {C:.10f} ok")
    return t


def companions(out_dir, stem, label, main_tab, spec, config):
    t0 = time.time()
    out = optimize_start_stop(as_outcome(main_tab, spec), config)
    took = time.time() - t0
    print(
        f"  {label} companions: min radius {out.min_radius:.7f} "
        f"(main {ssp_coefficient(main_tab).coefficient:.7f}), "
        f"residual {out.worst_residual:.2e}, {took:.1f}s"
    )
    if not out.success:
        raise SystemExit(f"{label}: companion search failed to reach the target")
    write(out_dir, f"{stem}_start.json", replace(out.start, label=f"{label}-start"))
    write(out_dir, f"{stem}_stop.json", replace(out.stop, label=f"{label}-stop"))


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--out", type=Path, default=DATA,
        help="directory to write the data files to (default: src/essprk/data)",
    )
    out_dir = parser.parse_args().out.resolve()
    out_dir.mkdir(parents=True, exist_ok=True)
    init = out_dir / "__init__.py"
    if not init.exists():
        init.write_text("")

    print("reference tableau:")
    write_reference_tableau(out_dir)

    print("published methods:")
    write(out_dir, "essprk_4_4_2.json", published("ESSPRK(4,4,2)", A_442, b_442, q=4, p=2))
    write(out_dir, "essprk_4_4_2_start.json", published("ESSPRK(4,4,2)-start", R_442, bR_442))
    write(out_dir, "essprk_4_4_2_stop.json", published("ESSPRK(4,4,2)-stop", T_442, bT_442))
    write(out_dir, "essprk_4_4_3.json", published("ESSPRK(4,4,3)", A_443, b_443, q=4, p=3))
    write(out_dir, "essprk_4_4_3_start.json", published("ESSPRK(4,4,3)-start", R_443, bR_443))
    write(out_dir, "essprk_4_4_3_stop.json", published("ESSPRK(4,4,3)-stop", T_443, bT_443))

    print("searched five-stage method, effective order four:")
    t0 = time.time()
    out = optimize_main(
        5,
        EffectiveOrderSpec(4, 2),
        SearchConfig(restarts=3, seed=0),
    )
    print(
        f"  ESSPRK(5,4,2): C = {out.ssp.coefficient:.9f}, "
        f"residual {np.max(np.abs(out.residuals)):.2e}, "
        f"{time.time() - t0:.1f}s"
    )
    main_542 = replace(out.tableau, label="ESSPRK(5,4,2)", q=4, p=2)
    write(out_dir, "essprk_5_4_2.json", main_542)
    companions(
        out_dir,
        "essprk_5_4_2",
        "ESSPRK(5,4,2)",
        main_542,
        EffectiveOrderSpec(4, 2),
        SearchConfig(restarts=4, seed=0),
    )

    print("companions for the closed-form families:")
    companions(
        out_dir,
        "essprk_3_3_2",
        "ESSPRK(3,3,2)",
        essprk_332(DEFAULT_GAMMA_332),
        EffectiveOrderSpec(3, 2),
        SearchConfig(restarts=4, seed=0),
    )
    companions(
        out_dir,
        "essprk_4_3_2",
        "ESSPRK(4,3,2)",
        essprk_432(DEFAULT_GAMMA_432),
        EffectiveOrderSpec(3, 2),
        SearchConfig(restarts=4, seed=0),
    )

    print("verifying the full catalog from the written files:")
    import essprk.methods as methods

    # the catalog and DOP853 read every data file through _load_tableau;
    # point it at the output directory so the checks cover what was written
    methods._load_tableau = lambda name: parse_tableau((out_dir / name).read_text())
    methods.catalog.cache_clear()
    methods.dop853.cache_clear()
    for entry in methods.catalog():
        extra = "" if entry.start is None else " [start/stop]"
        print(
            f"  {entry.label}: s={entry.main.s} q={entry.q} p={entry.p} "
            f"C~{entry.ssp_coefficient}{extra}"
        )
    if emit_tableau(methods.dop853()) != emit_tableau(dop853()):
        raise SystemExit("dop853.json does not load as written")
    print("  DOP853: loads as written")
    print("catalog verification passed")


if __name__ == "__main__":
    main()
