"""Searching for methods with large SSP coefficients.

The search maximizes the monotonicity radius over tableau coefficients
subject to the effective-order conditions: each seeded restart finds a
feasible tableau, then runs one sequential quadratic program with the
radius as a decision variable and exact constraint Jacobians.  A second
search builds the start/stop companions the same way: they must hit
prescribed weight targets while keeping their own radius at least as
large, so the composite keeps the main method's step-size guarantee.
Fixed seeds make every run repeatable.
"""

import numpy as np

from essprk import (
    EffectiveOrderSpec,
    SearchConfig,
    classical_order,
    effective_order,
    optimize_main,
    optimize_start_stop,
    ssp_coefficient,
)

config = SearchConfig(restarts=3, seed=0)

print("searching 3 stages for effective order 3 over classical order 2:")
outcome = optimize_main(3, EffectiveOrderSpec(3, 2), config)
t = outcome.tableau
print(f"  converged      {outcome.converged}")
print(f"  coefficient    {outcome.ssp.coefficient:.8f} (best possible is 1)")
print(f"  orders         classical {int(classical_order(t))}, "
      f"effective {int(effective_order(t))}")
print(f"  worst residual {np.max(np.abs(outcome.residuals)):.2e}")
print(f"  b = {np.round(t.b, 6)}")

print()
print("building start/stop companions for it:")
pair = optimize_start_stop(outcome, config)
print(f"  success        {pair.success}")
print(f"  start stages   {pair.start.b.size}, stop stages {pair.stop.b.size}")
print(f"  min radius     {pair.min_radius:.6f} "
      f"(main has {outcome.ssp.coefficient:.6f})")
print(f"  target miss    {pair.worst_residual:.2e}")
print(f"  resolved starting weights: {np.round(pair.starting.values, 6)}")

print()
print("the same search twice gives bit-identical results:")
again = optimize_main(3, EffectiveOrderSpec(3, 2), config)
print(f"  identical tableaux: "
      f"{np.array_equal(again.tableau.A, t.A) and np.array_equal(again.tableau.b, t.b)}")

print()
print("asking for effective order five documents the barrier instead:")
blocked = optimize_main(4, EffectiveOrderSpec(5, 2), SearchConfig(restarts=2, seed=0))
print(f"  converged      {blocked.converged}")
print(f"  coefficient    {blocked.ssp.coefficient}")
print(f"  best residual  {np.max(np.abs(blocked.residuals)):.6f} "
      f"(the tall-tree condition cannot be met)")
print()
print("checking the found 3-stage method against the certifier once more:")
print(f"  C = {ssp_coefficient(t).coefficient:.10f}")
