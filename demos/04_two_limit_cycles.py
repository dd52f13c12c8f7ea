"""Stage a parameter perturbation that splits two limit cycles off the
four-saddle polycycle, then find them by integration.

At the reference point the displacement map R(s) - s is negative on the
whole reachable window. Raising the graphic number r tilts the small-s end
up; raising the leading coefficient A lifts the middle. Done along the
right parameter directions (l1 for r; the r-preserving direction l2 up,
l3 down twice, l4 up for A) the displacement ends up sign-alternating,
and the two zero crossings are limit cycles.
"""

from pathlib import Path

import numpy as np

from polycycles.flow import count_limit_cycles, field_callable, numeric_return
from polycycles.model import bind, load_model
from polycycles.pipeline import return_section

STAGED = {
    "l1": 0.3037037037037037,       # graphic number r = 1.025
    "l2": 1.3622066489493219,       # together with l3, l4: A = 1.5501,
    "l3": 1.8188118943622775,       # leaving r untouched
    "l4": 1.3622066489493219,
}

mf = load_model(Path(__file__).resolve().parents[1] / "models" / "four_saddle.model")
model = bind(mf, STAGED)
section = return_section(model)
fun = field_callable(model.field_x, model.field_y)

print("displacement sign profile:")
for s in np.geomspace(1e-8, 1e-3, 11):
    d = numeric_return(fun, section, s, t_max=600.0) - s
    print(f"  s = {s:9.3e}   d/s = {d/s:+.4f}")

print()
count = count_limit_cycles(
    lambda s: numeric_return(fun, section, s, t_max=600.0) - s,
    1e-8, 1e-3, samples=240, tol=5e-11)
print(f"limit cycles found: {len(count.cycles)}")
for rec in count.cycles:
    print(f"  {rec.stability:9s} cycle crossing the section at s = {rec.s:.3e}")
