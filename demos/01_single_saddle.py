"""Walk through the local analysis of one hyperbolic saddle.

A saddle with eigenvalue ratio lambda sends a point at distance s on its
entry section to a point at distance ~ D00 * s**lambda on its exit section.
This script builds the normalizing chart for a quadratic saddle, reads off
the closed-form transition coefficients, and then re-derives the leading
one by integrating trajectories, so you can see the two routes agree.
"""

import numpy as np

from polycycles.expressions import instantiate, parse_expression
from polycycles.flow import chart_field, dulac_lattice, fit_expansion, numeric_dulac
from polycycles.saddle import dulac_coefficients, normalize_saddle

# A saddle at the origin: x grows, y decays twice as fast, with quadratic
# corrections that bend the separatrices' neighborhoods.
field_x = instantiate(parse_expression("x*(1 + 0.3*x - 0.2*y)"), {})
field_y = instantiate(parse_expression("-y*(2 - 0.1*x + 0.4*y)"), {})

# Orbits come in along the stable axis (0,1) and leave along (1,0).  The
# entry section is the line v = 0.5, crossed at (s, 0.5); the exit section
# is u = 0.5, crossed at (0.5, v).
chart = normalize_saddle(field_x, field_y, (0.0, 0.0), (0.0, 1.0), (1.0, 0.0))
h_in = h_out = 0.5

expansion = dulac_coefficients(chart, h_in, h_out)
print("hyperbolicity ratio  lambda =", expansion.ratio)
print("leading coefficient  D00    =", expansion.leading)
print("second coefficient   S1     =", expansion.s1)
print("case:", expansion.case)

# Independent route: integrate the transition map at a ladder of entry
# offsets and fit on the exponent lattice that the closed form predicts.
svals = np.geomspace(1e-4, 1e-2, 13)
fun = chart_field(chart)
values = [numeric_dulac(fun, h_in, h_out, s) for s in svals]
fit = fit_expansion(svals, values, exponent=expansion.ratio,
                    lattice=dulac_lattice(expansion.ratio))

deviation = abs(fit.leading - expansion.leading) / abs(expansion.leading)
print()
print("numeric leading via fit     =", fit.leading)
print("relative deviation          =", f"{deviation:.3e}")
