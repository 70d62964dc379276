"""Decomposition polynomials of a nonlinearity, from Taylor-coefficient recurrences.

Writing the solution as y_0 + y_1*lam + y_2*lam^2 + ... makes the n-th
decomposition polynomial A_n the coefficient of lam^n in f(x, y, y').  The
expression is laid out once as a tape over its DAG, and each step appends one
new coefficient to every node by a recurrence (Cauchy sum for products,
E_k = (1/k) sum j a_j E_(k-j) for exp, ...); no symbolic differentiation in
lam is ever needed.  The demo checks the classical sanity property
A_0 = f(x, y_0, y_0') and then shows the series forms of A_1, A_2 for an
exponential nonlinearity.
"""

import math

from adomian_bvp.expressions import Tape, eval_real, parse
from adomian_bvp.series import GPSeries, differentiate, evaluate, format_series, normalize, Term

# f(x, y, y') = -e^y (x y' + 1/2), expanded around the constant y_0 = -ln 4.
f = parse("-1*exp(y)*(x*yp + 0.5)")
components = [
    GPSeries.constant(-math.log(4.0)),
    normalize([Term(0.0268564, 0.5), Term(-0.25, 1.0)]),   # a typical y_1
    normalize([Term(-0.0267739, 0.5), Term(0.03125, 2.0)]),
]

# One tape step per component: step n takes y_n, y_n' and returns A_n.
tape = Tape(f)
polynomials = [tape.extend(y_n, differentiate(y_n)) for y_n in components]
for n, a_n in enumerate(polynomials):
    print(f"A_{n}:", format_series(a_n))

# A_0 equals f evaluated at the zeroth component, independently of x.
for x in (0.3, 0.8):
    direct = eval_real(f, x, -math.log(4.0), 0.0)
    print(f"A_0({x}) = {evaluate(polynomials[0], x):+.10f}   f(x, y0, 0) = {direct:+.10f}")
