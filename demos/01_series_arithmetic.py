"""Working with generalized power series: the package's basic currency.

A series is a finite sum of real powers of x.  Fractional exponents are
first-class citizens because solutions of singular problems start like
x^(1-alpha) rather than x.
"""

from adomian_bvp.series import (
    GPSeries,
    Term,
    add,
    differentiate,
    evaluate,
    format_series,
    mul,
    normalize,
    scale,
)

# Build 2*x^0.5 - 0.25*x from raw terms; normalize sorts, merges and drops zeros.
s = normalize([Term(-0.25, 1.0), Term(1.0, 0.5), Term(1.0, 0.5)])
print("series:        ", format_series(s))

# Ring operations keep the representation exact.
print("squared:       ", format_series(mul(s, s)))
print("scaled by -2:  ", format_series(scale(s, -2.0)))
print("plus x^0.5:    ", format_series(add(s, GPSeries.monomial(1.0, 0.5))))

# The power rule drops constants and shifts every exponent down by one.
print("derivative:    ", format_series(differentiate(s)))

# Evaluation is exact for x > 0; at x = 0 only nonnegative exponents remain.
for x in (0.25, 1.0):
    print(f"value at {x}:  ", evaluate(s, x))
print("value at 0:    ", evaluate(GPSeries.constant(3.0), 0.0))
