"""Exact rational scalars.

Coefficients in the library are ``Q``: gmpy2's mpq when available, the
stdlib Fraction otherwise (a drop-in fallback).  Row reduction is the
exception: ``linalg``'s echelon forms eliminate in ``int`` only and build
``Q`` values only where results leave them (canonical rows, residues and
linear-map entries).
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q

ZERO = Q(0)
ONE = Q(1)


def rat_from_str(s):
    """Parse "n" or "n/d" into an exact rational; reject zero denominators."""
    s = s.strip()
    if "/" in s:
        num, den = s.split("/", 1)
        d = int(den)
        if d == 0:
            raise ValueError("zero denominator in rational %r" % s)
        return Q(int(num), d)
    return Q(int(s))


def rat_to_str(x):
    x = Q(x)
    if x.denominator == 1:
        return str(x.numerator)
    return "%d/%d" % (x.numerator, x.denominator)
