"""Exact rational scalars.

``Q`` is gmpy2's mpq when available, the stdlib Fraction otherwise (a
drop-in fallback).  Stored coefficients have one normal form, the one
:func:`exact` returns: an ``int`` when the value is integral, a ``Q``
otherwise, never a float.  The structure constants of the enveloping
algebras are integers, so nearly every coefficient is an ``int``; ``int``
and ``Q`` mix exactly, compare equal and hash equal.
"""

try:
    from gmpy2 import mpq as Q
except ImportError:  # pragma: no cover
    from fractions import Fraction as Q


def exact(x):
    """x in the normal form of stored scalars: ``int`` when integral, ``Q``
    otherwise.  Raises TypeError for an inexact value such as a float."""
    if type(x) is int:
        return x
    try:
        d = x.denominator
    except AttributeError:
        raise TypeError("inexact coefficient %r" % (x,)) from None
    if d == 1:
        return int(x.numerator)
    return x if type(x) is Q else Q(x)


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
    """"n" for an integral value, "n/d" in lowest terms otherwise."""
    x = exact(x)
    if type(x) is int:
        return str(x)
    return "%d/%d" % (x.numerator, x.denominator)
