"""Exact rational arithmetic.

Every probabilistic quantity in this package is a fractions.Fraction;
floats only ever appear in display strings. Values are built with rat(),
which refuses floats, and serialized as "a/b" strings.
"""

from fractions import Fraction

__all__ = ["BACKEND", "rat", "rat_str", "rat_from_str", "as_float"]

BACKEND = "fraction"  # the one rational type; perfbench records it

ZERO = Fraction(0)
ONE = Fraction(1)


def rat(value, den=None):
    """Coerce to a Fraction. Accepts ints, strings like "3/16", rationals,
    and an optional explicit denominator."""
    if den is not None:
        return Fraction(value, den)
    if isinstance(value, str):
        return rat_from_str(value)
    if isinstance(value, float):
        # floats are almost always a bug upstream; refuse silently lossy input
        raise TypeError("refusing float input; pass a string or numerator/denominator")
    return Fraction(value)


def rat_from_str(text):
    """Parse "a/b" or "a" (optionally signed) into an exact rational."""
    s = text.strip()
    if not s:
        raise ValueError("empty rational literal")
    if "/" in s:
        num, _, den = s.partition("/")
        n = int(num.strip())
        d = int(den.strip())
        if d == 0:
            raise ValueError(f"zero denominator in {text!r}")
        return Fraction(n, d)
    return Fraction(int(s))


def rat_str(value):
    """Canonical string form: bare integer when the denominator is 1,
    otherwise "a/b" in lowest terms."""
    n, d = value.numerator, value.denominator
    return str(n) if d == 1 else f"{n}/{d}"


def as_float(value):
    return value.numerator / value.denominator
