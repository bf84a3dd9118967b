"""Exact rational arithmetic.

Every probabilistic quantity in this package is a fractions.Fraction;
floats only ever appear in display strings. Values are built with rat(),
which refuses floats, and serialized as "a/b" strings. over_lcm() turns a
vector of them into integer numerators over one denominator, the form the
exact checks and eliminations compute on; fractions_over() turns such
numerators back into Fractions.
"""

from fractions import Fraction
from math import lcm

__all__ = [
    "BACKEND",
    "rat",
    "rat_parser",
    "rat_str",
    "rat_from_str",
    "as_float",
    "over_lcm",
    "fractions_over",
]

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


def _json_int(value):
    """int(value) for a JSON integer field: a float raises TypeError, as in rat."""
    if isinstance(value, float):
        raise TypeError(f"refusing float {value!r} where an integer is expected")
    return int(value)


def rat_parser():
    """A rat() for decoding one document: each distinct literal is parsed
    once, keyed by (type, value) so that 1.0 is not taken for 1 and is
    refused like any float. An unhashable literal goes to rat, which
    reports it."""
    parsed = {}

    def parse(x):
        key = (type(x), x)
        try:
            return parsed[key]
        except KeyError:
            value = parsed[key] = rat(x)
            return value
        except TypeError:
            return rat(x)

    return parse


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


def over_lcm(values):
    """(den, numerators) of ints or Fractions: den is the lcm of their
    denominators and numerators a list with numerators[i] / den ==
    values[i]."""
    pairs = [x.as_integer_ratio() for x in values]
    den = lcm(*{d for _, d in pairs})
    return den, [n * (den // d) for n, d in pairs]


def fractions_over(nums, den):
    """The Fractions nums[i] / den as a tuple: ZERO for every 0, and one
    Fraction per distinct nonzero numerator, shared by its entries."""
    made = {x: Fraction(x, den) for x in set(nums) if x}
    made[0] = ZERO
    return tuple(map(made.__getitem__, nums))
