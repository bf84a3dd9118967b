"""Exact rational arithmetic.

Every probabilistic quantity in this package is a fractions.Fraction;
floats only ever appear in display strings. Values are built with rat(),
which refuses floats, and serialized as "a/b" strings. over_lcm() turns a
vector of them into integer numerators over one denominator, the form the
exact checks and eliminations compute on; fractions_over() turns such
numerators back into Fractions. over_lcm_rows() is the one decoder of a
table of cells (ints, Fractions or "a/b" strings) into that form: every
table a document or a caller hands in, of weights, support bits or family
vectors, goes through it.
"""

from fractions import Fraction
from itertools import chain
from math import lcm

__all__ = [
    "BACKEND",
    "rat",
    "rat_str",
    "rat_from_str",
    "as_float",
    "over_lcm",
    "over_lcm_rows",
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
    """int(value) for a JSON integer field: a float raises TypeError, as in
    rat, and so do a bool, which int() would read as 0 or 1, and a string,
    which int() would parse."""
    if isinstance(value, (float, bool, str)):
        raise TypeError(f"refusing {type(value).__name__} {value!r} where an integer is expected")
    return int(value)


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


def _listed(value):
    """value, unless it is a string or a JSON object (a dict): TypeError."""
    if isinstance(value, (str, dict)):
        raise TypeError("expected a list, got " + ("a string" if isinstance(value, str) else "an object"))
    return value


def over_lcm_rows(rows):
    """over_lcm of a table, a sequence of sequences: (den, int_rows) with
    int_rows[i][j] / den == rat(rows[i][j]) and den the lcm of the
    denominators. Each distinct cell is parsed once by rat, in the order
    the cells first hold it, row by row, so floats are refused and the
    first bad cell in row order is the one reported. Cells are keyed by
    value when every cell is a string, otherwise by (type, value), so that
    1.0 is not taken for 1. A table or row that is a string or a dict is
    refused (_listed); such a row, one not iterable or an unhashable cell
    sends every cell through rat in row order, raising the first refusal."""
    keys = _listed(rows)
    try:
        if any(issubclass(t, (str, dict)) for t in set(map(type, rows))):
            raise TypeError("a row to refuse in its place, below")
        distinct = literals = list(dict.fromkeys(chain.from_iterable(rows)))
        if not all(type(x) is str for x in literals):
            # 1, 1.0 and True are equal keys, a string equals no other type
            keys = [[(type(x), x) for x in row] for row in rows]
            distinct = list(dict.fromkeys(chain.from_iterable(keys)))
            literals = [x for _, x in distinct]
    except TypeError:
        for row in rows:
            for x in _listed(row):
                rat(x)
        raise
    den, nums = over_lcm([rat(x) for x in literals])
    num = dict(zip(distinct, nums)).__getitem__
    return den, [list(map(num, row)) for row in keys]


def fractions_over(nums, den):
    """The Fractions nums[i] / den as a tuple: ZERO for every 0, and one
    Fraction per distinct nonzero numerator, shared by its entries."""
    made = {x: Fraction(x, den) for x in set(nums) if x}
    made[0] = ZERO
    return tuple(map(made.__getitem__, nums))
