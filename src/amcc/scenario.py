"""Measurement scenarios, sections, and the incidence matrix.

A scenario is a finite set of measurements, an outcome arity per measurement,
and a cover of measurement contexts. Canonical orderings used everywhere:

* measurements are indexed 0..|Y|-1; Bell scenarios order them party-major,
  setting-minor (party 1 setting 0, party 1 setting 1, party 2 setting 0, ...);
* the cover of a Bell scenario lists contexts in lexicographic order of the
  setting tuple;
* a context's sections are mixed-radix integers over its measurements in
  context order, most significant first (for all-binary outcomes this is the
  big-endian bit packing of the outcome tuple);
* global sections are the same packing over the full measurement list.

The packing is decided here and nowhere else. `unpack` is the one
mixed-radix decoder. The restriction map of the sheaf-theoretic framework
(Abramsky and Brandenburger, New J. Phys. 13, 113036, 2011) comes in two
packed forms: `projection` gives, for each section of a context, the packed
index of its outcomes on a subset of the context's measurements, in the
subset's order; the cached `overlaps` holds those projections for every
pair of contexts onto their shared measurements; `restriction_table` does
the same for global sections onto each context. `marginal_rows` is the one
layout of marginals as rows of slots, one per outcome; every no-signaling
and marginal check reads such rows, the cached `overlap_rows` for pairs.

Every size limit of the package lives here, and `_require` is the one check
that enforces them: each guard calls it with a count computed by arithmetic
alone, before the loop or allocation the count describes.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import chain, combinations, product
from math import prod

import numpy as np

from .errors import ResourceLimitError
from .rational import _json_int

__all__ = [
    "MeasurementScenario",
    "bell_scenario",
    "MAX_BELL_MEASUREMENTS",
    "MAX_BELL_CONTEXTS",
    "MAX_GLOBALS",
    "MAX_SCAN_VECTORS",
    "MAX_TABLE_CELLS",
    "MAX_TABLEAU_CELLS",
    "unpack",
    "section_size",
    "section_outcomes",
    "section_index",
    "global_size",
    "global_outcomes",
    "restrict",
    "projection",
    "overlaps",
    "marginal_rows",
    "overlap_rows",
    "restriction_table",
    "incidence_matrix",
    "slot_offsets",
    "slot_count",
    "scenario_to_json",
    "scenario_from_json",
]


@dataclass(frozen=True)
class MeasurementScenario:
    """measurements: label per measurement; outcomes: arity per measurement;
    cover: contexts as sorted tuples of measurement indices; parties: party
    index per measurement for Bell-type scenarios, None otherwise. The
    section count of each context is kept in `section_sizes`."""

    measurements: tuple
    outcomes: tuple
    cover: tuple
    parties: tuple | None = field(default=None)

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        object.__setattr__(self, "outcomes", tuple(map(_json_int, self.outcomes)))
        object.__setattr__(self, "cover", tuple(tuple(map(_json_int, c)) for c in self.cover))
        if self.parties is not None:
            object.__setattr__(self, "parties", tuple(map(_json_int, self.parties)))
        n = len(self.measurements)
        if n == 0:
            raise ValueError("scenario needs at least one measurement")
        if len(set(self.measurements)) != n:
            raise ValueError("measurement labels must be unique")
        if len(self.outcomes) != n:
            raise ValueError("outcomes must list one arity per measurement")
        if any(o < 1 for o in self.outcomes):
            raise ValueError("every measurement needs a nonempty outcome set")
        if not self.cover:
            raise ValueError("cover must be nonempty")
        seen = set()
        covered = set()
        for ctx in self.cover:
            if not ctx:
                raise ValueError("contexts must be nonempty")
            if any(m < 0 or m >= n for m in ctx):
                raise ValueError(f"context {ctx} references unknown measurements")
            if len(set(ctx)) != len(ctx):
                raise ValueError(f"context {ctx} repeats a measurement")
            if tuple(ctx) != tuple(sorted(ctx)):
                raise ValueError(f"context {ctx} must list measurements in ascending order")
            if ctx in seen:
                raise ValueError(f"duplicate context {ctx}")
            seen.add(ctx)
            covered.update(ctx)
        if covered != set(range(n)):
            raise ValueError("cover must include every measurement")
        # antichain: no context strictly inside another
        for a in self.cover:
            sa = set(a)
            for b in self.cover:
                if a is not b and sa < set(b):
                    raise ValueError(f"context {a} is a strict subset of {b}")
        if self.parties is not None and len(self.parties) != n:
            raise ValueError("parties must list one party per measurement")
        # not a field, so equality and hashing ignore it
        object.__setattr__(
            self,
            "section_sizes",
            tuple(prod(self.outcomes[m] for m in ctx) for ctx in self.cover),
        )

    @property
    def n_contexts(self):
        return len(self.cover)


# Bell scenarios are built by enumerating settings ** parties contexts and
# checking the cover pairwise, about 0.6 s at 1024 contexts
MAX_BELL_MEASUREMENTS = 64  # parties * settings
MAX_BELL_CONTEXTS = 1 << 10  # settings ** parties

# compatibility scans and parity patterns enumerate every global assignment;
# a scenario's slots (context-section pairs) are held to the same limit, and
# a Bell scenario with 2 or more outcomes has at most as many slots as
# global assignments
MAX_GLOBALS = 1 << 20

MAX_SCAN_VECTORS = 1 << 24  # full parity scans enumerate every parity vector

# cells of one restriction table, incidence matrix or support elimination
# table: (6,2,2)'s incidence matrix has 2**24, (7,2,2)'s 2**28 (256 MiB of
# uint8). An elimination table (affine.solve_support) is int64, kept pivot
# rows x (supported slots + 1): the full (6,2,2) support's is 3368 x 4097
# (13.8 M cells, 110 MiB), and a pivot's temporaries cover only the rows
# and columns it changes (at most 45792 cells there). affine._pivot_rows
# holds slots squared to it (its rows reach slots x (slots + 1) entries):
# (6,2,2) and (5,3,2) pass, (7,2,2) and larger are refused
MAX_TABLE_CELLS = 1 << 26

# cells of one exact simplex tableau, (slots + 1) x (columns + slots + 1):
# (5,2,2)'s full tableau has 1025 x 2049 (about 2.1 M), (6,2,2)'s would have
# 4097 x 8193 (33.6 M). A tableau this large is an int64 array (64 MiB at
# the limit), and a pivot adds at most two temporaries of its size; Python
# ints, once its entries outgrow int64, take several times that
MAX_TABLEAU_CELLS = 1 << 23


def _require(count, what, limit):
    """count, unless it is over limit: then ResourceLimitError, whose
    message reads "{count} {what} is over the limit {limit}"."""
    if count > limit:
        raise ResourceLimitError(f"{count} {what} is over the limit {limit}")
    return count


@lru_cache(maxsize=None)
def bell_scenario(parties, settings, outcomes):
    """(n, m, o) Bell scenario: n parties, m settings each, o outcomes each.
    Labels are Y1, Y1', Y2, ... with one prime mark per extra setting.
    Raises ResourceLimitError, before any loop, past MAX_BELL_MEASUREMENTS
    measurements, MAX_BELL_CONTEXTS contexts or MAX_GLOBALS slots."""
    if parties < 1 or settings < 1 or outcomes < 1:
        raise ValueError("parties, settings and outcomes must all be >= 1")
    # the product bounds the exponents, so the powers stay small
    _require(parties * settings, "measurements", MAX_BELL_MEASUREMENTS)
    _require(settings**parties, "contexts", MAX_BELL_CONTEXTS)
    _require((settings * outcomes) ** parties, "slots", MAX_GLOBALS)
    labels = []
    party_of = []
    for p in range(parties):
        for s in range(settings):
            labels.append(f"Y{p + 1}" + "'" * s)
            party_of.append(p)
    cover = []
    for choice in product(range(settings), repeat=parties):
        cover.append(tuple(p * settings + choice[p] for p in range(parties)))
    return MeasurementScenario(
        measurements=tuple(labels),
        outcomes=(outcomes,) * (parties * settings),
        cover=tuple(cover),
        parties=tuple(party_of),
    )


def unpack(index, radices):
    """Digits of a mixed-radix index, most significant first."""
    digits = []
    for r in reversed(radices):
        index, d = divmod(index, r)
        digits.append(d)
    return tuple(reversed(digits))


def section_size(scenario, ci):
    return scenario.section_sizes[ci]


def section_outcomes(scenario, ci, si):
    """Decode a section index into the outcome tuple of context ci."""
    ctx = scenario.cover[ci]
    if not 0 <= si < section_size(scenario, ci):
        raise ValueError(f"section {si} out of range for context {ctx}")
    return unpack(si, [scenario.outcomes[m] for m in ctx])


def section_index(scenario, ci, outcomes):
    ctx = scenario.cover[ci]
    if len(outcomes) != len(ctx):
        raise ValueError("outcome tuple length must match the context")
    si = 0
    for m, v in zip(ctx, outcomes):
        o = scenario.outcomes[m]
        if not 0 <= v < o:
            raise ValueError(f"outcome {v} out of range for measurement {scenario.measurements[m]}")
        si = si * o + v
    return si


def global_size(scenario):
    return prod(scenario.outcomes)


def global_outcomes(scenario, gi):
    if not 0 <= gi < global_size(scenario):
        raise ValueError(f"global section {gi} out of range")
    return unpack(gi, scenario.outcomes)


def restrict(scenario, assignment, measurements):
    """Restrict a full outcome assignment to the given measurements,
    preserving their order. `assignment` is a tuple over all measurements."""
    if len(assignment) != len(scenario.measurements):
        raise ValueError("assignment must cover every measurement")
    n = len(scenario.measurements)
    out = []
    for m in measurements:
        if not 0 <= m < n:
            raise ValueError(f"unknown measurement index {m}")
        out.append(assignment[m])
    return tuple(out)


def _repack(indices, radices, positions):
    """Mixed-radix indices over `radices` (an integer array) repacked onto
    the digits at `positions`, in that order. The result has the dtype and
    size of `indices`; `indices` is left as it is."""
    out = np.zeros_like(indices)
    for p in positions:
        out *= radices[p]
        out += indices // prod(radices[p + 1 :]) % radices[p]
    return out


def projection(scenario, ci, measurements):
    """For each section of context ci, in section order, the packed index of
    its outcomes on `measurements`, packed in the order listed there."""
    ctx = scenario.cover[ci]
    ms = tuple(measurements)
    if any(m not in ctx for m in ms):
        raise ValueError(f"measurements {ms} not all inside context {ctx}")
    if len(set(ms)) != len(ms):
        raise ValueError("repeated measurement in marginal subset")
    sections = np.arange(section_size(scenario, ci), dtype=np.int64)
    radices = [scenario.outcomes[m] for m in ctx]
    return tuple(_repack(sections, radices, [ctx.index(m) for m in ms]).tolist())


@lru_cache(maxsize=64)
def overlaps(scenario):
    """(ci, cj, shared, proj_i, proj_j) for every pair of contexts that share
    a measurement, in `combinations` order: `shared` lists the shared
    measurements ascending and proj_c is projection(scenario, c, shared).
    Raises ResourceLimitError, before the pairs are scanned, past
    MAX_TABLE_CELLS entries, at most (n_contexts - 1) * slots."""
    rows, cols = scenario.n_contexts - 1, slot_count(scenario)
    _require(rows * cols, f"cells in the overlap table of {rows} x {cols}", MAX_TABLE_CELLS)
    out = []
    for ci, cj in combinations(range(scenario.n_contexts), 2):
        shared = tuple(m for m in scenario.cover[ci] if m in scenario.cover[cj])
        if shared:
            out.append(
                (ci, cj, shared, projection(scenario, ci, shared), projection(scenario, cj, shared))
            )
    return tuple(out)


def marginal_rows(scenario, marginals):
    """(slot, sign, start, rows) of marginals, each (measurements, sides) with
    one or two sides (ci, projection(scenario, ci, measurements)): per packed
    outcome k, ascending, a row of the first side's slots projecting onto k
    (sign +1), then the second's (-1), each ascending. Row r is entries
    start[r]:start[r + 1] of slot (int32) and sign (int8), rows[r] is
    (contexts, measurements, k), and no row is empty. Read-only."""
    offs = slot_offsets(scenario)
    rows, sides_at, projs = [], [], []
    for ms, sides in marginals:
        for side, (ci, proj) in enumerate(sides):
            sides_at.append((len(rows) * 2 + side, offs[ci], len(proj)))
            projs.append(proj)
        contexts = tuple(ci for ci, _ in sides)
        rows += [(contexts, ms, k) for k in range(prod(scenario.outcomes[m] for m in ms))]
    at, base, length = np.array(sides_at, dtype=np.int64).reshape(-1, 3).T
    # by row, then side: the stable sort keeps each side's slots ascending
    key = np.fromiter(chain.from_iterable(projs), np.int64, length.sum())
    key = key * 2 + np.repeat(at, length)
    order = np.argsort(key, kind="stable")
    slot = np.arange(key.size) + np.repeat(base - np.cumsum(length) + length, length)
    slot, key = slot[order].astype(np.int32), key[order]
    sign = (1 - 2 * (key % 2)).astype(np.int8)
    start = np.searchsorted(key // 2, np.arange(len(rows) + 1))
    for a in (slot, sign, start):
        a.setflags(write=False)
    return slot, sign, start, tuple(rows)


@lru_cache(maxsize=64)
def overlap_rows(scenario):
    """marginal_rows of overlaps(scenario), in order, each pair ci's marginal
    minus cj's: weights are no-signaling when every row sums to 0."""
    return marginal_rows(
        scenario, [(shared, ((ci, pi), (cj, pj))) for ci, cj, shared, pi, pj in overlaps(scenario)]
    )


@lru_cache(maxsize=64)
def restriction_table(scenario):
    """int32 array (n_contexts, n_globals): restriction_table[c, g] is the
    section index of global g in context c. Read-only. Raises
    ResourceLimitError, before allocating, past MAX_TABLE_CELLS entries."""
    rows, cols = scenario.n_contexts, global_size(scenario)
    _require(rows * cols, f"cells in the restriction table of {rows} x {cols}", MAX_TABLE_CELLS)
    globals_ = np.arange(cols, dtype=np.int32)
    tab = np.empty((rows, cols), dtype=np.int32)
    for ci, ctx in enumerate(scenario.cover):
        tab[ci] = _repack(globals_, scenario.outcomes, ctx)
    tab.setflags(write=False)
    return tab


def slot_offsets(scenario):
    """Start offset of each context's section block in the flat slot order."""
    offs = []
    acc = 0
    for ci in range(scenario.n_contexts):
        offs.append(acc)
        acc += section_size(scenario, ci)
    return tuple(offs)


def slot_count(scenario):
    return sum(section_size(scenario, ci) for ci in range(scenario.n_contexts))


@lru_cache(maxsize=64)
def incidence_matrix(scenario):
    """0/1 matrix with one row per (context, section) slot and one column per
    global section; entry 1 iff the global restricts to that section. Rows
    follow cover order then section order. Read-only uint8. Raises
    ResourceLimitError, before allocating, past MAX_TABLE_CELLS entries."""
    rows, ng = slot_count(scenario), global_size(scenario)
    _require(rows * ng, f"cells in the incidence matrix of {rows} x {ng}", MAX_TABLE_CELLS)
    tab = restriction_table(scenario)
    offs = slot_offsets(scenario)
    mat = np.zeros((rows, ng), dtype=np.uint8)
    cols = np.arange(ng)
    for ci in range(scenario.n_contexts):
        mat[offs[ci] + tab[ci], cols] = 1
    mat.setflags(write=False)
    return mat


def scenario_to_json(scenario):
    if scenario.parties is not None:
        ps = sorted(set(scenario.parties))
        per_party = [sum(1 for p in scenario.parties if p == q) for q in ps]
        # compact Bell form only when fully regular
        if (
            len(set(per_party)) == 1
            and len(set(scenario.outcomes)) == 1
            and scenario == bell_scenario(len(ps), per_party[0], scenario.outcomes[0])
        ):
            return {
                "parties": len(ps),
                "settings": per_party[0],
                "outcomes": scenario.outcomes[0],
            }
    doc = {
        "measurements": list(scenario.measurements),
        "outcomes": list(scenario.outcomes),
        "cover": [list(c) for c in scenario.cover],
    }
    if scenario.parties is not None:
        doc["parties"] = list(scenario.parties)
    return doc


def scenario_from_json(doc):
    """Decode the Bell form {parties, settings, outcomes} or the explicit
    form {measurements, outcomes, cover[, parties]}. Either form raises
    ResourceLimitError past MAX_BELL_MEASUREMENTS measurements or
    MAX_BELL_CONTEXTS contexts, before the cover is checked, or past
    MAX_GLOBALS slots, and TypeError on a float where an integer is
    expected."""
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    if "parties" in doc and "measurements" not in doc:
        try:
            return bell_scenario(*(_json_int(doc[k]) for k in ("parties", "settings", "outcomes")))
        except KeyError as e:
            raise ValueError(f"Bell scenario form needs parties/settings/outcomes: missing {e}")
    try:
        measurements = tuple(doc["measurements"])
        cover = tuple(doc["cover"])
        # the same limits as the Bell form, before the pairwise antichain
        # check of the cover runs
        _require(len(measurements), "measurements", MAX_BELL_MEASUREMENTS)
        _require(len(cover), "contexts", MAX_BELL_CONTEXTS)
        scenario = MeasurementScenario(
            measurements=measurements,
            outcomes=doc["outcomes"],
            cover=cover,
            # tuple() keeps refusing "parties": null
            parties=tuple(doc["parties"]) if "parties" in doc else None,
        )
    except KeyError as e:
        raise ValueError(f"scenario object missing key {e}")
    _require(slot_count(scenario), "slots", MAX_GLOBALS)
    return scenario
