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
packed forms. `projection` gives, for each section of a context, the packed
index of its outcomes on a subset of the context's measurements, in the
subset's order; `restriction_table` does the same for global sections onto
each context. `marginal_rows` is the one layout of marginals as rows of
slots, one per outcome, and packs each distinct side's projection once, not
once per marginal; every no-signaling and marginal check reads such rows.
The cached `overlap_rows` is `marginal_rows` over every pair of contexts
that share a measurement, on the shared measurements, so every layout
finds its sides' keys in one place. A (context c, section s) cell has one
address, its slot slot_offsets[c] + s; the cached slot table
`_global_slots` is every scan's and certificate's restriction map.

Every size limit of the package lives here, and `_require` is the one check
that enforces them: each guard calls it with a count computed by arithmetic
alone, before the loop or allocation the count describes. The one budget
checked inside its loop is MAX_SIMPLEX_WORK, the cells a simplex solve
updates, which no count known in advance bounds.
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate, chain, combinations, product, repeat
from math import prod

import numpy as np

from .errors import ResourceLimitError
from .rational import _json_int, _listed

__all__ = [
    "MeasurementScenario",
    "bell_scenario",
    "MAX_BELL_MEASUREMENTS",
    "MAX_BELL_CONTEXTS",
    "MAX_GLOBALS",
    "MAX_SCAN_VECTORS",
    "MAX_TABLE_CELLS",
    "MAX_TABLEAU_CELLS",
    "MAX_SIMPLEX_WORK",
    "MAX_TRIALS",
    "unpack",
    "section_size",
    "section_outcomes",
    "section_index",
    "global_size",
    "global_outcomes",
    "restrict",
    "projection",
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
        for label in self.measurements:
            if not isinstance(label, str):
                raise TypeError(f"measurement labels must be strings, got {label!r}")
            if not label:
                raise ValueError("measurement labels must be nonempty")
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
        # not fields, so equality and hashing ignore them: the section
        # counts, and the fields' hash, which every per-scenario cache and
        # dict reads, so it is taken once
        object.__setattr__(
            self,
            "section_sizes",
            tuple(prod(self.outcomes[m] for m in ctx) for ctx in self.cover),
        )
        object.__setattr__(
            self, "_hash", hash((self.measurements, self.outcomes, self.cover, self.parties))
        )

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        # rebuilt through __init__, so an unpickled copy takes its own hash
        return type(self), (self.measurements, self.outcomes, self.cover, self.parties)

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

MAX_SCAN_VECTORS = 1 << 24  # span tests of parity_scan's walk to its examples

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

# cells one exact simplex solve may update, summed over its pivots, a cell
# on Python ints counting as ten (lp._run_array). Bland's rule terminates,
# but can take exponentially many pivots
MAX_SIMPLEX_WORK = 1 << 34

# trials of one augmentation search (csp.search_plans), which holds every
# hit: at (4,2,2), with one or two additions per context and every trial a
# hit, a run peaks about 5.3-5.8 KiB a trial above the process, so the
# limit holds it near 400 MiB
MAX_TRIALS = 1 << 16


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


def _packed(radices, orders, dtype=np.int64):
    """The packed index of every mixed-radix index over radices, in order,
    on its digits at the positions of each list in orders, in the order
    listed: one row of dtype per list. The digits are taken a position at a
    time, each weighed in every row by the radices of the positions listed
    after it there."""
    weights, used = [], set()
    for positions in orders:
        row, w = [0] * len(radices), 1
        for p in reversed(positions):
            row[p], w = w, w * radices[p]
        weights.append(row)
        used.update(positions)
    weights = np.array(weights, dtype).reshape(len(orders), len(radices)).T
    sections = np.arange(prod(radices), dtype=dtype)
    out = np.zeros((len(orders), sections.size), dtype)
    place = sections.size
    for p, r in enumerate(radices):
        place //= r
        if p in used and r > 1:
            out += np.multiply.outer(weights[p], sections // place % r)
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
    radices = [scenario.outcomes[m] for m in ctx]
    return tuple(_packed(radices, [[ctx.index(m) for m in ms]])[0].tolist())


def _membership(scenario):
    """int64 array (n_contexts, n_measurements): held[c, m] is 1 where
    context c holds measurement m, 0 elsewhere."""
    lengths = list(map(len, scenario.cover))
    held = np.zeros((len(lengths), len(scenario.measurements)), np.int64)
    held[np.repeat(np.arange(len(lengths)), lengths), list(chain.from_iterable(scenario.cover))] = 1
    return held


def _sources(keys):
    """(source, proj, rank) of sides keyed by their (outcome counts,
    positions) in keys: side i's _packed row onto its positions starts at
    source[proj[i]], its row onto the other positions, ascending, at
    source[rank[i]]. The sides of one tuple of outcome counts are packed
    together."""
    groups = {}
    for i, (radices, _) in enumerate(keys):
        groups.setdefault(radices, []).append(i)
    proj = np.zeros(len(keys), np.int64)
    tables, end = [np.empty(0, np.int64)], 0
    for radices, members in groups.items():
        orders = []
        for i in members:
            positions = keys[i][1]
            orders += [positions, [p for p in range(len(radices)) if p not in positions]]
        rows = _packed(radices, orders)
        proj[members] = end + 2 * rows.shape[1] * np.arange(len(members))
        end += rows.size
        tables.append(rows.ravel())
    rank = proj + np.array([prod(radices) for radices, _ in keys], np.int64)
    return np.concatenate(tables), proj, rank


# section entries laid out per block of sides, bounding the temporaries
_LAYOUT_BLOCK = 1 << 16


def _lay_out(scenario, which, ctx, second, key, keys):
    """(slot, sign, start, counts, k) of marginals given as arrays, each
    with one or two sides: entry j is the first or, if second[j], the
    second side of marginal which[j], each marginal's first side before
    its second, on context ctx[j], onto its positions keys[key[j]][1]
    (keys lists each distinct (outcome counts, positions) of a side once).
    A section lies on the row of its projection onto the positions, and is
    placed in that row by its projection onto the other positions,
    ascending, since that orders the sections of one row as their indices
    do; _sources packs both once per key. Marginal i has counts[i] rows,
    one more than its last section's row. Row k of marginal i lists its
    first side's slots, ascending, sign +1, then its second side's, sign
    -1; k[r] is row r's index in its marginal. The entries are scattered
    straight to their places, a block of sides at a time."""
    source, proj, rank = _sources(keys)
    proj, rank = proj[key], rank[key]
    offs = np.array(slot_offsets(scenario), np.int64)
    size = np.array(scenario.section_sizes, np.int64)[ctx]
    counts = np.zeros(int(which.max(initial=-1)) + 1, np.int64)
    counts[which] = source[proj + size - 1] + 1
    per_row = size // counts[which]
    # a second side follows the first side's share of each row
    shift = np.zeros_like(counts)
    shift[which[second == 0]] = per_row[second == 0]
    row_len = shift.copy()
    row_len[which[second == 1]] += per_row[second == 1]
    shift = shift[which] * second
    width = row_len * counts
    first = np.cumsum(width) - width
    k = np.arange(counts.sum()) - np.repeat(np.cumsum(counts) - counts, counts)
    start = np.append(np.repeat(first, counts) + k * np.repeat(row_len, counts), width.sum())
    slot = np.empty(int(width.sum()), np.int32)
    sign = np.empty(slot.size, np.int8)
    ends = np.cumsum(size)
    begins = ends - size
    lo = 0
    while lo < size.size:
        hi = max(lo + 1, int(np.searchsorted(ends, begins[lo] + _LAYOUT_BLOCK, "right")))
        j = np.repeat(np.arange(lo, hi), size[lo:hi])
        s = np.arange(j.size) - (begins[j] - begins[lo])
        i = which[j]
        dest = first[i] + shift[j] + source[proj[j] + s] * row_len[i] + source[rank[j] + s]
        slot[dest] = offs[ctx[j]] + s
        sign[dest] = 1 - 2 * second[j]
        lo = hi
    for a in (slot, sign, start):
        a.setflags(write=False)
    return slot, sign, start, counts, k


def _kinds(scenario):
    """Each context's outcome counts, and the first context with the same
    ones, its kind: the sides of contexts of one kind pack alike."""
    radices = [tuple(scenario.outcomes[m] for m in c) for c in scenario.cover]
    kinds = {}
    return radices, [kinds.setdefault(r, c) for c, r in enumerate(radices)]


def _repeated(items, counts):
    """Each of items, counts[i] times in turn."""
    return chain.from_iterable(map(repeat, items, counts))


def marginal_rows(scenario, marginals):
    """(slot, sign, start, rows) of marginals, each (measurements, contexts)
    with one or two contexts that hold every measurement: per outcome k of
    the measurements, packed in their listed order, ascending, a row of the
    first context's slots whose sections project onto k (sign +1), then the
    second's (-1), each ascending. Row r is entries start[r]:start[r + 1]
    of slot (int32) and sign (int8), rows[r] is (contexts, measurements,
    k), and no row is empty. Read-only. Laid out by _lay_out, each distinct
    side keyed once by its (outcome counts, positions). Raises ValueError,
    as projection does, on a side whose context lacks one of its
    measurements or whose measurements repeat one."""
    marginals = [(tuple(ms), tuple(cs)) for ms, cs in marginals]
    radices, kind = _kinds(scenario)
    # position[c](m): the position of measurement m in context c
    position = [dict(zip(c, range(len(c)))).__getitem__ for c in scenario.cover]
    sides = [len(cs) for _, cs in marginals]
    n = sum(sides)
    which = np.fromiter(_repeated(range(len(sides)), sides), np.int64, n)
    second = np.fromiter(chain.from_iterable(map(range, sides)), np.int64, n)
    ctx = np.fromiter(chain.from_iterable(cs for _, cs in marginals), np.int64, n)
    keys = {}

    def side_keys():
        # a side's positions are checked for repeats when their key is new
        for ms, cs in marginals:
            for c in cs:
                try:
                    side = kind[c], tuple(map(position[c], ms))
                except KeyError:
                    held = scenario.cover[c]
                    raise ValueError(f"measurements {ms} not all inside context {held}") from None
                found = keys.get(side)
                if found is None:
                    if len(set(side[1])) != len(ms):
                        raise ValueError("repeated measurement in marginal subset")
                    found = keys[side] = len(keys)
                yield found

    key = np.fromiter(side_keys(), np.int64, n)
    keys = [(radices[c], positions) for c, positions in keys]
    slot, sign, start, counts, k = _lay_out(scenario, which, ctx, second, key, keys)
    n = counts.tolist()
    contexts = _repeated((cs for _, cs in marginals), n)
    measurements = _repeated((ms for ms, _ in marginals), n)
    return slot, sign, start, tuple(zip(contexts, measurements, k.tolist()))


@lru_cache(maxsize=64)
def overlap_rows(scenario):
    """marginal_rows of every pair of contexts (ci, cj) that share a
    measurement, in `combinations` order, on their shared measurements
    ascending: each row is ci's marginal minus cj's at one shared outcome,
    so weights are no-signaling when every row sums to 0, and its label is
    ((ci, cj), shared, k). Raises ResourceLimitError, before the pairs are
    scanned, past MAX_TABLE_CELLS entries, at most (n_contexts - 1) * slots."""
    rows, cols = scenario.n_contexts - 1, slot_count(scenario)
    _require(rows * cols, f"cells in the overlap table of {rows} x {cols}", MAX_TABLE_CELLS)
    held = list(map(set, scenario.cover))
    pairs = [
        (sorted(a & b), (ci, cj))
        for (ci, a), (cj, b) in combinations(enumerate(held), 2)
        if not a.isdisjoint(b)
    ]
    return marginal_rows(scenario, pairs)


@lru_cache(maxsize=64)
def restriction_table(scenario):
    """int32 array (n_contexts, n_globals): restriction_table[c, g] is the
    section index of global g in context c. Read-only. Raises
    ResourceLimitError, before allocating, past MAX_TABLE_CELLS entries."""
    rows, cols = scenario.n_contexts, global_size(scenario)
    _require(rows * cols, f"cells in the restriction table of {rows} x {cols}", MAX_TABLE_CELLS)
    tab = np.empty((rows, cols), dtype=np.int32)
    for ci, ctx in enumerate(scenario.cover):
        tab[ci] = _packed(scenario.outcomes, [ctx], np.int32)[0]
    tab.setflags(write=False)
    return tab


def slot_offsets(scenario):
    """Start offset of each context's section block in the flat slot order."""
    return tuple(accumulate(scenario.section_sizes[:-1], initial=0))


def slot_count(scenario):
    return sum(scenario.section_sizes)


@lru_cache(maxsize=64)
def _global_slots(scenario):
    """Read-only int32 (n_contexts, n_globals) slot table: global g's slot in
    context c, slot_offsets[c] + restriction_table[c, g]."""
    slots = np.array(slot_offsets(scenario), np.int32)[:, None] + restriction_table(scenario)
    slots.setflags(write=False)
    return slots


@lru_cache(maxsize=64)
def incidence_matrix(scenario):
    """0/1 matrix with one row per (context, section) slot and one column per
    global section; entry 1 iff the global restricts to that section. Rows
    follow cover order then section order. Read-only uint8. Raises
    ResourceLimitError, before allocating, past MAX_TABLE_CELLS entries."""
    rows, ng = slot_count(scenario), global_size(scenario)
    _require(rows * ng, f"cells in the incidence matrix of {rows} x {ng}", MAX_TABLE_CELLS)
    mat = np.zeros((rows, ng), dtype=np.uint8)
    mat[_global_slots(scenario), np.arange(ng)] = 1
    mat.setflags(write=False)
    return mat


def scenario_to_json(scenario):
    """The Bell form {parties, settings, outcomes} of a scenario equal to
    bell_scenario of its shape, else the explicit form. A shape whose
    context count is not settings ** parties, or that bell_scenario
    refuses, is written explicitly, so every valid scenario is written."""
    if scenario.parties is not None:
        ps = sorted(set(scenario.parties))
        per_party = [sum(1 for p in scenario.parties if p == q) for q in ps]
        parties, settings, outcomes = len(ps), per_party[0], scenario.outcomes[0]
        # compact Bell form only when fully regular
        if (
            len(set(per_party)) == 1
            and len(set(scenario.outcomes)) == 1
            and scenario.n_contexts == settings**parties
        ):
            try:
                if scenario == bell_scenario(parties, settings, outcomes):
                    return {"parties": parties, "settings": settings, "outcomes": outcomes}
            except ResourceLimitError:
                pass
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
    expected, on a measurement label that is not a string, or on a string
    or an object where a list is: the measurements, the cover, each
    context, the outcomes and the parties are read through _listed."""
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    if "parties" in doc and "measurements" not in doc:
        try:
            return bell_scenario(*(_json_int(doc[k]) for k in ("parties", "settings", "outcomes")))
        except KeyError as e:
            raise ValueError(f"Bell scenario form needs parties/settings/outcomes: missing {e}")
    try:
        measurements = tuple(_listed(doc["measurements"]))
        cover = tuple(map(_listed, _listed(doc["cover"])))
        # the same limits as the Bell form, before the pairwise antichain
        # check of the cover runs
        _require(len(measurements), "measurements", MAX_BELL_MEASUREMENTS)
        _require(len(cover), "contexts", MAX_BELL_CONTEXTS)
        scenario = MeasurementScenario(
            measurements=measurements,
            outcomes=_listed(doc["outcomes"]),
            cover=cover,
            # tuple() keeps refusing "parties": null
            parties=tuple(_listed(doc["parties"])) if "parties" in doc else None,
        )
    except KeyError as e:
        raise ValueError(f"scenario object missing key {e}")
    _require(slot_count(scenario), "slots", MAX_GLOBALS)
    return scenario
