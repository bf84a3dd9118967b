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
"""

from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product
from math import prod

import numpy as np

__all__ = [
    "MeasurementScenario",
    "bell_scenario",
    "section_size",
    "section_outcomes",
    "section_index",
    "global_size",
    "global_outcomes",
    "global_index",
    "enumerate_global_sections",
    "restrict",
    "restrict_context",
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
        object.__setattr__(self, "outcomes", tuple(int(o) for o in self.outcomes))
        object.__setattr__(self, "cover", tuple(tuple(int(m) for m in c) for c in self.cover))
        if self.parties is not None:
            object.__setattr__(self, "parties", tuple(int(p) for p in self.parties))
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


@lru_cache(maxsize=None)
def bell_scenario(parties, settings, outcomes):
    """(n, m, o) Bell scenario: n parties, m settings each, o outcomes each.
    Labels are Y1, Y1', Y2, ... with one prime mark per extra setting."""
    if parties < 1 or settings < 1 or outcomes < 1:
        raise ValueError("parties, settings and outcomes must all be >= 1")
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


def section_size(scenario, ci):
    return scenario.section_sizes[ci]


def section_outcomes(scenario, ci, si):
    """Decode a section index into the outcome tuple of context ci."""
    ctx = scenario.cover[ci]
    if not 0 <= si < section_size(scenario, ci):
        raise ValueError(f"section {si} out of range for context {ctx}")
    vals = []
    for m in reversed(ctx):
        o = scenario.outcomes[m]
        vals.append(si % o)
        si //= o
    return tuple(reversed(vals))


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
    vals = []
    for o in reversed(scenario.outcomes):
        vals.append(gi % o)
        gi //= o
    return tuple(reversed(vals))


def global_index(scenario, outcomes):
    if len(outcomes) != len(scenario.measurements):
        raise ValueError("global assignment must cover every measurement")
    gi = 0
    for o, v in zip(scenario.outcomes, outcomes):
        if not 0 <= v < o:
            raise ValueError(f"outcome {v} out of range")
        gi = gi * o + v
    return gi


def enumerate_global_sections(scenario):
    """All global assignments in canonical order, as packed indices."""
    return range(global_size(scenario))


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


def restrict_context(scenario, gi, ci):
    """Section index of global section gi inside context ci."""
    if not 0 <= ci < scenario.n_contexts:
        raise ValueError(f"unknown context index {ci}")
    g = global_outcomes(scenario, gi)
    return section_index(scenario, ci, tuple(g[m] for m in scenario.cover[ci]))


@lru_cache(maxsize=64)
def restriction_table(scenario):
    """int32 array (n_contexts, n_globals): restriction_table[c, g] is the
    section index of global g in context c. Read-only."""
    ng = global_size(scenario)
    tab = np.empty((scenario.n_contexts, ng), dtype=np.int32)
    for gi in range(ng):
        g = global_outcomes(scenario, gi)
        for ci, ctx in enumerate(scenario.cover):
            tab[ci, gi] = section_index(scenario, ci, tuple(g[m] for m in ctx))
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
    follow cover order then section order. Read-only uint8."""
    tab = restriction_table(scenario)
    offs = slot_offsets(scenario)
    rows = slot_count(scenario)
    ng = tab.shape[1]
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
    if not isinstance(doc, dict):
        raise ValueError("scenario must be a JSON object")
    if "parties" in doc and "measurements" not in doc:
        try:
            return bell_scenario(int(doc["parties"]), int(doc["settings"]), int(doc["outcomes"]))
        except KeyError as e:
            raise ValueError(f"Bell scenario form needs parties/settings/outcomes: missing {e}")
    try:
        return MeasurementScenario(
            measurements=tuple(doc["measurements"]),
            outcomes=tuple(doc["outcomes"]),
            cover=tuple(tuple(c) for c in doc["cover"]),
            parties=tuple(doc["parties"]) if "parties" in doc else None,
        )
    except KeyError as e:
        raise ValueError(f"scenario object missing key {e}")
