"""Augmented parity supports.

A parity support can be enlarged context by context with sections drawn
from the opposite parity class. This module builds such augmented
supports, ships the reference augmentation whose one-parameter family of
distributions is frozen in a bundled data file, and runs a seeded random
search for further augmentations that remain strongly contextual and
possibilistically no-signaling.
"""

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .affine import family_to_csv, lin_str, parameter_bounds, solve_support
from .errors import PreconditionError, VerificationError
from .parity import ParitySystem
from .possibilistic import (
    SupportModel,
    possibilistic_no_signaling,
    strong_contextuality,
)
from .rational import rat, rat_str
from .scenario import scenario_from_json, scenario_to_json, section_size


def satisfying_sections(system, ci):
    """Sections of context ci that satisfy the context's parity equation."""
    want = system.parities[ci]
    size = section_size(system.scenario, ci)
    return tuple(si for si in range(size) if bin(si).count("1") & 1 == want)


def opposite_sections(system, ci):
    """Sections of context ci that violate the context's parity equation."""
    want = system.parities[ci]
    size = section_size(system.scenario, ci)
    return tuple(si for si in range(size) if bin(si).count("1") & 1 != want)


@dataclass(frozen=True)
class AugmentationPlan:
    """A parity system plus extra sections to allow in each context.

    Every added section must come from the context's opposite parity
    class, so an addition can never coincide with a section the parity
    equation already allows. Additions are kept sorted and unique.
    """

    base: ParitySystem
    additions: tuple  # one sorted tuple of extra sections per context

    def __post_init__(self):
        sc = self.base.scenario
        if len(self.additions) != sc.n_contexts:
            raise PreconditionError("need one addition tuple per context")
        for ci, extra in enumerate(self.additions):
            size = section_size(sc, ci)
            if list(extra) != sorted(set(extra)):
                raise PreconditionError(
                    f"context {ci}: additions must be sorted and unique"
                )
            for si in extra:
                if not 0 <= si < size:
                    raise PreconditionError(
                        f"context {ci}: section {si} out of range"
                    )
                if bin(si).count("1") & 1 == self.base.parities[ci]:
                    raise PreconditionError(
                        f"context {ci}: section {si} already satisfies the "
                        "parity equation"
                    )


def plan_counts(plan):
    return tuple(len(extra) for extra in plan.additions)


def apply_plan(plan):
    """Support allowing each context's parity class plus its additions."""
    sc = plan.base.scenario
    masks = []
    for ci in range(sc.n_contexts):
        mask = 0
        for si in satisfying_sections(plan.base, ci):
            mask |= 1 << si
        for si in plan.additions[ci]:
            mask |= 1 << si
        masks.append(mask)
    return SupportModel(scenario=sc, masks=tuple(masks))


def plan_to_json(plan):
    return {
        "scenario": scenario_to_json(plan.base.scenario),
        "parities": list(plan.base.parities),
        "additions": [list(extra) for extra in plan.additions],
    }


def plan_from_json(doc):
    sc = scenario_from_json(doc["scenario"])
    base = ParitySystem(sc, tuple(int(p) for p in doc["parities"]))
    additions = tuple(
        tuple(int(si) for si in extra) for extra in doc["additions"]
    )
    return AugmentationPlan(base=base, additions=additions)


@lru_cache(maxsize=1)
def _reference_data():
    path = resources.files("amcc") / "data" / "reference_tables.json"
    return json.loads(path.read_text())


def reference_plan():
    """The bundled augmentation plan behind the frozen reference tables."""
    data = _reference_data()
    sc = scenario_from_json(data["scenario"])
    base = ParitySystem(sc, tuple(data["base_parities"]))
    additions = tuple(tuple(extra) for extra in data["additions"])
    return AugmentationPlan(base=base, additions=additions)


def search_plans(base, counts, trials, seed, threads=1):
    """Draw seeded random plans and keep those passing both filters.

    Each trial adds counts[ci] sections to context ci, sampled from the
    opposite parity class with an independent substream derived from
    (seed, trial). A plan is a hit when its support is strongly
    contextual and possibilistically no-signaling. Hits are returned in
    trial order; the result depends only on (base, counts, trials, seed).

    Trials run one after another. `threads` is kept so that existing callers
    passing threads=1 still work; any other value raises PreconditionError.
    """
    if threads != 1:
        raise PreconditionError(f"threads must be 1, not {threads!r}")
    sc = base.scenario
    if len(counts) != sc.n_contexts:
        raise PreconditionError("need one addition count per context")
    opposite = tuple(opposite_sections(base, ci) for ci in range(sc.n_contexts))
    for ci, count in enumerate(counts):
        if not 0 <= count <= len(opposite[ci]):
            raise PreconditionError(
                f"context {ci}: count {count} exceeds the opposite parity "
                f"class of size {len(opposite[ci])}"
            )
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")

    hits = []
    for trial in range(trials):
        rng = random.Random(seed * 1_000_003 + trial)
        additions = tuple(
            tuple(sorted(rng.sample(opposite[ci], count))) if count else ()
            for ci, count in enumerate(counts)
        )
        plan = AugmentationPlan(base=base, additions=additions)
        support = apply_plan(plan)
        is_sc, _ = strong_contextuality(support)
        if is_sc and possibilistic_no_signaling(support)[0]:
            hits.append(plan)
    return hits


@dataclass(frozen=True)
class ReconstructionReport:
    dimension: int
    bounds: tuple  # (lo, hi) of the family parameter
    diffs: tuple  # (context, section, expected, actual) symbolic strings
    interval_ok: bool
    csv: str
    ok: bool


def report_to_json(report):
    lo, hi = report.bounds
    return {
        "dimension": report.dimension,
        "interval": [
            None if lo is None else rat_str(lo),
            None if hi is None else rat_str(hi),
        ],
        "diffs": [
            {"context": ci, "section": si, "expected": exp, "actual": got}
            for ci, si, exp, got in report.diffs
        ],
        "interval_ok": report.interval_ok,
        "ok": report.ok,
    }


def reconstruct_tables():
    """Rebuild the reference family and diff it against the frozen tables.

    Returns (family, report) on an exact match and raises
    VerificationError with the located differences otherwise.
    """
    data = _reference_data()
    support = apply_plan(reference_plan())
    family = solve_support(support)
    if family is None:
        raise VerificationError("reference support admits no distribution")
    if family.dimension != 1:
        raise VerificationError(
            "reference support should leave a one-parameter family",
            details={"dimension": family.dimension},
        )

    diffs = []
    for ci, row in enumerate(data["table"]):
        for si, (const_s, coeff_s) in enumerate(row):
            want = (rat(const_s), rat(coeff_s))
            const, coeffs = family.entry(ci, si)
            if (const, coeffs[0]) != want:
                diffs.append(
                    (ci, si, lin_str(*want), lin_str(const, coeffs[0]))
                )

    bounds = parameter_bounds(family)
    want_lo, want_hi = (rat(s) for s in data["interval"])
    interval_ok = bounds == (want_lo, want_hi)

    report = ReconstructionReport(
        dimension=family.dimension,
        bounds=bounds,
        diffs=tuple(diffs),
        interval_ok=interval_ok,
        csv=family_to_csv(family),
        ok=not diffs and interval_ok,
    )
    if not report.ok:
        raise VerificationError(
            "reconstructed tables disagree with the frozen transcription",
            details=report_to_json(report),
        )
    return family, report
