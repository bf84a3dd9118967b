"""Augmented parity supports.

A parity support can be enlarged context by context with sections drawn
from the opposite parity class. This module builds such augmented
supports, ships the reference augmentation whose one-parameter family of
distributions is frozen in a bundled data file, and runs a seeded random
search for further augmentations that remain strongly contextual. Every
augmented parity support is possibilistically no-signaling (see
`search_plans`), so the search checks strong contextuality alone. It works
out CPython's sample rule once per search, draws each trial in one pass
over that schedule, and decides a block of trials at a time with
possibilistic's strong-contextuality scan, which re-checks the witness of
every trial it rejects. Its hits are valid plans by construction, so only
AugmentationPlan's public constructor runs the per-section check.
"""

import json
import random
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources
from itertools import accumulate
from math import ceil, log

import numpy as np

from .affine import lin_str, parameter_bounds, solve_support
from .errors import PreconditionError, VerificationError
from .parity import ParitySystem
from .possibilistic import SupportModel, _pack_masks, _strong_contextualities
from .rational import _json_int, _listed, rat, rat_str
from .scenario import (
    MAX_GLOBALS,
    MAX_TRIALS,
    _require,
    global_size,
    scenario_from_json,
    scenario_to_json,
    section_size,
    slot_offsets,
)

# slot-table cells one compatibility block may gather, one byte each:
# 16 trials at (4,2,2), whose 16 contexts have 256 global assignments. The
# 64 KiB gather stays below glibc's default 128 KiB mmap threshold; blocks of 64
# trials ran no faster and raised the search's peak RSS by about 0.5 MiB.
BLOCK_CELLS = 1 << 16


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
    equation already allows. Additions are kept sorted and unique. The
    constructor checks each context in one loop; search_plans builds its
    hits, valid by construction, with _plan_from_draws, which skips it.
    """

    base: ParitySystem
    additions: tuple  # one sorted tuple of extra sections per context

    def __post_init__(self):
        sc = self.base.scenario
        if len(self.additions) != sc.n_contexts:
            raise PreconditionError("need one addition tuple per context")
        for ci, extra in enumerate(self.additions):
            _check_additions(sc, self.base.parities[ci], ci, extra)


def _check_additions(scenario, parity, ci, extra):
    """Raise PreconditionError unless extra is sorted, unique, in range and
    of the opposite parity class of context ci's target `parity`."""
    size = section_size(scenario, ci)
    if list(extra) != sorted(set(extra)):
        raise PreconditionError(f"context {ci}: additions must be sorted and unique")
    for si in extra:
        if not 0 <= si < size:
            raise PreconditionError(f"context {ci}: section {si} out of range")
        if bin(si).count("1") & 1 == parity:
            raise PreconditionError(
                f"context {ci}: section {si} already satisfies the parity equation"
            )


def _plan_from_draws(base, additions):
    """AugmentationPlan(base, additions) without __post_init__, for tuples
    that _draw drew from base's opposite classes."""
    plan = object.__new__(AugmentationPlan)
    object.__setattr__(plan, "base", base)
    object.__setattr__(plan, "additions", additions)
    return plan


def plan_counts(plan):
    return tuple(len(extra) for extra in plan.additions)


@lru_cache(maxsize=64)
def _opposite_classes(system):
    """Per context, the opposite parity class as a sorted tuple."""
    return tuple(opposite_sections(system, ci) for ci in range(system.scenario.n_contexts))


@lru_cache(maxsize=64)
def _parity_masks(system):
    """Per context, the bitmask of the sections satisfying its parity equation."""
    return tuple(
        sum(1 << si for si in satisfying_sections(system, ci))
        for ci in range(system.scenario.n_contexts)
    )


def _augmented_masks(base, additions):
    """Per context, the parity-class mask of base with the additions set."""
    masks = []
    for mask, extra in zip(_parity_masks(base), additions):
        for si in extra:
            mask |= 1 << si
        masks.append(mask)
    return tuple(masks)


def apply_plan(plan):
    """Support allowing each context's parity class plus its additions."""
    return SupportModel(plan.base.scenario, _augmented_masks(plan.base, plan.additions))


def plan_to_json(plan):
    return {
        "scenario": scenario_to_json(plan.base.scenario),
        "parities": list(plan.base.parities),
        "additions": [list(extra) for extra in plan.additions],
    }


def plan_from_json(doc):
    """Decode a plan document; a document that is not an object or lacks a
    key is refused with ValueError, and its parities, its additions or an
    addition given as a string or an object is refused (_listed), as is a
    float."""
    if not isinstance(doc, dict):
        raise ValueError("plan must be a JSON object")
    for key in ("scenario", "parities", "additions"):
        if key not in doc:
            raise ValueError(f"plan JSON missing key {key!r}")
    sc = scenario_from_json(doc["scenario"])
    base = ParitySystem(sc, tuple(map(_json_int, _listed(doc["parities"]))))
    additions = tuple(tuple(map(_json_int, _listed(extra))) for extra in _listed(doc["additions"]))
    return AugmentationPlan(base=base, additions=additions)


@lru_cache(maxsize=1)
def _reference_data():
    path = resources.files("amcc") / "data" / "reference_tables.json"
    return json.loads(path.read_text())


def reference_plan():
    """The bundled augmentation plan behind the frozen reference tables."""
    data = _reference_data()
    return plan_from_json(dict(data, parities=data["base_parities"]))


def _draw_schedule(draws):
    """Per (population, k) of draws, what CPython's Random.sample(population,
    k) does that does not depend on the generator, for _draw. The set size is
    21, plus 4 ** ceil(log(3k, 4)) when k > 5. When n = len(population) is at
    most the set size, the sample swaps each pick out of a pool, drawing below
    m for m from n down: steps holds each (m, m.bit_length()). Else it redraws
    indices already picked, each below n from bits = n.bit_length(), and steps
    is None. A draw below m is getrandbits(m.bit_length()), redrawn while it
    is m or more."""
    schedule = []
    for population, k in draws:
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError("Sample larger than population or is negative")
        setsize = 21
        if k > 5:
            setsize += 4 ** ceil(log(k * 3, 4))
        if n <= setsize:
            steps = tuple((m, m.bit_length()) for m in range(n, n - k, -1))
            schedule.append((population, k, steps, 0))
        else:
            schedule.append((population, k, None, n.bit_length()))
    return tuple(schedule)


def _draw(getrandbits, schedule, flat):
    """Append sorted(Random.sample(population, k)) to flat for each entry of a
    _draw_schedule, from the same calls of the generator's getrandbits, so
    the generator ends in the same state."""
    for population, k, steps, bits in schedule:
        if steps is not None:
            pool = list(population)
            picks = []
            for m, width in steps:
                j = getrandbits(width)
                while j >= m:
                    j = getrandbits(width)
                picks.append(pool[j])
                pool[j] = pool[m - 1]
        else:
            n = len(population)
            chosen = set()
            while len(chosen) < k:
                j = getrandbits(bits)
                if j < n:
                    chosen.add(j)
            picks = [population[j] for j in chosen]
        picks.sort()
        flat += picks


def search_plans(base, counts, trials, seed, threads=1):
    """Draw seeded random plans and keep the strongly contextual ones.

    Each trial adds counts[ci] sections to context ci, sampled from the
    opposite parity class. Trial t's draws are those of
    random.Random(seed * 1_000_003 + t).sample(opposite class, counts[ci])
    over the contexts in order, reproduced from the generator's getrandbits
    calls, so they depend only on MT19937's getrandbits stream, not on the
    standard library's sample code. The sample rule is worked out once per
    call (_draw_schedule); each trial is one reseed and one _draw pass, which
    appends its sorted picks to the block's flat list, and a trial's picks
    become additions only when it is a hit. A plan is a hit when its support
    is strongly contextual. Hits are returned in trial order; the result
    depends only on (base, counts, trials, seed). Hits are valid by
    construction (sorted draws from the opposite classes), so they skip the
    per-section check.

    Every hit is possibilistically no-signaling, so no trial checks it:
    - outcomes are binary (ParitySystem requires it);
    - a context's parity class projects onto every outcome tuple of any
      proper subset of its measurements, since flipping one outcome outside
      the subset flips the parity;
    - additions only add sections, so the projection stays complete;
    - two contexts of an antichain cover share a proper subset of each.
    So every overlapping pair allows every joint outcome of its shared
    measurements, on both sides.

    Strong contextuality is decided a block of trials at a time: the
    block's supports are set straight from the parity classes and the drawn
    sections into one bool array of trials x slots, which gathers at most
    BLOCK_CELLS slot-table cells, and each block goes through
    `_strong_contextualities`. A trial is a hit when no global assignment
    is compatible with its support. MAX_GLOBALS is checked before any
    section list is built, and MAX_TRIALS before the first draw, as every
    hit is held.

    Trials run one after another. `threads` is kept so that existing callers
    passing threads=1 still work; any other value raises PreconditionError.
    """
    if threads != 1:
        raise PreconditionError(f"threads must be 1, not {threads!r}")
    sc = base.scenario
    n_contexts = sc.n_contexts
    if len(counts) != n_contexts:
        raise PreconditionError("need one addition count per context")
    n_globals = _require(global_size(sc), "global assignments", MAX_GLOBALS)
    opposite = _opposite_classes(base)
    for ci, count in enumerate(counts):
        if not 0 <= count <= len(opposite[ci]):
            raise PreconditionError(
                f"context {ci}: count {count} exceeds the opposite parity "
                f"class of size {len(opposite[ci])}"
            )
    if trials < 0:
        raise PreconditionError("trials must be nonnegative")
    _require(trials, "trials", MAX_TRIALS)
    block = max(1, BLOCK_CELLS // (n_contexts * n_globals))
    parity_cells = _pack_masks(sc, (_parity_masks(base),))
    # flat offset in a block array of each trial's row plus the offset of
    # every drawn section's context, in the order _draw appends
    rows = np.arange(block)[:, None] * parity_cells.shape[1]
    per_trial = sum(counts)
    drawn_rows = (rows + np.repeat(slot_offsets(sc), counts)).ravel()
    schedule = _draw_schedule((opposite[ci], count) for ci, count in enumerate(counts) if count)
    cuts = tuple(slice(end - count, end) for count, end in zip(counts, accumulate(counts)))

    # trial t's picks, one sorted tuple per context; tuple() over an iterator
    # resizes its tuple, which CPython's free lists then keep, raising peak RSS
    def additions(flat, t):
        picks = tuple(flat[t * per_trial:(t + 1) * per_trial])
        return tuple([picks[cut] for cut in cuts])

    rng = random.Random()
    getrandbits = rng.getrandbits
    # Random.seed's C base: the wrapper only screens str and bytes seeds and
    # clears the gauss cache; calling the base took 4% off a search-422 batch
    reseed = super(random.Random, rng).seed
    hits = []
    for start in range(0, trials, block):
        n = min(block, trials - start)
        flat = []  # the block's drawn sections, trial by trial
        for trial in range(start, start + n):
            reseed(seed * 1_000_003 + trial)
            _draw(getrandbits, schedule, flat)
        support = parity_cells.repeat(n, axis=0)
        support.reshape(-1)[drawn_rows[: n * per_trial] + np.array(flat, np.intp)] = True
        verdicts = _strong_contextualities(sc, support)
        hits.extend(_plan_from_draws(base, additions(flat, t)) for t, (hit, _) in enumerate(verdicts) if hit)
    return hits


@dataclass(frozen=True)
class ReconstructionReport:
    dimension: int
    bounds: tuple  # (lo, hi) of the family parameter
    diffs: tuple  # (context, section, expected, actual) symbolic strings
    interval_ok: bool
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
        ok=not diffs and interval_ok,
    )
    if not report.ok:
        raise VerificationError(
            "reconstructed tables disagree with the frozen transcription",
            details=report_to_json(report),
        )
    return family, report
