"""Parity systems over the contexts of a binary-outcome scenario.

A parity system asks, per context, for the XOR of its measurements' outcomes
to equal a target bit. Packed form: bit ci of the vector is context ci's
target (LSB = context 0, contexts in canonical cover order), so the
(4,2,2) system with odd targets on contexts 10, 11, 12 is 0x1c00.

Satisfiability is decided twice on every call: by GF(2) elimination against
the measurement column vectors, and by brute enumeration of global
assignments through the numpy pattern scan. Disagreement raises, so the
two routes police each other permanently.
"""

from dataclasses import dataclass

import numpy as np

from .errors import PreconditionError, ResourceLimitError, VerificationError
from .kernels import scan_satisfiable
from .model import EmpiricalModel, _parity_tables
from .scenario import global_size

__all__ = [
    "ParitySystem",
    "parity_system_from_vector",
    "parity_vector",
    "vector_hex",
    "column_vectors",
    "gf2_basis",
    "gf2_rank",
    "in_gf2_span",
    "parity_patterns",
    "parity_satisfiable",
    "parity_witness",
    "ParityScan",
    "parity_scan",
    "build_symmetric_model",
]

MAX_SCAN_VECTORS = 1 << 24  # full scans enumerate every parity vector


def _require_binary(scenario):
    if any(o != 2 for o in scenario.outcomes):
        raise PreconditionError("parity systems need binary outcomes everywhere")


@dataclass(frozen=True)
class ParitySystem:
    scenario: object
    parities: tuple  # one target bit per context, cover order

    def __post_init__(self):
        _require_binary(self.scenario)
        if len(self.parities) != self.scenario.n_contexts:
            raise ValueError("need one parity target per context")
        if any(p not in (0, 1) for p in self.parities):
            raise ValueError("parity targets must be 0 or 1")

    @property
    def vector(self):
        return parity_vector(self.parities)


def parity_vector(parities):
    v = 0
    for ci, p in enumerate(parities):
        v |= (p & 1) << ci
    return v


def parity_system_from_vector(scenario, vector):
    n = scenario.n_contexts
    if not 0 <= vector < (1 << n):
        raise ValueError(f"parity vector {vector} out of range for {n} contexts")
    return ParitySystem(scenario, tuple((vector >> ci) & 1 for ci in range(n)))


def vector_hex(vector, n_contexts):
    width = (n_contexts + 3) // 4
    return f"0x{vector:0{width}x}"


def column_vectors(scenario):
    """For each measurement, the bitmask of contexts containing it. The
    satisfiable parity vectors are exactly the GF(2) span of these."""
    _require_binary(scenario)
    cols = [0] * len(scenario.measurements)
    for ci, ctx in enumerate(scenario.cover):
        for m in ctx:
            cols[m] |= 1 << ci
    return tuple(cols)


def gf2_basis(vectors):
    """Echelon basis keyed by leading bit: {lead: vector}."""
    basis = {}
    for v in vectors:
        while v:
            h = v.bit_length() - 1
            if h not in basis:
                basis[h] = v
                break
            v ^= basis[h]
    return basis


def gf2_rank(vectors):
    return len(gf2_basis(vectors))


def in_gf2_span(vector, vectors):
    basis = gf2_basis(vectors)
    v = vector
    while v:
        h = v.bit_length() - 1
        if h not in basis:
            return False
        v ^= basis[h]
    return True


def parity_patterns(scenario):
    """int64 array over global assignments: entry g packs the per-context
    XORs of assignment g, bit ci = parity in context ci."""
    _require_binary(scenario)
    n = len(scenario.measurements)
    if n > 24:
        raise ResourceLimitError(f"{n} binary measurements exceeds the pattern limit")
    if scenario.n_contexts > 62:
        raise ResourceLimitError("too many contexts for packed int64 patterns")
    ng = global_size(scenario)
    g = np.arange(ng, dtype=np.int64)
    # big-endian packing: measurement m sits at bit (n - 1 - m)
    bits = (g[:, None] >> (n - 1 - np.arange(n))) & 1
    pat = np.zeros(ng, dtype=np.int64)
    for ci, ctx in enumerate(scenario.cover):
        pat |= (bits[:, list(ctx)].sum(axis=1) & 1) << ci
    return pat


def _satisfiable_by_elimination(system):
    return in_gf2_span(system.vector, column_vectors(system.scenario))


def _satisfiable_by_enumeration(system):
    pats = parity_patterns(system.scenario)
    hits = np.nonzero(pats == system.vector)[0]
    return (True, int(hits[0])) if hits.size else (False, None)


def parity_satisfiable(system):
    """True iff some global assignment meets every context's parity target.
    Decided by both elimination and enumeration; disagreement raises."""
    by_elim = _satisfiable_by_elimination(system)
    by_enum, _ = _satisfiable_by_enumeration(system)
    if by_elim != by_enum:
        raise VerificationError(
            "parity satisfiability routes disagree",
            details={"elimination": by_elim, "enumeration": by_enum,
                     "vector": system.vector},
        )
    return by_elim


def parity_witness(system):
    """A satisfying global assignment index, or None."""
    _, witness = _satisfiable_by_enumeration(system)
    return witness


@dataclass(frozen=True)
class ParityScan:
    n_contexts: int
    total: int
    satisfiable: int
    unsatisfiable: int
    rank: int
    examples: tuple  # first few unsatisfiable vectors, ascending


def parity_scan(scenario, threads=1, examples=8):
    """Classify every parity vector of the scenario as satisfiable or not.

    The enumeration count is cross-checked against the elimination count
    2^contexts - 2^rank, and each collected example is re-verified by
    elimination; any mismatch raises.

    The scan is single-threaded. `threads` is kept so that existing callers
    passing threads=1 still work; any other value raises PreconditionError."""
    if threads != 1:
        raise PreconditionError(f"threads must be 1, not {threads!r}")
    _require_binary(scenario)
    n_vec = 1 << scenario.n_contexts
    if n_vec > MAX_SCAN_VECTORS:
        raise ResourceLimitError(
            f"{n_vec} parity vectors exceeds the scan limit {MAX_SCAN_VECTORS}"
        )
    sat = scan_satisfiable(parity_patterns(scenario), n_vec)
    n_sat = int(sat.sum())
    n_unsat = n_vec - n_sat
    cols = column_vectors(scenario)
    rank = gf2_rank(cols)
    if n_sat != 1 << rank:
        raise VerificationError(
            "parity scan disagrees with elimination count",
            details={"enumerated": n_sat, "rank": rank},
        )
    unsat_idx = np.nonzero(~sat)[0][:examples]
    ex = tuple(int(v) for v in unsat_idx)
    for v in ex:
        if in_gf2_span(v, cols):
            raise VerificationError(
                "scan marked a spanned vector unsatisfiable", details={"vector": v}
            )
    return ParityScan(
        n_contexts=scenario.n_contexts,
        total=n_vec,
        satisfiable=n_sat,
        unsatisfiable=n_unsat,
        rank=rank,
        examples=ex,
    )


def build_symmetric_model(system):
    """Uniform weights on each context's target-parity sections. For
    unsatisfiable systems this is a strongly contextual no-signaling model."""
    return EmpiricalModel(system.scenario, _parity_tables(system.scenario, system.parities))
