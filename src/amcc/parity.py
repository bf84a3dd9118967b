"""Parity systems over the contexts of a binary-outcome scenario.

A parity system asks, per context, for the XOR of its measurements' outcomes
to equal a target bit. Packed form: bit ci of the vector is context ci's
target (LSB = context 0, contexts in canonical cover order), so the
(4,2,2) system with odd targets on contexts 10, 11, 12 is 0x1c00.

Satisfiability is decided by GF(2) elimination: the satisfiable vectors are
exactly the span of the measurement column vectors. parity_scan counts them
as 2^rank and walks span tests up from 0 to its examples, a walk bounded by
`scenario._require` to MAX_SCAN_VECTORS tests before it starts. The checks
and tests hold it against parity_patterns, which enumerates every global
assignment's vector and is bounded by MAX_GLOBALS global assignments and by
62 contexts, the bits of one packed int64 pattern.
"""

import operator
from dataclasses import dataclass
from itertools import islice

import numpy as np

from .errors import PreconditionError
from .model import _parity_model
from .scenario import MAX_GLOBALS, MAX_SCAN_VECTORS, _require, global_size

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
    "ParityScan",
    "parity_scan",
    "build_symmetric_model",
]


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


def _reduce(v, basis):
    """v reduced against an echelon basis: 0 exactly when v is in its span."""
    while v:
        h = v.bit_length() - 1
        if h not in basis:
            return v
        v ^= basis[h]
    return v


def in_gf2_span(vector, vectors):
    return not _reduce(vector, gf2_basis(vectors))


def parity_patterns(scenario):
    """int64 array over global assignments: entry g packs the per-context
    XORs of assignment g, bit ci = parity in context ci: the XOR of the
    column vectors of the measurements that g sets to 1."""
    cols = column_vectors(scenario)
    n = len(cols)
    _require(scenario.n_contexts, "contexts in a packed int64 pattern", 62)
    ng = _require(global_size(scenario), "global assignments", MAX_GLOBALS)
    g = np.arange(ng, dtype=np.int64)
    pat = np.zeros_like(g)
    # big-endian packing: measurement m sits at bit (n - 1 - m)
    for m, col in enumerate(cols):
        pat ^= (g >> (n - 1 - m) & 1) * col
    return pat


def parity_satisfiable(system):
    """True iff some global assignment meets every context's parity target,
    i.e. the target vector lies in the GF(2) span of the column vectors."""
    return in_gf2_span(system.vector, column_vectors(system.scenario))


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

    2^rank vectors are satisfiable. The first `examples` (a non-negative
    integer) unsatisfiable ones come from span tests walked up from 0: at
    most examples + 2^rank tests, held to MAX_SCAN_VECTORS before the walk.

    The scan is single-threaded. `threads` is kept so that existing callers
    passing threads=1 still work; any other value raises PreconditionError."""
    if threads != 1:
        raise PreconditionError(f"threads must be 1, not {threads!r}")
    examples = operator.index(examples)
    if examples < 0:
        raise PreconditionError(f"examples must be 0 or more, not {examples}")
    basis = gf2_basis(column_vectors(scenario))
    rank = len(basis)
    total = 1 << scenario.n_contexts
    _require(min(examples + (1 << rank), total), "span tests", MAX_SCAN_VECTORS)
    unsat = (v for v in range(total) if _reduce(v, basis))
    return ParityScan(
        n_contexts=scenario.n_contexts,
        total=total,
        satisfiable=1 << rank,
        unsatisfiable=total - (1 << rank),
        rank=rank,
        examples=tuple(islice(unsat, examples)),
    )


def build_symmetric_model(system):
    """Uniform weights on each context's target-parity sections. For
    unsatisfiable systems this is a strongly contextual no-signaling model."""
    return _parity_model(system.scenario, system.parities)
