"""The two integer scans of the possibilistic layer, in numpy.

Two scans dominate the integer work: marking which parity-pattern values are
realized by some global assignment, and marking which global assignments are
compatible with a per-context support. Both are pure bit/index work; the
exact-rational code (LP, affine solving) never comes through here.
"""

import numpy as np

__all__ = ["KERNELS", "scan_satisfiable", "compatible_mask"]

KERNELS = "numpy"  # the one implementation, reported by benchmark records


def scan_satisfiable(patterns, n_values):
    """Boolean mask over the values [0, n_values): True where some entry of
    `patterns` equals the value. `patterns` is int64, one entry per global
    assignment."""
    patterns = np.asarray(patterns, dtype=np.int64)
    return np.isin(np.arange(n_values, dtype=np.int64), np.unique(patterns))


def compatible_mask(support, table):
    """Boolean mask over global assignments: True where every context's
    restriction lands inside the support.

    support: bool (n_contexts, max_section_size), padded with False.
    table:   int (n_contexts, n_globals) restriction table."""
    support = np.asarray(support, dtype=np.bool_)
    return support[np.arange(table.shape[0])[:, None], table].all(axis=0)
