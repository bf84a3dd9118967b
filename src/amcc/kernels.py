"""The two integer scans of the possibilistic layer, in numpy.

Two scans dominate the integer work: marking which parity-pattern values are
realized by some global assignment, and marking which global assignments are
compatible with a per-context support. Both are pure bit/index work; the
exact-rational code (LP, affine solving) never comes through here. The
parity-pattern scan is the oracle verify and the tests hold elimination to.

The compatibility scan reads supports in slot order through the slot table
and takes leading batch axes, so a block of them is decided in one gather.
"""

import numpy as np

__all__ = ["KERNELS", "scan_satisfiable", "compatible_mask"]

KERNELS = "numpy"  # the one implementation, reported by benchmark records


def scan_satisfiable(patterns, n_values):
    """Boolean mask over the values [0, n_values): True where some entry of
    `patterns` equals the value. `patterns` is int64, one entry per global
    assignment; entries outside [0, n_values) are ignored. One scatter, not
    np.unique, which would import numpy.ma on its first call."""
    patterns = np.asarray(patterns, dtype=np.int64)
    mask = np.zeros(n_values, dtype=np.bool_)
    mask[patterns[(patterns >= 0) & (patterns < n_values)]] = True
    return mask


def compatible_mask(support, table):
    """Boolean mask over global assignments: True where every context's
    restriction lands inside the support.

    support: bool (..., n_slots), one cell per slot in slot order; any
             leading axes are a batch of supports.
    table:   int (n_contexts, n_globals) slot table, scenario._global_slots:
             the slot global g occupies in context c.
    Returns bool (..., n_globals).

    The batch is put on the last axis, so the gather copies one contiguous
    batch row per slot and the reduction over contexts is elementwise."""
    support = np.asarray(support, dtype=np.bool_)
    *batch, n_slots = support.shape
    cells = support.reshape(-1, n_slots).T
    return cells.take(table, axis=0).all(axis=0).T.reshape(*batch, table.shape[1])
