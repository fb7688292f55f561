"""Compiled kernels; contracts and semantics identical to _pykernels.

Importing this module raises ImportError when the ``_assign`` extension,
built from ``_assign.c``, is absent.
"""

import numpy as np

from ._assign import assign


def assign_participants(quotas, u):
    """Quota-constrained uniform participant assignment (see _pykernels)."""
    remaining = np.array(quotas, dtype=np.int64)
    u = np.ascontiguousarray(u, dtype=np.float64)
    out = np.empty(len(u), dtype=np.int64)
    assign(remaining, u, out, np.empty(len(remaining), dtype=np.int64))
    return out
