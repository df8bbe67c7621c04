"""sparse_action on one basis component, and once per loop for tests that
compare the two loops."""

import numpy as np
import pytest

from fermiconv import circuits


def basis_image(circuit, index):
    """(output index, phase) of a permutation-plus-phase circuit on one basis state."""
    idx, amp = circuits.sparse_action(circuit, np.array([index]), np.array([1.0 + 0.0j]))
    assert len(idx) == 1, f"{len(idx)} components out of one basis state"
    return int(idx[0]), complex(amp[0])


def run_both_loops(prog, keys, amps):
    """sparse_action with every run forced onto the numpy, then the scalar loop."""
    out = []
    for limit in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circuits, "SCALAR_MAX_COMPONENTS", limit)
            out.append(circuits.sparse_action(prog, keys, amps))
    return out
