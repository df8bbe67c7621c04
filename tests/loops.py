"""Run sparse_action once per loop, for tests that compare the two."""

import pytest

from fermiconv import circuits


def run_both_loops(prog, keys, amps):
    """sparse_action with every run forced onto the numpy, then the scalar loop."""
    out = []
    for limit in (0, 10**9):
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(circuits, "SCALAR_MAX_COMPONENTS", limit)
            out.append(circuits.sparse_action(prog, keys, amps))
    return out
