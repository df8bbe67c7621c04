"""Peak memory of the permutation stages, which run on component lists.

Dense vectors are for register unitaries and the oracle only. A stage that
scattered into a working-width array (records and work ancillas included)
would peak at hundreds of MiB here, far above each bound.
"""

import tracemalloc

import numpy as np

from fermiconv import (
    OccupationBitstring,
    apply_ladder,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    second_to_first,
)

MIB = 1 << 20


def _peak_mib(fn) -> float:
    fn()  # warm call: imports and caches do not count
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / MIB
    finally:
        tracemalloc.stop()


def test_forward_conversion_peak():
    # 5! = 120 components on a 24-qubit working layout (2^24 amplitudes)
    fq = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(6, (1, 2, 4, 5, 6))
    )
    assert np.count_nonzero(fq.state.amps) == 120
    assert _peak_mib(lambda: first_to_second(fq)) <= 50


def test_ladder_peak():
    # 6 registers plus 3 work ancillas: a 2^21 working layout
    sl = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 6)
    assert _peak_mib(lambda: apply_ladder(sl, 2, "create")) <= 16


def test_backward_conversion_peak():
    sl = encode_sorted_list(OccupationBitstring.from_indices(6, (1, 3, 5)), 3)
    assert _peak_mib(lambda: second_to_first(sl, rng=np.random.default_rng(0))) <= 16
