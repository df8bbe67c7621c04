"""Encodings: constructors, validation, and the Fock bridges."""

import itertools
import math

import numpy as np
import pytest

from fermiconv import (
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    Statevector,
    build_layout,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_quantized_to_fock,
    sorted_list_to_fock,
    validate,
)
from fermiconv.encodings import drop_clear_ancillas
from fermiconv.errors import (
    BadParam,
    DisciplineMismatch,
    TooManyElectrons,
)
from validate_reference import with_ancillas


def test_occupation_bitstring_basics():
    x = OccupationBitstring.from_indices(4, (1, 3))
    assert x.mask == 0b101
    assert x.N == 2
    assert x.indices() == (1, 3)
    with pytest.raises(BadParam):
        OccupationBitstring.from_indices(4, (0,))
    with pytest.raises(BadParam):
        OccupationBitstring.from_indices(4, (2, 2))


def test_encode_sorted_list_example():
    enc = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 3)
    lay = enc.layout
    assert lay.b == 3 and lay.n_reg == 3
    idx = lay.basis_index((1, 3, 7))
    assert enc.state.amps[idx] == 1.0
    assert np.count_nonzero(enc.state.amps) == 1
    assert enc.N == 2 and enc.discipline == SORTED_LIST


def test_encode_vacuum_all_sentinels():
    enc = encode_sorted_list(OccupationBitstring(4, 0), 2)
    idx = enc.layout.basis_index((7, 7))
    assert enc.state.amps[idx] == 1.0
    assert enc.N == 0


def test_encode_too_many_electrons():
    with pytest.raises(TooManyElectrons):
        encode_sorted_list(OccupationBitstring.from_indices(4, (1, 2, 3)), 2)


def test_encode_first_quantized_pair():
    enc = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(4, (1, 3))
    )
    lay = enc.layout
    assert lay.n_reg == 2
    s = 1.0 / math.sqrt(2.0)
    assert abs(enc.state.amps[lay.basis_index((1, 3))] - s) < 1e-12
    assert abs(enc.state.amps[lay.basis_index((3, 1))] + s) < 1e-12
    assert np.count_nonzero(enc.state.amps) == 2


def test_encode_first_quantized_single():
    enc = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(4, (2,))
    )
    assert enc.state.amps[enc.layout.basis_index((2,))] == 1.0
    assert np.count_nonzero(enc.state.amps) == 1


def _perm_sign(perm):
    sign = 1
    for i in range(len(perm)):
        for j in range(i + 1, len(perm)):
            if perm[i] > perm[j]:
                sign = -sign
    return sign


def test_encode_first_quantized_triple_signs():
    vals = (1, 2, 3)
    enc = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(4, vals)
    )
    lay = enc.layout
    assert np.count_nonzero(enc.state.amps) == 6
    s = 1.0 / math.sqrt(6.0)
    for perm in itertools.permutations(range(3)):
        ordered = tuple(vals[p] for p in perm)
        amp = enc.state.amps[lay.basis_index(ordered)]
        assert abs(amp - _perm_sign(perm) * s) < 1e-12


def test_encoded_norms_are_one():
    for M in (3, 4, 5):
        for mask in range(1 << M):
            x = OccupationBitstring(M, mask)
            if x.N > 3:
                continue
            assert abs(np.linalg.norm(encode_sorted_list(x, x.N + 1).state.amps) - 1) < 1e-12
            if x.N >= 1:
                enc = encode_first_quantized_determinant(x)
                assert abs(np.linalg.norm(enc.state.amps) - 1) < 1e-12
                assert not validate(enc).violations


def test_sorted_list_round_trip_exhaustive():
    for M in range(2, 7):
        for mask in range(1 << M):
            x = OccupationBitstring(M, mask)
            fock = sorted_list_to_fock(encode_sorted_list(x, max(x.N, 1)))
            assert np.flatnonzero(fock).tolist() == [mask] and fock[mask] == 1.0


def test_first_quantized_round_trip_exhaustive():
    for M in range(2, 6):
        for mask in range(1, 1 << M):
            x = OccupationBitstring(M, mask)
            fock = first_quantized_to_fock(encode_first_quantized_determinant(x))
            assert np.flatnonzero(np.abs(fock) > 1e-12).tolist() == [mask]
            assert abs(fock[mask] - 1.0) < 1e-12


def test_validation_report_require_names_count_and_first_rule():
    lay = build_layout(4, 3, 0)
    keys = [lay.basis_index((1, 2, 3)), lay.basis_index((3, 1, 7)), lay.basis_index((0, 1, 7))]
    rep = validate(EncodedState.from_components(keys, [0.6, 0.6, np.sqrt(0.28)], SORTED_LIST, lay))
    with pytest.raises(BadParam) as err:
        rep.require(BadParam, "{count} broken, first: {first}")
    assert str(err.value) == "2 broken, first: " + rep.violations[0][2]
    good = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 2, 3)), 3)
    validate(good).require(BadParam, "{count} broken")  # a valid state raises nothing


def test_validate_flags_symmetric_state():
    lay = build_layout(4, 2, 0)
    amps = np.zeros(1 << lay.total_qubits, dtype=complex)
    s = 1.0 / math.sqrt(2.0)
    amps[lay.basis_index((1, 3))] = s
    amps[lay.basis_index((3, 1))] = s
    rep = validate(EncodedState(Statevector(amps), FIRST_QUANTIZED, lay, 2))
    assert rep.violations
    assert "antisymmetric" in rep.violations[0][2]


def test_validate_ignores_subthreshold_amplitude():
    lay = build_layout(4, 2, 0)
    amps = np.zeros(1 << lay.total_qubits, dtype=complex)
    amps[lay.basis_index((1, 3))] = 1.0
    amps[lay.basis_index((2, 2))] = 1e-15  # malformed but structurally zero
    rep = validate(EncodedState(Statevector(amps), SORTED_LIST, lay, None))
    assert not rep.violations


def test_with_and_drop_ancillas():
    enc = encode_sorted_list(OccupationBitstring.from_indices(4, (2,)), 2)
    widened = with_ancillas(enc, 2)
    assert widened.layout.n_anc == 2
    assert abs(np.linalg.norm(widened.state.amps) - 1) < 1e-12
    back = drop_clear_ancillas(widened)
    np.testing.assert_allclose(back.state.amps, enc.state.amps)
    amps = np.zeros_like(widened.state.amps)
    amps[1 << (widened.layout.n_reg * widened.layout.b)] = 1.0
    dirty = EncodedState(Statevector(amps), widened.discipline, widened.layout, widened.N)
    with pytest.raises(BadParam):
        drop_clear_ancillas(dirty)


def test_sorted_list_to_fock():
    x = OccupationBitstring.from_indices(4, (1, 3))
    fock = sorted_list_to_fock(encode_sorted_list(x, 3))
    expect = np.zeros(16, dtype=complex)
    expect[x.mask] = 1.0
    np.testing.assert_allclose(fock, expect)
    with pytest.raises(DisciplineMismatch):
        first_quantized_to_fock(encode_sorted_list(x, 3))


def test_first_quantized_to_fock():
    x = OccupationBitstring.from_indices(4, (1, 3))
    fock = first_quantized_to_fock(encode_first_quantized_determinant(x))
    expect = np.zeros(16, dtype=complex)
    expect[x.mask] = 1.0
    np.testing.assert_allclose(fock, expect, atol=1e-12)
    with pytest.raises(DisciplineMismatch):
        sorted_list_to_fock(encode_first_quantized_determinant(x))
