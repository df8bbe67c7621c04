"""Validation: the exact message of every rule, and equality with the
per-component reference in ``validate_reference``."""

import numpy as np
import pytest

import validate_reference as ref
from fermiconv import (
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    Statevector,
    build_layout,
    encode_first_quantized_determinant,
    first_quantized_to_fock,
    sorted_list_to_fock,
    validate,
)
from fermiconv.errors import FermiconvError


def _state(layout, discipline, comps):
    """EncodedState with amplitude a on key basis_index(values, anc)."""
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    for values, anc, a in comps:
        amps[layout.basis_index(values, anc)] = a
    return EncodedState(Statevector(amps), discipline, layout)


@pytest.mark.parametrize(
    "discipline, n_anc, values, anc, message",
    [
        (SORTED_LIST, 1, (1, 3, 7), 1, "ancilla bits set"),
        (FIRST_QUANTIZED, 1, (1, 3, 2), 1, "ancilla bits set"),
        (SORTED_LIST, 0, (1, 7, 3), 0, "value 3 after a sentinel in (1, 7, 3)"),
        # after-a-sentinel outranks the range rule on the same register
        (SORTED_LIST, 0, (7, 5, 1), 0, "value 5 after a sentinel in (7, 5, 1)"),
        (SORTED_LIST, 0, (0, 1, 7), 0, "register value 0 outside 1..4"),
        (SORTED_LIST, 0, (1, 5, 7), 0, "register value 5 outside 1..4"),
        (FIRST_QUANTIZED, 0, (2, 7, 0), 0, "register value 7 outside 1..4"),
        (SORTED_LIST, 0, (3, 1, 7), 0, "values not strictly ascending in (3, 1, 7)"),
        (SORTED_LIST, 0, (2, 2, 0), 0, "values not strictly ascending in (2, 2, 0)"),
        (FIRST_QUANTIZED, 0, (2, 4, 2), 0, "repeated orbital in (2, 4, 2)"),
    ],
)
def test_component_rule_messages(discipline, n_anc, values, anc, message):
    lay = build_layout(4, 3, n_anc)
    good = (1, 2, 3) if discipline == SORTED_LIST else (2, 1, 3)
    enc = _state(lay, discipline, [(good, 0, 0.6), (values, anc, 0.8)])
    key = lay.basis_index(values, anc)
    assert validate(enc).violations == [(key, values, message)]
    alone = EncodedState.from_components([key], [1.0], discipline, lay)
    assert validate(alone).violations == [(key, values, message)]


def test_component_violations_listed_in_key_order():
    lay = build_layout(4, 3, 0)
    comps = [((3, 1, 7), 0, 0.5), ((1, 7, 3), 0, 0.5), ((1, 2, 7), 0, 0.5), ((0, 7, 7), 0, 0.5)]
    enc = _state(lay, SORTED_LIST, comps)
    keys = sorted(lay.basis_index(v) for v, _, _ in comps if v != (1, 2, 7))
    assert [k for k, _, _ in validate(enc).violations] == keys


def _flipped_determinant(M, occ):
    """The determinant's first-quantized state with its ascending component negated."""
    enc = encode_first_quantized_determinant(OccupationBitstring.from_indices(M, occ))
    amps = enc.state.amps.copy()
    amps[enc.layout.basis_index(occ)] *= -1
    enc = EncodedState(Statevector(amps), enc.discipline, enc.layout, enc.N)
    return enc


def test_antisymmetry_lists_one_violation_per_leading_register_n3():
    # the flipped component breaks pairs (0,1), (0,2) and (1,2); register 0
    # is listed once, at its first broken pair, and each pair names the
    # smallest key it breaks: the partner the flip was swapped with
    enc = _flipped_determinant(4, (1, 2, 3))
    lay = enc.layout
    assert validate(enc).violations == [
        (lay.basis_index((2, 1, 3)), (2, 1, 3),
         "amplitude not antisymmetric under registers 0,1"),
        (lay.basis_index((1, 3, 2)), (1, 3, 2),
         "amplitude not antisymmetric under registers 1,2"),
    ]


def test_antisymmetry_lists_one_violation_per_leading_register_n4():
    enc = _flipped_determinant(4, (1, 2, 3, 4))
    lay = enc.layout
    assert validate(enc).violations == [
        (lay.basis_index((2, 1, 3, 4)), (2, 1, 3, 4),
         "amplitude not antisymmetric under registers 0,1"),
        (lay.basis_index((1, 3, 2, 4)), (1, 3, 2, 4),
         "amplitude not antisymmetric under registers 1,2"),
        (lay.basis_index((1, 2, 4, 3)), (1, 2, 4, 3),
         "amplitude not antisymmetric under registers 2,3"),
    ]


# --- equality with the per-component reference ---------------------------

_LAYOUTS = [(3, 2, 0), (4, 3, 0), (5, 2, 1), (6, 3, 0), (4, 4, 0), (7, 3, 1), (14, 2, 0)]


def _outcome(fn, *args):
    """Return value, or the exception's type and message."""
    try:
        return fn(*args)
    except FermiconvError as e:
        return type(e), str(e)


def _same_fock(got, want):
    if isinstance(want, tuple):
        assert got == want
    else:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()


def _random_amps(rng, n):
    a = rng.normal(size=n) + 1j * rng.normal(size=n)
    tiny = rng.random(n) < 0.15
    a[tiny] *= 1e-14  # structurally zero: below AMP_THRESHOLD
    a[rng.random(n) < 0.1] = complex(-0.0, rng.normal())  # a negative zero part
    return a


def _sorted_list_state(rng, lay, malformed):
    keys = []
    for _ in range(rng.integers(1, 8)):
        n = rng.integers(0, lay.n_reg + 1)
        occ = sorted(rng.choice(np.arange(1, lay.M + 1), size=min(n, lay.M), replace=False))
        keys.append(lay.basis_index(tuple(occ) + (lay.sentinel,) * (lay.n_reg - len(occ))))
    if malformed:
        keys += list(rng.integers(0, 1 << lay.total_qubits, size=rng.integers(1, 4)))
    return keys


def _first_quantized_state(rng, lay, malformed):
    n = lay.n_reg
    amps = np.zeros(1 << lay.total_qubits, dtype=complex)
    for _ in range(rng.integers(1, 4)):
        occ = tuple(sorted(rng.choice(np.arange(1, lay.M + 1), size=n, replace=False)))
        det = encode_first_quantized_determinant(OccupationBitstring.from_indices(lay.M, occ))
        amps[: len(det.state.amps)] += complex(rng.normal(), rng.normal()) * det.state.amps
    nz = np.flatnonzero(amps)
    if malformed == 1 and len(nz) > 1:  # one sign flipped
        amps[rng.choice(nz)] *= -1
    elif malformed == 2:  # any keys at all
        keys = rng.integers(0, len(amps), size=rng.integers(1, 4))
        amps[keys] = _random_amps(rng, len(keys))
    elif malformed == 3:  # a sub-threshold stray
        amps[rng.integers(0, len(amps))] = 1e-13
    return amps


def test_validate_and_bridges_match_per_component_reference():
    rng = np.random.default_rng(20261018)
    for M, n_reg, n_anc in _LAYOUTS:
        lay = build_layout(M, n_reg, n_anc)
        for trial in range(24):
            keys = _sorted_list_state(rng, lay, malformed=trial % 3 == 2)
            amps = np.zeros(1 << lay.total_qubits, dtype=complex)
            amps[keys] = _random_amps(rng, len(keys))
            sl = EncodedState(Statevector(amps), SORTED_LIST, lay)
            assert validate(sl).violations == ref.validate_violations(sl)
            _same_fock(_outcome(sorted_list_to_fock, sl), _outcome(ref.sorted_list_to_fock, sl))
            amps = _first_quantized_state(rng, lay, malformed=trial % 4)
            fq = EncodedState(Statevector(amps), FIRST_QUANTIZED, lay)
            assert validate(fq).violations == ref.validate_violations(fq)
            _same_fock(
                _outcome(first_quantized_to_fock, fq), _outcome(ref.first_quantized_to_fock, fq)
            )


def test_dense_constructor_round_trips_seeded_states():
    # the positional constructor scans the dense vector once; .state rebuilds it
    rng = np.random.default_rng(20261018)
    for M, n_reg, n_anc in _LAYOUTS:
        lay = build_layout(M, n_reg, n_anc)
        for trial in range(24):
            keys = _sorted_list_state(rng, lay, malformed=trial % 3 == 2)
            sl_amps = np.zeros(1 << lay.total_qubits, dtype=complex)
            sl_amps[keys] = _random_amps(rng, len(keys))
            fq_amps = _first_quantized_state(rng, lay, malformed=trial % 4)
            for discipline, amps in ((SORTED_LIST, sl_amps), (FIRST_QUANTIZED, fq_amps)):
                enc = EncodedState(Statevector(amps.copy()), discipline, lay)
                assert np.array_equal(enc.state.amps, amps)
                assert enc.keys.tolist() == np.flatnonzero(amps).tolist()


def test_validate_matches_reference_on_every_one_component_state():
    for M, n_reg, n_anc in _LAYOUTS[:4]:
        lay = build_layout(M, n_reg, n_anc)
        for discipline in (SORTED_LIST, FIRST_QUANTIZED):
            for key in range(1 << lay.total_qubits):
                enc = EncodedState.from_components([key], [1.0], discipline, lay)
                assert validate(enc).violations == ref.validate_violations(enc)
