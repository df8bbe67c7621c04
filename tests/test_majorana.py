"""Majorana and ladder circuits against the dense Fock-space oracle."""

import numpy as np
import pytest

from fermiconv import (
    EncodedState,
    FockSpace,
    OccupationBitstring,
    Statevector,
    apply_circuit,
    apply_ladder,
    build_layout,
    encode_first_quantized_determinant,
    encode_sorted_list,
    majorana_circuit,
    sorted_list_to_fock,
)
from fermiconv.circuits import basis_action
from fermiconv.encodings import AMP_THRESHOLD, SORTED_LIST, with_ancillas
from fermiconv.errors import (
    BadConstant,
    BadParam,
    DisciplineMismatch,
    FermiconvError,
    MalformedComponent,
    NoSlack,
)
from fermiconv.majorana import (
    N_WORK_ANCILLAS,
    bit_flip_circuit,
    sgn_rank_circuit,
)
from fock_reference import ladder_matrix
from ladder_reference import apply_ladder as two_branch_ladder


def _enc(M, indices, n_reg, n_anc=0):
    return encode_sorted_list(
        OccupationBitstring.from_indices(M, indices), n_reg, n_anc
    )


def test_sgn_rank_zero_is_identity():
    lay = build_layout(4, 3, 1)
    assert len(sgn_rank_circuit(lay, 0, lay.anc_qubit(0))) == 0


def test_sgn_rank_phases():
    lay = build_layout(4, 3, 1)
    anc = lay.anc_qubit(0)
    # |{1,3}>, p=2: one occupied index <= 2
    out, ph = basis_action(sgn_rank_circuit(lay, 2, anc), lay.basis_index((1, 3, 7)))
    assert lay.values(out) == (1, 3, 7) and ph == -1
    # |{1,2}>, p=3: two indices <= 3
    out, ph = basis_action(sgn_rank_circuit(lay, 3, anc), lay.basis_index((1, 2, 7)))
    assert lay.values(out) == (1, 2, 7) and ph == 1
    with pytest.raises(BadConstant):
        sgn_rank_circuit(lay, 5, anc)


def test_bit_flip_insert_and_remove():
    lay = build_layout(4, 4, N_WORK_ANCILLAS)
    ancs = [lay.anc_qubit(j) for j in range(N_WORK_ANCILLAS)]
    circ = bit_flip_circuit(lay, 2, ancs)
    out, ph = basis_action(circ, lay.basis_index((1, 3, 7, 7)))
    assert lay.values(out) == (1, 2, 3, 7) and ph == 1
    out, ph = basis_action(circ, lay.basis_index((1, 2, 3, 7)))
    assert lay.values(out) == (1, 3, 7, 7) and ph == 1


def test_bit_flip_involution_exhaustive():
    M = 5
    lay = build_layout(M, 3, N_WORK_ANCILLAS)
    ancs = [lay.anc_qubit(j) for j in range(N_WORK_ANCILLAS)]
    states = [
        OccupationBitstring(M, mask)
        for mask in range(1 << M)
        if bin(mask).count("1") <= 3
    ]
    for p in range(1, M + 1):
        circ = bit_flip_circuit(lay, p, ancs)
        for x in states:
            if x.N == 3 and p not in x.indices():
                continue  # no slack: the circuit fixes these by design
            idx = lay.basis_index(tuple(x.indices()) + (lay.sentinel,) * (3 - x.N))
            once, ph1 = basis_action(circ, idx)
            assert once >> (3 * lay.b) == 0  # work ancillas restored
            twice, ph2 = basis_action(circ, once)
            assert twice == idx and ph1 * ph2 == 1


def test_majorana_on_vacuum():
    vac = _enc(2, (), 2, N_WORK_ANCILLAS)
    one = _enc(2, (1,), 2, N_WORK_ANCILLAS)
    g1 = majorana_circuit(vac.layout, 1)
    assert g1.scalar == 1.0 + 0.0j
    np.testing.assert_allclose(
        apply_circuit(vac.state, g1.circuit).amps * g1.scalar, one.state.amps, atol=1e-12
    )
    g2 = majorana_circuit(vac.layout, 2)
    assert g2.scalar == 1.0j
    np.testing.assert_allclose(
        apply_circuit(vac.state, g2.circuit).amps * g2.scalar, 1.0j * one.state.amps, atol=1e-12
    )


def test_majorana_validation():
    lay = build_layout(2, 2, N_WORK_ANCILLAS)
    with pytest.raises(BadParam):
        majorana_circuit(lay, 0)
    with pytest.raises(BadParam):
        majorana_circuit(lay, 5)
    with pytest.raises(BadParam):
        majorana_circuit(build_layout(2, 2, 1), 1)


def _gamma_matrix(M, n_reg, mu):
    """Dense Majorana action on the valid sorted-list subspace."""
    lay = build_layout(M, n_reg, N_WORK_ANCILLAS)
    g = majorana_circuit(lay, mu)
    states = [
        OccupationBitstring(M, mask)
        for mask in range(1 << M)
        if bin(mask).count("1") <= n_reg
    ]
    slots = {}
    for k, x in enumerate(states):
        vals = tuple(x.indices()) + (lay.sentinel,) * (n_reg - x.N)
        slots[lay.basis_index(vals)] = k
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for k, x in enumerate(states):
        vals = tuple(x.indices()) + (lay.sentinel,) * (n_reg - x.N)
        out, ph = basis_action(g.circuit, lay.basis_index(vals))
        mat[slots[out], k] = g.scalar * ph
    return mat


def test_gamma_hermitian_and_anticommuting():
    M, n_reg = 3, 5
    mats = {mu: _gamma_matrix(M, n_reg, mu) for mu in range(1, 2 * M + 1)}
    eye = np.eye(mats[1].shape[0])
    for a in range(1, 2 * M + 1):
        np.testing.assert_allclose(mats[a], mats[a].conj().T, atol=1e-10)
        for b in range(a, 2 * M + 1):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            np.testing.assert_allclose(
                anti, (2.0 if a == b else 0.0) * eye, atol=1e-10
            )


def test_ladder_examples():
    vac = _enc(2, (), 2)
    out = apply_ladder(vac, 2, "create")
    two = _enc(2, (2,), 2)
    np.testing.assert_allclose(out.state.amps, two.state.amps, atol=1e-12)
    assert out.N == 1

    # a2+ on |{1}> = -|{1,2}> under a1+ a2+ |vac> = +|{1,2}>
    one = _enc(2, (1,), 2)
    out = apply_ladder(one, 2, "create")
    both = _enc(2, (1, 2), 2)
    np.testing.assert_allclose(out.state.amps, -both.state.amps, atol=1e-12)

    # Pauli exclusion
    out = apply_ladder(one, 1, "create")
    assert np.linalg.norm(out.state.amps) < 1e-12
    assert out.N == 2

    # annihilation round trip
    out = apply_ladder(both, 2, "annihilate")
    np.testing.assert_allclose(out.state.amps, -one.state.amps, atol=1e-12)
    assert out.N == 1


def test_ladder_matches_fock_oracle():
    M, n_reg = 3, 5
    space = FockSpace(M)
    for mask in range(1 << M):
        x = OccupationBitstring(M, mask)
        enc = _enc(M, x.indices(), n_reg)
        fock_in = np.zeros(space.dim, dtype=complex)
        fock_in[mask] = 1.0
        for p in range(1, M + 1):
            for kind in ("create", "annihilate"):
                got = sorted_list_to_fock(apply_ladder(enc, p, kind))
                want = ladder_matrix(p, kind, space) @ fock_in
                np.testing.assert_allclose(got, want, atol=1e-10)


def test_number_operator_counts_electrons():
    M, n_reg = 3, 5
    rng = np.random.default_rng(5)
    # random 2-electron superposition
    det_masks = [m for m in range(1 << M) if bin(m).count("1") == 2]
    coefs = rng.standard_normal(len(det_masks)) + 1j * rng.standard_normal(len(det_masks))
    coefs /= np.linalg.norm(coefs)
    enc = _enc(M, OccupationBitstring(M, det_masks[0]).indices(), n_reg)
    amps = np.zeros_like(enc.state.amps)
    for c, m in zip(coefs, det_masks):
        amps += c * _enc(M, OccupationBitstring(M, m).indices(), n_reg).state.amps
    enc = EncodedState(Statevector(amps), enc.discipline, enc.layout, enc.N)
    total = np.zeros_like(amps)
    for p in range(1, M + 1):
        step = apply_ladder(enc, p, "annihilate")
        step = apply_ladder(step, p, "create")
        total += step.state.amps
    np.testing.assert_allclose(total, 2.0 * amps, atol=1e-10)


def test_ladder_no_slack():
    full = _enc(3, (2,), 1)
    with pytest.raises(NoSlack):
        apply_ladder(full, 1, "create")
    # fine when p is already present: the toggle only removes
    out = apply_ladder(full, 2, "annihilate")
    assert abs(out.state.amps[full.layout.basis_index((full.layout.sentinel,))] - 1) < 1e-12


def test_ladder_rejects_wrong_discipline_and_dirty_ancillas():
    fq = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(3, (1, 2))
    )
    with pytest.raises(DisciplineMismatch):
        apply_ladder(fq, 1, "create")
    enc = with_ancillas(_enc(3, (1,), 2), N_WORK_ANCILLAS)
    reg_dim = 1 << (enc.layout.n_reg * enc.layout.b)
    amps = np.zeros_like(enc.state.amps)
    amps[reg_dim + enc.layout.basis_index((1, 7))] = 1.0  # anc 0 set
    enc = EncodedState(Statevector(amps), enc.discipline, enc.layout, enc.N)
    with pytest.raises(BadParam):
        apply_ladder(enc, 2, "create")
    with pytest.raises(BadParam):
        apply_ladder(_enc(3, (1,), 2), 1, "make")
    with pytest.raises(BadConstant):
        apply_ladder(_enc(3, (1,), 2), 4, "create")


def _outcome(ladder, enc, p, kind):
    try:
        return ladder(enc, p, kind)
    except FermiconvError as exc:
        return type(exc), str(exc)


def _random_sorted_list(rng, M, n_reg, n_anc):
    """A valid sorted list with clear ancillas: some components below
    AMP_THRESHOLD, some amplitudes with an exact-zero real or imaginary part."""
    layout = build_layout(M, n_reg, n_anc)
    k = int(rng.integers(1, 9))
    dets = set()
    for _ in range(k):
        n = int(rng.integers(0, min(n_reg, M) + 1))
        dets.add(tuple(sorted(rng.choice(np.arange(1, M + 1), size=n, replace=False).tolist())))
    keys = [layout.basis_index(d + (layout.sentinel,) * (n_reg - len(d))) for d in dets]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    for i, pick in enumerate(rng.integers(0, 5, size=len(keys))):
        if pick == 1:
            amps[i] = amps[i].real
        elif pick == 2:
            amps[i] = complex(-0.0, amps[i].imag)
        elif pick == 3:
            amps[i] *= 0.1 * AMP_THRESHOLD
    return EncodedState.from_components(keys, amps, SORTED_LIST, layout)


@pytest.mark.parametrize(
    "M,n_reg", [(4, 6), (6, 4), (8, 4)] + [(M, r) for M in range(2, 9) for r in (1, 3, 5)]
)
def test_ladder_matches_two_branch_reference(M, n_reg):
    rng = np.random.default_rng(100 * M + n_reg)
    for n_anc in (0, 3, 4):
        for _ in range(3):
            enc = _random_sorted_list(rng, M, n_reg, n_anc)
            for p in range(1, M + 1):
                for kind in ("create", "annihilate"):
                    got = _outcome(apply_ladder, enc, p, kind)
                    want = _outcome(two_branch_ladder, enc, p, kind)
                    if isinstance(want, tuple):
                        assert got == want
                        continue
                    np.testing.assert_array_equal(got.keys, want.keys)
                    assert np.array_equal(got.amps, want.amps)  # == : -0.0 equals 0.0
                    assert (got.N, got.layout) == (want.N, want.layout)


def test_ladder_refuses_like_two_branch_reference():
    full = _enc(3, (2,), 1)
    lay = build_layout(3, 2, N_WORK_ANCILLAS)
    dirty = EncodedState.from_components(
        [lay.basis_index((1, lay.sentinel), anc=1)], [1.0], SORTED_LIST, lay, 1
    )
    cases = [
        (full, 1, "create", NoSlack),
        (full, 3, "annihilate", NoSlack),
        (dirty, 2, "create", BadParam),
        (_enc(3, (1,), 2), 1, "make", BadParam),
        (_enc(3, (1,), 2), 4, "create", BadConstant),
        (_enc(3, (1,), 2), 0, "annihilate", BadConstant),
    ]
    for enc, p, kind, error in cases:
        got = _outcome(apply_ladder, enc, p, kind)
        assert got == _outcome(two_branch_ladder, enc, p, kind)
        assert got[0] is error


@pytest.mark.parametrize("values,p,kind", [
    ((2, 1), 3, "create"),  # descending: the reference returns (2, 1, 3)
    ((3, 3), 3, "annihilate"),  # repeated p: the reference returns nothing
    ((0, 2), 1, "create"),  # value 0: the reference returns nothing
])
def test_ladder_refuses_malformed_sorted_lists(values, p, kind):
    layout = build_layout(4, 3)
    key = layout.basis_index(values + (layout.sentinel,))
    enc = EncodedState.from_components([key], [1.0], SORTED_LIST, layout, 2)
    with pytest.raises(MalformedComponent):
        apply_ladder(enc, p, kind)
