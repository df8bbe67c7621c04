"""Register-wise basis transforms against the determinant-rotation oracle."""

import numpy as np
import pytest

from fermiconv import (
    BasisMatrix,
    FockSpace,
    OccupationBitstring,
    apply_register_transform,
    dft_matrix,
    encode_first_quantized_determinant,
    encode_sorted_list,
    qft_register_transform,
)
from fermiconv.basis import (
    mo_to_pw_matrix,
    qft_gate_count,
    read_basis_matrix,
    write_basis_matrix,
)
from fermiconv.circuits import GateCount
from fermiconv.encodings import first_quantized_to_fock
from fermiconv.fci import rotate_determinants
from fermiconv.errors import (
    BadDimension,
    BadParam,
    DisciplineMismatch,
    NotIsometry,
    NotUnitary,
)


def _fq(M, indices):
    return encode_first_quantized_determinant(
        OccupationBitstring.from_indices(M, indices)
    )


def _haar(rng, d):
    z = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, r = np.linalg.qr(z)
    return q * (np.diag(r) / np.abs(np.diag(r)))


def test_identity_transform():
    enc = _fq(4, (1, 3))
    out, gc = apply_register_transform(enc, np.eye(4))
    np.testing.assert_allclose(out.state.amps, enc.state.amps, atol=1e-12)
    assert gc == GateCount(0, 0, 0, 2 * 8 * 8)


def test_hadamard_single_orbital():
    enc = _fq(2, (1,))
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    out, _ = apply_register_transform(enc, H)
    want = (_fq(2, (1,)).state.amps + _fq(2, (2,)).state.amps) / np.sqrt(2)
    np.testing.assert_allclose(out.state.amps, want, atol=1e-12)


def test_random_unitaries_match_determinant_rotation():
    rng = np.random.default_rng(11)
    M, N = 4, 2
    space = FockSpace(M)
    for _ in range(5):
        U = _haar(rng, M)
        enc = _fq(M, (1, 3))
        out, _ = apply_register_transform(enc, U)
        got = first_quantized_to_fock(out)
        fock_in = first_quantized_to_fock(enc)
        want = rotate_determinants(fock_in, U, space)
        np.testing.assert_allclose(got, want, atol=1e-10)


def test_transform_composition():
    rng = np.random.default_rng(3)
    U, V = _haar(rng, 4), _haar(rng, 4)
    enc = _fq(4, (2, 4))
    via_two, _ = apply_register_transform(enc, V)
    via_two, _ = apply_register_transform(via_two, U)
    direct, _ = apply_register_transform(enc, U @ V)
    np.testing.assert_allclose(via_two.state.amps, direct.state.amps, atol=1e-10)


def test_padded_embedding():
    bm = BasisMatrix(dft_matrix(4))
    P = bm.padded(3)
    assert P.shape == (8, 8)
    np.testing.assert_allclose(P[1:5, 1:5], bm.core)
    assert P[0, 0] == 1 and P[7, 7] == 1 and abs(P[0, 1]) == 0
    with pytest.raises(BadDimension):
        bm.padded(2)


def test_dft_matrix_values():
    F = dft_matrix(4)
    np.testing.assert_allclose(F[:, 0], np.full(4, 0.5), atol=1e-12)
    np.testing.assert_allclose(F[:, 1], np.array([1, 1j, -1, -1j]) / 2, atol=1e-12)
    np.testing.assert_allclose(
        dft_matrix(4, inverse=True), F.conj().T, atol=1e-12
    )


def test_qft_register_transform():
    enc = _fq(4, (1,))
    out, _ = qft_register_transform(enc)
    want = sum(0.5 * _fq(4, (p,)).state.amps for p in (1, 2, 3, 4))
    np.testing.assert_allclose(out.state.amps, want, atol=1e-12)
    enc2 = _fq(4, (2,))
    out2, _ = qft_register_transform(enc2)
    want2 = sum(
        c * _fq(4, (p,)).state.amps / 2
        for c, p in zip((1, 1j, -1, -1j), (1, 2, 3, 4))
    )
    np.testing.assert_allclose(out2.state.amps, want2, atol=1e-12)
    back, _ = qft_register_transform(out2, inverse=True)
    np.testing.assert_allclose(back.state.amps, enc2.state.amps, atol=1e-12)


def test_qft_requires_power_of_two():
    with pytest.raises(BadDimension):
        qft_register_transform(_fq(5, (1,)))
    with pytest.raises(BadDimension):
        qft_gate_count(6, 1)


def test_qft_gate_count_pins():
    assert qft_gate_count(2, 1) == GateCount(0, 0, 1, 0)
    assert qft_gate_count(4, 2) == GateCount(0, 4, 4, 0)
    assert qft_gate_count(16, 3) == GateCount(0, 24, 12, 0)


def test_transform_validation():
    with pytest.raises(DisciplineMismatch):
        apply_register_transform(
            encode_sorted_list(OccupationBitstring.from_indices(4, (1,)), 1),
            np.eye(4),
        )
    with pytest.raises(NotUnitary):
        apply_register_transform(_fq(4, (1, 2)), np.ones((4, 4)))
    with pytest.raises(BadDimension):
        apply_register_transform(_fq(3, (1, 2)), np.eye(4))
    with pytest.raises(BadParam):
        BasisMatrix(np.ones((2, 3)))


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, -np.inf)])
def test_non_finite_unitary_is_refused(bad):
    U = dft_matrix(3).copy()
    U[1, 2] = bad
    with pytest.raises(NotUnitary, match="non-finite"):
        BasisMatrix(U)
    with pytest.raises(NotUnitary, match="non-finite"):
        apply_register_transform(_fq(3, (1, 2)), U)
    space = FockSpace(3)
    psi = first_quantized_to_fock(_fq(3, (1, 2)))
    with pytest.raises(NotUnitary, match="non-finite"):
        rotate_determinants(psi, U, space)


def test_isometry_completion():
    table = np.array([[1, 1, 0, 0], [0, 0, 1, 1]]) / np.sqrt(2)
    bm = mo_to_pw_matrix(table)
    assert (bm.m1, bm.m2, bm.dim) == (2, 4, 4)
    np.testing.assert_allclose(bm.core[:2], table, atol=1e-12)
    np.testing.assert_allclose(
        bm.core @ bm.core.conj().T, np.eye(4), atol=1e-10
    )
    with pytest.raises(NotIsometry):
        mo_to_pw_matrix(np.ones((2, 4)))
    with pytest.raises(NotIsometry):
        mo_to_pw_matrix(np.eye(3)[:, :2])  # more rows than columns


def test_basis_matrix_file_round_trip():
    rng = np.random.default_rng(9)
    bm = BasisMatrix(_haar(rng, 3))
    back = read_basis_matrix(write_basis_matrix(bm))
    np.testing.assert_allclose(back.core, bm.core, atol=0)
    assert (back.m1, back.m2) == (3, 3)
    # rectangular tables come back completed, top rows preserved
    table = np.array([[1, 1, 0, 0], [0, 0, 1, 1]]) / np.sqrt(2)
    rect = mo_to_pw_matrix(table)
    back = read_basis_matrix(write_basis_matrix(rect))
    assert (back.m1, back.m2) == (2, 4)
    np.testing.assert_allclose(back.core, rect.core, atol=1e-12)


def test_read_basis_matrix_errors():
    with pytest.raises(BadParam):
        read_basis_matrix("1.0 0.0\n")
    with pytest.raises(BadParam):
        read_basis_matrix("DIM 2\n")
    with pytest.raises(BadParam):
        read_basis_matrix("DIM 2 2\n1.0 0.0\n")
    for text in ("DIM 0 0\n", "DIM 0 2\n", "DIM 1 1\nnan 0.0\n", "DIM 1 1\n1.0 inf\n"):
        with pytest.raises(BadParam):
            read_basis_matrix(text)
