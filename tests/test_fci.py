"""Dense Fock-space oracle: ladder algebra, RDMs, toy Hamiltonians."""

import ast
import itertools
import sys
from pathlib import Path

import fock_reference as ref
import numpy as np
import pytest
from fock_reference import determinant_vector, ladder_matrix, random_toy_hamiltonian

from fermiconv import FockSpace, ToyHamiltonian, fci, k_rdm
from fermiconv.errors import (
    BadParam,
    CapExceeded,
    FermiconvError,
    IndexOutOfRange,
    NotUnitary,
    SectorEmpty,
)
from fermiconv.fci import (
    creation_string,
    ionization_attachment_probabilities,
    k_rdm_tensor,
    rotate_determinants,
    sector_eigensystem,
)


def test_single_orbital_ladder():
    space = FockSpace(1)
    np.testing.assert_allclose(
        ladder_matrix(1, "create", space), [[0, 0], [1, 0]]
    )
    np.testing.assert_allclose(
        ladder_matrix(1, "annihilate", space), [[0, 1], [0, 0]]
    )


def test_canonical_anticommutators():
    space = FockSpace(3)
    eye = np.eye(space.dim)
    c = {p: ladder_matrix(p, "create", space) for p in (1, 2, 3)}
    a = {p: ladder_matrix(p, "annihilate", space) for p in (1, 2, 3)}
    for p in (1, 2, 3):
        np.testing.assert_allclose(a[p], c[p].conj().T)
        np.testing.assert_allclose(c[p] @ c[p], 0 * eye)  # nilpotent
        for q in (1, 2, 3):
            anti = a[p] @ c[q] + c[q] @ a[p]
            np.testing.assert_allclose(anti, (p == q) * eye, atol=1e-12)
            np.testing.assert_allclose(
                c[p] @ c[q] + c[q] @ c[p], 0 * eye, atol=1e-12
            )


def test_creation_string_signs():
    space = FockSpace(3)
    asc = creation_string(space, (1, 3))
    np.testing.assert_allclose(asc, determinant_vector(space, (1, 3)))
    # one transposition flips the sign, repetition annihilates
    np.testing.assert_allclose(creation_string(space, (3, 1)), -asc)
    assert np.linalg.norm(creation_string(space, (2, 2))) == 0
    with pytest.raises(BadParam):
        determinant_vector(space, (1, 1))
    with pytest.raises(IndexOutOfRange):
        determinant_vector(space, (0,))


def test_one_rdm_trace_and_coherence():
    space = FockSpace(2)
    plus = (determinant_vector(space, (1,)) + determinant_vector(space, (2,))) / np.sqrt(2)
    d = k_rdm_tensor(plus, 1, space)
    np.testing.assert_allclose(np.trace(d), 1.0, atol=1e-12)
    np.testing.assert_allclose(d, np.full((2, 2), 0.5), atol=1e-12)
    det = determinant_vector(FockSpace(4), (1, 3))
    d = k_rdm_tensor(det, 1, FockSpace(4))
    np.testing.assert_allclose(d, np.diag([1.0, 0.0, 1.0, 0.0]), atol=1e-12)


def test_two_body_rdm_entry():
    space = FockSpace(4)
    det = determinant_vector(space, (1, 3))
    # <a1+ a3+ a3 a1> = 1 on |{1,3}>; crossing the q indices flips the sign
    assert abs(k_rdm(det, (1, 3), (1, 3), space) - 1.0) < 1e-12
    assert abs(k_rdm(det, (1, 3), (3, 1), space) + 1.0) < 1e-12
    assert abs(k_rdm(det, (2, 3), (3, 2), space)) < 1e-12
    with pytest.raises(BadParam):
        k_rdm(det, (1, 2), (1,), space)
    with pytest.raises(BadParam):
        k_rdm(2.0 * det, (1,), (1,), space)


def test_rotate_determinants_basics():
    space = FockSpace(2)
    H = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    out = rotate_determinants(determinant_vector(space, (1,)), H, space)
    want = (determinant_vector(space, (1,)) + determinant_vector(space, (2,))) / np.sqrt(2)
    np.testing.assert_allclose(out, want, atol=1e-12)
    # full shell picks up det(U); vacuum is untouched
    out = rotate_determinants(determinant_vector(space, (1, 2)), H, space)
    np.testing.assert_allclose(out, -determinant_vector(space, (1, 2)), atol=1e-12)
    vac = creation_string(space, ())
    np.testing.assert_allclose(rotate_determinants(vac, H, space), vac)
    with pytest.raises(NotUnitary):
        rotate_determinants(vac, np.ones((2, 2)), space)
    with pytest.raises(BadParam):
        rotate_determinants(vac, np.eye(3), space)


def test_rotation_preserves_rdm_covariance():
    rng = np.random.default_rng(2)
    space = FockSpace(3)
    z = rng.standard_normal((3, 3)) + 1j * rng.standard_normal((3, 3))
    U, _ = np.linalg.qr(z)
    psi = determinant_vector(space, (1, 2))
    rot = rotate_determinants(psi, U, space)
    np.testing.assert_allclose(np.linalg.norm(rot), 1.0, atol=1e-10)
    # 1-RDM transforms as conj(U) D U^T for our row convention
    d0 = k_rdm_tensor(psi, 1, space)
    d1 = k_rdm_tensor(rot, 1, space)
    np.testing.assert_allclose(d1, U.conj() @ d0 @ U.T, atol=1e-10)


def test_toy_hamiltonian_symmetry_enforcement():
    with pytest.raises(BadParam):
        ToyHamiltonian(2, np.array([[0, 1], [0, 0]]))
    h2 = np.zeros((2,) * 4)
    h2[0, 1, 0, 1] = 1.0  # orbit partner (1,0,1,0) missing
    with pytest.raises(BadParam):
        ToyHamiltonian(2, np.eye(2), h2)
    # non-finite coefficients pass both symmetry checks; they are refused too
    with pytest.raises(BadParam, match="non-finite"):
        ToyHamiltonian(2, np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(BadParam, match="non-finite"):
        ToyHamiltonian(2, np.array([[np.inf, 0], [0, 1]]))
    h2 = np.zeros((2,) * 4)
    h2[0, 0, 0, 0] = np.inf
    with pytest.raises(BadParam, match="non-finite"):
        ToyHamiltonian(2, np.eye(2), h2)
    rng = np.random.default_rng(0)
    H = random_toy_hamiltonian(rng, 3)
    space = FockSpace(3)
    Hm = H.dense_matrix(space)
    np.testing.assert_allclose(Hm, Hm.conj().T, atol=1e-10)
    # H commutes with total number: dense matrix is sector block diagonal
    n_op = sum(ladder_matrix(p, "create", space) @ ladder_matrix(p, "annihilate", space)
               for p in (1, 2, 3))
    np.testing.assert_allclose(Hm @ n_op, n_op @ Hm, atol=1e-10)


def test_dense_matrix_against_hand_example():
    # H = a1+ a2 + a2+ a1 on M=2: eigenstates (|1> +- |2>)/sqrt(2)
    H = ToyHamiltonian(2, np.array([[0, 1], [1, 0]], dtype=float))
    space = FockSpace(2)
    vals, vecs = sector_eigensystem(H.dense_matrix(space), space, 1)
    np.testing.assert_allclose(vals, [-1.0, 1.0], atol=1e-12)
    got = np.abs(vecs[:, 0])
    want = np.abs(determinant_vector(space, (1,)) - determinant_vector(space, (2,))) / np.sqrt(2)
    np.testing.assert_allclose(got, want, atol=1e-12)
    with pytest.raises(SectorEmpty):
        sector_eigensystem(H.dense_matrix(space), space, 5)


def test_ionization_attachment_hand_case():
    # diag(-1, +1): 1-electron ground state is |{1}>; removing orbital 1
    # lands on the vacuum-sector "eigenstate" with certainty
    H = ToyHamiltonian(2, np.diag([-1.0, 1.0]))
    lam_h, lam_p = ionization_attachment_probabilities(H, 1, 1)
    np.testing.assert_allclose(lam_h, [1.0], atol=1e-12)
    np.testing.assert_allclose(np.sum(lam_p), 0.0, atol=1e-12)
    lam_h2, lam_p2 = ionization_attachment_probabilities(H, 2, 1)
    np.testing.assert_allclose(np.sum(lam_h2), 0.0, atol=1e-12)
    np.testing.assert_allclose(np.sum(lam_p2), 1.0, atol=1e-12)


def test_ionization_attachment_sum_rules():
    rng = np.random.default_rng(17)
    for M, N0 in ((3, 1), (4, 2), (5, 2)):
        H = random_toy_hamiltonian(rng, M)
        space = FockSpace(M)
        Hm = H.dense_matrix(space)
        _, vecs = sector_eigensystem(Hm, space, N0)
        psi0 = vecs[:, 0]
        occ = k_rdm_tensor(psi0, 1, space).real.diagonal()
        for i in range(1, M + 1):
            lam_h, lam_p = ionization_attachment_probabilities(H, i, N0)
            assert np.all(lam_h >= -1e-12) and np.all(lam_h <= 1 + 1e-12)
            np.testing.assert_allclose(np.sum(lam_h), occ[i - 1], atol=1e-8)
            np.testing.assert_allclose(np.sum(lam_p), 1 - occ[i - 1], atol=1e-8)


def test_ionization_attachment_bounds():
    H = ToyHamiltonian(2, np.diag([-1.0, 1.0]))
    with pytest.raises(SectorEmpty):
        ionization_attachment_probabilities(H, 1, 0)
    with pytest.raises(SectorEmpty):
        ionization_attachment_probabilities(H, 1, 2)
    with pytest.raises(IndexOutOfRange):
        ionization_attachment_probabilities(H, 3, 1)
    big = ToyHamiltonian(9, np.eye(9))
    with pytest.raises(CapExceeded):
        ionization_attachment_probabilities(big, 1, 4)


def test_fock_space_caps():
    with pytest.raises(CapExceeded, match="M=13"):
        FockSpace(13)
    with pytest.raises(BadParam):
        FockSpace(0)
    space = FockSpace(3)
    assert space.dim == 8
    np.testing.assert_array_equal(space.sector_indices(1), [1, 2, 4])
    with pytest.raises(IndexOutOfRange):
        space.check_orbital(4)


def test_two_body_convention_against_ladder_products():
    M = 3
    space = FockSpace(M)
    H = random_toy_hamiltonian(np.random.default_rng(5), M)
    c = [ladder_matrix(p, "create", space) for p in range(1, M + 1)]
    a = [ladder_matrix(p, "annihilate", space) for p in range(1, M + 1)]
    want = sum(H.h1[p, q] * c[p] @ a[q] for p, q in np.ndindex(M, M))
    want = want + 0.5 * sum(
        H.h2[p, q, r, s] * c[p] @ c[q] @ a[r] @ a[s] for p, q, r, s in np.ndindex(*(M,) * 4)
    )
    np.testing.assert_allclose(H.dense_matrix(space), want, atol=1e-12)
    # <C_p1 C_p2 A_q2 A_q1> on a ground state mixing several determinants
    _, vecs = sector_eigensystem(want, space, 2)
    psi = vecs[:, 0]
    for p1, p2, q1, q2 in itertools.product(range(M), repeat=4):
        ref = np.vdot(psi, c[p1] @ c[p2] @ a[q2] @ a[q1] @ psi)
        got = k_rdm(psi, (p1 + 1, p2 + 1), (q1 + 1, q2 + 1), space)
        assert abs(got - ref) < 1e-12


def _sparse_toy_hamiltonian(rng, M):
    """Random Hamiltonian with about half its coefficient orbits set to zero."""
    H = random_toy_hamiltonian(rng, M)
    keep1 = rng.random((M, M)) < 0.5
    keep2 = rng.random((M,) * 4) < 0.5
    # zero whole symmetry orbits, so the ingestion checks still pass
    keep1 &= keep1.T
    for axes in ((1, 0, 3, 2), (3, 2, 1, 0), (2, 3, 0, 1)):
        keep2 &= np.transpose(keep2, axes)
    return ToyHamiltonian(M, np.where(keep1, H.h1, 0), np.where(keep2, H.h2, 0))


@pytest.mark.parametrize("M", range(1, 10))
def test_dense_matrix_matches_per_term_reference(M):
    rng = np.random.default_rng(100 + M)
    space = FockSpace(M)
    sparse = _sparse_toy_hamiltonian(rng, M)
    hams = [
        random_toy_hamiltonian(rng, M),
        random_toy_hamiltonian(rng, M, two_body=False),
        sparse,
        ToyHamiltonian(M, np.zeros((M, M))),
    ]
    if M >= 3:
        h1 = np.zeros((M, M), dtype=complex)
        h1[0, 0], h1[0, 2], h1[2, 0] = -1.5, 0.25 + 0.5j, 0.25 - 0.5j
        h2 = np.zeros((M,) * 4, dtype=complex)
        h2[0, 2, 2, 0] = h2[2, 0, 0, 2] = 0.75
        hams.append(ToyHamiltonian(M, h1, h2))
    if M == 9:  # the per-term reference takes about 0.4 s a Hamiltonian here
        hams = hams[:1]
    for H in hams:
        assert H.dense_matrix(space).tobytes() == ref.dense_matrix(H, space).tobytes()


def test_dense_matrix_refusals_unchanged():
    H = random_toy_hamiltonian(np.random.default_rng(3), 3)
    for build in (ToyHamiltonian.dense_matrix, ref.dense_matrix):
        with pytest.raises(BadParam, match="disagree on M"):
            build(H, FockSpace(4))
    # the tables are mutable: a one-sided edit only the dense check sees
    H.h2[0, 1, 2, 0] += 1.0
    H.h2[1, 0, 0, 2] += 1.0
    for build in (ToyHamiltonian.dense_matrix, ref.dense_matrix):
        with pytest.raises(BadParam, match="not Hermitian"):
            build(H, FockSpace(3))


@pytest.mark.parametrize("name", ["h1", "h2"])
@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_non_finite_edit_refused_before_the_build(name, bad):
    # ingestion checks the tables once; the tables stay mutable, so the build
    # checks them again before any arithmetic
    H = ToyHamiltonian(3, np.eye(3))
    getattr(H, name).flat[0] = bad
    with pytest.raises(BadParam, match=f"non-finite coefficient in {name}"):
        H.dense_matrix(FockSpace(3))
    with pytest.raises(BadParam, match=f"non-finite coefficient in {name}"):
        ionization_attachment_probabilities(H, 1, 1)


def test_overflowing_hamiltonian_refused():
    # finite coefficients whose sum overflows: the doubly occupied diagonal
    # entry is inf, refused before the Hermiticity check would subtract it
    H = ToyHamiltonian(2, 1e308 * np.eye(2))
    with pytest.raises(BadParam, match="overflows: an entry is not finite"):
        H.dense_matrix(FockSpace(2))
    # coefficients large enough to need the scan, whose sums stay finite, build
    assert ToyHamiltonian(2, 1e307 * np.eye(2)).dense_matrix(FockSpace(2))[3, 3] == 2e307


def test_sector_eigensystem_refuses_another_spaces_matrix():
    H = ToyHamiltonian(4, np.diag([0.0, 1, 2, 3]))
    with pytest.raises(BadParam, match=r"\(16, 16\), not \(8, 8\)"):
        sector_eigensystem(H.dense_matrix(FockSpace(4)), FockSpace(3), 1)


def test_hamiltonian_terms_are_one_cached_read_only_table():
    M = 4
    space = FockSpace(M)
    flat, counts, sign = table = fci._hamiltonian_terms(M)
    assert table is fci._hamiltonian_terms(M)
    assert (flat.dtype, counts.dtype, sign.dtype) == (np.int32, np.int32, np.int8)
    for part in table:
        assert not part.flags.writeable
    with pytest.raises(ValueError):
        sign[0] = 0
    # one count per coefficient of concat(h1.ravel(), 0.5 * h2.ravel())
    assert len(counts) == M * M + M**4
    assert counts.sum() == len(flat) == len(sign)
    # term-major: each coefficient's run holds the entries its own string
    # reaches, in mask order, and no other
    masks = space.masks()
    for term, stop in enumerate(np.cumsum(counts)):
        if term < M * M:
            p, q = divmod(term, M)
            ops = (("annihilate", q + 1), ("create", p + 1))
        else:
            p, q, r, s = np.unravel_index(term - M * M, (M,) * 4)
            ops = (("annihilate", s + 1), ("annihilate", r + 1),
                   ("create", q + 1), ("create", p + 1))
        ok, out, want = ref.string_action(space, ops, masks)
        run = slice(stop - counts[term], stop)
        assert flat[run].tolist() == (out[ok] << M | masks[ok]).tolist()
        assert sign[run].tolist() == want[ok].tolist()


def test_hamiltonian_terms_hold_structure_only():
    M = 4
    space = FockSpace(M)
    H = random_toy_hamiltonian(np.random.default_rng(11), M)
    before = H.dense_matrix(space)
    # in-place edits along whole symmetry orbits keep every check passing;
    # the next build must read them, not a cached matrix or coefficient
    H.h1[0, 2] += 0.5 - 0.25j
    H.h1[2, 0] += 0.5 + 0.25j
    d = 0.75 + 0.5j
    H.h2[0, 1, 2, 3] += d
    H.h2[2, 3, 0, 1] += d
    H.h2[1, 0, 3, 2] += np.conj(d)
    H.h2[3, 2, 1, 0] += np.conj(d)
    after = H.dense_matrix(space)
    assert not np.array_equal(after, before)
    assert after.tobytes() == ref.dense_matrix(H, space).tobytes()


@pytest.mark.parametrize("M", range(1, 9))
def test_rotation_matches_per_pair_reference(M):
    rng = np.random.default_rng(200 + M)
    space = FockSpace(M)
    U, _ = np.linalg.qr(rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M)))
    # a permutation with phases: of each target set's minors, all but one are exact zeros
    P = np.eye(M)[rng.permutation(M)] * np.exp(2j * np.pi * rng.random(M))
    full = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    # every other sector left empty, the vacuum amplitude included
    gappy = np.where(fci._popcounts(M) % 2 == 1, full, 0)
    states = [
        full / np.linalg.norm(full),
        gappy / np.linalg.norm(gappy),
        creation_string(space, ()),
        determinant_vector(space, range(1, M + 1, 2)),
        np.zeros(space.dim),
    ]
    # superpositions of 1-4 determinants of one sector, as the basis-change
    # round trips rotate them
    for count in range(1, 5):
        idx = space.sector_indices(int(rng.integers(1, M + 1)))
        idx = rng.choice(idx, min(count, len(idx)), replace=False)
        psi = np.zeros(space.dim, dtype=complex)
        psi[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
        states.append(psi / np.linalg.norm(psi))
    for V in (U, P):
        for psi in states:
            want = ref.rotate_determinants(psi, V, space)
            for rotate in (rotate_determinants, ref.stacked_rotate_determinants):
                assert np.max(np.abs(rotate(psi, V, space) - want)) <= 1e-13


def test_rotation_matches_stacked_reference_on_a_full_sector():
    # M=10 N=5: the per-pair reference would take C(10,5)^2 = 63,504
    # determinants one call each; the stacked reference is pinned to it above
    rng = np.random.default_rng(310)
    space = FockSpace(10)
    U, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    psi = np.zeros(space.dim, dtype=complex)
    idx = space.sector_indices(5)
    psi[idx] = rng.standard_normal(len(idx)) + 1j * rng.standard_normal(len(idx))
    psi /= np.linalg.norm(psi)
    got = rotate_determinants(psi, U, space)
    assert np.max(np.abs(got - ref.stacked_rotate_determinants(psi, U, space))) <= 1e-13


def test_rotation_refusals_unchanged():
    space = FockSpace(3)
    psi = determinant_vector(space, (1, 2))
    for rotate in (rotate_determinants, ref.rotate_determinants):
        with pytest.raises(BadParam, match="U must be 3x3"):
            rotate(psi, np.eye(2), space)
        with pytest.raises(NotUnitary, match="unitarity"):
            rotate(psi, 2 * np.eye(3), space)


def test_batched_strings_match_one_string_at_a_time():
    space = FockSpace(4)
    masks = space.masks()
    ps = np.array([1, 4, 2, 2])
    qs = np.array([3, 3, 2, 4])
    (t, x), out, sign = fci._string_action(
        space, (("annihilate", qs), ("create", 2), ("create", ps)), masks)
    assert t.shape == x.shape == out.shape == sign.shape
    assert np.all(np.diff(t) >= 0)  # term-major
    for term, (p, q) in enumerate(zip(ps, qs)):
        (one_x,), one_out, one_sign = fci._string_action(
            space, (("annihilate", q), ("create", 2), ("create", p)), masks)
        at = t == term
        for got, want in zip((x[at], out[at], sign[at]), (one_x, one_out, one_sign)):
            assert np.array_equal(got, want)
    assert set(t.tolist()) == {0, 1}  # terms 2 and 3 create orbital 2 twice
    with pytest.raises(IndexOutOfRange, match="orbital 5"):
        fci._string_action(space, (("create", np.array([1, 5, 0])),), masks)


def _outcome(call, *args):
    """What a call returns, or the type and message of the refusal it raises."""
    try:
        return call(*args)
    except FermiconvError as e:
        return type(e), str(e)


def _assert_same_action(space, ops, masks):
    got = _outcome(fci._string_action, space, ops, masks)
    want = _outcome(ref.string_action, space, ops, masks)
    if isinstance(want[0], type):
        assert got == want
        return
    ok, out, sign = want
    index = np.nonzero(ok)
    assert len(got[0]) == len(index)
    # bit for bit at the kept entries, the only ones the kernel returns
    for g, w in zip((*got[0], got[1], got[2]), (*index, out[index], sign[index])):
        assert g.shape == w.shape and g.dtype == w.dtype and g.tobytes() == w.tobytes()


@pytest.mark.parametrize("M", range(1, 5))
def test_folded_kernel_matches_reference_on_every_short_string(M):
    space = FockSpace(M)
    slots = [(kind, p) for kind in ("create", "annihilate") for p in range(1, M + 1)]
    for length in range(5):
        for ops in itertools.product(slots, repeat=length):
            _assert_same_action(space, ops, space.masks())


@pytest.mark.parametrize("M", (5, 8, 12))
def test_folded_kernel_matches_reference_on_mixed_slots(M):
    rng = np.random.default_rng(300 + M)
    space = FockSpace(M)
    for _ in range(150):
        terms = int(rng.integers(1, 6))
        ops = [
            (("create", "annihilate")[rng.integers(2)],
             rng.integers(1, M + 1, size=terms) if rng.random() < 0.5
             else int(rng.integers(1, M + 1)))
            for _ in range(rng.integers(0, 7))
        ]
        for masks in (space.masks(), rng.integers(0, space.dim, size=9), np.zeros(1, np.int64)):
            _assert_same_action(space, ops, masks)


def test_folded_kernel_refusals_match_reference():
    for M in (1, 4, 8):
        space = FockSpace(M)
        bad_strings = [
            (("create", 1), ("flip", 1)),
            (("annihilate", 0),),
            (("create", M + 1), ("flip", 1)),
            (("create", 1), ("annihilate", np.array([1, 0, M + 1]))),
            (("annihilate", np.array([1, M + 1, 0])),),
            (("create", np.array([1, 1])), ("flip", np.array([1, 1]))),
        ]
        for ops in bad_strings:
            got = _outcome(fci._string_action, space, ops, space.masks())
            assert got[0] in (BadParam, IndexOutOfRange)
            _assert_same_action(space, ops, space.masks())


def _check_k_rdm_against_scatter(M):
    rng = np.random.default_rng(400 + M)
    space = FockSpace(M)
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi /= np.linalg.norm(psi)
    for _ in range(2):  # the second sweep reads every string the first one stored
        for k in (1, 2):
            for orbs in itertools.product(range(1, M + 1), repeat=2 * k):
                ps, qs = orbs[:k], orbs[k:]
                got = k_rdm(psi, ps, qs, space)
                assert abs(got - ref.k_rdm(psi, ps, qs, space)) <= 1e-15
                if len(set(ps)) < k or len(set(qs)) < k:
                    assert got == 0
    for ps, qs, state in (
        ((1, 2), (1,), psi),
        ((1,), (1,), 2 * psi),
        ((M + 1,), (1,), psi),
        ((1, 2), (0, 1), psi),
    ):
        got = _outcome(k_rdm, state, ps, qs, space)
        assert got[0] in (BadParam, IndexOutOfRange)
        assert got == _outcome(ref.k_rdm, state, ps, qs, space)


@pytest.mark.parametrize("M", (4, 6, 8))
def test_k_rdm_matches_scatter_reference(M):
    _check_k_rdm_against_scatter(M)


@pytest.mark.parametrize("M", (4, 6, 8))
def test_k_rdm_without_string_table_matches_scatter_reference(M, monkeypatch):
    # a table with no room computes every string afresh and stores none
    monkeypatch.setattr(fci, "_kept", fci._StringTable())
    monkeypatch.setattr(fci, "KEPT_CAP", 0)
    _check_k_rdm_against_scatter(M)
    assert fci._kept == {}


def _random_state(rng, space):
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    return psi / np.linalg.norm(psi)


def test_string_table_refuses_warm_calls_as_cold_ones(monkeypatch):
    monkeypatch.setattr(fci, "_kept", fci._StringTable())
    space = FockSpace(4)
    psi = _random_state(np.random.default_rng(11), space)
    bad_calls = [
        (psi, (5,), (1,)),
        (psi, (1, 2), (0, 1)),
        (psi, (-1,), (2,)),
        (psi, (1, 2), (1,)),
        (psi, (1, 2), (2, 3, 4)),
        (2 * psi, (1,), (1,)),
        (2 * psi, (1, 2), (2, 3)),
        (psi[:8], (1, 2), (2, 3)),
        (np.append(psi, 0), (1,), (1,)),
    ]
    cold = [_outcome(k_rdm, *call[:3], space) for call in bad_calls]
    for ps in ((2.0,), (np.float64(1),)):
        with pytest.raises(TypeError):
            k_rdm(psi, ps, (1,), space)
    # every valid 1- and 2-body string stored, then the same calls again
    for k in (1, 2):
        for orbs in itertools.product(range(1, 5), repeat=2 * k):
            k_rdm(psi, orbs[:k], orbs[k:], space)
    assert len(fci._kept) == 4**2 + 4**4
    assert (4, (1, 2), (2, 3)) in fci._kept and (4, (1,), (1,)) in fci._kept
    warm = [_outcome(k_rdm, *call[:3], space) for call in bad_calls]
    assert warm == cold
    assert [w[0] for w in warm] == [IndexOutOfRange] * 3 + [BadParam] * 6
    for ps in ((2.0,), (np.float64(1),)):
        with pytest.raises(TypeError):
            k_rdm(psi, ps, (1,), space)
    # refusals are never stored
    assert len(fci._kept) == 4**2 + 4**4


def test_integer_like_orbitals_share_one_table_entry(monkeypatch):
    monkeypatch.setattr(fci, "_kept", fci._StringTable())
    space = FockSpace(4)
    psi = _random_state(np.random.default_rng(12), space)
    want = k_rdm(psi, (2, 1), (1, 2), space)
    for ps, qs in (
        ((np.int64(2), True), (1, np.int64(2))),
        ((2, np.int32(1)), (True, 2)),
        ([np.int64(2), 1], np.array([1, 2])),
    ):
        got = k_rdm(psi, ps, qs, space)
        assert type(got) is complex and got == want
    (key,) = fci._kept
    assert key == (4, (2, 1), (1, 2)) and all(type(p) is int for p in key[1] + key[2])
    assert abs(want - ref.k_rdm(psi, (2, 1), (1, 2), space)) <= 1e-15


def test_oracle_refuses_states_of_the_wrong_shape():
    space = FockSpace(3)
    U = np.eye(3)
    calls = (
        lambda s: k_rdm(s, (1,), (1,), space),
        lambda s: k_rdm(s, (1, 1), (2, 3), space),  # a dead string reads no amplitude
        lambda s: k_rdm_tensor(s, 1, space),
        lambda s: fci.apply_ladder_fock(s, 1, "create", space),
        lambda s: rotate_determinants(s, U, space),
    )
    for n in (4, 10):
        short_or_long = np.full(n, 1 / np.sqrt(n), dtype=complex)
        for call in calls:
            with pytest.raises(BadParam, match=rf"length 2\^3 = 8, not shape \({n},\)"):
                call(short_or_long)
    flat = np.full(8, 1 / np.sqrt(8), dtype=complex)
    for shape in ((8, 1), (1, 8), (2, 4)):
        for call in calls:
            with pytest.raises(BadParam, match=r"length 2\^3 = 8"):
                call(flat.reshape(shape))
    for call in calls:  # the right length still passes
        call(flat)


def test_k_rdm_tensor_matches_per_entry_k_rdm():
    rng = np.random.default_rng(9)
    for M, N, k in ((1, 1, 1), (3, 2, 2), (4, 2, 3), (5, 2, 1), (6, 3, 2), (4, None, 2)):
        space = FockSpace(M)
        if N is None:  # every mask occupied, every sector mixed
            psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
            psi /= np.linalg.norm(psi)
        else:
            H = random_toy_hamiltonian(rng, M)
            _, vecs = sector_eigensystem(H.dense_matrix(space), space, N)
            psi = vecs[:, 0]
        rdm = k_rdm_tensor(psi, k, space)
        assert rdm.shape == (M,) * (2 * k)
        for idx in np.ndindex(rdm.shape):
            orbs = [i + 1 for i in idx]
            assert abs(rdm[idx] - k_rdm(psi, orbs[:k], orbs[k:], space)) <= 1e-14
    space = FockSpace(2)
    vac = creation_string(space, ())
    with pytest.raises(BadParam, match="normalized"):
        k_rdm_tensor(2 * vac, 1, space)
    with pytest.raises(BadParam, match="below 1"):
        k_rdm_tensor(vac, 0, space)


def test_dead_string_keeps_nothing():
    space = FockSpace(4)
    psi = np.full(space.dim, 0.25 + 0.0j)
    (x,), out, sign = fci._string_action(
        space, (("annihilate", 2), ("annihilate", 2), ("create", 1)), space.masks())
    assert x.size == out.size == sign.size == 0
    got = k_rdm(psi, (1, 3), (2, 2), space)
    assert type(got) is complex and got == 0


def test_non_finite_states_refused():
    space = FockSpace(2)
    for bad, at in itertools.product((np.nan, np.inf, complex(np.inf, np.nan)), (0, 2)):
        state = [0] * 4
        state[at] = bad
        with pytest.raises(BadParam, match="normalized"):
            k_rdm(state, (1,), (1,), space)
        with pytest.raises(BadParam, match="normalized"):
            k_rdm(state, (1, 1), (2, 2), space)  # a dead string reads no amplitude
        with pytest.raises(BadParam, match="normalized"):
            k_rdm_tensor(state, 2, space)
        with pytest.raises(BadParam, match="normalized"):
            k_rdm_tensor(state, 1, space)
        # the unnormalized inputs are refused too, not rotated into NaN
        with pytest.raises(BadParam, match="non-finite amplitude"):
            rotate_determinants(state, np.eye(2), space)
        with pytest.raises(BadParam, match="non-finite amplitude"):
            fci.apply_ladder_fock(state, 1, "create", space)


def test_oracle_imports_no_circuit_code():
    tree = ast.parse(Path(fci.__file__).read_text())
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            roots = [alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            if node.level:
                assert (node.level, node.module) == (1, "errors"), ast.dump(node)
                continue
            roots = [node.module.split(".")[0]]
        else:
            continue
        for root in roots:
            assert root == "numpy" or root in sys.stdlib_module_names, root


def test_masks_are_one_cached_read_only_table(monkeypatch):
    monkeypatch.setattr(fci, "_kept", fci._StringTable())
    space = FockSpace(4)
    masks = space.masks()
    assert masks is FockSpace(4).masks()
    assert not masks.flags.writeable
    assert masks.tolist() == list(range(16))
    # every caller only reads the table: a write would raise ValueError
    rng = np.random.default_rng(7)
    H = random_toy_hamiltonian(rng, 4)
    vals, vecs = sector_eigensystem(H.dense_matrix(space), space, 2)
    psi = vecs[:, 0]
    ladder_matrix(2, "create", space)
    fci.apply_ladder_fock(psi, 3, "annihilate", space)
    creation_string(space, (1, 4))
    k_rdm(psi, (1, 2), (2, 3), space)
    k_rdm_tensor(psi, 2, space)
    U, _ = np.linalg.qr(rng.standard_normal((4, 4)))
    rotate_determinants(psi, U, space)
    ionization_attachment_probabilities(H, 2, 2)
    assert masks.tolist() == list(range(16))
    # k_rdm's string table and the rotation's index sets and minor rows are
    # read-only too
    x, out, sign = fci._kept[(4, (1, 2), (2, 3))]
    assert len(x)  # a live string
    for entry in fci._kept.values():
        assert not any(a.flags.writeable for a in entry)
    for a in (x, out, sign, *fci._sector_sets(4, 2), fci._minor_rows(4, 2)):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 0
