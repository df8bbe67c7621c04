"""Acceptance gate: nine numbered criteria, one pass/fail line each.

Every criterion checks instrumented circuits against the dense classical
oracle at the stated tolerance; runtimes stay desk scale by construction
(exhaustive sets are small, everything else is seeded).
"""

import itertools

import numpy as np

from fermiconv import (
    EncodedState,
    FockSpace,
    OccupationBitstring,
    Statevector,
    apply_ladder,
    apply_register_transform,
    dft_matrix,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    qft_register_transform,
    second_to_first,
    tensor_product_merge,
)
from fermiconv.circuits import Circuit, build_layout
from fermiconv.comparators import (
    _eq_gates,
    _gt_gates,
    _le_gates,
    _lt_gates,
    bubble_gates,
    swap_values_circuit,
)
from fermiconv.encodings import (
    first_quantized_to_fock,
    occupation_components,
    sorted_list_to_fock,
)
from fermiconv.fci import (
    creation_string,
    ionization_attachment_probabilities,
    k_rdm_tensor,
    rotate_determinants,
    sector_eigensystem,
)
from fermiconv.majorana import N_WORK_ANCILLAS, majorana_circuit
from fermiconv.report import MODEL_SORT, conversion_count_grid, fit_scaling
from fock_reference import coefficient_deviation, ladder_matrix, random_toy_hamiltonian
from loops import basis_image

FID_FLOOR = 1.0 - 1e-9


def _verdict(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num} {'PASS' if ok else 'FAIL'}: {detail}")


def _sl(M, indices, n_reg):
    return encode_sorted_list(OccupationBitstring.from_indices(M, indices), n_reg)


def _fq(M, indices):
    return encode_first_quantized_determinant(
        OccupationBitstring.from_indices(M, indices)
    )


def _fid(x, y):
    return abs(np.vdot(x, y)) / (np.linalg.norm(x) * np.linalg.norm(y))


def _record_fid(x, y):
    """_fid of two (keys, amps) component lists: a key only one holds adds
    nothing to the overlap."""
    _, i, j = np.intersect1d(x[0], y[0], return_indices=True)
    return abs(np.vdot(x[1][i], y[1][j])) / (np.linalg.norm(x[1]) * np.linalg.norm(y[1]))


def test_01_encoding_faithfulness():
    M, n_reg = 4, 6  # N_reg = M + 2
    space = FockSpace(M)
    worst = 0.0
    cases = 0
    for mask in range(1 << M):
        x = OccupationBitstring(M, mask)
        enc = _sl(M, x.indices(), n_reg)
        fock_in = np.zeros(space.dim, dtype=complex)
        fock_in[mask] = 1.0
        for p in range(1, M + 1):
            for kind in ("create", "annihilate"):
                got = sorted_list_to_fock(apply_ladder(enc, p, kind))
                want = ladder_matrix(p, kind, space) @ fock_in
                worst = max(worst, float(np.max(np.abs(got - want))))
                cases += 1
    ok = worst <= 1e-10
    _verdict(1, ok, f"max deviation {worst:.3e} over {cases} ladder cases "
                    f"(16 states, N_reg=6), bound 1e-10")
    assert ok


def _gamma_matrix(M, n_reg, mu):
    """Dense Majorana action over the whole valid sorted-list subspace."""
    lay = build_layout(M, n_reg, N_WORK_ANCILLAS)
    circ, scalar = majorana_circuit(lay, mu)
    states = list(range(1 << M))
    slots = {}
    for k, mask in enumerate(states):
        x = OccupationBitstring(M, mask)
        vals = tuple(x.indices()) + (lay.sentinel,) * (n_reg - x.N)
        slots[lay.basis_index(vals)] = k
    mat = np.zeros((len(states), len(states)), dtype=complex)
    for k, mask in enumerate(states):
        x = OccupationBitstring(M, mask)
        vals = tuple(x.indices()) + (lay.sentinel,) * (n_reg - x.N)
        out, ph = basis_image(circ, lay.basis_index(vals))
        mat[slots[out], k] = scalar * ph
    return mat


def test_02_majorana_anticommutators():
    M = 4
    mats = {mu: _gamma_matrix(M, M, mu) for mu in range(1, 2 * M + 1)}
    eye = np.eye(1 << M)
    worst = 0.0
    for a in range(1, 2 * M + 1):
        for b in range(1, 2 * M + 1):
            anti = mats[a] @ mats[b] + mats[b] @ mats[a]
            worst = max(
                worst, float(np.max(np.abs(anti - (2.0 if a == b else 0.0) * eye)))
            )
    ok = worst <= 1e-10
    _verdict(2, ok, f"max |{{g_a,g_b}} - 2 delta_ab| = {worst:.3e} over "
                    f"{(2 * M) ** 2} pairs at M=4, bound 1e-10")
    assert ok


def _round_trip(sl):
    """(fidelity, largest entrywise coefficient deviation) of sl2fq then fq2sl."""
    fq, _ = second_to_first(sl)
    back, _ = first_to_second(fq)
    dev = coefficient_deviation(occupation_components(sl), occupation_components(back))
    return _fid(back.state.amps, sl.state.amps), dev


def test_03_round_trip_identity():
    runs = []
    for M in range(2, 6):
        for N in range(1, min(3, M) + 1):
            for combo in itertools.combinations(range(1, M + 1), N):
                runs.append(_round_trip(_sl(M, combo, N)))
    n_det = len(runs)
    rng = np.random.default_rng(0)
    M = 5
    for _ in range(50):
        N = int(rng.integers(1, 4))
        dets = list(itertools.combinations(range(1, M + 1), N))
        c = rng.standard_normal(len(dets)) + 1j * rng.standard_normal(len(dets))
        c /= np.linalg.norm(c)
        sl = _sl(M, dets[0], N)
        runs.append(_round_trip(EncodedState(Statevector(sum(
            ci * _sl(M, d, N).state.amps for ci, d in zip(c, dets)
        )), sl.discipline, sl.layout, sl.N)))
    worst, worst_dev = min(f for f, _ in runs), max(d for _, d in runs)
    ok = worst >= FID_FLOOR and worst_dev <= 1e-10
    _verdict(3, ok, f"min round-trip fidelity {worst:.12f} over {n_det} "
                    f"determinants (M<=5, N<=3) + 50 superpositions, "
                    f"floor 1-1e-9; max entrywise deviation {worst_dev:.3e}, bound 1e-10")
    assert ok


def test_04_record_disentanglement():
    groups: dict[int, list[tuple[np.ndarray, np.ndarray]]] = {}
    for M in range(2, 6):
        for N in range(1, min(3, M) + 1):
            for combo in itertools.combinations(range(1, M + 1), N):
                _, rep = first_to_second(_fq(M, combo))
                groups.setdefault(N, []).append(rep.record_state)
    worst, worst_dev = 1.0, 0.0
    n_pairs = 0
    for recs in groups.values():
        for i in range(len(recs)):
            for j in range(i + 1, len(recs)):
                worst = min(worst, _record_fid(recs[i], recs[j]))
                worst_dev = max(worst_dev, coefficient_deviation(recs[i], recs[j]))
                n_pairs += 1
    ok = worst >= FID_FLOOR and worst_dev <= 1e-10
    _verdict(4, ok, f"min pairwise record fidelity {worst:.12f} over "
                    f"{n_pairs} same-N pairs, floor 1-1e-9; max entrywise "
                    f"deviation {worst_dev:.3e}, bound 1e-10")
    assert ok


def test_05_scaling_fit():
    fit = fit_scaling(conversion_count_grid((2, 4, 8), (8, 16, 32, 64)), MODEL_SORT)
    ok = fit.r_squared >= 0.95
    _verdict(5, ok, f"R^2 = {fit.r_squared:.5f} for count ~ "
                    f"{fit.coefficient:.3f} * N*log2(N)^2*log2(M), floor 0.95")
    assert ok


def test_06_register_transform_equivalence():
    rng = np.random.default_rng(6)
    M, N = 4, 2
    space = FockSpace(M)
    dets = list(itertools.combinations(range(1, M + 1), N))
    worst = 0.0
    for _ in range(20):
        zmat = rng.standard_normal((M, M)) + 1j * rng.standard_normal((M, M))
        U, r = np.linalg.qr(zmat)
        U = U * (np.diag(r) / np.abs(np.diag(r)))
        c = rng.standard_normal(len(dets)) + 1j * rng.standard_normal(len(dets))
        c /= np.linalg.norm(c)
        enc = _fq(M, dets[0])
        enc = EncodedState(Statevector(sum(
            ci * _fq(M, d).state.amps for ci, d in zip(c, dets)
        )), enc.discipline, enc.layout, enc.N)
        out, _ = apply_register_transform(enc, U)
        want = rotate_determinants(first_quantized_to_fock(enc), U, space)
        got = first_quantized_to_fock(out)
        worst = max(worst, float(np.max(np.abs(got - want))))
    # Fourier special case against the explicit DFT matrix
    enc = _fq(M, (1, 3))
    out, _ = qft_register_transform(enc)
    want = rotate_determinants(first_quantized_to_fock(enc), dft_matrix(M), space)
    got = first_quantized_to_fock(out)
    qft_dev = float(np.max(np.abs(got - want)))
    worst = max(worst, qft_dev)
    ok = worst <= 1e-10
    _verdict(6, ok, f"max deviation {worst:.3e} over 20 random unitaries "
                    f"(M=4, N=2) + QFT-vs-DFT {qft_dev:.3e}, bound 1e-10")
    assert ok


def test_07_tensor_product_merge():
    M = 4
    space = FockSpace(M)
    occs = [
        OccupationBitstring(M, mask)
        for mask in range(1 << M)
        if bin(mask).count("1") <= 2
    ]
    worst = 0.0
    n_pairs = 0
    for xa in occs:
        for xb in occs:
            a = _sl(M, xa.indices(), max(xa.N, 1))
            b = _sl(M, xb.indices(), max(xb.N, 1))
            res = tensor_product_merge(a, b)
            assert res.records_discarded
            n_out = res.state.layout.n_reg
            flag0 = res.state.state.amps.reshape(2, -1)[0]
            sec = EncodedState(
                Statevector(flag0.copy()), "sorted-list", build_layout(M, n_out, 0)
            )
            got = sorted_list_to_fock(sec)
            if xa.mask & xb.mask:
                worst = max(worst, abs(res.duplicate_probability - 1.0))
                worst = max(worst, float(np.linalg.norm(got)))
            else:
                want = creation_string(space, xa.indices() + xb.indices())
                worst = max(worst, res.duplicate_probability)
                worst = max(worst, float(np.max(np.abs(got - want))))
            n_pairs += 1
    # the pinned reordering sign: |{3}> (x) |{1}> -> -|{1,3}>
    res = tensor_product_merge(_sl(M, (3,), 1), _sl(M, (1,), 1))
    flag0 = res.state.state.amps.reshape(2, -1)[0]
    sec = EncodedState(
        Statevector(flag0.copy()), "sorted-list", build_layout(M, 2, 0)
    )
    got = sorted_list_to_fock(sec)
    want = -creation_string(space, (1, 3))
    sign_dev = float(np.max(np.abs(got - want)))
    worst = max(worst, sign_dev)
    ok = worst <= 1e-10
    _verdict(7, ok, f"max deviation {worst:.3e} over {n_pairs} merges "
                    f"(M=4, N_a,N_b<=2) incl. the -1 reorder case, bound 1e-10")
    assert ok


def test_08_rdm_sum_rules():
    rng = np.random.default_rng(8)
    worst = 0.0
    for _ in range(20):
        M = int(rng.integers(2, 7))
        N0 = M // 2
        H = random_toy_hamiltonian(rng, M)
        space = FockSpace(M)
        Hm = H.dense_matrix(space)
        _, vecs = sector_eigensystem(Hm, space, N0)
        psi0 = vecs[:, 0]
        d = k_rdm_tensor(psi0, 1, space)
        worst = max(worst, abs(float(np.trace(d).real) - N0))
        worst = max(worst, abs(float(np.trace(d).imag)))
        for i in range(1, M + 1):
            lam_h, lam_p = ionization_attachment_probabilities(H, i, N0)
            occ_i = float(d[i - 1, i - 1].real)
            worst = max(worst, abs(float(np.sum(lam_h)) - occ_i))
            worst = max(worst, abs(float(np.sum(lam_p)) - (1.0 - occ_i)))
    ok = worst <= 1e-8
    _verdict(8, ok, f"max sum-rule deviation {worst:.3e} over 20 random "
                    f"Hamiltonians (M<=6), bound 1e-8")
    assert ok


def test_09_primitive_truth_tables():
    worst_cases = 0
    checked = 0
    for M in (2, 6, 14):  # b = 2, 3, 4; every nonzero code is meaningful
        lay = build_layout(M, 2, 3)
        b = lay.b
        anc = lay.anc_qubit(0)
        ancs = [lay.anc_qubit(j) for j in range(3)]
        preds = []
        for p in list(range(1, M + 1)) + [lay.sentinel]:
            for gates, want in (
                (_eq_gates, lambda v, p=p: v == p),
                (_lt_gates, lambda v, p=p: v < p),
                (_le_gates, lambda v, p=p: v <= p),
                (_gt_gates, lambda v, p=p: v > p),
            ):
                preds.append((Circuit(lay, gates(lay, 0, p, anc)), want))
        for circ, want in preds:
            for v in range(1 << b):
                idx = lay.basis_index((v, 0))
                out, ph = basis_image(circ, idx)
                flag = out >> (2 * b)
                ok = (
                    ph == 1
                    and flag == int(want(v))
                    and (out & ((1 << (2 * b)) - 1)) == idx
                )
                worst_cases += 0 if ok else 1
                checked += 1
        for p in range(1, M + 1):
            circ = Circuit(lay, bubble_gates(lay, 0, 1, p, ancs))
            for v1 in range(1 << b):
                for v2 in range(1 << b):
                    out, ph = basis_image(circ, lay.basis_index((v1, v2)))
                    swap = (v1 == p and v2 > p) or (v2 == p and v1 > p)
                    want_vals = (v2, v1) if swap else (v1, v2)
                    ok = (
                        ph == 1
                        and lay.values(out) == want_vals
                        and out >> (2 * b) == 0
                    )
                    worst_cases += 0 if ok else 1
                    checked += 1
        for a, c in itertools.combinations(range(1 << b), 2):
            circ = swap_values_circuit(lay, 0, a, c, anc)
            for v in range(1 << b):
                out, ph = basis_image(circ, lay.basis_index((v, 0)))
                want_v = c if v == a else a if v == c else v
                ok = (
                    ph == 1
                    and lay.reg_value(out, 0) == want_v
                    and out >> b == 0
                )
                worst_cases += 0 if ok else 1
                checked += 1
    ok = worst_cases == 0
    _verdict(9, ok, f"{checked - worst_cases}/{checked} truth-table rows "
                    f"match at b in {{2,3,4}}")
    assert ok
