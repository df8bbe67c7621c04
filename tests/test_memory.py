"""Peak memory of the permutation stages, which run on component lists.

Dense vectors are for register unitaries and the oracle only. A stage that
scattered into a working-width array (records and work ancillas included)
would peak at hundreds of MiB here, far above each bound. Size refusals
come before any large allocation.
"""

import itertools
import math
import tracemalloc

import numpy as np
import pytest

from fermiconv import (
    CapExceeded,
    EncodedState,
    OccupationBitstring,
    Statevector,
    apply_ladder,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_quantized_to_fock,
    first_to_second,
    read_state,
    second_to_first,
    sorted_list_to_fock,
    tensor_product_merge,
    validate,
    write_state,
)
from fermiconv import circuits, cli, conversion, fci, majorana
from fermiconv.circuits import build_layout
from fermiconv.errors import BadParam
from fock_reference import random_toy_hamiltonian

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


def test_wide_determinant_never_dense():
    # 24 qubits and 24 components: a dense vector would hold 2^24 amplitudes
    # (256 MiB) at every step
    x = OccupationBitstring.from_indices(62, (3, 10, 40, 61))
    fq = encode_first_quantized_determinant(x)
    text = write_state(fq)
    for step in (
        lambda: encode_first_quantized_determinant(x),
        lambda: first_to_second(fq),
        lambda: write_state(fq),
        lambda: read_state(text),
        lambda: validate(fq),
    ):
        assert _peak_mib(step) <= 16


def test_ladder_peak():
    # 6 registers plus 3 work ancillas: a 2^21 working layout
    sl = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 6)
    assert _peak_mib(lambda: apply_ladder(sl, 2, "create")) <= 16


def test_backward_conversion_peak():
    sl = encode_sorted_list(OccupationBitstring.from_indices(6, (1, 3, 5)), 3)
    assert _peak_mib(lambda: second_to_first(sl, rng=np.random.default_rng(0))) <= 16


def test_merge_refuses_wide_inputs_without_allocating():
    # two 16-qubit inputs: a dense joint vector would hold 2^32 amplitudes;
    # the 69-qubit work layout is refused before anything that large exists
    a = encode_sorted_list(OccupationBitstring.from_indices(14, (1, 2, 3, 4)), 4)
    b = encode_sorted_list(OccupationBitstring.from_indices(14, (5, 6, 7, 8)), 4)

    def merge():
        with pytest.raises(CapExceeded):
            tensor_product_merge(a, b)

    assert _peak_mib(merge) <= 16


def test_branch_cap_refuses_before_growing(monkeypatch):
    # the seed factor runs one representative per ordering: 5! = 120 of them
    conversion._sl2fq_programs.cache_clear()
    monkeypatch.setattr(circuits, "BRANCH_CAP", 119)
    sl = encode_sorted_list(OccupationBitstring.from_indices(6, (1, 2, 4, 5, 6)), 5)
    with pytest.raises(CapExceeded, match="N! orderings: 120 components > branch cap 119"):
        second_to_first(sl)


def _sl_superposition(M, dets):
    layout = build_layout(M, len(dets[0]))
    keys = [layout.basis_index(d) for d in dets]
    amps = np.full(len(keys), 1 / np.sqrt(len(keys)))
    sv = Statevector.from_components(layout.total_qubits, keys, amps)
    return EncodedState(sv, "sorted-list", layout, len(dets[0]))


def test_backward_superposition_peak():
    # the seed stage is traced once from |0>, not once per input determinant
    sl = _sl_superposition(14, [(1, 2, 3, 4), (2, 5, 9, 13), (3, 7, 11, 14)])
    assert _peak_mib(lambda: second_to_first(sl, rng=np.random.default_rng(0))) <= 8


def test_cold_backward_call_peak():
    # filling the M=14 N=4 seed factor runs its 4! orderings, never the
    # 2^16 branches of the seed's H layer (about 6 MiB at peak when traced)
    sl = _sl_superposition(14, [(1, 2, 3, 4), (2, 5, 9, 13), (3, 7, 11, 14)])
    second_to_first(sl)  # imports and every other cache
    conversion._sl2fq_programs.cache_clear()
    tracemalloc.start()
    try:
        second_to_first(sl)
        assert tracemalloc.get_traced_memory()[1] / MIB <= 0.5
    finally:
        tracemalloc.stop()


def test_merge_refuses_large_joint_input_without_allocating():
    # two 18-qubit inputs holding all C(62,3) = 37820 determinants: their
    # joint list would hold 1.4e9 components on a 58-qubit work layout
    sl = _sl_superposition(62, list(itertools.combinations(range(1, 63), 3)))

    def merge():
        with pytest.raises(CapExceeded, match="joint input"):
            tensor_product_merge(sl, sl)

    assert _peak_mib(merge) <= 16


def test_read_state_peak():
    # all C(62,3) = 37820 determinants: 1.85 MB of text. The line-by-line
    # reader peaked at 10.0 MiB here (a regex match, a dict entry and Python
    # ints per line); the array reader keeps one string per line and small
    # arrays
    sl = _sl_superposition(62, list(itertools.combinations(range(1, 63), 3)))
    text = write_state(sl)
    assert _peak_mib(lambda: read_state(text)) <= 9


def test_merge_split_matrix_refused_past_branch_cap(monkeypatch):
    # 9 joint components whose records stay entangled: the rank-1 split
    # would span 45 (record, system) pairs
    a = _sl_superposition(6, [(1, 4), (2, 5), (3, 6)])
    b = _sl_superposition(6, [(1, 2), (3, 5), (4, 6)])
    monkeypatch.setattr(circuits, "BRANCH_CAP", 16)
    with pytest.raises(CapExceeded, match="split matrix"):
        tensor_product_merge(a, b)


def test_forward_conversion_past_dense_cap_peak():
    # 7! = 5040 components on a 28-qubit input and a 44-qubit work layout
    x = OccupationBitstring.from_indices(14, (1, 3, 4, 7, 9, 12, 14))
    fq = encode_first_quantized_determinant(x)
    assert fq.layout.total_qubits == 28 and len(fq.keys) == 5040
    assert _peak_mib(lambda: first_to_second(fq)) <= 16
    out, _ = first_to_second(fq)
    assert out.keys.tolist() == [encode_sorted_list(x, 7).keys[0]]
    assert np.allclose(np.abs(out.amps), 1)
    # and back: 7! seed orderings, where the seed's H layer would branch 2^28 ways
    assert _peak_mib(lambda: second_to_first(out)) <= 16
    back, _ = second_to_first(out)
    np.testing.assert_array_equal(back.keys, fq.keys)
    np.testing.assert_allclose(back.amps, fq.amps * out.amps[0], rtol=0, atol=1e-12)


def test_backward_refuses_many_orderings_before_building():
    # 11! = 39,916,800 orderings would hold about 3 GiB of seed keys
    occ = OccupationBitstring.from_indices(14, (1, 2, 3, 4, 5, 7, 9, 10, 12, 13, 14))
    sl = encode_sorted_list(occ, 11)

    def refuse():
        with pytest.raises(CapExceeded, match="N! orderings: 39916800 components"):
            second_to_first(sl)

    assert _peak_mib(refuse) <= 16


def test_backward_refuses_records_times_system_past_branch_cap(monkeypatch):
    # 3! record patterns times 4 determinants: 24 unsort components
    sl = _sl_superposition(6, [(1, 2, 3), (1, 2, 4), (1, 3, 5), (2, 4, 6)])
    monkeypatch.setattr(circuits, "BRANCH_CAP", 23)
    with pytest.raises(CapExceeded, match="records x system: 24 components"):
        second_to_first(sl)


def test_convert_past_dense_cap(capsys, tmp_path):
    # M=62 N=5: a 30-qubit input and a 39-qubit work layout, verified on
    # occupation masks both ways; the seed's H layer alone would branch
    # to 2^30 components
    fq, sl = tmp_path / "fq.txt", tmp_path / "sl.txt"
    assert cli.main(["encode", "--M", "62", "--occ", "2,17,30,44,61", "--out", str(fq)]) == 0
    argv = ["convert", "--dir", "fq2sl", "--in", str(fq), "--out", str(sl), "--verify"]
    assert _peak_mib(lambda: cli.main(argv)) <= 16
    assert capsys.readouterr().out.splitlines()[-1] == "fidelity 1.000000"
    assert cli.main(argv) == 0
    back = ["convert", "--dir", "sl2fq", "--in", str(sl), "--verify"]
    assert _peak_mib(lambda: cli.main(back)) <= 16
    capsys.readouterr()
    assert cli.main(back) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "fidelity 1.000000"


def test_forward_record_state_past_dense_cap():
    # 28 and 32 record ancillas: a dense record state would hold 2^28 or 2^32
    # amplitudes; its component list holds one per ordering
    for M, occ, extra, T in ((6, (1, 2, 3), 6, 28), (2, (1,), 9, 32)):
        x = OccupationBitstring.from_indices(M, occ)
        fq = encode_first_quantized_determinant(x)
        assert _peak_mib(lambda: first_to_second(fq, extra_registers=extra)) <= 16
        out, rep = first_to_second(fq, extra_registers=extra)
        want = encode_sorted_list(x, len(occ) + extra)
        assert out.keys.tolist() == want.keys.tolist()
        np.testing.assert_allclose(out.amps, want.amps, atol=1e-12)
        assert rep.record_ancillas == T
        assert len(rep.record_state[0]) == math.factorial(len(occ))


def test_determinant_encoder_peak():
    # 8! = 40320 orderings: keys, signs and amplitudes hold about 1.5 MiB;
    # every permutation as a tuple and an N x N inversion table took 8 MiB
    x = OccupationBitstring.from_indices(16, range(1, 9))
    assert _peak_mib(lambda: encode_first_quantized_determinant(x)) <= 6


def test_fock_bridges_refuse_wide_orbital_spaces_without_allocating():
    # M=40 registers fit 12 qubits, but the Fock vector would hold 2^40 amplitudes
    occ = OccupationBitstring.from_indices(40, (3, 17))
    sl = encode_sorted_list(occ, 2)
    fq = encode_first_quantized_determinant(occ)
    for bridge, enc in ((sorted_list_to_fock, sl), (first_quantized_to_fock, fq)):

        def to_fock():
            with pytest.raises(CapExceeded, match="40 qubits"):
                bridge(enc)

        assert _peak_mib(to_fock) <= 16


def test_convert_verify_never_dense(capsys, tmp_path):
    # M=24 N=2: checking on dense Fock vectors would hold two 2^24 amplitude
    # vectors (512 MiB); the occupation-mask lists hold two entries each
    sl, fq = tmp_path / "sl.txt", tmp_path / "fq.txt"
    assert cli.main(["encode", "--sl", "--M", "24", "--occ", "3,17", "--nreg", "2",
                     "--out", str(sl)]) == 0
    assert cli.main(["encode", "--M", "24", "--occ", "3,17", "--out", str(fq)]) == 0
    for direction, path in (("sl2fq", sl), ("fq2sl", fq)):
        argv = ["convert", "--dir", direction, "--in", str(path), "--verify"]
        assert _peak_mib(lambda: cli.main(argv)) <= 16
        assert cli.main(argv) == 0
        assert capsys.readouterr().out.splitlines()[-1] == "fidelity 1.000000"


def test_compiled_ladder_programs_stay_compact():
    # the cache keeps masks, not Circuit objects: the 16 Majorana circuits at
    # this size hold about 0.9 MiB, their compiled programs about 0.13 MiB
    lay = build_layout(8, 4, majorana.N_WORK_ANCILLAS)
    majorana._majorana_program(lay, 1)  # warm: imports and lazy tables
    majorana._majorana_program.cache_clear()
    tracemalloc.start()
    try:
        for mu in range(1, 17):
            majorana._majorana_program(lay, mu)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert held / MIB <= 0.25
    assert peak / MIB <= 1


def test_program_caches_are_bounded():
    for cached in (
        majorana._majorana_program,
        conversion._fq2sl_program,
        conversion._sl2fq_programs,
        conversion._merge_program,
    ):
        maxsize = cached.cache_parameters()["maxsize"]
        assert maxsize is not None and maxsize <= 64


def test_dense_hamiltonian_build_peak():
    # the 256x256 complex H, its real and imaginary halves and one gathered
    # weight array hold about 2.3 MiB, the cold call's term table 0.7 MiB
    # more; one broadcast over all M^4 two-body terms would add arrays of 1M
    # entries
    space = fci.FockSpace(8)
    H = random_toy_hamiltonian(np.random.default_rng(0), 8)
    fci._hamiltonian_terms.cache_clear()
    tracemalloc.start()
    try:
        H.dense_matrix(space)
        assert tracemalloc.get_traced_memory()[1] / MIB <= 3.5
    finally:
        tracemalloc.stop()
    assert sum(part.nbytes for part in fci._hamiltonian_terms(8)) / MIB <= 0.75
    assert _peak_mib(lambda: H.dense_matrix(space)) <= 3.5


def test_rotation_peak():
    # the full M=10 N=5 sector: a chunk of DET_STACK_CAP // (C(10,1) + ...
    # + C(10,5)) = 12 sources builds their minors level by level, at most
    # 252 x 12 entries a level (0.22 MiB peak in all); all 252 sources in one
    # chunk would peak at 3.8 MiB
    rng = np.random.default_rng(1)
    space = fci.FockSpace(10)
    U, _ = np.linalg.qr(rng.standard_normal((10, 10)) + 1j * rng.standard_normal((10, 10)))
    psi = np.zeros(space.dim, dtype=complex)
    idx = space.sector_indices(5)
    psi[idx] = rng.standard_normal(len(idx))
    psi /= np.linalg.norm(psi)
    assert _peak_mib(lambda: fci.rotate_determinants(psi, U, space)) <= 0.5


def test_k_rdm_tensor_refuses_past_entry_cap_without_allocating():
    # at k=4, M=12 the tensor alone would hold 12^8 complex entries (6.9 GB)
    space = fci.FockSpace(12)
    psi = fci.creation_string(space, ())

    def refuse():
        for k in (3, 4):
            with pytest.raises(CapExceeded, match=f"{k}-RDM at M=12"):
                fci.k_rdm_tensor(psi, k, space)
        # the CLI's largest request passes the cap and reaches the next check
        with pytest.raises(BadParam, match="normalized"):
            fci.k_rdm_tensor(2 * psi, 2, space)

    assert _peak_mib(refuse) <= 0.5


def test_k_rdm_tensor_peak():
    # every mask occupied: the annihilation batch tests M^2 x 2^M = 102,400
    # entries once (0.8 MiB of int64) and keeps the 23,040 a_r a_s allows;
    # each creation pair then reads only those, where one kernel call per
    # (p1, p2) over every mask held about 4.3 MiB
    rng = np.random.default_rng(2)
    psi = rng.standard_normal(1 << 10) + 1j * rng.standard_normal(1 << 10)
    psi /= np.linalg.norm(psi)
    assert _peak_mib(lambda: fci.k_rdm_tensor(psi, 2, fci.FockSpace(10))) < 3


def test_rotation_peak_every_sector():
    # every M=8 sector occupied: a chunk takes DET_STACK_CAP // (C(8,1) +
    # ... + C(8,N)) sources, so its minors hold at most 8192 entries (128 KiB;
    # 0.22 MiB peak in all, at the N=4 sector's 50-source chunk, close to the
    # bound). One chunk per sector would take all 70 N=4 sources (0.31 MiB)
    rng = np.random.default_rng(4)
    space = fci.FockSpace(8)
    U, _ = np.linalg.qr(rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8)))
    psi = rng.standard_normal(space.dim) + 1j * rng.standard_normal(space.dim)
    psi /= np.linalg.norm(psi)
    assert _peak_mib(lambda: fci.rotate_determinants(psi, U, space)) <= 0.25


def test_rotation_peak_at_fock_cap():
    # the full M=12 N=6 sector at the oracle's cap: chunks of DET_STACK_CAP //
    # (C(12,1) + ... + C(12,6)) = 3 sources hold at most 924 x 3 minors a
    # level (0.30 MiB peak in all, the 4,096-amplitude vectors included),
    # where one stacked det call per target set held 924 matrices of 6x6
    # (0.67 MiB)
    rng = np.random.default_rng(12)
    space = fci.FockSpace(12)
    U, _ = np.linalg.qr(rng.standard_normal((12, 12)) + 1j * rng.standard_normal((12, 12)))
    psi = np.zeros(space.dim, dtype=complex)
    idx = space.sector_indices(6)
    psi[idx] = rng.standard_normal(len(idx))
    psi /= np.linalg.norm(psi)
    assert _peak_mib(lambda: fci.rotate_determinants(psi, U, space)) <= 0.5


def test_k_rdm_string_table_holds_its_budget(monkeypatch):
    # 4,356 M=12 2-body strings keep about 256 entries each, more than the
    # table's KEPT_CAP: it fills to its budget of 32 B an entry (8 MiB),
    # then computes the remaining strings without storing them
    space = fci.FockSpace(12)
    psi = fci.creation_string(space, ())
    fci.k_rdm(psi, (1,), (1,), space)  # warm: the mask and parity tables
    monkeypatch.setattr(fci, "_kept", fci._StringTable())
    pairs = list(itertools.combinations(range(1, 13), 2))
    tracemalloc.start()
    try:
        for ps, qs in itertools.product(pairs, repeat=2):
            fci.k_rdm(psi, ps, qs, space)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert fci.KEPT_CAP - fci._kept.held < 512 and len(fci._kept) < len(pairs) ** 2
    assert held <= 32 * fci.KEPT_CAP
