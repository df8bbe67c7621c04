"""Compiled programs: both loops of the interpreter, and the builder caches."""

import dataclasses
import math

import numpy as np
import pytest

from fermiconv import (
    SORTED_LIST,
    EncodedState,
    GateCount,
    OccupationBitstring,
    apply_ladder,
    build_layout,
    count_gates,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    second_to_first,
    tensor_product_merge,
    write_state,
)
from fermiconv import conversion
from fermiconv.circuits import Circuit, Program, compile_circuit, sparse_action, x
from fermiconv.conversion import (
    _fq2sl_circuit,
    _fq2sl_program,
    _merge_circuit,
    _merge_program,
    _rank_one_split,
    _sl2fq_circuits,
    _sl2fq_programs,
)
from fermiconv.errors import EntangledAncilla
from fermiconv.majorana import N_WORK_ANCILLAS, _majorana_program, majorana_circuit

from loops import run_both_loops

LADDER_LAYOUTS = ((4, 6), (6, 4), (8, 4))


@pytest.mark.parametrize("M,n_reg", LADDER_LAYOUTS)
def test_majorana_programs_agree_on_both_loops(M, n_reg):
    lay = build_layout(M, n_reg, N_WORK_ANCILLAS)
    rng = np.random.default_rng(M)
    reg_bits = n_reg * lay.b
    for mu in range(1, 2 * M + 1):
        prog = compile_circuit(majorana_circuit(lay, mu)[0])
        for k in (1, 4, 64):
            keys = rng.choice(1 << reg_bits, size=k, replace=False)
            amps = rng.normal(size=k) + 1j * rng.normal(size=k)
            (ni, na), (si, sa) = run_both_loops(prog, keys, amps)
            np.testing.assert_array_equal(si, ni)
            assert sa.tobytes() == na.tobytes()


def test_program_runs_like_its_circuit():
    circ = _merge_circuit(6, 4)
    lay = circ.layout
    keys = np.array([lay.basis_index((1, 4, 2, 5)), lay.basis_index((3, 7, 1, 7))])
    amps = np.array([0.6, 0.8j])
    for (pi, pa), (ci, ca) in zip(
        run_both_loops(compile_circuit(circ), keys, amps), run_both_loops(circ, keys, amps)
    ):
        np.testing.assert_array_equal(pi, ci)
        np.testing.assert_array_equal(pa, ca)


def test_cached_program_is_frozen():
    prog = _majorana_program(build_layout(4, 2, N_WORK_ANCILLAS), 3)
    (_, rec_keys, rec), unsort, _ = _sl2fq_programs(6, 3)
    for p in (prog, unsort):
        assert isinstance(p, Program)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n_qubits = 0
        assert not p.gates.flags.writeable
        for _, _, _, mat in p.branches:
            assert not mat.flags.writeable
    with pytest.raises(ValueError):
        prog.gates[0, 1] = 0
    # the seed stage is cached as its record factor, one entry per ordering
    assert len(rec_keys) == len(rec) == 6
    for arr in (rec_keys, rec):
        assert not arr.flags.writeable
        with pytest.raises(ValueError):
            arr[0] = 0


def test_mutating_a_built_circuit_leaves_ladders_alone():
    sl = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 3)
    before = apply_ladder(sl, 2, "create").state.amps.copy()
    work = build_layout(4, 3, N_WORK_ANCILLAS)
    for mu in (3, 4):  # the two Majorana branches of orbital 2
        majorana_circuit(work, mu)[0].gates.clear()
    after = apply_ladder(sl, 2, "create").state.amps
    assert after.tobytes() == before.tobytes()


@pytest.mark.parametrize("M,N,n_out", [(4, 2, 2), (6, 3, 4), (14, 4, 4)])
def test_cached_fq2sl_count_is_the_circuit_count(M, N, n_out):
    assert _fq2sl_program(M, N, n_out)[1] == count_gates(_fq2sl_circuit(M, N, n_out))


@pytest.mark.parametrize("M,N", [(4, 2), (6, 3), (14, 4)])
def test_cached_sl2fq_count_is_the_circuit_count(M, N):
    fresh = sum(map(count_gates, _sl2fq_circuits(M, N)), GateCount())
    assert _sl2fq_programs(M, N)[2] == fresh


@pytest.mark.parametrize("M,N", [(4, 2), (6, 3), (14, 4)])
def test_cached_seed_factor_is_a_fresh_trace(M, N):
    # the reference traces the whole seed stage, H layer included, from |0>
    seed_stage, unsort = _sl2fq_circuits(M, N)
    sys_bits = N * unsort.layout.b
    oi, oa = sparse_action(seed_stage, np.zeros(1, np.int64), np.ones(1, complex))
    keep = (oi >> np.int64(sys_bits + unsort.layout.n_anc)) == 0
    _, _, keys, rec = _rank_one_split(
        oi[keep] & np.int64((1 << sys_bits) - 1), oi[keep] >> np.int64(sys_bits), oa[keep]
    )
    p_cached, keys_cached, rec_cached = _sl2fq_programs(M, N)[0]
    # the trace's float sum of |amplitude|^2 rounds; its branch count does not
    assert p_cached == np.count_nonzero(keep) / (1 << sys_bits)
    np.testing.assert_array_equal(keys_cached, keys)
    np.testing.assert_allclose(rec_cached, rec, rtol=0, atol=1e-15)
    assert len(keys) == math.factorial(N)


def test_seed_factor_refuses_an_unsorted_seed(monkeypatch):
    # one extra X after fq2sl's sort moves a sorted value on every ordering:
    # the factor no longer splits off
    build = conversion._fq2sl_circuit

    def spoiled(M, N, n_out):
        circ = build(M, N, n_out)
        return Circuit(circ.layout, circ.gates + [x(0)])

    monkeypatch.setattr(conversion, "_fq2sl_circuit", spoiled)
    _fq2sl_program.cache_clear()
    _sl2fq_programs.cache_clear()
    try:
        with pytest.raises(EntangledAncilla, match="seed records"):
            _sl2fq_programs(6, 3)
    finally:
        _fq2sl_program.cache_clear()
        _sl2fq_programs.cache_clear()


@pytest.mark.parametrize("amps, refusal", [
    ([1, 0, 0, 1], "does not factorize"),  # a Bell pair: rank two
    ([0, 0, 0, 0], "zero state"),
])
def test_rank_one_split_refuses_what_it_cannot_split(amps, refusal):
    rows, cols = np.array([0, 0, 1, 1]), np.array([0, 1, 0, 1])
    with pytest.raises(EntangledAncilla, match=refusal):
        _rank_one_split(rows, cols, np.array(amps, dtype=complex) / math.sqrt(2))


# the convert benchmark's sl2fq sizes (M, N, registers)
CONVERT_SL2FQ = ((6, 2, 2), (6, 2, 4), (6, 3, 3), (6, 3, 4), (14, 2, 2), (14, 2, 3))


@pytest.mark.parametrize("M,N,n_reg", CONVERT_SL2FQ)
def test_warm_sl2fq_matches_cold(M, N, n_reg):
    dets = [(1, 2, 5)[:N], (2, 4, 6)[:N], (M - 2, M - 1, M)[:N]]
    lay = build_layout(M, n_reg)
    keys = [lay.basis_index(d + (lay.sentinel,) * (n_reg - N)) for d in dets]
    amps = np.array([0.6, -0.48j, 0.64])
    sl = EncodedState.from_components(keys, amps, SORTED_LIST, lay, N)
    for seed in range(5):
        runs = []
        for warm in (False, True):
            if not warm:
                _sl2fq_programs.cache_clear()
            out, rep = second_to_first(sl, rng=np.random.default_rng(seed))
            runs.append((write_state(out), rep.success_probability, rep.attempts, rep.gate_count))
        assert runs[0] == runs[1]


@pytest.mark.parametrize("M,n_out", [(4, 2), (6, 4), (6, 5)])
def test_cached_merge_count_is_the_circuit_count(M, n_out):
    assert _merge_program(M, n_out)[1] == count_gates(_merge_circuit(M, n_out))


def test_reports_carry_the_count_of_the_program_that_ran():
    occ = OccupationBitstring.from_indices(6, (1, 3, 5))
    _, rep = first_to_second(encode_first_quantized_determinant(occ), extra_registers=1)
    assert rep.gate_count == _fq2sl_program(6, 3, 4)[1]
    _, rep = second_to_first(encode_sorted_list(occ, 3), rng=np.random.default_rng(0))
    assert rep.gate_count == _sl2fq_programs(6, 3)[2]
    a = encode_sorted_list(OccupationBitstring.from_indices(6, (2,)), 2)
    res = tensor_product_merge(a, encode_sorted_list(occ, 3))
    assert res.gate_count == _merge_program(6, 5)[1]

