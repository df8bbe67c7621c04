"""Compiled programs: both loops of the interpreter, and the builder caches."""

import dataclasses

import numpy as np
import pytest

from fermiconv import (
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
)
from fermiconv.circuits import Program, compile_circuit
from fermiconv.conversion import (
    _fq2sl_circuit,
    _fq2sl_program,
    _merge_circuit,
    _merge_program,
    _sl2fq_circuits,
    _sl2fq_programs,
)
from fermiconv.majorana import N_WORK_ANCILLAS, _majorana_program, majorana_circuit

from loops import run_both_loops

LADDER_LAYOUTS = ((4, 6), (6, 4), (8, 4))


@pytest.mark.parametrize("M,n_reg", LADDER_LAYOUTS)
def test_majorana_programs_agree_on_both_loops(M, n_reg):
    lay = build_layout(M, n_reg, N_WORK_ANCILLAS)
    rng = np.random.default_rng(M)
    reg_bits = n_reg * lay.b
    for mu in range(1, 2 * M + 1):
        prog = compile_circuit(majorana_circuit(lay, mu).circuit)
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
    seed, unsort, _ = _sl2fq_programs(6, 3)
    for p in (prog, seed, unsort):
        assert isinstance(p, Program)
        with pytest.raises(dataclasses.FrozenInstanceError):
            p.n_qubits = 0
        assert not p.gates.flags.writeable
        for _, _, _, mat in p.branches:
            assert not mat.flags.writeable
    with pytest.raises(ValueError):
        prog.gates[0, 1] = 0
    assert seed.branches  # the seed's H layer


def test_mutating_a_built_circuit_leaves_ladders_alone():
    sl = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 3)
    before = apply_ladder(sl, 2, "create").state.amps.copy()
    work = build_layout(4, 3, N_WORK_ANCILLAS)
    for mu in (3, 4):  # the two Majorana branches of orbital 2
        majorana_circuit(work, mu).circuit.gates.clear()
    after = apply_ladder(sl, 2, "create").state.amps
    assert after.tobytes() == before.tobytes()


@pytest.mark.parametrize("M,N,n_out", [(4, 2, 2), (6, 3, 4), (14, 4, 4)])
def test_cached_fq2sl_count_is_the_circuit_count(M, N, n_out):
    assert _fq2sl_program(M, N, n_out)[1] == count_gates(_fq2sl_circuit(M, N, n_out))


@pytest.mark.parametrize("M,N", [(4, 2), (6, 3), (14, 4)])
def test_cached_sl2fq_count_is_the_circuit_count(M, N):
    fresh = sum(map(count_gates, _sl2fq_circuits(M, N)), GateCount())
    assert _sl2fq_programs(M, N)[2] == fresh


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

