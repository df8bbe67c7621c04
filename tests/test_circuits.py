"""Circuit core: layouts, gate application, counting, tracing, serialization."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiconv import (
    CapExceeded,
    Circuit,
    GateCount,
    Statevector,
    apply_circuit,
    basis_action,
    build_layout,
    count_gates,
    parse_circuit,
    serialize_circuit,
)
from fermiconv.circuits import (
    cnot,
    compile_circuit,
    cswap,
    cz,
    h,
    mcx,
    phase,
    regu,
    sparse_action,
    toffoli,
    u2,
    x,
    z,
)
from fermiconv.errors import BadParam, DimMismatch, NotPermutation

from dense_reference import apply_dense
from loops import run_both_loops


def test_layout_examples():
    lay = build_layout(4, 3, 2)
    assert lay.b == 3
    assert lay.total_qubits == 11
    assert lay.sentinel == 7
    lay = build_layout(2, 1, 0)
    assert lay.b == 2
    assert lay.total_qubits == 2


def test_layout_cap():
    # layouts carry no cap; a dense state on one past 26 qubits is refused
    lay = build_layout(64, 4, 3)
    assert lay.total_qubits == 31
    with pytest.raises(CapExceeded):
        Statevector.zero(lay)
    with pytest.raises(CapExceeded):
        Statevector.from_components(lay.total_qubits, [0], [1.0])


def test_layout_bad_params():
    with pytest.raises(BadParam):
        build_layout(1, 2, 0)
    with pytest.raises(BadParam):
        build_layout(4, 0, 0)


def test_layout_register_placement():
    lay = build_layout(4, 3, 2)
    assert list(lay.register_qubits(0)) == [0, 1, 2]
    assert list(lay.register_qubits(2)) == [6, 7, 8]
    assert lay.anc_qubit(0) == 9
    assert lay.anc_qubit(1) == 10
    idx = lay.basis_index((1, 3, 7), anc=2)
    assert lay.values(idx) == (1, 3, 7)
    assert lay.reg_value(idx, 1) == 3
    assert lay.with_reg(idx, 1, 5) == lay.basis_index((1, 5, 7), anc=2)


def test_apply_x_on_zero():
    lay = build_layout(2, 1, 1)
    out = apply_circuit(Statevector.zero(lay), Circuit(lay, [x(0)]))
    expect = np.zeros(8, dtype=complex)
    expect[1] = 1.0
    np.testing.assert_allclose(out.amps, expect)


def test_apply_empty_circuit():
    lay = build_layout(2, 2, 0)
    rng = np.random.default_rng(3)
    amps = rng.standard_normal(16) + 1j * rng.standard_normal(16)
    state = Statevector(amps / np.linalg.norm(amps))
    out = apply_circuit(state, Circuit(lay))
    np.testing.assert_allclose(out.amps, state.amps)


def test_apply_h_twice_is_identity():
    lay = build_layout(2, 1, 0)
    state = Statevector.basis(lay, 2)
    out = apply_circuit(state, Circuit(lay, [h(1), h(1)]))
    np.testing.assert_allclose(out.amps, state.amps, atol=1e-12)


def test_apply_dim_mismatch():
    lay = build_layout(2, 1, 0)
    with pytest.raises(DimMismatch):
        apply_circuit(Statevector(np.ones(8) / np.sqrt(8)), Circuit(lay))


def test_count_conventions():
    lay = build_layout(4, 2, 2)
    gc = count_gates(Circuit(lay, [cnot(0, 1), cnot(2, 3), cnot(4, 5)]))
    assert gc == GateCount(0, 3, 0, 0)
    gc = count_gates(Circuit(lay, [mcx([0, 1, 2, 3], 6)]))
    assert gc.toffoli_equiv == 3
    gc = count_gates(Circuit(lay, [cswap(6, 0, 3)]))
    assert gc == GateCount(1, 2, 0, 0)
    gc = count_gates(Circuit(lay, [toffoli(0, 1, 2), cz(0, 1), z(5), h(4)]))
    assert gc == GateCount(1, 1, 2, 0)
    # a register unitary books its dense dimension squared, no primitives
    gc = count_gates(Circuit(lay, [regu(np.eye(8), (0, 1, 2))]))
    assert gc == GateCount(0, 0, 0, 64)
    assert gc.total == 0


def test_count_additivity():
    lay = build_layout(4, 2, 2)
    a = Circuit(lay, [x(0), cswap(6, 0, 3), mcx([0, 1, 2], 7)])
    b = Circuit(lay, [cnot(1, 2), z(4), toffoli(0, 1, 5)])
    assert count_gates(a + b) == count_gates(a) + count_gates(b)


def test_mcx_normalizes_small_fanin():
    assert mcx([], 3).kind == "X"
    assert mcx([2], 3).kind == "CNOT"
    assert mcx([1, 2], 3).kind == "TOFFOLI"
    assert mcx([0, 1, 2], 3).kind == "MCX"


N_RAND = 7  # qubits for the random-circuit properties


def _random_unitary(draw, d):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    q, r = np.linalg.qr(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def _random_gate(draw, n):
    kind = draw(st.sampled_from(
        ["X", "Z", "H", "PHASE", "CNOT", "CZ", "TOFFOLI", "CSWAP", "MCX", "U2", "REGU"]
    ))
    if kind == "REGU":
        w = draw(st.integers(1, 3))
        lo = draw(st.integers(0, n - w))
        return regu(_random_unitary(draw, 1 << w), tuple(range(lo, lo + w)))
    need = {"X": 1, "Z": 1, "H": 1, "PHASE": 1, "CNOT": 2, "CZ": 2,
            "TOFFOLI": 3, "CSWAP": 3, "MCX": 4, "U2": 1}[kind]
    qs = draw(st.lists(st.integers(0, n - 1), unique=True,
                       min_size=need, max_size=need))
    if kind == "X":
        return x(qs[0])
    if kind == "Z":
        return z(qs[0])
    if kind == "H":
        return h(qs[0])
    if kind == "PHASE":
        return phase(draw(st.floats(-3.0, 3.0)), qs[0])
    if kind == "CNOT":
        return cnot(qs[0], qs[1])
    if kind == "CZ":
        return cz(qs[0], qs[1])
    if kind == "TOFFOLI":
        return toffoli(qs[0], qs[1], qs[2])
    if kind == "CSWAP":
        return cswap(qs[0], qs[1], qs[2])
    if kind == "U2":
        return u2(_random_unitary(draw, 2), qs[0])
    return mcx(qs[:3], qs[3])


@st.composite
def random_circuits(draw):
    lay = build_layout(2, 1, N_RAND - 2)
    gates = [_random_gate(draw, N_RAND)
             for _ in range(draw(st.integers(0, 30)))]
    return Circuit(lay, gates)


@st.composite
def random_states(draw):
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    amps = rng.standard_normal(1 << N_RAND) + 1j * rng.standard_normal(1 << N_RAND)
    return Statevector(amps / np.linalg.norm(amps))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circ=random_circuits(), state=random_states())
def test_unitarity(circ, state):
    out = apply_circuit(state, circ)
    assert abs(out.norm() - 1.0) < 1e-10
    np.testing.assert_allclose(out.amps, apply_dense(state, circ).amps, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circ=random_circuits(), state=random_states())
def test_reversibility(circ, state):
    fwd = apply_circuit(state, circ)
    back = apply_circuit(fwd, circ.inverse())
    assert np.linalg.norm(back.amps - state.amps) < 1e-10
    np.testing.assert_allclose(
        back.amps, apply_dense(fwd, circ.inverse()).amps, atol=1e-10
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circ=random_circuits(), index=st.integers(0, (1 << N_RAND) - 1))
def test_tracers_match_dense(circ, index):
    lay = circ.layout
    dense = apply_dense(Statevector.basis(lay, index), circ)
    oi, oa = sparse_action(circ, np.array([index]), np.array([1.0 + 0.0j]))
    rebuilt = np.zeros_like(dense.amps)
    rebuilt[oi] = oa
    np.testing.assert_allclose(rebuilt, dense.amps, atol=1e-10)
    if not any(g.kind in ("H", "U2", "REGU") for g in circ.gates):
        out, ph = basis_action(circ, index)
        assert len(oi) == 1 and oi[0] == out
        assert abs(oa[0] - ph) < 1e-12


@settings(max_examples=80, deadline=None, derandomize=True)
@given(circ=random_circuits(), state=random_states(), k=st.sampled_from([1, 4, 64, 128]))
def test_scalar_and_numpy_loops_agree(circ, state, k):
    keys = np.random.default_rng(k).permutation(1 << N_RAND)[:k]
    (ni, na), (si, sa) = run_both_loops(compile_circuit(circ), keys, state.amps[keys])
    if any(g.kind == "PHASE" for g in circ.gates):
        # CPython and numpy round a complex product differently in the last bit
        dense = [np.zeros(1 << N_RAND, dtype=complex) for _ in range(2)]
        dense[0][ni], dense[1][si] = na, sa
        np.testing.assert_allclose(dense[1], dense[0], rtol=0, atol=1e-15)
    else:
        np.testing.assert_array_equal(si, ni)
        assert sa.tobytes() == na.tobytes()


def test_basis_action_rejects_branching():
    lay = build_layout(2, 1, 0)
    for g in (h(0), u2(np.eye(2), 0), regu(np.eye(4), (0, 1))):
        with pytest.raises(NotPermutation):
            basis_action(Circuit(lay, [x(1), g]), 0)


def test_tracers_refuse_packed_index_overflow():
    # 22 registers of 3 bits: 66 qubits, past what an int64 index can hold
    lay = build_layout(6, 22, 0)
    assert lay.total_qubits == 66
    for circ in (Circuit(lay, [x(64)]), Circuit(lay, [cnot(64, 0)])):
        with pytest.raises(CapExceeded):
            sparse_action(circ, np.array([0]), np.array([1.0 + 0j]))
        with pytest.raises(CapExceeded):
            basis_action(circ, 0)
    # 62 qubits still fit
    lay = build_layout(6, 20, 2)
    out, ph = basis_action(Circuit(lay, [x(61), cnot(61, 0)]), 0)
    assert out == (1 << 61) | 1 and ph == 1


def test_sparse_action_merges_h_branches():
    # H then H: the two branches of the first H recombine exactly
    lay = build_layout(2, 1, 0)
    circ = Circuit(lay, [h(1), h(1)])
    oi, oa = sparse_action(circ, np.array([2]), np.array([1.0 + 0j]))
    keep = np.abs(oa) > 0
    assert list(oi[keep]) == [2]
    np.testing.assert_allclose(oa[keep], [1.0], atol=1e-12)
    # a key listed twice carries the sum of its amplitudes
    oi, oa = sparse_action(Circuit(lay, [h(0)]), np.array([0, 0]), np.array([0.5, 0.5]))
    assert list(oi) == [0, 1]
    np.testing.assert_allclose(oa, [1 / math.sqrt(2)] * 2, atol=1e-12)


def test_serialization_round_trip():
    lay = build_layout(4, 2, 3)
    rng = np.random.default_rng(11)
    mat = np.linalg.qr(rng.standard_normal((2, 2))
                       + 1j * rng.standard_normal((2, 2)))[0]
    circ = Circuit(lay, [
        x(0), z(3), h(5), phase(0.75, 2), cnot(1, 4), cz(2, 5),
        toffoli(0, 1, 6), mcx([0, 2, 4], 7), cswap(6, 0, 3),
        u2(mat, 5), regu(np.kron(mat, mat.T), (3, 4)),
    ])
    text = serialize_circuit(circ)
    back = parse_circuit(text)
    assert serialize_circuit(back) == text
    assert back.layout.M == 4 and back.layout.n_reg == 2 and back.layout.n_anc == 3
    state = Statevector(np.exp(2j * np.pi * rng.random(1 << 9)) / math.sqrt(1 << 9))
    np.testing.assert_allclose(
        apply_circuit(state, back).amps, apply_dense(state, circ).amps,
        atol=1e-12,
    )


def test_inverse_reverses_and_conjugates():
    lay = build_layout(2, 1, 1)
    circ = Circuit(lay, [phase(0.5, 0), x(1)])
    inv = circ.inverse()
    assert [g.kind for g in inv.gates] == ["X", "PHASE"]
    assert inv.gates[1].params[0] == -0.5
