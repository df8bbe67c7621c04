"""Circuit core: layouts, gate application, counting, tracing, serialization."""

import math
import pickle

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
from fermiconv.errors import BadParam, DimMismatch

from dense_reference import apply_dense, inverse
from loops import basis_image, run_both_loops
from validate_reference import with_reg


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
    with pytest.raises(CapExceeded, match="31 qubits > dense cap 26"):
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
    assert with_reg(lay, idx, 1, 5) == lay.basis_index((1, 5, 7), anc=2)


def test_apply_x_on_zero():
    lay = build_layout(2, 1, 1)
    out = apply_circuit(Statevector.from_components(3, [0], [1.0]), Circuit(lay, [x(0)]))
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
    state = Statevector.from_components(2, [2], [1.0])
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
    assert count_gates(Circuit(lay, a.gates + b.gates)) == count_gates(a) + count_gates(b)


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
    assert abs(np.linalg.norm(out.amps) - 1.0) < 1e-10
    np.testing.assert_allclose(out.amps, apply_dense(state, circ).amps, atol=1e-10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circ=random_circuits(), state=random_states())
def test_reversibility(circ, state):
    fwd = apply_circuit(state, circ)
    back = apply_circuit(fwd, inverse(circ))
    assert np.linalg.norm(back.amps - state.amps) < 1e-10
    np.testing.assert_allclose(
        back.amps, apply_dense(fwd, inverse(circ)).amps, atol=1e-10
    )


@settings(max_examples=60, deadline=None, derandomize=True)
@given(circ=random_circuits(), index=st.integers(0, (1 << N_RAND) - 1))
def test_tracers_match_dense(circ, index):
    lay = circ.layout
    dense = apply_dense(Statevector.from_components(lay.total_qubits, [index], [1.0]), circ)
    oi, oa = sparse_action(circ, np.array([index]), np.array([1.0 + 0.0j]))
    rebuilt = np.zeros_like(dense.amps)
    rebuilt[oi] = oa
    np.testing.assert_allclose(rebuilt, dense.amps, atol=1e-10)


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


def test_tracers_refuse_packed_index_overflow():
    # 22 registers of 3 bits: 66 qubits, past what an int64 index can hold
    lay = build_layout(6, 22, 0)
    assert lay.total_qubits == 66
    for circ in (Circuit(lay, [x(64)]), Circuit(lay, [cnot(64, 0)])):
        with pytest.raises(CapExceeded):
            sparse_action(circ, np.array([0]), np.array([1.0 + 0j]))
    # 62 qubits still fit
    lay = build_layout(6, 20, 2)
    out, ph = basis_image(Circuit(lay, [x(61), cnot(61, 0)]), 0)
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
    assert [g.kind for g in back.gates] == [g.kind for g in circ.gates]
    for g, b in zip(circ.gates[-2:], back.gates[-2:]):
        np.testing.assert_array_equal(b.params, g.params)
        assert b.params.tobytes() == g.params.tobytes()  # signed zeros too
    assert back.layout.M == 4 and back.layout.n_reg == 2 and back.layout.n_anc == 3
    state = Statevector(np.exp(2j * np.pi * rng.random(1 << 9)) / math.sqrt(1 << 9))
    np.testing.assert_allclose(
        apply_circuit(state, back).amps, apply_dense(state, circ).amps,
        atol=1e-12,
    )


def test_inverse_reverses_and_conjugates():
    lay = build_layout(2, 1, 1)
    circ = Circuit(lay, [phase(0.5, 0), x(1)])
    inv = inverse(circ)
    assert [g.kind for g in inv.gates] == ["X", "PHASE"]
    assert inv.gates[1].params[0] == -0.5


# Written by serialize_circuit before U2 and REGU held their matrices; the
# text format must not move.
_PINNED_MATRIX_TEXT = """\
LAYOUT M=2 NREG=1 B=2 NANC=1
U2 controls=[] targets=[2] params=[0.6,0.0,0.0,0.8,0.0,0.8,0.6,0.0]
REGU controls=[] targets=[0,1] params=[0.0,0.0,1.0,0.0,0.0,0.0,0.0,0.0,\
0.0,0.0,0.0,0.0,0.0,1.0,0.0,0.0,-1.0,0.0,0.0,0.0,0.0,0.0,0.0,0.0,\
0.0,0.0,0.0,0.0,0.0,0.0,1.0,0.0]
"""
_PINNED_MATRIX_INVERSE_TEXT = """\
LAYOUT M=2 NREG=1 B=2 NANC=1
REGU controls=[] targets=[0,1] params=[0.0,-0.0,0.0,-0.0,-1.0,-0.0,0.0,-0.0,\
1.0,-0.0,0.0,-0.0,0.0,-0.0,0.0,-0.0,0.0,-0.0,0.0,-1.0,0.0,-0.0,0.0,-0.0,\
0.0,-0.0,0.0,-0.0,0.0,-0.0,1.0,-0.0]
U2 controls=[] targets=[2] params=[0.6,-0.0,0.0,-0.8,0.0,-0.8,0.6,-0.0]
"""


def _matrix_circuit():
    a = np.array([[0.6, 0.8j], [0.8j, 0.6]])
    b = np.array([[0, 1, 0, 0], [0, 0, 1j, 0], [-1, 0, 0, 0], [0, 0, 0, 1]])
    return Circuit(build_layout(2, 1, 1), [u2(a, 2), regu(b, (0, 1))])


def test_matrix_gate_text_is_pinned():
    circ = _matrix_circuit()
    assert serialize_circuit(circ) == _PINNED_MATRIX_TEXT
    assert serialize_circuit(inverse(circ)) == _PINNED_MATRIX_INVERSE_TEXT
    assert serialize_circuit(parse_circuit(_PINNED_MATRIX_INVERSE_TEXT)) == (
        _PINNED_MATRIX_INVERSE_TEXT
    )


def test_matrix_gates_hold_a_frozen_copy():
    mat = np.array([[0.0, 1.0], [1j, 0.0]])
    for g in (u2(mat, 0), regu(mat, (3,)), u2(mat.T, 0)):
        assert g.params.dtype == complex and g.params.flags.c_contiguous
        assert not g.params.flags.writeable
        with pytest.raises(ValueError):
            g.params[0, 0] = 2.0
    g = u2(mat, 0)
    mat[0, 0] = 5.0  # the caller's array stays the caller's
    assert g.params[0, 0] == 0.0
    # gates compare by identity: a matrix field has no truth-valued ==
    assert g == g and g != u2(mat, 0)


def test_matrix_gate_constructor_errors():
    with pytest.raises(BadParam, match="2x2"):
        u2(np.eye(4), 0)
    with pytest.raises(BadParam, match="4x4"):
        regu(np.eye(2), (0, 1))
    for ts in ((0, 2), (1, 0), ()):
        with pytest.raises(BadParam, match="contiguous"):
            regu(np.eye(1 << len(ts)), ts)


def test_compiled_branches_are_the_gates_matrices():
    circ = _matrix_circuit()
    circ.gates.append(h(1))
    prog = compile_circuit(circ)
    assert [b[3] is g.params for b, g in zip(prog.branches, circ.gates[:2])] == [True, True]
    assert not prog.branches[2][3].flags.writeable


def test_gate_is_an_immutable_tuple_read_by_name():
    g = cswap(0, 1, 2)
    assert (g.kind, g.controls, g.targets, g.params) == ("CSWAP", (0,), (1, 2), ())
    assert tuple(g) == ("CSWAP", (0,), (1, 2), ())
    for name in ("kind", "controls", "targets", "params", "extra"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    assert g.kind == "CSWAP"
    # equal-looking gates are distinct, and hash by identity
    twin = cswap(0, 1, 2)
    assert g == g and g != twin and not g == twin
    assert len({g, twin, g}) == 2 and twin not in [g]
    assert repr(g) == "Gate(kind='CSWAP', controls=(0,), targets=(1, 2), params=())"
    copied = pickle.loads(pickle.dumps(g))
    assert copied != g and tuple(copied) == tuple(g) and copied.kind == "CSWAP"
    # the compiler hands a matrix gate's own read-only params on
    circ = _matrix_circuit()
    prog = compile_circuit(circ)
    assert all(br[3] is gate.params for br, gate in zip(prog.branches, circ.gates))
    assert not any(br[3].flags.writeable for br in prog.branches)


def test_inverse_conjugate_transposes_held_matrices():
    circ = _matrix_circuit()
    inv = inverse(circ)
    assert [g.kind for g in inv.gates] == ["REGU", "U2"]
    for g, i in zip(reversed(circ.gates), inv.gates):
        assert i.targets == g.targets
        assert i.params.tobytes() == g.params.conj().T.copy().tobytes()
        assert not i.params.flags.writeable


_REGU_PAIRS = ",".join(["1.0", "0.0"] * 16)


@pytest.mark.parametrize("line", [
    "MCX controls=[] targets=[0] params=[]",  # the constructor builds an X
    "MCX controls=[1,2] targets=[0] params=[]",  # ... and a TOFFOLI here
    "X controls=[3] targets=[0] params=[]",
    "CNOT controls=[] targets=[0,1] params=[]",
    "TOFFOLI controls=[1] targets=[0,2] params=[]",
    "H controls=[1] targets=[0] params=[9.0]",
    "PHASE controls=[] targets=[0] params=[]",
    "PHASE controls=[] targets=[0,1] params=[]",
    "PHASE controls=[] targets=[0] params=[nan]",
    "PHASE controls=[] targets=[0] params=[-inf]",
    "U2 controls=[] targets=[0] params=[1.0,0.0]",
    "U2 controls=[] targets=[0] params=[1.0,0.0,0.0,0.0,0.0,0.0,1.0]",
    "U2 controls=[] targets=[0] params=[1.0,0.0,0.0,0.0,0.0,0.0,inf,0.0]",
    "REGU controls=[] targets=[0,1] params=[1.0,0.0]",
    f"REGU controls=[] targets=[0,2] params=[{_REGU_PAIRS}]",
    f"REGU controls=[3] targets=[0,1] params=[{_REGU_PAIRS}]",
    "REGU controls=[] targets=[] params=[1.0,0.0]",
    "PHASE controls=[] targets=[0] params=[abc]",
    "X controls=[] targets=[a] params=[]",
    "X controls=[] targets=[0,] params=[]",
])
def test_parse_refuses_lines_unlike_their_constructor(line):
    with pytest.raises(BadParam) as exc:
        parse_circuit(f"LAYOUT M=4 NREG=1 B=3 NANC=1\n{line}\n")
    assert repr(line) in str(exc.value)


@pytest.mark.parametrize("line,error", [
    ("X controls=[] targets=[3] params=[]", DimMismatch),  # past the layout
    ("CNOT controls=[0] targets=[7] params=[]", DimMismatch),
    ("X controls=[] targets=[-1] params=[]", DimMismatch),
    ("CNOT controls=[1] targets=[1] params=[]", BadParam),  # a reused qubit
    ("CSWAP controls=[0] targets=[2,0] params=[]", BadParam),
])
def test_parse_refuses_qubits_the_layout_refuses(line, error):
    # both classes are precondition failures: `fermiconv count` exits 3
    with pytest.raises(error):
        parse_circuit(f"LAYOUT M=2 NREG=1 B=2 NANC=1\n{line}\n")


@pytest.mark.parametrize("gate,error", [
    (x(40), DimMismatch),
    (x(70), DimMismatch),
    (x(-1), DimMismatch),
    (cnot(0, 0), BadParam),
])
def test_compiling_refuses_qubits_the_layout_refuses(gate, error):
    circ = Circuit(build_layout(2, 1), [gate])
    with pytest.raises(error):
        compile_circuit(circ)
    with pytest.raises(error):
        sparse_action(circ, np.array([0]), np.array([1.0 + 0j]))
