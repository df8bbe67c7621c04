"""Register layouts, gates, the sparse gate interpreter, and gate counting.

A layout packs N_reg registers of b qubits each, least-significant qubit
first, register 0 in the lowest bits, ancillas above all registers. A
computational-basis index n therefore carries register i as
``(n >> (i*b)) & (2**b - 1)``.

Circuits are evaluated by one route, ``sparse_action``: it carries a
component list (packed int64 indices plus amplitudes) through a compiled
``Program``. ``compile_circuit`` reduces each permutation or phase gate to
one mask test and an action (flip bits, swap two bits, negate, or
multiply by a phase), folding X gates into the tests that follow them.
The runs of such gates between branching gates take one of two loops over
the same masks: Python ints, one component at a time, for lists of up to
SCALAR_MAX_COMPONENTS (the measured crossover), and one numpy pass per
gate above it. H, U2 and REGU branch through one kernel that applies
their matrix to a contiguous qubit run. Every conversion, ladder, merge
and basis change runs on it, the fixed ones as programs their modules
cache per builder key; ``basis_action`` is its one-component,
permutation-only case and ``apply_circuit`` its wrapper for dense states.
Unit tests pin it to a dense reference engine kept with the tests.

Gate counting is purely syntactic (``count_gates``) and reads the
Circuit, never a Program. Layouts only pack registers; each size cap sits
where memory is spent: dense vectors in ``Statevector.from_components``
(QUBIT_CAP qubits), compiled masks in ``compile_circuit`` (PACKED_CAP
qubits), the interpreter in ``sparse_action`` (BRANCH_CAP components).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, CapExceeded, DimMismatch, NotPermutation

QUBIT_CAP = 26
PACKED_CAP = 62  # widest layout whose basis indices fit a signed int64
# At ~90 B per traced component (index, amplitude, branching temporaries),
# this many hold about 1.5 GiB: no more than a dense QUBIT_CAP state and
# its copy.
BRANCH_CAP = 1 << (QUBIT_CAP - 2)
# Longest list that a permutation-plus-phase run traces one component at a
# time in Python ints; longer lists take one numpy pass per gate instead.
# A gate costs about 70 ns per component in the first loop and about 5 us
# per list in the second, so the two meet at 66-79 components on the
# ladder, conversion and merge programs (Python 3.11, numpy 2.4, x86-64).
SCALAR_MAX_COMPONENTS = 64

# Gate kinds and their serialized tokens. U2 carries a 2x2 matrix as
# (re, im) pairs row-major; REGU a d x d matrix on contiguous qubits.
KINDS = ("X", "Z", "H", "PHASE", "CNOT", "CZ", "TOFFOLI", "MCX", "CSWAP", "U2", "REGU")

_SELF_INVERSE = {"X", "Z", "H", "CNOT", "CZ", "TOFFOLI", "MCX", "CSWAP"}
_BRANCHING = {"H", "U2", "REGU"}
_HADAMARD = np.array([[1, 1], [1, -1]], dtype=complex) / math.sqrt(2.0)
_HADAMARD.setflags(write=False)


@dataclass(frozen=True)
class RegisterLayout:
    """Qubit bookkeeping for N_reg registers of width b plus ancillas."""

    M: int
    n_reg: int
    n_anc: int
    b: int

    @property
    def total_qubits(self) -> int:
        return self.n_reg * self.b + self.n_anc

    @property
    def sentinel(self) -> int:
        return (1 << self.b) - 1

    def register_qubits(self, i: int) -> range:
        if not 0 <= i < self.n_reg:
            raise BadParam(f"register {i} outside 0..{self.n_reg - 1}")
        return range(i * self.b, (i + 1) * self.b)

    def anc_qubit(self, j: int) -> int:
        if not 0 <= j < self.n_anc:
            raise BadParam(f"ancilla {j} outside 0..{self.n_anc - 1}")
        return self.n_reg * self.b + j

    def reg_value(self, basis_index: int, i: int) -> int:
        return (basis_index >> (i * self.b)) & self.sentinel

    def with_reg(self, basis_index: int, i: int, value: int) -> int:
        shift = i * self.b
        return (basis_index & ~(self.sentinel << shift)) | (value << shift)

    def values(self, basis_index: int) -> tuple[int, ...]:
        return tuple(self.reg_value(basis_index, i) for i in range(self.n_reg))

    def decode(self, keys: np.ndarray) -> np.ndarray:
        """values() of every key at once, as a (len(keys), n_reg) matrix of
        the keys' dtype (int64 for index arrays)."""
        shifts = np.arange(self.n_reg, dtype=np.int64) * self.b
        return (np.asarray(keys)[:, None] >> shifts) & self.sentinel

    def basis_index(self, values: tuple[int, ...], anc: int = 0) -> int:
        if len(values) != self.n_reg:
            raise BadParam("value tuple length != n_reg")
        idx = anc << (self.n_reg * self.b)
        for i, v in enumerate(values):
            if not 0 <= v <= self.sentinel:
                raise BadParam(f"value {v} does not fit in {self.b} bits")
            idx |= v << (i * self.b)
        return idx


def build_layout(M: int, n_reg: int, n_anc: int = 0) -> RegisterLayout:
    """Layout with b = ceil(log2(M+2)): room for 1..M plus the sentinel.

    Any width: Statevector.from_components and sparse_action hold the caps.
    """
    if M < 2:
        raise BadParam(f"M={M} < 2")
    if n_reg < 1:
        raise BadParam(f"n_reg={n_reg} < 1")
    if n_anc < 0:
        raise BadParam(f"n_anc={n_anc} < 0")
    return RegisterLayout(M=M, n_reg=n_reg, n_anc=n_anc, b=math.ceil(math.log2(M + 2)))


@dataclass(frozen=True)
class Gate:
    kind: str
    controls: tuple[int, ...] = ()
    targets: tuple[int, ...] = ()
    params: tuple[float, ...] = ()

    def qubits(self) -> tuple[int, ...]:
        return self.controls + self.targets


def _as_params(mat: np.ndarray) -> tuple[float, ...]:
    flat = np.asarray(mat, dtype=complex).reshape(-1)
    return tuple(float(v) for z in flat for v in (z.real, z.imag))


def _as_matrix(params: tuple[float, ...], d: int) -> np.ndarray:
    arr = np.asarray(params, dtype=float).reshape(d * d, 2)
    return (arr[:, 0] + 1j * arr[:, 1]).reshape(d, d)


def x(t: int) -> Gate:
    return Gate("X", (), (t,))


def z(t: int) -> Gate:
    return Gate("Z", (), (t,))


def h(t: int) -> Gate:
    return Gate("H", (), (t,))


def phase(theta: float, t: int) -> Gate:
    return Gate("PHASE", (), (t,), (float(theta),))


def cnot(c: int, t: int) -> Gate:
    return Gate("CNOT", (c,), (t,))


def cz(a: int, b: int) -> Gate:
    return Gate("CZ", (), (a, b))


def toffoli(c1: int, c2: int, t: int) -> Gate:
    return Gate("TOFFOLI", (c1, c2), (t,))


def mcx(controls: tuple[int, ...], t: int) -> Gate:
    cs = tuple(controls)
    if len(cs) == 0:
        return x(t)
    if len(cs) == 1:
        return cnot(cs[0], t)
    if len(cs) == 2:
        return toffoli(cs[0], cs[1], t)
    return Gate("MCX", cs, (t,))


def cswap(c: int, t1: int, t2: int) -> Gate:
    return Gate("CSWAP", (c,), (t1, t2))


def u2(mat: np.ndarray, t: int) -> Gate:
    m = np.asarray(mat, dtype=complex)
    if m.shape != (2, 2):
        raise BadParam("U2 wants a 2x2 matrix")
    return Gate("U2", (), (t,), _as_params(m))


def regu(mat: np.ndarray, targets: tuple[int, ...]) -> Gate:
    ts = tuple(targets)
    d = 1 << len(ts)
    m = np.asarray(mat, dtype=complex)
    if m.shape != (d, d):
        raise BadParam(f"REGU on {len(ts)} qubits wants a {d}x{d} matrix")
    # contiguous ascending run (a register): the branching kernel's field
    if any(ts[k + 1] != ts[k] + 1 for k in range(len(ts) - 1)):
        raise BadParam("REGU targets must be a contiguous ascending qubit run")
    return Gate("REGU", (), ts, _as_params(m))


@dataclass
class Circuit:
    layout: RegisterLayout
    gates: list[Gate] = field(default_factory=list)

    def add(self, gate: Gate) -> "Circuit":
        n = self.layout.total_qubits
        qs = gate.qubits()
        if len(set(qs)) != len(qs):
            raise BadParam(f"{gate.kind} reuses a qubit: {qs}")
        for q in qs:
            if not 0 <= q < n:
                raise DimMismatch(f"{gate.kind} touches qubit {q}, layout has {n}")
        self.gates.append(gate)
        return self

    def extend(self, gates) -> "Circuit":
        for g in gates:
            self.add(g)
        return self

    def __add__(self, other: "Circuit") -> "Circuit":
        if other.layout != self.layout:
            raise DimMismatch("composition needs a shared layout")
        return Circuit(self.layout, list(self.gates) + list(other.gates))

    def __len__(self) -> int:
        return len(self.gates)

    def inverse(self) -> "Circuit":
        inv: list[Gate] = []
        for g in reversed(self.gates):
            if g.kind in _SELF_INVERSE:
                inv.append(g)
            elif g.kind == "PHASE":
                inv.append(phase(-g.params[0], g.targets[0]))
            elif g.kind == "U2":
                inv.append(u2(_as_matrix(g.params, 2).conj().T, g.targets[0]))
            elif g.kind == "REGU":
                d = 1 << len(g.targets)
                inv.append(regu(_as_matrix(g.params, d).conj().T, g.targets))
            else:
                raise BadParam(f"unknown gate kind {g.kind}")
        return Circuit(self.layout, inv)


class Statevector:
    """Dense complex128 amplitude vector over a layout's qubits."""

    __slots__ = ("amps",)

    def __init__(self, amps: np.ndarray):
        self.amps = np.asarray(amps, dtype=complex)

    @property
    def n_qubits(self) -> int:
        return int(self.amps.shape[0]).bit_length() - 1

    @classmethod
    def from_components(cls, n_qubits: int, keys, amps) -> "Statevector":
        """Dense vector over n_qubits holding amps at keys; the one place a
        register state is allocated, refused above QUBIT_CAP beforehand."""
        if n_qubits > QUBIT_CAP:
            raise CapExceeded(f"{n_qubits} qubits > dense cap {QUBIT_CAP}")
        out = np.zeros(1 << n_qubits, dtype=complex)
        out[np.asarray(keys, dtype=np.int64)] = amps
        return cls(out)

    @classmethod
    def zero(cls, layout: RegisterLayout) -> "Statevector":
        return cls.basis(layout, 0)

    @classmethod
    def basis(cls, layout: RegisterLayout, index: int) -> "Statevector":
        return cls.from_components(layout.total_qubits, [index], [1.0])

    def copy(self) -> "Statevector":
        return Statevector(self.amps.copy())

    def norm(self) -> float:
        return float(np.linalg.norm(self.amps))

    def overlap(self, other: "Statevector") -> complex:
        return complex(np.vdot(self.amps, other.amps))

    def fidelity(self, other: "Statevector") -> float:
        # global-phase quotient: |<a|b>|
        return abs(self.overlap(other))


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Run the gate list left to right on the state's nonzero components."""
    n = circuit.layout.total_qubits
    if state.amps.shape[0] != (1 << n):
        raise DimMismatch(
            f"state has {state.amps.shape[0]} amplitudes, layout wants {1 << n}"
        )
    keys = np.flatnonzero(state.amps != 0)
    idx, amp = sparse_action(circuit, keys, state.amps[keys])
    return Statevector.from_components(n, idx, amp)


def basis_action(circuit: Circuit, index: int) -> tuple[int, complex]:
    """Exact action of a permutation+phase circuit on one basis state.

    Returns (output index, phase). Raises NotPermutation on H/U2/REGU,
    which move basis states into superpositions.
    """
    for g in circuit.gates:
        if g.kind in _BRANCHING:
            raise NotPermutation(f"{g.kind} gate does not map basis states to basis states")
    idx, amp = sparse_action(circuit, np.array([index]), np.array([1.0 + 0.0j]))
    return int(idx[0]), complex(amp[0])


def check_branches(n: int, what: str) -> None:
    """Refuse a component list, or a matrix over one, of n > BRANCH_CAP entries."""
    if n > BRANCH_CAP:
        raise CapExceeded(f"{what}: {n} components > branch cap {BRANCH_CAP}")


def _branch(
    idx: np.ndarray, amp: np.ndarray, lo: int, w: int, mat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Apply the 2^w x 2^w matrix mat to qubits lo..lo+w-1 of every component.

    Components that agree outside the run form one group; each group's
    amplitudes fill one row of a (groups x 2^w) block, summing any repeated
    key, and the block times mat.T is the group's output. Exact zeros are
    dropped; nothing else is.
    """
    d = 1 << w
    run = np.int64((d - 1) << lo)
    rest, group = np.unique(idx & ~run, return_inverse=True)
    check_branches(len(rest) * d, f"{w}-qubit branching")
    block = np.zeros(len(rest) * d, dtype=complex)
    np.add.at(block, group * d + ((idx & run) >> lo), amp)
    out = (block.reshape(-1, d) @ mat.T).ravel()
    keep = np.flatnonzero(out)
    return rest[keep >> w] | ((keep & (d - 1)) << lo), out[keep]


# Opcodes of a compiled permutation-plus-phase gate; see Program.
_FLIP, _SIGN, _PHASE, _SWAP = range(4)


@dataclass(frozen=True, eq=False)
class Program:
    """A circuit compiled to integer masks: the form sparse_action runs.

    Each row of gates is (op, cmask, cval, fmask), and acts on index i
    where ``i & cmask == cval``: _FLIP sets ``i ^= fmask`` (CNOT, TOFFOLI,
    MCX), _SIGN negates the amplitude (Z, CZ), _PHASE multiplies it by
    ``phases[fmask]``, and _SWAP (CSWAP) flips the two bits of fmask where
    ``i & fmask`` is neither 0 nor fmask. X gates get no row of their own:
    a pending flip mask absorbs them, later tests read a flipped control
    as 0 through cval, and one unconditional _FLIP row applies the pending
    bits before a branching gate, before a swap of a flipped qubit, and at
    the end. Each branching gate (H, U2, REGU) is (pos, lo, w, mat) in
    branches: mat applies to qubits lo..lo+w-1 before row pos. Arrays are
    read-only, so a cached program cannot be edited.
    """

    n_qubits: int
    gates: np.ndarray
    phases: tuple[complex, ...]
    branches: tuple[tuple[int, int, int, np.ndarray], ...]


def _frozen(values, dtype) -> np.ndarray:
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def compile_circuit(circuit: Circuit) -> Program:
    """Reduce every gate to masks; layouts past PACKED_CAP raise CapExceeded."""
    n = circuit.layout.total_qubits
    if n > PACKED_CAP:
        raise CapExceeded(f"{n} qubits > packed-index cap {PACKED_CAP}")
    rows: list[tuple[int, int, int, int]] = []
    phases: list[complex] = []
    branches = []
    pending = 0  # X flips not yet applied to the index

    def flush(bits: int) -> None:
        nonlocal pending
        if pending & bits:
            rows.append((_FLIP, 0, 0, pending & bits))
            pending &= ~bits

    for g in circuit.gates:
        k = g.kind
        controls = sum(1 << q for q in g.controls)
        targets = sum(1 << q for q in g.targets)
        if k == "X":
            pending ^= targets
            continue
        if k in _BRANCHING:
            flush(pending)
            w = len(g.targets)
            mat = _HADAMARD if k == "H" else _frozen(_as_matrix(g.params, 1 << w), complex)
            branches.append((len(rows), g.targets[0], w, mat))
            continue
        if k in ("CNOT", "TOFFOLI", "MCX"):
            op, c, f = _FLIP, controls, targets
        elif k in ("Z", "CZ"):
            op, c, f = _SIGN, targets, 0
        elif k == "PHASE":
            op, c, f = _PHASE, targets, len(phases)
            phases.append(complex(math.cos(g.params[0]), math.sin(g.params[0])))
        elif k == "CSWAP":
            flush(targets)
            op, c, f = _SWAP, controls, targets
        else:
            raise BadParam(f"unknown gate kind {k}")
        rows.append((op, c, c & ~pending, f))
    flush(pending)
    return Program(
        n, _frozen(rows, np.int64).reshape(-1, 4), tuple(phases), tuple(branches)
    )


def sparse_action(
    circuit: Circuit | Program, indices: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Any circuit on a component list: the one gate interpreter.

    The pair (indices, amps) describes sum_k amps[k] |indices[k]>. A
    Circuit is compiled first (compile_circuit); a Program runs as given.
    Between branching gates the program is a run of permutation-plus-phase
    gates, and each run takes one of two loops over the same masks, chosen
    by the list's length when the run starts: up to SCALAR_MAX_COMPONENTS
    components, a loop over Python ints, one component at a time through
    the whole run; above it, one numpy pass per gate over the whole list.
    The loops agree bit for bit, except that a PHASE product may differ in
    the last bit (CPython and numpy round complex products differently).
    H, U2 and REGU go through one branching kernel that applies their
    matrix to a contiguous qubit run and merges collisions, so a circuit
    with a small branching layer stays cheap on layouts far above the
    dense comfort zone. Exact: only exact zeros are dropped. Layouts wider
    than PACKED_CAP qubits raise CapExceeded, since their indices would not
    fit the packed int64 arrays, and so does a list (given, or grown by a
    branching gate) of more than BRANCH_CAP components.
    """
    prog = circuit if isinstance(circuit, Program) else compile_circuit(circuit)
    check_branches(len(indices), "input list")
    idx = np.array(indices, dtype=np.int64, copy=True)
    amp = np.array(amps, dtype=complex, copy=True)
    start = 0
    for pos, lo, w, mat in prog.branches + ((len(prog.gates), 0, 0, None),):
        run = prog.gates[start:pos].tolist()
        if run and len(idx) <= SCALAR_MAX_COMPONENTS:
            out_i, out_a = [], []
            for i, a in zip(idx.tolist(), amp.tolist()):
                for op, c, v, f in run:
                    if (i & c) == v:
                        if op == _FLIP:
                            i ^= f
                        elif op == _SWAP:
                            if 0 != (i & f) != f:
                                i ^= f
                        elif op == _SIGN:
                            a = -a
                        else:
                            a *= prog.phases[f]
                out_i.append(i)
                out_a.append(a)
            idx = np.array(out_i, dtype=np.int64)
            amp = np.array(out_a, dtype=complex)
        elif run:
            for op, c, v, f in run:
                if op == _FLIP and not c:
                    idx ^= f
                    continue
                on = (idx & c) == v
                if op == _SWAP:
                    m = idx & f
                    on &= (m != 0) & (m != f)
                if op in (_FLIP, _SWAP):
                    np.bitwise_xor(idx, f, out=idx, where=on)
                elif op == _SIGN:
                    np.negative(amp, out=amp, where=on)
                else:
                    np.multiply(amp, prog.phases[f], out=amp, where=on)
        if mat is not None:
            idx, amp = _branch(idx, amp, lo, w, mat)
        start = pos
    return idx, amp


@dataclass(frozen=True)
class GateCount:
    toffoli_equiv: int = 0
    cnot: int = 0
    single_qubit: int = 0
    register_unitary_dim_sum: int = 0

    def __add__(self, other: "GateCount") -> "GateCount":
        return GateCount(
            self.toffoli_equiv + other.toffoli_equiv,
            self.cnot + other.cnot,
            self.single_qubit + other.single_qubit,
            self.register_unitary_dim_sum + other.register_unitary_dim_sum,
        )

    @property
    def total(self) -> int:
        """Primitive gates of all kinds; register unitaries count separately."""
        return self.toffoli_equiv + self.cnot + self.single_qubit


def count_gates(circuit: Circuit) -> GateCount:
    """Deterministic cost bookkeeping.

    MultiControlledX with k controls counts k-1 Toffoli equivalents (the
    clean-ancilla AND ladder with measurement-based uncomputation, Gidney,
    "Halving the cost of quantum addition", Quantum 2, 74 (2018));
    ControlledSwap counts 1 Toffoli + 2
    CNOTs (standard decomposition); CZ counts as one entangling two-qubit
    gate alongside CNOT; every single-qubit gate counts 1.
    """
    tof = cn = sq = dimsum = 0
    for g in circuit.gates:
        k = g.kind
        if k in ("X", "Z", "H", "PHASE", "U2"):
            sq += 1
        elif k in ("CNOT", "CZ"):
            cn += 1
        elif k == "TOFFOLI":
            tof += 1
        elif k == "MCX":
            tof += len(g.controls) - 1
        elif k == "CSWAP":
            tof += 1
            cn += 2
        elif k == "REGU":
            d = 1 << len(g.targets)
            dimsum += d * d
        else:
            raise BadParam(f"unknown gate kind {k}")
    return GateCount(tof, cn, sq, dimsum)


_HEADER_RE = re.compile(r"^LAYOUT M=(\d+) NREG=(\d+) B=(\d+) NANC=(\d+)$")
_GATE_RE = re.compile(r"^([A-Z0-9]+) controls=\[([^\]]*)\] targets=\[([^\]]*)\] params=\[([^\]]*)\]$")


def serialize_circuit(circuit: Circuit) -> str:
    """One header line plus one line per gate; round-trips exactly."""
    lay = circuit.layout
    lines = [f"LAYOUT M={lay.M} NREG={lay.n_reg} B={lay.b} NANC={lay.n_anc}"]
    for g in circuit.gates:
        cs = ",".join(str(q) for q in g.controls)
        ts = ",".join(str(q) for q in g.targets)
        ps = ",".join(repr(p) for p in g.params)
        lines.append(f"{g.kind} controls=[{cs}] targets=[{ts}] params=[{ps}]")
    return "\n".join(lines) + "\n"


def parse_circuit(text: str) -> Circuit:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise BadParam("empty circuit text")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise BadParam(f"bad header line: {lines[0]!r}")
    M, n_reg, b, n_anc = (int(x) for x in m.groups())
    layout = build_layout(M, n_reg, n_anc)
    if layout.b != b:
        raise BadParam(f"header B={b} inconsistent with M={M} (want {layout.b})")
    circ = Circuit(layout)
    for ln in lines[1:]:
        g = _GATE_RE.match(ln)
        if not g:
            raise BadParam(f"bad gate line: {ln!r}")
        kind, cs, ts, ps = g.groups()
        if kind not in KINDS:
            raise BadParam(f"unknown gate kind {kind}")
        controls = tuple(int(q) for q in cs.split(",")) if cs else ()
        targets = tuple(int(q) for q in ts.split(",")) if ts else ()
        params = tuple(float(p) for p in ps.split(",")) if ps else ()
        circ.add(Gate(kind, controls, targets, params))
    return circ
