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
cache per builder key; ``apply_circuit`` is its wrapper for dense states.
Unit tests pin it to a dense reference engine kept with the tests.

A gate's params are (theta,) for PHASE, () for H and the permutation
gates, and for U2 and REGU the gate's own read-only matrix, which the
compiled Program holds as is; only the text format (``serialize_circuit``,
``parse_circuit``) spells a matrix as (re, im) float pairs, and the reader
builds every line through its kind's constructor. Gates compare by
identity.

A Circuit is a layout and one gate list, which each builder assembles and
wraps once. Gate qubits are checked against the layout where outside text
enters (``parse_circuit``) and where every circuit runs (``compile_circuit``).

Gate counting is purely syntactic (``count_gates``) and reads the
Circuit, never a Program. Layouts only pack registers; each size cap sits
where memory is spent: dense vectors in ``Statevector.from_components``
(QUBIT_CAP qubits), the one dense constructor, packed int64 indices in
``compile_circuit`` and ``EncodedState.from_components`` (PACKED_CAP
qubits), the interpreter in ``sparse_action`` (BRANCH_CAP components),
and gate lists in the conversion builders (GATE_CAP gates, checked on a
closed-form bound before the first gate is built).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from .errors import BadParam, CapExceeded, DimMismatch

QUBIT_CAP = 26
PACKED_CAP = 62  # widest layout whose basis indices fit a signed int64
# At ~90 B per traced component (index, amplitude, branching temporaries),
# this many hold about 1.5 GiB: no more than a dense QUBIT_CAP state and
# its copy.
BRANCH_CAP = 1 << (QUBIT_CAP - 2)
# A built gate holds at most about 190 B: tracemalloc's peak over the gate
# list, the gate tuples and their qubit ints, measured on fq2sl at M=2
# N=512, where every qubit index is a fresh int. This many gates then peak
# near 380 MiB, inside a 512 MiB budget.
GATE_CAP = 1 << 21
# Longest list that a permutation-plus-phase run traces one component at a
# time in Python ints; longer lists take one numpy pass per gate instead.
# A gate costs about 70 ns per component in the first loop and about 5 us
# per list in the second, so the two meet at 66-79 components on the
# ladder, conversion and merge programs (Python 3.11, numpy 2.4, x86-64).
SCALAR_MAX_COMPONENTS = 64

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
        b, top = self.b, self.sentinel  # read once, not once per value
        idx = anc << (self.n_reg * b)
        for i, v in enumerate(values):
            if not 0 <= v <= top:
                raise BadParam(f"value {v} does not fit in {b} bits")
            idx |= v << (i * b)
        return idx


def build_layout(M: int, n_reg: int, n_anc: int = 0) -> RegisterLayout:
    """Layout with b = ceil(log2(M+2)): room for 1..M plus the sentinel.

    Any width: the dense constructor, the compiler and the tracer hold the
    caps where they allocate.
    """
    if M < 2:
        raise BadParam(f"M={M} < 2")
    if n_reg < 1:
        raise BadParam(f"n_reg={n_reg} < 1")
    if n_anc < 0:
        raise BadParam(f"n_anc={n_anc} < 0")
    return RegisterLayout(M=M, n_reg=n_reg, n_anc=n_anc, b=math.ceil(math.log2(M + 2)))


_new = tuple.__new__


class Gate(tuple):
    """One gate: the immutable tuple (kind, controls, targets, params), its
    fields read by name.

    params: (theta,) for PHASE, () for H and the permutation gates, and for
    U2 and REGU the gate's read-only, C-contiguous complex d x d matrix
    (d = 2^len(targets)), which the compiler hands on as is. The
    constructors below build the tuple directly. Assigning a field raises
    AttributeError. Gates compare and hash by identity, never by fields: a
    matrix field has no truth-valued ==.
    """

    __slots__ = ()

    def __new__(cls, kind: str, controls=(), targets=(), params=()):
        return _new(cls, (kind, controls, targets, params))

    kind = property(itemgetter(0))
    controls = property(itemgetter(1))
    targets = property(itemgetter(2))
    params = property(itemgetter(3))

    __eq__ = object.__eq__
    __ne__ = object.__ne__
    __hash__ = object.__hash__

    def __getnewargs__(self):
        return tuple(self)

    def __repr__(self) -> str:
        return "Gate(kind={!r}, controls={!r}, targets={!r}, params={!r})".format(*self)


def x(t: int) -> Gate:
    return _new(Gate, ("X", (), (t,), ()))


def z(t: int) -> Gate:
    return _new(Gate, ("Z", (), (t,), ()))


def h(t: int) -> Gate:
    return _new(Gate, ("H", (), (t,), ()))


def phase(theta: float, t: int) -> Gate:
    return _new(Gate, ("PHASE", (), (t,), (float(theta),)))


def cnot(c: int, t: int) -> Gate:
    return _new(Gate, ("CNOT", (c,), (t,), ()))


def cz(a: int, b: int) -> Gate:
    return _new(Gate, ("CZ", (), (a, b), ()))


def toffoli(c1: int, c2: int, t: int) -> Gate:
    return _new(Gate, ("TOFFOLI", (c1, c2), (t,), ()))


def mcx(controls: tuple[int, ...], t: int) -> Gate:
    cs = tuple(controls)
    if len(cs) == 0:
        return x(t)
    if len(cs) == 1:
        return cnot(cs[0], t)
    if len(cs) == 2:
        return toffoli(cs[0], cs[1], t)
    return _new(Gate, ("MCX", cs, (t,), ()))


def cswap(c: int, t1: int, t2: int) -> Gate:
    return _new(Gate, ("CSWAP", (c,), (t1, t2), ()))


def _matrix_gate(kind: str, mat: np.ndarray, targets: tuple[int, ...]) -> Gate:
    """U2 or REGU holding a frozen C-contiguous copy of mat."""
    ts = tuple(targets)
    d = 1 << len(ts)
    m = np.array(mat, dtype=complex, order="C")
    if m.shape != (d, d):
        raise BadParam(f"{kind} on {len(ts)} qubits wants a {d}x{d} matrix")
    # contiguous ascending run (a register): the branching kernel's field
    if not ts or ts != tuple(range(ts[0], ts[0] + len(ts))):
        raise BadParam(f"{kind} targets must be a contiguous ascending qubit run")
    m.setflags(write=False)
    return _new(Gate, (kind, (), ts, m))


def u2(mat: np.ndarray, t: int) -> Gate:
    return _matrix_gate("U2", mat, (t,))


def regu(mat: np.ndarray, targets: tuple[int, ...]) -> Gate:
    return _matrix_gate("REGU", mat, targets)


@dataclass
class Circuit:
    """A layout and its gates, run left to right; checked where read or compiled."""

    layout: RegisterLayout
    gates: list[Gate] = field(default_factory=list)


def _check_qubits(gate: Gate, n: int) -> None:
    """Refuse a gate that reuses a qubit (BadParam) or leaves 0..n-1 (DimMismatch)."""
    qs = gate.controls + gate.targets
    if len(set(qs)) != len(qs):
        raise BadParam(f"{gate.kind} reuses a qubit: {qs}")
    for q in qs:
        if not 0 <= q < n:
            raise DimMismatch(f"{gate.kind} touches qubit {q}, layout has {n}")


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
        """Dense vector over n_qubits holding amps at keys, refused above
        QUBIT_CAP before it is allocated."""
        if n_qubits > QUBIT_CAP:
            raise CapExceeded(f"{n_qubits} qubits > dense cap {QUBIT_CAP}")
        out = np.zeros(1 << n_qubits, dtype=complex)
        out[np.asarray(keys, dtype=np.int64)] = amps
        return cls(out)

    def components(self) -> tuple[np.ndarray, np.ndarray]:
        """Indices and amplitudes of the exact-nonzero entries, ascending."""
        keys = np.flatnonzero(self.amps != 0)
        return keys, self.amps[keys]


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Run the gate list left to right on the state's nonzero components."""
    n = circuit.layout.total_qubits
    if state.amps.shape[0] != (1 << n):
        raise DimMismatch(
            f"state has {state.amps.shape[0]} amplitudes, layout wants {1 << n}"
        )
    idx, amp = sparse_action(circuit, *state.components())
    return Statevector.from_components(n, idx, amp)


def check_branches(n: int, what: str) -> None:
    """Refuse a component list, or a matrix over one, of n > BRANCH_CAP entries."""
    if n > BRANCH_CAP:
        raise CapExceeded(f"{what}: {n} components > branch cap {BRANCH_CAP}")


def check_gates(n: int, what: str) -> None:
    """Refuse a build of up to n gates past GATE_CAP, before it starts."""
    if n > GATE_CAP:
        raise CapExceeded(f"{what}: up to {n} gates > gate cap {GATE_CAP}")


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


def compile_circuit(circuit: Circuit) -> Program:
    """Reduce every gate to masks; layouts past PACKED_CAP raise CapExceeded,
    and a gate's qubits are checked against the layout first."""
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
        _check_qubits(g, n)
        k, cs, ts, params = g
        controls = sum(1 << q for q in cs)
        targets = sum(1 << q for q in ts)
        if k == "X":
            pending ^= targets
            continue
        if k in _BRANCHING:
            flush(pending)
            mat = _HADAMARD if k == "H" else params
            branches.append((len(rows), ts[0], len(ts), mat))
            continue
        if k in ("CNOT", "TOFFOLI", "MCX"):
            op, c, f = _FLIP, controls, targets
        elif k in ("Z", "CZ"):
            op, c, f = _SIGN, targets, 0
        elif k == "PHASE":
            op, c, f = _PHASE, targets, len(phases)
            phases.append(complex(math.cos(params[0]), math.sin(params[0])))
        elif k == "CSWAP":
            flush(targets)
            op, c, f = _SWAP, controls, targets
        else:
            raise BadParam(f"unknown gate kind {k}")
        rows.append((op, c, c & ~pending, f))
    flush(pending)
    masks = np.array(rows, dtype=np.int64).reshape(-1, 4)
    masks.setflags(write=False)
    return Program(n, masks, tuple(phases), tuple(branches))


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
    # kinds in the order of their share of comparator circuits; g[0] rather
    # than unpacking, which takes the slow generic path for a tuple subclass
    for g in circuit.gates:
        k = g[0]
        if k == "X":
            sq += 1
        elif k == "CNOT":
            cn += 1
        elif k == "MCX":
            tof += len(g[1]) - 1
        elif k == "CSWAP":
            tof += 1
            cn += 2
        elif k == "TOFFOLI":
            tof += 1
        elif k in ("Z", "H", "PHASE", "U2"):
            sq += 1
        elif k == "CZ":
            cn += 1
        elif k == "REGU":
            d = 1 << len(g[2])
            dimsum += d * d
        else:
            raise BadParam(f"unknown gate kind {k}")
    return GateCount(tof, cn, sq, dimsum)


def _floats(g: Gate) -> tuple[float, ...]:
    """params as the text spells them: a matrix as (re, im) pairs row-major."""
    p = g.params
    return tuple(p.view(float).ravel().tolist()) if isinstance(p, np.ndarray) else p


def _square(params: tuple[float, ...]) -> np.ndarray:
    """(re, im) pairs row-major back to a square matrix, signed zeros kept."""
    d = math.isqrt(len(params) // 2)
    if len(params) != 2 * d * d:
        raise ValueError(f"{len(params)} params are not a square matrix's (re, im) pairs")
    return np.array(params, dtype=float).view(complex).reshape(d, d)


# Each kind's constructor, fed a circuit line's (controls, targets, params).
_READERS = {
    "X": lambda cs, ts, ps: x(*ts),
    "Z": lambda cs, ts, ps: z(*ts),
    "H": lambda cs, ts, ps: h(*ts),
    "PHASE": lambda cs, ts, ps: phase(*ps, *ts),
    "CNOT": lambda cs, ts, ps: cnot(*cs, *ts),
    "CZ": lambda cs, ts, ps: cz(*ts),
    "TOFFOLI": lambda cs, ts, ps: toffoli(*cs, *ts),
    "MCX": lambda cs, ts, ps: mcx(cs, *ts),
    "CSWAP": lambda cs, ts, ps: cswap(*cs, *ts),
    "U2": lambda cs, ts, ps: u2(_square(ps), *ts),
    "REGU": lambda cs, ts, ps: regu(_square(ps), ts),
}

_HEADER_RE = re.compile(r"^LAYOUT M=(\d+) NREG=(\d+) B=(\d+) NANC=(\d+)$")
_GATE_RE = re.compile(r"^([A-Z0-9]+) controls=\[([^\]]*)\] targets=\[([^\]]*)\] params=\[([^\]]*)\]$")


def serialize_circuit(circuit: Circuit) -> str:
    """One header line plus one line per gate; round-trips exactly."""
    lay = circuit.layout
    lines = [f"LAYOUT M={lay.M} NREG={lay.n_reg} B={lay.b} NANC={lay.n_anc}"]
    for g in circuit.gates:
        cs = ",".join(str(q) for q in g.controls)
        ts = ",".join(str(q) for q in g.targets)
        ps = ",".join(repr(p) for p in _floats(g))
        lines.append(f"{g.kind} controls=[{cs}] targets=[{ts}] params=[{ps}]")
    return "\n".join(lines) + "\n"


def _numbers(text: str, cast: type) -> tuple:
    return tuple(cast(v) for v in text.split(",")) if text else ()


def parse_circuit(text: str) -> Circuit:
    """Inverse of serialize_circuit. Each gate line is built by its kind's
    constructor and must come out as written: other lines, unparsable or
    non-finite numbers included, raise BadParam naming the line. A gate
    whose qubits the layout refuses raises BadParam or DimMismatch."""
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
    n = layout.total_qubits
    gates: list[Gate] = []
    for ln in lines[1:]:
        g = _GATE_RE.match(ln)
        if not g:
            raise BadParam(f"bad gate line: {ln!r}")
        kind, cs, ts, ps = g.groups()
        if kind not in _READERS:
            raise BadParam(f"unknown gate kind {kind}")
        try:
            controls, targets = _numbers(cs, int), _numbers(ts, int)
            params = _numbers(ps, float)
            if not all(map(math.isfinite, params)):
                raise ValueError("non-finite param")
            gate = _READERS[kind](controls, targets, params)
        except (BadParam, TypeError, ValueError) as exc:
            raise BadParam(f"{exc}: {ln!r}") from exc
        built = (gate.kind, gate.controls, gate.targets, _floats(gate))
        if built != (kind, controls, targets, params):
            raise BadParam(f"{kind} constructor builds a different gate: {ln!r}")
        _check_qubits(gate, n)
        gates.append(gate)
    return Circuit(layout, gates)
