"""Register layouts, gates, dense statevector simulation, and gate counting.

The simulator is deliberately plain: one dense complex128 amplitude array,
gates applied in sequence through numpy slice assignments. A layout packs
N_reg registers of b qubits each, least-significant qubit first, register 0
in the lowest bits, ancillas above all registers. A computational-basis
index n therefore carries register i as ``(n >> (i*b)) & (2**b - 1)``.

Two evaluation routes exist on purpose:

* ``apply_circuit``: the dense engine, works on any gate kind. Only the
  register unitaries (REGU) of basis changes need it.
* ``sparse_action``: the one tracer of permutation-plus-phase circuits. It
  carries a component list (packed int64 indices plus amplitudes) through
  the gates, branching on H, so every conversion, ladder and merge stage
  runs without a statevector. ``basis_action`` is its one-component case.
  Unit tests pin it to the dense engine on small layouts.

Gate counting is a third, purely syntactic route (``count_gates``).
Layouts only pack registers; each size cap sits where memory is spent:
dense vectors in ``Statevector.from_components`` (QUBIT_CAP qubits), the
tracer in ``sparse_action`` (PACKED_CAP qubits, BRANCH_CAP components).
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import BadParam, CapExceeded, DimMismatch, NotPermutation

QUBIT_CAP = 26
PACKED_CAP = 62  # widest layout whose basis indices fit a signed int64
# At ~90 B per traced component (index, amplitude, merge scratch), this many
# cost no more than the largest dense apply: 2^QUBIT_CAP amplitudes twice.
BRANCH_CAP = 1 << (QUBIT_CAP - 2)

# Gate kinds and their serialized tokens. U2 carries a 2x2 matrix as
# (re, im) pairs row-major; REGU a d x d matrix on contiguous qubits.
KINDS = ("X", "Z", "H", "PHASE", "CNOT", "CZ", "TOFFOLI", "MCX", "CSWAP", "U2", "REGU")

_SELF_INVERSE = {"X", "Z", "H", "CNOT", "CZ", "TOFFOLI", "MCX", "CSWAP"}


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
    # contiguous ascending run (a register), required by the dense applier
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


def _ix(n: int, fixed: dict[int, int]) -> tuple:
    """Index tuple into a (2,)*n view; qubit q lives on axis n-1-q."""
    sel: list = [slice(None)] * n
    for q, v in fixed.items():
        sel[n - 1 - q] = v
    return tuple(sel)


def _apply_gate(a: np.ndarray, n: int, g: Gate) -> None:
    v = a.reshape((2,) * n)
    k = g.kind
    if k == "Z":
        v[_ix(n, {g.targets[0]: 1})] *= -1.0
    elif k == "PHASE":
        v[_ix(n, {g.targets[0]: 1})] *= np.exp(1j * g.params[0])
    elif k == "H":
        t = g.targets[0]
        i0, i1 = _ix(n, {t: 0}), _ix(n, {t: 1})
        a0, a1 = v[i0].copy(), v[i1].copy()
        s = 1.0 / math.sqrt(2.0)
        v[i0] = (a0 + a1) * s
        v[i1] = (a0 - a1) * s
    elif k == "U2":
        t = g.targets[0]
        m = _as_matrix(g.params, 2)
        i0, i1 = _ix(n, {t: 0}), _ix(n, {t: 1})
        a0, a1 = v[i0].copy(), v[i1].copy()
        v[i0] = m[0, 0] * a0 + m[0, 1] * a1
        v[i1] = m[1, 0] * a0 + m[1, 1] * a1
    elif k == "CZ":
        qa, qb = g.targets
        v[_ix(n, {qa: 1, qb: 1})] *= -1.0
    elif k in ("X", "CNOT", "TOFFOLI", "MCX"):
        t = g.targets[0]
        on = {c: 1 for c in g.controls}
        i0 = _ix(n, {**on, t: 0})
        i1 = _ix(n, {**on, t: 1})
        v[i0], v[i1] = v[i1], v[i0].copy()
    elif k == "CSWAP":
        c = g.controls[0]
        t1, t2 = g.targets
        i01 = _ix(n, {c: 1, t1: 0, t2: 1})
        i10 = _ix(n, {c: 1, t1: 1, t2: 0})
        v[i01], v[i10] = v[i10], v[i01].copy()
    elif k == "REGU":
        lo = g.targets[0]
        w = len(g.targets)
        d = 1 << w
        m = _as_matrix(g.params, d)
        block = a.reshape(1 << (n - lo - w), d, 1 << lo)
        np.einsum("vw,awc->avc", m, block.copy(), out=block)
    else:
        raise BadParam(f"unknown gate kind {k}")


def apply_circuit(state: Statevector, circuit: Circuit) -> Statevector:
    """Run the gate list left to right on a copy of the state."""
    n = circuit.layout.total_qubits
    if state.amps.shape[0] != (1 << n):
        raise DimMismatch(
            f"state has {state.amps.shape[0]} amplitudes, layout wants {1 << n}"
        )
    a = state.amps.copy()
    for g in circuit.gates:
        _apply_gate(a, n, g)
    return Statevector(a)


def basis_action(circuit: Circuit, index: int) -> tuple[int, complex]:
    """Exact action of a permutation+phase circuit on one basis state.

    Returns (output index, phase). Raises NotPermutation on H/U2/REGU,
    which move basis states into superpositions.
    """
    if any(g.kind == "H" for g in circuit.gates):
        raise NotPermutation("H gate does not map basis states to basis states")
    idx, amp = sparse_action(circuit, np.array([index]), np.array([1.0 + 0.0j]))
    return int(idx[0]), complex(amp[0])


def check_branches(n: int, what: str) -> None:
    """Refuse a component list, or a matrix over one, of n > BRANCH_CAP entries."""
    if n > BRANCH_CAP:
        raise CapExceeded(f"{what}: {n} components > branch cap {BRANCH_CAP}")


def sparse_action(
    circuit: Circuit, indices: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """A permutation+phase circuit on a component list, with H branching.

    The pair (indices, amps) describes sum_k amps[k] |indices[k]>. Every
    permutation-phase gate updates the arrays elementwise; an H gate
    doubles the list and merges collisions, so circuits with a small H
    layer stay cheap on layouts far above the dense comfort zone. U2 and
    REGU raise NotPermutation. Exact: no thresholding is applied. Layouts
    wider than PACKED_CAP qubits raise CapExceeded, since their indices
    would not fit the packed int64 arrays, and so does a list (given, or
    grown by an H gate) of more than BRANCH_CAP components.
    """
    n = circuit.layout.total_qubits
    if n > PACKED_CAP:
        raise CapExceeded(f"{n} qubits > packed-index cap {PACKED_CAP}")
    check_branches(len(indices), "input list")
    idx = np.array(indices, dtype=np.int64, copy=True)
    amp = np.array(amps, dtype=complex, copy=True)
    s = 1.0 / math.sqrt(2.0)
    for g in circuit.gates:
        k = g.kind
        if k == "X":
            idx ^= np.int64(1 << g.targets[0])
        elif k == "Z":
            on = ((idx >> g.targets[0]) & 1) == 1
            amp[on] = -amp[on]
        elif k == "PHASE":
            on = ((idx >> g.targets[0]) & 1) == 1
            amp[on] *= complex(math.cos(g.params[0]), math.sin(g.params[0]))
        elif k == "CZ":
            qa, qb = g.targets
            on = (((idx >> qa) & (idx >> qb)) & 1) == 1
            amp[on] = -amp[on]
        elif k in ("CNOT", "TOFFOLI", "MCX"):
            on = np.ones(idx.shape, dtype=bool)
            for c in g.controls:
                on &= ((idx >> c) & 1) == 1
            idx[on] ^= np.int64(1 << g.targets[0])
        elif k == "CSWAP":
            t1, t2 = g.targets
            on = ((idx >> g.controls[0]) & ((idx >> t1) ^ (idx >> t2)) & 1) == 1
            idx[on] ^= np.int64((1 << t1) | (1 << t2))
        elif k == "H":
            check_branches(2 * len(idx), "H branching")
            q = g.targets[0]
            bit = np.int64(1 << q)
            was1 = (idx & bit) != 0
            low = idx & ~bit
            idx = np.concatenate([low, low | bit])
            amp = np.concatenate([amp * s, np.where(was1, -s, s) * amp])
            idx, inverse = np.unique(idx, return_inverse=True)
            merged = np.zeros(len(idx), dtype=complex)
            np.add.at(merged, inverse, amp)
            amp = merged
        else:
            raise NotPermutation(f"{k} gate does not map basis states to basis states")
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

    MultiControlledX with k controls counts k-1 Toffoli equivalents (linear
    ancilla-free ladder convention); ControlledSwap counts 1 Toffoli + 2
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
