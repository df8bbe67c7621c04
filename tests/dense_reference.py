"""Dense statevector engine: the reference the sparse tracer is pinned against.

It applies every gate kind to the full 2^n amplitude array through numpy
slice assignments on a (2,)*n view, independently of ``sparse_action``'s
component-list bookkeeping. Qubit q lives on axis n-1-q, so a basis index
carries qubit q as bit q, as in the package. ``inverse`` builds a circuit's
inverse for the reversibility tests.
"""

import math

import numpy as np

from fermiconv import Circuit, Statevector
from fermiconv.circuits import regu
from fermiconv.errors import BadParam, DimMismatch

_SELF_INVERSE = {"X", "Z", "H", "CNOT", "CZ", "TOFFOLI", "MCX", "CSWAP"}


def _ix(n: int, fixed: dict[int, int]) -> tuple:
    """Index tuple into a (2,)*n view; qubit q lives on axis n-1-q."""
    sel: list = [slice(None)] * n
    for q, v in fixed.items():
        sel[n - 1 - q] = v
    return tuple(sel)


def _apply_gate(a: np.ndarray, n: int, g) -> None:
    v = a.reshape((2,) * n)
    k = g.kind
    if k == "Z":
        v[_ix(n, {g.targets[0]: 1})] *= -1.0
    elif k == "H":
        t = g.targets[0]
        i0, i1 = _ix(n, {t: 0}), _ix(n, {t: 1})
        a0, a1 = v[i0].copy(), v[i1].copy()
        s = 1.0 / math.sqrt(2.0)
        v[i0] = (a0 + a1) * s
        v[i1] = (a0 - a1) * s
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
        m = g.params
        block = a.reshape(1 << (n - lo - w), d, 1 << lo)
        np.einsum("vw,awc->avc", m, block.copy(), out=block)
    else:
        raise BadParam(f"unknown gate kind {k}")


def apply_dense(state: Statevector, circuit: Circuit) -> Statevector:
    """Run the gate list left to right on a copy of the dense vector."""
    n = circuit.layout.total_qubits
    if state.amps.shape[0] != (1 << n):
        raise DimMismatch(
            f"state has {state.amps.shape[0]} amplitudes, layout wants {1 << n}"
        )
    a = state.amps.copy()
    for g in circuit.gates:
        _apply_gate(a, n, g)
    return Statevector(a)


def inverse(circuit: Circuit) -> Circuit:
    """The gates reversed, each inverted: a matrix conjugate-transposed."""
    inv = []
    for g in reversed(circuit.gates):
        if g.kind in _SELF_INVERSE:
            inv.append(g)
        elif g.kind == "REGU":
            inv.append(regu(g.params.conj().T, g.targets))
        else:
            raise BadParam(f"unknown gate kind {g.kind}")
    return Circuit(circuit.layout, inv)
