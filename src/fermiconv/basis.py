"""Register-wise single-particle basis changes on first-quantized states.

A square unitary U over orbital labels lifts to the register encoding as
the same single-register matrix applied to every register: the orbital
value kets transform as |q> -> sum_p U[p-1, q-1] |p> (rows index the new
basis), while the index 0 and the sentinel are pinned to themselves so the
padded matrix stays unitary on the full 2^b register space. Antisymmetry
commutes with identical per-register rotations, so validity is preserved.

The discrete Fourier transform is the special case used to hop between a
plane-wave-like basis and its dual; isometric rectangular tables (e.g.
molecular orbitals written in a larger primitive basis) are completed to
square unitaries deterministically before lifting.
"""

from __future__ import annotations

import numpy as np

from .circuits import Circuit, GateCount, count_gates, regu, sparse_action
from .encodings import FIRST_QUANTIZED, EncodedState, validate
from .errors import (
    BadDimension,
    BadParam,
    DisciplineMismatch,
    NotAntisymmetric,
    NotIsometry,
    NotUnitary,
)

UNITARY_TOL = 1e-10
ISOMETRY_TOL = 1e-8


class BasisMatrix:
    """A square orbital-space unitary plus its rectangular provenance.

    core is D x D with D = max(m1, m2); rows index the new basis. The
    padded(b) embedding acts as core on register values 1..D and as the
    identity on 0, the sentinel, and anything else out of range.
    """

    def __init__(self, core: np.ndarray, m1: int | None = None, m2: int | None = None):
        core = np.asarray(core, dtype=complex)
        if core.ndim != 2 or core.shape[0] != core.shape[1]:
            raise BadParam("core must be square")
        D = core.shape[0]
        if not np.isfinite(core).all():  # the SVD behind the norm would not converge
            raise NotUnitary("core has a non-finite entry")
        if np.linalg.norm(core.conj().T @ core - np.eye(D), ord=2) > UNITARY_TOL:
            raise NotUnitary(f"core fails unitarity at {UNITARY_TOL}")
        self.core = core
        self.m1 = D if m1 is None else m1
        self.m2 = D if m2 is None else m2

    @property
    def dim(self) -> int:
        return self.core.shape[0]

    def padded(self, b: int) -> np.ndarray:
        d = 1 << b
        if self.dim > d - 2:
            raise BadDimension(
                f"core dimension {self.dim} does not fit {b}-bit registers"
            )
        out = np.eye(d, dtype=complex)
        out[1 : self.dim + 1, 1 : self.dim + 1] = self.core
        return out


def register_transform_circuit(layout, U: BasisMatrix) -> Circuit:
    """One padded register unitary per register."""
    mat = U.padded(layout.b)
    circ = Circuit(layout)
    for r in range(layout.n_reg):
        circ.add(regu(mat, tuple(layout.register_qubits(r))))
    return circ


def apply_register_transform(enc: EncodedState, U) -> tuple[EncodedState, GateCount]:
    """Rotate every register of a first-quantized state by U.

    U may be a BasisMatrix or a bare square unitary over orbitals 1..dim;
    dim must not exceed M so rotated values stay inside 1..M. The result is
    re-validated: identical per-register rotations must keep antisymmetry.
    """
    if enc.discipline != FIRST_QUANTIZED:
        raise DisciplineMismatch("register transforms act on first-quantized states")
    if not isinstance(U, BasisMatrix):
        U = BasisMatrix(U)
    if U.dim > enc.M:
        raise BadDimension(f"core dimension {U.dim} exceeds M={enc.M}")
    circ = register_transform_circuit(enc.layout, U)
    keys, amps = sparse_action(circ, enc.keys, enc.amps)
    result = EncodedState.from_components(keys, amps, FIRST_QUANTIZED, enc.layout, enc.N)
    validate(result).require(NotAntisymmetric, "transform broke the encoding: {first}")
    return result, count_gates(circ)


def dft_matrix(M: int, inverse: bool = False) -> np.ndarray:
    """M-point discrete Fourier transform over orbital labels.

    Orbital p maps to frequency index p-1; entry (j, k) is
    exp(+-2 pi i j k / M) / sqrt(M).
    """
    j, k = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * j * k / M) / np.sqrt(M)


def qft_register_transform(
    enc: EncodedState, inverse: bool = False
) -> tuple[EncodedState, GateCount]:
    """Fourier-transform every register's orbital label.

    Requires M to be a power of two so the transform matches the in-place
    qubit QFT whose cost qft_gate_count reports; the dense semantics are
    exactly dft_matrix lifted by apply_register_transform.
    """
    M = enc.M
    if M & (M - 1):
        raise BadDimension(f"M={M} is not a power of two")
    return apply_register_transform(enc, BasisMatrix(dft_matrix(M, inverse)))


def qft_gate_count(M: int, n_reg: int) -> GateCount:
    """Cost of n_reg approximate in-place label QFTs.

    Convention: an M = 2^L point transform costs L Hadamards and
    L * ceil(log2(L)) controlled phases (logarithmic-depth truncation of
    the rotation cascade); L = 1 needs a single Hadamard and no pairs.
    Reported separately from the dense matrix route, whose simulation cost
    count_gates books as register_unitary_dim_sum instead.
    """
    if M < 2 or (M & (M - 1)):
        raise BadDimension(f"M={M} is not a power of two >= 2")
    L = M.bit_length() - 1
    pairs = L * int(np.ceil(np.log2(L))) if L > 1 else 0
    return GateCount(
        toffoli_equiv=0,
        cnot=n_reg * pairs,
        single_qubit=n_reg * L,
        register_unitary_dim_sum=0,
    )


def mo_to_pw_matrix(table: np.ndarray) -> BasisMatrix:
    """Complete an isometric m1 x m2 coefficient table to a square unitary.

    Rows must be orthonormal at 1e-8 (NotIsometry otherwise). Completion is
    deterministic: canonical basis vectors e_0, e_1, ... are orthogonalized
    against the accepted rows in index order and kept when their residual
    norm clears 1e-6. The top m1 rows of the result equal the input.
    """
    table = np.asarray(table, dtype=complex)
    if table.ndim != 2:
        raise BadParam("expected a 2d coefficient table")
    m1, m2 = table.shape
    if m1 > m2:
        raise NotIsometry(f"{m1} rows cannot be orthonormal in dimension {m2}")
    gram = table @ table.conj().T
    if np.max(np.abs(gram - np.eye(m1))) > ISOMETRY_TOL:
        raise NotIsometry(f"rows not orthonormal at {ISOMETRY_TOL}")
    rows = [table[i] for i in range(m1)]
    for k in range(m2):
        if len(rows) == m2:
            break
        cand = np.zeros(m2, dtype=complex)
        cand[k] = 1.0
        for _ in range(2):  # twice for numerical hygiene
            for r in rows:
                cand = cand - np.vdot(r, cand) * r
        nrm = np.linalg.norm(cand)
        if nrm > 1e-6:
            rows.append(cand / nrm)
    if len(rows) != m2:
        raise NotIsometry("completion failed to span the target space")
    return BasisMatrix(np.vstack(rows), m1=m1, m2=m2)


def write_basis_matrix(bm: BasisMatrix) -> str:
    """Serialize the rectangular table: DIM header then row-major re/im pairs."""
    lines = [f"DIM {bm.m1} {bm.m2}"]
    for row in bm.core[: bm.m1]:
        lines.append(
            " ".join(f"{float(zv.real)!r} {float(zv.imag)!r}" for zv in row[: bm.m2])
        )
    return "\n".join(lines) + "\n"


def _number(tok: str, kind):
    try:
        return kind(tok)
    except ValueError:
        raise BadParam(f"non-numeric token {tok!r} in basis matrix file") from None


def read_basis_matrix(text: str) -> BasisMatrix:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("DIM "):
        raise BadParam("missing DIM header")
    tok = lines[0].split()
    if len(tok) != 3:
        raise BadParam(f"bad DIM header: {lines[0]!r}")
    m1, m2 = (_number(t, int) for t in tok[1:])
    if min(m1, m2) < 1:
        raise BadParam(f"bad DIM header: {lines[0]!r}")
    flat = " ".join(lines[1:]).split()
    if len(flat) != 2 * m1 * m2:
        raise BadParam(
            f"expected {2 * m1 * m2} numbers for a {m1} x {m2} table, got {len(flat)}"
        )
    vals = np.array([_number(t, float) for t in flat], dtype=float)
    if not np.isfinite(vals).all():
        raise BadParam("non-finite entry in basis matrix file")
    table = (vals[0::2] + 1j * vals[1::2]).reshape(m1, m2)
    if m1 == m2:
        return BasisMatrix(table)
    return mo_to_pw_matrix(table)
