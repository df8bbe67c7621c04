"""Register encodings of fermionic states.

Two disciplines share one register layout (width b = ceil(log2(M+2)),
orbitals 1..M, value 0 unused, all-ones sentinel read as "empty slot"):

- sorted-list: occupied orbitals ascending in the leading registers,
  sentinel padding after; one basis component per determinant.
- first-quantized: N registers, fully antisymmetrized with the 1/sqrt(N!)
  normalization; the ascending component carries a plus sign.

Conversions between register states and dense 2^M Fock vectors live here
too so the circuit layer can be checked against the Fock oracle without
either side importing the other.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from itertools import permutations

import numpy as np

from .circuits import RegisterLayout, Statevector, build_layout
from .errors import (
    BadParam,
    DisciplineMismatch,
    MalformedComponent,
    NotAntisymmetric,
    TooManyElectrons,
)

SORTED_LIST = "sorted-list"
FIRST_QUANTIZED = "first-quantized"

AMP_THRESHOLD = 1e-12  # amplitudes below this are structurally zero


@dataclass(frozen=True)
class OccupationBitstring:
    """Set of occupied orbitals out of 1..M, stored as a mask (bit p-1)."""

    M: int
    mask: int

    def __post_init__(self):
        if self.M < 1:
            raise BadParam("M must be >= 1")
        if not 0 <= self.mask < (1 << self.M):
            raise BadParam(f"mask {self.mask} outside 0..2^{self.M}-1")

    @classmethod
    def from_indices(cls, M: int, indices) -> "OccupationBitstring":
        mask = 0
        for p in indices:
            if not 1 <= p <= M:
                raise BadParam(f"orbital {p} outside 1..{M}")
            if mask & (1 << (p - 1)):
                raise BadParam(f"orbital {p} repeated")
            mask |= 1 << (p - 1)
        return cls(M, mask)

    @property
    def N(self) -> int:
        return bin(self.mask).count("1")

    def indices(self) -> tuple[int, ...]:
        return tuple(p for p in range(1, self.M + 1) if self.mask & (1 << (p - 1)))

    def to_text(self) -> str:
        return f"M={self.M} occ={{{','.join(str(p) for p in self.indices())}}}"

    @classmethod
    def from_text(cls, text: str) -> "OccupationBitstring":
        m = re.fullmatch(r"M=(\d+) occ=\{([\d,\s]*)\}", text.strip())
        if not m:
            raise BadParam(f"bad occupation text: {text!r}")
        M = int(m.group(1))
        body = m.group(2).strip()
        idx = [int(t) for t in body.split(",")] if body else []
        return cls.from_indices(M, idx)


@dataclass
class EncodedState:
    """A statevector plus the metadata needed to interpret it."""

    state: Statevector
    discipline: str
    layout: RegisterLayout
    N: int | None = None

    def __post_init__(self):
        if self.discipline not in (SORTED_LIST, FIRST_QUANTIZED):
            raise BadParam(f"unknown discipline {self.discipline!r}")
        if self.state.n_qubits != self.layout.total_qubits:
            raise BadParam("statevector size disagrees with layout")

    @property
    def M(self) -> int:
        return self.layout.M

    def copy(self) -> "EncodedState":
        return EncodedState(self.state.copy(), self.discipline, self.layout, self.N)


def encode_sorted_list(x: OccupationBitstring, n_reg: int, n_anc: int = 0) -> EncodedState:
    """Basis state |i1,...,iN, inf, ..., inf> with ascending occupied orbitals."""
    if x.N > n_reg:
        raise TooManyElectrons(f"{x.N} electrons but only {n_reg} registers")
    layout = build_layout(x.M, n_reg, n_anc)
    values = list(x.indices()) + [layout.sentinel] * (n_reg - x.N)
    sv = Statevector.basis(layout, layout.basis_index(values))
    return EncodedState(sv, SORTED_LIST, layout, x.N)


def encode_first_quantized_determinant(x: OccupationBitstring) -> EncodedState:
    """Antisymmetrized sum over all orderings, amplitude sgn(perm)/sqrt(N!)."""
    if x.N < 1:
        raise BadParam("first-quantized encoding needs N >= 1")
    layout = build_layout(x.M, x.N)
    idx = x.indices()
    N = x.N
    amp = 1.0 / math.sqrt(math.factorial(N))
    sv = Statevector.from_components(layout.total_qubits, (), ())  # cap before N! loop
    for perm in permutations(range(N)):
        inv = sum(
            1 for a in range(N) for b in range(a + 1, N) if perm[a] > perm[b]
        )
        values = [idx[perm[r]] for r in range(N)]
        sv.amps[layout.basis_index(values)] = amp * (1 - 2 * (inv & 1))
    return EncodedState(sv, FIRST_QUANTIZED, layout, N)


def decode_basis_component(component: int, discipline: str, layout: RegisterLayout):
    """Read one basis index back into orbital language.

    Sorted-list components decode to an OccupationBitstring; first-quantized
    components decode to the tuple of register values. Ancilla bits must be
    clear. Raises MalformedComponent with the specific violated rule.
    """
    if not 0 <= component < (1 << layout.total_qubits):
        raise MalformedComponent(f"index {component} outside the layout")
    if component >> (layout.n_reg * layout.b):
        raise MalformedComponent("ancilla bits set")
    values = layout.values(component)
    sent = layout.sentinel
    if discipline == FIRST_QUANTIZED:
        for v in values:
            if not 1 <= v <= layout.M:
                raise MalformedComponent(f"register value {v} outside 1..{layout.M}")
        if len(set(values)) != len(values):
            raise MalformedComponent(f"repeated orbital in {values}")
        return values
    if discipline == SORTED_LIST:
        seen_sentinel = False
        occupied = []
        for v in values:
            if v == sent:
                seen_sentinel = True
                continue
            if seen_sentinel:
                raise MalformedComponent(f"value {v} after a sentinel in {values}")
            if not 1 <= v <= layout.M:
                raise MalformedComponent(f"register value {v} outside 1..{layout.M}")
            if occupied and v <= occupied[-1]:
                raise MalformedComponent(f"values not strictly ascending in {values}")
            occupied.append(v)
        return OccupationBitstring.from_indices(layout.M, occupied)
    raise BadParam(f"unknown discipline {discipline!r}")


@dataclass
class ValidationReport:
    """Offending components paired with the rule each one breaks."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def validate(enc: EncodedState) -> ValidationReport:
    """Check every nonzero component against its discipline's invariants.

    Sorted-list: values strictly ascending, sentinels only as a suffix.
    First-quantized: values are distinct orbitals and amplitudes change
    sign under every register transposition (checked pairwise at 1e-10).
    """
    layout = enc.layout
    amps = enc.state.amps
    nz = np.nonzero(np.abs(amps) > AMP_THRESHOLD)[0]
    violations = []
    for comp in nz:
        try:
            decode_basis_component(int(comp), enc.discipline, layout)
        except MalformedComponent as e:
            violations.append((int(comp), layout.values(int(comp)), str(e)))
    if enc.discipline == FIRST_QUANTIZED and not violations:
        b = layout.b
        for r in range(layout.n_reg):
            for s in range(r + 1, layout.n_reg):
                for comp in nz:
                    comp = int(comp)
                    vr = layout.reg_value(comp, r)
                    vs = layout.reg_value(comp, s)
                    swapped = layout.with_reg(layout.with_reg(comp, r, vs), s, vr)
                    if abs(amps[swapped] + amps[comp]) > 1e-10:
                        violations.append(
                            (comp, layout.values(comp),
                             f"amplitude not antisymmetric under registers {r},{s}")
                        )
                        break
                else:
                    continue
                break
    return ValidationReport(violations)


def with_ancillas(enc: EncodedState, n_anc: int) -> EncodedState:
    """Same state on a layout with at least n_anc clear ancillas."""
    if enc.layout.n_anc >= n_anc:
        return enc
    new_layout = build_layout(enc.M, enc.layout.n_reg, n_anc)
    old = enc.state.amps  # old ancillas (if any) sit below the new ones
    sv = Statevector.from_components(new_layout.total_qubits, (), ())
    sv.amps[: len(old)] = old
    return EncodedState(sv, enc.discipline, new_layout, enc.N)


def drop_clear_ancillas(enc: EncodedState, tol: float = 1e-10) -> EncodedState:
    """Strip ancilla qubits, requiring all amplitude mass at ancilla = 0."""
    layout = enc.layout
    if layout.n_anc == 0:
        return enc
    reg_dim = 1 << (layout.n_reg * layout.b)
    view = enc.state.amps.reshape(-1, reg_dim)
    tail = np.linalg.norm(view[1:])
    if tail > tol:
        raise BadParam(f"ancillas carry amplitude {tail:.2e}")
    new_layout = build_layout(layout.M, layout.n_reg, 0)
    return EncodedState(Statevector(view[0].copy()), enc.discipline, new_layout, enc.N)


# --- bridges to the dense Fock oracle ------------------------------------


def sorted_list_to_fock(enc: EncodedState) -> np.ndarray:
    """Map a sorted-list state to the 2^M occupation-mask vector.

    The encoding is basis-to-basis with unit phases, so this is a pure
    relabeling; ancilla bits must be clear.
    """
    if enc.discipline != SORTED_LIST:
        raise DisciplineMismatch("expected a sorted-list state")
    enc = drop_clear_ancillas(enc)
    rep = validate(enc)
    if not rep.ok:
        raise MalformedComponent(f"{len(rep.violations)} invalid components: "
                                 f"{rep.violations[0][2]}")
    fock = Statevector.from_components(enc.M, (), ()).amps
    amps = enc.state.amps
    for comp in np.nonzero(np.abs(amps) > AMP_THRESHOLD)[0]:
        x = decode_basis_component(int(comp), SORTED_LIST, enc.layout)
        fock[x.mask] += amps[comp]
    return fock


def first_quantized_to_fock(enc: EncodedState) -> np.ndarray:
    """Map an antisymmetric first-quantized state to the Fock vector.

    The ascending component of determinant x carries c_x / sqrt(N!), so the
    Fock coefficient is sqrt(N!) times that amplitude.
    """
    if enc.discipline != FIRST_QUANTIZED:
        raise DisciplineMismatch("expected a first-quantized state")
    rep = validate(enc)
    if not rep.ok:
        raise NotAntisymmetric(f"{len(rep.violations)} invalid components: "
                               f"{rep.violations[0][2]}")
    layout = enc.layout
    N = layout.n_reg
    scale = math.sqrt(math.factorial(N))
    fock = Statevector.from_components(enc.M, (), ()).amps
    amps = enc.state.amps
    for comp in np.nonzero(np.abs(amps) > AMP_THRESHOLD)[0]:
        values = layout.values(int(comp))
        if list(values) != sorted(values):
            continue  # each determinant read off its ascending component
        mask = sum(1 << (v - 1) for v in values)
        fock[mask] += scale * amps[comp]
    return fock
