"""Register encodings of fermionic states.

Two disciplines share one register layout (width b = ceil(log2(M+2)),
orbitals 1..M, value 0 unused, all-ones sentinel read as "empty slot"):

- sorted-list: occupied orbitals ascending in the leading registers,
  sentinel padding after; one basis component per determinant.
- first-quantized: N registers, fully antisymmetrized with the 1/sqrt(N!)
  normalization; the ascending component carries a plus sign.

An EncodedState is a component list, so a determinant costs its N! or one
components, never the 2^n amplitudes of its register space. Validation and
the relabel to occupation masks (what the Fock bridges scatter) live here, so
the circuit layer can be checked against the Fock oracle without either side
importing the other.
Every rule is an array check over one decode of the register values;
antisymmetry lists at most one violation per leading register.
"""

from __future__ import annotations

import math
import re
import weakref
from dataclasses import dataclass

import numpy as np

from .circuits import PACKED_CAP, RegisterLayout, Statevector, build_layout, check_branches
from .errors import (
    BadParam,
    CapExceeded,
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


class EncodedState:
    """A register state as a component list plus the metadata to read it.

    keys are sorted, unique int64 basis indices and amps their exact-nonzero
    amplitudes; both are read-only. A state costs its components, so layouts
    up to PACKED_CAP qubits are held; the dense view ``state`` refuses past
    QUBIT_CAP when accessed. The positional constructor scans a dense
    Statevector once; library code calls ``from_components``.
    """

    def __init__(
        self, state: Statevector, discipline: str, layout: RegisterLayout, N: int | None = None
    ):
        if state.n_qubits != layout.total_qubits:
            raise BadParam("statevector size disagrees with layout")
        self._store(*state.components(), discipline, layout, N)

    @classmethod
    def from_components(
        cls, keys, amps, discipline: str, layout: RegisterLayout, N: int | None = None
    ) -> "EncodedState":
        """sum_k amps[k] |keys[k]> from distinct keys inside the layout, in any
        order. Layouts past PACKED_CAP qubits raise CapExceeded."""
        if layout.total_qubits > PACKED_CAP:
            raise CapExceeded(f"{layout.total_qubits} qubits > packed-index cap {PACKED_CAP}")
        order = np.argsort(keys)
        keys, amps = np.asarray(keys, np.int64)[order], np.asarray(amps, complex)[order]
        if np.any(keys[1:] == keys[:-1]) or np.any(keys >> layout.total_qubits):
            raise BadParam("component keys must be distinct and inside the layout")
        enc = cls.__new__(cls)
        enc._store(keys, amps, discipline, layout, N)
        return enc

    def _store(self, keys, amps, discipline, layout, N) -> None:
        if discipline not in (SORTED_LIST, FIRST_QUANTIZED):
            raise BadParam(f"unknown discipline {discipline!r}")
        nonzero = amps != 0
        self.keys, self.amps = keys[nonzero], amps[nonzero]  # copies, then frozen
        self.keys.setflags(write=False)
        self.amps.setflags(write=False)
        self.discipline, self.layout, self.N = discipline, layout, N
        self._dense = None  # weak reference to the last dense view's amps

    @property
    def M(self) -> int:
        return self.layout.M

    @property
    def state(self) -> Statevector:
        """Dense view with read-only amps, built on demand. Accesses share
        one vector while a caller still holds it; the state never keeps it."""
        amps = self._dense and self._dense()
        if amps is None:
            amps = Statevector.from_components(self.layout.total_qubits, self.keys, self.amps).amps
            amps.setflags(write=False)
            self._dense = weakref.ref(amps)
        return Statevector(amps)


def encode_sorted_list(x: OccupationBitstring, n_reg: int, n_anc: int = 0) -> EncodedState:
    """Basis state |i1,...,iN, inf, ..., inf> with ascending occupied orbitals."""
    if x.N > n_reg:
        raise TooManyElectrons(f"{x.N} electrons but only {n_reg} registers")
    layout = build_layout(x.M, n_reg, n_anc)
    values = list(x.indices()) + [layout.sentinel] * (n_reg - x.N)
    key = layout.basis_index(values)
    return EncodedState.from_components([key], [1.0], SORTED_LIST, layout, x.N)


def encode_first_quantized_determinant(x: OccupationBitstring) -> EncodedState:
    """Antisymmetrized sum over all orderings, amplitude sgn(perm)/sqrt(N!)."""
    if x.N < 1:
        raise BadParam("first-quantized encoding needs N >= 1")
    layout = build_layout(x.M, x.N)
    N, b = x.N, layout.b
    check_branches(math.factorial(N), "N! orderings")  # before they are built
    # Insert the orbitals in ascending order, so each is the largest yet: put
    # into register j of k, it shifts registers j..k-1 up one and precedes
    # k - j smaller orbitals, one inversion each.
    keys, signs = np.zeros(1, np.int64), np.ones(1, np.int64)
    for k, orbital in enumerate(x.indices()):
        j = np.arange(k + 1, dtype=np.int64)[:, None]
        low = (np.int64(1) << j * b) - 1
        keys = ((keys & low) | (orbital << j * b) | ((keys & ~low) << b)).ravel()
        signs = (signs * (1 - 2 * ((k - j) & 1))).ravel()
    amps = (1.0 / math.sqrt(math.factorial(N))) * signs
    return EncodedState.from_components(keys, amps, FIRST_QUANTIZED, layout, N)


# Rule codes and messages. A component reports set ancilla bits, else the rule its
# leftmost offending register breaks (lowest code first), else a repeated orbital.
_ANCILLA, _AFTER_SENTINEL, _OUTSIDE, _NOT_ASCENDING, _REPEATED = 1, 2, 3, 4, 5
_RULES = {
    _ANCILLA: "ancilla bits set",
    _AFTER_SENTINEL: "value {v} after a sentinel in {values}",
    _OUTSIDE: "register value {v} outside 1..{M}",
    _NOT_ASCENDING: "values not strictly ascending in {values}",
    _REPEATED: "repeated orbital in {values}",
}


def _component_violations(keys, values, discipline, layout) -> list:
    """(key, values, message) for each of keys that breaks a rule of the
    discipline, in key order; values is layout.decode(keys)."""
    real = values != layout.sentinel
    outside = (values < 1) | (values > layout.M)
    # first-quantized registers break only the range rule; unknown ones none
    code = outside * (_OUTSIDE * (discipline == FIRST_QUANTIZED))
    if discipline == SORTED_LIST:
        down = np.zeros(values.shape, bool)
        down[:, 1:] = values[:, 1:] <= values[:, :-1]
        after = real > np.minimum.accumulate(real, axis=1)  # a sentinel to the left
        code = np.where(after, _AFTER_SENTINEL,
                        real * np.where(outside, _OUTSIDE, down * _NOT_ASCENDING))
    rule, reg = np.zeros((2, len(keys)), np.int64)
    if code.any():
        reg = np.argmax(code != 0, axis=1)
        rule = code[np.arange(len(keys)), reg]
    if discipline == FIRST_QUANTIZED:
        ordered = np.sort(values, axis=1)
        rule[(rule == 0) & np.any(ordered[:, 1:] == ordered[:, :-1], axis=1)] = _REPEATED
    if layout.n_anc:  # keys fit the layout, so without ancillas none is set
        rule[keys >> (layout.n_reg * layout.b) != 0] = _ANCILLA
    out = []
    for k in np.flatnonzero(rule):
        vals = tuple(values[k].tolist())
        msg = _RULES[rule[k]].format(v=vals[reg[k]], values=vals, M=layout.M)
        out.append((int(keys[k]), vals, msg))
    return out


def decode_basis_component(component: int, discipline: str, layout: RegisterLayout):
    """Read one basis index back into orbital language.

    Sorted-list components decode to an OccupationBitstring; first-quantized
    components decode to the tuple of register values. Ancilla bits must be
    clear. Raises MalformedComponent with the rule validate reports for it.
    """
    if not 0 <= component < (1 << layout.total_qubits):
        raise MalformedComponent(f"index {component} outside the layout")
    keys = np.array([component], dtype=object)  # Python ints: any layout width
    decoded = layout.decode(keys)
    broken = _component_violations(keys, decoded, discipline, layout)
    if broken:
        raise MalformedComponent(broken[0][2])
    values = tuple(decoded[0].tolist())
    if discipline == FIRST_QUANTIZED:
        return values
    if discipline == SORTED_LIST:
        return OccupationBitstring.from_indices(
            layout.M, [v for v in values if v != layout.sentinel]
        )
    raise BadParam(f"unknown discipline {discipline!r}")


@dataclass
class ValidationReport:
    """Offending components paired with the rule each one breaks."""

    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations

    def require(self, error: type, message: str) -> None:
        """Raise error(message) unless ok; message may name the {count} of
        violations and the {first} one's rule."""
        if self.violations:
            raise error(message.format(count=len(self.violations), first=self.violations[0][2]))


def validate(enc: EncodedState) -> ValidationReport:
    """Check every nonzero component against its discipline's invariants.

    Sorted-list: values strictly ascending, sentinels only as a suffix.
    First-quantized: values are distinct orbitals and amplitudes change
    sign under every register transposition (checked pairwise at 1e-10).

    Every rule is an array check over one decode of the register values.
    Violations come in key order. Antisymmetry, checked only when no
    component breaks a rule, takes one gather of the swapped keys per
    register pair and lists at most one violation per leading register r:
    the smallest key that breaks the first pair (r, s) any key breaks.
    """
    return ValidationReport(_checked_components(enc)[2])


def _checked_components(enc: EncodedState) -> tuple:
    """Amplitudes above AMP_THRESHOLD, their register values, validate's violations."""
    layout = enc.layout
    above = np.abs(enc.amps) > AMP_THRESHOLD
    keys, amps = enc.keys[above], enc.amps[above]
    values = layout.decode(keys)
    violations = _component_violations(keys, values, enc.discipline, layout)
    if enc.discipline == FIRST_QUANTIZED and not violations:
        for r in range(layout.n_reg):
            for s in range(r + 1, layout.n_reg):
                d = values[:, r] ^ values[:, s]
                swapped = keys ^ (d << (r * layout.b)) ^ (d << (s * layout.b))
                # look the partners up in the whole list: a missing key reads 0
                at = np.minimum(np.searchsorted(enc.keys, swapped), len(enc.keys) - 1)
                partner = np.where(enc.keys[at] == swapped, enc.amps[at], 0)
                bad = np.flatnonzero(np.abs(partner + amps) > 1e-10)
                if len(bad):
                    msg = f"amplitude not antisymmetric under registers {r},{s}"
                    violations.append((int(keys[bad[0]]), tuple(values[bad[0]].tolist()), msg))
                    break
    return amps, values, violations


def with_ancillas(enc: EncodedState, n_anc: int) -> EncodedState:
    """Same state on a layout with at least n_anc clear ancillas."""
    if enc.layout.n_anc >= n_anc:
        return enc
    # old ancillas (if any) sit below the new ones, so every key carries over
    new_layout = build_layout(enc.M, enc.layout.n_reg, n_anc)
    return EncodedState.from_components(enc.keys, enc.amps, enc.discipline, new_layout, enc.N)


def drop_clear_ancillas(enc: EncodedState) -> EncodedState:
    """Strip ancilla qubits, requiring all amplitude mass at ancilla = 0."""
    layout = enc.layout
    if layout.n_anc == 0:
        return enc
    clear = enc.keys >> (layout.n_reg * layout.b) == 0
    tail = np.linalg.norm(enc.amps[~clear])
    if tail > 1e-10:
        raise BadParam(f"ancillas carry amplitude {tail:.2e}")
    new_layout = build_layout(layout.M, layout.n_reg, 0)
    return EncodedState.from_components(
        enc.keys[clear], enc.amps[clear], enc.discipline, new_layout, enc.N
    )


# --- bridges to the dense Fock oracle ------------------------------------


def occupation_components(enc: EncodedState) -> tuple[np.ndarray, np.ndarray]:
    """int64 occupation masks (bit p-1 for orbital p) of the state's
    determinants and their Fock coefficients: sorted-list states drop clear
    ancillas first, and a first-quantized determinant is read off its
    ascending component times sqrt(N!). Raises what the bridges raise for a
    malformed state, then CapExceeded past PACKED_CAP orbitals."""
    sorted_list = enc.discipline == SORTED_LIST
    if sorted_list:
        enc = drop_clear_ancillas(enc)
    amps, values, violations = _checked_components(enc)
    error = MalformedComponent if sorted_list else NotAntisymmetric
    ValidationReport(violations).require(error, "{count} invalid components: {first}")
    if enc.M > PACKED_CAP:
        raise CapExceeded(f"M={enc.M} orbitals > packed-mask cap {PACKED_CAP}")
    if sorted_list:
        bits = np.where(values != enc.layout.sentinel, 1 << (values - 1), 0)
        return np.bitwise_or.reduce(bits, axis=1), amps
    up = np.all(values[:, 1:] >= values[:, :-1], axis=1)
    scale = math.sqrt(math.factorial(enc.layout.n_reg))
    return np.bitwise_or.reduce(1 << (values[up] - 1), axis=1), scale * amps[up]


def sorted_list_to_fock(enc: EncodedState) -> np.ndarray:
    """Map a sorted-list state to the 2^M occupation-mask vector."""
    return _fock_vector(enc, SORTED_LIST)


def first_quantized_to_fock(enc: EncodedState) -> np.ndarray:
    """Map an antisymmetric first-quantized state to the 2^M Fock vector."""
    return _fock_vector(enc, FIRST_QUANTIZED)


def _fock_vector(enc: EncodedState, discipline: str) -> np.ndarray:
    if enc.discipline != discipline:
        raise DisciplineMismatch(f"expected a {discipline} state")
    masks, amps = occupation_components(enc)
    fock = Statevector.from_components(enc.M, (), ()).amps
    fock[masks] += amps  # masks are distinct
    return fock
