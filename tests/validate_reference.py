"""Per-component validation and Fock bridges: the reference the array code is pinned against.

These are the loops ``encodings`` ran before its rules became array checks
over one register decode: every component is decoded with
``layout.values`` and judged on its own, and the antisymmetry check swaps
registers one component at a time with ``with_reg``.
``with_ancillas`` widens a state's ancilla block for tests that need one.
"""

import math

import numpy as np

from fermiconv import OccupationBitstring, Statevector
from fermiconv.circuits import build_layout
from fermiconv.encodings import (
    AMP_THRESHOLD,
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    drop_clear_ancillas,
)
from fermiconv.errors import (
    BadParam,
    DisciplineMismatch,
    MalformedComponent,
    NotAntisymmetric,
)


def decode_basis_component(component, discipline, layout):
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


def with_reg(layout, basis_index: int, i: int, value: int) -> int:
    """basis_index with register i set to value."""
    shift = i * layout.b
    return (basis_index & ~(layout.sentinel << shift)) | (value << shift)


def validate_violations(enc):
    """The violations list validate reports, built one component at a time."""
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
        for r in range(layout.n_reg):
            for s in range(r + 1, layout.n_reg):
                for comp in nz:
                    comp = int(comp)
                    vr = layout.reg_value(comp, r)
                    vs = layout.reg_value(comp, s)
                    swapped = with_reg(layout, with_reg(layout, comp, r, vs), s, vr)
                    if abs(amps[swapped] + amps[comp]) > 1e-10:
                        violations.append(
                            (comp, layout.values(comp),
                             f"amplitude not antisymmetric under registers {r},{s}")
                        )
                        break
                else:
                    continue
                break
    return violations


def sorted_list_to_fock(enc):
    if enc.discipline != SORTED_LIST:
        raise DisciplineMismatch("expected a sorted-list state")
    enc = drop_clear_ancillas(enc)
    violations = validate_violations(enc)
    if violations:
        raise MalformedComponent(f"{len(violations)} invalid components: "
                                 f"{violations[0][2]}")
    fock = Statevector.from_components(enc.M, (), ()).amps
    amps = enc.state.amps
    for comp in np.nonzero(np.abs(amps) > AMP_THRESHOLD)[0]:
        x = decode_basis_component(int(comp), SORTED_LIST, enc.layout)
        fock[x.mask] += amps[comp]
    return fock


def first_quantized_to_fock(enc):
    if enc.discipline != FIRST_QUANTIZED:
        raise DisciplineMismatch("expected a first-quantized state")
    violations = validate_violations(enc)
    if violations:
        raise NotAntisymmetric(f"{len(violations)} invalid components: "
                               f"{violations[0][2]}")
    layout = enc.layout
    scale = math.sqrt(math.factorial(layout.n_reg))
    fock = Statevector.from_components(enc.M, (), ()).amps
    amps = enc.state.amps
    for comp in np.nonzero(np.abs(amps) > AMP_THRESHOLD)[0]:
        values = layout.values(int(comp))
        if list(values) != sorted(values):
            continue
        mask = sum(1 << (v - 1) for v in values)
        fock[mask] += scale * amps[comp]
    return fock


def with_ancillas(enc, n_anc):
    """Same state on a layout with at least n_anc clear ancillas."""
    if enc.layout.n_anc >= n_anc:
        return enc
    # old ancillas (if any) sit below the new ones, so every key carries over
    new_layout = build_layout(enc.M, enc.layout.n_reg, n_anc)
    return EncodedState.from_components(enc.keys, enc.amps, enc.discipline, new_layout, enc.N)
