"""Majorana and ladder operators on sorted-list registers.

A Majorana index mu in 1..2M acts on orbital p = ceil(mu/2). Both flavors
share one permutation piece, the occupancy toggle ("bit flip"), and differ
only in how far the rank phase reaches:

    mu = 2p-1:      toggle(p) after phase (-1)^(#values <= p-1), scalar 1
    mu = 2p:        toggle(p) after phase (-1)^(#values <= p),  scalar i

On occupation masks this reproduces the Jordan-Wigner strings
gamma_{2p-1}|x> = (-1)^(sum_{q<p} x_q) |x ^ e_p> and
gamma_{2p}|x> = i (-1)^(sum_{q<=p} x_q) |x ^ e_p>, from which
a_p^dag = (gamma_{2p-1} - i gamma_{2p})/2 and a_p = (gamma_{2p-1} + i gamma_{2p})/2.

The toggle keeps the list sorted by bubbling: values above p shift one
register toward the tail when p enters, or one toward the head when p
leaves, and the tail register trades p against the sentinel in between.
A single circuit serves both directions because each bubble stage and the
trade are involutions conditioned on exchange-symmetric predicates.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit, Gate, Program, build_layout, compile_circuit, sparse_action, z,
)
from .comparators import _le_gates, bubble_gates, swap_values_circuit
from .encodings import (
    SORTED_LIST,
    AMP_THRESHOLD,
    EncodedState,
)
from .errors import BadConstant, BadParam, DisciplineMismatch, NoSlack

N_WORK_ANCILLAS = 3  # bubble predicate needs (equal, greater, flag)


def sgn_rank_circuit(layout, p: int, anc: int) -> Circuit:
    """Phase (-1)^(#registers with value <= p); p = 0 is the identity.

    One shared ancilla is computed, Z-kicked, and uncomputed per register.
    Sentinels never count: they exceed every p <= M.
    """
    if not 0 <= p <= layout.M:
        raise BadConstant(f"rank constant {p} not in 0..{layout.M}")
    circ = Circuit(layout)
    if p == 0:
        return circ
    for r in range(layout.n_reg):
        le = _le_gates(layout, r, p, anc)
        circ.extend(le + [z(anc)] + le)
    return circ


def bit_flip_circuit(layout, p: int, ancs) -> Circuit:
    """Toggle occupancy of orbital p on every sorted-list basis state.

    Left-to-right bubble stages carry an occupied p to the tail register,
    the tail register swaps p against the sentinel, and the mirrored
    right-to-left stages carry a freshly created p into its slot. On any
    input, exactly one of the two bubble passes acts.

    No-slack inputs (p absent, every register occupied) are silently fixed
    points of this circuit; apply_ladder screens them out beforehand.
    """
    if not 1 <= p <= layout.M:
        raise BadConstant(f"orbital {p} not in 1..{layout.M}")
    gates: list[Gate] = []
    for r in range(layout.n_reg - 1):
        gates += bubble_gates(layout, r, r + 1, p, ancs)
    gates += swap_values_circuit(
        layout, layout.n_reg - 1, p, layout.sentinel, ancs[0]
    ).gates
    for r in range(layout.n_reg - 2, -1, -1):
        gates += bubble_gates(layout, r, r + 1, p, ancs)
    return Circuit(layout, gates)


@dataclass(frozen=True)
class ScaledCircuit:
    """A circuit together with a scalar prefactor (|scalar| = 1 here)."""

    circuit: Circuit
    scalar: complex


def majorana_circuit(layout, mu: int) -> ScaledCircuit:
    """Majorana operator mu in 1..2M as a phase circuit plus toggle."""
    if not 1 <= mu <= 2 * layout.M:
        raise BadParam(f"Majorana index {mu} not in 1..{2 * layout.M}")
    if layout.n_anc < N_WORK_ANCILLAS:
        raise BadParam(f"need {N_WORK_ANCILLAS} work ancillas")
    ancs = tuple(layout.anc_qubit(j) for j in range(N_WORK_ANCILLAS))
    p = (mu + 1) // 2
    rank_to = p - 1 if mu % 2 else p
    scalar = 1.0 + 0.0j if mu % 2 else 1.0j
    circ = sgn_rank_circuit(layout, rank_to, ancs[0]) + bit_flip_circuit(layout, p, ancs)
    return ScaledCircuit(circ, scalar)


@functools.lru_cache(maxsize=64)
def _majorana_program(layout, mu: int) -> tuple[Program, complex]:
    """majorana_circuit compiled, with its scalar."""
    g = majorana_circuit(layout, mu)
    return compile_circuit(g.circuit), g.scalar


def apply_ladder(enc: EncodedState, p: int, kind: str) -> EncodedState:
    """a_p (kind='annihilate') or a_p^dag (kind='create') on a sorted-list
    state, as the half sum/difference of the two Majorana branches.

    The output is not renormalized: annihilating an empty orbital or
    creating an occupied one yields amplitude 0 on that component. Inputs
    where orbital p is absent and no sentinel register remains cannot be
    toggled reversibly and raise NoSlack (the circuit would silently fix
    such components, for either kind).
    """
    if enc.discipline != SORTED_LIST:
        raise DisciplineMismatch("ladder circuits act on sorted-list states")
    if kind not in ("create", "annihilate"):
        raise BadParam(f"kind {kind!r} not create/annihilate")
    if not 1 <= p <= enc.M:
        raise BadConstant(f"orbital {p} not in 1..{enc.M}")
    layout = enc.layout
    keys = enc.keys[np.abs(enc.amps) > AMP_THRESHOLD]
    values = layout.decode(keys)
    # every register occupied and none holding p: no slack to toggle p into
    bad = keys[np.all(values != layout.sentinel, axis=1) & np.all(values != p, axis=1)]
    if len(bad):
        raise NoSlack(
            f"{len(bad)} components have all {layout.n_reg} registers "
            f"occupied without orbital {p}; first: {layout.values(int(bad[0]))}"
        )
    # the input's indices stay valid on the work layout: any ancillas it
    # already carries sit at the bottom of the work ancillas
    work = layout
    if layout.n_anc < N_WORK_ANCILLAS:
        work = build_layout(enc.M, layout.n_reg, N_WORK_ANCILLAS)
    reg_bits = layout.n_reg * layout.b
    dirty = ((enc.keys >> np.int64(reg_bits)) & np.int64((1 << N_WORK_ANCILLAS) - 1)) != 0
    if np.linalg.norm(enc.amps[dirty]) > AMP_THRESHOLD:
        raise BadParam("the first three ancillas are work space and must start clear")
    odd, odd_scalar = _majorana_program(work, 2 * p - 1)
    even, even_scalar = _majorana_program(work, 2 * p)
    i1, a1 = sparse_action(odd, enc.keys, enc.amps)
    i2, a2 = sparse_action(even, enc.keys, enc.amps)
    # a_p^dag = (g1 - i g2)/2, a_p = (g1 + i g2)/2; the scalar i already
    # lives inside the even branch, so these reduce to half sum/difference.
    sign = -1j if kind == "create" else 1j
    keys, inverse = np.unique(np.concatenate([i1, i2]), return_inverse=True)
    out = np.zeros(len(keys), dtype=complex)
    np.add.at(out, inverse, np.concatenate(
        [0.5 * odd_scalar * a1, 0.5 * sign * even_scalar * a2]
    ))
    inside = keys < (1 << layout.total_qubits)
    spill = np.linalg.norm(out[~inside])
    if spill > 1e-10:
        raise BadParam(f"work ancillas kept amplitude {spill:.2e}")
    n = None
    if enc.N is not None:
        n = enc.N + 1 if kind == "create" else enc.N - 1
    return EncodedState.from_components(keys[inside], out[inside], SORTED_LIST, layout, n)
