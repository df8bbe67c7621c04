"""Majorana and ladder operators on sorted-list registers.

A Majorana index mu in 1..2M acts on orbital p = ceil(mu/2). Both flavors
share one permutation piece, the occupancy toggle ("bit flip"), and differ
only in how far the rank phase reaches:

    mu = 2p-1:      toggle(p) after phase (-1)^(#values <= p-1), scalar 1
    mu = 2p:        toggle(p) after phase (-1)^(#values <= p),  scalar i

On occupation masks this reproduces the Jordan-Wigner strings
gamma_{2p-1}|x> = (-1)^(sum_{q<p} x_q) |x ^ e_p> and
gamma_{2p}|x> = i (-1)^(sum_{q<=p} x_q) |x ^ e_p>, so gamma_{2p} =
i (-1)^(n_p) gamma_{2p-1} with n_p = x_p. A ladder thus runs one branch:
a_p^dag = (gamma_{2p-1} - i gamma_{2p})/2 = gamma_{2p-1} [n_p = 0] and
a_p = (gamma_{2p-1} + i gamma_{2p})/2 = gamma_{2p-1} [n_p = 1].

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
from .encodings import SORTED_LIST, AMP_THRESHOLD, EncodedState, validate
from .errors import BadConstant, BadParam, DisciplineMismatch, MalformedComponent, NoSlack

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
def _majorana_program(layout, mu: int) -> Program:
    """majorana_circuit compiled; its scalar is not kept."""
    return compile_circuit(majorana_circuit(layout, mu).circuit)


def apply_ladder(enc: EncodedState, p: int, kind: str) -> EncodedState:
    """a_p (kind='annihilate') or a_p^dag (kind='create') on a sorted-list
    state: the Majorana branch gamma_{2p-1} on the components kept.

    The projection keeps components without p (create) or with it
    (annihilate), as a_p^dag = gamma_{2p-1} [n_p = 0] and a_p =
    gamma_{2p-1} [n_p = 1]; the output is not renormalized. That identity
    needs n_p in {0, 1}, so the input is validated (MalformedComponent).
    Inputs where orbital p is absent and no sentinel register remains
    cannot be toggled reversibly and raise NoSlack (the circuit would
    silently fix such components, for either kind).
    """
    if enc.discipline != SORTED_LIST:
        raise DisciplineMismatch("ladder circuits act on sorted-list states")
    if kind not in ("create", "annihilate"):
        raise BadParam(f"kind {kind!r} not create/annihilate")
    if not 1 <= p <= enc.M:
        raise BadConstant(f"orbital {p} not in 1..{enc.M}")
    layout = enc.layout
    values = layout.decode(enc.keys)
    held = np.any(values == p, axis=1)
    # every register occupied and none holding p: no slack to toggle p into
    bad = enc.keys[(np.abs(enc.amps) > AMP_THRESHOLD) & ~held
                   & np.all(values != layout.sentinel, axis=1)]
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
    validate(enc).require(MalformedComponent, "{count} bad components; first: {first}")
    keep = held == (kind == "annihilate")
    keys, out = sparse_action(_majorana_program(work, 2 * p - 1), enc.keys[keep], enc.amps[keep])
    inside = keys < (1 << layout.total_qubits)
    spill = np.linalg.norm(out[~inside])
    if spill > 1e-10:
        raise BadParam(f"work ancillas kept amplitude {spill:.2e}")
    n = None if enc.N is None else enc.N + (1 if kind == "create" else -1)
    return EncodedState.from_components(keys[inside], out[inside], SORTED_LIST, layout, n)
