"""Two-branch ladder operators: the reference ``majorana.apply_ladder`` is pinned against.

This is the ladder ``majorana`` ran before it used one Majorana branch:
a_p^dag = (gamma_{2p-1} - i gamma_{2p})/2 and a_p = (gamma_{2p-1} + i gamma_{2p})/2,
with both branches traced over the whole input and their outputs merged,
so that half of the sum cancels exactly. On valid sorted lists it must
give the same keys and equal amplitudes (signed zeros may differ: the merge
adds into +0.0), and it must refuse the same inputs with the same message.
It does not validate its input.
"""

from __future__ import annotations

import functools

import numpy as np

from fermiconv.circuits import Program, build_layout, compile_circuit, sparse_action
from fermiconv.encodings import AMP_THRESHOLD, SORTED_LIST, EncodedState
from fermiconv.errors import BadConstant, BadParam, DisciplineMismatch, NoSlack
from fermiconv.majorana import N_WORK_ANCILLAS, majorana_circuit


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
