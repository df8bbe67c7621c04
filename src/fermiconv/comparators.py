"""Reversible comparator and sorting-network primitives on value registers.

Everything here is a permutation-plus-phase circuit built from X / CNOT /
Toffoli / multi-controlled X / controlled-swap, so truth tables can be
checked exactly with the basis tracer. All predicates leave their source
registers unchanged unless the operation's contract is a swap.
"""

from __future__ import annotations

from .circuits import Circuit, Gate, RegisterLayout, cnot, cswap, cz, mcx, x, z
from .errors import BadConstant, BadParam


def _eq_gates(layout, reg, p, target) -> list[Gate]:
    """target ^= [value(reg) == p] via an X-sandwiched multi-controlled X."""
    qs = layout.register_qubits(reg)
    wrap = [x(q) for k, q in enumerate(qs) if not (p >> k) & 1]
    return [*wrap, mcx(qs, target), *wrap]


def _lt_gates(layout, reg, p, target) -> list[Gate]:
    """target ^= [value(reg) < p]; one mutually exclusive term per set bit.

    Term k fires when the register agrees with p above bit k and has a 0
    where p has its set bit k, i.e. k is the highest differing bit and the
    register loses there.
    """
    qs = layout.register_qubits(reg)
    flips = [x(q) for q in qs]
    gates: list[Gate] = []
    for k in reversed(range(layout.b)):
        if not (p >> k) & 1:
            continue
        wrap = [flips[m] for m in range(k + 1, layout.b) if not (p >> m) & 1]
        wrap.append(flips[k])
        gates += wrap
        gates.append(mcx(qs[k:], target))
        gates += wrap
    return gates


def _le_gates(layout, reg, p, target) -> list[Gate]:
    if p == layout.sentinel:
        return [x(target)]  # every value satisfies v <= all-ones
    return _lt_gates(layout, reg, p + 1, target)


def _gt_gates(layout, reg, p, target) -> list[Gate]:
    return [x(target)] + _le_gates(layout, reg, p, target)


def swap_values_circuit(layout, reg, a, b, anc) -> Circuit:
    """Exchange the constants a and b inside one register; other values fixed.

    One ancilla marks v in {a, b}; conditioned X gates apply v ^= (a xor b).
    The marker is erased by recomputing both equality tests on the swapped
    value, which preserves [v=a] xor [v=b].
    """
    if a == b:
        raise BadConstant("swap constants must differ")
    for c in (a, b):
        if not 0 <= c <= layout.sentinel:
            raise BadConstant(f"constant {c} wider than the register")
    mark = _eq_gates(layout, reg, a, anc) + _eq_gates(layout, reg, b, anc)
    qs = layout.register_qubits(reg)
    flips = [cnot(anc, q) for k, q in enumerate(qs) if ((a ^ b) >> k) & 1]
    return Circuit(layout, mark + flips + mark)


def bubble_gates(layout, reg_a, reg_b, p, ancs) -> list[Gate]:
    """Swap the registers iff one holds p and the other holds a value > p.

    The predicate is exchange-symmetric, so recomputing it after the swap
    clears the flag; all three ancillas (equal, greater, flag) end at 0.
    """
    e, g, flag = ancs

    def predicate(u, w):
        return (
            _eq_gates(layout, u, p, e)
            + _gt_gates(layout, w, p, g)
            + [mcx([e, g], flag)]
            + _gt_gates(layout, w, p, g)
            + _eq_gates(layout, u, p, e)
        )

    both = predicate(reg_a, reg_b) + predicate(reg_b, reg_a)
    qa, qb = layout.register_qubits(reg_a), layout.register_qubits(reg_b)
    swaps = [cswap(flag, a, c) for a, c in zip(qa, qb)]
    return both + swaps + both


def compute_greater_gates(layout, i, j, record) -> list[Gate]:
    """record ^= [value(i) > value(j)], registers restored.

    Register j is XORed with register i in place; the top set bit of the
    XOR locates the highest disagreement, and register i's bit there decides
    the winner. One mutually exclusive term per candidate position.
    """
    qi = layout.register_qubits(i)
    qj = layout.register_qubits(j)
    xor = list(map(cnot, qi, qj))
    flips = list(map(x, qj))
    gates = xor.copy()
    for k in reversed(range(layout.b)):
        wrap = flips[k + 1:]
        gates += wrap
        gates.append(mcx((*qj[k + 1:], qj[k], qi[k]), record))
        gates += wrap
    gates += xor
    return gates


def compare_swap_gates(
    layout,
    i,
    j,
    record,
    with_z: bool = True,
    exempt_anc: int | None = None,
) -> list[Gate]:
    """Record [value(i) > value(j)], optionally phase the swapped branch by
    -1, then conditionally exchange the registers (ascending). Ties never
    swap and never phase.

    An exempt_anc withholds the -1 when the greater value is the sentinel:
    that ancilla marks [value(i) = sentinel] and a CZ against the record
    cancels the plain Z on exactly those branches. Empty-slot routing is
    bookkeeping, not a fermion exchange.
    """
    gates = compute_greater_gates(layout, i, j, record)
    qi = layout.register_qubits(i)
    if with_z:
        if exempt_anc is not None:
            mark = mcx(qi, exempt_anc)
            gates += (mark, z(record), cz(record, exempt_anc), mark)
        else:
            gates.append(z(record))
    gates += [cswap(record, a, c) for a, c in zip(qi, layout.register_qubits(j))]
    return gates


def batcher_pairs(n: int) -> list[tuple[int, int]]:
    """Comparator schedule of Batcher's odd-even mergesort on n lanes.

    Valid for any n (not just powers of two); depth O(log^2 n), size
    O(n log^2 n). Each pair (i, j) with i < j orders lane i below lane j.
    """
    if n < 1:
        raise BadParam("need at least one lane")
    pairs: list[tuple[int, int]] = []
    p = 1
    while p < n:
        k = p
        while k >= 1:
            for j in range(k % p, n - k, 2 * k):
                for i in range(min(k, n - j - k)):
                    if (i + j) // (2 * p) == (i + j + k) // (2 * p):
                        pairs.append((i + j, i + j + k))
            k //= 2
        p *= 2
    return pairs


def batcher_size_bound(n: int) -> int:
    """Most comparators batcher_pairs(n) returns, without building them.

    (k^2 - k + 4) 2^(k-2) - 1 for k = ceil(log2 n): the size of Batcher's
    network on 2^k lanes (Knuth, TAOCP vol. 3, 5.3.4), which any n <= 2^k
    lanes do not exceed, with equality at n = 2^k.
    """
    k = (n - 1).bit_length()
    return ((k * k - k + 4) << k >> 2) - 1


def odd_even_transposition_pairs(n: int) -> list[tuple[int, int]]:
    """Adjacent-only comparator schedule: n alternating brick rounds.

    Size O(n^2), but every exchange is an adjacent transposition, so each
    swap of two orbital values changes the value-value inversion count by
    exactly one and a swap against a sentinel changes it by zero. That makes
    the accumulated -1-per-value-swap phase provably equal to the initial
    inversion parity, which the larger-stride schedule cannot guarantee
    when sentinels sit between the compared lanes.
    """
    if n < 1:
        raise BadParam("need at least one lane")
    pairs: list[tuple[int, int]] = []
    for r in range(n):
        start = r % 2
        pairs += [(i, i + 1) for i in range(start, n - 1, 2)]
    return pairs


def sorting_network_circuit(
    layout: RegisterLayout,
    pairs: list[tuple[int, int]],
    with_z: bool = True,
    exempt_anc: int | None = None,
) -> Circuit:
    """Sort the registers ascending along pairs, the schedule batcher_pairs or
    odd_even_transposition_pairs returns, comparator t recording in ancilla t.

    Sentinels order above every orbital value, so occupied values collect in
    the leading registers. With with_z each comparator phases its swapped
    branch by -1 (sentinel-exempt given exempt_anc, see compare_swap_gates).
    A lane or record ancilla past the layout raises BadParam.
    """
    gates: list[Gate] = []
    for t, (i, j) in enumerate(pairs):
        gates += compare_swap_gates(layout, i, j, layout.anc_qubit(t), with_z, exempt_anc)
    return Circuit(layout, gates)


def equality_flag_gates(layout, i, j, target) -> list[Gate]:
    """target ^= [value(i) == value(j)], registers restored.

    XOR register i into j, detect the all-zero pattern, undo.
    """
    qj = layout.register_qubits(j)
    xor = list(map(cnot, layout.register_qubits(i), qj))
    wrap = list(map(x, qj))
    return [*xor, *wrap, mcx(qj, target), *wrap, *xor]
