"""Reversible comparator and sorting-network primitives on value registers.

Everything here is a permutation-plus-phase circuit built from X / CNOT /
Toffoli / multi-controlled X / controlled-swap, so truth tables can be
checked exactly with the basis tracer. All predicates leave their source
registers unchanged unless the operation's contract is a swap.
"""

from __future__ import annotations

from dataclasses import dataclass

from .circuits import Circuit, Gate, RegisterLayout, cnot, cswap, cz, mcx, x, z
from .errors import BadConstant, BadParam, CapExceeded


def _check_constant(layout: RegisterLayout, p: int) -> None:
    if not (1 <= p <= layout.M or p == layout.sentinel):
        raise BadConstant(f"constant {p} not in 1..{layout.M} or sentinel")


def _eq_gates(layout, reg, p, target) -> list[Gate]:
    """target ^= [value(reg) == p] via an X-sandwiched multi-controlled X."""
    qs = list(layout.register_qubits(reg))
    wrap = [x(q) for k, q in enumerate(qs) if not (p >> k) & 1]
    return wrap + [mcx(qs, target)] + wrap


def _lt_gates(layout, reg, p, target) -> list[Gate]:
    """target ^= [value(reg) < p]; one mutually exclusive term per set bit.

    Term k fires when the register agrees with p above bit k and has a 0
    where p has its set bit k, i.e. k is the highest differing bit and the
    register loses there.
    """
    qs = list(layout.register_qubits(reg))
    b = layout.b
    gates: list[Gate] = []
    for k in range(b - 1, -1, -1):
        if not (p >> k) & 1:
            continue
        wrap = [x(qs[m]) for m in range(k + 1, b) if not (p >> m) & 1]
        wrap.append(x(qs[k]))
        gates += wrap + [mcx(list(qs[k:b]), target)] + wrap
    return gates


def _le_gates(layout, reg, p, target) -> list[Gate]:
    if p == layout.sentinel:
        return [x(target)]  # every value satisfies v <= all-ones
    return _lt_gates(layout, reg, p + 1, target)


def _gt_gates(layout, reg, p, target) -> list[Gate]:
    return [x(target)] + _le_gates(layout, reg, p, target)


def eq_const_circuit(layout, reg, p, target) -> Circuit:
    """Flip target iff register reg holds exactly p."""
    _check_constant(layout, p)
    return Circuit(layout, _eq_gates(layout, reg, p, target))


def lt_const_circuit(layout, reg, p, target, mode: str = "<") -> Circuit:
    """Flip target iff value(reg) <mode> p, mode one of < / <= / >."""
    _check_constant(layout, p)
    if mode == "<":
        gates = _lt_gates(layout, reg, p, target)
    elif mode == "<=":
        gates = _le_gates(layout, reg, p, target)
    elif mode == ">":
        gates = _gt_gates(layout, reg, p, target)
    else:
        raise BadParam(f"mode {mode!r} not one of < <= >")
    return Circuit(layout, gates)


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
    qs = list(layout.register_qubits(reg))
    mark = _eq_gates(layout, reg, a, anc) + _eq_gates(layout, reg, b, anc)
    flips = [cnot(anc, qs[k]) for k in range(layout.b) if ((a ^ b) >> k) & 1]
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
    qa = list(layout.register_qubits(reg_a))
    qb = list(layout.register_qubits(reg_b))
    swaps = [cswap(flag, qa[k], qb[k]) for k in range(layout.b)]
    return both + swaps + both


def bubble_circuit(layout, reg_a, reg_b, p, ancs) -> Circuit:
    if not 1 <= p <= layout.M:
        raise BadConstant(f"bubble constant {p} not in 1..{layout.M}")
    return Circuit(layout, bubble_gates(layout, reg_a, reg_b, p, ancs))


def compute_greater_gates(layout, i, j, record) -> list[Gate]:
    """record ^= [value(i) > value(j)], registers restored.

    Register j is XORed with register i in place; the top set bit of the
    XOR locates the highest disagreement, and register i's bit there decides
    the winner. One mutually exclusive term per candidate position.
    """
    qi = list(layout.register_qubits(i))
    qj = list(layout.register_qubits(j))
    b = layout.b
    xor = [cnot(qi[m], qj[m]) for m in range(b)]
    terms: list[Gate] = []
    for k in range(b - 1, -1, -1):
        wrap = [x(qj[m]) for m in range(k + 1, b)]
        terms += wrap + [mcx(qj[k + 1:] + [qj[k], qi[k]], record)] + wrap
    return xor + terms + xor


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
    if with_z:
        if exempt_anc is not None:
            mark = [mcx(list(layout.register_qubits(i)), exempt_anc)]
            gates += mark + [z(record), cz(record, exempt_anc)] + mark
        else:
            gates += [z(record)]
    qi = list(layout.register_qubits(i))
    qj = list(layout.register_qubits(j))
    gates += [cswap(record, qi[k], qj[k]) for k in range(layout.b)]
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


@dataclass(frozen=True)
class SortingNetworkSpec:
    """A fixed comparator schedule over register lanes."""

    n_lanes: int
    pairs: tuple[tuple[int, int], ...]

    @classmethod
    def batcher(cls, n_lanes: int) -> "SortingNetworkSpec":
        return cls(n_lanes, tuple(batcher_pairs(n_lanes)))

    @classmethod
    def adjacent(cls, n_lanes: int) -> "SortingNetworkSpec":
        return cls(n_lanes, tuple(odd_even_transposition_pairs(n_lanes)))

    @property
    def n_comparators(self) -> int:
        return len(self.pairs)


def sorting_network_circuit(
    layout: RegisterLayout,
    spec: SortingNetworkSpec | None = None,
    record_ancs: list[int] | None = None,
    with_z: bool = True,
    exempt_anc: int | None = None,
) -> Circuit:
    """Sort all registers ascending, one record ancilla per comparator.

    Sentinels order above every orbital value, so occupied values collect in
    the leading registers. With with_z each comparator phases its swapped
    branch by -1 (sentinel-exempt given exempt_anc, see compare_swap_gates).
    """
    if spec is None:
        spec = SortingNetworkSpec.batcher(layout.n_reg)
    if spec.n_lanes != layout.n_reg:
        raise BadParam("network lane count disagrees with the layout")
    if record_ancs is None:
        record_ancs = [layout.anc_qubit(t) for t in range(spec.n_comparators)]
    if len(record_ancs) < spec.n_comparators:
        raise CapExceeded(
            f"need {spec.n_comparators} record ancillas, got {len(record_ancs)}"
        )
    gates: list[Gate] = []
    for t, (i, j) in enumerate(spec.pairs):
        gates += compare_swap_gates(
            layout, i, j, record_ancs[t],
            with_z=with_z, exempt_anc=exempt_anc,
        )
    return Circuit(layout, gates)


def equality_flag_gates(layout, i, j, target) -> list[Gate]:
    """target ^= [value(i) == value(j)], registers restored.

    XOR register i into j, detect the all-zero pattern, undo.
    """
    qi = list(layout.register_qubits(i))
    qj = list(layout.register_qubits(j))
    xor = [cnot(qi[m], qj[m]) for m in range(layout.b)]
    wrap = [x(q) for q in qj]
    return xor + wrap + [mcx(qj, target)] + wrap + xor
