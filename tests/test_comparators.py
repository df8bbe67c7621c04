"""Reversible comparators and sorting networks against classical predicates."""

import itertools

import numpy as np
import pytest

from fermiconv import Circuit, build_layout
from fermiconv.comparators import (
    _eq_gates,
    _gt_gates,
    _le_gates,
    _lt_gates,
    batcher_pairs,
    bubble_gates,
    compare_swap_gates,
    compute_greater_gates,
    equality_flag_gates,
    odd_even_transposition_pairs,
    sorting_network_circuit,
    swap_values_circuit,
)
from fermiconv.errors import BadConstant, BadParam

from dense_reference import inverse
from loops import basis_image

LAY1 = build_layout(4, 1, 1)  # one 3-bit register plus a target ancilla
TARGET = LAY1.anc_qubit(0)


def _trace(circ, values, anc=0, layout=None):
    lay = layout or circ.layout
    out, ph = basis_image(circ, lay.basis_index(tuple(values), anc))
    anc_out = out >> (lay.n_reg * lay.b)
    return lay.values(out), anc_out, ph


def test_eq_const_truth_table():
    for p in list(range(1, 5)) + [LAY1.sentinel]:
        circ = Circuit(LAY1, _eq_gates(LAY1, 0, p, TARGET))
        for v in range(8):
            vals, anc, ph = _trace(circ, (v,))
            assert vals == (v,)
            assert anc == int(v == p)
            assert ph == 1


def test_lt_const_modes():
    for p in list(range(1, 5)) + [LAY1.sentinel]:
        for gates, op in ((_lt_gates, lambda a, b: a < b),
                          (_le_gates, lambda a, b: a <= b),
                          (_gt_gates, lambda a, b: a > b)):
            circ = Circuit(LAY1, gates(LAY1, 0, p, TARGET))
            for v in range(8):
                vals, anc, ph = _trace(circ, (v,))
                assert vals == (v,)
                assert anc == int(op(v, p)), (v, p, gates.__name__)


def test_lt_sentinel_greater_than_m():
    # the all-ones value orders above every orbital index
    circ = Circuit(LAY1, _gt_gates(LAY1, 0, 4, TARGET))
    vals, anc, _ = _trace(circ, (LAY1.sentinel,))
    assert anc == 1


def test_swap_values_truth_table():
    consts = list(range(1, 5)) + [LAY1.sentinel]
    for a, b in itertools.combinations(consts, 2):
        circ = swap_values_circuit(LAY1, 0, a, b, TARGET)
        for v in range(8):
            vals, anc, ph = _trace(circ, (v,))
            expect = b if v == a else a if v == b else v
            assert vals == (expect,)
            assert anc == 0
            assert ph == 1
            # involution
            back, anc2, _ = _trace(circ, vals)
            assert back == (v,) and anc2 == 0


def test_swap_values_rejects_equal_constants():
    with pytest.raises(BadConstant):
        swap_values_circuit(LAY1, 0, 3, 3, TARGET)


def test_const_validation():
    # a 3-bit register holds 0..7; the sentinel 7 itself is a valid constant
    for a, b in ((3, 8), (-1, 3), (8, 7)):
        with pytest.raises(BadConstant, match="wider than the register"):
            swap_values_circuit(LAY1, 0, a, b, TARGET)
    assert swap_values_circuit(LAY1, 0, 3, LAY1.sentinel, TARGET).gates


LAY2 = build_layout(4, 2, 3)  # two registers, three work ancillas


def test_bubble_truth_table():
    ancs = [LAY2.anc_qubit(j) for j in range(3)]
    for p in range(1, 5):
        circ = Circuit(LAY2, bubble_gates(LAY2, 0, 1, p, ancs))
        for u, w in itertools.product(range(8), repeat=2):
            vals, anc, ph = _trace(circ, (u, w))
            swap = (u == p and w > p) or (w == p and u > p)
            assert vals == ((w, u) if swap else (u, w)), (u, w, p)
            assert anc == 0  # all three work ancillas uncomputed
            assert ph == 1


def test_bubble_examples():
    ancs = [LAY2.anc_qubit(j) for j in range(3)]
    circ = Circuit(LAY2, bubble_gates(LAY2, 0, 1, 2, ancs))
    assert _trace(circ, (2, 5))[0] == (5, 2)
    assert _trace(circ, (2, 1))[0] == (2, 1)  # other is smaller
    assert _trace(circ, (7, 7))[0] == (7, 7)  # neither equals p


def test_compute_greater():
    circ = Circuit(LAY2, compute_greater_gates(LAY2, 0, 1, LAY2.anc_qubit(0)))
    for u, w in itertools.product(range(8), repeat=2):
        vals, anc, ph = _trace(circ, (u, w))
        assert vals == (u, w)
        assert anc == int(u > w)
        assert ph == 1


def test_equality_flag():
    circ = Circuit(LAY2, equality_flag_gates(LAY2, 0, 1, LAY2.anc_qubit(0)))
    for u, w in itertools.product(range(8), repeat=2):
        vals, anc, _ = _trace(circ, (u, w))
        assert vals == (u, w)
        assert anc == int(u == w)


def test_compare_swap_examples():
    circ = Circuit(LAY2, compare_swap_gates(LAY2, 0, 1, LAY2.anc_qubit(0)))
    vals, anc, ph = _trace(circ, (3, 1))
    assert (vals, anc, ph) == ((1, 3), 1, -1)
    vals, anc, ph = _trace(circ, (1, 3))
    assert (vals, anc, ph) == ((1, 3), 0, 1)
    vals, anc, ph = _trace(circ, (7, 2))  # sentinel sorts above everything
    assert (vals, anc, ph) == ((2, 7), 1, -1)
    vals, anc, ph = _trace(circ, (4, 4))  # ties never swap, never phase
    assert (vals, anc, ph) == ((4, 4), 0, 1)


def test_compare_swap_sentinel_exempt():
    # with the exemption, routing a sentinel costs no phase; real swaps still do
    gates = compare_swap_gates(LAY2, 0, 1, LAY2.anc_qubit(0), exempt_anc=LAY2.anc_qubit(1))
    circ = Circuit(LAY2, gates)
    vals, anc, ph = _trace(circ, (7, 2))
    assert (vals, ph) == ((2, 7), 1)
    vals, anc, ph = _trace(circ, (3, 1))
    assert (vals, ph) == ((1, 3), -1)


def test_batcher_pair_counts():
    for n, count in ((1, 0), (2, 1), (3, 3), (4, 5), (5, 9), (8, 19)):
        assert len(batcher_pairs(n)) == count
    with pytest.raises(BadParam):
        batcher_pairs(0)


def test_batcher_sorts_classically():
    # the schedule alone, on plain integers
    for n in range(1, 7):
        pairs = batcher_pairs(n)
        assert all(i < j for i, j in pairs)
        for perm in itertools.permutations(range(n)):
            lanes = list(perm)
            for i, j in pairs:
                if lanes[i] > lanes[j]:
                    lanes[i], lanes[j] = lanes[j], lanes[i]
            assert lanes == sorted(perm)


def test_adjacent_schedule():
    assert odd_even_transposition_pairs(4) == [
        (0, 1), (2, 3), (1, 2), (0, 1), (2, 3), (1, 2),
    ]
    for n in range(1, 7):
        pairs = odd_even_transposition_pairs(n)
        assert all(j == i + 1 for i, j in pairs)
        for perm in itertools.permutations(range(n)):
            lanes = list(perm)
            for i, j in pairs:
                if lanes[i] > lanes[j]:
                    lanes[i], lanes[j] = lanes[j], lanes[i]
            assert lanes == sorted(perm)


def _perm_sign(perm):
    sign = 1
    seen = [False] * len(perm)
    for i in range(len(perm)):
        if seen[i]:
            continue
        j, clen = i, 0
        while not seen[j]:
            seen[j] = True
            j = perm[j]
            clen += 1
        if clen % 2 == 0:
            sign = -sign
    return sign


def test_sorting_network_phase_is_permutation_sign():
    pairs = batcher_pairs(3)
    lay = build_layout(4, 3, len(pairs))
    circ = sorting_network_circuit(lay, pairs)
    values = (1, 2, 4)
    for perm in itertools.permutations(range(3)):
        inp = tuple(values[perm[k]] for k in range(3))
        out, ph = basis_image(circ, lay.basis_index(inp))
        assert lay.values(out)[:3] == values
        assert ph == _perm_sign(perm)
    # already sorted: no swaps, no records
    out, ph = basis_image(circ, lay.basis_index(values))
    assert out == lay.basis_index(values) and ph == 1


def test_sorting_network_4_lanes_all_signs():
    pairs = batcher_pairs(4)
    lay = build_layout(6, 4, len(pairs))
    circ = sorting_network_circuit(lay, pairs)
    values = (1, 3, 4, 6)
    for perm in itertools.permutations(range(4)):
        inp = tuple(values[perm[k]] for k in range(4))
        out, ph = basis_image(circ, lay.basis_index(inp))
        assert lay.values(out)[:4] == values
        assert ph == _perm_sign(perm)


def test_sorting_network_with_sentinels():
    pairs = batcher_pairs(3)
    lay = build_layout(4, 3, len(pairs))
    circ = sorting_network_circuit(lay, pairs)
    out, ph = basis_image(circ, lay.basis_index((3, 1, 7)))
    assert lay.values(out)[:3] == (1, 3, 7)
    assert ph == -1


def test_sorting_network_needs_enough_records():
    pairs = batcher_pairs(3)
    with pytest.raises(BadParam):
        sorting_network_circuit(build_layout(4, 3, 1), pairs)  # too few ancillas
    with pytest.raises(BadParam):
        sorting_network_circuit(build_layout(4, 2, 3), pairs)  # a lane past the layout


def test_network_involution_property():
    # compare-swap is self-inverse only on the record-extended space; check
    # circuit o inverse = identity on every 2-register basis input instead
    circ = Circuit(LAY2, compare_swap_gates(LAY2, 0, 1, LAY2.anc_qubit(0)))
    full = Circuit(LAY2, circ.gates + inverse(circ).gates)
    for u, w in itertools.product(range(8), repeat=2):
        idx = LAY2.basis_index((u, w))
        out, ph = basis_image(full, idx)
        assert out == idx and ph == 1
