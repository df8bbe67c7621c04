"""Conversion circuits between the two encodings, plus the merge."""

import itertools

import numpy as np
import pytest

from fermiconv import (
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    Statevector,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    fq2sl_gate_count,
    second_to_first,
    sl2fq_gate_count,
    tensor_product_merge,
)
from fermiconv import circuits, comparators
from fermiconv.circuits import build_layout
from fermiconv.comparators import batcher_pairs, batcher_size_bound
from fermiconv.conversion import (
    _fq2sl_circuit,
    _network_gate_bound,
    _sl2fq_circuits,
    _sl2fq_programs,
)
from fermiconv.encodings import (
    FIRST_QUANTIZED,
    first_quantized_to_fock,
    occupation_components,
    sorted_list_to_fock,
)
from fermiconv.errors import (
    BadParam,
    BasisMismatch,
    CapExceeded,
    MixedParticleNumber,
    NotAntisymmetric,
    RetryBudgetExceeded,
)
from fermiconv.fci import FockSpace, creation_string
from fock_reference import coefficient_deviation
from validate_reference import with_ancillas


def _sl(M, indices, n_reg):
    return encode_sorted_list(OccupationBitstring.from_indices(M, indices), n_reg)


def _fq(M, indices):
    return encode_first_quantized_determinant(
        OccupationBitstring.from_indices(M, indices)
    )


def _fid(x, y):
    return abs(np.vdot(x, y))


def _record_fid(x, y):
    """_fid of two (keys, amps) component lists: a key only one holds adds
    nothing to the overlap."""
    _, i, j = np.intersect1d(x[0], y[0], return_indices=True)
    return abs(np.vdot(x[1][i], y[1][j]))


def _phase_free_dev(want, got):
    """Max entrywise deviation once the global phase of got is removed."""
    ov = np.vdot(want, got)
    return float(np.max(np.abs(got - ov / abs(ov) * want)))


def test_forward_determinant():
    out, rep = first_to_second(_fq(4, (1, 3)))
    want = _sl(4, (1, 3), 2)
    np.testing.assert_allclose(out.state.amps, want.state.amps, atol=1e-12)
    assert out.discipline == want.discipline and out.N == 2
    assert rep.direction == "antisymmetric-to-sorted-list"
    assert rep.success_probability == 1.0 and rep.attempts == 1
    assert rep.record_ancillas == 1  # one comparator sorts two registers
    keys, amps = rep.record_state
    assert len(keys) == 2  # one record pattern per ordering
    assert abs(np.linalg.norm(amps) - 1) < 1e-12


def test_forward_extra_registers():
    out, _ = first_to_second(_fq(4, (2, 4)), extra_registers=1)
    want = _sl(4, (2, 4), 3)
    np.testing.assert_allclose(out.state.amps, want.state.amps, atol=1e-12)


def test_forward_single_register_costs_nothing():
    out, rep = first_to_second(_fq(3, (2,)))
    np.testing.assert_allclose(out.state.amps, _sl(3, (2,), 1).state.amps)
    assert rep.gate_count.total == 0 and rep.record_ancillas == 0


def test_forward_superposition_is_linear():
    a, b = _fq(5, (1, 4)), _fq(5, (2, 3))
    mix = EncodedState(
        Statevector((0.6 * a.state.amps + 0.8j * b.state.amps)),
        FIRST_QUANTIZED,
        a.layout,
        2,
    )
    out, _ = first_to_second(mix)
    want = 0.6 * _sl(5, (1, 4), 2).state.amps + 0.8j * _sl(5, (2, 3), 2).state.amps
    np.testing.assert_allclose(out.state.amps, want, atol=1e-12)


def test_forward_record_state_is_input_independent():
    recs = []
    for idx in ((1, 2), (1, 4), (3, 4), (2, 3)):
        _, rep = first_to_second(_fq(4, idx))
        recs.append(rep.record_state)
    for r in recs[1:]:
        assert _record_fid(recs[0], r) > 1 - 1e-9


@pytest.mark.parametrize("M,N", [(4, 2), (6, 3), (14, 4), (6, 5), (30, 3), (62, 5), (14, 6)])
def test_forward_records_are_the_backward_seed_factor(M, N):
    # the forward sort leaves its records in the state the backward seed
    # stage prepares, which is why the two conversions are inverse
    _, rep = first_to_second(_fq(M, tuple(range(M - N + 1, M + 1))))
    rec_keys, rec = _sl2fq_programs(M, N)[0][1:]
    keys, amps = rep.record_state
    np.testing.assert_array_equal(keys, rec_keys)
    assert _phase_free_dev(rec, amps) < 1e-12


def test_forward_rejects_bad_inputs():
    with pytest.raises(BadParam):
        first_to_second(_sl(4, (1, 3), 2))
    with pytest.raises(BadParam):
        first_to_second(with_ancillas(_fq(4, (1, 3)), 1))
    with pytest.raises(BadParam):
        first_to_second(_fq(4, (1, 3)), extra_registers=-1)
    sym = _fq(4, (1, 3))
    lay = sym.layout
    amps = sym.state.amps.copy()
    amps[lay.basis_index((3, 1))] *= -1  # now symmetric
    sym = EncodedState(Statevector(amps), sym.discipline, lay, sym.N)
    with pytest.raises(NotAntisymmetric):
        first_to_second(sym)


def test_backward_determinant():
    out, rep = second_to_first(_sl(4, (1, 3), 2))
    np.testing.assert_allclose(out.state.amps, _fq(4, (1, 3)).state.amps, atol=1e-10)
    assert rep.direction == "sorted-list-to-antisymmetric"
    assert rep.success_probability == 7 / 8  # two distinct seeds over 2^3
    assert rep.attempts >= 1 and rep.record_ancillas == 1


def test_backward_success_probability_ignores_input_norm():
    # the seed alone decides it: (1 - 1/8)(1 - 2/8) at M=6 N=3
    sl = _sl(6, (1, 3, 5), 3)
    for scale in (1.0, 0.5):
        amps = Statevector(scale * sl.state.amps)
        _, rep = second_to_first(EncodedState(amps, sl.discipline, sl.layout))
        assert rep.success_probability == 0.65625


def test_backward_slices_sentinel_tail():
    out, _ = second_to_first(_sl(4, (2, 4), 3))
    assert out.layout.n_reg == 2
    np.testing.assert_allclose(out.state.amps, _fq(4, (2, 4)).state.amps, atol=1e-10)


def test_backward_single_electron_shortcut():
    out, rep = second_to_first(_sl(4, (3,), 2))
    assert out.layout.n_reg == 1 and out.N == 1
    assert rep.attempts == 0 and rep.gate_count.total == 0
    np.testing.assert_allclose(out.state.amps, _fq(4, (3,)).state.amps)


def test_backward_superposition_is_linear():
    a, b = _sl(4, (1, 2), 2), _sl(4, (2, 4), 2)
    mix = EncodedState(
        Statevector(0.6 * a.state.amps - 0.8 * b.state.amps),
        a.discipline,
        a.layout,
    )
    out, _ = second_to_first(mix)
    want = 0.6 * _fq(4, (1, 2)).state.amps - 0.8 * _fq(4, (2, 4)).state.amps
    np.testing.assert_allclose(out.state.amps, want, atol=1e-10)


def test_backward_particle_number_errors():
    a, b = _sl(4, (1,), 2), _sl(4, (1, 3), 2)
    mix = EncodedState(
        Statevector((a.state.amps + b.state.amps) / np.sqrt(2)),
        a.discipline,
        a.layout,
    )
    with pytest.raises(MixedParticleNumber):
        second_to_first(mix)
    with pytest.raises(MixedParticleNumber):
        second_to_first(_sl(4, (1, 3), 2), N=1)
    zero = EncodedState(
        Statevector(np.zeros(1 << 6, dtype=complex)), "sorted-list", b.layout
    )
    with pytest.raises(MixedParticleNumber):
        second_to_first(zero, N=3)
    with pytest.raises(BadParam):
        second_to_first(zero)
    with pytest.raises(BadParam):
        second_to_first(zero, N=0)
    with pytest.raises(BadParam):
        second_to_first(_fq(4, (1, 3)))


def test_backward_retry_budget():
    # M=4 N=2 succeeds per attempt with p = 7/8; seed 4 first draws above it
    with pytest.raises(RetryBudgetExceeded, match="1 attempts"):
        second_to_first(_sl(4, (1, 3), 2), rng=np.random.default_rng(4), retry_budget=1)
    # a generator that always draws high still succeeds within a fat budget
    out, rep = second_to_first(
        _sl(4, (1, 3), 2), rng=np.random.default_rng(123), retry_budget=50
    )
    assert 1 <= rep.attempts <= 50
    np.testing.assert_allclose(out.state.amps, _fq(4, (1, 3)).state.amps, atol=1e-10)
    # M=6 N=6 succeeds per attempt with p = 2520/32768; seed 3 needs 21
    # attempts, so a flat budget of 16 would run out
    sl = _sl(6, range(1, 7), 6)
    out, rep = second_to_first(sl, rng=np.random.default_rng(3))
    assert rep.attempts > 16
    assert rep.success_probability == 2520 / 32768
    np.testing.assert_allclose(sorted_list_to_fock(sl), first_quantized_to_fock(out), atol=1e-10)


def test_backward_rejects_budget_below_one():
    class NoDraws:
        def random(self):
            raise AssertionError("drew before refusing the budget")

    misses = _sl2fq_programs.cache_info().misses
    for budget in (0, -2):
        with pytest.raises(BadParam, match=f"retry_budget={budget} < 1"):
            second_to_first(_sl(4, (1, 3), 2), rng=NoDraws(), retry_budget=budget)
    assert _sl2fq_programs.cache_info().misses == misses  # nothing built


def test_round_trips():
    rng = np.random.default_rng(7)
    for indices in ((1, 3), (2, 5), (1, 2, 4)):
        sl = _sl(5, indices, len(indices))
        fq, _ = second_to_first(sl)
        back, _ = first_to_second(fq)
        assert _fid(back.state.amps, sl.state.amps) > 1 - 1e-9
    # random 3-electron superposition both ways
    kets = [(1, 2, 3), (1, 3, 5), (2, 4, 5), (1, 4, 5)]
    c = rng.standard_normal(4) + 1j * rng.standard_normal(4)
    c /= np.linalg.norm(c)
    sl = _sl(5, kets[0], 3)
    sl = EncodedState(Statevector(sum(
        ci * _sl(5, k, 3).state.amps for ci, k in zip(c, kets)
    )), sl.discipline, sl.layout, sl.N)
    fq, _ = second_to_first(sl)
    back, _ = first_to_second(fq)
    assert _fid(back.state.amps, sl.state.amps) > 1 - 1e-9


@pytest.mark.parametrize("M, kets", [
    (6, [(1, 2, 3, 4), (1, 3, 5, 6), (2, 3, 4, 6)]),
    (6, [(1, 2, 3, 4, 5), (1, 2, 4, 5, 6), (2, 3, 4, 5, 6)]),
    (14, [(1, 2, 3), (2, 7, 11), (4, 9, 14)]),
    (14, [(1, 2, 3, 4), (2, 5, 9, 13), (3, 7, 11, 14)]),
])
def test_backward_envelope_matches_fock_oracle(M, kets):
    # seed layouts of 20, 28, 17 and 24 qubits: run on their orderings, never dense
    N = len(kets[0])
    rng = np.random.default_rng(M + N)
    c = rng.standard_normal(len(kets)) + 1j * rng.standard_normal(len(kets))
    c /= np.linalg.norm(c)
    sl = _sl(M, kets[0], N)
    sl = EncodedState(Statevector(sum(ci * _sl(M, k, N).state.amps for ci, k in zip(c, kets))),
                      sl.discipline, sl.layout, sl.N)
    want = sorted_list_to_fock(sl)
    fq, _ = second_to_first(sl)
    assert _phase_free_dev(want, first_quantized_to_fock(fq)) <= 1e-10
    back, _ = first_to_second(fq)
    assert _phase_free_dev(want, sorted_list_to_fock(back)) <= 1e-10


# (7, 6) and (10, 6) would seed 2^24 branches if the seed stage were traced
FULL_SECTORS = ((6, 3), (8, 4), (14, 4), (10, 5), (7, 6), (10, 6))


@pytest.mark.parametrize("M,N", FULL_SECTORS)
def test_full_sector_round_trip_entrywise(M, N):
    # one random complex superposition over all C(M, N) determinants checks
    # every determinant's sign in one state, through sl2fq and then fq2sl
    rng = np.random.default_rng(100 * M + N)
    dets = list(itertools.combinations(range(1, M + 1), N))
    c = rng.standard_normal(len(dets)) + 1j * rng.standard_normal(len(dets))
    c /= np.linalg.norm(c)
    lay = build_layout(M, N)
    keys = [lay.basis_index(d) for d in dets]
    sl = EncodedState.from_components(keys, c, SORTED_LIST, lay, N)
    fq, _ = second_to_first(sl)
    back, _ = first_to_second(fq)
    want = occupation_components(sl)
    for enc in (fq, back):
        assert coefficient_deviation(want, occupation_components(enc)) <= 1e-10
    if M <= 12:  # the oracle's creation strings, on a 2^M Fock vector
        space = FockSpace(M)
        oracle = sum(ci * creation_string(space, d) for ci, d in zip(c, dets))
        masks = np.flatnonzero(oracle)
        for enc in (fq, back):
            got = occupation_components(enc)
            assert coefficient_deviation((masks, oracle[masks]), got) <= 1e-10


def test_forward_envelope_matches_fock_oracle():
    fq = _fq(6, (1, 2, 3, 4, 5, 6))  # 720 components, 30-qubit work layout
    out, _ = first_to_second(fq)
    assert _phase_free_dev(first_quantized_to_fock(fq), sorted_list_to_fock(out)) <= 1e-10


def test_gate_count_grid_pins():
    totals = [fq2sl_gate_count(m, 2).total for m in (8, 16, 32, 64)]
    assert totals == [43, 61, 82, 106]
    chan = [
        (lambda g: g.toffoli_equiv + g.cnot)(fq2sl_gate_count(m, 2))
        for m in (8, 16, 32, 64)
    ]
    assert chan == [30, 40, 51, 63]
    # extra registers enlarge the network and add the sentinel X layer
    g = fq2sl_gate_count(8, 2, extra_registers=1)
    assert g.total > 43


def test_backward_gate_count_pins():
    # each record is erased right after its comparator is undone, one
    # comparison per record; a replay of the network prefix before every
    # comparator cost 76 Toffoli / 120 CNOT at N=3 and the same at N=2
    def counts(M, indices):
        _, rep = second_to_first(_sl(M, indices, len(indices)))
        g = rep.gate_count
        return g.toffoli_equiv, g.cnot, g.single_qubit

    assert counts(6, (1, 3, 5)) == (58, 84, 60)
    assert counts(6, (2, 5)) == (20, 30, 25)
    assert counts(14, (3, 11)) == (31, 40, 41)

    # the count-only builder is the one the conversion traces
    def built(M, N):
        g = sl2fq_gate_count(M, N)
        return g.toffoli_equiv, g.cnot, g.single_qubit

    assert built(6, 3) == (58, 84, 60)
    assert built(6, 2) == (20, 30, 25)
    assert built(14, 2) == (31, 40, 41)
    assert built(64, 32) == (13556, 11130, 16893)  # builds in 0.1 s


def test_batcher_size_bound():
    for n in range(1, 130):
        assert len(batcher_pairs(n)) <= batcher_size_bound(n)
    for k in range(11):
        assert len(batcher_pairs(1 << k)) == batcher_size_bound(1 << k)


def test_network_gate_bound_covers_the_builders():
    for M, N, extra in ((2, 2, 0), (6, 3, 2), (14, 5, 0), (64, 8, 3), (1024, 7, 1)):
        gates = len(_fq2sl_circuit(M, N, N + extra).gates)
        assert gates <= _network_gate_bound(M, N + extra, 1)
    for M, N in ((4, 2), (6, 3), (14, 5), (64, 8)):
        gates = sum(len(c.gates) for c in _sl2fq_circuits(M, N))
        assert gates <= _network_gate_bound(M, N, 2)


def test_gate_cap_refuses_before_building(monkeypatch):
    def no_pairs(n):
        raise AssertionError("a pair list was built")

    monkeypatch.setattr(comparators, "batcher_pairs", no_pairs)
    # about 54 M gates if built
    with pytest.raises(CapExceeded, match="gate cap"):
        fq2sl_gate_count(64, 1 << 14)
    with pytest.raises(CapExceeded, match="gate cap"):
        sl2fq_gate_count(64, 1 << 14)
    with pytest.raises(CapExceeded, match="gate cap"):
        fq2sl_gate_count(64, 2, extra_registers=(1 << 14) - 2)


def test_gate_cap_edges():
    # the largest admitted network per register width: a power of two of
    # lanes, where the comparator bound is exact
    for M, edge in ((2, 4096), (6, 2048), (64, 1024), (1024, 512)):
        assert _network_gate_bound(M, edge, 1) <= circuits.GATE_CAP
        assert _network_gate_bound(M, edge + 1, 1) > circuits.GATE_CAP
    assert _network_gate_bound(64, 512, 2) <= circuits.GATE_CAP
    assert _network_gate_bound(64, 513, 2) > circuits.GATE_CAP


def test_largest_admitted_network_still_counts():
    # the cheapest edge to build: 1,108,973 gates in about 1.6 s and 210 MiB;
    # the count equals the one recorded before the cap existed
    g = fq2sl_gate_count(6, 2048)
    assert (g.toffoli_equiv, g.cnot, g.single_qubit) == (525303, 700404, 408569)
    with pytest.raises(CapExceeded, match="gate cap"):
        fq2sl_gate_count(6, 2049)


def test_merge_sorted_inputs():
    res = tensor_product_merge(_sl(4, (1, 2), 2), _sl(4, (4,), 1))
    want = _sl(4, (1, 2, 4), 3)
    assert res.records_discarded and res.duplicate_probability < 1e-12
    assert res.state.N == 3
    assert res.flag_qubit == res.state.layout.anc_qubit(0)
    np.testing.assert_allclose(
        res.state.state.amps[: want.state.amps.size], want.state.amps, atol=1e-10
    )
    assert res.gate_count.total > 0


def test_merge_reordering_sign():
    res = tensor_product_merge(_sl(4, (3,), 1), _sl(4, (1,), 1))
    want = _sl(4, (1, 3), 2)
    np.testing.assert_allclose(
        res.state.state.amps[: want.state.amps.size], -want.state.amps, atol=1e-10
    )
    assert res.duplicate_probability < 1e-12


def test_merge_envelope_matches_fock_oracle():
    # 3 + 2 registers at M=6: a 31-qubit work layout; reordering sign -1
    res = tensor_product_merge(_sl(6, (2, 4, 6), 3), _sl(6, (1, 3), 2))
    assert res.records_discarded and res.duplicate_probability < 1e-12
    flag0 = res.state.state.amps.reshape(2, -1)[0]
    got = sorted_list_to_fock(
        EncodedState(Statevector(flag0.copy()), "sorted-list", _sl(6, (), 5).layout)
    )
    # compared with its phase: the merge fixes the fermionic reordering sign
    want = creation_string(FockSpace(6), (2, 4, 6, 1, 3))
    np.testing.assert_allclose(got, want, atol=1e-10)


def test_merge_flags_duplicates():
    res = tensor_product_merge(_sl(4, (2,), 1), _sl(4, (2,), 1))
    assert abs(res.duplicate_probability - 1.0) < 1e-12


def test_merge_keeps_entangled_records():
    a = _sl(4, (1,), 1)
    b = _sl(4, (1,), 1)
    a = EncodedState(Statevector((
        _sl(4, (1,), 1).state.amps + _sl(4, (2,), 1).state.amps
    ) / np.sqrt(2)), a.discipline, a.layout, a.N)
    res = tensor_product_merge(a, b)
    assert not res.records_discarded
    assert abs(res.duplicate_probability - 0.5) < 1e-12
    # flag sits above the records when they are kept
    assert res.flag_qubit == res.state.layout.anc_qubit(
        res.state.layout.n_anc - 1
    )


def test_merge_rejects_bad_inputs():
    with pytest.raises(BasisMismatch):
        tensor_product_merge(_sl(3, (1,), 1), _sl(4, (1,), 1))
    with pytest.raises(BadParam):
        tensor_product_merge(_fq(4, (1, 2)), _sl(4, (1,), 1))
    with pytest.raises(BadParam):
        tensor_product_merge(with_ancillas(_sl(4, (1,), 1), 1), _sl(4, (1,), 1))
