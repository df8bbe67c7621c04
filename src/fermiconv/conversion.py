"""Conversions between the two encodings, and the tensor-product merge.

Antisymmetric-to-sorted-list runs a record-keeping sorting network forward:
comparison outcomes land in one ancilla per comparator, a -1 phase rides
along with every swap, and for a properly antisymmetrized input the record
register provably factorizes (outcomes depend only on the ordering
permutation, and the per-branch phase cancels the permutation sign).

Sorted-list-to-antisymmetric undoes that circuit. Its seed stage (H layer,
phase-free sort, collision flags) is only counted: post-selected, it holds
the records the forward sort leaves behind, so the record factor is fq2sl's
program traced once per (M, N) and process on the signed orderings of
orbitals 1..N. The records (x) system run through fq2sl's gates reversed,
each its own inverse: the Z per record supplies the sign, and recomputing
each comparison erases its record.

Every stage that runs is permutation plus phase, on component lists
through ``sparse_action``, on work layouts up to the packed-index cap, so
no conversion builds a dense vector or branches. The seed orderings, the
records (x) system, the merge's joint input and the split matrices obey the
tracer's BRANCH_CAP.

The merge concatenates two sorted lists, resorts with an adjacent-only
network whose swap phase is withheld for sentinel moves, and flags
duplicate orbitals via adjacent equality tests on the sorted result.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .circuits import (
    Circuit,
    GateCount,
    Program,
    build_layout,
    check_branches,
    check_gates,
    compile_circuit,
    count_gates,
    h,
    mcx,
    sparse_action,
    x,
)
from .comparators import (
    batcher_pairs,
    batcher_size_bound,
    equality_flag_gates,
    odd_even_transposition_pairs,
    sorting_network_circuit,
)
from .encodings import (
    AMP_THRESHOLD,
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    encode_first_quantized_determinant,
    validate,
)
from .errors import (
    BadParam,
    BasisMismatch,
    EntangledAncilla,
    MalformedComponent,
    MixedParticleNumber,
    NotAntisymmetric,
)

# rank-1 split residual bound: fidelity of the kept factor >= 1 - 1e-9
_SPLIT_RESID = math.sqrt(1e-9)


@dataclass
class ConversionReport:
    """Bookkeeping emitted next to every converted state.

    record_state (fq2sl only) is the normalized record register as the pair
    (record keys, amplitudes), one key per ordering of the N electrons. Every
    antisymmetric input with the same N and register count gives the same pair.
    """

    direction: str
    gate_count: GateCount
    record_ancillas: int
    success_probability: float
    attempts: int
    record_state: tuple[np.ndarray, np.ndarray] | None = None


def _rank_one_split(
    rows: np.ndarray, cols: np.ndarray, amps: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Split sum_k amps[k] |rows[k]>|cols[k]> as u (x) psi or raise.

    The matrix spans only the distinct row and column keys present, so its
    size follows the support, not the layout. psi is the dominant row
    normalized; u collects row coefficients. Returns (row keys, u, column
    keys, psi). The residual bound keeps the fidelity loss of discarding
    the row factor below 1e-9. A matrix past BRANCH_CAP entries is refused.
    """
    row_keys, ri = np.unique(rows, return_inverse=True)
    col_keys, ci = np.unique(cols, return_inverse=True)
    check_branches(len(row_keys) * len(col_keys), "split matrix")
    A = np.zeros((len(row_keys), len(col_keys)), dtype=complex)
    np.add.at(A, (ri, ci), amps)
    norms = np.linalg.norm(A, axis=1)
    if not np.any(norms):
        raise EntangledAncilla("zero state, nothing to split")
    r_star = int(np.argmax(norms))
    psi = A[r_star] / norms[r_star]
    u = A @ psi.conj()
    resid = np.linalg.norm(A - np.outer(u, psi))
    if resid > _SPLIT_RESID * np.linalg.norm(A):
        raise EntangledAncilla(
            f"ancilla register does not factorize (residual {resid:.2e})"
        )
    return row_keys, u, col_keys, psi


def _network_gate_bound(M: int, n_lanes: int, stages: int) -> int:
    """Most gates in `stages` recorded Batcher networks on n_lanes registers,
    computed without building a pair or a gate.

    A comparator is at most b^2 + 3b + 4 gates (compare_swap_gates with the
    sentinel exemption), and each stage adds at most 4b + 1 per lane (the
    sentinel fill, the seed's H layer and its equality flags).
    """
    b = build_layout(M, n_lanes).b
    per_stage = batcher_size_bound(n_lanes) * (b * b + 3 * b + 4) + n_lanes * (4 * b + 1)
    return stages * per_stage


def _fq2sl_circuit(M: int, N: int, n_out: int) -> Circuit:
    """Sentinel fill of registers N..n_out-1, then the recorded sort."""
    check_gates(_network_gate_bound(M, n_out, 1), f"fq2sl M={M} on {n_out} registers")
    pairs = batcher_pairs(n_out)
    layout = build_layout(M, n_out, len(pairs))
    # all-zeros registers -> all-ones sentinels
    gates = [x(q) for q in range(N * layout.b, n_out * layout.b)]
    gates += sorting_network_circuit(layout, pairs, with_z=True).gates
    return Circuit(layout, gates)


@functools.lru_cache(maxsize=32)
def _fq2sl_program(M: int, N: int, n_out: int) -> tuple[Program, GateCount]:
    circ = _fq2sl_circuit(M, N, n_out)
    return compile_circuit(circ), count_gates(circ)


def _sl2fq_circuits(M: int, N: int) -> tuple[Circuit, Circuit]:
    """(seed stage, unsort) for N >= 2: H on N seed registers, their phase-free
    recorded sort and N - 1 collision flags; then fq2sl's circuit on N
    registers reversed, which undoes it since every gate is its own inverse."""
    check_gates(_network_gate_bound(M, N, 2), f"sl2fq M={M} N={N}")
    pairs = batcher_pairs(N)
    T = len(pairs)
    seed = build_layout(M, N, T + N - 1)
    seed_gates = [h(q) for q in range(N * seed.b)]
    seed_gates += sorting_network_circuit(seed, pairs, with_z=False).gates
    for k in range(N - 1):
        seed_gates += equality_flag_gates(seed, k, k + 1, seed.anc_qubit(T + k))
    fwd = _fq2sl_circuit(M, N, N)
    return Circuit(seed, seed_gates), Circuit(fwd.layout, fwd.gates[::-1])


@functools.lru_cache(maxsize=32)
def _sl2fq_programs(
    M: int, N: int
) -> tuple[tuple[float, np.ndarray, np.ndarray], Program, GateCount]:
    """((p_success, rec_keys, rec), unsort, summed count) for N >= 2.

    The seed stage never touches the system, so only its collision-free
    probability prod_k (1 - k/2^b) and read-only record factor are kept.
    Post-selected seeds are a uniform superposition over the N! orderings of
    distinct values (the symmetrization of Berry et al., npj Quantum Inf. 4,
    22 (2018)), and the records depend only on the ordering, as fq2sl's do.
    So the factor is fq2sl's program traced on the signed orderings of
    orbitals 1..N, refused past BRANCH_CAP orderings before any is built;
    each must sort to 1..N at +1/sqrt(N!), its Z phases cancelling its sign.
    """
    seeds = encode_first_quantized_determinant(OccupationBitstring(M, (1 << N) - 1))
    seed_stage, unsort = _sl2fq_circuits(M, N)
    fwd, fwd_count = _fq2sl_program(M, N, N)
    sys_bits = N * unsort.layout.b
    oi, oa = sparse_action(fwd, seeds.keys, seeds.amps)
    order = np.argsort(oi)
    oi, oa = oi[order], oa[order]
    sorted_seed = unsort.layout.basis_index(tuple(range(1, N + 1)))
    if np.any((oi & np.int64((1 << sys_bits) - 1)) != sorted_seed) or np.any(oa != np.abs(oa)):
        raise EntangledAncilla("seed records do not split off the sorted seed values")
    rec_keys = oi >> np.int64(sys_bits)
    rec = np.abs(oa).astype(complex)
    for arr in (rec_keys, rec):
        arr.setflags(write=False)
    # the collision-free share of the 2^(N b) seeds, rounded once
    p_success = math.perm(1 << unsort.layout.b, N) / (1 << sys_bits)
    # reversing a circuit keeps its count
    gc = count_gates(seed_stage) + fwd_count
    return (p_success, rec_keys, rec), compile_circuit(unsort), gc


def first_to_second(
    enc: EncodedState, extra_registers: int = 0
) -> tuple[EncodedState, ConversionReport]:
    """Antisymmetric N-register state -> sorted list on N + extra registers.

    The input is validated first (NotAntisymmetric wraps any violation).
    Extra registers are initialized to the sentinel by X gates and provably
    never move during the sort, so the conversion works unchanged on states
    destined for a larger orbital budget.
    """
    if enc.discipline != FIRST_QUANTIZED:
        raise BadParam("input must be first-quantized")
    if enc.layout.n_anc:
        raise BadParam("input must not carry ancillas")
    if extra_registers < 0:
        raise BadParam("extra_registers must be >= 0")
    validate(enc).require(NotAntisymmetric, "{count} bad components; first: {first}")
    N = enc.layout.n_reg
    n_out = N + extra_registers
    sys_bits = n_out * enc.layout.b
    prog, gate_count = _fq2sl_program(enc.M, N, n_out)
    T = prog.n_qubits - sys_bits

    oi, oa = sparse_action(prog, enc.keys, enc.amps)
    rec_keys, u, sys_keys, psi = _rank_one_split(
        oi >> np.int64(sys_bits), oi & np.int64((1 << sys_bits) - 1), oa
    )
    result = EncodedState.from_components(
        sys_keys, psi, SORTED_LIST, build_layout(enc.M, n_out, 0), enc.N
    )
    report = ConversionReport(
        direction="antisymmetric-to-sorted-list",
        gate_count=gate_count,
        record_ancillas=T,
        success_probability=1.0,
        attempts=1,
        record_state=(rec_keys, u / np.linalg.norm(u)),
    )
    return result, report


def fq2sl_gate_count(M: int, N: int, extra_registers: int = 0) -> GateCount:
    """Cost of the forward conversion circuit, no statevector built.

    No qubit cap applies, so scaling grids may go far beyond desk size; a
    circuit that could pass GATE_CAP gates is refused before it is built.
    """
    return count_gates(_fq2sl_circuit(M, N, N + extra_registers))


def sl2fq_gate_count(M: int, N: int) -> GateCount:
    """Cost of the backward conversion circuits, no statevector built;
    refused past GATE_CAP gates like fq2sl_gate_count."""
    if N == 1:  # second_to_first passes a single register through
        return GateCount()
    return sum(map(count_gates, _sl2fq_circuits(M, N)), GateCount())


def second_to_first(
    enc: EncodedState,
    N: int | None = None,
    rng: np.random.Generator | None = None,
) -> tuple[EncodedState, ConversionReport]:
    """Sorted list with a fixed electron count -> antisymmetric N registers.

    Pipeline: slice off the all-sentinel tail; take the seed stage's record
    factor (H on N seed registers, phase-free recorded sort, collision
    flags), computed once per (M, N) and process from the N! orderings;
    measure away seed collisions (success probability p = prod_k (1 - k/2^b),
    repeated until one succeeds; the state does not depend on the count, and
    attempts is the index of the first rng.random() draw below p); run fq2sl's
    circuit backwards over records (x) system, one Z per record.
    Once comparator t is undone the system orders like the seed did before
    comparator t, so recomputing comparison t right there erases its record.
    """
    if enc.discipline != SORTED_LIST:
        raise BadParam("input must be a sorted list")
    if enc.layout.n_anc:
        raise BadParam("input must not carry ancillas")
    validate(enc).require(MalformedComponent, "{count} bad components; first: {first}")
    layout = enc.layout
    b = layout.b
    amps = enc.amps
    values = layout.decode(enc.keys)
    occupied = values[np.abs(amps) > AMP_THRESHOLD] != layout.sentinel
    occs = set(np.count_nonzero(occupied, axis=1).tolist())
    if len(occs) > 1:
        raise MixedParticleNumber(f"occupancies {sorted(occs)} present")
    if occs and N is not None and occs != {N}:
        raise MixedParticleNumber(f"state occupies {occs.pop()} registers, not {N}")
    if N is None:
        N = max(occs, default=0)
    if N < 1:
        raise BadParam("antisymmetric encoding needs N >= 1")
    if N > layout.n_reg:
        raise MixedParticleNumber(f"N={N} exceeds {layout.n_reg} registers")
    if not occs:
        raise BadParam("zero state has nothing to convert")

    # trailing registers hold sentinels on every valid component: slice off
    on_tail = np.all(values[:, N:] == layout.sentinel, axis=1)
    spill = np.linalg.norm(amps[~on_tail])
    if spill > 1e-10:
        raise MixedParticleNumber(f"non-sentinel tail amplitude {spill:.2e}")
    # the system occupies registers 0..N-1, so its component indices carry
    # over unchanged into the unsort layout
    idx0 = enc.keys[on_tail] & np.int64((1 << (N * b)) - 1)
    amp0 = amps[on_tail]

    fq_layout = build_layout(enc.M, N, 0)
    if N == 1:  # one register passes through: no gates, records or draws
        report = ConversionReport("sorted-list-to-antisymmetric", GateCount(), record_ancillas=0,
                                  success_probability=1.0, attempts=0)
        return EncodedState.from_components(idx0, amp0, FIRST_QUANTIZED, fq_layout, N), report

    if rng is None:
        rng = np.random.default_rng(0)
    (p_success, rec_keys, rec), unsort, gate_count = _sl2fq_programs(enc.M, N)
    attempts = 1  # p_success > 0, since N <= M < 2^b
    while rng.random() >= p_success:
        attempts += 1

    check_branches(len(rec_keys) * len(idx0), "records x system")
    keys = (rec_keys[:, None] << np.int64(N * b)) | idx0
    fi, fa = sparse_action(unsort, keys.ravel(), np.outer(rec, amp0).ravel())

    clear = (fi >> np.int64(N * b)) == 0
    leak = np.linalg.norm(fa[~clear])
    if leak > 1e-9:
        raise EntangledAncilla(f"records kept amplitude {leak:.2e} after erasure")
    fi, fa = fi[clear], fa[clear]
    fa = fa / np.linalg.norm(fa)
    result = EncodedState.from_components(fi, fa, FIRST_QUANTIZED, fq_layout, N)
    report = ConversionReport(
        direction="sorted-list-to-antisymmetric",
        gate_count=gate_count,
        record_ancillas=unsort.n_qubits - N * b,
        success_probability=p_success,
        attempts=attempts,
    )
    return result, report


def _merge_circuit(M: int, n_out: int) -> Circuit:
    """Adjacent-only resort of n_out registers, then the duplicate flag.

    Ancillas: T records, n_out - 1 equality flags, 1 sentinel marker, 1 flag.
    """
    pairs = odd_even_transposition_pairs(n_out)
    T = len(pairs)
    layout = build_layout(M, n_out, T + n_out + 1)
    eqs = [layout.anc_qubit(T + k) for k in range(n_out - 1)]
    tmp = layout.anc_qubit(T + n_out - 1)
    flag = layout.anc_qubit(T + n_out)
    gates = sorting_network_circuit(layout, pairs, with_z=True, exempt_anc=tmp).gates
    dup = []
    for k in range(n_out - 1):
        dup += equality_flag_gates(layout, k, k + 1, eqs[k])
        both = (*layout.register_qubits(k), *layout.register_qubits(k + 1))
        dup.append(mcx(both, eqs[k]))  # subtract the sentinel-sentinel case
    flips = [x(q) for q in eqs]
    # dup holds X, CNOT and MCX gates only, each its own inverse
    gates += [*dup, *flips, mcx(eqs, flag), x(flag), *flips, *reversed(dup)]
    return Circuit(layout, gates)


@functools.lru_cache(maxsize=16)
def _merge_program(M: int, n_out: int) -> tuple[Program, GateCount]:
    circ = _merge_circuit(M, n_out)
    return compile_circuit(circ), count_gates(circ)


@dataclass
class MergeResult:
    """Merged sorted-list state plus the duplicate flag's bookkeeping."""

    state: EncodedState
    flag_qubit: int
    duplicate_probability: float
    records_discarded: bool
    gate_count: GateCount


def tensor_product_merge(a: EncodedState, b: EncodedState) -> MergeResult:
    """Concatenate two sorted lists, resort, and flag duplicate orbitals.

    The comparator schedule is adjacent-only, so the -1-per-swap phase
    (withheld when the moving partner is a sentinel) equals the fermionic
    reordering sign of the concatenated creation strings exactly. Duplicate
    detection compares sorted neighbors for equality, not counting sentinel
    pairs, and ORs the outcomes into one flag qubit.

    For basis-state inputs the comparison records are deterministic and are
    discarded; for superpositions they may stay entangled with the system
    and are then kept (records_discarded=False) rather than faked away.
    """
    for s in (a, b):
        if s.discipline != SORTED_LIST:
            raise BadParam("merge inputs must be sorted lists")
        if s.layout.n_anc:
            raise BadParam("merge inputs must not carry ancillas")
        validate(s).require(MalformedComponent, "{count} bad components; first: {first}")
    if a.M != b.M:
        raise BasisMismatch(f"orbital counts differ: {a.M} vs {b.M}")
    M = a.M
    n_out = a.layout.n_reg + b.layout.n_reg
    T = len(odd_even_transposition_pairs(n_out))

    # joint input: products of the nonzero components, a in the low registers
    check_branches(len(a.keys) * len(b.keys), "merge joint input")
    idx0 = ((b.keys[:, None] << np.int64(a.layout.total_qubits)) | a.keys).ravel()
    amp0 = np.outer(b.amps, a.amps).ravel()

    prog, gate_count = _merge_program(M, n_out)
    oi, oa = sparse_action(prog, idx0, amp0)

    sys_bits = n_out * a.layout.b
    # scratch = eq + tmp ancilla bits, which must have come back clean
    scratch = (oi >> np.int64(sys_bits + T)) & np.int64((1 << n_out) - 1)
    keep = scratch == 0
    leak_sq = float(np.sum(np.abs(oa[~keep]) ** 2))
    leak = math.sqrt(max(leak_sq, 0.0))
    if leak > 1e-10:
        raise EntangledAncilla(f"scratch ancillas kept amplitude {leak:.2e}")
    ki = oi[keep]
    ka = oa[keep]
    flag_bits = ki >> np.int64(sys_bits + T + n_out)
    rec_bits = (ki >> np.int64(sys_bits)) & np.int64((1 << T) - 1)
    sys_vals = ki & np.int64((1 << sys_bits) - 1)
    dup_prob = float(np.linalg.norm(ka[flag_bits == 1]) ** 2)

    n_total = a.N + b.N if (a.N is not None and b.N is not None) else None
    try:
        # (flag, system) keys are the one-ancilla output layout's indices
        _, _, keys, rest = _rank_one_split(
            rec_bits, (flag_bits << np.int64(sys_bits)) | sys_vals, ka
        )
        out_layout = build_layout(M, n_out, 1)
        flag_q = out_layout.anc_qubit(0)
        discarded = True
    except EntangledAncilla:
        out_layout = build_layout(M, n_out, T + 1)
        # (flag, records, system) is already the layout's ancilla order
        keys = (flag_bits << np.int64(sys_bits + T)) | (rec_bits << np.int64(sys_bits)) | sys_vals
        rest = ka
        flag_q = out_layout.anc_qubit(T)
        discarded = False
    state = EncodedState.from_components(keys, rest, SORTED_LIST, out_layout, n_total)
    return MergeResult(
        state=state,
        flag_qubit=flag_q,
        duplicate_probability=dup_prob,
        records_discarded=discarded,
        gate_count=gate_count,
    )
