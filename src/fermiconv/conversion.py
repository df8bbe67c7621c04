"""Conversions between the two encodings, and the tensor-product merge.

Antisymmetric-to-sorted-list runs a record-keeping sorting network forward:
comparison outcomes land in one ancilla per comparator, a -1 phase rides
along with every swap, and for a properly antisymmetrized input the record
register provably factorizes (outcomes depend only on the ordering
permutation, and the per-branch phase cancels the permutation sign).

Sorted-list-to-antisymmetric seeds the permutation the other way round: a
seed stage, traced once from |0> on N seed registers alone, sorts a uniform
superposition without phases to mint one record pattern per permutation,
a projective measurement discards colliding seeds, the records (x) system
drive the inverse network (one Z per record supplies the sign), and each
record is erased right after its comparator is undone, by recomputing it.

Every stage is permutation plus phase (the seed's H layer aside, which the
tracer branches), so all of them run on component lists through
``sparse_action`` on work layouts of any width up to the packed-index cap.
Inputs and outputs are component lists too; the one dense vector is the
record state that fq2sl reports, and the joint merge input and the split
matrices obey the tracer's BRANCH_CAP.

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
    Statevector,
    build_layout,
    check_branches,
    check_dense,
    compile_circuit,
    count_gates,
    cswap,
    h,
    mcx,
    sparse_action,
    x,
    z,
)
from .comparators import (
    SortingNetworkSpec,
    compute_greater_gates,
    equality_flag_gates,
    sorting_network_circuit,
)
from .encodings import (
    AMP_THRESHOLD,
    FIRST_QUANTIZED,
    SORTED_LIST,
    EncodedState,
    validate,
)
from .errors import (
    BadParam,
    BasisMismatch,
    EntangledAncilla,
    MalformedComponent,
    MixedParticleNumber,
    NotAntisymmetric,
    RetryBudgetExceeded,
)

# rank-1 split residual bound: fidelity of the kept factor >= 1 - 1e-9
_SPLIT_RESID = math.sqrt(1e-9)


@dataclass
class ConversionReport:
    """Bookkeeping emitted next to every converted state."""

    direction: str
    gate_count: GateCount
    record_ancillas: int
    success_probability: float
    attempts: int
    record_state: np.ndarray | None = None


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


def _fq2sl_circuit(M: int, N: int, n_out: int) -> Circuit:
    """Sentinel fill of registers N..n_out-1, then the recorded sort."""
    spec = SortingNetworkSpec.batcher(n_out)
    layout = build_layout(M, n_out, spec.n_comparators)
    circ = Circuit(layout)
    for r in range(N, n_out):
        for q in layout.register_qubits(r):
            circ.add(x(q))  # all-zeros register -> all-ones sentinel
    return circ + sorting_network_circuit(layout, spec, with_z=True)


@functools.lru_cache(maxsize=32)
def _fq2sl_program(M: int, N: int, n_out: int) -> tuple[Program, GateCount]:
    circ = _fq2sl_circuit(M, N, n_out)
    return compile_circuit(circ), count_gates(circ)


def _sl2fq_circuits(M: int, N: int) -> tuple[Circuit, Circuit]:
    """(seed stage, unsort) for N >= 2: H on N seed registers, their phase-free
    recorded sort and N - 1 collision flags; then the inverse network over N
    system registers, driven by the same records, which supplies the sign."""
    spec = SortingNetworkSpec.batcher(N)
    T = spec.n_comparators
    seed = build_layout(M, N, T + N - 1)
    seed_stage = Circuit(seed).extend(h(q) for q in range(N * seed.b))
    seed_stage = seed_stage + sorting_network_circuit(seed, spec, with_z=False)
    for k in range(N - 1):
        seed_stage.extend(equality_flag_gates(seed, k, k + 1, seed.anc_qubit(T + k)))
    work = build_layout(M, N, T)
    unsort = Circuit(work)
    for t in reversed(range(T)):
        i, j = spec.pairs[t]
        rec = work.anc_qubit(t)
        qi = list(work.register_qubits(i))
        qj = list(work.register_qubits(j))
        unsort.add(z(rec))
        unsort.extend(cswap(rec, qi[k], qj[k]) for k in range(work.b))
        unsort.extend(compute_greater_gates(work, i, j, rec))
    return seed_stage, unsort


@functools.lru_cache(maxsize=32)
def _sl2fq_programs(M: int, N: int) -> tuple[Program, Program, GateCount]:
    """(seed stage, unsort, their summed count), compiled."""
    seed_stage, unsort = _sl2fq_circuits(M, N)
    gc = count_gates(seed_stage) + count_gates(unsort)
    return compile_circuit(seed_stage), compile_circuit(unsort), gc


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
    check_dense(sys_bits)  # the output's cap, before the network
    prog, gate_count = _fq2sl_program(enc.M, N, n_out)
    T = prog.n_qubits - sys_bits
    check_dense(T)  # and the record state's, before the trace

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
        record_state=Statevector.from_components(T, rec_keys, u / np.linalg.norm(u)).amps,
    )
    return result, report


def fq2sl_gate_count(M: int, N: int, extra_registers: int = 0) -> GateCount:
    """Cost of the forward conversion circuit, no statevector built.

    Layouts carry no cap, so scaling grids may go far beyond desk size.
    """
    return count_gates(_fq2sl_circuit(M, N, N + extra_registers))


def sl2fq_gate_count(M: int, N: int) -> GateCount:
    """Cost of the backward conversion circuits, no statevector built."""
    if N == 1:  # second_to_first passes a single register through
        return GateCount()
    return sum(map(count_gates, _sl2fq_circuits(M, N)), GateCount())


def second_to_first(
    enc: EncodedState,
    N: int | None = None,
    rng: np.random.Generator | None = None,
    retry_budget: int | None = None,
) -> tuple[EncodedState, ConversionReport]:
    """Sorted list with a fixed electron count -> antisymmetric N registers.

    Pipeline: slice off the all-sentinel tail; trace the seed stage (H on N
    seed registers, phase-free recorded sort, collision flags) once from |0>;
    measure away seed collisions (success probability prod_k (1 - k/2^b),
    retried up to retry_budget times; by default the smallest budget, and at
    least 16, that runs out with probability <= 1e-9); split off the seed;
    drive the inverse network over records (x) system, one Z per record.
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
    if N == 1:
        result = EncodedState.from_components(idx0, amp0, FIRST_QUANTIZED, fq_layout, N)
        report = ConversionReport(
            direction="sorted-list-to-antisymmetric",
            gate_count=GateCount(),
            record_ancillas=0,
            success_probability=1.0,
            attempts=0,
        )
        return result, report

    if rng is None:
        rng = np.random.default_rng(0)
    seed_stage, unsort, gate_count = _sl2fq_programs(enc.M, N)
    T = unsort.n_qubits - N * b
    # the seed stage never touches the system, so it runs once from |0>
    oi, oa = sparse_action(seed_stage, np.zeros(1, np.int64), np.ones(1, complex))

    keep = (oi >> np.int64(N * b + T)) == 0  # no collision flag raised
    p_success = float(np.sum(np.abs(oa[keep]) ** 2))
    if retry_budget is None:
        retry_budget = 16
        if 0 < p_success < 1:
            retry_budget = max(16, math.ceil(math.log(1e-9) / math.log1p(-p_success)))
    attempts = 0
    for attempts in range(1, retry_budget + 1):
        if rng.random() < p_success:
            break
    else:
        raise RetryBudgetExceeded(
            f"{retry_budget} attempts at success probability {p_success:.3f}"
        )

    # discard the seed: it factorizes as (uniform over distinct sorted
    # values) x records, because record patterns depend only on the seeding
    # permutation, never on which distinct values were drawn
    ki = oi[keep]
    _, _, rec_keys, rec = _rank_one_split(
        ki & np.int64((1 << (N * b)) - 1), ki >> np.int64(N * b), oa[keep]
    )
    # records x system holds at most N! C(M, N) <= 2^(N b) components, which
    # the seed's H branching has already checked against BRANCH_CAP
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
        record_ancillas=T,
        success_probability=p_success,
        attempts=attempts,
    )
    return result, report


def _merge_circuit(M: int, n_out: int) -> Circuit:
    """Adjacent-only resort of n_out registers, then the duplicate flag.

    Ancillas: T records, n_out - 1 equality flags, 1 sentinel marker, 1 flag.
    """
    spec = SortingNetworkSpec.adjacent(n_out)
    T = spec.n_comparators
    layout = build_layout(M, n_out, T + n_out + 1)
    records = [layout.anc_qubit(t) for t in range(T)]
    eqs = [layout.anc_qubit(T + k) for k in range(n_out - 1)]
    tmp = layout.anc_qubit(T + n_out - 1)
    flag = layout.anc_qubit(T + n_out)
    circ = sorting_network_circuit(layout, spec, records, with_z=True, exempt_anc=tmp)
    dup = Circuit(layout)
    for k in range(n_out - 1):
        dup.extend(equality_flag_gates(layout, k, k + 1, eqs[k]))
        both = list(layout.register_qubits(k)) + list(layout.register_qubits(k + 1))
        dup.add(mcx(both, eqs[k]))  # subtract the sentinel-sentinel case
    orgate = Circuit(layout)
    for q in eqs:
        orgate.add(x(q))
    orgate.add(mcx(eqs, flag))
    orgate.add(x(flag))
    for q in eqs:
        orgate.add(x(q))
    return circ + dup + orgate + dup.inverse()


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
    T = SortingNetworkSpec.adjacent(n_out).n_comparators

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
