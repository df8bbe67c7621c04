"""Seeded operation mixes for the fermiconv benchmark.

Each workload is a fixed cycle of operation kinds. An operation draws fresh
inputs from its own seeded generator, calls the public fermiconv functions,
and checks the result entrywise against the dense Fock oracle (``fci``),
never by fidelity alone. It returns a cost record: the gate counts and
bookkeeping the program reported, plus support sizes in and out.

The gate counts of an operation kind depend only on its fixed sizes, never
on the drawn amplitudes or orbitals, so every whole cycle books the same
counts and per-op count means repeat exactly between runs.

Program functions are always looked up on their module at call time
(``conversion.first_to_second``, not an imported name), so the traced run
can wrap them in place.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations
from typing import Callable

import numpy as np

from fermiconv import basis, circuits, conversion, encodings, fci, majorana, report, stateio

# Same post-phase bound as the CLI's tensor/basis verification.
VERIFY_DEVIATION = 1e-10
AMP_EPS = 1e-12  # amplitudes at or below this count as structurally zero


class CheckFailed(Exception):
    """An operation's output disagrees with the Fock oracle."""


@dataclass
class Context:
    """State an operation may leave for later operations of the same run."""

    fq2sl_counts: dict = field(default_factory=dict)  # (M, N, extra) -> GateCount
    group: dict | None = None  # current Hamiltonian, its space and ground state
    hamiltonians: int = 0


@dataclass(frozen=True)
class OpKind:
    name: str
    run: Callable  # (ctx, rng, retry_rng) -> cost record dict


# --- input generation (numpy only; the program sees just the result) -----


def _dets(rng, M, N, k):
    """Up to k distinct N-electron determinants as ascending 1-based tuples."""
    k = min(k, math.comb(M, N))
    out: set = set()
    while len(out) < k:
        out.add(tuple(sorted(int(p) + 1 for p in rng.choice(M, N, replace=False))))
    return sorted(out)


def _dets_from(rng, pool, N, k):
    pool = sorted(int(p) for p in pool)
    k = min(k, math.comb(len(pool), N))
    out: set = set()
    while len(out) < k:
        out.add(tuple(sorted(int(p) for p in rng.choice(pool, N, replace=False))))
    return sorted(out)


def _coefs(rng, k):
    c = rng.normal(size=k) + 1j * rng.normal(size=k)
    return c / np.linalg.norm(c)


def _perm_signs(N):
    out = []
    for perm in permutations(range(N)):
        inv = sum(1 for a in range(N) for b in range(a + 1, N) if perm[a] > perm[b])
        out.append((perm, 1 - 2 * (inv & 1)))
    return out


def fq_state(M, dets, coefs):
    """Antisymmetrized first-quantized superposition sum_k c_k |det_k>."""
    N = len(dets[0])
    layout = circuits.build_layout(M, N)
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    norm = 1.0 / math.sqrt(math.factorial(N))
    signs = _perm_signs(N)
    for det, c in zip(dets, coefs):
        for perm, sign in signs:
            amps[layout.basis_index(tuple(det[r] for r in perm))] += sign * norm * c
    return encodings.EncodedState(
        circuits.Statevector(amps), encodings.FIRST_QUANTIZED, layout, N
    )


def sl_state(M, n_reg, dets, coefs):
    """Sorted-list superposition on n_reg registers (sentinel-padded)."""
    layout = circuits.build_layout(M, n_reg)
    amps = np.zeros(1 << layout.total_qubits, dtype=complex)
    for det, c in zip(dets, coefs):
        values = tuple(det) + (layout.sentinel,) * (n_reg - len(det))
        amps[layout.basis_index(values)] += c
    ns = {len(d) for d in dets}
    return encodings.EncodedState(
        circuits.Statevector(amps), encodings.SORTED_LIST, layout,
        ns.pop() if len(ns) == 1 else None,
    )


def oracle_vector(M, dets, coefs):
    """Expected Fock vector: ascending creation strings applied to the vacuum.

    The dense oracle stops at FOCK_CAP orbitals. Above it, each coefficient
    goes on its determinant's mask with the plus sign the oracle gives an
    ascending creation string.
    """
    v = np.zeros(1 << M, dtype=complex)
    if M > fci.FOCK_CAP:
        for det, c in zip(dets, coefs):
            v[sum(1 << (p - 1) for p in det)] += c
        return v
    space = fci.FockSpace(M)
    for det, c in zip(dets, coefs):
        v += c * fci.creation_string(space, det)
    return v


def _haar(rng, M):
    z = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    q, r = np.linalg.qr(z)
    d = np.diag(r)
    return q * (d / np.abs(d))


def _dft(M, inverse):
    j, k = np.meshgrid(np.arange(M), np.arange(M), indexing="ij")
    sign = -1.0 if inverse else 1.0
    return np.exp(sign * 2j * np.pi * j * k / M) / np.sqrt(M)


def _toy_hamiltonian(rng, M):
    """Random coefficients obeying h1 = h1^dag and h_pqrs = conj(h_qpsr)."""
    a = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    h1 = (a + a.conj().T) / 2
    g = rng.normal(size=(M,) * 4) + 1j * rng.normal(size=(M,) * 4)
    h2 = 0.25 * (
        g
        + np.conj(np.transpose(g, (1, 0, 3, 2)))
        + np.conj(np.transpose(g, (3, 2, 1, 0)))
        + np.transpose(g, (2, 3, 0, 1))
    )
    return fci.ToyHamiltonian(M, h1, h2)


# --- checks and records ---------------------------------------------------


def deviation(expected, actual):
    """Max entrywise |actual * e^{i phi} - expected|, phi the best global phase."""
    ov = complex(np.vdot(actual, expected))
    ph = ov / abs(ov) if abs(ov) > 1e-300 else 1.0
    return float(np.max(np.abs(actual * ph - expected), initial=0.0))


def check_close(what, expected, actual):
    dev = deviation(np.asarray(expected), np.asarray(actual))
    if not dev <= VERIFY_DEVIATION:
        raise CheckFailed(f"{what}: deviation {dev:.3e} > {VERIFY_DEVIATION:g}")


def check_scalar(what, want, got):
    dev = abs(complex(got) - complex(want))
    if not dev <= VERIFY_DEVIATION:
        raise CheckFailed(f"{what}: {got!r} vs {want!r} (off by {dev:.3e})")


def support(amps):
    return int(np.count_nonzero(np.abs(amps) > AMP_EPS))


def _gates(fn, gc, **extra):
    return {
        "fn": fn,
        "toffoli_equiv": gc.toffoli_equiv,
        "cnot": gc.cnot,
        "single_qubit": gc.single_qubit,
        "register_unitary_dim_sum": gc.register_unitary_dim_sum,
        **extra,
    }


def _conv(fn, rep):
    return _gates(
        fn, rep.gate_count,
        record_ancillas=rep.record_ancillas,
        success_probability=rep.success_probability,
        attempts=rep.attempts,
    )


def _roundtrip(enc):
    """Serialize and parse, as the CLI does between verbs."""
    return stateio.read_state(stateio.write_state(enc))


# --- convert --------------------------------------------------------------


def fq2sl(M, N, extra=0):
    def run(ctx, rng, retry_rng):
        dets = _dets(rng, M, N, int(rng.integers(1, 5)))
        c = _coefs(rng, len(dets))
        enc = _roundtrip(fq_state(M, dets, c))
        out, rep = conversion.first_to_second(enc, extra_registers=extra)
        out = _roundtrip(out)
        check_close("fq2sl", oracle_vector(M, dets, c), encodings.sorted_list_to_fock(out))
        ctx.fq2sl_counts[(M, N, extra)] = rep.gate_count
        return {
            "calls": [_conv("first_to_second", rep)],
            "support_in": support(enc.state.amps),
            "support_out": support(out.state.amps),
        }

    suffix = f"_x{extra}" if extra else ""
    return OpKind(f"fq2sl_M{M}_N{N}{suffix}", run)


def sl2fq(M, N, n_reg):
    def run(ctx, rng, retry_rng):
        dets = _dets(rng, M, N, int(rng.integers(1, 5)))
        c = _coefs(rng, len(dets))
        want = oracle_vector(M, dets, c)
        enc = _roundtrip(sl_state(M, n_reg, dets, c))
        out, rep = conversion.second_to_first(enc, N=N, rng=retry_rng)
        out = _roundtrip(out)
        check_close("sl2fq", want, encodings.first_quantized_to_fock(out))
        back, rep2 = conversion.first_to_second(out)
        check_close("sl2fq round trip", want, encodings.sorted_list_to_fock(back))
        return {
            "calls": [_conv("second_to_first", rep), _conv("first_to_second", rep2)],
            "support_in": support(enc.state.amps),
            "support_out": support(out.state.amps),
        }

    return OpKind(f"sl2fq_M{M}_N{N}_reg{n_reg}", run)


COST_QUERY_SIZE = (32, 8)  # (M, N): far beyond the 26-qubit simulation cap


def cost_query(ctx, rng, retry_rng):
    """The scaling-report path: counting-only builds, the grid and its fit.

    Checks that the counting-only builder agrees with the grid and with every
    fq2sl circuit this run simulated, which the program builds separately.
    """
    M, N = COST_QUERY_SIZE
    gc = conversion.fq2sl_gate_count(M, N)
    grid = report.conversion_count_grid()
    fit = report.fit_scaling(grid, report.MODEL_SORT)
    by_size = {(n, m): cnt for n, m, cnt in grid}
    if by_size.get((N, M)) != gc.toffoli_equiv + gc.cnot:
        raise CheckFailed(f"grid count {by_size.get((N, M))} != direct count {gc}")
    if not (fit.coefficient > 0 and 0.0 <= fit.r_squared <= 1.0):
        raise CheckFailed(f"implausible fit {fit.coefficient!r}, R2={fit.r_squared!r}")
    for (m, n, extra), simulated in sorted(ctx.fq2sl_counts.items()):
        counted = conversion.fq2sl_gate_count(m, n, extra)
        if counted != simulated:
            raise CheckFailed(f"fq2sl M={m} N={n} x{extra}: counted {counted} != simulated {simulated}")
    return {"calls": [_gates("fq2sl_gate_count", gc)], "support_in": 0, "support_out": len(grid)}


CONVERT = (
    fq2sl(6, 2),
    fq2sl(6, 2, extra=1),
    fq2sl(6, 3),
    fq2sl(6, 3, extra=1),
    fq2sl(6, 4),
    fq2sl(6, 5),
    fq2sl(14, 3),
    sl2fq(6, 2, 2),
    sl2fq(6, 2, 4),
    sl2fq(6, 3, 3),
    sl2fq(6, 3, 4),
    sl2fq(14, 2, 2),
    sl2fq(14, 2, 3),
    OpKind("cost_query", cost_query),
)


# --- operators ------------------------------------------------------------


def ladder(M, n_reg, kind):
    def run(ctx, rng, retry_rng):
        space = fci.FockSpace(M)
        N = int(rng.integers(1, min(M - 1, n_reg - 1) + 1))  # keeps slack
        dets = _dets(rng, M, N, int(rng.integers(1, 5)))
        c = _coefs(rng, len(dets))
        p = int(rng.integers(1, M + 1))
        enc = sl_state(M, n_reg, dets, c)
        out = majorana.apply_ladder(enc, p, kind)
        want = fci.apply_ladder_fock(oracle_vector(M, dets, c), p, kind, space)
        check_close(f"{kind} a_{p}", want, encodings.sorted_list_to_fock(out))
        return {"calls": [], "support_in": support(enc.state.amps), "support_out": support(out.state.amps)}

    return OpKind(f"ladder_{kind}_M{M}_reg{n_reg}", run)


MERGE_M = 6


def merge(superposed, shared):
    """2+2-register merge; shared=True puts one orbital in both first dets."""

    def run(ctx, rng, retry_rng):
        M = MERGE_M
        space = fci.FockSpace(M)
        na, nb = (int(v) for v in rng.integers(1, 3, size=2))
        ka, kb = (int(v) for v in rng.integers(2, 4, size=2)) if superposed else (1, 1)
        if shared:
            s = int(rng.integers(1, M + 1))
            rest = [p for p in range(1, M + 1) if p != s]
            da = _dets(rng, M, na, ka)
            db = _dets(rng, M, nb, kb)
            da[0] = tuple(sorted((s,) + tuple(int(p) for p in rng.choice(rest, na - 1, replace=False))))
            db[0] = tuple(sorted((s,) + tuple(int(p) for p in rng.choice(rest, nb - 1, replace=False))))
            da, db = sorted(set(da)), sorted(set(db))
        else:
            perm = rng.permutation(M) + 1
            da = _dets_from(rng, perm[: M // 2], na, ka)
            db = _dets_from(rng, perm[M // 2:], nb, kb)
        ca, cb = _coefs(rng, len(da)), _coefs(rng, len(db))
        a, b = sl_state(M, 2, da, ca), sl_state(M, 2, db, cb)
        res = conversion.tensor_product_merge(a, b)

        want = np.zeros(space.dim, dtype=complex)
        p_dup = 0.0
        for x, cx in zip(da, ca):
            for y, cy in zip(db, cb):
                want += cx * cy * fci.creation_string(space, x + y)
                if set(x) & set(y):
                    p_dup += abs(cx * cy) ** 2
        lay = res.state.layout
        sys_bits = lay.n_reg * lay.b
        rows = res.state.state.amps.reshape(-1, 1 << sys_bits)
        fbit = res.flag_qubit - sys_bits
        unflagged = (np.arange(rows.shape[0]) >> fbit) & 1 == 0
        # records, where kept, label disjoint branches: their coherent sum
        # is the merged state
        merged = rows[unflagged].sum(axis=0)
        got = encodings.sorted_list_to_fock(
            encodings.EncodedState(
                circuits.Statevector(merged), encodings.SORTED_LIST,
                circuits.build_layout(M, lay.n_reg), None,
            )
        )
        check_close("merge", want, got)
        # the merge is a permutation of (input, records): pairs never
        # interfere, so the flag fires with the summed weight of the pairs
        # that share an orbital
        check_scalar("duplicate probability", p_dup, res.duplicate_probability)
        return {
            "calls": [_gates("tensor_product_merge", res.gate_count, records_discarded=res.records_discarded)],
            "support_in": support(a.state.amps) * support(b.state.amps),
            "support_out": support(res.state.state.amps),
        }

    name = f"merge_{'super' if superposed else 'basis'}_{'shared' if shared else 'disjoint'}"
    return OpKind(name, run)


def register_transform(M, N, qft):
    def run(ctx, rng, retry_rng):
        space = fci.FockSpace(M)
        dets = _dets(rng, M, N, int(rng.integers(1, 5)))
        c = _coefs(rng, len(dets))
        enc = fq_state(M, dets, c)
        if qft:
            inverse = bool(rng.integers(2))
            U = _dft(M, inverse)
            out, gc = basis.qft_register_transform(enc, inverse=inverse)
            fn = "qft_register_transform"
        else:
            U = _haar(rng, M)
            out, gc = basis.apply_register_transform(enc, U)
            fn = "apply_register_transform"
        want = fci.rotate_determinants(oracle_vector(M, dets, c), U, space)
        check_close(fn, want, encodings.first_quantized_to_fock(out))
        return {"calls": [_gates(fn, gc)], "support_in": support(enc.state.amps), "support_out": support(out.state.amps)}

    return OpKind(f"{'qft' if qft else 'regu'}_M{M}_N{N}", run)


OPERATORS = (
    ladder(4, 6, "create"),
    ladder(4, 6, "annihilate"),
    ladder(6, 4, "create"),
    ladder(6, 4, "annihilate"),
    ladder(8, 4, "create"),
    ladder(8, 4, "annihilate"),
    merge(False, False),
    merge(False, True),
    merge(True, False),
    merge(True, True),
    register_transform(4, 2, qft=True),
    register_transform(8, 3, qft=True),
    register_transform(4, 3, qft=False),
    register_transform(8, 2, qft=False),
)


# --- oracle -----------------------------------------------------------------


def ground_state(M):
    """Fresh Hamiltonian: dense build and the half-filling sector ground state."""

    def run(ctx, rng, retry_rng):
        H = _toy_hamiltonian(rng, M)
        space = fci.FockSpace(M)
        N0 = M // 2
        Hm = H.dense_matrix(space)
        vals, vecs = fci.sector_eigensystem(Hm, space, N0)
        psi, E = vecs[:, 0], float(vals[0])
        check_close("H psi = E psi", E * psi, Hm @ psi)
        check_scalar("ground state norm", 1.0, np.linalg.norm(psi))
        ctx.group = {"H": H, "space": space, "N0": N0, "psi": psi}
        ctx.hamiltonians += 1
        return {"calls": [], "support_in": 0, "support_out": support(psi)}

    return OpKind(f"ground_M{M}", run)


def ionization(M):
    def run(ctx, rng, retry_rng):
        g = ctx.group
        i = int(rng.integers(1, M + 1))
        lam_h, lam_p = fci.ionization_attachment_probabilities(g["H"], i, g["N0"])
        n_i = fci.k_rdm(g["psi"], (i,), (i,), g["space"]).real
        check_scalar(f"sum lambda_h (i={i})", n_i, np.sum(lam_h))
        check_scalar(f"sum lambda_p (i={i})", 1.0 - n_i, np.sum(lam_p))
        return {"calls": [], "support_in": support(g["psi"]), "support_out": len(lam_h) + len(lam_p)}

    return OpKind(f"ionization_M{M}", run)


def rdms(M):
    """Full 1-RDM and 2-RDM through k_rdm, checked by trace and contraction."""

    def run(ctx, rng, retry_rng):
        g = ctx.group
        psi, space, N0 = g["psi"], g["space"], g["N0"]
        orb = range(1, M + 1)
        g1 = np.array([[fci.k_rdm(psi, (p,), (q,), space) for q in orb] for p in orb])
        g2 = np.empty((M,) * 4, dtype=complex)
        for p1, p2, q1, q2 in np.ndindex(*g2.shape):
            g2[p1, p2, q1, q2] = fci.k_rdm(psi, (p1 + 1, p2 + 1), (q1 + 1, q2 + 1), space)
        check_scalar("tr gamma1", N0, np.trace(g1))
        check_close("gamma1 hermitian", g1.conj().T, g1)
        # sum_r <a_p^dag a_r^dag a_r a_q> = (N0 - 1) <a_p^dag a_q>
        check_close("gamma2 contraction", (N0 - 1) * g1, np.einsum("prqr->pq", g2))
        check_close("gamma2 antisymmetry", -g2.transpose(1, 0, 2, 3), g2)
        return {"calls": [], "support_in": support(psi), "support_out": support(g2.reshape(-1))}

    return OpKind(f"rdm12_M{M}", run)


def rotation(M):
    """Random single-particle rotation of the ground state and back."""

    def run(ctx, rng, retry_rng):
        g = ctx.group
        psi, space = g["psi"], g["space"]
        U = _haar(rng, M)
        out = fci.rotate_determinants(psi, U, space)
        check_scalar("rotated norm", 1.0, np.linalg.norm(out))
        check_close("rotate then undo", psi, fci.rotate_determinants(out, U.conj().T, space))
        return {"calls": [], "support_in": support(psi), "support_out": support(out)}

    return OpKind(f"rotate_M{M}", run)


def _group(M, with_heavy=True):
    ops = [ground_state(M)]
    if with_heavy:
        ops += [ionization(M), rdms(M)]
    return ops + [rotation(M)]


# Four M=6 Hamiltonians, then one M=8 Hamiltonian with the lighter ops only:
# M=8 ionization and 2-RDM ops take about a second each, which would keep a
# run under 100 samples and put the 90th percentile on the M=8 outliers.
ORACLE = tuple(_group(6) * 4 + _group(8, with_heavy=False))

WORKLOADS = {"convert": CONVERT, "operators": OPERATORS, "oracle": ORACLE}


def warmup_kinds(cycle):
    """One pass over every distinct kind, keeping the cycle's order."""
    seen: set = set()
    out = []
    for op in cycle:
        if op.name not in seen:
            seen.add(op.name)
            out.append(op)
    return tuple(out)
