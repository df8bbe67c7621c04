"""Dense Fock-space oracle: ladder actions, k-RDMs, determinant rotations,
toy Hamiltonians, and ionization/attachment overlap tables.

A toy Hamiltonian is built from its h1 and h2 coefficient arrays; no
Hamiltonian file format is read or written.

This module is deliberately a different algorithm family from the circuit
side: operators act on the 2^M occupation basis (bit p-1 of a mask is the
occupation of orbital p, masks in increasing integer order), so agreement
with the register circuits is evidence rather than tautology. It imports
only the standard library, numpy and ``.errors``.

Sign convention (shared with the circuit layer): a_p^dag and a_p pick up
(-1)^(#occupied q < p), i.e. a_p^dag |x> = (-1)^par * |x + e_p| when orbital
p is empty. Under it the ascending product a_1^dag a_2^dag ... |vac> carries
a plus sign. One kernel, ``_string_action``, applies this rule for every
ladder, creation string, k-RDM and Hamiltonian term. It folds a string, in
Python ints, into a mask test, an XOR and one parity lookup, XORing every
operator's fixed sign into one mask since parity(a) * parity(b) =
parity(a ^ b), and returns only the entries the string keeps: a dead string
costs no array work and a live one a handful of array operations on its
kept masks. It takes an array of orbitals per operator slot, so the
Hamiltonian and the k-RDM tensor apply a batch of strings in one call.

What a string keeps depends only on (M, string), so ``k_rdm`` reads it from
a table built once per string (the string-driven replacement lists of Olsen
et al., J. Chem. Phys. 89, 2185 (1988)). The table is keyed on (M, ps, qs),
orbitals normalised by ``operator.index``, and holds read-only arrays. It
only grows: past KEPT_CAP entries (8 MiB) it stores nothing more and
computes each new string afresh. It never evicts, since a sweep cycling
through more strings than a bounded LRU holds would miss on every call. A
refusal is never stored, so every check runs on every call.
Which entries of H a Hamiltonian term reaches, and with what sign, also
depends only on M: ``_hamiltonian_terms`` builds that table once per M, on
the first ``dense_matrix`` call, as read-only arrays of 5 B an entry (the
entry's flat index and its sign) in term-major order, plus each
coefficient's entry count, so np.repeat lines the coefficients up with the
entries. It holds 81,664 entries at M=8 (0.41 MiB, against H's 1 MiB) and
6,174,720 at M=12 (30 MiB, against H's 256 MiB); coefficients are read on
every call.
``rotate_determinants`` builds every minor of a sector's source columns
level by level, each k x k minor a Laplace sum over (k-1) x (k-1) ones, with
no LAPACK call. Which (k-1)-subset each term reads depends only on (M, k):
``_minor_rows`` holds it, one read-only table per (M, k). The minors of one
chunk of sources hold at most DET_STACK_CAP entries (128 KiB).
"""

from __future__ import annotations

import operator
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import combinations

import numpy as np

from .errors import (
    BadParam,
    CapExceeded,
    IndexOutOfRange,
    NotUnitary,
    SectorEmpty,
)

FOCK_CAP = 12  # dense 4096-dim cap
RDM_ENTRY_CAP = 1 << 20  # entries of a k-RDM tensor, and of its annihilation batch
KEPT_CAP = 1 << 18  # entries k_rdm's string table holds, 32 B each: 8 MiB
DET_STACK_CAP = 1 << 13  # complex entries of one rotation chunk's minors: 128 KiB
_STRING_COST = 48  # entries charged per stored string for its key and headers (1.5 KiB)
_NO_MASKS, _NO_SIGNS = np.empty(0, dtype=np.int64), np.empty(0)  # what a dead string keeps


@lru_cache(maxsize=None)
def _popcounts(M: int) -> np.ndarray:
    """Read-only table of the occupation count of every mask below 2^M."""
    table = np.zeros(1 << M, dtype=np.int64)
    for k in range(M):  # masks with top bit k are the ones below 2^k plus one
        table[1 << k : 2 << k] = table[: 1 << k] + 1
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _masks(M: int) -> np.ndarray:
    """Read-only table of every mask below 2^M, in increasing order."""
    table = np.arange(1 << M, dtype=np.int64)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _parity_signs(M: int, odd: int = 0) -> np.ndarray:
    """Read-only table of (-1)^(occupation count + odd) of every mask below 2^M."""
    table = 1.0 - 2.0 * ((_popcounts(M) + odd) & 1)
    table.flags.writeable = False
    return table


@lru_cache(maxsize=None)
def _sector_sets(M: int, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Read-only ascending n-subsets of range(M), in lexicographic order, and their masks."""
    sets = np.array(list(combinations(range(M), n)))
    keys = (1 << sets).sum(axis=1)
    sets.flags.writeable = keys.flags.writeable = False
    return sets, keys


@lru_cache(maxsize=None)
def _minor_rows(M: int, k: int) -> np.ndarray:
    """Read-only (C(M, k), k) table, k >= 2: entry [t, i] is the rank of the
    t-th k-subset minus its i-th orbital among the (k-1)-subsets, both in
    ``_sector_sets`` order."""
    sets, keys = _sector_sets(M, k)
    below = _sector_sets(M, k - 1)[1]
    rank = np.zeros(1 << M, dtype=np.int64)
    rank[below] = np.arange(len(below))
    table = rank[keys[:, None] ^ (1 << sets)]
    table.flags.writeable = False
    return table


@dataclass(frozen=True)
class FockSpace:
    """All 2^M occupation masks, in increasing mask order."""

    M: int

    def __post_init__(self):
        if self.M < 1:
            raise BadParam(f"M={self.M} outside 1..{FOCK_CAP}")
        if self.M > FOCK_CAP:
            raise CapExceeded(f"M={self.M} exceeds the Fock oracle's cap of {FOCK_CAP}")

    @property
    def dim(self) -> int:
        return 1 << self.M

    def masks(self) -> np.ndarray:
        return _masks(self.M)

    def sector_indices(self, n: int) -> np.ndarray:
        """Mask indices of the n-electron sector."""
        return np.flatnonzero(_popcounts(self.M) == n)

    def check_orbital(self, p: int) -> None:
        if not 1 <= p <= self.M:
            raise IndexOutOfRange(f"orbital {p} outside 1..{self.M}")


def _string_action(space: FockSpace, ops, masks: np.ndarray):
    """Apply ("create" | "annihilate", p) pairs, rightmost operator first,
    to occupation masks. Returns (index, out, sign) of the kept entries
    only: their np.nonzero-style index, the mask each maps to and its +-1.0
    sign. Each p is one orbital or an array with one orbital per term along
    a leading axis, so a batch of strings acts on the masks in one pass,
    indexed by (terms, positions); a string of orbitals is indexed by
    (positions,), and a dead one (a_q a_q) keeps nothing, masks unread.

    The string is first folded over the terms alone: the bits a kept mask
    must hold (``care``) and their values (``want``), the XOR of the toggled
    bits (``flip``) and of every ``bit - 1`` (``low``), and whether it is
    ``live``. Operator i's sign is parity((mask ^ flip_i) & (bit_i - 1)),
    flip_i toggling the bits before it, and parity(a) * parity(b) =
    parity(a ^ b) makes their product parity((mask & low) ^ fx), ``fx``
    XORing every flip_i & (bit_i - 1).
    """
    care = want = flip = low = fx = 0
    live, batch = True, False
    for kind, p in ops:
        if kind not in ("create", "annihilate"):
            raise BadParam(f"kind {kind!r} not create/annihilate")
        if not isinstance(p, int) and np.ndim(p):  # ints skip np.ndim, about 1 us a call
            p = np.asarray(p, dtype=np.int64)[:, None]
            outside = p[(p < 1) | (p > space.M)]
            if outside.size:
                space.check_orbital(int(outside[0]))
            batch = True
        else:
            space.check_orbital(p)
        bit = 1 << (p - 1)
        # the value bit p must have in the input mask: a_p needs p occupied
        need = (bit if kind == "annihilate" else 0) ^ (flip & bit)
        live = live & ((care & bit & (want ^ need)) == 0)
        care, want = care | bit, want | need
        fx ^= flip & (bit - 1)
        flip, low = flip ^ bit, low ^ (bit - 1)
    if not batch:
        if not live:
            return (_NO_MASKS,), _NO_MASKS, _NO_SIGNS
        index = ((masks & care) == want).nonzero()
        x = masks[index]
        return index, x ^ flip, _parity_signs(space.M, int(fx).bit_count() & 1)[x & low]
    t, pos = index = (((masks & care) == want) & live).nonzero()
    x = masks[pos]
    return index, x ^ flip[t, 0], _parity_signs(space.M)[(x & low[t, 0]) ^ fx[t, 0]]


def apply_ladder_fock(vec: np.ndarray, p: int, kind: str, space: FockSpace) -> np.ndarray:
    """a_p or a_p^dag applied to a Fock vector, O(2^M), no matrix built."""
    vec = np.asarray(vec)
    _check_state(vec, space, normalized=False)
    (x,), out, sign = _string_action(space, ((kind, p),), space.masks())
    res = np.zeros_like(vec, dtype=complex)
    res[out] = sign * vec[x]
    return res


def creation_string(space: FockSpace, indices) -> np.ndarray:
    """a_{i1}^dag a_{i2}^dag ... a_{ik}^dag |vac> applied right to left.

    Returns the zero vector when an index repeats (Pauli exclusion).
    """
    ops = [("create", p) for p in reversed(tuple(indices))]
    _, out, sign = _string_action(space, ops, np.zeros(1, dtype=np.int64))
    v = np.zeros(space.dim, dtype=complex)
    v[out] = sign
    return v


def _check_state(state: np.ndarray, space: FockSpace, normalized: bool = True) -> None:
    if state.shape != (space.dim,):
        raise BadParam(f"state must have length 2^{space.M} = {space.dim}, "
                       f"not shape {state.shape}")
    if normalized:
        if not abs(np.vdot(state, state).real ** 0.5 - 1.0) <= 1e-8:  # NaN, inf too
            raise BadParam("state must be normalized")
    elif not np.isfinite(state).all():
        raise BadParam("state has a non-finite amplitude")


class _StringTable(dict):
    """(M, ps, qs) -> the read-only (x, out, sign) that k_rdm's string keeps;
    ``held`` counts the entries charged to it, at most KEPT_CAP."""

    held = 0


_kept = _StringTable()


def _kept_entries(space: FockSpace, ps: tuple, qs: tuple):
    """(x, out, sign) the string a_{p1}^dag ... a_{pk}^dag a_{qk} ... a_{q1}
    keeps over every mask, from the table, or computed and, while the table
    has room, stored read-only. A string charges its kept entries plus
    _STRING_COST; a refusal raises before anything is stored."""
    key = (space.M, ps, qs)
    entry = _kept.get(key)
    if entry is None:
        # a_{q1} is rightmost: it acts first
        ops = [("annihilate", q) for q in qs] + [("create", p) for p in reversed(ps)]
        (x,), out, sign = _string_action(space, ops, space.masks())
        # complex signs spare k_rdm a cast per call; the products are the same
        entry = x, out, sign.astype(complex)
        cost = len(x) + _STRING_COST
        if _kept.held + cost <= KEPT_CAP:
            for a in entry:
                a.flags.writeable = False
            _kept[key] = entry
            _kept.held += cost
    return entry


def k_rdm(state: np.ndarray, ps, qs, space: FockSpace) -> complex:
    """<a_{p1}^dag ... a_{pk}^dag a_{qk} ... a_{q1}>, exact.

    The sum over masks x of conj(state[out(x)]) * sign(x) * state[x] for the
    masks x the string keeps, in increasing x order; no image is scattered.
    The kept (x, out, sign) come from the module's string table, keyed on
    (M, ps, qs) with orbitals normalised by ``operator.index`` (1, True and
    np.int64(1) share an entry; a float is a TypeError). It holds read-only
    arrays and only grows: past KEPT_CAP entries (8 MiB) it computes each
    new string afresh and stores nothing, never evicting, so a sweep over
    more strings than it holds still hits on the ones it kept. The length,
    state and orbital checks run on every call, and refusals are not stored.
    """
    ps = tuple(ps)
    qs = tuple(qs)
    if len(ps) != len(qs):
        raise BadParam("p and q index lists must have equal length")
    state = np.asarray(state)
    _check_state(state, space)
    x, out, sign = _kept_entries(
        space, tuple(map(operator.index, ps)), tuple(map(operator.index, qs))
    )
    return complex(np.vdot(state[out], sign * state[x])) if len(x) else 0j


def k_rdm_tensor(state: np.ndarray, k: int, space: FockSpace) -> np.ndarray:
    """Every k-RDM entry at once: entry [p1-1, ..., pk-1, q1-1, ..., qk-1]
    is ``k_rdm(state, (p1, ..., pk), (q1, ..., qk), space)``.

    The M^k annihilation strings act once, as one batch over the masks of
    nonzero amplitude; past RDM_ENTRY_CAP entries in the tensor or M^k x 2^M
    in the batch it raises CapExceeded before allocating either. Each
    (p1, ..., pk) creation string acts on the batch's kept entries only, and
    np.add.at sums each entry's nonzero products in increasing mask order:
    k_rdm's order, but not through vdot, so they agree to rounding.
    """
    if k < 1:
        raise BadParam(f"RDM rank k={k} below 1")
    M = space.M
    entries = max(M ** (2 * k), M ** k << M)
    if entries > RDM_ENTRY_CAP:
        raise CapExceeded(f"{k}-RDM at M={M} needs {entries} entries > cap {RDM_ENTRY_CAP}")
    state = np.asarray(state)
    _check_state(state, space)
    bra = np.conj(state)
    qs = np.indices((M,) * k).reshape(k, -1) + 1
    nz = np.flatnonzero(state)
    (t, i), mid, sign = _string_action(space, [("annihilate", q) for q in qs], nz)
    ket = sign * state[nz[i]]
    rdm = np.zeros((M**k, M**k), dtype=complex)
    for row, ps in zip(rdm, np.ndindex(*(M,) * k)):
        (e,), out, sign = _string_action(space, [("create", p + 1) for p in reversed(ps)], mid)
        np.add.at(row, t[e], sign * ket[e] * bra[out])
    return rdm.reshape((M,) * (2 * k))


def rotate_determinants(state: np.ndarray, U: np.ndarray, space: FockSpace) -> np.ndarray:
    """Single-particle rotation lifted to the Fock space.

    Each N-particle sector transforms by the N-th compound matrix of U:
    |S> -> sum_T det(U[T, S]) |T> over ascending index sets. The vacuum
    sector is invariant. The minors of the sector's nonzero source sets S
    are built column by column: D_1 = U[:, S_0], then D_k[T, s] = sum_{i<k}
    (-1)^(i+k-1) U[T_i, S_{k-1}] D_{k-1}[T minus T_i, s] over every k-subset
    T, and D_N @ c is the sector. A chunk takes DET_STACK_CAP // (C(M, 1) +
    ... + C(M, N)) sources, at least one, so its minors hold at most
    DET_STACK_CAP entries (128 KiB), or one source's where those alone
    exceed it.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (space.M, space.M):
        raise BadParam(f"U must be {space.M}x{space.M}")
    if not np.isfinite(U).all():  # the SVD behind the norm would not converge
        raise NotUnitary("single-particle matrix has a non-finite entry")
    if np.linalg.norm(U.conj().T @ U - np.eye(space.M), ord=2) > 1e-10:
        raise NotUnitary("single-particle matrix fails unitarity at 1e-10")
    state = np.asarray(state, dtype=complex)
    _check_state(state, space, normalized=False)
    out = np.zeros_like(state)
    out[0] = state[0]
    for n in range(1, space.M + 1):
        sets, keys = _sector_sets(space.M, n)
        amps = state[keys]
        src = amps != 0
        S, c = sets[src], amps[src]
        if not len(c):
            continue
        levels = [(_sector_sets(space.M, k)[0], _minor_rows(space.M, k)) for k in range(2, n + 1)]
        width = max(1, DET_STACK_CAP // (space.M + sum(len(T) for T, _ in levels)))
        for lo in range(0, len(c), width):
            chunk = S[lo : lo + width]
            D = U[:, chunk[:, 0]]  # D[t, s] = det U[T_t, S_s[:k]], here k = 1
            for k, (T, rows) in enumerate(levels, 2):
                col = U[:, chunk[:, k - 1]]
                Dk = D[rows[:, k - 1]]
                Dk *= col[T[:, k - 1]]
                for i in range(k - 2, -1, -1):
                    term = D[rows[:, i]]
                    term *= col[T[:, i]]
                    if (k - i) % 2:  # (-1)^(i+k-1) = +1
                        Dk += term
                    else:
                        Dk -= term
                D = Dk
            out[keys] += D @ c[lo : lo + width]
    return out


@lru_cache(maxsize=None)
def _hamiltonian_terms(M: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Read-only (flat, counts, sign): the index row * 2^M + col into H
    (int32) and the +-1 (int8) of every entry a Hamiltonian term reaches, in
    term-major order (one-body (p, q), then two-body (p, q, r, s)), and how
    many entries each coefficient of concat(h1.ravel(), 0.5 * h2.ravel())
    reaches (int32), so np.repeat(coef, counts) lines the coefficients up with
    the entries. The pairs a_r a_s act on every mask once, then each p's
    creation pairs on what they keep; each chunk is made compact before it
    is kept."""
    space = FockSpace(M)
    a, b = np.divmod(np.arange(M * M), M)  # (p, q) and (r, s) pairs, term-major

    def chunk(x, out, term, terms, sign):
        counts = np.bincount(term, minlength=terms).astype(np.int32)
        return (out << M | x).astype(np.int32), counts, sign.astype(np.int8)

    (t, x), out, sign = _string_action(space, (("annihilate", b + 1), ("create", a + 1)), space.masks())
    chunks = [chunk(x, out, t, M * M, sign)]
    pairs = (("annihilate", b + 1), ("annihilate", a + 1))
    (rs, x), mid, pair_sign = _string_action(space, pairs, space.masks())
    orbitals = np.arange(1, M + 1)
    for p in range(M):  # p's M^3 two-body terms (q, r, s) follow every term before them
        (q, e), out, sign = _string_action(space, (("create", orbitals), ("create", p + 1)), mid)
        chunks.append(chunk(x[e], out, q * M * M + rs[e], M**3, pair_sign[e] * sign))
    table = tuple(np.concatenate(parts) for parts in zip(*chunks))
    for part in table:
        part.flags.writeable = False
    return table


def _h2_orbit_deviation(h2: np.ndarray) -> float:
    # physical pair symmetry: h_pqrs = conj(h_qpsr)
    return float(np.max(np.abs(h2 - np.conj(np.transpose(h2, (1, 0, 3, 2))))))


@dataclass
class ToyHamiltonian:
    """H = sum h1[p,q] a_p^dag a_q + 1/2 sum h2[p,q,r,s] a_p^dag a_q^dag a_r a_s.

    Coefficient tables are 0-indexed by orbital-1. Ingestion rejects
    violations of h1 = h1^dag and h_pqrs = conj(h_qpsr) instead of
    symmetrizing silently.
    """

    M: int
    h1: np.ndarray
    h2: np.ndarray = field(default=None)

    def __post_init__(self):
        self.h1 = np.asarray(self.h1, dtype=complex)
        if self.h1.shape != (self.M, self.M):
            raise BadParam(f"h1 must be {self.M}x{self.M}")
        if not np.isfinite(self.h1).all():
            raise BadParam("non-finite coefficient in h1")
        if np.max(np.abs(self.h1 - self.h1.conj().T)) > 1e-10:
            raise BadParam("h1 is not Hermitian at 1e-10")
        if self.h2 is None:
            self.h2 = np.zeros((self.M,) * 4, dtype=complex)
        self.h2 = np.asarray(self.h2, dtype=complex)
        if self.h2.shape != (self.M,) * 4:
            raise BadParam(f"h2 must be {self.M}^4")
        if not np.isfinite(self.h2).all():
            raise BadParam("non-finite coefficient in h2")
        dev = _h2_orbit_deviation(self.h2)
        if dev > 1e-10:
            raise BadParam(f"h2 violates h_pqrs = conj(h_qpsr) by {dev:.2e}")

    def dense_matrix(self, space: FockSpace) -> np.ndarray:
        """Dense H on the Fock space from the term table of its M
        (``_hamiltonian_terms``, 5 B an entry: 0.41 MiB at M=8, 30 MiB at
        M=12 against H's 256 MiB): the signed coefficients, repeated by their
        entry counts, and one np.bincount each for H.real and H.imag.
        bincount sums each entry from +0.0 in the table's term-major
        (p, q[, r, s]) order, so H is the per-term loop's sum bit for bit; a
        zero coefficient adds +-0.0, which leaves it unchanged. Coefficients are read, and checked finite, on
        every call, since the tables are mutable; an overflowing sum is refused."""
        if space.M != self.M:
            raise BadParam("space and Hamiltonian disagree on M")
        for name in ("h1", "h2"):
            if not np.isfinite(getattr(self, name)).all():
                raise BadParam(f"non-finite coefficient in {name}")
        flat, counts, sign = _hamiltonian_terms(self.M)
        coef = np.concatenate((self.h1.ravel(), 0.5 * self.h2.ravel()))
        real, imag = (
            np.bincount(flat, np.repeat(c, counts) * sign, space.dim**2) for c in (coef.real, coef.imag)
        )
        # an entry sums a coefficient at most once: scan only if count x largest part overflows
        big = not np.isfinite(float(np.abs(coef.view(float)).max()) * len(coef))
        if big and not (np.isfinite(real).all() and np.isfinite(imag).all()):
            raise BadParam("dense Hamiltonian overflows: an entry is not finite")
        H = np.empty((space.dim, space.dim), dtype=complex)  # allocated last: a lower peak
        H.real, H.imag = real.reshape(H.shape), imag.reshape(H.shape)
        band = max(1, (1 << 13) >> space.M)  # rows of 8,192 entries: 128 KiB temporaries
        for lo in range(0, space.dim, band):
            dev = np.max(np.abs(H[lo : lo + band] - H[:, lo : lo + band].conj().T))
            if not dev <= 1e-10:
                raise BadParam("dense Hamiltonian is not Hermitian at 1e-10")
        return H


def sector_eigensystem(H: np.ndarray, space: FockSpace, n: int):
    """(eigenvalues, eigenvectors as full Fock columns) of the n-electron block."""
    if np.shape(H) != (space.dim, space.dim):
        raise BadParam(f"H has shape {np.shape(H)}, not {(space.dim, space.dim)} for M={space.M}")
    idx = space.sector_indices(n)
    if len(idx) == 0:
        raise SectorEmpty(f"no {n}-electron states for M={space.M}")
    block = H[np.ix_(idx, idx)]
    vals, vecs = np.linalg.eigh(block)
    full = np.zeros((space.dim, len(idx)), dtype=complex)
    full[idx, :] = vecs
    return vals, full


def ionization_attachment_probabilities(
    H: ToyHamiltonian, i: int, N0: int
) -> tuple[np.ndarray, np.ndarray]:
    """Exact overlap tables lam_h[n] = |<Psi_{N0-1,n}| a_i |Psi_{N0,0}>|^2 and
    lam_p[n] = |<Psi_{N0+1,n}| a_i^dag |Psi_{N0,0}>|^2.

    n runs over the full target sector (dimension C(M, N0-/+1); the cited
    expression's upper limit M reads as "all sector eigenstates"). Sum rules
    sum_n lam_h = <n_i> and sum_n lam_p = 1 - <n_i> hold exactly; ground
    state degeneracy is broken deterministically (lowest eigh column).
    """
    if H.M > 8:
        raise CapExceeded("dense diagonalization capped at M=8")
    space = FockSpace(H.M)
    space.check_orbital(i)
    if not 0 <= N0 <= H.M:
        raise SectorEmpty(f"N0={N0} outside 0..{H.M}")
    if N0 - 1 < 0 or N0 + 1 > H.M:
        raise SectorEmpty(f"N0={N0} leaves no room for both N0-1 and N0+1 sectors")
    Hm = H.dense_matrix(space)
    _, vecs0 = sector_eigensystem(Hm, space, N0)
    psi0 = vecs0[:, 0]
    _, vh = sector_eigensystem(Hm, space, N0 - 1)
    _, vp = sector_eigensystem(Hm, space, N0 + 1)
    a_psi = apply_ladder_fock(psi0, i, "annihilate", space)
    c_psi = apply_ladder_fock(psi0, i, "create", space)
    lam_h = np.abs(vh.conj().T @ a_psi) ** 2
    lam_p = np.abs(vp.conj().T @ c_psi) ** 2
    return lam_h, lam_p
