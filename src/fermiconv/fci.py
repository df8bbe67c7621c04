"""Dense Fock-space oracle: ladder matrices, k-RDMs, determinant rotations,
toy Hamiltonians, and ionization/attachment overlap tables.

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
"""

from __future__ import annotations

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
    (x,), out, sign = _string_action(space, ((kind, p),), space.masks())
    res = np.zeros_like(vec, dtype=complex)
    res[out] = sign * vec[x]
    return res


def ladder_matrix(p: int, kind: str, space: FockSpace) -> np.ndarray:
    """Dense ladder matrix with Jordan-Wigner signs; a_p^dag = a_p^T here
    because all entries are real."""
    (x,), out, sign = _string_action(space, ((kind, p),), space.masks())
    mat = np.zeros((space.dim, space.dim))
    mat[out, x] = sign
    return mat


def vacuum(space: FockSpace) -> np.ndarray:
    return creation_string(space, ())


def determinant_vector(space: FockSpace, indices) -> np.ndarray:
    """Basis vector of the determinant with the given (distinct) orbitals,
    i.e. the ascending creation string applied to the vacuum (plus sign)."""
    mask = 0
    for p in indices:
        space.check_orbital(p)
        if mask & (1 << (p - 1)):
            raise BadParam(f"orbital {p} repeated")
        mask |= 1 << (p - 1)
    v = np.zeros(space.dim, dtype=complex)
    v[mask] = 1.0
    return v


def creation_string(space: FockSpace, indices) -> np.ndarray:
    """a_{i1}^dag a_{i2}^dag ... a_{ik}^dag |vac> applied right to left.

    Returns the zero vector when an index repeats (Pauli exclusion).
    """
    ops = [("create", p) for p in reversed(tuple(indices))]
    _, out, sign = _string_action(space, ops, np.zeros(1, dtype=np.int64))
    v = np.zeros(space.dim, dtype=complex)
    v[out] = sign
    return v


def _check_normalized(state: np.ndarray) -> None:
    if not abs(np.vdot(state, state).real ** 0.5 - 1.0) <= 1e-8:  # NaN and inf fail too
        raise BadParam("state must be normalized")


def k_rdm(state: np.ndarray, ps, qs, space: FockSpace) -> complex:
    """<a_{p1}^dag ... a_{pk}^dag a_{qk} ... a_{q1}>, exact.

    The sum over masks x of conj(state[out(x)]) * sign(x) * state[x] for the
    masks x the string keeps, in increasing x order; no image is scattered.
    """
    ps = tuple(ps)
    qs = tuple(qs)
    if len(ps) != len(qs):
        raise BadParam("p and q index lists must have equal length")
    state = np.asarray(state)
    _check_normalized(state)
    # a_{q1} is rightmost: it acts first
    ops = [("annihilate", q) for q in qs] + [("create", p) for p in reversed(ps)]
    (x,), out, sign = _string_action(space, ops, space.masks())
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
    _check_normalized(state)
    state = np.asarray(state)
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


def one_rdm(state: np.ndarray, space: FockSpace) -> np.ndarray:
    return k_rdm_tensor(state, 1, space)


def rotate_determinants(state: np.ndarray, U: np.ndarray, space: FockSpace) -> np.ndarray:
    """Single-particle rotation lifted to the Fock space.

    Each N-particle sector transforms by the N-th compound matrix of U:
    |S> -> sum_T det(U[T, S]) |T> over ascending index sets. The vacuum
    sector is invariant.
    """
    U = np.asarray(U, dtype=complex)
    if U.shape != (space.M, space.M):
        raise BadParam(f"U must be {space.M}x{space.M}")
    if np.linalg.norm(U.conj().T @ U - np.eye(space.M), ord=2) > 1e-10:
        raise NotUnitary("single-particle matrix fails unitarity at 1e-10")
    state = np.asarray(state, dtype=complex)
    out = np.zeros_like(state)
    out[0] = state[0]
    for n in range(1, space.M + 1):
        sets = np.array(list(combinations(range(space.M), n)))
        keys = (1 << sets).sum(axis=1)
        amps = state[keys]
        src = amps != 0
        S, c = sets[src], amps[src]
        if not len(c):
            continue
        for T, key in zip(sets, keys):
            # det(U[T, S]) stacked over the nonzero source sets S
            out[key] = np.linalg.det(U[T[:, None], S[:, None, :]]) @ c
    return out


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
        """Dense H on the Fock space, built term by term in (p, q[, r, s])
        order: the one-body terms in one kernel call, then the two-body terms
        one (p, q) slice at a time. The M^2 pairs a_r a_s act on every mask
        once; each slice applies its two creations only to the masks its
        nonzero (r, s) terms keep. Zero coefficients are skipped."""
        if space.M != self.M:
            raise BadParam("space and Hamiltonian disagree on M")
        H = np.zeros((space.dim, space.dim), dtype=complex)
        masks = space.masks()

        def add(c, out, sign, cols):
            # term-major, and no entry repeats within a term: each entry of H
            # sums its terms in the order a per-term loop would
            np.add.at(H, (out, cols), c * sign)

        p, q = np.nonzero(self.h1)
        (t, x), out, sign = _string_action(space, (("annihilate", q + 1), ("create", p + 1)), masks)
        add(self.h1[p, q][t], out, sign, x)
        # a_r a_s on every mask once: entry e maps mask x[e] to mid[e] under
        # term t[e] = r * M + s, entries in term-major order
        r, s = np.divmod(np.arange(self.M**2), self.M)
        pairs = (("annihilate", s + 1), ("annihilate", r + 1))
        (t, x), mid, pair_sign = _string_action(space, pairs, masks)
        for p, q in np.ndindex(self.M, self.M):
            c = 0.5 * self.h2[p, q].ravel()[t]
            e = np.flatnonzero(c)
            (k,), out, sign = _string_action(space, (("create", q + 1), ("create", p + 1)), mid[e])
            e = e[k]
            add(c[e], out, pair_sign[e] * sign, x[e])
        if np.max(np.abs(H - H.conj().T)) > 1e-10:
            raise BadParam("dense Hamiltonian is not Hermitian at 1e-10")
        return H


def random_toy_hamiltonian(rng: np.random.Generator, M: int, two_body: bool = True) -> ToyHamiltonian:
    """Random Hermitian toy Hamiltonian satisfying the ingestion symmetries.

    h2 is averaged over the orbit {pqrs, conj qpsr, conj srqp, rsqp}, which
    enforces both the pair symmetry and Hermiticity of the dense matrix.
    """
    a = rng.normal(size=(M, M)) + 1j * rng.normal(size=(M, M))
    h1 = (a + a.conj().T) / 2
    if two_body:
        g = rng.normal(size=(M,) * 4) + 1j * rng.normal(size=(M,) * 4)
        g = 0.25 * (
            g
            + np.conj(np.transpose(g, (1, 0, 3, 2)))
            + np.conj(np.transpose(g, (3, 2, 1, 0)))
            + np.transpose(g, (2, 3, 0, 1))
        )
    else:
        g = np.zeros((M,) * 4)
    return ToyHamiltonian(M, h1, g)


def sector_eigensystem(H: np.ndarray, space: FockSpace, n: int):
    """(eigenvalues, eigenvectors as full Fock columns) of the n-electron block."""
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


# --- ToyHamiltonian text format: H1 p q re im / H2 p q r s re im ---------


def write_toy_hamiltonian(H: ToyHamiltonian) -> str:
    lines = []
    for p in range(H.M):
        for q in range(H.M):
            zv = complex(H.h1[p, q])
            if zv != 0:
                lines.append(f"H1 {p + 1} {q + 1} {zv.real!r} {zv.imag!r}")
    for p, q, r, s in np.ndindex(*(H.M,) * 4):
        zv = complex(H.h2[p, q, r, s])
        if zv != 0:
            lines.append(f"H2 {p + 1} {q + 1} {r + 1} {s + 1} {zv.real!r} {zv.imag!r}")
    return "\n".join(lines) + "\n"


def read_toy_hamiltonian(text: str, M: int | None = None) -> ToyHamiltonian:
    """Parse H1/H2 coefficient lines; unlisted entries are zero.

    M defaults to the largest orbital index mentioned.
    """
    entries: list[tuple[tuple[int, ...], complex, str]] = []
    for ln in text.splitlines():
        ln = ln.strip()
        if not ln:
            continue
        tok = ln.split()
        n_idx = {"H1": 2, "H2": 4}.get(tok[0])
        if n_idx is None or len(tok) != n_idx + 3:
            raise BadParam(f"bad Hamiltonian line: {ln!r}")
        try:
            idx = tuple(int(t) for t in tok[1 : n_idx + 1])
            zv = float(tok[-2]) + 1j * float(tok[-1])
        except ValueError:
            raise BadParam(f"non-numeric token in Hamiltonian line: {ln!r}") from None
        if min(idx) < 1:
            raise BadParam(f"orbital below 1 in Hamiltonian line: {ln!r}")
        entries.append((idx, zv, ln))
    if M is None:
        M = max((max(idx) for idx, _, _ in entries), default=0)
    if M < 1:
        raise BadParam("no coefficients and no explicit M")
    h1 = np.zeros((M, M), dtype=complex)
    h2 = np.zeros((M,) * 4, dtype=complex)
    for idx, zv, ln in entries:
        if max(idx) > M:
            raise BadParam(f"orbital above M={M} in Hamiltonian line: {ln!r}")
        (h1 if len(idx) == 2 else h2)[tuple(i - 1 for i in idx)] = zv
    return ToyHamiltonian(M, h1, h2)
