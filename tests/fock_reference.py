"""Per-operator and per-term Fock oracle loops: the reference ``fci`` is pinned against.

These are the loops ``fci`` ran before its kernel folded each operator
string and before its Hamiltonian build and determinant rotation were
batched: ``string_action`` walks a string one operator at a time over every
mask, ``k_rdm`` scatters the string's image of the state into a fresh vector
and takes its inner product with the state, ``dense_matrix`` applies one
operator string per nonzero coefficient to every mask, in (p, q[, r, s])
order, and ``rotate_determinants`` takes one determinant per (target,
source) pair of index sets. ``ladder_matrix`` and ``determinant_vector``
build the dense ladder matrices and basis vectors the tests compare against,
``random_toy_hamiltonian`` the seeded Hamiltonians they diagonalize,
``signed_orderings`` the first-quantized components of a determinant
superposition, and ``coefficient_deviation`` compares two coefficient lists
entrywise.
"""

import math
from itertools import combinations, permutations

import numpy as np

from fermiconv.errors import BadParam, NotUnitary
from fermiconv.fci import FockSpace, ToyHamiltonian, _parity_signs


def string_action(space: FockSpace, ops, masks: np.ndarray):
    """(ok, out, sign) of ("create" | "annihilate", p) pairs applied rightmost
    first, one operator at a time; p is an orbital or an array over terms."""
    parity = _parity_signs(space.M)
    ok = np.ones(masks.shape, dtype=bool)
    out = masks
    sign = np.ones(masks.shape)
    for kind, p in ops:
        if kind not in ("create", "annihilate"):
            raise BadParam(f"kind {kind!r} not create/annihilate")
        if np.ndim(p):
            p = np.asarray(p, dtype=np.int64)[:, None]
            outside = p[(p < 1) | (p > space.M)]
            if outside.size:
                space.check_orbital(int(outside[0]))
        else:
            space.check_orbital(p)
        bit = 1 << (p - 1)
        occupied = (out & bit) != 0
        ok = ok & (occupied if kind == "annihilate" else ~occupied)  # a_p needs p occupied
        sign = sign * parity[out & (bit - 1)]
        out = out ^ bit
    return ok, out, sign


def ladder_matrix(p: int, kind: str, space: FockSpace) -> np.ndarray:
    """Dense ladder matrix with Jordan-Wigner signs; a_p^dag = a_p^T here
    because all entries are real."""
    masks = space.masks()
    ok, out, sign = string_action(space, ((kind, p),), masks)
    mat = np.zeros((space.dim, space.dim))
    mat[out[ok], masks[ok]] = sign[ok]
    return mat


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


def k_rdm(state: np.ndarray, ps, qs, space: FockSpace) -> complex:
    ps = tuple(ps)
    qs = tuple(qs)
    if len(ps) != len(qs):
        raise BadParam("p and q index lists must have equal length")
    if abs(np.linalg.norm(state) - 1.0) > 1e-8:
        raise BadParam("state must be normalized")
    vec = np.asarray(state)
    ops = [("annihilate", q) for q in qs] + [("create", p) for p in reversed(ps)]
    ok, out, sign = string_action(space, ops, space.masks())
    res = np.zeros_like(vec, dtype=complex)
    res[out[ok]] = sign[ok] * vec[ok]
    return complex(np.vdot(state, res))


def dense_matrix(ham: ToyHamiltonian, space: FockSpace) -> np.ndarray:
    if space.M != ham.M:
        raise BadParam("space and Hamiltonian disagree on M")
    H = np.zeros((space.dim, space.dim), dtype=complex)
    masks = space.masks()

    def add(c, ops):
        if c != 0:
            ok, out, sign = string_action(space, ops, masks)
            H[out[ok], masks[ok]] += c * sign[ok]

    for p, q in np.ndindex(ham.M, ham.M):
        add(ham.h1[p, q], (("annihilate", q + 1), ("create", p + 1)))
    for p, q, r, s in np.ndindex(*(ham.M,) * 4):
        ops = (("annihilate", s + 1), ("annihilate", r + 1),
               ("create", q + 1), ("create", p + 1))
        add(0.5 * ham.h2[p, q, r, s], ops)
    if np.max(np.abs(H - H.conj().T)) > 1e-10:
        raise BadParam("dense Hamiltonian is not Hermitian at 1e-10")
    return H


def rotate_determinants(state: np.ndarray, U: np.ndarray, space: FockSpace) -> np.ndarray:
    U = np.asarray(U, dtype=complex)
    if U.shape != (space.M, space.M):
        raise BadParam(f"U must be {space.M}x{space.M}")
    if np.linalg.norm(U.conj().T @ U - np.eye(space.M), ord=2) > 1e-10:
        raise NotUnitary("single-particle matrix fails unitarity at 1e-10")
    out = np.zeros_like(np.asarray(state, dtype=complex))
    out[0] = state[0]
    for n in range(1, space.M + 1):
        sets = list(combinations(range(space.M), n))
        amps = {s: state[sum(1 << p for p in s)] for s in sets}
        for T in sets:
            acc = 0.0 + 0.0j
            for S in sets:
                c = amps[S]
                if c == 0:
                    continue
                acc += np.linalg.det(U[np.ix_(T, S)]) * c
            out[sum(1 << p for p in T)] = acc
    return out


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


def signed_orderings(M: int, dets, c) -> tuple[np.ndarray, np.ndarray]:
    """(keys, amps) of sum_k c[k] |dets[k]> in first quantization: each
    ordering of each determinant's ascending orbitals at c[k] / sqrt(N!)
    times the ordering's sign, (-1)^(inversions). Register i holds the i-th
    orbital of the ordering in bits i*b .. i*b + b - 1, b = ceil(log2(M + 2))."""
    dets = np.asarray(dets, dtype=np.int64)
    N = dets.shape[1]
    b = (M + 1).bit_length()
    perms = np.array(list(permutations(range(N))), dtype=np.int64)
    inversions = np.zeros(len(perms), dtype=np.int64)
    for i, j in combinations(range(N), 2):
        inversions += perms[:, i] > perms[:, j]
    signs = 1 - 2 * (inversions & 1)
    values = dets[:, perms]  # (determinant, ordering, register)
    keys = np.sum(values << (b * np.arange(N, dtype=np.int64)), axis=2)
    amps = np.asarray(c, dtype=complex)[:, None] * signs / math.sqrt(math.factorial(N))
    return keys.ravel(), amps.ravel()


def coefficient_deviation(want, got) -> float:
    """Largest entrywise gap between two (keys, amps) coefficient lists, a
    key that only one holds read as zero there, once the global phase of
    got is removed."""
    keys = np.union1d(want[0], got[0])
    w, g = np.zeros((2, len(keys)), dtype=complex)
    w[np.searchsorted(keys, want[0])] = want[1]
    g[np.searchsorted(keys, got[0])] = got[1]
    ov = np.vdot(w, g)
    return float(np.max(np.abs(g - ov / abs(ov) * w)))
