"""Per-term Fock oracle loops: the reference the batched oracle is pinned against.

These are the loops ``fci`` ran before its Hamiltonian build and its
determinant rotation were batched: ``dense_matrix`` applies one operator
string per nonzero coefficient to every mask, in (p, q[, r, s]) order, and
``rotate_determinants`` takes one determinant per (target, source) pair of
index sets.
"""

from itertools import combinations

import numpy as np

from fermiconv.errors import BadParam, NotUnitary
from fermiconv.fci import FockSpace, ToyHamiltonian, _string_action


def dense_matrix(ham: ToyHamiltonian, space: FockSpace) -> np.ndarray:
    if space.M != ham.M:
        raise BadParam("space and Hamiltonian disagree on M")
    H = np.zeros((space.dim, space.dim), dtype=complex)
    masks = space.masks()

    def add(c, ops):
        if c != 0:
            ok, out, sign = _string_action(space, ops, masks)
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
