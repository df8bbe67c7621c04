"""Gate-for-gate pins of every circuit builder.

Each case hashes the serialized circuit and records its gate count. The
values were recorded once, so a rewrite of a builder must reproduce them
gate for gate: any change to a gate sequence (kind, qubits, order or
params) changes a digest. Matrix params
are rounded to 12 decimals before hashing, so the pins do not depend on the
last bit of a platform's exp.
"""

import hashlib
import re

import pytest

from fermiconv.basis import BasisMatrix, dft_matrix, register_transform_circuit
from fermiconv.circuits import build_layout, count_gates, serialize_circuit
from fermiconv.conversion import _fq2sl_circuit, _merge_circuit, _sl2fq_circuits
from fermiconv.majorana import N_WORK_ANCILLAS, majorana_circuit

_PARAMS = re.compile(r"params=\[([^\]]*)\]")


def _rounded(match: re.Match) -> str:
    vals = (repr(round(float(v), 12) + 0.0) for v in match.group(1).split(",") if v)
    return f"params=[{','.join(vals)}]"


def digest(circuit) -> str:
    text = _PARAMS.sub(_rounded, serialize_circuit(circuit))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def cases():
    """(name, circuit) for a fixed set of sizes of each builder."""
    for M, N, extra in ((2, 2, 0), (6, 2, 1), (6, 3, 0), (6, 5, 2), (14, 4, 0),
                        (30, 7, 1), (64, 8, 0), (62, 16, 0), (1024, 5, 3)):
        yield f"fq2sl M={M} N={N} extra={extra}", _fq2sl_circuit(M, N, N + extra)
    for M, N in ((4, 2), (6, 3), (14, 4), (62, 5), (64, 8)):
        seed, unsort = _sl2fq_circuits(M, N)
        yield f"sl2fq seed M={M} N={N}", seed
        yield f"sl2fq unsort M={M} N={N}", unsort
    for M, n_out in ((4, 2), (6, 4), (14, 5)):
        yield f"merge M={M} n_out={n_out}", _merge_circuit(M, n_out)
    for M, n_reg, mu in ((4, 3, 1), (4, 3, 4), (6, 4, 7), (14, 5, 28)):
        layout = build_layout(M, n_reg, N_WORK_ANCILLAS)
        yield f"majorana M={M} n_reg={n_reg} mu={mu}", majorana_circuit(layout, mu)[0]
    for M, n_reg in ((4, 2), (8, 3)):
        U = BasisMatrix(dft_matrix(M))
        yield f"qft M={M} n_reg={n_reg}", register_transform_circuit(build_layout(M, n_reg), U)


PINS = {
    "fq2sl M=2 N=2 extra=0": ("f85a118c24c166d3", (5, 8, 3, 0)),
    "fq2sl M=6 N=2 extra=1": ("2d3d4f96f6c2a4ce", (27, 36, 24, 0)),
    "fq2sl M=6 N=3 extra=0": ("fd320f521c632b75", (27, 36, 21, 0)),
    "fq2sl M=6 N=5 extra=2": ("6305f34b5188b64e", (144, 192, 118, 0)),
    "fq2sl M=14 N=4 extra=0": ("92320c65262f000b", (70, 80, 65, 0)),
    "fq2sl M=30 N=7 extra=1": ("fbc26b4db65298a5", (380, 380, 404, 0)),
    "fq2sl M=64 N=8 extra=0": ("de8da15b934a200a", (665, 532, 817, 0)),
    "fq2sl M=62 N=16 extra=0": ("605fcdeceb5a18ad", (1701, 1512, 1953, 0)),
    "fq2sl M=1024 N=5 extra=3": ("9a4c03f30cb26e7c", (1463, 836, 2142, 0)),
    "sl2fq seed M=4 N=2": ("43609a9d7249773a", (11, 18, 18, 0)),
    "sl2fq unsort M=4 N=2": ("14756380e7e01299", (9, 12, 7, 0)),
    "sl2fq seed M=6 N=3": ("946e2e585f39ecc5", (31, 48, 39, 0)),
    "sl2fq unsort M=6 N=3": ("17943467725e62e8", (27, 36, 21, 0)),
    "sl2fq seed M=14 N=4": ("ea6a5325aa8f22ab", (79, 104, 100, 0)),
    "sl2fq unsort M=14 N=4": ("ff4551f37f4641c5", (70, 80, 65, 0)),
    "sl2fq seed M=62 N=5": ("4b6c7bc2b1b11146", (263, 264, 348, 0)),
    "sl2fq unsort M=62 N=5": ("44040fcaf9be8d2d", (243, 216, 279, 0)),
    "sl2fq seed M=64 N=8": ("4c18f0923dcfa055", (707, 630, 952, 0)),
    "sl2fq unsort M=64 N=8": ("ebd67dccce0f883f", (665, 532, 817, 0)),
    "merge M=4 n_out=2": ("c9168a06f1b21054", (27, 26, 22, 0)),
    "merge M=6 n_out=4": ("4d35a11a848a09c9", (122, 114, 85, 0)),
    "merge M=14 n_out=5": ("f17de90f87efb070", (283, 234, 203, 0)),
    "majorana M=4 n_reg=3 mu=1": ("200beea43d276191", (132, 26, 296, 0)),
    "majorana M=4 n_reg=3 mu=4": ("3de1d5819fc0a299", (214, 26, 475, 0)),
    "majorana M=6 n_reg=4 mu=7": ("6c0eee35d3a25b34", (242, 94, 556, 0)),
    "majorana M=14 n_reg=5 mu=28": ("d228fbfee544a597", (712, 139, 793, 0)),
    "qft M=4 n_reg=2": ("e285222280e4820c", (0, 0, 0, 128)),
    "qft M=8 n_reg=3": ("2b361ca7324e49ed", (0, 0, 0, 768)),
}


def test_every_case_is_pinned():
    assert [name for name, _ in cases()] == list(PINS)


@pytest.mark.parametrize("name,circuit", cases(), ids=list(PINS))
def test_builder_output_is_pinned(name, circuit):
    want_digest, want_count = PINS[name]
    gc = count_gates(circuit)
    assert (gc.toffoli_equiv, gc.cnot, gc.single_qubit, gc.register_unitary_dim_sum) == want_count
    assert digest(circuit) == want_digest
