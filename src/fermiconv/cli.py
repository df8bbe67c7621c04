"""Batch command surface tying the library together for scripted runs.

Exit codes: 0 success, 2 usage error, 3 precondition failure, 4
verification mismatch, 5 size cap exceeded, 141 (128 + SIGPIPE) stdout
closed by its reader, with nothing on stderr. All output is plain
text with no ANSI styling, so NO_COLOR is honored by construction.

State files use the format of stateio; circuit files the format of
circuits.serialize_circuit; basis matrices a DIM header plus row-major
re/im pairs; with --seed fixed, output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import os
import re
import sys

import numpy as np

from .basis import (
    apply_register_transform,
    dft_matrix,
    qft_register_transform,
    read_basis_matrix,
)
from .circuits import build_layout, count_gates, parse_circuit
from .conversion import first_to_second, second_to_first, tensor_product_merge
from .encodings import (
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    determinants,
    drop_clear_ancillas,
    encode_first_quantized_determinant,
    encode_sorted_list,
    occupation_components,
)
from .errors import CapExceeded, FermiconvError
from .fci import FockSpace, apply_ladder_fock, k_rdm_tensor, rotate_determinants
from .report import (
    FORMULAS,
    MODEL_LINLOG,
    MODEL_SORT,
    conversion_count_grid,
    emit_report,
    fit_scaling,
)
from .stateio import read_state, write_state

# every catalog parameter gets a deliberately arbitrary positive default;
# values only support ratios and crossovers, never absolute predictions
DEFAULT_BINDINGS = {
    "N": 10.0, "M_MO": 100.0, "M_PW": 10000.0, "M": 1000.0, "Mcal": 50.0,
    "k": 1.0, "eps_QPE": 0.1, "eps_RDM": 0.1, "eps_HAD": 0.1, "eps": 0.1,
    "delta": 0.01, "a": 0.5, "N_ion": 20.0, "Omega": 1000.0, "eta": 1.0,
}

VERIFY_FIDELITY = 1.0 - 1e-9
VERIFY_DEVIATION = 1e-10


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        try:
            return fh.read()
        except UnicodeDecodeError as e:
            raise FermiconvError(f"{path}: byte {e.start} is not UTF-8 ({e.reason})") from None


def _emit(out_path: str | None, text: str) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _occ_list(text: str):
    """Comma-separated 1-based orbital indices; empty means the vacuum."""
    text = text.strip()
    if not text:
        return ()
    try:
        return tuple(int(t) for t in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad occupation list {text!r}")


def _int_at_least(low: int):
    """argparse type: an integer >= low; argparse names the flag on error."""

    def parse(text: str) -> int:
        try:
            v = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value {text!r}")
        if v < low:
            raise argparse.ArgumentTypeError(f"{v} < {low}")
        return v

    return parse


def _grid_arg(text: str):
    if text == "default":
        return (2, 4, 8), (8, 16, 32, 64)
    m = re.fullmatch(r"N=([\d,]+);M=([\d,]+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"grid must be 'default' or 'N=n1,n2,...;M=m1,m2,...', got {text!r}"
        )
    Ns, Ms = (tuple(int(t) for t in g.split(",")) for g in m.groups())
    for name, v, low in (("N", min(Ns), 1), ("M", min(Ms), 2)):
        if v < low:
            raise argparse.ArgumentTypeError(f"grid {name}={v} < {low}")
    return Ns, Ms


def _gates_line(gc) -> str:
    return (f"gates toffoli_equiv={gc.toffoli_equiv} cnot={gc.cnot} "
            f"single_qubit={gc.single_qubit} "
            f"register_unitary_dim_sum={gc.register_unitary_dim_sum} "
            f"total={gc.total}")


def _compare(expected, actual, phase_free: bool, dev: float = 0.0):
    """(fidelity, max deviation) of two (keys, amps) lists, compared on the
    union of their keys. phase_free (convert) normalizes both sides and
    removes the global phase. Otherwise (tensor, basis) the deviation is
    entrywise on the raw amplitudes and at least dev, one measured outside
    the lists; a zero expected state then passes iff that deviation does."""
    n = len(expected[0])
    union, at = np.unique(np.concatenate((expected[0], actual[0])), return_inverse=True)
    e, a = np.zeros((2, len(union)), dtype=complex)
    e[at[:n]], a[at[n:]] = expected[1], actual[1]
    ne, na = float(np.linalg.norm(e)), float(np.linalg.norm(a))
    if not phase_free:
        dev = max(dev, float(np.max(np.abs(a - e), initial=0.0)))
        if ne < 1e-12:
            return (1.0 if dev <= VERIFY_DEVIATION else 0.0), dev
        return (abs(np.vdot(e, a)) / (ne * na) if na >= 1e-12 else 0.0), dev
    if ne < 1e-12 and na < 1e-12:
        return 1.0, 0.0
    if ne < 1e-12 or na < 1e-12:
        return 0.0, float(np.max(np.abs(np.concatenate((e, a)))))
    ov = complex(np.vdot(e, a))
    ph = ov / abs(ov) if abs(ov) > 1e-300 else 1.0
    return abs(ov) / (ne * na), float(np.max(np.abs(a / na - ph * e / ne)))


def _verdict(fid: float, dev: float) -> int:
    print(f"fidelity {fid:.6f}")
    if fid < VERIFY_FIDELITY or dev > VERIFY_DEVIATION:
        print(f"max deviation {dev:.3e}")
        return 4
    return 0


def cmd_encode(args) -> int:
    x = OccupationBitstring.from_indices(args.M, args.occ)
    if args.sl:
        if args.nreg is None:
            args.parser.error("--sl requires --nreg")
        enc = encode_sorted_list(x, args.nreg)
    else:
        enc = encode_first_quantized_determinant(x)
    _emit(args.out, write_state(enc))
    return 0


def _occupations(enc: EncodedState):
    """enc's (masks, amps) determinant list, clear ancillas dropped."""
    return occupation_components(drop_clear_ancillas(enc))


def _determinant_keys(enc: EncodedState):
    """enc's determinants keyed by their ascending orbitals packed b bits
    apiece: the sorted-list key with its sentinel registers cleared. Unlike
    an occupation mask it fits int64 wherever the layout packs."""
    orbitals, amps = determinants(enc)
    shifts = enc.layout.b * np.arange(orbitals.shape[1])
    return np.bitwise_or.reduce(orbitals << shifts, axis=1), amps


def _fock(space: FockSpace, enc: EncodedState) -> np.ndarray:
    """enc's vector in the oracle's space."""
    vec = np.zeros(space.dim, dtype=complex)
    np.add.at(vec, *_occupations(enc))
    return vec


def cmd_convert(args) -> int:
    enc = read_state(_read(args.infile))
    if args.dir == "fq2sl":
        result, rep = first_to_second(enc, extra_registers=args.extra_registers)
    else:
        result, rep = second_to_first(enc, N=args.N, rng=np.random.default_rng(args.seed))
    print(f"direction {rep.direction}")
    print(_gates_line(rep.gate_count))
    print(f"record_ancillas {rep.record_ancillas}")
    print(f"success_probability {rep.success_probability!r}")
    print(f"attempts {rep.attempts}")
    if args.out:
        _emit(args.out, write_state(result))
    if args.verify:
        return _verdict(*_compare(_determinant_keys(enc), _determinant_keys(result),
                                  phase_free=True))
    return 0


def cmd_rdm(args) -> int:
    enc = read_state(_read(args.state))
    space = FockSpace(enc.M)
    fock = _fock(space, enc)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    trace = 0.0
    if args.k == 1:
        writer.writerow(("p", "q", "re", "im"))
    else:
        writer.writerow(("p1", "p2", "q1", "q2", "re", "im"))
    rdm = k_rdm_tensor(fock, args.k, space)
    for idx in np.ndindex(rdm.shape):
        orbs = tuple(i + 1 for i in idx)
        v = complex(rdm[idx])
        writer.writerow((*orbs, repr(v.real), repr(v.imag)))
        if orbs[: args.k] == orbs[args.k :]:
            trace += v.real
    _emit(args.out, buf.getvalue())
    print(f"trace {trace!r}")
    return 0


def cmd_tensor(args) -> int:
    a = read_state(_read(args.a))
    b = read_state(_read(args.b))
    res = tensor_product_merge(a, b)
    print(f"flag_qubit {res.flag_qubit}")
    print(f"duplicate_probability {res.duplicate_probability:.6f}")
    print(f"records_discarded {res.records_discarded}")
    print(_gates_line(res.gate_count))
    if args.out:
        _emit(args.out, write_state(res.state))
    if args.verify:
        space = FockSpace(a.M)
        (masks_a, amps_a), (masks_b, amps_b) = _occupations(a), _occupations(b)
        # a's creation strings act on b's vector: a repeated orbital leaves zero
        fock_b = _fock(space, b)
        expected = np.zeros(space.dim, dtype=complex)
        for mask, amp in zip(masks_a.tolist(), amps_a):
            vec = fock_b
            for p in reversed(OccupationBitstring(a.M, mask).indices()):
                vec = apply_ladder_fock(vec, p, "create", space)
            expected += amp * vec
        shared = (masks_a[:, None] & masks_b[None, :]) != 0
        expected_dup = np.abs(amps_a) ** 2 @ shared @ np.abs(amps_b) ** 2
        # the flag is the top ancilla; kept records label disjoint branches,
        # so their sum is the merged system state
        merged, system = res.state, build_layout(a.M, res.state.layout.n_reg)
        unflagged = merged.keys < (1 << (merged.layout.total_qubits - 1))
        keys, at = np.unique(merged.keys[unflagged] % (1 << system.total_qubits),
                             return_inverse=True)
        summed = np.zeros(len(keys), dtype=complex)
        np.add.at(summed, at, merged.amps[unflagged])
        actual = occupation_components(
            EncodedState.from_components(keys, summed, SORTED_LIST, system))
        return _verdict(*_compare((space.masks(), expected), actual, phase_free=False,
                                  dev=abs(res.duplicate_probability - expected_dup)))
    return 0


def cmd_basis(args) -> int:
    enc = read_state(_read(args.state))
    if args.matrix:
        bm = read_basis_matrix(_read(args.matrix))
        result, gc = apply_register_transform(enc, bm)
        core = bm.core
    else:
        inverse = args.qft == "inverse"
        result, gc = qft_register_transform(enc, inverse=inverse)
        core = dft_matrix(enc.M, inverse=inverse)
    print(_gates_line(gc))
    if args.out:
        _emit(args.out, write_state(result))
    if args.verify:
        space = FockSpace(enc.M)
        U = np.eye(enc.M, dtype=complex)
        U[: len(core), : len(core)] = core
        expected = rotate_determinants(_fock(space, enc), U, space)
        return _verdict(*_compare((space.masks(), expected), _occupations(result),
                                  phase_free=False))
    return 0


def cmd_count(args) -> int:
    gc = count_gates(parse_circuit(_read(args.circuit)))
    print(f"toffoli_equiv {gc.toffoli_equiv}")
    print(f"cnot {gc.cnot}")
    print(f"single_qubit {gc.single_qubit}")
    print(f"register_unitary_dim_sum {gc.register_unitary_dim_sum}")
    print(f"total {gc.total}")
    return 0


def cmd_scaling_report(args) -> int:
    Ns, Ms = args.grid
    samples = conversion_count_grid(Ns, Ms)
    fits = [fit_scaling(samples, MODEL_SORT), fit_scaling(samples, MODEL_LINLOG)]
    rows = [(f, DEFAULT_BINDINGS) for f in FORMULAS]
    text = emit_report(rows, fits, args.out)
    sys.stdout.write(text)
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="fermiconv",
        description="encode, convert, merge, transform, and cost fermionic "
                    "register states",
    )
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("encode", help="write an occupation's encoded state")
    grp = p.add_mutually_exclusive_group()
    grp.add_argument("--sl", action="store_true", help="sorted-list encoding")
    grp.add_argument("--fq", action="store_true", help="first-quantized encoding")
    p.add_argument("--M", type=_int_at_least(2), required=True, help="number of orbitals")
    p.add_argument("--occ", type=_occ_list, default=(),
                   help="comma-separated occupied orbitals, e.g. 1,3")
    p.add_argument("--nreg", type=_int_at_least(1), help="register count (sorted list)")
    p.add_argument("--out", help="write the state here instead of stdout")
    p.set_defaults(func=cmd_encode, parser=p)

    p = sub.add_parser("convert", help="convert between the two encodings")
    p.add_argument("--dir", choices=("fq2sl", "sl2fq"), required=True)
    p.add_argument("--in", dest="infile", required=True, help="input state file")
    p.add_argument("--out", help="write the converted state here")
    p.add_argument("--extra-registers", type=_int_at_least(0), default=0,
                   help="extra sentinel registers for fq2sl")
    p.add_argument("--N", type=_int_at_least(1), help="electron count for sl2fq")
    p.add_argument("--seed", type=_int_at_least(0), default=0,
                   help="seed for sl2fq's attempts draw only; the state does not depend on it")
    p.add_argument("--verify", action="store_true",
                   help="compare input and output determinant by determinant")
    p.set_defaults(func=cmd_convert, parser=p)

    p = sub.add_parser("rdm", help="reduced density matrix of a state file")
    p.add_argument("--k", type=int, choices=(1, 2), default=1)
    p.add_argument("--state", required=True, help="input state file")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=cmd_rdm, parser=p)

    p = sub.add_parser("tensor", help="merge two sorted-list states")
    p.add_argument("--a", required=True, help="first (low-register) state file")
    p.add_argument("--b", required=True, help="second state file")
    p.add_argument("--out", help="write the merged state here")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the dense oracle")
    p.set_defaults(func=cmd_tensor, parser=p)

    p = sub.add_parser("basis", help="register-wise single-particle transform")
    p.add_argument("--state", required=True, help="first-quantized state file")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--matrix", help="basis matrix file (DIM header)")
    grp.add_argument("--qft", choices=("forward", "inverse"),
                     help="discrete Fourier transform over orbital labels")
    p.add_argument("--out", help="write the transformed state here")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the dense oracle")
    p.set_defaults(func=cmd_basis, parser=p)

    p = sub.add_parser("count", help="gate counts of a serialized circuit")
    p.add_argument("--circuit", required=True, help="circuit file")
    p.set_defaults(func=cmd_count, parser=p)

    p = sub.add_parser("scaling-report", help="cost formulas plus measured fits")
    p.add_argument("--grid", type=_grid_arg, default="default",
                   help="'default' or 'N=2,4,8;M=8,16,32,64'")
    p.add_argument("--out", default="report.csv", help="CSV output path")
    p.set_defaults(func=cmd_scaling_report, parser=p)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed stdout fails here, not at interpreter exit
        return code
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit: send it nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except CapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 5
    except FermiconvError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
