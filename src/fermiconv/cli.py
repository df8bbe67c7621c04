"""Batch command surface tying the library together for scripted runs.

Exit codes: 0 success, 2 usage error, 3 precondition failure, 4
verification mismatch, 5 size cap exceeded. All output is plain
text with no ANSI styling, so NO_COLOR is honored by construction.

State files use the format of stateio; circuit files the format of
circuits.serialize_circuit; basis matrices a DIM header plus row-major
re/im pairs; with --seed fixed, output is byte-identical across runs.
"""

from __future__ import annotations

import argparse
import csv
import io
import re
import sys

import numpy as np

from .basis import (
    apply_register_transform,
    dft_matrix,
    qft_register_transform,
    read_basis_matrix,
)
from .circuits import Statevector, build_layout, count_gates, parse_circuit
from .conversion import first_to_second, second_to_first, tensor_product_merge
from .encodings import (
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    drop_clear_ancillas,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_quantized_to_fock,
    sorted_list_to_fock,
)
from .errors import CapExceeded, FermiconvError
from .fci import FOCK_CAP, FockSpace, creation_string, k_rdm_tensor, rotate_determinants
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
        return fh.read()


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


def _grid_arg(text: str):
    if text == "default":
        return (2, 4, 8), (8, 16, 32, 64)
    m = re.fullmatch(r"N=([\d,]+);M=([\d,]+)", text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"grid must be 'default' or 'N=n1,n2,...;M=m1,m2,...', got {text!r}"
        )
    return (tuple(int(t) for t in m.group(1).split(",")),
            tuple(int(t) for t in m.group(2).split(",")))


def _gates_line(gc) -> str:
    return (f"gates toffoli_equiv={gc.toffoli_equiv} cnot={gc.cnot} "
            f"single_qubit={gc.single_qubit} "
            f"register_unitary_dim_sum={gc.register_unitary_dim_sum} "
            f"total={gc.total}")


def _compare(expected: np.ndarray, actual: np.ndarray, phase_free: bool):
    """(fidelity, max deviation) between two vectors, both normalized first."""
    ne = float(np.linalg.norm(expected))
    na = float(np.linalg.norm(actual))
    if ne < 1e-12 and na < 1e-12:
        return 1.0, 0.0
    if ne < 1e-12 or na < 1e-12:
        big = max(np.max(np.abs(expected), initial=0.0),
                  np.max(np.abs(actual), initial=0.0))
        return 0.0, float(big)
    ov = complex(np.vdot(expected, actual))
    fid = abs(ov) / (ne * na)
    ph = ov / abs(ov) if (phase_free and abs(ov) > 1e-300) else 1.0
    dev = float(np.max(np.abs(actual / na - ph * expected / ne)))
    return fid, dev


def _verdict(fid: float, dev: float, fid_floor: float, dev_ceiling: float) -> int:
    print(f"fidelity {fid:.6f}")
    if fid < fid_floor or dev > dev_ceiling:
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


def _check_fock_cap(M: int) -> None:
    """Refuse an oracle run past FockSpace's range before any Fock vector."""
    if M > FOCK_CAP:
        raise CapExceeded(f"M={M} exceeds the Fock oracle's cap of {FOCK_CAP}")


def _to_fock(enc: EncodedState) -> np.ndarray:
    if enc.discipline == SORTED_LIST:
        return sorted_list_to_fock(enc)
    return first_quantized_to_fock(drop_clear_ancillas(enc))


def cmd_convert(args) -> int:
    enc = read_state(_read(args.infile))
    if args.dir == "fq2sl":
        result, rep = first_to_second(enc, extra_registers=args.extra_registers)
    else:
        rng = np.random.default_rng(args.seed)
        result, rep = second_to_first(
            enc, N=args.N, rng=rng, retry_budget=args.retry_budget
        )
    print(f"direction {rep.direction}")
    print(_gates_line(rep.gate_count))
    print(f"record_ancillas {rep.record_ancillas}")
    print(f"success_probability {rep.success_probability!r}")
    print(f"attempts {rep.attempts}")
    if args.out:
        _emit(args.out, write_state(result))
    if args.verify:
        expected = _to_fock(enc)
        actual = _to_fock(result)
        fid, dev = _compare(expected, actual, phase_free=True)
        return _verdict(fid, dev, VERIFY_FIDELITY, VERIFY_DEVIATION)
    return 0


def cmd_rdm(args) -> int:
    enc = read_state(_read(args.state))
    _check_fock_cap(enc.M)
    fock = _to_fock(enc)
    space = FockSpace(enc.M)
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
        if not res.records_discarded:
            print("error: verification requires disentangled comparison records",
                  file=sys.stderr)
            return 3
        M = a.M
        _check_fock_cap(M)
        space = FockSpace(M)
        fock_a = sorted_list_to_fock(a)
        fock_b = sorted_list_to_fock(b)
        expected = np.zeros(1 << M, dtype=complex)
        expected_dup = 0.0
        for xm in np.flatnonzero(np.abs(fock_a) > 1e-12):
            xi = OccupationBitstring(M, int(xm)).indices()
            for ym in np.flatnonzero(np.abs(fock_b) > 1e-12):
                amp = fock_a[xm] * fock_b[ym]
                if int(xm) & int(ym):
                    expected_dup += abs(amp) ** 2
                else:
                    yi = OccupationBitstring(M, int(ym)).indices()
                    expected += amp * creation_string(space, xi + yi)
        sector0 = res.state.state.amps.reshape(2, -1)[0]
        n_out = res.state.layout.n_reg
        sec_enc = EncodedState(
            Statevector(sector0.copy()), SORTED_LIST, build_layout(M, n_out, 0)
        )
        actual = sorted_list_to_fock(sec_enc)
        dev = float(np.max(np.abs(actual - expected), initial=0.0))
        dev = max(dev, abs(res.duplicate_probability - expected_dup))
        if np.linalg.norm(expected) > 1e-12:
            fid, _ = _compare(expected, actual, phase_free=False)
        else:
            fid = 1.0 if dev <= VERIFY_DEVIATION else 0.0
        return _verdict(fid, dev, VERIFY_FIDELITY, VERIFY_DEVIATION)
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
        M = enc.M
        _check_fock_cap(M)
        U = np.eye(M, dtype=complex)
        d = core.shape[0]
        U[:d, :d] = core
        expected = rotate_determinants(_to_fock(enc), U, FockSpace(M))
        actual = _to_fock(result)
        dev = float(np.max(np.abs(actual - expected), initial=0.0))
        fid, _ = _compare(expected, actual, phase_free=False)
        return _verdict(fid, dev, VERIFY_FIDELITY, VERIFY_DEVIATION)
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
    p.add_argument("--M", type=int, required=True, help="number of orbitals")
    p.add_argument("--occ", type=_occ_list, default=(),
                   help="comma-separated occupied orbitals, e.g. 1,3")
    p.add_argument("--nreg", type=int, help="register count (sorted list)")
    p.add_argument("--out", help="write the state here instead of stdout")
    p.set_defaults(func=cmd_encode, parser=p)

    p = sub.add_parser("convert", help="convert between the two encodings")
    p.add_argument("--dir", choices=("fq2sl", "sl2fq"), required=True)
    p.add_argument("--in", dest="infile", required=True, help="input state file")
    p.add_argument("--out", help="write the converted state here")
    p.add_argument("--extra-registers", type=int, default=0,
                   help="extra sentinel registers for fq2sl")
    p.add_argument("--N", type=int, help="electron count for sl2fq")
    p.add_argument("--seed", type=int, default=0,
                   help="seed for the sl2fq measurement draws")
    p.add_argument("--retry-budget", type=int,
                   help="sl2fq attempts (default: fails with probability <= 1e-9)")
    p.add_argument("--verify", action="store_true",
                   help="cross-check against the dense oracle")
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
    p.add_argument("--grid", type=_grid_arg, default=((2, 4, 8), (8, 16, 32, 64)),
                   help="'default' or 'N=2,4,8;M=8,16,32,64'")
    p.add_argument("--out", default="report.csv", help="CSV output path")
    p.set_defaults(func=cmd_scaling_report, parser=p)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
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
