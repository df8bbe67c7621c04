"""End-to-end command-line runs through main(argv)."""

import dataclasses
import hashlib
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from fermiconv import (
    SORTED_LIST,
    EncodedState,
    OccupationBitstring,
    Statevector,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    qft_register_transform,
    second_to_first,
    tensor_product_merge,
)
from fermiconv import cli
from fermiconv.circuits import (
    Circuit,
    build_layout,
    cnot,
    h,
    serialize_circuit,
    toffoli,
)
from fermiconv.cli import _compare, _verdict, main
from fermiconv.encodings import occupation_components
from fermiconv.errors import CapExceeded
from fermiconv.stateio import read_state, write_state

DEFAULT_REPORT_CSV = Path(__file__).resolve().parent / "data" / "scaling_report_default.csv"
WIDE_REPORT_CSV = Path(__file__).resolve().parent / "data" / "scaling_report_wide.csv"
WIDE_GRID = "N=2,4,8,16,32,64,128;M=64,1024"
SRC = Path(__file__).resolve().parent.parent / "src"


def _run(capsys, argv):
    rc = main(argv)
    out = capsys.readouterr()
    return rc, out.out, out.err


def test_encode_sorted_list_stdout(capsys):
    rc, out, err = _run(
        capsys, ["encode", "--sl", "--M", "4", "--occ", "1,3", "--nreg", "3"]
    )
    assert rc == 0 and err == ""
    lines = out.splitlines()
    assert lines[0] == "STATE M=4 NREG=3 B=3 NANC=0 DISCIPLINE=sorted-list N=2"
    assert lines[1] == "(001,011,111) 1.0+0.0i"


def test_encode_first_quantized_stdout(capsys):
    rc, out, _ = _run(capsys, ["encode", "--M", "4", "--occ", "1,3"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=first-quantized N=2"
    assert lines[1] == "(011,001) -0.7071067811865475+0.0i"
    assert lines[2] == "(001,011) 0.7071067811865475+0.0i"


def test_python_dash_m_runs_the_cli(capsys, monkeypatch):
    monkeypatch.setattr(sys, "argv", ["fermiconv", "encode", "--M", "4", "--occ", "1,3"])
    with pytest.raises(SystemExit) as exc:
        runpy.run_module("fermiconv", run_name="__main__")
    assert exc.value.code == 0
    assert capsys.readouterr().out.splitlines()[2] == "(001,011) 0.7071067811865475+0.0i"


def test_usage_errors_exit_2(capsys):
    for argv in (
        ["encode", "--sl", "--M", "4", "--occ", "1,3"],  # --sl without --nreg
        ["encode", "--sl", "--fq", "--M", "4", "--occ", "1,3", "--nreg", "3"],
        ["encode", "--M", "4", "--occ", "1,x"],
        ["no-such-command"],
        ["convert", "--dir", "sideways", "--in", "x"],
        ["scaling-report", "--grid", "N=2;4"],
        [],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        capsys.readouterr()


def test_grid_values_out_of_range_exit_2(capsys):
    for grid, named in (("N=0,2,4;M=8,16", "grid N=0 < 1"), ("N=2,4;M=1,8", "grid M=1 < 2")):
        with pytest.raises(SystemExit) as exc:
            main(["scaling-report", "--grid", grid])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err


def test_bad_sl2fq_arguments_exit_2(capsys, tmp_path):
    sl = tmp_path / "sl.txt"
    assert main(["encode", "--sl", "--M", "6", "--occ", "1,3", "--nreg", "3", "--out", str(sl)]) == 0
    for flags, named in (
        (["--seed", "-1"], "argument --seed: -1 < 0"),
        (["--seed", "x"], "argument --seed: invalid int value 'x'"),
        (["--N", "-2"], "argument --N: -2 < 1"),
        (["--N", "0"], "argument --N: 0 < 1"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(["convert", "--dir", "sl2fq", "--in", str(sl), *flags])
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    rc, _, err = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(sl), "--seed", "0"])
    assert rc == 0 and err == ""


def test_integer_flags_outside_their_domain_exit_2(capsys, tmp_path):
    # refused by the parser, naming the flag, before the library sees them
    fq = tmp_path / "fq.txt"
    assert main(["encode", "--M", "4", "--occ", "1,3", "--out", str(fq)]) == 0
    capsys.readouterr()
    for argv, named in (
        (["encode", "--sl", "--M", "1", "--occ", "1", "--nreg", "1"], "argument --M: 1 < 2"),
        (["encode", "--M", "-3", "--occ", ""], "argument --M: -3 < 2"),
        (["encode", "--sl", "--M", "4", "--occ", "1", "--nreg", "0"], "argument --nreg: 0 < 1"),
        (["convert", "--dir", "fq2sl", "--in", str(fq), "--extra-registers", "-1"],
         "argument --extra-registers: -1 < 0"),
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert named in capsys.readouterr().err
    rc, _, err = _run(capsys, ["encode", "--sl", "--M", "2", "--occ", "1", "--nreg", "1"])
    assert rc == 0 and err == ""
    rc, _, err = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(fq),
                               "--extra-registers", "0"])
    assert rc == 0 and err == ""


def test_precondition_failures_exit_3(capsys, tmp_path):
    rc, _, err = _run(
        capsys, ["encode", "--sl", "--M", "4", "--occ", "1,2,3", "--nreg", "2"]
    )
    assert rc == 3 and err.startswith("error:")
    rc, _, err = _run(
        capsys, ["convert", "--dir", "fq2sl", "--in", str(tmp_path / "missing")]
    )
    assert rc == 3 and "error:" in err


def test_convert_forward_with_verify(capsys, tmp_path):
    fq = tmp_path / "fq.txt"
    rc, _, _ = _run(
        capsys, ["encode", "--M", "4", "--occ", "1,3", "--out", str(fq)]
    )
    assert rc == 0
    out_file = tmp_path / "sl.txt"
    rc, out, _ = _run(
        capsys,
        ["convert", "--dir", "fq2sl", "--in", str(fq), "--out", str(out_file),
         "--verify"],
    )
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "direction antisymmetric-to-sorted-list"
    assert lines[1].startswith("gates toffoli_equiv=") and "total=" in lines[1]
    assert lines[2] == "record_ancillas 1"
    assert lines[3] == "success_probability 1.0"
    assert lines[4] == "attempts 1"
    assert lines[5] == "fidelity 1.000000"
    assert "(001,011) 1.0+0.0i" in out_file.read_text()


def test_convert_backward_with_verify(capsys, tmp_path):
    sl = tmp_path / "sl.txt"
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "2,4", "--nreg", "3",
                  "--out", str(sl)])
    rc, out, _ = _run(
        capsys,
        ["convert", "--dir", "sl2fq", "--in", str(sl), "--seed", "7", "--verify"],
    )
    assert rc == 0
    assert "direction sorted-list-to-antisymmetric" in out
    assert out.splitlines()[-1] == "fidelity 1.000000"


def test_convert_round_trip_five_electrons(capsys, tmp_path):
    # the file fq2sl writes at M=6 N=5 converts back: sl2fq traces a
    # 43-qubit work layout
    fq, sl = tmp_path / "fq.txt", tmp_path / "sl.txt"
    rc, _, _ = _run(capsys, ["encode", "--M", "6", "--occ", "1,2,4,5,6", "--out", str(fq)])
    assert rc == 0
    rc, _, _ = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(fq), "--out", str(sl)])
    assert rc == 0
    rc, out, _ = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(sl), "--verify"])
    assert rc == 0 and out.splitlines()[-1] == "fidelity 1.000000"


def test_convert_verify_checks_deviation(capsys, tmp_path, monkeypatch):
    # a 1e-5 relative phase between two determinants keeps the fidelity at
    # 1.000000 but moves one amplitude by 3.5e-6, far above VERIFY_DEVIATION
    a = encode_first_quantized_determinant(OccupationBitstring.from_indices(4, (1, 3)))
    b = encode_first_quantized_determinant(OccupationBitstring.from_indices(4, (2, 4)))
    mix = EncodedState(
        Statevector((a.state.amps + b.state.amps) / np.sqrt(2)),
        a.discipline, a.layout, 2,
    )
    fq = tmp_path / "fq.txt"
    fq.write_text(write_state(mix))

    def skewed(enc, extra_registers=0):
        result, rep = first_to_second(enc, extra_registers)
        k = np.flatnonzero(result.state.amps)[0]
        amps = result.state.amps.copy()
        amps[k] *= np.exp(1e-5j)
        result = EncodedState(Statevector(amps), result.discipline, result.layout, result.N)
        return result, rep

    rc, out, _ = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(fq), "--verify"])
    assert rc == 0
    monkeypatch.setattr(cli, "first_to_second", skewed)
    rc, out, _ = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(fq), "--verify"])
    assert rc == 4
    lines = out.splitlines()
    assert lines[-2] == "fidelity 1.000000"
    assert lines[-1].startswith("max deviation 3.5")


def test_convert_cap_exceeded_exit_5(capsys, tmp_path):
    # 10 output registers of 6 bits and 32 records: the work layout's keys
    # would not fit int64
    fq = tmp_path / "fq.txt"
    _run(capsys, ["encode", "--fq", "--M", "62", "--occ", "1,2,3", "--out", str(fq)])
    rc, _, err = _run(
        capsys,
        ["convert", "--dir", "fq2sl", "--in", str(fq), "--extra-registers", "7"],
    )
    assert rc == 5 and err.startswith("error:")
    assert "92 qubits > packed-index cap 62" in err


def test_fock_bridges_cap_exceeded_exit_5(capsys, tmp_path):
    # convert --verify keys determinants by packed orbitals, so it passes
    # M=62; occupation masks stop there, and the rdm oracle would need a
    # 2^40 Fock vector
    for M in (40, 62, 63):
        sl = tmp_path / f"m{M}.txt"
        _run(capsys, ["encode", "--sl", "--M", str(M), "--occ", "3,17", "--nreg", "2",
                      "--out", str(sl)])
        rc, out, _ = _run(capsys, ["convert", "--dir", "sl2fq", "--verify", "--in", str(sl)])
        assert rc == 0 and out.splitlines()[-1] == "fidelity 1.000000"
    with pytest.raises(CapExceeded, match="packed-mask cap 62"):
        occupation_components(read_state((tmp_path / "m63.txt").read_text()))
    rc, _, err = _run(capsys, ["rdm", "--state", str(tmp_path / "m40.txt")])
    assert rc == 5 and err.startswith("error:")


@pytest.mark.parametrize("M, occ", [(254, "3,40,77,128,200,254"), (1022, "3,40,77,700,1022")])
def test_convert_verify_past_the_packed_mask_cap(capsys, tmp_path, M, occ):
    # 6 registers of 8 bits and 5 of 10: the packed orbitals fit int64
    fq, sl = tmp_path / "fq.txt", tmp_path / "sl.txt"
    assert main(["encode", "--fq", "--M", str(M), "--occ", occ, "--out", str(fq)]) == 0
    for d, src, dst in (("fq2sl", fq, sl), ("sl2fq", sl, tmp_path / "back.txt")):
        rc, out, err = _run(capsys, ["convert", "--dir", d, "--in", str(src),
                                     "--out", str(dst), "--verify"])
        assert rc == 0 and err == "" and out.splitlines()[-1] == "fidelity 1.000000"


def test_convert_verify_past_the_cap_checks_signs(capsys, tmp_path, monkeypatch):
    # at M=254, flipping the sign of one of two determinants exits 4
    layout = build_layout(254, 6)
    keys = [layout.basis_index(o) for o in ((3, 40, 77, 128, 200, 254), (1, 2, 3, 4, 5, 6))]
    sl, fq = tmp_path / "sl.txt", tmp_path / "fq.txt"
    sl.write_text(write_state(EncodedState.from_components(keys, [0.6, 0.8j], SORTED_LIST,
                                                           layout, 6)))
    rc, _, _ = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(sl), "--out", str(fq),
                             "--verify"])
    assert rc == 0

    def negated(convert):
        def run(enc, *args, **kwargs):
            result, rep = convert(enc, *args, **kwargs)
            orbitals = np.sort(result.layout.decode(result.keys), axis=1)
            amps = np.where(np.all(orbitals == orbitals[0], axis=1), -result.amps, result.amps)
            return EncodedState.from_components(result.keys, amps, result.discipline,
                                                result.layout, result.N), rep
        return run

    monkeypatch.setattr(cli, "first_to_second", negated(first_to_second))
    monkeypatch.setattr(cli, "second_to_first", negated(second_to_first))
    for d, src in (("fq2sl", fq), ("sl2fq", sl)):
        rc, out, _ = _run(capsys, ["convert", "--dir", d, "--in", str(src), "--verify"])
        assert rc == 4 and out.splitlines()[-2] == "fidelity 0.280000"


def _sl_superposition(rng, M, N, n_reg):
    """Three random determinants on n_reg registers (one if N == M) with
    random complex amplitudes."""
    layout = build_layout(M, n_reg)
    occs = set()
    while len(occs) < (1 if N == M else 3):
        occs.add(tuple(sorted((rng.choice(M, N, replace=False) + 1).tolist())))
    keys = [layout.basis_index(o + (layout.sentinel,) * (n_reg - N)) for o in sorted(occs)]
    amps = rng.normal(size=len(keys)) + 1j * rng.normal(size=len(keys))
    return EncodedState.from_components(keys, amps / np.linalg.norm(amps), SORTED_LIST,
                                        layout, N)


def test_sl2fq_output_pinned(capsys, tmp_path):
    # every printed line and written byte of sl2fq on seeded superpositions
    # from (M, N) = (4, 2) to (1022, 5), seeds 0..5; attempts run 1..52
    rng, digest = np.random.default_rng(39), hashlib.sha256()
    src, dst = tmp_path / "sl.txt", tmp_path / "fq.txt"
    for M, N, n_reg in ((4, 2, 2), (4, 2, 3), (6, 3, 4), (6, 6, 6), (10, 6, 6), (62, 5, 5),
                        (254, 6, 6), (1022, 5, 5)):
        src.write_text(write_state(_sl_superposition(rng, M, N, n_reg)))
        for seed in range(6):
            rc, out, _ = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(src),
                                       "--seed", str(seed), "--out", str(dst)])
            assert rc == 0
            digest.update(out.encode())
            digest.update(dst.read_bytes())
    assert digest.hexdigest()[:16] == "984d2e52e818fedb"


def test_fock_oracle_cap_exceeded_exit_5(capsys, tmp_path):
    # past FockSpace's 12 orbitals, refused before any Fock vector is built
    sl, one, fq = tmp_path / "m20.txt", tmp_path / "one.txt", tmp_path / "m16.txt"
    _run(capsys, ["encode", "--sl", "--M", "20", "--occ", "3,17", "--nreg", "2",
                  "--out", str(sl)])
    _run(capsys, ["encode", "--sl", "--M", "20", "--occ", "5", "--nreg", "1",
                  "--out", str(one)])
    _run(capsys, ["encode", "--M", "16", "--occ", "2,9", "--out", str(fq)])
    for argv in (["rdm", "--state", str(sl)],
                 ["tensor", "--a", str(sl), "--b", str(one), "--verify"],
                 ["basis", "--state", str(fq), "--qft", "forward", "--verify"]):
        rc, _, err = _run(capsys, argv)
        assert rc == 5 and err.startswith("error:")


def test_rdm_trace(capsys, tmp_path):
    sl = tmp_path / "one.txt"
    _run(capsys, ["encode", "--sl", "--M", "2", "--occ", "1", "--nreg", "1",
                  "--out", str(sl)])
    rc, out, _ = _run(capsys, ["rdm", "--k", "1", "--state", str(sl)])
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "p,q,re,im"
    assert lines[1] == "1,1,1.0,0.0"
    assert lines[-1] == "trace 1.0"
    rc, out, _ = _run(capsys, ["rdm", "--k", "2", "--state", str(sl)])
    assert rc == 0 and out.splitlines()[-1] == "trace 0.0"


def test_tensor_merge_with_verify(capsys, tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "3", "--nreg", "1",
                  "--out", str(a)])
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "1", "--nreg", "1",
                  "--out", str(b)])
    rc, out, _ = _run(capsys, ["tensor", "--a", str(a), "--b", str(b), "--verify"])
    assert rc == 0
    lines = out.splitlines()
    assert lines[1] == "duplicate_probability 0.000000"
    assert lines[2] == "records_discarded True"
    assert lines[-1] == "fidelity 1.000000"


def _flip_one_sign(enc):
    amps = np.array(enc.amps)
    amps[0] *= -1
    return EncodedState.from_components(enc.keys, amps, enc.discipline, enc.layout, enc.N)


def test_tensor_superposition_with_verify(capsys, tmp_path):
    # a = (|1,2> + |1,3>)/sqrt(2), b = |4>: two determinant pairs, no duplicate
    x12, x13 = (OccupationBitstring.from_indices(4, occ) for occ in ((1, 2), (1, 3)))
    k12, k13 = (encode_sorted_list(x, 2).keys[0] for x in (x12, x13))
    a = EncodedState.from_components([k12, k13], [2 ** -0.5] * 2, "sorted-list",
                                     encode_sorted_list(x12, 2).layout, 2)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(write_state(a))
    pb.write_text(write_state(encode_sorted_list(OccupationBitstring.from_indices(4, (4,)), 1)))
    rc, out, _ = _run(capsys, ["tensor", "--a", str(pa), "--b", str(pb), "--verify"])
    assert rc == 0
    assert "duplicate_probability 0.000000" in out
    assert out.splitlines()[-1] == "fidelity 1.000000"


def test_tensor_verify_checks_deviation(capsys, tmp_path, monkeypatch):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "3", "--nreg", "1",
                  "--out", str(a)])
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "1", "--nreg", "1",
                  "--out", str(b)])

    def flipped(a, b):
        res = tensor_product_merge(a, b)
        return dataclasses.replace(res, state=_flip_one_sign(res.state))

    monkeypatch.setattr(cli, "tensor_product_merge", flipped)
    rc, out, _ = _run(capsys, ["tensor", "--a", str(a), "--b", str(b), "--verify"])
    assert rc == 4
    assert out.splitlines()[-1] == "max deviation 2.000e+00"


def _one_or_three(tmp_path):
    # a = (|1> + |3>)/sqrt(2), b = |2>: only the |3>|2> pair swaps, so the
    # comparison record tells the two branches apart and is kept
    lay = build_layout(4, 1)
    a = EncodedState.from_components([1, 3], [2 ** -0.5] * 2, "sorted-list", lay, 1)
    pa, pb = tmp_path / "a.txt", tmp_path / "b.txt"
    pa.write_text(write_state(a))
    pb.write_text(write_state(encode_sorted_list(OccupationBitstring.from_indices(4, (2,)), 1)))
    return ["tensor", "--a", str(pa), "--b", str(pb), "--verify"]


def test_tensor_verify_with_kept_records(capsys, tmp_path):
    rc, out, _ = _run(capsys, _one_or_three(tmp_path))
    assert rc == 0
    assert "records_discarded False" in out
    assert out.splitlines()[-1] == "fidelity 1.000000"


def test_tensor_verify_with_kept_records_checks_deviation(capsys, tmp_path, monkeypatch):
    def flipped(a, b):
        res = tensor_product_merge(a, b)
        return dataclasses.replace(res, state=_flip_one_sign(res.state))

    monkeypatch.setattr(cli, "tensor_product_merge", flipped)
    rc, out, _ = _run(capsys, _one_or_three(tmp_path))
    assert rc == 4
    assert "records_discarded False" in out
    assert out.splitlines()[-1] == "max deviation 1.414e+00"


def test_basis_verify_checks_deviation(capsys, tmp_path, monkeypatch):
    fq = tmp_path / "fq.txt"
    _run(capsys, ["encode", "--M", "4", "--occ", "2", "--out", str(fq)])

    def flipped(enc, inverse=False):
        result, gc = qft_register_transform(enc, inverse=inverse)
        return _flip_one_sign(result), gc

    monkeypatch.setattr(cli, "qft_register_transform", flipped)
    rc, out, _ = _run(capsys, ["basis", "--state", str(fq), "--qft", "forward", "--verify"])
    assert rc == 4
    assert out.splitlines()[-1] == "max deviation 1.000e+00"


def test_tensor_duplicate_flag(capsys, tmp_path):
    a = tmp_path / "a.txt"
    _run(capsys, ["encode", "--sl", "--M", "4", "--occ", "2", "--nreg", "1",
                  "--out", str(a)])
    rc, out, _ = _run(capsys, ["tensor", "--a", str(a), "--b", str(a), "--verify"])
    assert rc == 0
    assert "duplicate_probability 1.000000" in out


def test_basis_qft_with_verify(capsys, tmp_path):
    fq = tmp_path / "fq.txt"
    _run(capsys, ["encode", "--M", "4", "--occ", "2", "--out", str(fq)])
    rc, out, _ = _run(
        capsys, ["basis", "--state", str(fq), "--qft", "forward", "--verify"]
    )
    assert rc == 0
    assert out.splitlines()[0].startswith("gates ")
    assert out.splitlines()[-1] == "fidelity 1.000000"
    rc, out, _ = _run(
        capsys, ["basis", "--state", str(fq), "--qft", "inverse", "--verify"]
    )
    assert rc == 0 and out.splitlines()[-1] == "fidelity 1.000000"


def test_basis_matrix_file(capsys, tmp_path):
    fq = tmp_path / "fq.txt"
    _run(capsys, ["encode", "--M", "2", "--occ", "1", "--out", str(fq)])
    mat = tmp_path / "had.txt"
    r = float(1 / np.sqrt(2))
    mat.write_text(f"DIM 2 2\n{r!r} 0.0 {r!r} 0.0\n{r!r} 0.0 {-r!r} 0.0\n")
    out_state = tmp_path / "rot.txt"
    rc, out, _ = _run(
        capsys,
        ["basis", "--state", str(fq), "--matrix", str(mat),
         "--out", str(out_state), "--verify"],
    )
    assert rc == 0 and out.splitlines()[-1] == "fidelity 1.000000"
    assert "0.7071067811865475" in out_state.read_text()
    # a non-numeric header or entry is a precondition failure naming the token
    for text, token in (("DIM 2 x\n", "'x'"), (f"DIM 1 1\n{r!r} 0.0j\n", "'0.0j'")):
        mat.write_text(text)
        rc, _, err = _run(capsys, ["basis", "--state", str(fq), "--matrix", str(mat)])
        assert rc == 3 and err.startswith("error:") and token in err


def test_count_command(capsys, tmp_path):
    lay = build_layout(4, 2, 1)
    circ = Circuit(lay, [cnot(0, 3), toffoli(0, 1, 6), h(2)])
    path = tmp_path / "circ.txt"
    path.write_text(serialize_circuit(circ))
    rc, out, _ = _run(capsys, ["count", "--circuit", str(path)])
    assert rc == 0
    assert out.splitlines() == [
        "toffoli_equiv 1",
        "cnot 1",
        "single_qubit 1",
        "register_unitary_dim_sum 0",
        "total 3",
    ]


def test_count_refuses_malformed_circuit_exit_3(capsys, tmp_path):
    # an MCX without controls is an X; the line that says otherwise is refused
    path = tmp_path / "circ.txt"
    path.write_text("LAYOUT M=2 NREG=1 B=2 NANC=0\nMCX controls=[] targets=[0] params=[]\n")
    rc, out, err = _run(capsys, ["count", "--circuit", str(path)])
    assert rc == 3 and out == "" and err.startswith("error:") and "MCX controls=[]" in err
    # counting never compiles: the reader refuses qubits the layout refuses
    for line, says in (("X controls=[] targets=[2]", "touches qubit 2"),
                       ("X controls=[] targets=[-1]", "touches qubit -1"),
                       ("CNOT controls=[1] targets=[1]", "reuses a qubit")):
        path.write_text(f"LAYOUT M=2 NREG=1 B=2 NANC=0\n{line} params=[]\n")
        rc, out, err = _run(capsys, ["count", "--circuit", str(path)])
        assert rc == 3 and out == "" and says in err


def test_convert_refuses_non_finite_state_exit_3(capsys, tmp_path):
    fq = tmp_path / "fq.txt"
    assert _run(capsys, ["encode", "--fq", "--M", "4", "--occ", "1,2", "--out", str(fq)])[0] == 0
    lines = fq.read_text().splitlines()
    for amp in ("nan+0.0i", "0.0-nani", "inf+0.0i", "0.0+infi"):
        bad = tmp_path / "bad.txt"
        bad.write_text("\n".join([lines[0]] + [ln.split()[0] + " " + amp for ln in lines[1:]]))
        rc, out, err = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(bad), "--verify"])
        assert rc == 3 and "fidelity" not in out and "non-finite amplitude" in err


def test_convert_refuses_header_electron_count_exit_3(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text(
        "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=first-quantized N=5\n"
        "(001,010) 0.7071067811865475+0.0i\n(010,001) -0.7071067811865475+0.0i\n"
    )
    rc, out, err = _run(capsys, ["convert", "--dir", "fq2sl", "--in", str(bad), "--verify"])
    assert rc == 3 and out == "" and "N=5 does not fit NREG=2" in err


def test_undecodable_state_file_exits_3(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    head = b"STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=sorted-list N=?\n"
    bad.write_bytes(head + b"(001,011) \xff1.0+0.0i\n")
    rc, out, err = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(bad)])
    assert rc == 3 and out == "" and err.startswith("error:") and str(bad) in err
    assert f"{bad}: byte 65 is not UTF-8 (invalid start byte)" in err


def test_over_wide_state_file_exits_5(capsys, tmp_path):
    # 22 registers of 3 bits: 66 qubits, refused at the header
    wide = tmp_path / "wide.txt"
    wide.write_text(
        "STATE M=6 NREG=22 B=3 NANC=0 DISCIPLINE=sorted-list N=?\n"
        "(" + ",".join(["111"] * 22) + ") 1.0+0.0i\n"
    )
    rc, out, err = _run(capsys, ["convert", "--dir", "sl2fq", "--in", str(wide)])
    assert rc == 5 and out == "" and "66 qubits > packed-index cap 62" in err


def test_scaling_report_deterministic(capsys, tmp_path):
    out1, out2 = tmp_path / "r1.csv", tmp_path / "r2.csv"
    rc, text1, _ = _run(capsys, ["scaling-report", "--out", str(out1)])
    assert rc == 0
    assert text1.startswith("cost report (")
    csv1 = out1.read_text()
    lines = csv1.splitlines()
    assert lines[0] == "name,citation,parameters,value"
    assert len(lines) == 1 + 36 + 2  # header, formulas, two fits
    assert sum(1 for ln in lines if ln.startswith("fit: ")) == 2
    assert any("R2=" in ln for ln in lines)
    rc, text2, _ = _run(capsys, ["scaling-report", "--out", str(out2)])
    assert rc == 0 and text2 == text1
    assert out2.read_text() == csv1
    rc, text3, _ = _run(
        capsys,
        ["scaling-report", "--grid", "N=2,4,8,16;M=8,16", "--out", str(out1)],
    )
    assert rc == 0 and "fit: " in out1.read_text()


def test_scaling_report_csv_pinned(capsys, tmp_path):
    # all 36 formula rows and both fit rows, byte for byte
    out = tmp_path / "r.csv"
    rc, _, _ = _run(capsys, ["scaling-report", "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == DEFAULT_REPORT_CSV.read_bytes()


def test_scaling_report_wide_grid_csv_pinned(capsys, tmp_path):
    # 14 grid points up to the 1,471-comparator network of N=128
    out = tmp_path / "r.csv"
    rc, _, _ = _run(capsys, ["scaling-report", "--grid", WIDE_GRID, "--out", str(out)])
    assert rc == 0
    assert out.read_bytes() == WIDE_REPORT_CSV.read_bytes()


def test_scaling_report_past_the_gate_cap_exit_5(capsys, tmp_path):
    out = tmp_path / "r.csv"
    rc, text, err = _run(capsys, ["scaling-report", "--grid", "N=16384;M=64", "--out", str(out)])
    assert rc == 5 and text == ""
    assert "gate cap" in err
    assert not out.exists()


def test_scaling_report_degenerate_grid_exit_3(capsys, tmp_path):
    # N=1 needs no comparator: its count and log2(1) are both zero
    out = tmp_path / "r.csv"
    rc, text, err = _run(
        capsys, ["scaling-report", "--grid", "N=1,2,4;M=8,16", "--out", str(out)]
    )
    assert rc == 3 and text == ""
    assert err.splitlines() == [
        "error: grid point N=1 M=8: count 0 and model 0 must be > 0"
    ]
    assert not out.exists()


def test_verdict_mismatch_exit_4(capsys):
    assert _verdict(1.0, 0.0) == 0
    capsys.readouterr()
    rc = _verdict(0.5, 1e-3)
    out = capsys.readouterr().out
    assert rc == 4
    assert out.splitlines() == ["fidelity 0.500000", "max deviation 1.000e-03"]
    fid, dev = _compare((np.array([0]), np.array([1.0])), (np.array([1]), np.array([1.0])), False)
    assert fid == 0.0 and dev == 1.0  # entrywise max, not a 2-norm


def test_output_is_plain_text(capsys, tmp_path):
    fq = tmp_path / "fq.txt"
    for argv in (
        ["encode", "--M", "4", "--occ", "1,3", "--out", str(fq)],
        ["convert", "--dir", "fq2sl", "--in", str(fq), "--verify"],
        ["scaling-report", "--out", str(tmp_path / "r.csv")],
    ):
        rc, out, err = _run(capsys, argv)
        assert rc == 0
        assert "\x1b" not in out and "\x1b" not in err


@pytest.mark.parametrize("unbuffered", ["", "1"])
def test_closed_stdout_exits_141_silently(unbuffered):
    # the reader is gone before the verb writes: exit as SIGPIPE would
    # (128 + 13), with no error line and no "Exception ignored" at exit,
    # whether stdout is flushed at every write or only at the end
    env = dict(os.environ, PYTHONUNBUFFERED=unbuffered,
               PYTHONPATH=os.pathsep.join(filter(None, (str(SRC), os.environ.get("PYTHONPATH")))))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "fermiconv", "encode", "--sl", "--M", "4", "--occ", "1,3",
             "--nreg", "3"],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""
