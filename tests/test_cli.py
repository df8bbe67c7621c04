"""End-to-end command-line runs through main(argv)."""

import dataclasses
from pathlib import Path

import numpy as np
import pytest

from fermiconv import (
    EncodedState,
    OccupationBitstring,
    Statevector,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    qft_register_transform,
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
from fermiconv.stateio import write_state

DEFAULT_REPORT_CSV = Path(__file__).resolve().parent / "data" / "scaling_report_default.csv"


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
    fq = tmp_path / "fq.txt"
    _run(capsys, ["encode", "--M", "4", "--occ", "1,3", "--out", str(fq)])
    rc, _, err = _run(
        capsys,
        ["convert", "--dir", "fq2sl", "--in", str(fq), "--extra-registers", "8"],
    )
    assert rc == 5 and err.startswith("error:")


def test_fock_bridges_cap_exceeded_exit_5(capsys, tmp_path):
    # convert --verify compares occupation masks, which fit int64 up to
    # M=62; the rdm oracle would need a 2^40 Fock vector
    for M in (40, 62, 63):
        sl = tmp_path / f"m{M}.txt"
        _run(capsys, ["encode", "--sl", "--M", str(M), "--occ", "3,17", "--nreg", "2",
                      "--out", str(sl)])
        rc, out, err = _run(capsys, ["convert", "--dir", "sl2fq", "--verify", "--in", str(sl)])
        if M < 63:
            assert rc == 0 and out.splitlines()[-1] == "fidelity 1.000000"
        else:
            assert rc == 5 and err.startswith("error:") and "packed-mask cap 62" in err
    rc, _, err = _run(capsys, ["rdm", "--state", str(tmp_path / "m40.txt")])
    assert rc == 5 and err.startswith("error:")


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
