"""Register states are component lists: sorted unique int64 keys, nonzero
amplitudes, both read-only, and a read-only dense view."""

import ast
from pathlib import Path

import numpy as np
import pytest

import fermiconv
from fermiconv import (
    FIRST_QUANTIZED,
    SORTED_LIST,
    CapExceeded,
    EncodedState,
    OccupationBitstring,
    Statevector,
    apply_ladder,
    apply_register_transform,
    build_layout,
    dft_matrix,
    encode_first_quantized_determinant,
    encode_sorted_list,
    first_to_second,
    qft_register_transform,
    read_state,
    second_to_first,
    tensor_product_merge,
    write_state,
)
from fermiconv.encodings import drop_clear_ancillas
from fermiconv.errors import BadParam
from validate_reference import with_ancillas


def _check(enc):
    assert enc.keys.dtype == np.int64
    assert enc.keys.shape == enc.amps.shape
    assert np.all(np.diff(enc.keys) > 0)  # sorted and unique
    assert np.all(enc.amps != 0)
    assert not enc.keys.flags.writeable and not enc.amps.flags.writeable
    return enc


def _superposition(M, n_reg, dets, coefs):
    layout = build_layout(M, n_reg)
    keys = [layout.basis_index(d + (layout.sentinel,) * (n_reg - len(d))) for d in dets]
    return EncodedState.from_components(keys, coefs, SORTED_LIST, layout, len(dets[0]))


def test_every_entry_point_returns_a_component_list():
    x = OccupationBitstring.from_indices(6, (1, 3, 4))
    sl = _check(encode_sorted_list(x, 4))
    fq = _check(encode_first_quantized_determinant(x))
    assert len(fq.keys) == 6 and len(sl.keys) == 1
    _check(EncodedState(Statevector(fq.state.amps), FIRST_QUANTIZED, fq.layout, 3))
    _check(read_state(write_state(fq)))
    wide = _check(with_ancillas(sl, 3))
    _check(drop_clear_ancillas(wide))
    out, _ = first_to_second(fq, extra_registers=1)
    _check(out)
    back, _ = second_to_first(_superposition(6, 3, [(1, 3, 4), (2, 5, 6)], [0.6, 0.8j]))
    _check(back)
    _check(apply_register_transform(back, dft_matrix(6))[0])
    _check(qft_register_transform(encode_first_quantized_determinant(
        OccupationBitstring.from_indices(4, (1, 2))))[0])
    a = _superposition(6, 2, [(1, 2), (3, 4)], [0.6, 0.8])
    _check(tensor_product_merge(a, a).state)  # records kept
    _check(tensor_product_merge(a, encode_sorted_list(
        OccupationBitstring.from_indices(6, (5,)), 1)).state)  # records discarded
    _check(apply_ladder(sl, 2, "create"))
    # creating an occupied orbital cancels to exact zeros, which are dropped
    gone = _check(apply_ladder(sl, 3, "create"))
    assert len(gone.keys) == 0
    assert not np.any(gone.state.amps)


def test_from_components_sorts_and_refuses_bad_keys():
    lay = build_layout(4, 2)
    enc = EncodedState.from_components([12, 3, 9], [1.0, 0.0, -2.0j], SORTED_LIST, lay)
    assert enc.keys.tolist() == [9, 12] and enc.amps.tolist() == [-2j, 1.0]
    with pytest.raises(BadParam, match="distinct"):
        EncodedState.from_components([3, 3], [1.0, 1.0], SORTED_LIST, lay)
    for key in (-1, 1 << lay.total_qubits):
        with pytest.raises(BadParam, match="inside the layout"):
            EncodedState.from_components([key], [1.0], SORTED_LIST, lay)


def test_wide_layouts_refused_at_construction():
    # a state costs its components, so layouts up to the packed-index cap are
    # held; only the dense view refuses past 26 qubits, and only when accessed
    enc = EncodedState.from_components([1], [1.0], SORTED_LIST, build_layout(62, 4, 3))
    assert enc.layout.total_qubits == 27 and enc.keys.tolist() == [1]
    with pytest.raises(CapExceeded, match="27 qubits > dense cap"):
        enc.state
    # past 62 qubits the keys would not fit int64
    sl = encode_sorted_list(OccupationBitstring.from_indices(62, (1, 2)), 10)  # 60 qubits
    wide = "63 qubits > packed-index cap 62"
    with pytest.raises(CapExceeded, match=wide):
        EncodedState.from_components([1], [1.0], SORTED_LIST, build_layout(62, 10, 3))
    with pytest.raises(CapExceeded, match=wide):
        with_ancillas(sl, 3)
    header, line = write_state(sl).splitlines()
    text = header.replace("NANC=0", "NANC=3") + "\n" + line.replace(")", "|000)") + "\n"
    with pytest.raises(CapExceeded, match=wide):
        read_state(text)


def test_dense_view_is_read_only():
    enc = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 2)
    with pytest.raises(ValueError):
        enc.state.amps[0] = 1
    with pytest.raises(ValueError):
        enc.amps[0] = 1
    with pytest.raises(ValueError):
        enc.keys[0] = 1
    enc.N = None  # metadata stays assignable
    assert "N=?" in write_state(enc)


def test_register_side_modules_never_name_statevector():
    # conversions, ladders, basis changes, state files and the CLI work on
    # component lists, never on a dense register vector
    src = Path(fermiconv.__file__).parent
    for module in ("conversion", "cli", "basis", "majorana", "stateio"):
        tree = ast.parse((src / f"{module}.py").read_text())
        names = {getattr(node, attr, None) for node in ast.walk(tree)
                 for attr in ("id", "attr", "name")}
        assert "Statevector" not in names, module
