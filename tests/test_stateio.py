"""Text round trips for encoded states."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fermiconv import (
    EncodedState,
    OccupationBitstring,
    Statevector,
    encode_first_quantized_determinant,
    encode_sorted_list,
    read_state,
    write_state,
)
from fermiconv.circuits import build_layout
from fermiconv.encodings import with_ancillas
from fermiconv.errors import BadParam, MalformedComponent
from fermiconv.stateio import format_amplitude, parse_amplitude


def test_amplitude_format_examples():
    assert format_amplitude(1.0 + 0.0j) == "1.0+0.0i"
    assert format_amplitude(-0.5 - 0.25j) == "-0.5-0.25i"
    assert format_amplitude(complex(0.0, -0.0)) == "0.0-0.0i"
    assert parse_amplitude("1.5e-3+2.0i") == complex(1.5e-3, 2.0)
    assert parse_amplitude("-1.0-1e-9i") == complex(-1.0, -1e-9)


def test_amplitude_parse_errors():
    for tok in ("1.0+0.0", "1.0", "i", "1.0+i0.0i", "++1.0i"):
        with pytest.raises(MalformedComponent):
            parse_amplitude(tok)


@given(
    st.complex_numbers(
        allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e6
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_amplitude_round_trip(z):
    assert parse_amplitude(format_amplitude(z)) == z


def test_sorted_list_round_trip():
    enc = encode_sorted_list(OccupationBitstring.from_indices(4, (1, 3)), 3)
    text = write_state(enc)
    lines = text.splitlines()
    assert lines[0] == "STATE M=4 NREG=3 B=3 NANC=0 DISCIPLINE=sorted-list N=2"
    assert lines[1] == "(001,011,111) 1.0+0.0i"
    back = read_state(text)
    np.testing.assert_array_equal(back.state.amps, enc.state.amps)
    assert (back.discipline, back.N) == (enc.discipline, 2)
    assert back.layout.total_qubits == enc.layout.total_qubits


def test_first_quantized_round_trip():
    enc = encode_first_quantized_determinant(
        OccupationBitstring.from_indices(2, (1, 2))
    )
    text = write_state(enc)
    back = read_state(text)
    np.testing.assert_array_equal(back.state.amps, enc.state.amps)
    assert back.discipline == "first-quantized"
    # deterministic bytes: rewriting reproduces the text exactly
    assert write_state(back) == text


def test_wide_registers_with_ancillas_write_each_code():
    # M=62 fills b=6 bits: values 0..63, the sentinel 63 included
    lay = build_layout(62, 3, 3)
    assert lay.b == 6
    rows = [((1, 2, 63), 0), ((0, 31, 62), 5), ((63, 63, 63), 7), ((17, 40, 9), 2)]
    keys = [lay.basis_index(values, anc) for values, anc in rows]
    amps = [0.5, -0.5j, 0.5, -0.5]
    enc = EncodedState.from_components(keys, amps, "sorted-list", lay, None)
    lines = write_state(enc).splitlines()
    assert lines[0] == "STATE M=62 NREG=3 B=6 NANC=3 DISCIPLINE=sorted-list N=?"
    want = sorted(zip(keys, rows, amps))
    assert lines[1:] == [
        f"({','.join(format(v, '06b') for v in values)}|{format(anc, '03b')}) "
        f"{format_amplitude(complex(z))}"
        for _, (values, anc), z in want
    ]
    assert write_state(read_state("\n".join(lines))) == "\n".join(lines) + "\n"


def test_ancilla_bits_round_trip():
    enc = with_ancillas(
        encode_sorted_list(OccupationBitstring.from_indices(2, (1,)), 1), 2
    )
    lay = enc.layout
    amps = np.zeros_like(enc.state.amps)
    amps[lay.basis_index((1,), 2)] = 0.6
    amps[lay.basis_index((2,), 1)] = 0.8j
    enc = EncodedState(Statevector(amps), enc.discipline, lay, enc.N)
    text = write_state(enc)
    assert "(01|10) 0.6+0.0i" in text
    assert "(10|01) 0.0+0.8i" in text
    back = read_state(text)
    np.testing.assert_array_equal(back.state.amps, enc.state.amps)


def test_unknown_electron_count_serializes_as_question_mark():
    enc = encode_sorted_list(OccupationBitstring.from_indices(3, (2,)), 2)
    enc.N = None
    text = write_state(enc)
    assert "N=?" in text
    assert read_state(text).N is None


def test_threshold_drops_small_components():
    enc = encode_sorted_list(OccupationBitstring.from_indices(3, (1,)), 1)
    amps = enc.state.amps.copy()
    amps[enc.layout.basis_index((2,))] = 1e-13
    enc = EncodedState(Statevector(amps), enc.discipline, enc.layout, enc.N)
    assert len(write_state(enc).splitlines()) == 2


def test_header_errors():
    with pytest.raises(BadParam):
        read_state("")
    with pytest.raises(BadParam):
        read_state("M=4 NREG=2\n")
    with pytest.raises(BadParam):
        read_state(
            "STATE M=4 NREG=2 B=2 NANC=0 DISCIPLINE=sorted-list N=1\n"
        )  # M=4 needs b=3
    with pytest.raises(BadParam):
        read_state("STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=fock N=1\n")


def test_component_line_errors():
    head = "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=sorted-list N=1\n"
    for bad in (
        "(001) 1.0+0.0i",  # register count
        "(001,01) 1.0+0.0i",  # register width
        "(001,011|1) 1.0+0.0i",  # unexpected ancilla bits
        "(001,011) 1.0",  # amplitude shape
        "001,011 1.0+0.0i",  # missing parentheses
        "(002,011) 1.0+0.0i",  # non-binary digit
        "(001,011) 1.0+0.0i\n(001,011) 0.5+0.0i",  # one component twice
    ):
        with pytest.raises(MalformedComponent):
            read_state(head + bad + "\n")
