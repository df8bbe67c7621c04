"""Text round trips for encoded states, and the reader pinned against the
line-by-line reference in ``stateio_reference``."""

import random
import sys
import time

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
import stateio_reference as ref
from fermiconv.circuits import build_layout
from fermiconv.errors import BadParam, CapExceeded, FermiconvError, MalformedComponent
from fermiconv.stateio import _SPACES, format_amplitude
from validate_reference import with_ancillas


def _amp(tok: str) -> complex:
    """The amplitude read_state takes from a one-component file (0 when the
    state drops it for being zero)."""
    enc = read_state(f"STATE M=2 NREG=1 B=2 NANC=0 DISCIPLINE=sorted-list N=?\n(01) {tok}\n")
    return complex(enc.amps[0]) if len(enc.amps) else 0j


def test_amplitude_format_examples():
    assert format_amplitude(1.0 + 0.0j) == "1.0+0.0i"
    assert format_amplitude(-0.5 - 0.25j) == "-0.5-0.25i"
    assert format_amplitude(complex(0.0, -0.0)) == "0.0-0.0i"
    assert _amp("1.5e-3+2.0i") == complex(1.5e-3, 2.0)
    assert _amp("-1.0-1e-9i") == complex(-1.0, -1e-9)


def test_amplitude_parse_errors():
    for tok in ("1.0+0.0", "1.0", "i", "1.0+i0.0i", "++1.0i"):
        with pytest.raises(MalformedComponent):
            _amp(tok)


@given(
    st.complex_numbers(
        allow_nan=False, allow_infinity=False, min_magnitude=0, max_magnitude=1e6
    )
)
@settings(max_examples=200, deadline=None, derandomize=True)
def test_amplitude_round_trip(z):
    back = _amp(format_amplitude(z))
    assert back == z
    if z:  # the bits, signed zeros included
        assert np.array(back).tobytes() == np.array(z).tobytes()


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


def test_header_electron_count_must_fit_the_components():
    fq = (
        "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=first-quantized N={}\n"
        "(010,001) -0.7071067811865475+0.0i\n(001,010) 0.7071067811865475+0.0i\n"
    )
    assert write_state(read_state(fq.format(2))) == fq.format(2)
    for n in (1, 5):
        with pytest.raises(BadParam, match=f"first-quantized header N={n} does not fit NREG=2"):
            read_state(fq.format(n))
    sl = "STATE M=4 NREG=3 B=3 NANC=1 DISCIPLINE=sorted-list N={}\n(001,010,111|0) 1.0+0.0i\n"
    assert write_state(read_state(sl.format(2))) == sl.format(2)
    assert read_state(sl.format("?")).N is None
    with pytest.raises(BadParam, match="sorted-list header N=4 does not fit NREG=3"):
        read_state(sl.format(4))
    for n in (0, 1, 3):
        with pytest.raises(MalformedComponent, match=f"expected {n} filled") as exc:
            read_state(sl.format(n))
        assert "'(001,010,111|0) 1.0+0.0i'" in str(exc.value)
    # the line named is the first one whose count is off
    two = sl.format(2) + "(001,111,111|1) 0.5+0.0i\n"
    with pytest.raises(MalformedComponent, match=r"\(001,111,111\|1\)"):
        read_state(two)


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


def test_non_finite_amplitudes_are_refused():
    # nan compares false against the threshold, so it would drop out of
    # validation and comparison alike; every non-finite part is refused
    head = "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=sorted-list N=2\n"
    for amp in ("nan+0.0i", "1.0+nani", "inf+0.0i", "1.0-infi", "-inf-nani"):
        line = f"(001,011) {amp}"
        with pytest.raises(MalformedComponent, match="non-finite") as exc:
            read_state(head + line + "\n")
        assert repr(line) in str(exc.value)


# --- the reader against the line-by-line reference ------------------------


def _outcome(read, text):
    """What a reader makes of text: the state down to its bytes, or the
    refusal's type and message."""
    try:
        enc = read(text)
    except FermiconvError as exc:
        return type(exc), str(exc)
    return enc.keys.tobytes(), enc.amps.tobytes(), enc.N, enc.discipline, enc.layout


def _check_against_reference(text):
    got, want = _outcome(read_state, text), _outcome(ref.read_state, text)
    if got[0] is CapExceeded and "packed-index cap" in got[1]:
        # an over-wide header is refused before any component line is read
        assert want[0] in (CapExceeded, MalformedComponent), (text, want)
    else:
        assert got == want, text


_AMPS = (1.0, -0.5, 0.25j, -0.0, 1e-05, -1e-05, 1e-300, 3.5e200, 0.7071067811865475, 1 / 3)


def _random_state(rng):
    M = rng.randint(4, 14)
    lay = build_layout(M, rng.randint(1, 4), rng.choice((0, 0, 1, 3)))
    keys = rng.sample(range(1 << lay.total_qubits), rng.randint(0, 6))
    amps = [complex(rng.choice(_AMPS), rng.choice((0.0, -0.0) + _AMPS[:6])) or 1.0 for _ in keys]
    discipline = rng.choice(("sorted-list", "first-quantized"))
    return EncodedState.from_components(keys, amps, discipline, lay)


def _reformat(text, rng):
    """The same file with blank lines, padding, tab or wide separators and
    other line ends."""
    out = []
    for ln in text.splitlines():
        if rng.random() < 0.3:
            out.append(rng.choice(("", "  ", "\t")))
        if rng.random() < 0.3:
            if ln[0] == "(":
                ln = ln.replace(" ", rng.choice(("  ", "\t", " \t ", "\xa0")), 1)
        if rng.random() < 0.3:
            ln = rng.choice((" ", "\t")) + ln + rng.choice(("", " ", "\t "))
        out.append(ln)
    return rng.choice(("\n", "\r\n", "\v", "\u2028")).join(out) + rng.choice(("", "\n", "\n\n"))


def _encoded_state(rng):
    """A first-quantized or sorted-list superposition of two determinants at
    M = 4..14, with ancillas and amplitudes in exponent form at times."""
    M, N = rng.randint(4, 14), rng.randint(1, 3)
    occs = [sorted(rng.sample(range(1, M + 1), N)) for _ in "ab"]
    dets = [OccupationBitstring.from_indices(M, occ) for occ in occs]
    if rng.random() < 0.5:
        parts = [encode_first_quantized_determinant(x) for x in dets]
    else:
        n_reg = N + rng.randint(0, 2)
        parts = [with_ancillas(encode_sorted_list(x, n_reg), rng.choice((0, 2))) for x in dets]
    c = rng.choice(_AMPS[4:])
    keys = np.concatenate([p.keys for p in parts])
    amps = np.concatenate([parts[0].amps * c, parts[1].amps * rng.choice(_AMPS)])
    keep = np.unique(keys, return_index=True)[1]
    lay = parts[0].layout
    return EncodedState.from_components(keys[keep], amps[keep], parts[0].discipline, lay, N)


def test_reader_matches_reference_on_valid_files():
    rng = random.Random(7)
    read = 0
    for k in range(400):
        enc = _encoded_state(rng) if k % 2 else _random_state(rng)
        text = write_state(enc)
        for variant in (text, _reformat(text, rng)):
            got = _outcome(read_state, variant)
            assert got == _outcome(ref.read_state, variant), variant
            read += isinstance(got[0], bytes)
    assert read == 800  # every file is valid, however it is laid out


_HEAD = "STATE M=4 NREG=2 B=3 NANC=0 DISCIPLINE=sorted-list N=?\n"


@pytest.mark.parametrize(
    "body",
    [
        "(001) 1.0+0.0i",
        "(001,01) 1.0+0.0i",
        "(001,011|1) 1.0+0.0i",
        "(001,011) 1.0",
        "001,011 1.0+0.0i",
        "(002,011) 1.0+0.0i",
        "(001,011)",
        "(001,011) 1.0 +0.0i",
        "(001,011)1.0+0.0i",
        "(001, 011) 1.0+0.0i",
        "(\uff1101,011) 1.0+0.0i",  # a full-width digit in a register
        "(001,011) 1.0+0.0i\n(001,011) 0.5+0.0i",  # the second occurrence is named
        # a head that fits in part keeps a key an earlier line has; the
        # register count is what it fails first
        "(000,000) 1.0+0.0i\n(000,000,000) 1.0+0.0i",
        "(000,000) 1.0+0.0i\n(000,000|1) 1.0+0.0i",
        "(001,011) 1.0+0.0i\n(010,011) 1.0+0.0i\n(001,011) 0.5+0.0i\n(001,111) x",
        "(001,011) 1.0+0.0i\n(010,011) 1.0\n(001,010) 1.0+0.0i\n(002,011) 1.0+0.0i",
        "(001,011) 1.0+0.0i\n(002,011) 1.0+0.0i\n(010,011) 1.0",  # the first bad line wins
        "(001,011) 1.0+0.0i\n(010,011) 2.0i\n(001,011) 0.5+0.0i",
        "(001,011) inf+0.0i\n(001,011) 0.5+0.0i",
        "(001,011) 1.0+0.0i\n(001,011) nan+0.0i",
        "(001,011) +1.0-2.0i",
        "(001,011) 1.0+-2.0i",
        "(001,011) 1_0.0+0.0i",
        "(001,011) 1e-05-1e-05i",
        "(001,011) 1E+05+1e-300i",
        "(001,011) (1+2i)",
        "(001,011) 2.0i",
        "(001,011) -2.0i",
        "(001,011) 1.0+0.0j",
        "(001,011) 1.0e+i",
        "(001,011) \uff11.0+0.0i",  # float() reads a full-width digit
        "(001,011)\xa01.0+0.0i",  # a no-break space separates like a space
        "(001,011) 1.0\xa0+0.0i",
        "(001,011) infinity-nani",
        "(001,011) 1e999+0.0i",
    ],
)
def test_reader_matches_reference_on_malformed_and_odd_files(body):
    _check_against_reference(_HEAD + body + "\n")
    _check_against_reference(_HEAD.replace("N=?", "N=2") + body)


def test_reader_matches_reference_on_mutated_files():
    rng = random.Random(11)
    alphabet = [*"0101,,()|| \t\n\r+-eEi.5_nafIN?", *"\xa0\x85\uff11\xe9\x0b\x00"]
    for _ in range(600):
        lines = write_state(_random_state(rng)).split("\n")
        for _ in range(rng.randint(1, 3)):
            i = rng.randrange(len(lines))
            if rng.random() < 0.2 and len(lines) > 2:
                lines.insert(rng.randrange(1, len(lines)), lines[rng.randrange(1, len(lines))])
                continue
            ln, p = lines[i], rng.randrange(len(lines[i]) + 1)
            cut = p + rng.randint(0, 1)
            lines[i] = ln[:p] + rng.choice(alphabet + [""]) + ln[cut:]
        _check_against_reference("\n".join(lines))


def test_whitespace_is_what_str_isspace_says():
    # the reader maps these to a blank in its byte view of the heads
    assert {c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()} == set(_SPACES)


def test_over_wide_header_is_refused_before_any_key():
    # 22 registers of 3 bits: 66 qubits, past the packed-index cap
    wide = "STATE M=6 NREG=22 B=3 NANC=0 DISCIPLINE=sorted-list N=?\n"
    line = "(" + ",".join(["111"] * 22) + ") 1.0+0.0i\n"
    for text in (wide + line, wide, wide + "(1) x\n"):
        with pytest.raises(CapExceeded, match="66 qubits > packed-index cap 62"):
            read_state(text)


def test_long_odd_tokens_are_refused_in_linear_time():
    # a split pattern that tried every sign again would take minutes here
    for tok in ("+-" * 50_000 + "x", "+-" * 50_000 + "ix", "+-" * 50_000 + " 1.0+0.0i"):
        t0 = time.perf_counter()
        _check_against_reference(_HEAD + "(001,011) " + tok + "\n")
        assert time.perf_counter() - t0 < 5
