"""Plain-text serialization of encoded register states.

Format: one header line

    STATE M=<int> NREG=<int> B=<int> NANC=<int> DISCIPLINE=<name> N=<int|?>

followed by one line per nonzero basis component,

    (001,011,111) 1.0+0.0i

with each register written as b bits, most significant first, register 0
first inside the parentheses. When the layout carries ancillas their bits
follow the registers after a '|' (again most significant first):

    (001,011|10) -0.5+0.0i

Amplitudes use repr floats so a write/read round trip is exact; components
below AMP_THRESHOLD in magnitude are omitted. Lines are emitted in basis
index order, so equal states serialize to identical bytes.

The reader splits and strips lines as str.splitlines() and str.strip()
do and then reads all component lines together. Each line's first
characters, its fixed-width head and the whitespace that must follow it,
form one row of bytes; one weighted sum per row packs its bits into the
key, and one count of the zero head in the zeroed rows checks every row
against the header's template. After the head comes the amplitude token:
one regex match per token splits it at its last '+' or '-' not after an
'e' or 'E', and float() parses both parts, so it reads to the bits of
complex(float(re), float(im)). Repeated keys are found by the sort
EncodedState.from_components does anyway. A malformed file names its
first offending line, with the message of the first check that line
fails.
"""

from __future__ import annotations

import math
import re
from array import array
from functools import lru_cache
from itertools import chain, repeat
from operator import getitem

import numpy as np

from .circuits import PACKED_CAP, build_layout
from .encodings import AMP_THRESHOLD, SORTED_LIST, EncodedState
from .errors import BadParam, CapExceeded, MalformedComponent

_HEADER_RE = re.compile(
    r"^STATE M=(\d+) NREG=(\d+) B=(\d+) NANC=(\d+) "
    r"DISCIPLINE=(sorted-list|first-quantized) N=(\d+|\?)$"
)
_LINE_RE = re.compile(r"^\(([01,]+)(?:\|([01]+))?\)\s+(\S+)$")  # words a refused head

# whitespace as str.isspace(), strip() and the regex \s see it
_SPACES = "\t\n\v\f\r\x1c\x1d\x1e\x1f \x85\xa0\u1680\u2028\u2029\u202f\u205f\u3000" + "".join(
    map(chr, range(0x2000, 0x200B))
)
# a head that fits its layout's template reads as the zero head once its
# ones are zeros and its whitespace a blank; its bytes, once its digits are
# 0 and 1, weigh into its key
_ZEROED = str.maketrans({"1": "0", **{c: " " for c in _SPACES}})
_BITS = bytes.maketrans(b"01", b"\0\1")
# the amplitude token after a head: both parts, split at the last sign that
# does not follow an exponent's e or E, before the closing i. The lookahead
# refuses a token without that i at once: otherwise every sign would be
# tried again.
_AMPLITUDE = re.compile(r"\s*(?=\S*i\Z)(\S+)(?<![eE])([+-]\S*)i")


def format_amplitude(z: complex) -> str:
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{z.real!r}{sign}{abs(im)!r}i"


def write_state(enc: EncodedState) -> str:
    lay = enc.layout
    n_txt = "?" if enc.N is None else str(enc.N)
    lines = [
        f"STATE M={lay.M} NREG={lay.n_reg} B={lay.b} NANC={lay.n_anc} "
        f"DISCIPLINE={enc.discipline} N={n_txt}"
    ]
    above = np.abs(enc.amps) > AMP_THRESHOLD
    keys = enc.keys[above]
    ancs = (keys >> (lay.n_reg * lay.b)).tolist()
    codes = [format(v, f"0{lay.b}b") for v in range(1 << lay.b)]
    for values, anc, z in zip(lay.decode(keys).tolist(), ancs, enc.amps[above].tolist()):
        regs = ",".join([codes[v] for v in values])
        if lay.n_anc:
            regs += "|" + format(anc, f"0{lay.n_anc}b")
        lines.append(f"({regs}) {format_amplitude(z)}")
    return "\n".join(lines) + "\n"


def read_state(text: str) -> EncodedState:
    lines = [*filter(None, map(str.strip, text.splitlines()))]
    if not lines:
        raise BadParam("empty state file")
    m = _HEADER_RE.match(lines[0])
    if not m:
        raise BadParam(f"bad STATE header: {lines[0]!r}")
    M, n_reg, b, n_anc = (int(m.group(k)) for k in range(1, 5))
    discipline = m.group(5)
    N = None if m.group(6) == "?" else int(m.group(6))
    layout = build_layout(M, n_reg, n_anc)
    if layout.b != b:
        raise BadParam(f"header B={b} but M={M} needs b={layout.b}")
    if N is not None and (N > n_reg if discipline == SORTED_LIST else N != n_reg):
        raise BadParam(f"{discipline} header N={N} does not fit NREG={n_reg}: {lines[0]!r}")
    if layout.total_qubits > PACKED_CAP:
        raise CapExceeded(f"{layout.total_qubits} qubits > packed-index cap {PACKED_CAP}")
    zero, weights = _head_tables(n_reg, b, n_anc)
    body = lines[1:]
    keys, zeroed = _heads(body, zero, weights)
    # the amplitude follows the blank that ends the head
    tokens = map(_AMPLITUDE.fullmatch, body, repeat(len(zero)))
    halves = chain.from_iterable(map(re.Match.groups, tokens))
    # extend keeps the parts read before a token the split refuses (None has
    # no groups) or a part float() refuses
    parts = array("d")
    try:
        parts.extend(map(float, halves))
    except (TypeError, ValueError):
        pass
    amps = np.frombuffer(parts, complex, len(parts) // 2)
    if len(amps) < len(body) or not np.isfinite(amps).all() or zeroed.count(zero) < len(body):
        raise MalformedComponent(_refusal(body, zeroed, zero, amps, keys, layout))
    try:
        enc = EncodedState.from_components(keys, amps, discipline, layout, N)
    except BadParam:  # from_components sorts the keys and refuses a repeat
        twice = body[_first_repeat(keys)]
        raise MalformedComponent(f"component listed twice: {twice!r}") from None
    if N is not None and discipline == SORTED_LIST:
        filled = np.count_nonzero(layout.decode(keys) != layout.sentinel, axis=1)
        bad = np.flatnonzero(filled != N)
        if len(bad):  # keys keep line order
            raise MalformedComponent(f"expected {N} filled registers: {body[bad[0]]!r}")
    return enc


@lru_cache(maxsize=64)
def _head_tables(n_reg: int, b: int, n_anc: int):
    """The zero head with the blank after it, and each column's weight in
    the key: register r's bits, most significant first, weigh 2^(r b + b - 1)
    down to 2^(r b), and the ancilla bits come last."""
    zero = "(" + ",".join(["0" * b] * n_reg) + ("|" + "0" * n_anc if n_anc else "") + ") "
    shifts = [r * b + b - 1 - k for r in range(n_reg) for k in range(b)]
    shifts += [n_reg * b + n_anc - 1 - k for k in range(n_anc)]
    weights = np.zeros(len(zero), np.int64)
    weights[np.frombuffer(zero.encode(), np.uint8) == 48] = 1 << np.array(shifts)
    weights.setflags(write=False)
    return zero, weights


def _heads(body: list, zero: str, weights: np.ndarray):
    """Each line's key, read from its first len(zero) characters as one row
    of bytes, and those characters with ones as zeros and whitespace as a
    blank: the rows of lines that fit their head read as the zero head."""
    w = len(zero)
    heads = "".join(map(str.ljust, map(getitem, body, repeat(slice(w))), repeat(w), repeat("?")))
    rows = heads.encode("ascii", "replace").translate(_BITS)
    keys = np.einsum("ij,j->i", np.ndarray((len(body), w), np.uint8, rows), weights, dtype=np.int64)
    return keys, heads.translate(_ZEROED)


def _first_repeat(keys: np.ndarray) -> int:
    """Index of the first key an earlier one equals, or len(keys)."""
    order = np.argsort(keys, kind="stable")
    same = np.flatnonzero(keys[order[1:]] == keys[order[:-1]])
    return int(order[1 + same].min()) if len(same) else len(keys)


def _refusal(body: list, zeroed: str, zero: str, amps, keys, layout) -> str:
    """The message for the first component line that fails a check. zeroed
    holds each line's zeroed head, keys one entry per line, amps one per
    line read before the first refused token."""
    heads = np.ndarray((len(body), len(zero)), np.uint8, zeroed.encode("ascii", "replace"))
    head_ok = (heads == np.frombuffer(zero.encode(), np.uint8)).all(axis=1)
    finite = np.append(np.isfinite(amps), False)
    j = int(min(finite.argmin(), np.append(head_ok, False).argmin()))
    ln = body[j]
    cm = _LINE_RE.match(ln)
    shaped = bool(head_ok[j]) and cm is not None
    twice = _first_repeat(keys[: j + shaped])  # line j's key counts once its head does
    if twice < j + shaped:
        return f"component listed twice: {body[twice]!r}"
    if not cm:
        return f"bad component line: {ln!r}"
    if not head_ok[j]:
        regs = cm.group(1).split(",")
        if len(regs) != layout.n_reg or any(len(r) != layout.b for r in regs):
            return f"expected {layout.n_reg} registers of {layout.b} bits: {ln!r}"
        return f"expected {layout.n_anc} ancilla bits: {ln!r}"
    tok = cm.group(3)
    if j < len(amps):
        return f"non-finite amplitude: {ln!r}"
    if not tok.endswith("i"):
        return f"amplitude must end in 'i': {tok!r}"
    if not _AMPLITUDE.fullmatch(tok):
        return f"amplitude needs a signed imaginary part: {tok!r}"
    return f"bad amplitude {tok!r}"
