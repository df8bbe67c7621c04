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
"""

from __future__ import annotations

import math
import re

import numpy as np

from .circuits import build_layout, check_dense
from .encodings import AMP_THRESHOLD, EncodedState
from .errors import BadParam, MalformedComponent

_HEADER_RE = re.compile(
    r"^STATE M=(\d+) NREG=(\d+) B=(\d+) NANC=(\d+) "
    r"DISCIPLINE=(sorted-list|first-quantized) N=(\d+|\?)$"
)
_LINE_RE = re.compile(r"^\(([01,]+)(?:\|([01]+))?\)\s+(\S+)$")


def format_amplitude(z: complex) -> str:
    im = z.imag
    sign = "-" if (im < 0 or (im == 0 and math.copysign(1.0, im) < 0)) else "+"
    return f"{z.real!r}{sign}{abs(im)!r}i"


def parse_amplitude(tok: str) -> complex:
    if not tok.endswith("i"):
        raise MalformedComponent(f"amplitude must end in 'i': {tok!r}")
    body = tok[:-1]
    for k in range(len(body) - 1, 0, -1):
        if body[k] in "+-" and body[k - 1] not in "eE":
            try:
                return complex(float(body[:k]), float(body[k:]))
            except ValueError as exc:
                raise MalformedComponent(f"bad amplitude {tok!r}") from exc
    raise MalformedComponent(f"amplitude needs a signed imaginary part: {tok!r}")


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
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
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
    check_dense(layout.total_qubits)  # before any line is read
    comps = {}  # key -> amplitude
    for ln in lines[1:]:
        cm = _LINE_RE.match(ln)
        if not cm:
            raise MalformedComponent(f"bad component line: {ln!r}")
        regs = cm.group(1).split(",")
        if len(regs) != n_reg or any(len(r) != b for r in regs):
            raise MalformedComponent(f"expected {n_reg} registers of {b} bits: {ln!r}")
        anc_bits = cm.group(2) or ""
        if len(anc_bits) != n_anc:
            raise MalformedComponent(f"expected {n_anc} ancilla bits: {ln!r}")
        values = tuple(int(r, 2) for r in regs)
        anc = int(anc_bits, 2) if anc_bits else 0
        k = layout.basis_index(values, anc)
        if k in comps:
            raise MalformedComponent(f"component listed twice: {ln!r}")
        comps[k] = parse_amplitude(cm.group(3))
    return EncodedState.from_components(list(comps), list(comps.values()), discipline, layout, N)
