"""Line-by-line state reader: the reference ``stateio.read_state`` is pinned against.

This is the reader ``stateio`` ran before it parsed a file in array passes:
one regex match per component line, ``int(r, 2)`` per register, one
``basis_index`` call per line, the character scan of ``parse_amplitude``
per amplitude and one dict insert per component. Valid files must read to
the same keys and amplitude bytes, and malformed ones must raise the same
exception type with the same message.
"""

from __future__ import annotations

import cmath
import re

import numpy as np

from fermiconv.circuits import build_layout
from fermiconv.encodings import SORTED_LIST, EncodedState
from fermiconv.errors import BadParam, MalformedComponent

_HEADER_RE = re.compile(
    r"^STATE M=(\d+) NREG=(\d+) B=(\d+) NANC=(\d+) "
    r"DISCIPLINE=(sorted-list|first-quantized) N=(\d+|\?)$"
)
_LINE_RE = re.compile(r"^\(([01,]+)(?:\|([01]+))?\)\s+(\S+)$")


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
    if N is not None and (N > n_reg if discipline == SORTED_LIST else N != n_reg):
        raise BadParam(f"{discipline} header N={N} does not fit NREG={n_reg}: {lines[0]!r}")
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
        z = parse_amplitude(cm.group(3))
        if not cmath.isfinite(z):
            raise MalformedComponent(f"non-finite amplitude: {ln!r}")
        comps[k] = z
    keys = np.fromiter(comps, dtype=np.int64, count=len(comps))
    if N is not None and discipline == SORTED_LIST:
        filled = np.count_nonzero(layout.decode(keys) != layout.sentinel, axis=1)
        bad = np.flatnonzero(filled != N)
        if len(bad):  # comps keeps line order
            raise MalformedComponent(f"expected {N} filled registers: {lines[1 + bad[0]]!r}")
    return EncodedState.from_components(keys, list(comps.values()), discipline, layout, N)
