"""Asymptotic cost bookkeeping: transcribed complexity rows, scaling fits
against instrumented gate counts, and CSV/text report emission.

Each CostFormula's expression (big-O constants fixed to one, logs base 2
unless the source writes ln) is what gets evaluated, compiled on first use;
the verbatim source expression it transcribes goes into the report
unchanged. Values are meaningful only as ratios and crossovers.
"""

from __future__ import annotations

import ast
import csv
import io
import math
from dataclasses import dataclass
from functools import cache
from typing import Callable

import numpy as np

from .conversion import fq2sl_gate_count
from .errors import BadParam, DegenerateGrid, SinkUnwritable, UnboundParameter

NOTE = (
    "big-O constants are fixed to 1; values support only ratios and "
    "crossovers, not absolute predictions"
)

_FUNCTIONS = {"log2": math.log2, "ln": math.log, "sqrt": math.sqrt}
_OPERATORS = (ast.Add, ast.Sub, ast.Mult, ast.Div, ast.Pow)


@cache
def _compile(expression: str, parameters: tuple[str, ...]) -> Callable[..., float]:
    """The function of `parameters`, in that order, that `expression` writes.

    `^` reads as a power. Only numbers, the parameters, + - * / ^ and
    one-argument calls to log2, ln and sqrt are admitted, and the names the
    expression uses must be exactly the parameters; anything else is BadParam.
    """
    source = expression.replace("^", "**")
    try:
        tree = ast.parse(source, mode="eval")
    except SyntaxError as e:
        raise BadParam(f"cannot parse {expression!r}: {e.msg}") from None

    def names(node) -> set[str]:
        if isinstance(node, ast.BinOp) and isinstance(node.op, _OPERATORS):
            return names(node.left) | names(node.right)
        if isinstance(node, ast.Name):
            return {node.id}
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id in _FUNCTIONS and len(node.args) == 1 and not node.keywords):
            return names(node.args[0])
        if isinstance(node, ast.Constant) and type(node.value) in (int, float):
            return set()
        raise BadParam(f"{expression!r}: {ast.unparse(node)!r} is not admitted")

    used = sorted(names(tree.body))
    if used != sorted(parameters):
        raise BadParam(f"{expression!r} uses {used}, declares {list(parameters)}")
    namespace = {"__builtins__": {}, **_FUNCTIONS}
    exec(f"def fn({', '.join(parameters)}):\n    return {source}", namespace)
    return namespace["fn"]


@dataclass(frozen=True)
class CostFormula:
    """One complexity row: its expression plus the verbatim source it transcribes."""

    name: str
    group: str
    parameters: tuple[str, ...]
    expression: str
    citation: str


def evaluate_formula(f: CostFormula, bindings: dict) -> float:
    """Evaluate with unit constants; every parameter must be bound positive."""
    missing = [p for p in f.parameters if p not in bindings]
    if missing:
        raise UnboundParameter(f"{f.name} needs {', '.join(missing)}")
    vals = []
    for p in f.parameters:
        v = float(bindings[p])
        if v <= 0:
            raise BadParam(f"{f.name}: parameter {p} must be positive, got {v}")
        vals.append(v)
    out = float(_compile(f.expression, f.parameters)(*vals))
    if not math.isfinite(out) or out < 0:
        raise BadParam(f"{f.name} evaluated to {out}")
    return out


def _catalog() -> tuple[CostFormula, ...]:
    F = CostFormula
    return (
        # ground state, whole molecular system
        F("first-quantized simulation", "ground-state-whole",
          ("N", "M_PW", "eps_QPE"),
          "N^(4/3) * M_PW^(2/3) / eps_QPE",
          r"$\mathcal{O}(N^{4/3}M_{PW}^{2/3}/\varepsilon_{\text{QPE}})$"),
        F("first-quantized measurement", "ground-state-whole",
          ("k", "N", "M_PW", "eps_RDM"),
          "k^k * N^k * log2(M_PW) / eps_RDM",
          r"$\mathcal{O}(k^kN^k\log M_{PW}/\varepsilon_{\text{RDM}})$"),
        F("second-quantized simulation", "ground-state-whole",
          ("M_MO", "eps_QPE"),
          "M_MO^2.1 / eps_QPE",
          r"$\mathcal{O}(M_{MO}^{2.1}/\varepsilon_{\text{QPE}})$"),
        F("second-quantized measurement", "ground-state-whole",
          ("M_MO", "k", "eps_RDM"),
          "M_MO^k / eps_RDM",
          r"$\mathcal{O}(M_{MO}^k/\varepsilon_{\text{RDM}})$"),
        F("hybrid simulation", "ground-state-whole",
          ("M_MO", "eps_QPE"),
          "M_MO^2.1 / eps_QPE",
          r"$\mathcal{O}(M_{MO}^{2.1}/\varepsilon_{\text{QPE}})$"),
        F("hybrid measurement", "ground-state-whole",
          ("N", "M_MO", "k", "eps_RDM"),
          "N*log2(N)*log2(M_MO) + k^k * N^k * log2(M_MO) / eps_RDM",
          r"$\mathcal{O}(N\log N\log M_{MO} + k^kN^k\log M_{MO}/\varepsilon_{\text{RDM}})$"),
        # ground state, defect or adsorbed periodic system
        F("first-quantized simulation", "ground-state-defect",
          ("N", "M_PW", "eps_QPE"),
          "N^(4/3) * M_PW^(2/3) / eps_QPE",
          r"$\mathcal{O}(N^{4/3}M_{PW}^{2/3}/\varepsilon_{\text{QPE}})$"),
        F("first-quantized measurement", "ground-state-defect",
          ("k", "N", "M_PW", "eps_RDM"),
          "k^k * N^k * log2(M_PW) / eps_RDM",
          r"$\mathcal{O}(k^kN^k\log M_{PW}/\varepsilon_{\text{RDM}})$"),
        F("second-quantized simulation", "ground-state-defect",
          ("M_MO", "eps_QPE"),
          "M_MO^2.1 / eps_QPE",
          r"$\mathcal{O}(M_{MO}^{2.1}/\varepsilon_{\text{QPE}})$"),
        F("second-quantized measurement", "ground-state-defect",
          ("Mcal", "eps_RDM"),
          "sqrt(Mcal) / eps_RDM",
          r"$\mathcal{O}(\sqrt{\mathcal{M}}/\varepsilon_{\text{RDM}})$"),
        F("hybrid simulation", "ground-state-defect",
          ("N", "M_PW", "eps_QPE"),
          "N^(4/3) * M_PW^(2/3) / eps_QPE",
          r"$\mathcal{O}(N^{4/3}M_{PW}^{2/3}/\varepsilon_{\text{QPE}})$"),
        F("hybrid measurement", "ground-state-defect",
          ("N", "Mcal", "M_PW", "eps_RDM"),
          "N*Mcal*M_PW + sqrt(Mcal) / eps_RDM",
          r"$\mathcal{O}(N\mathcal{M}M_{PW} + \sqrt{\mathcal{M}}/\varepsilon_{\text{RDM}})$"),
        # excited states via resolvent overlaps
        F("second-quantized simulation", "excited-state",
          ("M_PW",),
          "M_PW^(7/3)",
          r"$\mathcal{O}(M_{PW}^{7/3})$"),
        F("second-quantized measurement", "excited-state",
          ("eps_HAD",),
          "1 / eps_HAD^2",
          r"$\mathcal{O}(1/\varepsilon_{\text{HAD}}^2)$"),
        F("hybrid simulation", "excited-state",
          ("N", "M_PW"),
          "N * M_PW^(2/3)",
          r"$\mathcal{O}(NM_{PW}^{2/3})$"),
        F("hybrid measurement", "excited-state",
          ("eps_HAD",),
          "1 / eps_HAD^2",
          r"$\mathcal{O}(1/\varepsilon_{\text{HAD}}^2)$"),
        # ab initio molecular dynamics, summary rows
        F("first-quantized classical", "aimd-summary",
          ("M_PW",),
          "M_PW^4",
          r"$\mathcal{O}(M_{\text{PW}}^4)$"),
        F("first-quantized quantum", "aimd-summary",
          ("N", "M_PW", "eps_QPE", "eps_RDM"),
          "N^(4/3)*M_PW^(2/3)/eps_QPE + N^2*log2(M_PW)/eps_RDM^2",
          r"$\mathcal{O}(N^{4/3}M_{PW}^{2/3}/\varepsilon_{\text{QPE}} + "
          r"N^2\log M_{PW}/\varepsilon_{\text{RDM}}^2)$"),
        F("second-quantized classical", "aimd-summary",
          ("M_MO",),
          "M_MO^6",
          r"$\mathcal{O}(M_{\text{MO}}^6)$"),
        F("second-quantized quantum", "aimd-summary",
          ("M_MO", "eps_QPE", "eps_RDM"),
          "M_MO^2.1/eps_QPE + M_MO^2/eps_RDM",
          r"$\mathcal{O}(M_{MO}^{2.1}/\varepsilon_{\text{QPE}} + M_{MO}^2/\varepsilon_{\text{RDM}})$"),
        F("hybrid classical", "aimd-summary",
          ("M_MO",),
          "M_MO^4",
          r"$\mathcal{O}(M_{MO}^4)$"),
        F("hybrid quantum", "aimd-summary",
          ("N", "M_PW", "M_MO", "eps_QPE", "eps_RDM"),
          "N^(4/3)*M_PW^(2/3)/eps_QPE + N*M_MO*M_PW + M_MO^2/eps_RDM",
          r"$\mathcal{O}(N^{4/3}M_{PW}^{2/3}/\varepsilon_{\text{QPE}} + "
          r"NM_{MO}M_{PW} + M_{MO}^2/\varepsilon_{\text{RDM}})$"),
        # ab initio molecular dynamics, per-step workflow rows
        F("ground-state preparation, orbital basis", "aimd-workflow",
          ("M_MO", "a"),
          "M_MO^2.1 / a",
          r"$\mathcal{O}(M_{MO}^{2.1}/a)$"),
        F("ground-state preparation, plane-wave basis", "aimd-workflow",
          ("N", "M_PW", "a"),
          "N^(8/3)*M_PW^(1/3)/a + N^(4/3)*M_PW^(2/3)/a",
          r"$\mathcal{O}(N^{8/3}M_{PW}^{1/3}/a+N^{4/3}M_{PW}^{2/3}/a)$"),
        F("forces, orbital basis", "aimd-workflow",
          ("M_MO", "eps_RDM"),
          "M_MO^2 / eps_RDM",
          r"$\mathcal{O}(M_{MO}^2/\varepsilon_{\text{RDM}})$"),
        F("forces, plane-wave basis", "aimd-workflow",
          ("N", "M_PW", "eps_RDM"),
          "N^2 * log2(M_PW) / eps_RDM^2",
          r"$\mathcal{O}(N^2\log M_{PW}/\varepsilon_{\text{RDM}}^2)$"),
        F("forces, hybrid basis", "aimd-workflow",
          ("N", "M_MO", "M_PW", "eps_RDM"),
          "N*M_MO*M_PW + N*log2(N)*log2(M_MO) + M_MO^2/eps_RDM",
          r"$\mathcal{O}(NM_{MO}M_{PW})$ + $\mathcal{O}(N\log N\log M_{MO})$ + "
          r"$\mathcal{O}(M_{MO}^2/\varepsilon_{\text{RDM}})$"),
        F("forces classical, orbital basis", "aimd-workflow",
          ("N_ion", "M_MO"),
          "N_ion * M_MO^4",
          r"$\mathcal{O}(N_{\text{ion}}M_{MO}^4)$"),
        F("forces classical, plane-wave basis", "aimd-workflow",
          ("N_ion", "M_PW"),
          "N_ion * M_PW^3",
          r"$\mathcal{O}(N_{\text{ion}}M_{PW}^3)$"),
        F("ion simulation", "aimd-workflow",
          ("N_ion",),
          "N_ion^2",
          r"$\mathcal{O}(N^2_{\text{ion}})$"),
        F("Hamiltonian update classical, orbital basis", "aimd-workflow",
          ("M_MO",),
          "M_MO^6",
          r"$\mathcal{O}(M_{MO}^6)$"),
        F("Hamiltonian update quantum, orbital basis", "aimd-workflow",
          ("M_MO",),
          "M_MO^2",
          r"$\mathcal{O}(M_{MO}^2)$"),
        # resolvent block-encoding costs
        F("preconditioned inversion, first-quantized", "resolvent-inversion",
          ("N", "M", "Omega", "eta", "eps", "delta"),
          "N^6 * M * ln(1/delta) / (Omega * eta^2 * eps)",
          r"$\mathcal{O}(N^6M\ln(\delta^{-1})/\Omega\eta^2\varepsilon)$"),
        F("preconditioned inversion, second-quantized", "resolvent-inversion",
          ("M", "Omega", "eta", "eps", "delta"),
          "M^5 * ln(1/delta) / (Omega^2 * eta^2 * eps)",
          r"$\mathcal{O}(M^5\ln(\delta^{-1})/\Omega^2\eta^2\varepsilon)$"),
        F("plain inversion, first-quantized", "resolvent-inversion",
          ("N", "M", "Omega", "eta", "eps"),
          "N*M^(2/3)/(Omega^(2/3)*eta^2*eps) + N^2*M^(1/3)/(Omega^(1/3)*eta^2*eps)",
          r"$\mathcal{O}(NM^{2/3}/\Omega^{2/3}\eta^2\varepsilon + "
          r"N^2M^{1/3}/\Omega^{1/3}\eta^2\varepsilon)$"),
        F("plain inversion, second-quantized", "resolvent-inversion",
          ("M", "Omega", "eta", "eps"),
          "M^(7/3) / (Omega^(2/3) * eta^2 * eps)",
          r"$\mathcal{O}(M^{7/3}/\Omega^{2/3}\eta^2\varepsilon)$"),
    )


FORMULAS: tuple[CostFormula, ...] = _catalog()


# exponent templates: count ~ c * model(N, M)
MODEL_SORT = "N*log2(N)^2*log2(M)"
MODEL_LINLOG = "N*log2(N)*log2(M)"


@dataclass(frozen=True)
class ScalingFit:
    model: str
    coefficient: float
    r_squared: float
    samples: tuple[tuple[int, int, int], ...]


def fit_scaling(samples, model: str) -> ScalingFit:
    """Least-squares fit of log(count) = log(c) + log(model(N, M)), where
    model is an expression in N and M such as MODEL_SORT.

    One free parameter (the coefficient), so R^2 measures how much of the
    count variance the fixed exponents explain. Needs at least 6 points,
    each with a positive count and model value.
    """
    pts = tuple((int(n), int(m), int(c)) for n, m, c in samples)
    if len(pts) < 6:
        raise DegenerateGrid(f"{len(pts)} grid points < 6")
    fn = _compile(model, ("N", "M"))
    values = [fn(n, m) for n, m, _ in pts]
    for (n, m, c), v in zip(pts, values):
        if c <= 0 or not v > 0:
            raise DegenerateGrid(f"grid point N={n} M={m}: count {c} and model {v:g} must be > 0")
    logs = np.array([math.log(c) for _, _, c in pts])
    logm = np.array([math.log(v) for v in values])
    logc = float(np.mean(logs - logm))
    ss_res = float(np.sum((logs - logm - logc) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    if ss_tot == 0.0:
        r2 = 1.0 if ss_res < 1e-18 else 0.0
    else:
        r2 = min(1.0, max(0.0, 1.0 - ss_res / ss_tot))
    return ScalingFit(model, math.exp(logc), r2, pts)


def conversion_count_grid(Ns=(2, 4, 8), Ms=(8, 16, 32, 64)):
    """(N, M, count) of the forward conversion circuit on a counting-only grid.

    The count is the two-qubit-and-up cost (Toffoli equivalents plus CNOTs):
    single-qubit framing gates (comparator X wraps) carry a different
    register-width profile and are excluded from the scaling samples, as in
    cost models where Clifford single-qubit gates are free.
    """
    out = []
    for n in Ns:
        for m in Ms:
            gc = fq2sl_gate_count(m, n)
            out.append((n, m, gc.toffoli_equiv + gc.cnot))
    return out


def _param_column(f: CostFormula, bindings: dict) -> str:
    return " ".join(f"{p}={bindings[p]:g}" for p in f.parameters)


def emit_report(rows, fits, sink) -> str:
    """Write the CSV (columns name, citation, parameters, value) and return
    a human-readable text table.

    rows: iterable of (CostFormula, bindings). fits: iterable of ScalingFit,
    appended after the formula rows. sink: the CSV's path.
    The text header restates that constants are unit; the CSV holds only
    the header line plus one row per formula or fit.
    """
    rows = list(rows)
    fits = list(fits)
    records = []
    for f, bindings in rows:
        records.append(
            (f"{f.group}: {f.name}", f.citation, _param_column(f, bindings),
             repr(evaluate_formula(f, bindings)))
        )
    for fit in fits:
        grid = ";".join(f"{n},{m},{c}" for n, m, c in fit.samples)
        records.append(
            (f"fit: {fit.model}", "measured gate counts", grid,
             f"coefficient={fit.coefficient!r} R2={fit.r_squared!r}")
        )
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(("name", "citation", "parameters", "value"))
    writer.writerows(records)
    text = buf.getvalue()
    try:
        with open(sink, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as e:
        raise SinkUnwritable(str(e)) from e

    lines = [f"cost report ({NOTE})", ""]
    width = max((len(r[0]) for r in records), default=4)
    for name, citation, params, value in records:
        lines.append(f"{name:<{width}}  {value:>24}  {params}")
        lines.append(f"{'':<{width}}  source: {citation}")
    return "\n".join(lines) + "\n"
