"""Per-layer spans for the benchmark's traced run.

The tracer replaces chosen public functions of each fermiconv module with
wrappers that record a span (name, parent span, operation, start, end). It
patches the name everywhere the package holds it: on its home module, so
calls inside the module are seen, and on every module that imported it, so
cross-module calls are seen too. Nothing in the package itself changes;
``uninstall`` puts every original back.

A span's self time is its duration minus the time its child spans cover.
The benchmark opens one root span per operation, named ``bench``, so its
self time is the benchmark's own work (input generation and checks outside
any program call). Counting work done by the wrappers after a call runs in
a child span named ``trace``, so it is charged to neither side.
"""

from __future__ import annotations

import functools
import importlib
import sys
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

import numpy as np

LAYERS = (
    "circuits", "comparators", "encodings", "conversion", "majorana",
    "basis", "fci", "report", "stateio",
)

# public functions traced per module; anything else is charged to its caller
TRACED = {
    "circuits": ("sparse_action", "apply_circuit", "count_gates"),
    "comparators": (
        "sorting_network_circuit", "compare_swap_gates", "compute_greater_gates",
        "equality_flag_gates", "bubble_gates", "swap_values_circuit",
    ),
    "encodings": ("validate", "sorted_list_to_fock", "first_quantized_to_fock"),
    "conversion": (
        "first_to_second", "second_to_first", "tensor_product_merge", "fq2sl_gate_count",
    ),
    "majorana": ("apply_ladder", "majorana_circuit"),
    "basis": ("apply_register_transform", "qft_register_transform"),
    "fci": (
        "creation_string", "apply_ladder_fock", "k_rdm", "rotate_determinants",
        "sector_eigensystem", "ionization_attachment_probabilities",
    ),
    "report": ("conversion_count_grid", "fit_scaling"),
    "stateio": ("write_state", "read_state"),
}

# both Fock bridges report as one span name
SPAN_NAMES = {
    "encodings.sorted_list_to_fock": "encodings.to_fock",
    "encodings.first_quantized_to_fock": "encodings.to_fock",
}


def _count_sparse(tr, args, out, parent):
    tr.counts["circuits.sparse_action.components_out"] += len(out[0])


def _count_apply(tr, args, out, parent):
    circuit = args[1]
    n = circuit.layout.total_qubits
    # dense engine: every gate sweeps the 2^n complex128 vector
    tr.counts["circuits.apply_circuit.bytes_computed"] += 16 * (1 << n) * len(circuit.gates)


def _count_gates_built(tr, args, out, parent):
    # outermost comparator builder only: nested builders' gates are in its list
    if parent is None or not parent.startswith("comparators."):
        tr.counts["comparators.gates_built"] += len(out.gates if hasattr(out, "gates") else out)


def _count_validate(tr, args, out, parent):
    amps = args[0].state.amps
    tr.counts["encodings.validate.components"] += int(np.count_nonzero(np.abs(amps) > 1e-12))


def _count_sl2fq(tr, args, out, parent):
    tr.counts["conversion.second_to_first.attempts"] += out[1].attempts


def _count_merge(tr, args, out, parent):
    tr.counts["conversion.tensor_product_merge.records_discarded"] += int(out.records_discarded)


COUNTERS = {
    "circuits.sparse_action": _count_sparse,
    "circuits.apply_circuit": _count_apply,
    "encodings.validate": _count_validate,
    "conversion.second_to_first": _count_sl2fq,
    "conversion.tensor_product_merge": _count_merge,
    **{f"comparators.{name}": _count_gates_built for name in TRACED["comparators"]},
}


class Tracer:
    """Spans kept in memory; summarized once the traced loop ends."""

    def __init__(self):
        self.spans: list[list] = []  # [name, parent index, op, start, end]
        self.stack: list[int] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op = -1
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name):
        idx = len(self.spans)
        rec = [name, self.stack[-1] if self.stack else None, self.op, 0.0, 0.0]
        self.spans.append(rec)
        self.stack.append(idx)
        rec[3] = perf_counter()
        try:
            yield
        finally:
            rec[4] = perf_counter()
            self.stack.pop()

    def _wrap(self, name, fn):
        counter = COUNTERS.get(name)
        span_name = SPAN_NAMES.get(name, name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self.spans[self.stack[-1]][0] if self.stack else None
            with self.span(span_name):
                out = fn(*args, **kwargs)
            if counter is not None:
                with self.span("trace"):
                    counter(self, args, out, parent)
            return out

        return traced

    def install(self):
        mods = [m for key, m in sys.modules.items() if key.split(".")[0] == "fermiconv"]
        for layer, names in TRACED.items():
            home = importlib.import_module(f"fermiconv.{layer}")
            for fname in names:
                orig = getattr(home, fname)
                wrapped = self._wrap(f"{layer}.{fname}", orig)
                for m in mods:
                    if getattr(m, fname, None) is orig:
                        self._undo.append((m, fname, orig))
                        setattr(m, fname, wrapped)
        fci = importlib.import_module("fermiconv.fci")
        orig = fci.ToyHamiltonian.dense_matrix
        self._undo.append((fci.ToyHamiltonian, "dense_matrix", orig))
        fci.ToyHamiltonian.dense_matrix = self._wrap("fci.dense_matrix", orig)

    def uninstall(self):
        for obj, name, orig in reversed(self._undo):
            setattr(obj, name, orig)
        self._undo.clear()

    def self_times(self):
        """Seconds of self time per span name, summed over all spans."""
        child = [0.0] * len(self.spans)
        for name, parent, _, t0, t1 in self.spans:
            if parent is not None:
                child[parent] += t1 - t0
        out: dict[str, float] = defaultdict(float)
        for i, (name, _, _, t0, t1) in enumerate(self.spans):
            out[name] += (t1 - t0) - child[i]
        return out

    def calls(self):
        out: dict[str, int] = defaultdict(int)
        for name, *_ in self.spans:
            out[name] += 1
        return out
