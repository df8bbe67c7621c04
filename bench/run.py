"""fermiconv benchmark: seeded closed-loop workloads checked against the Fock oracle.

Run from the repository root:

    python3 bench/run.py --workload convert --seed 1 --seconds 25 --trace 0

One client runs one workload's cycle of operation kinds in a closed loop:
each operation starts when the previous one has returned and been checked.
Inputs come only from --seed. The run measures whole cycles until --seconds
have passed and at least MIN_SAMPLES operations are in, so the 90th
percentile always has ten samples beyond it and per-op gate counts repeat
exactly.

Set-up is done SETUP_REPEATS times with the same seed: a warm-up pass over
every operation kind. The passes must reproduce each other's cost records
exactly, and setup_s is the import time plus their median.

--trace 0 prints the end-to-end metrics. --trace 1 runs half the time
untraced and half traced (see tracing.py) and prints the per-layer metrics,
including trace.overhead_ratio, the untraced over the traced throughput.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. Failed operations (oracle mismatch or any exception)
are counted, with their tracebacks on stderr.
"""

from __future__ import annotations

import os

# One client, so one BLAS thread: numpy links a threaded OpenBLAS (built for
# up to 64 threads) that would otherwise start one thread per core. Must be
# set before numpy is imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import hashlib
import json
import math
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

from tracing import LAYERS, Tracer

SRC = Path(__file__).resolve().parent.parent / "src"
# self-time buckets: the program's modules, the benchmark's own work, and
# the tracer's counting
BUCKETS = (*LAYERS, "bench", "trace")

MIN_SAMPLES = 100  # the 90th percentile needs ten samples beyond it
SETUP_REPEATS = 5  # the first pass is cold; a median of five is steady

_SELF = "ms/op"
PER_LAYER = (
    *((f"{bucket}.self_ms", _SELF) for bucket in BUCKETS),
    ("circuits.sparse_action.self_ms", _SELF),
    ("circuits.sparse_action.components_out", "components/op"),
    ("circuits.apply_circuit.self_ms", _SELF),
    ("circuits.apply_circuit.bytes_computed", "B/op"),
    ("circuits.count_gates.self_ms", _SELF),
    ("comparators.sorting_network_circuit.self_ms", _SELF),
    ("comparators.gates_built", "gates/op"),
    ("encodings.validate.self_ms", _SELF),
    ("encodings.validate.components", "components/op"),
    ("encodings.to_fock.self_ms", _SELF),
    ("conversion.first_to_second.self_ms", _SELF),
    ("conversion.second_to_first.self_ms", _SELF),
    ("conversion.second_to_first.attempts", "attempts/call"),
    ("conversion.second_to_first.success_probability", "ratio"),
    ("conversion.tensor_product_merge.self_ms", _SELF),
    ("conversion.tensor_product_merge.records_discarded_ratio", "ratio"),
    ("majorana.apply_ladder.self_ms", _SELF),
    ("majorana.apply_ladder.calls", "calls/op"),
    ("basis.apply_register_transform.self_ms", _SELF),
    ("fci.dense_matrix.self_ms", _SELF),
    ("fci.dense_matrix.calls", "calls/ham"),
    ("fci.k_rdm.self_ms", _SELF),
    ("fci.k_rdm.calls", "calls/op"),
    ("fci.rotate_determinants.self_ms", _SELF),
    ("fci.sector_eigensystem.self_ms", _SELF),
    ("fci.apply_ladder_fock.self_ms", _SELF),
    ("report.conversion_count_grid.self_ms", _SELF),
    ("report.fit_scaling.self_ms", _SELF),
    ("stateio.write_state.self_ms", _SELF),
    ("stateio.read_state.self_ms", _SELF),
    ("toffoli_per_op", "gates/op"),
    ("cnot_per_op", "gates/op"),
    ("trace.op_ms", _SELF),
    ("trace.overhead_ratio", "ratio"),
)


class Loop:
    """Outcome of running operations: latencies, cost records, failures."""

    def __init__(self):
        self.latencies: list[float] = []
        self.records: list = []
        self.failed = 0
        self.elapsed = 0.0

    def ops_per_s(self):
        return len(self.records) / self.elapsed


def run_ops(ops, ctx, seed, stream, seconds=0.0, min_ops=0, tracer=None):
    """Run whole passes over ops until seconds and min_ops are both reached.

    Operation i draws its inputs from default_rng([seed, stream, i]) and its
    retry draws from default_rng([seed, stream, i, 1]), so the same seed
    gives the same operations whatever happened before them.
    """
    loop = Loop()
    i = 0
    t_start = perf_counter()
    while True:
        for op in ops:
            rng = np.random.default_rng([seed, stream, i])
            retry_rng = np.random.default_rng([seed, stream, i, 1])
            t0 = perf_counter()
            try:
                if tracer is None:
                    record = op.run(ctx, rng, retry_rng)
                else:
                    tracer.op = i
                    with tracer.span("bench"):
                        record = op.run(ctx, rng, retry_rng)
            except Exception:  # a failed operation is a result, not a crash
                loop.failed += 1
                record = None
                print(f"op {i} ({op.name}) failed:", file=sys.stderr)
                traceback.print_exc(file=sys.stderr)
            loop.latencies.append(perf_counter() - t0)
            loop.records.append((op.name, record))
            i += 1
        if perf_counter() - t_start >= seconds and len(loop.latencies) >= min_ops:
            break
    loop.elapsed = perf_counter() - t_start
    return loop


def percentile(values, q):
    """Nearest-rank percentile: the smallest value with q of the samples at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def gate_signature(record):
    """The parts of a cost record fixed by the operation kind's sizes."""
    if record is None:
        return None
    return tuple(
        (c["fn"], c["toffoli_equiv"], c["cnot"], c["single_qubit"],
         c["register_unitary_dim_sum"], c.get("record_ancillas"))
        for c in record["calls"]
    )


def digest(records):
    return hashlib.sha256(json.dumps(records, sort_keys=True).encode()).hexdigest()[:16]


def setup(cycle, seed, workloads):
    """Warm-up passes over every kind; returns (median seconds, Loop, mismatches)."""
    kinds = workloads.warmup_kinds(cycle)
    times, first, mismatches = [], None, 0
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        loop = run_ops(kinds, workloads.Context(), seed, stream=1)
        times.append(perf_counter() - t0)
        if first is None:
            first = loop
        elif loop.records != first.records:
            mismatches += 1
            print("same-seed warm-up passes disagree on cost records", file=sys.stderr)
    print(f"warm-up cost record {digest(first.records)} ({len(first.records)} ops)", file=sys.stderr)
    return statistics.median(times), first, mismatches


def check_counts(loop, reference):
    """Every occurrence of a kind must book the warm-up's gate counts."""
    want = {name: gate_signature(rec) for name, rec in reference.records}
    bad = sum(
        1 for name, rec in loop.records
        if rec is not None and want.get(name) is not None and gate_signature(rec) != want[name]
    )
    if bad:
        print(f"{bad} operations booked gate counts unlike their kind's warm-up", file=sys.stderr)
    return bad


def counts_per_op(loop):
    tof = cn = 0
    for _, rec in loop.records:
        if rec is not None:
            tof += sum(c["toffoli_equiv"] for c in rec["calls"])
            cn += sum(c["cnot"] for c in rec["calls"])
    n = len(loop.records)
    return tof / n, cn / n


def layer_metrics(tracer, loop, ctx, untraced_ops_per_s):
    n = len(loop.records)
    self_s = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    out = {}
    for bucket in BUCKETS:
        total = sum(v for k, v in self_s.items() if k.split(".")[0] == bucket)
        out[f"{bucket}.self_ms"] = 1e3 * total / n
    for name, unit in PER_LAYER:
        if name.endswith(".self_ms") and name.count(".") == 2:
            out[name] = 1e3 * self_s.get(name[: -len(".self_ms")], 0.0) / n
    for name in ("circuits.sparse_action.components_out", "circuits.apply_circuit.bytes_computed",
                 "comparators.gates_built", "encodings.validate.components"):
        out[name] = counts[name] / n
    sl2fq_calls = calls["conversion.second_to_first"]
    attempts = counts["conversion.second_to_first.attempts"]
    out["conversion.second_to_first.attempts"] = attempts / sl2fq_calls if sl2fq_calls else 0.0
    out["conversion.second_to_first.success_probability"] = sl2fq_calls / attempts if attempts else 0.0
    merges = calls["conversion.tensor_product_merge"]
    discarded = counts["conversion.tensor_product_merge.records_discarded"]
    out["conversion.tensor_product_merge.records_discarded_ratio"] = discarded / merges if merges else 0.0
    out["majorana.apply_ladder.calls"] = calls["majorana.apply_ladder"] / n
    out["fci.dense_matrix.calls"] = calls["fci.dense_matrix"] / ctx.hamiltonians if ctx.hamiltonians else 0.0
    out["fci.k_rdm.calls"] = calls["fci.k_rdm"] / n
    out["toffoli_per_op"], out["cnot_per_op"] = counts_per_op(loop)
    # the self times above, bench and trace included, add up to this
    out["trace.op_ms"] = 1e3 * sum(loop.latencies) / n
    out["trace.overhead_ratio"] = untraced_ops_per_s / loop.ops_per_s()
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "fermiconv" / "__init__.py").is_file():
        print(f"no fermiconv sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import workloads  # imports fermiconv
    import_s = perf_counter() - t0

    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; have {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    cycle = workloads.WORKLOADS[args.workload]

    setup_s, warm, mismatches = setup(cycle, args.seed, workloads)
    failed = warm.failed + mismatches
    attempted = len(warm.records)

    if args.trace == 0:
        ctx = workloads.Context()
        loop = run_ops(cycle, ctx, args.seed, stream=0, seconds=args.seconds, min_ops=MIN_SAMPLES)
        lat_ms = [1e3 * t for t in loop.latencies]
        metrics = {
            "ops_per_s": (loop.ops_per_s(), "1/s"),
            "latency_p50_ms": (percentile(lat_ms, 0.5), "ms"),
            "latency_p90_ms": (percentile(lat_ms, 0.9), "ms"),
            "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "setup_s": (import_s + setup_s, "s"),
        }
        tof, cn = counts_per_op(loop)
        print(f"{len(lat_ms)} samples in {loop.elapsed:.2f} s; toffoli_per_op {tof!r} "
              f"cnot_per_op {cn!r}; first cycle cost record {digest(loop.records[:len(cycle)])}",
              file=sys.stderr)
    else:
        half = args.seconds / 2
        plain = run_ops(cycle, workloads.Context(), args.seed, stream=0, seconds=half)
        ctx = workloads.Context()
        tracer = Tracer()
        tracer.install()
        try:
            loop = run_ops(cycle, ctx, args.seed, stream=0, seconds=half, tracer=tracer)
        finally:
            tracer.uninstall()
        failed += plain.failed
        attempted += len(plain.records)
        values = layer_metrics(tracer, loop, ctx, plain.ops_per_s())
        metrics = {name: (values[name], unit) for name, unit in PER_LAYER}

    failed += loop.failed + check_counts(loop, warm)
    attempted += len(loop.records)
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
