#!/usr/bin/env python3
"""tsracks benchmark.

    python3 perfbench/run.py --workload count-z12 --seed 1 --seconds 10 --trace 0

Runs one workload in this process, pinned to one CPU, from one
load-generating thread, checks every output against the independent
computations in ``perfbench/oracles.py`` and prints, as the last line of
standard output, one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.
With ``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same passes run once untraced and once traced and the metrics are the
per-layer ones.  The package is imported from ``src/`` of the checkout
this file sits in.  Run outputs go to ``.bench_out/``.
"""

import argparse
import gc
import importlib
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPS = 9
TAIL_BEYOND = 10  # samples beyond the reported tail percentile
TAIL_MIN_SAMPLES = 40

END_TO_END = {"ops_per_s": "op/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER = [
    "invariants.enumerate_homs.self_s", "invariants.enumerate_homs.calls",
    "invariants.labelings", "invariants.labelings_max_per_call",
    "invariants.image_subrack.self_s", "invariants.image_subrack.calls",
    "groups.subgroup_closure.self_s", "groups.subgroup_closure.calls",
    "groups.invariant_factors.self_s", "groups.invariant_factors.calls",
    "polynomials.add.self_s", "polynomials.add.calls",
    "invariants.label_sets_distinct", "invariants.labelings_per_label_set",
    "diagrams.framed_family.self_s", "diagrams.framings",
    "modules.build.self_s", "modules.build.elements",
    "modules.tsrack_iso_check.self_s", "modules.tsrack_iso_check.calls",
    "modules.s_submodule.self_s", "modules.module_isos_tried",
    "racks.find_isomorphism.self_s",
    "cli.main.self_s", "cli.cache_lookup.self_s", "cli.cache_hits",
    "cli.cache_misses", "cli.cache_store.self_s",
    "invariants.s_enhanced.self_s", "polynomials.order_compare.self_s",
    "atlas.load_corpus.self_s", "diagrams.parse_link.self_s",
    "diagrams.parse_link.calls",
    "trace.overhead_s",
]


def unit_of(name):
    if name.endswith("_s"):
        return "s"
    if name == "invariants.labelings_per_label_set":
        return "ratio"
    return "count"


def import_fresh():
    """Import tsracks anew, as a new process would."""
    for name in [m for m in sys.modules
                 if m == "tsracks" or m.startswith("tsracks.")]:
        del sys.modules[name]
    return importlib.import_module("tsracks")


def run_passes(workload, passes, tracer=None, between=None):
    """Run whole passes; returns (durations of completed operations, their
    keys, attempted, failed, check messages).  ``between(index, total)``,
    if given, is called before each operation, outside its timed region."""
    durations, keys, messages = [], [], []
    attempted = failed = 0
    for _ in range(passes):
        ops = workload.operations()
        for key, op in ops:
            if between is not None:
                between(attempted, passes * len(ops))
            attempted += 1
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            try:
                result = op()
            except Exception as exc:  # a failed operation is counted
                failed += 1
                print("operation %r failed: %r" % (key, exc), file=sys.stderr)
                continue
            finally:
                elapsed = time.perf_counter() - start
                if tracer is not None:
                    tracer.end_op()
            durations.append(elapsed)
            keys.append(key)
            message = workload.check(key, result)
            if message is not None:
                messages.append(message)
            del result
    return durations, keys, attempted, failed, messages


def tail(values):
    """Highest percentile with TAIL_BEYOND samples beyond it, or the
    median when there are fewer than TAIL_MIN_SAMPLES samples."""
    ordered = sorted(values)
    if len(ordered) < TAIL_MIN_SAMPLES:
        return statistics.median(ordered)
    return ordered[len(ordered) - TAIL_BEYOND - 1]


def src_line_count():
    total = 0
    for dirpath, _, files in os.walk(os.path.join(SRC, "tsracks")):
        for name in files:
            if name.endswith(".py"):
                with open(os.path.join(dirpath, name)) as fh:
                    total += sum(1 for _ in fh)
    return total


def layer_metrics(tracer, untraced_s, traced_s):
    self_s = tracer.self_s
    counts = tracer.counts
    out = {}
    for name in PER_LAYER:
        if name.endswith(".self_s"):
            out[name] = self_s[name[:-len(".self_s")]]
        elif name in tracer.maxima:
            out[name] = tracer.maxima[name]
        else:
            out[name] = counts[name]
    distinct = counts["invariants.label_sets_distinct"]
    out["invariants.labelings_per_label_set"] = (
        counts["invariants.image_subrack.calls"] / distinct
        if distinct else 0.0)
    out["trace.overhead_s"] = traced_s - untraced_s
    return out


def main(argv=None):
    from perfbench.workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0,
                        help="scales the number of whole passes")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One CPU: the table verb's worker threads contend for the interpreter
    # lock, and handing it between two virtual CPUs made warm `cli-table`
    # operations 2-3x slower and their spread over ten runs 0.3, against
    # about 7 ms and a few percent on one CPU.  The program gains nothing
    # from a second CPU today; a change that adds process parallelism
    # has to lift this and measure both sides again.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    workload = WORKLOADS[args.workload](ROOT, args.seed)
    passes = max(1, round(args.seconds * workload.passes_per_10s / 10))
    try:
        if args.trace:
            result, extra = traced_run(workload, passes)
        else:
            result, extra = untraced_run(workload, passes)
    finally:
        workload.close()
    extra["src_lines"] = src_line_count()
    print("src/ lines: %d" % extra["src_lines"], file=sys.stderr)
    os.makedirs(OUT, exist_ok=True)
    path = os.path.join(OUT, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump(dict(result, **extra), fh)
    print(json.dumps(result))
    return 0


def prepare(workload):
    """Oracle expectations and their self-checks; not timed."""
    workload.expect()
    workload.self_check()


def timed_setup(workload):
    gc.collect()
    start = time.perf_counter()
    workload.setup(import_fresh())
    return time.perf_counter() - start


def untraced_run(workload, passes):
    setups = [timed_setup(workload)]
    prepare(workload)

    def between(index, total):
        # The other set-ups are spread evenly over the run.  Back to back,
        # all nine fell into one stretch of the machine's speed: a run's
        # median then read 0.05 s or 0.09 s on count-z12.
        while (len(setups) < SETUP_REPS
               and index >= len(setups) * total // SETUP_REPS):
            setups.append(timed_setup(workload))

    gc.collect()
    durations, keys, attempted, failed, messages = run_passes(
        workload, passes, between=between)
    for message in messages:
        print("incorrect: %s" % message, file=sys.stderr)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    values = {
        "ops_per_s": len(durations) / sum(durations) if durations else 0.0,
        "op_p50_ms": 1000 * statistics.median(durations) if durations else 0.0,
        "op_tail_ms": 1000 * tail(durations) if durations else 0.0,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss_kb / 1024,
    }
    result = {
        "correct": not messages,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": END_TO_END[k]}
                    for k, v in values.items()},
    }
    extra = {"setups_s": setups, "durations_s": durations,
             "keys": [repr(k) for k in keys], "passes": passes,
             "incorrect": messages}
    return result, extra


def traced_run(workload, passes):
    from perfbench import tracing

    workload.setup(import_fresh())
    prepare(workload)
    durations, _, attempted, failed, messages = run_passes(workload, passes)
    untraced_s = sum(durations)

    ts = import_fresh()
    tracer = tracing.Tracer()
    tracing.install(tracer)
    workload.setup(ts)
    gc.collect()
    t_durations, keys, t_attempted, t_failed, t_messages = run_passes(
        workload, passes, tracer)
    messages += t_messages
    for message in messages:
        print("incorrect: %s" % message, file=sys.stderr)
    layer = layer_metrics(tracer, untraced_s, sum(t_durations))
    confirmations = workload.confirm(
        dict(layer, **{"bench.op_s": sum(t_durations)}),
        tracer.op_counts, keys)
    for statement, holds in confirmations:
        print("%s: %s" % ("confirmed" if holds else "NOT MET", statement),
              file=sys.stderr)
    result = {
        "correct": not messages,
        "attempted": attempted + t_attempted,
        "failed": failed + t_failed,
        "metrics": {k: {"value": layer[k], "unit": unit_of(k)}
                    for k in PER_LAYER},
    }
    extra = {"confirmations": confirmations, "passes": passes,
             "untraced_op_s": untraced_s, "traced_op_s": sum(t_durations),
             "incorrect": messages, "spans": tracer.dump()}
    return result, extra


if __name__ == "__main__":
    if not os.path.isfile(os.path.join(SRC, "tsracks", "__init__.py")):
        print("no tsracks sources under %s" % SRC, file=sys.stderr)
        sys.exit(2)
    sys.path[0:1] = [SRC, ROOT]  # in place of this file's directory
    sys.exit(main())
