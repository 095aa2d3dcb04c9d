"""odolab benchmark: seeded closed-loop workloads through the public API.

Run from the root of a source checkout:

    python3 bench/run.py --workload classify-mix --seed 1 --seconds 25 --trace 0

One client waits for each verdict before asking for the next (a closed
loop, no threads of its own).  The run repeats whole passes of its
workload until ``--seconds`` have passed and at least MIN_SAMPLES calls
are in, checks every result, and prints as its last stdout line
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones; with ``--trace 1`` the run is split into
an untraced and a traced half and the metrics are per-layer self times
and counts, each per pass.  The line before it holds the machine facts,
sample counts and the verdict digest; the same report, with per-call
timings, goes to ``bench/results/``.  The exit code is 1 when any call
fails or any check does not hold, 2 when the checkout has no odolab
sources.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

# BLAS threads are fixed before numpy loads.  One thread: on a shared
# 2-CPU machine a second one made the small dense SVDs slower and noisier.
NPROC = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
RESULTS = os.path.join(HERE, "results")

MIN_SAMPLES = 110  # p90 then has at least ten samples beyond it
SETUP_PROBES = 7

END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "1/s", "op_p50_ms": "ms",
                    "op_p90_ms": "ms", "peak_rss_mb": "MB"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("classify-mix", "deep-build", "chain-deep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return parser.parse_args(argv)


# ---------------------------------------------------------------------------
# set-up


def make_ready(workload, seed, workdir):
    """Import odolab, generate the inputs and pay the lazy scipy.sparse
    import behind FockOperator.to_csr: what a fresh interpreter needs
    before its first verdict."""
    import workloads
    from odolab import build_wl, gallery

    ops = workloads.build(workload, seed, workdir)
    build_wl(gallery.shift_symbol(1), 1).to_csr()
    return ops


def setup_probe(args):
    workdir = os.path.join(RESULTS, "probe-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        make_ready(args.workload, args.seed, workdir)
        print("ready", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


class SetupTimer:
    """Fresh interpreter to ready, timed by this process.  Probes run between
    passes, outside the timed loop, so they sample the same stretch of
    machine time as the workload; the first probe only warms the file cache
    and byte-code and is dropped."""

    def __init__(self, args):
        self.cmd = [sys.executable, os.path.abspath(__file__), "--setup-probe",
                    "--workload", args.workload, "--seed", str(args.seed), "--seconds", "0"]
        self.times = []
        self.probe()
        self.times.clear()

    def probe(self):
        start = time.perf_counter()
        with subprocess.Popen(self.cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            ready = time.perf_counter() - start
            proc.stdout.read()
            if proc.wait() != 0 or line.strip() != "ready":
                raise RuntimeError("set-up probe failed")
        self.times.append(ready)

    def finish(self):
        while len(self.times) < SETUP_PROBES:
            self.probe()
        return self.times


# ---------------------------------------------------------------------------
# the closed loop


class Loop:
    """Runs whole passes, checks every call, keeps latencies and verdicts."""

    def __init__(self, ops, certificate_error, tracer=None):
        self.ops = ops
        self.certificate_error = certificate_error
        self.tracer = tracer
        self.reference = None  # verdicts of the first pass
        self.latencies = []
        self.per_op = [[] for _ in ops]
        self.attempted = 0
        self.failed = 0
        self.refusals = 0
        self.passes = 0
        self.elapsed = 0.0
        self.pass_seconds = []

    def call(self, op):
        """(seconds, verdict, errors, refused) of one call."""
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = op.run()
            else:
                self.tracer.op_id = self.attempted
                result = self.tracer.call("bench.op", op.run, (), {})
        except self.certificate_error as exc:
            return time.perf_counter() - start, ("refused", type(exc).__name__), [], True
        except Exception as exc:  # any other exception is a failed call
            return time.perf_counter() - start, ("error", type(exc).__name__), [repr(exc)], False
        seconds = time.perf_counter() - start
        return seconds, op.verdict(result), op.check(result), False

    def one_pass(self):
        verdicts = []
        for op, times in zip(self.ops, self.per_op):
            seconds, verdict, errors, refused = self.call(op)
            self.attempted += 1
            self.refusals += refused
            self.latencies.append(seconds)
            times.append(seconds)
            if errors:
                self.failed += 1
                for err in errors[:3]:
                    print("FAIL %s n=%d d=%d depth=%d: %s" % (op.kind, op.n, op.d, op.depth, err),
                          file=sys.stderr)
            verdicts.append(verdict)
        if self.reference is None:
            self.reference = verdicts
        elif verdicts != self.reference:
            self.failed += 1
            print("FAIL verdicts differ between passes of one run", file=sys.stderr)
        self.passes += 1

    def run(self, seconds, min_samples=0, between_passes=None):
        """Whole passes until ``seconds`` of pass time and ``min_samples``
        calls; ``between_passes`` runs after each pass, untimed."""
        while True:
            if self.tracer is not None:
                self.tracer.pass_index = self.passes
            start = time.perf_counter()
            self.one_pass()
            self.pass_seconds.append(time.perf_counter() - start)
            self.elapsed += self.pass_seconds[-1]
            if self.elapsed >= seconds and self.attempted >= min_samples:
                return self
            if between_passes is not None:
                between_passes()

    @property
    def ops_per_s(self):
        """Calls per second of the median pass; every pass does the same work."""
        return len(self.ops) / statistics.median(self.pass_seconds)

    def digest(self):
        text = json.dumps(self.reference, default=repr, sort_keys=True)
        return hashlib.sha256(text.encode()).hexdigest()[:16]


def warm_up(ops, certificate_error):
    """Call each kind once before timing, for lazy imports and first-call
    costs.  Kinds that share state come in cases whose first one holds every
    kind, so that case runs whole and in order."""
    seen = set()
    loop = Loop([], certificate_error)
    for op in ops:
        if op.kind not in seen:
            loop.call(op)
            seen.add(op.kind)


# ---------------------------------------------------------------------------
# reporting


def machine_facts():
    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    try:
        query = subprocess.run(["getconf", "LEVEL3_CACHE_SIZE"], capture_output=True, text=True, timeout=10)
        l3 = int(query.stdout.strip())
    except (OSError, ValueError, subprocess.SubprocessError):
        l3 = None
    return {
        "nproc": NPROC,
        "cpu_count": os.cpu_count(),
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "openblas_num_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "l3_bytes": l3,
    }


def peak_rss_mb():
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # kB on Linux


def per_call_records(loop):
    return [{"function": op.kind, "n": op.n, "d": op.d, "depth": op.depth, "basis": op.basis,
             "calls": len(times), "median_ms": statistics.median(times) * 1e3}
            for op, times in zip(loop.ops, loop.per_op)]


def end_to_end(loop, setup_times):
    lat_ms = sorted(x * 1e3 for x in loop.latencies)
    p90 = statistics.quantiles(lat_ms, n=10, method="inclusive")[8]
    values = {
        "setup_s": statistics.median(setup_times),
        "ops_per_s": loop.ops_per_s,
        "op_p50_ms": statistics.median(lat_ms),
        "op_p90_ms": p90,
        "peak_rss_mb": peak_rss_mb(),
    }
    extra = {"samples": len(lat_ms), "beyond_p90": sum(1 for x in lat_ms if x > p90),
             "setup_samples_s": setup_times}
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}, extra


def per_layer(tracer, traced, untraced, scipy_import_s):
    from tracer import SPAN_NAMES

    per_pass = traced.passes
    metrics = {}
    for name in SPAN_NAMES:
        metrics[name + "_s"] = (tracer.self_time[name] / per_pass, "s/pass")
    metrics["operator.scipy_import_s"] = (scipy_import_s, "s")
    for name in ("fock.basis_columns", "operator.nnz", "numerics.dense_cells"):
        metrics[name] = (tracer.counts[name] / per_pass, "count/pass")
    metrics["analysis.defect_distinct_ratio"] = (tracer.distinct_ratio("analysis.defect"), "1")
    metrics["operator.build_wl_distinct_ratio"] = (tracer.distinct_ratio("operator.build_wl"), "1")
    metrics["analysis.refusals"] = (traced.refusals / per_pass, "count/pass")
    metrics["trace.overhead"] = (1.0 - traced.ops_per_s / untraced.ops_per_s, "1")
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}


def emit(args, loops, metrics, report):
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    report.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "machine": machine_facts(),
        "attempted": attempted, "failed": failed, "fail_ratio": failed / attempted,
        "refusals": sum(loop.refusals for loop in loops),
        "passes": [loop.passes for loop in loops],
        "calls_per_pass": Counter(op.kind for op in loops[0].ops),
        "digest": loops[0].digest(),
        "metrics": metrics,
    })
    name = "BENCH_%s_seed%d_trace%d.json" % (args.workload, args.seed, args.trace)
    with open(os.path.join(RESULTS, name), "w", encoding="utf-8") as fh:
        json.dump(dict(report, calls=per_call_records(loops[-1])), fh, indent=1, default=repr)
    print(json.dumps({k: v for k, v in report.items() if k != "metrics"}, default=repr))
    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


# ---------------------------------------------------------------------------


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "odolab", "__init__.py")):
        print("error: no odolab sources under %s" % SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    os.makedirs(RESULTS, exist_ok=True)
    if args.setup_probe:
        return setup_probe(args)

    import odolab
    import odolab.cli  # noqa: F401  (loaded before the tracer rebinds names)

    refusal = odolab.CertificateError
    workdir = os.path.join(RESULTS, "run-%d" % os.getpid())
    os.makedirs(workdir, exist_ok=True)
    try:
        if args.trace == 0:
            setup = SetupTimer(args)
            ops = make_ready(args.workload, args.seed, workdir)
            warm_up(ops, refusal)
            loop = Loop(ops, refusal).run(args.seconds, MIN_SAMPLES, setup.probe)
            metrics, extra = end_to_end(loop, setup.finish())
            return emit(args, [loop], metrics, extra)

        from tracer import Tracer

        # the set-up runs traced so the first to_csr pays the scipy.sparse import
        setup_tracer = Tracer()
        setup_tracer.install(odolab)
        try:
            ops = make_ready(args.workload, args.seed, workdir)
        finally:
            setup_tracer.uninstall()
        warm_up(ops, refusal)
        untraced = Loop(ops, refusal).run(args.seconds / 2)
        tracer = Tracer()
        tracer.install(odolab)
        try:
            traced = Loop(ops, refusal, tracer).run(args.seconds / 2)
        finally:
            tracer.uninstall()
        if traced.reference != untraced.reference:
            traced.failed += 1
            print("FAIL verdicts differ between the traced and the untraced half", file=sys.stderr)
        tracer.write_spans(os.path.join(RESULTS, "spans_%s_seed%d.jsonl" % (args.workload, args.seed)))
        metrics = per_layer(tracer, traced, untraced, setup_tracer.self_time["operator.scipy_import"])
        return emit(args, [traced, untraced], metrics,
                    {"untraced_ops_per_s": untraced.ops_per_s, "traced_ops_per_s": traced.ops_per_s,
                     "spans": len(tracer.spans)})
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

if __name__ == "__main__":
    sys.exit(main())
