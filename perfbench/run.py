#!/usr/bin/env python3
"""The fmchow benchmark: verified rank tables, CLI verification runs and a
seeded weighted sweep, timed end to end and, in a traced run, per layer.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload ladder|verify|sweep --seed N \
        --seconds S --trace 0|1 [--replay RECORD]

It imports fmchow from the checkout's `src/`, runs single-threaded in one
process, and checks every answer (see workloads.py).  A run is: set-up
timed in fresh processes, one untimed warm-up pass, then timed passes over
the workload's op list for about `--seconds`.  Around and inside every
timed op, and around every set-up process, a host probe runs (see
HostProbe), and each timed sample is scaled to the reference host speed
by the probes around it.  Each op's latency is its median over the
passes and `pass_s` is the median pass.  `--trace 0` reports the
end-to-end metrics; `--trace 1` splits the time between untraced and
traced passes, and reports the per-layer metrics and the tracing
overhead.  The last line of standard output is the JSON result; the lines
before it are a readable summary.  A run record, and the spans of a traced
run, are written under perfbench/out/.  See README.md.

Cache policy: fmchow keeps unbounded module-level memo caches
(`ranks._oracle`, `geomdata._chern_pair_cached`).  The benchmark never
clears them; the untimed warm-up pass fills them, so every timed pass sees
them warm.  Set-up is timed in fresh processes, whose caches are empty.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from math import gcd

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

#: fresh processes timed for `setup_s`, which reports their median
SETUP_RUNS = 13
#: fewest timed passes in a run (or in each half of a traced run)
MIN_PASSES = 3
#: the probe time of the reference host speed.  Each timed sample is
#: multiplied by PROBE_REF_S over the mean time of the probes taken just
#: before, during and just after it, so time in which the shared host is
#: slow reads as if it ran at this speed
PROBE_REF_S = 0.001
#: a timer signal runs the host probe this often while an op runs
PROBE_INTERVAL_S = 0.05
#: probes run before the first op of a pass and after each op
PROBES_BETWEEN = 3
#: the same for set-up, whose probe is the spawn of a bare interpreter
SPAWN_REF_S = 0.04
#: at least this many samples lie beyond the percentile `op_tail_ms` reports
TAIL_BEYOND = 10


def import_fmchow():
    """Import fmchow from this checkout's sources and nowhere else."""
    if not os.path.isfile(os.path.join(SRC, "fmchow", "__init__.py")):
        raise SystemExit(f"error: no fmchow sources under {SRC}")
    sys.path.insert(0, SRC)
    import fmchow

    if not os.path.abspath(fmchow.__file__).startswith(SRC + os.sep):
        raise SystemExit(f"error: imported fmchow from {fmchow.__file__}, not {SRC}")
    return fmchow


def probe_kernel():
    """A fixed ~1 ms of pure-Python work that does not call fmchow, made of
    what fmchow spends its time on: tuple-keyed dicts and sets,
    fraction-free merges of sparse integer rows, and Fractions."""
    table = {}
    for i in range(800):
        key = (i % 7, i % 11, i % 13)
        table[key] = table.get(key, 0) + i
    seen = {frozenset((i % 5, i % 9, i % 17)) for i in range(600)}
    cols1 = list(range(0, 240, 2))
    coeffs1 = [3 * c + 1 for c in cols1]
    cols2 = list(range(0, 240, 3))
    coeffs2 = [5 * c + 2 for c in cols2]
    for _ in range(6):
        out_cols, out_coeffs = [], []
        i = j = 0
        while i < len(cols1) and j < len(cols2):
            c1, c2 = cols1[i], cols2[j]
            if c1 < c2:
                out_cols.append(c1)
                out_coeffs.append(7 * coeffs1[i])
                i += 1
            elif c1 > c2:
                out_cols.append(c2)
                out_coeffs.append(-11 * coeffs2[j])
                j += 1
            else:
                out_cols.append(c1)
                out_coeffs.append(7 * coeffs1[i] - 11 * coeffs2[j])
                i += 1
                j += 1
        content = 0
        for c in out_coeffs:
            content = gcd(content, c)
        cols1, coeffs1 = out_cols, out_coeffs
    total = Fraction(0)
    for k in range(1, 60):
        total += Fraction(k % 7 + 1, k % 11 + 1)
    return len(table) + len(seen) + len(cols1) + total.numerator


def probe() -> float:
    """Seconds for one run of `probe_kernel`: how fast the host is now."""
    start = time.perf_counter()
    probe_kernel()
    return time.perf_counter() - start


def outcome_of(call):
    """What `call()` returned, or the exception it raised: the op's check
    decides whether that is a failure."""
    try:
        return call()
    except Exception as exc:
        return exc


class HostProbe:
    """Measures how fast the shared host runs while each op runs.

    The host's speed swings by up to ~2x, in states that last from well
    under a second to tens of minutes, often longer than a run.  So the
    probe runs PROBES_BETWEEN times before an op and after it, and from a
    timer signal every PROBE_INTERVAL_S while it runs; the time of the
    probes inside the op is taken out of the op's time.  Every probe time
    is kept in `samples`."""

    def __init__(self):
        self.samples = []
        self._inside = []  # (start, seconds) of the probes inside the op

    def _on_timer(self, signum, frame):
        self._inside.append((time.perf_counter(), probe()))

    def install(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_timer)

    def uninstall(self):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def between(self):
        """Probe times between two ops."""
        burst = [probe() for _ in range(PROBES_BETWEEN)]
        self.samples.extend(burst)
        return burst

    def time_call(self, call):
        """(outcome or exception, seconds, probe times inside) of `call()`,
        the seconds net of the probes inside it."""
        self._inside = []
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        t0 = time.perf_counter()
        outcome = outcome_of(call)
        signal.setitimer(signal.ITIMER_REAL, 0)
        t1 = time.perf_counter()
        inside = [(start, seconds) for start, seconds in self._inside if t0 <= start < t1]
        self._inside = []
        times = [seconds for _, seconds in inside]
        self.samples.extend(times)
        return outcome, t1 - t0 - sum(times), times


def git_commit():
    """Commit of the checkout from .git, if there is one; None otherwise."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def build_ops(workload, seed, work_dir, replay):
    from workloads import WORKLOADS

    replay_inputs = None
    if replay is not None:
        with open(replay, encoding="utf-8") as fh:
            replay_inputs = json.load(fh)["inputs"]["sweep_weights"]
    return WORKLOADS[workload](seed, work_dir, replay_inputs)


def scaled(seconds, probes, reference):
    """`seconds` at the reference host speed, from the probe times taken
    around them."""
    return seconds * reference / statistics.mean(probes)


def time_spawn(cmd) -> float:
    """Seconds from spawning `cmd` until it prints its first line, which
    must be "ready"; waits for it to exit with code 0."""
    start = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True) as child:
        line = child.stdout.readline()
        elapsed = time.perf_counter() - start
        child.stdout.read()
        try:
            code = child.wait(timeout=120)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise
    if line.strip() != "ready" or code != 0:
        raise RuntimeError(f"process {cmd} failed (exit {code}, said {line!r})")
    return elapsed


def measure_setup(args, spawn_probes) -> list:
    """(seconds, scaled seconds) from spawning a fresh process until it
    has imported fmchow and generated the workload's inputs, once per
    process.  The probe for set-up is a bare interpreter that imports
    nothing; one is spawned before the first set-up process and after each
    one, and their times go into `spawn_probes`."""
    cmd = [
        sys.executable, os.path.abspath(__file__),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-only",
    ]
    if args.replay:
        cmd += ["--replay", args.replay]
    bare = [sys.executable, "-c", "print('ready')"]
    times = []
    before = time_spawn(bare)
    spawn_probes.append(before)
    for _ in range(SETUP_RUNS):
        elapsed = time_spawn(cmd)
        after = time_spawn(bare)
        spawn_probes.append(after)
        times.append((elapsed, scaled(elapsed, (before, after), SPAWN_REF_S)))
        before = after
    return times


def timed_passes(budget):
    """Pass numbers: at least MIN_PASSES, then more while one more pass,
    as long as the last one, would still end within `budget` seconds."""
    start = previous = time.perf_counter()
    count = 0
    while True:
        now = time.perf_counter()
        if count >= MIN_PASSES and (now - start) + (now - previous) > budget:
            return
        previous = now
        yield count
        count += 1


def run_pass(ops, tracer=None, first_op_id=0, host=None):
    """One pass over the ops, in order, each `op.runs` times in a row, each
    run a sample of its own.  With an installed HostProbe
    `host`, each op's seconds are also scaled by the probes around and
    inside it.  Returns [(op index, seconds, scaled seconds or None,
    error)]."""
    samples = []
    before = host.between() if host is not None else None
    for i, op in enumerate(ops):
        for _ in range(op.runs):
            op.reset()
            if tracer is not None:
                tracer.op_id = first_op_id + i
            at_speed = None
            if host is None:
                t0 = time.perf_counter()
                outcome = outcome_of(op.call)
                elapsed = time.perf_counter() - t0
            else:
                outcome, elapsed, inside = host.time_call(op.call)
                after = host.between()
                at_speed = scaled(elapsed, before + inside + after, PROBE_REF_S)
                before = after
            if tracer is not None:
                tracer.op_id = None
            samples.append((i, elapsed, at_speed, op.check(outcome)))
    return samples


def pass_seconds(samples, column):
    """Sum of one column (1: seconds, 2: scaled seconds) over the ops of
    a pass, or None if one of them failed."""
    if any(sample[3] is not None for sample in samples):
        return None
    return sum(sample[column] for sample in samples)


class Tally:
    """Outcomes of the ops run so far.  A failed op counts against
    `failed` and posts no latency; a correct one posts its (seconds,
    scaled seconds) to `sink`, a list of per-op lists, when one is given."""

    def __init__(self, ops):
        self.ops = ops
        self.attempted = self.failed = 0
        self.failures = []

    def add(self, label, samples, sink=None):
        for index, seconds, at_speed, error in samples:
            self.attempted += 1
            if error is not None:
                self.failed += 1
                self.failures.append({"pass": label, "op": self.ops[index].name, "error": error})
            elif sink is not None:
                sink[index].append((seconds, at_speed))


def per_op(latencies, column):
    """Each op's median over its samples of one column (0: seconds, 1:
    scaled seconds); None if it never passed."""
    return [
        statistics.median(sample[column] for sample in samples) if samples else None
        for samples in latencies
    ]


def tail(values):
    """(value, percentile) of the highest percentile with at least
    TAIL_BEYOND samples beyond it; the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def _median_or_none(values):
    return statistics.median(values) if values else None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("ladder", "verify", "sweep"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=33)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--replay", help="take the sweep's weights from a run record")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.replay:
        if args.workload != "sweep":
            parser.error("--replay applies to the sweep workload only")
        args.replay = os.path.abspath(args.replay)

    fmchow = import_fmchow()
    from layers import LAYER_METRICS, Tracer

    os.makedirs(OUT, exist_ok=True)
    work_dir = os.path.join(OUT, f"work-{os.getpid()}")
    ops, inputs = build_ops(args.workload, args.seed, work_dir, args.replay)
    if args.setup_only:
        print("ready", flush=True)
        return 0

    spawn_probes = []
    setup_times = measure_setup(args, spawn_probes)
    # a traced run splits its time between untraced and traced passes
    budget = args.seconds / 2 if args.trace else args.seconds

    tally = Tally(ops)
    untraced = [[] for _ in ops]
    traced = [[] for _ in ops]
    pass_times, traced_times, layer_rows = [], [], []
    tracer = Tracer()
    host = HostProbe()

    try:
        host.install()
        try:
            tally.add("warm-up", run_pass(ops, host=host))
            for p in timed_passes(budget):
                samples = run_pass(ops, host=host)
                pass_times.append((pass_seconds(samples, 1), pass_seconds(samples, 2)))
                tally.add(p, samples, untraced)
        finally:
            host.uninstall()
        if args.trace:
            tracer.install()
            try:
                for p in timed_passes(budget):
                    first_span = len(tracer)
                    samples = run_pass(ops, tracer, p * len(ops))
                    traced_times.append(pass_seconds(samples, 1))
                    tally.add(f"traced {p}", samples, traced)
                    totals = tracer.layer_totals(first_span)
                    layer_rows.append(
                        {name: fn(totals) for name, (_, _, fn) in LAYER_METRICS.items()}
                    )
            finally:
                tracer.uninstall()
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    passed = [t for t in pass_times if t[0] is not None]
    end_to_end, unscaled = {}, {}
    for column, metrics in ((0, unscaled), (1, end_to_end)):
        latency = per_op(untraced, column)
        answered = [m * 1000 for op, m in zip(ops, latency) if m is not None and not op.refusal]
        refused = [m * 1000 for op, m in zip(ops, latency) if m is not None and op.refusal]
        tail_value, tail_pct = tail(answered) if answered else (None, None)
        metrics.update({
            "setup_s": (statistics.median(t[column] for t in setup_times), "s"),
            "pass_s": (_median_or_none([t[column] for t in passed]), "s"),
            "op_p50_ms": (_median_or_none(answered), "ms"),
            "op_tail_ms": (tail_value, "ms"),
            "refuse_ms": (_median_or_none(refused), "ms"),
        })
    end_to_end["peak_rss_mb"] = (peak_rss_mb, "MB")
    per_layer, absent_in = {}, {}
    absent_layers = tracer.absent_layers
    if args.trace:
        for name, (value, unit, missing) in tracer.metrics(layer_rows).items():
            per_layer[name] = (value, unit)
            if missing:
                absent_in[name] = missing
        traced_pass_s = _median_or_none([t for t in traced_times if t is not None])
        untraced_pass_s = unscaled["pass_s"][0]
        overhead = None
        if traced_pass_s is not None and untraced_pass_s is not None:
            overhead = traced_pass_s - untraced_pass_s
        per_layer["trace.overhead_s"] = (overhead, "s")

    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "elimination_backend": fmchow.elimination_backend,
        "git_commit": git_commit(),
        "probe_ref_s": PROBE_REF_S,
        "spawn_ref_s": SPAWN_REF_S,
        "probe_interval_s": PROBE_INTERVAL_S,
        "probe_s_samples": host.samples,
        "spawn_probe_s_samples": spawn_probes,
        "cache_policy": "one untimed warm-up pass per run; caches never cleared",
        "setup_s_samples": setup_times,
        "untraced_pass_s": pass_times,
        "traced_pass_s": traced_times,
        "op_samples_s": {op.name: t for op, t in zip(ops, untraced)},
        "op_tail_percentile": tail_pct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "failed_frac": tally.failed / tally.attempted,
        "failures": tally.failures[:50],
        "end_to_end": {k: v for k, (v, _) in end_to_end.items()},
        "end_to_end_unscaled": {k: v for k, (v, _) in unscaled.items()},
        "per_layer": {k: v for k, (v, _) in per_layer.items()},
        "per_layer_per_pass": layer_rows,
        "per_layer_absent": absent_in,
        "absent_boundaries": tracer.absent,
        "absent_layers": absent_layers,
        "inputs": inputs,
    }
    record_path = os.path.join(OUT, stem + ".json")
    with open(record_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
    if args.trace:
        tracer.dump(os.path.join(OUT, stem + "-spans.json"))

    print(
        f"{args.workload} seed {args.seed}: 1 warm-up + {len(pass_times)} untraced"
        f" + {len(traced_times)} traced passes of {len(ops)} ops;"
        f" python {record['python']}, nproc {record['nproc']},"
        f" backend {record['elimination_backend']}, commit {record['git_commit']}"
    )
    print(
        f"  host probe: median {statistics.median(host.samples) * 1000:.4f} ms over"
        f" {len(host.samples)} probes; times are scaled sample by sample to a"
        f" {PROBE_REF_S * 1000:g} ms probe"
    )
    print(f"  failed_frac {tally.failed}/{tally.attempted} = {tally.failed / tally.attempted:.4f}")
    for failure in tally.failures[:5]:
        print(f"  FAILED {failure['op']} (pass {failure['pass']}): {failure['error']}")
    notes = {
        "setup_s": f"median of {SETUP_RUNS} fresh processes",
        "pass_s": f"median of {len(passed)} passes",
        "op_p50_ms": f"over {len(answered)} answered ops of each op's median",
        "op_tail_ms": (
            f"p{tail_pct:.1f} over {len(answered)} answered ops of each op's median"
            if answered else "no answered op"
        ),
        "refuse_ms": "median over the refusal's samples",
    }
    for name, (value, unit) in end_to_end.items():
        if name in unscaled:
            print(f"  {name} {value} {unit} (unscaled {unscaled[name][0]}; {notes[name]})")
        else:
            print(f"  {name} {value} {unit} (whole run)")
    for name, (value, unit) in per_layer.items():
        absent = f" (absent: {', '.join(absent_in[name])})" if name in absent_in else ""
        print(f"  {name} {value} {unit}{absent}")
    if absent_layers or tracer.absent:
        print(f"  absent layers: {absent_layers}; absent boundaries: {tracer.absent}")
    print(f"  record: {os.path.relpath(record_path, ROOT)}")

    metrics = per_layer if args.trace else end_to_end
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            k: {"value": v, "unit": u, **({"absent": absent_in[k]} if k in absent_in else {})}
            for k, (v, u) in metrics.items()
        },
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
