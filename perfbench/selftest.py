#!/usr/bin/env python3
"""Self-test of the benchmark's correctness gate and layer tracing.

Shows that a tampered rank table, a refusal that does not refuse and a
wrong CLI exit code each count as failures and post no latency; that a
layer boundary that no longer exists is reported as absent, every metric
that reads its layer reads null, and the traced pass still runs; and that
the sweep's pinned strata match their derivation from the uniform draw.
Takes a few seconds.

Usage, from the root of a checkout:  python3 perfbench/selftest.py
"""

from __future__ import annotations

import os
import shutil

import run

fmchow = run.import_fmchow()

import layers  # noqa: E402  (needs fmchow on the path)
import workloads  # noqa: E402

WORK_DIR = os.path.join(run.OUT, f"selftest-{os.getpid()}")


def expect(condition, message):
    if not condition:
        raise SystemExit(f"FAIL: {message}")
    print(f"ok: {message}")


def tally_of(ops, tracer=None):
    """One pass: the tally and the number of latencies it posted."""
    tally = run.Tally(ops)
    latencies = [[] for _ in ops]
    samples = run.run_pass(ops, tracer)
    tally.add("selftest", samples, latencies)
    return tally, sum(map(len, latencies))


def cheap_ops():
    """The smallest ladder instance, the first sweep draws, the library
    refusal, and the CLI counterexample, `ranks` query and refusal."""
    ladder, _ = workloads.ladder_ops(1, WORK_DIR)
    sweep, _ = workloads.sweep_ops(1, WORK_DIR)
    verify, _ = workloads.verify_ops(1, WORK_DIR)
    cli = [op for op in verify if op.name.startswith(("counterexample", "ranks_", "refuse_"))]
    return ladder[:1] + sweep[:6] + [sweep[-1]] + cli


def tampered_graded_ranks(original):
    """graded_ranks with the top entry off by one, that answers [1]
    where it should refuse."""

    def graded_ranks(p, monomial_cap=None):
        try:
            table = original(p, monomial_cap)
        except fmchow.SizeCapError:
            return [1]
        table[-1] += 1
        return table

    return graded_ranks


def main():
    ops = cheap_ops()
    clean, posted = tally_of(ops)
    expect(clean.failed == 0, f"untampered ops pass ({clean.attempted} attempted)")
    expect(posted == clean.attempted, "every passing op posts a latency")

    original = fmchow.graded_ranks
    callers = (fmchow, fmchow.cli, fmchow.verify)
    for module in callers:
        module.graded_ranks = tampered_graded_ranks(original)
    try:
        tampered, posted = tally_of(ops)
    finally:
        for module in callers:
            module.graded_ranks = original
    expect(
        tampered.failed == tampered.attempted,
        f"every op fails on a tampered table ({tampered.failed}/{tampered.attempted})",
    )
    expect(posted == 0, "failed ops post no latency")
    errors = {f["op"]: f["error"] for f in tampered.failures}
    refusal = errors.get("refuse_d2_n3", "")
    expect(refusal.startswith("answered"), f"a missing refusal is a failure: {refusal}")
    cli_refusal = errors.get("refuse_cli_d1_n5", "")
    expect(cli_refusal.startswith("exit code"), f"a wrong exit code is a failure: {cli_refusal}")
    scenario = errors.get("counterexample", "")
    expect(scenario.startswith("exit code 1"), f"a failing verify scenario is a failure: {scenario}")

    span_init = fmchow.ranks.DegreeSpan.__dict__["__init__"]
    membership = fmchow.verify.membership
    # remove one boundary of the elim layer, and the only one of a layer
    contains = next(i for i, row in enumerate(layers.BOUNDARIES) if row[2] == "Echelon.contains")
    kept = layers.BOUNDARIES[contains]
    layers.BOUNDARIES[contains] = kept[:2] + ("Echelon.no_such_method",) + kept[3:]
    ghost = ("ghost", "fmchow.ranks", "no_such_entry_point", None, None)
    layers.BOUNDARIES.append(ghost)
    tracer = layers.Tracer()
    try:
        tracer.install()
        traced, _ = tally_of(ops, tracer)
        totals = tracer.layer_totals()
        row = {name: fn(totals) for name, (_, _, fn) in layers.LAYER_METRICS.items()}
        metrics = tracer.metrics([row])
    finally:
        tracer.uninstall()
        layers.BOUNDARIES.remove(ghost)
        layers.BOUNDARIES[contains] = kept
    expect(
        tracer.absent
        == ["fmchow.ranks.Echelon.no_such_method", "fmchow.ranks.no_such_entry_point"],
        "removed boundaries are absent",
    )
    expect(tracer.absent_layers == ["ghost"], "a layer with no boundary left is reported absent")
    expect(traced.failed == 0 and len(tracer) > 0, "the traced pass still runs and records spans")
    null = sorted(name for name, (value, _, _) in metrics.items() if value is None)
    expect(
        null == [
            "cli.self_ms", "elim.contains", "elim.ms", "elim.rank_gain", "elim.rows",
            "elim.useful_frac", "ranks.alive_frac", "ranks.columns", "ranks.span_self_ms",
            "verify.self_ms",
        ],
        f"metrics that read the partly removed layer, or time beneath it, read null: {null}",
    )
    intact = ("setcomb.ms", "present.ms", "ranks.oracle_ms")
    expect(
        all(metrics[name][0] is not None for name in intact),
        "metrics of intact layers still read a value",
    )
    expect(
        fmchow.ranks.DegreeSpan.__dict__["__init__"] is span_init
        and fmchow.verify.membership is membership is fmchow.ranks.membership,
        "uninstall restores the original entry points",
    )
    for n, strata in workloads.SWEEP_STRATA.items():
        derived = workloads.derive_sweep_strata(n)
        expect(derived == strata, f"sweep strata for n={n} follow the uniform draw: {derived}")
    print("selftest passed")


if __name__ == "__main__":
    try:
        main()
    finally:
        shutil.rmtree(WORK_DIR, ignore_errors=True)
