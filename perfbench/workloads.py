"""Workloads of the fmchow benchmark: inputs, ops and the correctness gate.

A workload is a fixed list of ops.  Each op has a timed `call` and an
untimed `check` that returns None for a correct outcome or a message
naming what is wrong.  `call` may raise: the runner hands the exception
to `check` as the outcome, so an expected refusal passes and any other
exception fails.  An op is answered (its latency feeds the per-op
metrics) or a refusal (its latency feeds `refuse_ms`).

Every expected table is pinned here and is also compared, once per input
generation, with `rank_oracle`, so a pin that disagrees with the oracle
stops the run before anything is timed.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import os
import random
import shutil
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Optional

import fmchow
import fmchow.cli

#: the library refusal of `ladder`: (1,5) all-ones refuses at degree 3,
#: which has 5301 monomials and 1546 live columns, over a cap of 1000.
#: The CLI refusal of `verify` runs the same instance and cap.  The
#: library refusal takes ~0.25 s, so it runs LADDER_REFUSAL_RUNS times a
#: pass, for as many samples as the costly ops give together
REFUSAL_CAP = 1000
LADDER_REFUSAL_RUNS = 3
#: the refusal of `sweep`, the size of a sweep instance: (2,3) all-ones
#: refuses at degree 4, which has 189 monomials and 119 live columns,
#: over a cap of 100 (degree 3 has 81 and 62, under it).  It takes ~3 ms,
#: so it runs SWEEP_REFUSAL_RUNS times a pass, for enough samples
SWEEP_REFUSAL_CAP = 100
SWEEP_REFUSAL_RUNS = 10

# Pinned graded-rank tables, keyed by (d, weights); "1" weights mean all-ones.
LADDER_TABLES = {
    (1, ("1", "1", "1", "1")): [1, 9, 16, 9, 1],
    (3, ("1", "1", "1")): [1, 7, 20, 37, 49, 49, 37, 20, 7, 1],
    (2, ("1/2", "1/2", "1/2", "1/2")): [1, 9, 28, 51, 62, 51, 28, 9, 1],
    (4, ("1", "1/2", "1/2")): [1, 6, 16, 31, 49, 63, 68, 63, 49, 31, 16, 6, 1],
}
VERIFY_TABLES = {
    (1, ("1", "1", "1", "1")): [1, 9, 16, 9, 1],
    (2, ("1", "1", "1")): [1, 7, 17, 22, 17, 7, 1],
    (1, ("1", "1/2", "1/2", "1/2")): [1, 9, 16, 9, 1],
}
COUNTEREXAMPLE_EVIDENCE = {
    "h*E_in_ideal_of_h^3": False,
    "ranks_blowup": [1, 2, 2, 1],
    "ranks_restriction": [1, 2, 1],
    "kernel_ranks": [0, 0, 1, 1],
    "corrected_ideal_ranks": [0, 0, 1, 1],
}

#: the acceptance grid, as sweep cells (d, n)
SWEEP_CELLS = ((1, 3), (1, 4), (2, 2), (2, 3), (3, 2))
#: weights are drawn as k/SWEEP_DENOMINATOR, k uniform in 1..SWEEP_DENOMINATOR
SWEEP_DENOMINATOR = 12
#: weight vectors drawn per cell
SWEEP_DRAWS = 12
#: strata drawn per cell, by n: stratum -> draws.  A stratum is the sorted
#: number of large sets that contain each element; on this grid it fixes
#: the family up to relabelling.  The draws follow the uniform draw of
#: k/12 weights: `derive_sweep_strata(n)` enumerates all 12**n weight
#: vectors and gives the 12 draws to the strata by largest remainder of
#: 12 x (share of vectors), ties to the larger share.  selftest.py checks
#: this table against that derivation.
SWEEP_STRATA = {
    2: {(0, 0): 5, (1, 1): 7},
    3: {(0, 0, 0): 2, (1, 1, 1): 1, (1, 2, 2): 3, (2, 2, 3): 3, (3, 3, 3): 3},
    4: {
        (3, 3, 4, 5): 1, (3, 4, 4, 6): 1, (4, 4, 4, 7): 1, (4, 5, 5, 6): 1,
        (4, 6, 6, 6): 1, (5, 5, 5, 7): 1, (5, 6, 6, 7): 2, (6, 6, 7, 7): 2,
        (7, 7, 7, 7): 2,
    },
}


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]]
    refusal: bool = False
    reset: Callable[[], None] = lambda: None
    #: times the op runs in a row in each pass, each a sample of its own
    runs: int = 1


def _family(weights):
    return fmchow.LargeFamily.from_weights(fmchow.Weights.from_strings(weights))


def _pinned_against_oracle(tables):
    """Refuse to run with a pinned table that the oracle contradicts."""
    for (d, weights), table in tables.items():
        oracle = fmchow.rank_oracle(d, len(weights), _family(weights))
        if oracle != table:
            raise RuntimeError(
                f"pinned table for d={d} weights={weights} is {table}, "
                f"rank_oracle gives {oracle}"
            )


def _tables_check(expected):
    def check(outcome):
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        for label, table in outcome.items():
            if table != expected:
                return f"{label} table {table} != expected {expected}"
        return None

    return check


def _refusal_check(outcome):
    if isinstance(outcome, fmchow.SizeCapError):
        return None
    if isinstance(outcome, BaseException):
        return f"raised {type(outcome).__name__} instead of SizeCapError: {outcome}"
    return f"answered {outcome} instead of refusing"


def _ladder_op(d, weights, expected):
    geom = fmchow.ProjectiveGeometry(d, len(weights))
    family = _family(weights)

    def call():
        presentation = fmchow.chow_presentation(geom, family)
        ranks = fmchow.graded_ranks(presentation)
        oracle = fmchow.rank_oracle(d, len(weights), family)
        return {"presentation": ranks, "oracle": oracle}

    name = f"d{d}_n{len(weights)}_w" + "_".join(w.replace("/", "o") for w in weights)
    return Op(name, call, _tables_check(expected))


def _library_refusal_op(d, n, cap, runs=1):
    """graded_ranks of (d,n) all-ones at `cap`, which must refuse.  The
    presentation is built here, outside the timed call."""
    presentation = fmchow.chow_presentation(
        fmchow.ProjectiveGeometry(d, n), fmchow.LargeFamily.all_subsets(n)
    )

    def call():
        return fmchow.graded_ranks(presentation, cap)

    return Op(f"refuse_d{d}_n{n}", call, _refusal_check, refusal=True, runs=runs)


def ladder_ops(seed, work_dir, replay=None):
    """The largest instances under the default cap, then one refusal.
    The ladder is fixed; the seed does not change it."""
    _pinned_against_oracle(LADDER_TABLES)
    ops = [_ladder_op(d, w, table) for (d, w), table in LADDER_TABLES.items()]
    return ops + [_library_refusal_op(1, 5, REFUSAL_CAP, LADDER_REFUSAL_RUNS)], {}


# -- verify: the CLI, in process ---------------------------------------------


def _cli_op(name, argv, work_dir, check_reports, expect_code=0):
    out = os.path.join(work_dir, name)

    def reset():
        shutil.rmtree(out, ignore_errors=True)
        os.makedirs(out)

    def call():
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = fmchow.cli.main(argv + ["--out", out])
        return code, stderr.getvalue()

    def check(outcome):
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        code, stderr = outcome
        if code != expect_code:
            return f"exit code {code} != {expect_code}: {stderr.strip()}"
        reports = {}
        for entry in sorted(os.listdir(out)):
            try:
                with open(os.path.join(out, entry), encoding="utf-8") as fh:
                    reports[entry] = json.load(fh)
            except (OSError, ValueError) as exc:
                return f"unreadable output {entry}: {exc}"
        return check_reports(reports)

    return Op(name, call, check, refusal=expect_code == 3, reset=reset)


def _report_check(filename, expected_evidence):
    """The single report must pass and carry the pinned evidence."""

    def check(reports):
        if sorted(reports) != [filename]:
            return f"wrote {sorted(reports)}, expected [{filename!r}]"
        report = reports[filename]
        if report.get("pass") is not True:
            return f"{filename}: pass is {report.get('pass')!r}"
        evidence = report.get("evidence", {})
        for key, value in expected_evidence.items():
            if evidence.get(key) != value:
                return f"{filename}: {key} = {evidence.get(key)!r}, expected {value!r}"
        return None

    return check


def _ranks_check(expected):
    def check(reports):
        if sorted(reports) != ["ranks.json"]:
            return f"wrote {sorted(reports)}, expected ['ranks.json']"
        payload = reports["ranks.json"]
        for key in ("presentation_ranks", "oracle_ranks"):
            if payload.get(key) != expected:
                return f"ranks.json: {key} = {payload.get(key)}, expected {expected}"
        if payload.get("agree") is not True:
            return "ranks.json: agree is not true"
        return None

    return check


def _no_reports(reports):
    return f"a refused run wrote {sorted(reports)}" if reports else None


def verify_ops(seed, work_dir, replay=None):
    """Every verify scenario and one `ranks` query through `cli.main`, then
    the CLI's refusal (exit code 3).  Fixed; the seed does not change it."""
    _pinned_against_oracle(VERIFY_TABLES)
    t14 = VERIFY_TABLES[(1, ("1",) * 4)]
    t23 = VERIFY_TABLES[(2, ("1",) * 3)]
    tw = VERIFY_TABLES[(1, ("1", "1/2", "1/2", "1/2"))]

    def equivalence(table):
        return {
            "ranks_full": table,
            "ranks_simplified": table,
            "full_relations_outside_simplified_ideal": [],
            "simplified_relations_outside_full_ideal": [],
        }

    ops = [
        _cli_op(
            "counterexample",
            ["verify", "counterexample"],
            work_dir,
            _report_check("report_counterexample.json", COUNTEREXAMPLE_EVIDENCE),
        ),
        _cli_op(
            "equivalence_d1_n4",
            ["verify", "equivalence", "--d", "1", "--n", "4"],
            work_dir,
            _report_check("report_equivalence_d1_n4.json", equivalence(t14)),
        ),
        _cli_op(
            "equivalence_d2_n3",
            ["verify", "equivalence", "--d", "2", "--n", "3"],
            work_dir,
            _report_check("report_equivalence_d2_n3.json", equivalence(t23)),
        ),
        _cli_op(
            "construction_d2_n3_all_walks",
            ["verify", "construction", "--d", "2", "--n", "3", "--walk", "all"],
            work_dir,
            _report_check(
                "report_construction_d2_n3.json",
                {
                    "ranks_presentation": t23,
                    "ranks_oracle": t23,
                    "ranks_iterated_per_walk": [t23] * 6,
                    "walks_checked": 6,
                },
            ),
        ),
        _cli_op(
            "ranks_d1_w1_1o2_1o2_1o2",
            ["ranks", "--d", "1", "--weights", "1,1/2,1/2,1/2"],
            work_dir,
            _ranks_check(tw),
        ),
        _cli_op(
            "refuse_cli_d1_n5",
            ["ranks", "--d", "1", "--weights", "1,1,1,1,1", "--cap", str(REFUSAL_CAP)],
            work_dir,
            _no_reports,
            expect_code=3,
        ),
    ]
    return ops, {}


# -- sweep: seeded random weights over the acceptance grid ------------------


def stratum(weights):
    """Sorted number of large sets that contain each element."""
    family = fmchow.LargeFamily.from_weights(fmchow.Weights(tuple(weights)))
    n = len(weights)
    return tuple(sorted(sum(1 for m in family.members if i in m) for i in range(1, n + 1)))


def derive_sweep_strata(n):
    """SWEEP_STRATA[n] from the uniform draw: the share of the 12**n
    weight vectors in each stratum, times SWEEP_DRAWS, rounded by largest
    remainder, ties to the larger share."""
    ks = range(1, SWEEP_DENOMINATOR + 1)
    counts = Counter(
        stratum([Fraction(k, SWEEP_DENOMINATOR) for k in vector])
        for vector in itertools.product(ks, repeat=n)
    )
    total = SWEEP_DENOMINATOR**n
    quota = {s: Fraction(SWEEP_DRAWS * c, total) for s, c in counts.items()}
    draws = {s: int(q) for s, q in quota.items()}
    by_remainder = sorted(quota, key=lambda s: (draws[s] - quota[s], -quota[s], s))
    for s in by_remainder[: SWEEP_DRAWS - sum(draws.values())]:
        draws[s] += 1
    return {s: k for s, k in sorted(draws.items()) if k}


def draw_sweep_weights(seed):
    """Weight vectors per grid cell, by rejection sampling until the drawn
    vector falls in the stratum asked for.  Returns a list of
    (d, [weight strings]) in grid order."""
    rng = random.Random(seed)
    draws = []
    for d, n in SWEEP_CELLS:
        for target, count in SWEEP_STRATA[n].items():
            for _ in range(count):
                while True:
                    weights = [
                        Fraction(rng.randint(1, SWEEP_DENOMINATOR), SWEEP_DENOMINATOR)
                        for _ in range(n)
                    ]
                    if stratum(weights) == target:
                        break
                draws.append((d, [str(w) for w in weights]))
    return draws


def _sweep_op(index, d, weights):
    n = len(weights)
    geom = fmchow.ProjectiveGeometry(d, n)
    parsed = fmchow.Weights.from_strings(weights)

    def call():
        family = fmchow.LargeFamily.from_weights(parsed)
        direct = fmchow.chow_presentation(geom, family)
        walk = fmchow.canonical_walk(family)
        iterated = fmchow.iterated_presentation(geom, family, walk)
        return {
            "presentation": fmchow.graded_ranks(direct),
            "iterated": fmchow.graded_ranks(iterated),
            "oracle": fmchow.rank_oracle(d, n, family),
        }

    def check(outcome):
        if isinstance(outcome, BaseException):
            return f"raised {type(outcome).__name__}: {outcome}"
        tables = list(outcome.values())
        if any(t != tables[0] for t in tables):
            return f"tables disagree: {outcome}"
        return None

    return Op(f"sweep{index:03d}_d{d}_n{n}", call, check)


def sweep_ops(seed, work_dir, replay=None):
    """One op per drawn weight vector, then a refusal of the same size.  `replay`
    is a list of (d, weights) from an earlier run's record."""
    draws = replay if replay is not None else draw_sweep_weights(seed)
    ops = [_sweep_op(i, d, w) for i, (d, w) in enumerate(draws)]
    refusal = _library_refusal_op(2, 3, SWEEP_REFUSAL_CAP, SWEEP_REFUSAL_RUNS)
    return ops + [refusal], {"sweep_weights": draws}


WORKLOADS = {"ladder": ladder_ops, "verify": verify_ops, "sweep": sweep_ops}
