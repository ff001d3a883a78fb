"""Command-line front end.

Subcommands: `present` (write a presentation dump, a JSON mirror and
optionally a computer-algebra export), `ranks` (graded ranks of the
presentation against the combinatorial oracle), `verify` (named
verification scenarios).  Instances are described either by a JSON config
file or by flags; weights are exact 'p/q' strings, never floats.  All
outputs embed the resolved configuration and are written atomically;
identical configs produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 usage or validation
error, 3 size-cap refusal.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile
from fractions import Fraction
from functools import partial

from fmchow.errors import FmchowError, SizeCapError
from fmchow.geomdata import ProjectiveGeometry
from fmchow.polyalg import format_dump
from fmchow.present import chow_presentation, simplified_presentation
from fmchow.ranks import graded_ranks, rank_oracle
from fmchow.setcomb import LargeFamily, Weights, all_walks
from fmchow.verify import (
    DEFAULT_MONOMIAL_CAP,
    check_construction,
    check_counterexample,
    check_equivalence,
)


class UsageError(Exception):
    pass


def _parse_weights(text: str) -> Weights:
    try:
        return Weights.from_strings([part.strip() for part in text.split(",")])
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad weights {text!r}: {exc}") from None


def _parse_large_sets(text: str):
    # semicolon-separated groups of comma-separated indices: "1,2;1,3;1,2,3"
    sets = []
    for group in text.split(";"):
        group = group.strip()
        if not group:
            continue
        try:
            sets.append(frozenset(int(x) for x in group.split(",")))
        except ValueError as exc:
            raise UsageError(f"bad large-sets {text!r}: {exc}") from None
    return sets


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise UsageError(f"cannot read config {path}: {exc}") from None


def _weights_from_json(raw) -> Weights:
    if not isinstance(raw, list):
        raise UsageError(f"config 'weights' must be a list, not {raw!r}")
    values = []
    for item in raw:
        if isinstance(item, float):
            raise UsageError(
                f"weight {item!r} is a float; give exact 'p/q' strings or integers"
            )
        try:
            values.append(Fraction(item))
        except (ValueError, ZeroDivisionError, TypeError) as exc:
            raise UsageError(f"bad weight {item!r}: {exc}") from None
    try:
        return Weights(tuple(values))
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _geometry(dim, n) -> ProjectiveGeometry:
    try:
        return ProjectiveGeometry(dim, n)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not an integer") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"{text!r} is not a positive integer")
    return value


class Job:
    """A resolved instance: geometry, large family, provenance dict.  Each
    constructor validates the geometry once, where it builds it."""

    def __init__(self, geom, weights, family):
        self.geom = geom
        self.weights = weights
        self.family = family

    @classmethod
    def all_ones(cls, dim, n) -> "Job":
        """Every subset of two or more of the n points large."""
        geom = _geometry(dim, n)  # before Weights, which would refuse n < 1 with a ValueError
        weights = Weights((1,) * n)
        return cls(geom, weights, LargeFamily.from_weights(weights))

    @classmethod
    def resolve(cls, dim, n, weights, large_sets) -> "Job":
        """The instance of flag or config values: exactly one of weights
        and large sets, and the base dimension, are required."""
        if dim is None:
            raise UsageError("the base dimension --d is required")
        if (weights is None) == (large_sets is None):
            raise UsageError("give exactly one of weights / large-sets")
        if weights is not None:
            if n is not None and n != weights.n:
                raise UsageError(
                    f"--n {n} disagrees with the {weights.n} given weights"
                )
            n = weights.n
            try:
                family = LargeFamily.from_weights(weights)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        else:
            if n is None:
                raise UsageError("--n is required with --large-sets")
            try:
                family = LargeFamily.closure(n, large_sets)
            except ValueError as exc:
                raise UsageError(str(exc)) from None
        return cls(_geometry(dim, n), weights, family)

    def config_dict(self) -> dict:
        return {
            "base": {"kind": "projective", "dim": self.geom.dim},
            "n": self.geom.n,
            "weights": [str(a) for a in self.weights.values] if self.weights else None,
            "large_sets": [sorted(s) for s in self.family.sorted_members()],
        }

    def is_all_ones(self) -> bool:
        if self.weights is not None:
            return self.weights.is_all_ones()
        return self.family.members == LargeFamily.all_subsets(self.geom.n).members


def _is_json_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _config_int(obj: dict, key: str):
    """The integer at `key` of a config object, or None when it is absent."""
    value = obj.get(key)
    if value is not None and not _is_json_int(value):
        raise UsageError(f"config {key!r} must be an integer, not {value!r}")
    return value


def _large_sets_from_json(raw) -> list:
    if not isinstance(raw, list) or not all(
        isinstance(group, list) and all(map(_is_json_int, group)) for group in raw
    ):
        raise UsageError(f"config 'large_sets' must be a list of integer lists, not {raw!r}")
    return [frozenset(group) for group in raw]


def _job_from_args(args) -> Job:
    dim = n = None
    weights = large_sets = None
    if getattr(args, "config", None) is not None:
        raw = _load_config_file(args.config)
        base = raw.get("base", {}) if isinstance(raw, dict) else None
        if not isinstance(base, dict):
            raise UsageError("a config is a JSON object whose 'base' is an object")
        if base.get("kind", "projective") != "projective":
            raise UsageError("only projective bases are supported")
        dim = _config_int(base, "dim")
        n = _config_int(raw, "n")
        if raw.get("weights") is not None and raw.get("large_sets") is not None:
            raise UsageError("config gives both weights and large_sets")
        if raw.get("weights") is not None:
            weights = _weights_from_json(raw["weights"])
        if raw.get("large_sets") is not None:
            large_sets = _large_sets_from_json(raw["large_sets"])
    if getattr(args, "d", None) is not None:
        dim = args.d
    if getattr(args, "n", None) is not None:
        n = args.n
    if getattr(args, "weights", None) is not None:
        weights = _parse_weights(args.weights)
        large_sets = None
    if getattr(args, "large_sets", None) is not None:
        large_sets = _parse_large_sets(args.large_sets)
        weights = None
    return Job.resolve(dim, n, weights, large_sets)


def _write_atomic(path: str, data: str):
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".fmchow-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(data)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


def _cas_export(record, config) -> str:
    """Generic computer-algebra script of a presentation's
    `to_json_dict` record: variable list, explicit nilpotency generators
    for the capped variables, then the relation ideal."""
    lines = [
        "# generic computer-algebra export (integer coefficients, degree-1 variables)",
        f"# config: {json.dumps(config, sort_keys=True)}",
        "vars: " + ", ".join(v["name"] for v in record["vars"]),
        "ideal:",
    ]
    for v in record["vars"]:
        if v["cap"] is not None:
            lines.append(f"{v['name']}^{v['cap']}")
    lines.extend(record["relations"])
    return "\n".join(lines) + "\n"


def cmd_present(args) -> int:
    job = _job_from_args(args)
    if args.fm and not job.is_all_ones():
        raise UsageError("--fm requires all-ones weights (every subset large)")
    if args.fm:
        presentation = simplified_presentation(job.geom)
    else:
        presentation = chow_presentation(job.geom, job.family)
    config = job.config_dict()
    config["presentation"] = "simplified" if args.fm else "full"
    record = presentation.to_json_dict()  # canonicalized and printed once
    dump = f"# config: {json.dumps(config, sort_keys=True)}\n" + format_dump(record)
    mirror = {"config": config, **record}
    out = args.out
    _write_atomic(os.path.join(out, "presentation.txt"), dump)
    _write_atomic(os.path.join(out, "presentation.json"), _json_text(mirror))
    if args.export_cas:
        _write_atomic(
            os.path.join(out, "presentation.cas.txt"),
            _cas_export(record, config),
        )
    print(
        f"wrote presentation with {len(presentation.table)} variables and "
        f"{len(presentation.relations)} relations to {out}"
    )
    return 0


def cmd_ranks(args) -> int:
    job = _job_from_args(args)
    presentation = chow_presentation(job.geom, job.family)
    table = graded_ranks(presentation, args.cap)
    oracle = rank_oracle(job.geom.dim, job.geom.n, job.family)
    agree = table == oracle
    payload = {
        "config": job.config_dict(),
        "presentation_ranks": table,
        "oracle_ranks": oracle,
        "agree": agree,
    }
    _write_atomic(os.path.join(args.out, "ranks.json"), _json_text(payload))
    print(f"presentation ranks: {table}")
    print(f"oracle ranks:       {oracle}")
    print(f"agree: {agree}")
    return 0 if agree else 1


def _flag_instance(args, scenario: str):
    """(--d, --n), or None when neither is given.  One without the other is
    refused, rather than a default instance checked in its place."""
    if args.d is None and args.n is None:
        return None
    if args.d is None or args.n is None:
        given, missing = ("--d", "--n") if args.n is None else ("--n", "--d")
        raise UsageError(f"the {scenario} scenario got {given} without {missing}")
    return args.d, args.n


def cmd_verify(args) -> int:
    names = args.scenarios or ["counterexample", "equivalence", "construction"]
    known = {"counterexample", "equivalence", "construction"}
    for name in names:
        if name not in known:
            raise UsageError(f"unknown scenario {name!r}; known: {sorted(known)}")
    # the scenarios that read each flag given; a flag none of the requested
    # scenarios reads would be dropped without a word
    readers = [
        ("--d", args.d is not None, {"equivalence", "construction"}),
        ("--n", args.n is not None, {"equivalence", "construction"}),
        ("--weights", args.weights is not None, {"construction"}),
        ("--large-sets", args.large_sets is not None, {"construction"}),
        ("--config", args.config is not None, {"construction"}),
        ("--walk all", args.walk == "all", {"construction"}),
    ]
    unread = [flag for flag, given, read_by in readers if given and not read_by & set(names)]
    if unread:
        raise UsageError(f"no requested scenario ({', '.join(names)}) reads {', '.join(unread)}")
    # Resolve every scenario's instance, and enumerate the walks when all
    # are asked for, before the first scenario runs: a usage error or a
    # walk-cap refusal then comes before any rank work.
    runs = []
    for name in names:
        if name == "counterexample":
            runs.append(partial(check_counterexample, args.cap))
        elif name == "equivalence":
            flagged = _flag_instance(args, name)
            instances = [flagged] if flagged else [(1, 2), (1, 3), (2, 2)]
            for dim, n in instances:
                _geometry(dim, n)  # a bad instance is a usage error before any run
                runs.append(partial(check_equivalence, dim, n, args.cap))
        else:
            if any(v is not None for v in (args.weights, args.large_sets, args.config)):
                job = _job_from_args(args)
            elif _flag_instance(args, name):
                job = Job.all_ones(args.d, args.n)
            else:
                job = Job.all_ones(1, 3)
            if args.walk == "all":
                all_walks(job.family)
            runs.append(
                partial(
                    check_construction,
                    job.geom.dim,
                    job.geom.n,
                    job.family,
                    args.cap,
                    walks=args.walk,
                )
            )
    reports = [run() for run in runs]
    all_passed = True
    for i, report in enumerate(reports):
        tag = report.scenario
        ev = report.evidence
        if "dim" in ev and "n" in ev:
            tag = f"{tag}_d{ev['dim']}_n{ev['n']}"
        path = os.path.join(args.out, f"report_{tag}.json")
        payload = {"config": {"scenarios": names, "cap": args.cap}}
        payload.update(report.to_json_dict())
        _write_atomic(path, _json_text(payload))
        status = "PASS" if report.passed else "FAIL"
        print(f"{status} {tag} ({report.duration_seconds:.2f}s) -> {path}")
        all_passed &= report.passed
    return 0 if all_passed else 1


def _add_instance_flags(sub):
    sub.add_argument("--config", help="JSON config file")
    sub.add_argument("--d", type=int, help="dimension of the projective base")
    sub.add_argument("--n", type=int, help="number of marked points")
    sub.add_argument("--weights", help="comma-separated exact weights, e.g. 1,1/2,1/2")
    sub.add_argument(
        "--large-sets",
        dest="large_sets",
        help="semicolon-separated index groups, e.g. '1,2;1,2,3' (closed upward)",
    )
    sub.add_argument("--out", default=".", help="output directory")
    sub.add_argument(
        "--cap",
        type=_positive_int,
        default=DEFAULT_MONOMIAL_CAP,
        help="refuse degrees with more monomials than this",
    )


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fmchow",
        description=(
            "Exact Chow ring presentations and graded ranks of weighted "
            "Fulton-MacPherson compactifications of projective space."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_present = subs.add_parser("present", help="write a presentation dump")
    _add_instance_flags(p_present)
    p_present.add_argument(
        "--fm",
        action="store_true",
        help="emit the simplified pairwise presentation (all-ones weights only)",
    )
    p_present.add_argument(
        "--export-cas",
        dest="export_cas",
        action="store_true",
        help="also write a generic computer-algebra script",
    )
    p_present.set_defaults(func=cmd_present)

    p_ranks = subs.add_parser(
        "ranks", help="graded ranks of the presentation against the oracle"
    )
    _add_instance_flags(p_ranks)
    p_ranks.set_defaults(func=cmd_ranks)

    p_verify = subs.add_parser("verify", help="run verification scenarios")
    p_verify.add_argument(
        "scenarios",
        nargs="*",
        help="counterexample | equivalence | construction (default: all)",
    )
    _add_instance_flags(p_verify)
    p_verify.add_argument(
        "--walk",
        choices=("canonical", "all"),
        default="canonical",
        help="check one canonical walk or every admissible walk",
    )
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except SizeCapError as exc:
        print(f"size cap exceeded: {exc}", file=sys.stderr)
        return 3
    except FmchowError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
