"""Layer tracing for the fmchow benchmark, from the benchmark's side only.

`BOUNDARIES` is the one table of layer boundaries.  Each row names a
public entry point of an fmchow module; `Tracer.install` wraps it for the
traced passes and `Tracer.uninstall` puts the original back.  A function
is also rebound in every loaded `fmchow.*` module that imported it by
name, so calls between modules are seen too.  A row whose target no longer
exists is reported as absent; the traced run goes on without it, every
metric that reads its layer reads null, and the untraced run never
touches this module.

A span is a boundary index, start, end, parent span index, op id and
value, kept in typed arrays: they stay in memory, out of the garbage
collector's way, and are written out when the run ends.
Counts are taken at the boundary where the work happens: a boundary can
count its calls, and the values its calls return (for example the rows
inserted and how many raised the rank).  Self time is a span's duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import statistics
import sys
import time
from array import array
from dataclasses import dataclass


def _relations(args, result):
    return len(result.relations)


def _columns(args, result):
    return args[1]  # Echelon(ncols): DegreeSpan sizes its echelon by the live columns


def _raised_rank(args, result):
    return 1 if result else 0


#: (layer, module, attribute path, count of calls, (count of values, value of a call))
BOUNDARIES = [
    ("setcomb", "fmchow.setcomb", "LargeFamily.from_weights", None, None),
    ("setcomb", "fmchow.setcomb", "canonical_walk", None, None),
    ("setcomb", "fmchow.setcomb", "all_walks", None, None),
    ("present", "fmchow.present", "chow_presentation", None, ("present.relations", _relations)),
    ("present", "fmchow.present", "simplified_presentation", None,
     ("present.relations", _relations)),
    ("present", "fmchow.present", "iterated_presentation", None,
     ("present.relations", _relations)),
    ("ranks.enumerate", "fmchow.ranks", "monomials_of_degree", None,
     ("ranks.monomials", lambda args, result: len(result))),
    ("ranks.span", "fmchow.ranks", "DegreeSpan.__init__", "ranks.spans", None),
    ("ranks.span", "fmchow.ranks", "DegreeSpan.insert_products", None, None),
    ("ranks.span", "fmchow.ranks", "DegreeSpan.insert", None, None),
    ("ranks.span", "fmchow.ranks", "DegreeSpan.reduces_to_zero", None, None),
    ("elim", "fmchow.ranks", "Echelon.__init__", None, ("ranks.columns", _columns)),
    ("elim", "fmchow.ranks", "Echelon.insert", "elim.rows", ("elim.rank_gain", _raised_rank)),
    ("elim", "fmchow.ranks", "Echelon.contains", "elim.contains", None),
    ("ranks.oracle", "fmchow.ranks", "rank_oracle", None, None),
    ("ranks.query", "fmchow.ranks", "membership", None, None),
    ("ranks.query", "fmchow.ranks", "ideal_ranks", None, None),
    ("ranks.query", "fmchow.ranks", "kernel_ranks", None, None),
    ("verify", "fmchow.verify", "check_counterexample", None, None),
    ("verify", "fmchow.verify", "check_equivalence", None, None),
    ("verify", "fmchow.verify", "check_construction", None, None),
    ("cli", "fmchow.cli", "main", None, None),
]

#: layers that run beneath the verify scenarios and the CLI: a boundary
#: missing from one of them moves its time into their self time
_LIBRARY = ("setcomb", "present", "ranks.enumerate", "ranks.span", "elim",
            "ranks.oracle", "ranks.query")

#: per-layer metrics: name -> (unit, layers it reads, value from Totals).
#: A metric reads absent when any boundary of a layer it reads is absent;
#: a self time reads every layer that runs beneath it.
LAYER_METRICS = {
    "setcomb.ms": ("ms", ("setcomb",), lambda t: t.inclusive_ms("setcomb")),
    "present.ms": ("ms", ("present",), lambda t: t.inclusive_ms("present")),
    "present.relations": ("count", ("present",), lambda t: t.count("present.relations")),
    "ranks.enumerate_ms": (
        "ms", ("ranks.enumerate",), lambda t: t.inclusive_ms("ranks.enumerate")
    ),
    "ranks.monomials": ("count", ("ranks.enumerate",), lambda t: t.count("ranks.monomials")),
    "ranks.spans": ("count", ("ranks.span",), lambda t: t.count("ranks.spans")),
    "ranks.span_self_ms": (
        "ms", ("ranks.span", "ranks.enumerate", "elim"), lambda t: t.self_ms("ranks.span")
    ),
    "ranks.columns": ("count", ("elim",), lambda t: t.count("ranks.columns")),
    "ranks.alive_frac": (
        "ratio",
        ("elim", "ranks.enumerate"),
        lambda t: t.ratio("ranks.columns", "ranks.monomials"),
    ),
    "elim.ms": ("ms", ("elim",), lambda t: t.inclusive_ms("elim")),
    "elim.rows": ("count", ("elim",), lambda t: t.count("elim.rows")),
    "elim.rank_gain": ("count", ("elim",), lambda t: t.count("elim.rank_gain")),
    "elim.useful_frac": ("ratio", ("elim",), lambda t: t.ratio("elim.rank_gain", "elim.rows")),
    "elim.contains": ("count", ("elim",), lambda t: t.count("elim.contains")),
    "ranks.oracle_ms": ("ms", ("ranks.oracle",), lambda t: t.inclusive_ms("ranks.oracle")),
    "ranks.query_ms": ("ms", ("ranks.query",), lambda t: t.inclusive_ms("ranks.query")),
    "verify.self_ms": ("ms", ("verify",) + _LIBRARY, lambda t: t.self_ms("verify")),
    "cli.self_ms": ("ms", ("cli", "verify") + _LIBRARY, lambda t: t.self_ms("cli")),
}


@dataclass
class Totals:
    """Per-layer sums over some spans: inclusive seconds (spans with no
    ancestor in the same layer), self seconds, and counts."""

    inclusive: dict
    self_time: dict
    counts: dict

    def inclusive_ms(self, layer):
        return self.inclusive.get(layer, 0.0) * 1000.0

    def self_ms(self, layer):
        return self.self_time.get(layer, 0.0) * 1000.0

    def count(self, key):
        return self.counts.get(key, 0)

    def ratio(self, num, den):
        return self.count(num) / self.count(den) if self.count(den) else 0.0


def _resolve(module_name, path):
    """(owner, attribute name, raw attribute) for a boundary, or raise
    ImportError / AttributeError when it no longer exists."""
    owner = importlib.import_module(module_name)
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    raw = owner.__dict__[name] if isinstance(owner, type) else getattr(owner, name)
    if not callable(raw) and not isinstance(raw, classmethod):
        raise AttributeError(f"{module_name}.{path} is not callable")
    return owner, name, raw


class Tracer:
    def __init__(self):
        # one entry per span; value is -1 where the boundary counts none
        self.columns = {
            "boundary": array("i"), "start": array("d"), "end": array("d"),
            "parent": array("i"), "op": array("i"), "value": array("q"),
        }
        self.absent = []  # boundaries not found
        self.absent_layers = []  # layers none of whose boundaries was found
        self._absent_in = {}  # layer -> its boundaries not found
        self.op_id = None
        self._stack = []
        self._restore = []

    # -- installation ------------------------------------------------------

    def install(self):
        installed = set()
        for index, (layer, module_name, path, _, valued) in enumerate(BOUNDARIES):
            try:
                owner, name, raw = _resolve(module_name, path)
            except (ImportError, AttributeError, KeyError):
                self._mark_absent(layer, f"{module_name}.{path}")
                continue
            value_of = valued[1] if valued else None
            if isinstance(raw, classmethod):
                wrapped = classmethod(self._wrap(index, raw.__func__, value_of))
            else:
                wrapped = self._wrap(index, raw, value_of)
            try:
                self._rebind(owner, name, raw, wrapped)
            except (AttributeError, TypeError):  # e.g. a compiled class
                self._mark_absent(layer, f"{module_name}.{path}")
                continue
            if not isinstance(owner, type):
                for module in list(sys.modules.values()):
                    mod_name = getattr(module, "__name__", "")
                    if module is owner or not mod_name.startswith("fmchow"):
                        continue
                    for alias, value in list(vars(module).items()):
                        if value is raw:
                            self._rebind(module, alias, raw, wrapped)
            installed.add(layer)
        self.absent_layers = sorted({row[0] for row in BOUNDARIES} - installed)

    def _mark_absent(self, layer, boundary):
        self.absent.append(boundary)
        self._absent_in.setdefault(layer, []).append(boundary)

    def missing(self, layers):
        """The absent boundaries of `layers`."""
        return [b for layer in layers for b in self._absent_in.get(layer, [])]

    def _rebind(self, owner, name, raw, wrapped):
        setattr(owner, name, wrapped)
        self._restore.append((owner, name, raw))

    def uninstall(self):
        for owner, name, raw in reversed(self._restore):
            setattr(owner, name, raw)
        self._restore = []

    def __len__(self):
        return len(self.columns["start"])

    def _wrap(self, index, fn, value_of):
        c = self.columns
        boundaries, starts, ends = c["boundary"], c["start"], c["end"]
        parents, ops, values = c["parent"], c["op"], c["value"]
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_id is None:
                return fn(*args, **kwargs)
            slot = len(starts)
            boundaries.append(index)
            parents.append(stack[-1] if stack else -1)
            ops.append(self.op_id)
            values.append(-1)
            ends.append(0.0)
            stack.append(slot)
            starts.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[slot] = time.perf_counter()
                stack.pop()
            if value_of is not None:
                values[slot] = value_of(args, result)
            return result

        return traced

    # -- analysis ----------------------------------------------------------

    def layer_totals(self, first_span=0):
        """Totals of the spans recorded from `first_span` on."""
        c = self.columns
        boundaries, starts, ends = c["boundary"], c["start"], c["end"]
        parents, values = c["parent"], c["value"]
        child_time = [0.0] * len(starts)
        for i in range(first_span, len(starts)):
            if parents[i] >= 0:
                child_time[parents[i]] += ends[i] - starts[i]
        inclusive, self_time, counts = {}, {}, {}
        for i in range(first_span, len(starts)):
            layer, _, _, calls_key, valued = BOUNDARIES[boundaries[i]]
            duration = ends[i] - starts[i]
            self_time[layer] = self_time.get(layer, 0.0) + duration - child_time[i]
            ancestor = parents[i]
            while ancestor >= 0 and BOUNDARIES[boundaries[ancestor]][0] != layer:
                ancestor = parents[ancestor]
            if ancestor < 0:
                inclusive[layer] = inclusive.get(layer, 0.0) + duration
            if calls_key:
                counts[calls_key] = counts.get(calls_key, 0) + 1
            if valued and values[i] >= 0:
                counts[valued[0]] = counts.get(valued[0], 0) + values[i]
        return Totals(inclusive, self_time, counts)

    def metrics(self, rows):
        """name -> (value, unit, absent boundaries it reads) over the
        per-pass `rows`: the low median, which is one pass's actual value,
        or None when the metric reads an absent boundary."""
        out = {}
        for name, (unit, layers, _) in LAYER_METRICS.items():
            missing = self.missing(layers)
            value = None if missing else statistics.median_low(row[name] for row in rows)
            out[name] = (value, unit, missing)
        return out

    def dump(self, path):
        names = [f"{row[0]}:{row[1]}.{row[2]}" for row in BOUNDARIES]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {
                    "boundaries": names,
                    "absent": self.absent,
                    "spans": {name: list(col) for name, col in self.columns.items()},
                },
                fh,
                separators=(",", ":"),
            )

