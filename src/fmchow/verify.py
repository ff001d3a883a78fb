"""End-to-end verification scenarios.

Each scenario reproduces one of the headline claims on desk-scale
instances and returns a VerdictReport whose evidence (rank tables,
membership outcomes) suffices to recompute the verdict.  Membership
answers are over the rationals; the reports say so explicitly.

Scenarios:

* counterexample -- the blow-up of P^3 along a line, restricted to the
  blow-up of a plane through a point of that line.  The naive kernel
  description fails: h*E does not lie in the ideal generated by h^3 in
  the blown-up ring Z[h,E]/<h^4, h^2*E, E^2-2hE+h^2>.  The corrected
  kernel <h^3, h*E> is confirmed against the computed kernel ranks.
* equivalence -- at all-ones weights the full presentation and the
  simplified pairwise presentation have the same graded ranks, and each
  relation family lies in the other's ideal degree by degree.  One pass
  per side: the span of a degree gives its rank and answers the other
  side's relations of that degree.
* construction -- graded ranks of the direct presentation, of the
  iterated one-blow-up-at-a-time presentation, and of the combinatorial
  rank oracle all agree; optionally over every admissible walk.  Walks
  are compared up to variable order: every walk's presentation is built
  over the first walk's table, each distinct wall crossing once, and
  each distinct presentation is ranked once.  This is exact: over one
  table two presentations are equal exactly when their canonical
  variable orders are, and then they have the same variables and
  relations, so the rings of their walks differ by a permutation of the
  variables, which keeps every graded rank.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from fmchow.geomdata import ProjectiveGeometry
from fmchow.polyalg import ChernPoly, Poly, Presentation, Var, VarTable, transport
from fmchow.present import (
    _walk_presentations,
    _walk_table,
    blowup_step,
    chow_presentation,
    simplified_presentation,
)
from fmchow.ranks import (
    GradedRing,
    graded_ranks,
    ideal_ranks,
    kernel_ranks,
    membership,
    rank_oracle,
)
from fmchow.setcomb import LargeFamily, all_walks, canonical_walk

#: refuse degrees with more quotient-ring monomials than this
DEFAULT_MONOMIAL_CAP = 20000


@dataclass
class VerdictReport:
    """Outcome of one scenario: verdict plus recomputable evidence."""

    scenario: str
    passed: bool
    evidence: dict
    duration_seconds: float

    def to_json_dict(self) -> dict:
        return {
            "scenario": self.scenario,
            "pass": self.passed,
            "evidence": self.evidence,
            "duration_seconds": self.duration_seconds,
        }


def first_divergence(tables) -> int:
    """Smallest degree at which the given rank tables disagree (None if
    they all agree)."""
    longest = max(len(t) for t in tables)
    for k in range(longest):
        values = {t[k] if k < len(t) else None for t in tables}
        if len(values) > 1:
            return k
    return None


def _blown_up_p3_along_line() -> Presentation:
    table = VarTable((Var("h", cap=4),))
    h = Poly.variable(table, "h")
    base = Presentation(table, [], 3)
    # center P^1 in P^3: ideal <h^2>, normal bundle O(1)+O(1), class h^2
    chern = ChernPoly(table, 2, [h * h, 2 * h, Poly.constant(table, 1)])
    return blowup_step(base, [h * h], chern, "E")


def _blown_up_p2_at_point() -> Presentation:
    table = VarTable((Var("h", cap=3),))
    h = Poly.variable(table, "h")
    base = Presentation(table, [], 2)
    # center a point in P^2: ideal <h>, trivial normal Chern class, class h^2
    chern = ChernPoly(table, 2, [h * h, Poly.zero(table), Poly.constant(table, 1)])
    return blowup_step(base, [h], chern, "E")


def check_counterexample(monomial_cap: int = DEFAULT_MONOMIAL_CAP) -> VerdictReport:
    """Machine check of the failing kernel description and its correction."""
    start = time.perf_counter()
    up = _blown_up_p3_along_line()
    h = Poly.variable(up.table, "h")
    e = Poly.variable(up.table, "E")
    he = h * e
    h3 = h * h * h

    ranks_up = graded_ranks(up, monomial_cap)
    naive_member = membership(up, [h3], he, monomial_cap)

    down = _blown_up_p2_at_point()
    images = {
        "h": Poly.variable(down.table, "h"),
        "E": Poly.variable(down.table, "E"),
    }
    kernel = kernel_ranks(up, down, images, monomial_cap)
    corrected = ideal_ranks(up, [h3, he], monomial_cap)
    ranks_down = graded_ranks(down, monomial_cap)

    passed = (
        naive_member is False
        and ranks_up == [1, 2, 2, 1]
        and kernel == corrected
        and kernel == [0, 0, 1, 1]
    )
    evidence = {
        "ring": [str(r) for r in up.relations] + ["h^4 (variable cap)"],
        "restricted_ring": [str(r) for r in down.relations] + ["h^3 (variable cap)"],
        "ranks_blowup": ranks_up,
        "ranks_restriction": ranks_down,
        "h*E_in_ideal_of_h^3": naive_member,
        "kernel_ranks": kernel,
        "corrected_ideal_ranks": corrected,
        "first_divergence_degree": first_divergence([kernel, corrected]),
        "membership_semantics": "rational",
    }
    return VerdictReport(
        "counterexample", passed, evidence, time.perf_counter() - start
    )


def _ranks_and_outside(p: Presentation, queries, monomial_cap) -> tuple:
    """Graded ranks of p and, as strings, the queries (relations over p's
    table) outside its relation ideal, from one span a degree.  The
    outside relations are printed as `Presentation.dump` prints relations:
    in canonical variable order, sign-normalized and sorted there, so the
    report does not depend on the order of p's table."""
    by_degree = {}
    for f in queries:
        by_degree.setdefault(f.homogeneous_degree(), []).append(f)

    def answer(span):
        outside = [f for f in by_degree.get(span.degree, ()) if not span.reduces_to_zero(f)]
        return span.quotient_rank(), outside

    # map holds one span at a time
    answers = list(map(answer, GradedRing(p).spans(range(p.top_degree + 1), monomial_cap)))
    outside = Presentation(p.table, [f for _, fs in answers for f in fs], p.top_degree)
    return [rank for rank, _ in answers], [str(f) for f in outside.canonical_var_order().relations]


def check_equivalence(
    dim: int, n: int, monomial_cap: int = DEFAULT_MONOMIAL_CAP
) -> VerdictReport:
    """Rank and two-way ideal agreement between the full presentation and
    the simplified pairwise presentation at all-ones weights."""
    start = time.perf_counter()
    geom = ProjectiveGeometry(dim, n)
    large = LargeFamily.all_subsets(n)
    full = chow_presentation(geom, large)
    simple = simplified_presentation(geom)
    ranks_full, missing_in_full = _ranks_and_outside(full, simple.relations, monomial_cap)
    ranks_simple, missing_in_simple = _ranks_and_outside(simple, full.relations, monomial_cap)
    passed = (
        ranks_full == ranks_simple
        and not missing_in_simple
        and not missing_in_full
    )
    evidence = {
        "dim": dim,
        "n": n,
        "ranks_full": ranks_full,
        "ranks_simplified": ranks_simple,
        "relation_counts": {
            "full": len(full.relations),
            "simplified": len(simple.relations),
        },
        "full_relations_outside_simplified_ideal": missing_in_simple,
        "simplified_relations_outside_full_ideal": missing_in_full,
        "first_divergence_degree": first_divergence([ranks_full, ranks_simple]),
        "membership_semantics": "rational",
    }
    return VerdictReport("equivalence", passed, evidence, time.perf_counter() - start)


def check_construction(
    dim: int,
    n: int,
    large: LargeFamily,
    monomial_cap: int = DEFAULT_MONOMIAL_CAP,
    walks: str = "canonical",
) -> VerdictReport:
    """Three-way rank agreement: direct presentation, iterated blow-up
    construction, and the combinatorial oracle; with walks="all" every
    admissible wall-crossing order is checked.  A family too large for
    walk enumeration is refused with SizeCapError before any rank work,
    never checked on fewer walks than asked for.

    Every walk's presentation is built over the first walk's table, each
    distinct wall crossing (the sets processed before it and its cluster)
    once for all the walks, and `graded_ranks` runs once per distinct
    presentation there: on its first walk's presentation, transported to
    that walk's own table.  Each walk reports its class's table.  Over one
    table two presentations are equal exactly when their canonical
    variable orders are, and equal canonical presentations name the same
    variables and relations, so the walks' rings differ only by a
    variable permutation, a graded isomorphism: the one rank table is
    exact for each, and in either variable order.  A walk is
    superset-first, so its table puts each set's divisor in a lower field
    than its subsets': the smallest sets lead, as in
    `ProjectiveGeometry.table_for`, where the canonical order has the
    largest lead.  The evidence counts the walks checked and the
    presentations ranked."""
    if walks not in ("canonical", "all"):
        raise ValueError("walks must be 'canonical' or 'all'")
    start = time.perf_counter()
    if walks == "all":
        walk_list = all_walks(large)
    else:
        walk_list = [canonical_walk(large)]
    geom = ProjectiveGeometry(dim, n)
    direct = graded_ranks(chow_presentation(geom, large), monomial_cap)
    oracle = rank_oracle(dim, n, large)

    # a walk's presentation over the first walk's table -> its rank table
    ranked = {}
    walk_tables = []
    for walk, p in zip(walk_list, _walk_presentations(geom, walk_list)):
        ranks = ranked.get(p)
        if ranks is None:
            table, own = _walk_table(geom, walk), p
            if table != p.table:
                own = Presentation(table, [transport(r, table) for r in p.relations], p.top_degree)
            ranks = ranked[p] = graded_ranks(own, monomial_cap)
        walk_tables.append(ranks)

    tables = [direct, oracle] + walk_tables
    passed = all(t == direct for t in tables)
    evidence = {
        "dim": dim,
        "n": n,
        "large_sets": [sorted(s) for s in large.sorted_members()],
        "ranks_presentation": direct,
        "ranks_oracle": oracle,
        "ranks_iterated_per_walk": walk_tables,
        "walks_checked": len(walk_list),
        "iterated_presentations_ranked": len(ranked),
        "first_divergence_degree": first_divergence(tables),
    }
    return VerdictReport("construction", passed, evidence, time.perf_counter() - start)
