"""Builders for Chow ring presentations of weighted compactifications.

`chow_presentation` emits the full presentation for an arbitrary large
family (divisor variables D_S for large S, with overlap, diagonal
annihilation, Chern and mixed Chern relation families).
`simplified_presentation` emits the leaner presentation that suffices in
the all-large case, where only pairwise Chern relations are needed.
`blowup_step` is the generic one-blow-up combinator: given the ideal and
a Chern polynomial of a center, it adjoins the exceptional class E with
relations J*E and P(-E).  `coincidence_data` produces exactly that input
for the locus where a small cluster T has merged, and
`iterated_presentation` builds the whole construction, one wall crossing
after another, in one pass over its final variable table.  Its relations
are those of folding `blowup_step` over the walk, but each step's are
computed once, not carried and re-sorted through every later step.  It
has the same variables as `chow_presentation` but generally fewer
relations, so rank agreement between the two is a genuine cross-check
and not a tautology.

`chow_presentation` evaluates each distinct Chern polynomial at each
distinct divisor sum once per call, and keeps the evaluations in a dict
of that call only: no memo outlives the call that made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from fmchow.errors import StructureError
from fmchow.geomdata import (
    ProjectiveGeometry,
    chern_set,
    diagonal_ideal,
    divisor_sum,
)
from fmchow.polyalg import (
    ChernPoly,
    Poly,
    Presentation,
    Var,
    VarTable,
    chern_eval,
    chern_shift,
    divisor_name,
    transport,
)
from fmchow.setcomb import (
    LargeFamily,
    canonical_walk,
    is_overlap,
    subset_key,
    validate_walk,
)


def _mixed_partners(n: int, s) -> list:
    """All s' of size >= 2 meeting the large set s in exactly one index."""
    s = frozenset(s)
    ground = range(1, n + 1)
    out = []
    for k in range(2, n + 1):
        for c in combinations(ground, k):
            cs = frozenset(c)
            if len(cs & s) == 1:
                out.append(cs)
    return sorted(out, key=subset_key)


def _annihilators(geom: ProjectiveGeometry, table, dvar: dict) -> list:
    """The overlap products D_S * D_T and the diagonal annihilators g * D_S,
    for the divisor variables `dvar` of the large sets in order."""
    members = list(dvar)
    rels = []
    for s, t in combinations(members, 2):
        if is_overlap(s, t):
            rels.append(dvar[s] * dvar[t])
    for s in members:
        for g in diagonal_ideal(geom, s, table):
            rels.append(g * dvar[s])
    return rels


def chow_presentation(
    geom: ProjectiveGeometry, large: LargeFamily, chain=None
) -> Presentation:
    """Presentation of the Chow ring of the weighted compactification.

    Over the base ring of (P^d)^n (h caps), one divisor variable per large
    set and four relation families:

      1. D_S * D_T for overlapping large S, T;
      2. g * D_S for every generator g of the diagonal ideal of S;
      3. the Chern polynomial of S evaluated at the sum of D_V over large
         V containing S;
      4. D_S times the Chern polynomial of any s' meeting S in exactly one
         index, evaluated at the sum of D_V over large V containing S u s'.

    `chain` optionally overrides the chain used inside Chern-polynomial
    products (a callable from a set to an index sequence); the default is
    increasing order.  Each distinct (set, chain, lower set) evaluation in
    the last two families is computed once per call.
    """
    table = geom.table_for(large)
    members = large.sorted_members()
    dvar = {s: Poly.variable(table, divisor_name(s)) for s in members}
    chain_for = chain or sorted
    cherns, values = {}, {}

    def value(s, lower) -> Poly:
        order = tuple(chain_for(s))
        key = (s, order, lower)
        if key not in values:
            if (s, order) not in cherns:
                cherns[s, order] = chern_set(geom, s, table, chain=order)
            values[key] = chern_eval(cherns[s, order], divisor_sum(table, large, lower))
        return values[key]

    rels = _annihilators(geom, table, dvar)
    for s in members:
        rels.append(value(s, s))
    for s in members:
        for sp in _mixed_partners(geom.n, s):
            rels.append(dvar[s] * value(sp, s | sp))
    return Presentation(table, rels, geom.top_degree())


def simplified_presentation(geom: ProjectiveGeometry) -> Presentation:
    """Presentation of the Chow ring of the compactification where every
    subset may degenerate (all-ones weights): overlap and diagonal
    annihilation relations as above, but Chern relations only for pairs,
    and no mixed family.  Rank agreement with `chow_presentation` on the
    all-subsets family is the redundancy statement this package verifies.
    """
    large = LargeFamily.all_subsets(geom.n)
    table = geom.table_for(large)
    dvar = {s: Poly.variable(table, divisor_name(s)) for s in large.sorted_members()}
    rels = _annihilators(geom, table, dvar)
    for i, j in combinations(range(1, geom.n + 1), 2):
        pair = frozenset((i, j))
        c = chern_set(geom, pair, table)
        rels.append(chern_eval(c, divisor_sum(table, large, pair)))
    return Presentation(table, rels, geom.top_degree())


@dataclass(frozen=True)
class CoincidenceData:
    """Blow-up input for the locus where the small cluster `subset` has
    merged: generators of its ideal and a Chern polynomial of it, both
    expressed in the ambient variables."""

    subset: frozenset
    ideal_gens: tuple
    chern: ChernPoly

    def __post_init__(self):
        for g in self.ideal_gens:
            g.homogeneous_degree()


def coincidence_data(
    geom: ProjectiveGeometry,
    large: LargeFamily,
    t,
    rep: int = None,
    table: VarTable = None,
) -> CoincidenceData:
    """Ideal generators and Chern polynomial of the coincidence locus of a
    small cluster t inside the compactification for `large`.

    The ideal is generated by the diagonal ideal of t, the divisor
    variables of large sets overlapping t, and, for each large s strictly
    containing t, the Chern polynomial of (s - t) u {rep} evaluated at the
    sum of D_V over large V containing s, where rep is a chosen element of
    t (default: the minimum; the ideal does not depend on the choice).
    The Chern polynomial is the one of t shifted by t -> -t plus the sum
    of D_V over large V strictly containing t.

    Everything is expressed over `table` (default: `geom.table_for(large)`),
    which must hold the point variables and the divisor variable of every
    large set, in any order; the result is the transport of the default
    one into it.
    """
    t = frozenset(t)
    if len(t) < 2:
        raise ValueError("cluster needs at least two indices")
    if t in large:
        raise ValueError(
            f"cluster {sorted(t)} is large; its coincidence locus does not exist"
        )
    if rep is None:
        rep = min(t)
    if rep not in t:
        raise ValueError(f"representative {rep} is not in {sorted(t)}")
    table = table or geom.table_for(large)
    gens = list(diagonal_ideal(geom, t, table))
    members = large.sorted_members()
    for s in members:
        if is_overlap(s, t):
            gens.append(Poly.variable(table, divisor_name(s)))
    for s in members:
        if s > t:
            c = chern_set(geom, (s - t) | {rep}, table)
            gens.append(chern_eval(c, divisor_sum(table, large, s)))
    # t is not large, so the large sets containing t contain it strictly
    shift = divisor_sum(table, large, t)
    chern = chern_shift(chern_set(geom, t, table), shift, sign=-1)
    return CoincidenceData(t, tuple(gens), chern)


def _blowup_relations(center_ideal, chern: ChernPoly, e: Poly) -> list:
    """The relations one blow-up adds, all over the table of its
    exceptional class `e`: g*E for each g in J, and P(-E)."""
    rels = [g * e for g in center_ideal]
    rels.append(chern_eval(chern, -e))
    return rels


def blowup_step(
    p: Presentation, center_ideal, chern: ChernPoly, name: str
) -> Presentation:
    """Adjoin the exceptional class of one blow-up to a presentation.

    Given homogeneous generators J of the center's ideal and a Chern
    polynomial P of the center, the new ring is the old one with a
    degree-1 variable E = `name` and extra relations g*E (g in J) and
    P(-E).  An empty center is encoded by J = [1], which kills E.  The top
    degree is unchanged.  `iterated_presentation` adds the same relations
    at each wall crossing without building the ring in between.
    """
    if name in p.table:
        raise StructureError(f"variable {name!r} already present")
    table = p.table.extended(Var(name, 1, None))
    gens = []
    for g in center_ideal:
        g.homogeneous_degree()  # raises DegreeError if inhomogeneous
        gens.append(transport(g, table))
    shifted = ChernPoly(
        table, chern.degree, [transport(c, table) for c in chern.coeffs]
    )
    rels = [transport(r, table) for r in p.relations]
    rels += _blowup_relations(gens, shifted, Poly.variable(table, name))
    return Presentation(table, rels, p.top_degree)


def iterated_presentation(
    geom: ProjectiveGeometry, large: LargeFamily, walk=None
) -> Presentation:
    """Rebuild the presentation one wall crossing at a time.

    Starting from the base product (empty family), each step blows up the
    coincidence locus of the next cluster in the walk, computed for the
    family processed so far, introducing its divisor variable.  The
    relations are those of folding `coincidence_data` and `blowup_step`
    over the walk, but built in one pass: every step works over the final
    table (the point variables, then one divisor variable per step in
    walk order), adds its relations to one list, and one `Presentation`
    is made at the end.  The result has the same variables as
    `chow_presentation(geom, large)` and a subset of its relations;
    equality of graded ranks is the central cross-check of the
    construction.
    """
    steps = validate_walk(large, walk if walk is not None else canonical_walk(large))
    table = VarTable(
        geom.point_table().vars + tuple(Var(divisor_name(t), 1, None) for t in steps)
    )
    processed = LargeFamily.empty(geom.n)
    # the base product, the empty family, has no relations
    rels = []
    for t in steps:
        data = coincidence_data(geom, processed, t, rep=min(t), table=table)
        e = Poly.variable(table, divisor_name(t))
        rels += _blowup_relations(data.ideal_gens, data.chern, e)
        processed = LargeFamily(geom.n, processed.members | {t})
    return Presentation(table, rels, geom.top_degree())
