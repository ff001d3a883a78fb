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
are those of folding `blowup_step` over the walk, but each crossing
evaluates the Chern polynomial P_T of T directly at E + u, u the sum of
D_V over the large V strictly containing T: that is P(-E) for the
shifted P(x) = P_T(-x + u) of `coincidence_data`, without expanding the
shift.  It has the same variables as `chow_presentation` but generally
fewer relations, so rank agreement between the two is a genuine
cross-check and not a tautology.

Each builder does its exact work once per call (`_Build`): each chain's
Chern polynomial is its prefix's times one pairwise factor, each distinct
Chern evaluation is made once, and evaluations at one divisor sum share
its powers, keyed by the sets summed, across lower sets and crossings.
Over many walks (`_walk_presentations`, which the construction check
uses) each distinct wall crossing is built once.  No memo outlives the
call that made it.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from fmchow.errors import StructureError
from fmchow.geomdata import ProjectiveGeometry, chain_order, chern_set, diagonal_ideal
from fmchow.polyalg import (
    FIELD_BITS,
    ChernPoly,
    Poly,
    Presentation,
    Var,
    VarTable,
    chern_eval,
    chern_eval_powers,
    chern_mul,
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
    """All s' of size >= 2 meeting the large set s in exactly one index:
    one index of s with a nonempty subset of its complement."""
    rest = [i for i in range(1, n + 1) if i not in s]
    subsets = [c for k in range(1, len(rest) + 1) for c in combinations(rest, k)]
    return sorted((frozenset((i, *c)) for i in s for c in subsets), key=subset_key)


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


class _Build:
    """What one build shares over one variable table, for one call: each
    divisor variable's packed unit, looked up once; the Chern polynomial
    along each chain, made once as the one along the chain's prefix times
    one pairwise factor, so chains that share a prefix share its product;
    and each distinct Chern evaluation, made once, every evaluation at one
    divisor sum sharing that sum's powers, keyed by the sets summed."""

    def __init__(self, geom: ProjectiveGeometry, table: VarTable):
        self.geom, self.table = geom, table
        self._units, self._chains, self._powers, self._values = {}, {}, {}, {}

    def divisor_sum(self, sets) -> Poly:
        """The sum of the divisor variables D_V of the distinct sets V."""
        units, terms = self._units, {}
        for v in sets:
            if v not in units:
                units[v] = 1 << self.table.index(divisor_name(v)) * FIELD_BITS
            terms[units[v]] = 1
        return Poly._of(self.table, terms)

    def chern(self, s, chain=None) -> ChernPoly:
        """`chern_set` of the index set s along `chain`, checked as there."""
        return self._along(chain_order(s, chain))

    def _along(self, chain: tuple) -> ChernPoly:
        if chain not in self._chains:
            if len(chain) == 2:
                c = chern_set(self.geom, chain, self.table, chain=chain)
                # chern_set answers over the equal table its pairwise cache was
                # made on; moved onto this one, no product here compares tables
                coeffs = [Poly._of(self.table, x.packed) for x in c.coeffs]
                self._chains[chain] = ChernPoly(self.table, c.degree, coeffs)
            else:
                self._chains[chain] = chern_mul(self._along(chain[:-1]), self._along(chain[-2:]))
        return self._chains[chain]

    def value(self, s, lower, members: frozenset, chain=None) -> Poly:
        """`chern(s, chain)` evaluated at the sum of D_V over the V in
        `members` that contain `lower`."""
        order = chain_order(s, chain)
        key = (order, lower, members)
        if key not in self._values:
            summed = frozenset(v for v in members if v >= lower)
            if summed not in self._powers:
                self._powers[summed] = [Poly.constant(self.table, 1), self.divisor_sum(summed)]
            self._values[key] = chern_eval_powers(self._along(order), self._powers[summed])
        return self._values[key]

    def ideal_gens(self, members, t, rep) -> list:
        """Generators of the ideal of the coincidence locus of the small
        cluster t, where the large sets are `members`: see
        `coincidence_data`."""
        gens = list(diagonal_ideal(self.geom, t, self.table))
        gens += [self.divisor_sum([s]) for s in members if is_overlap(s, t)]
        family = frozenset(members)
        return gens + [self.value((s - t) | {rep}, s, family) for s in members if s > t]

    def crossing(self, processed, t) -> list:
        """The relations of the wall crossing at the small cluster t after
        the large sets `processed`: g*E for each generator g of t's
        coincidence locus, and P_t(E + u), u the sum of D_V over V in
        `processed` strictly containing t."""
        e = self.divisor_sum([t])
        gens = [g * e for g in self.ideal_gens(processed, t, min(t))]
        return gens + [self.value(t, t, processed | {t})]


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
    increasing order.  Each distinct evaluation in the last two families
    is made once per call.
    """
    table = geom.table_for(large)
    members = large.sorted_members()
    build = _Build(geom, table)

    def value(s, lower) -> Poly:
        return build.value(s, lower, large.members, chain(s) if chain else None)

    dvar = {s: build.divisor_sum([s]) for s in members}
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
    build = _Build(geom, table)
    dvar = {s: build.divisor_sum([s]) for s in large.sorted_members()}
    rels = _annihilators(geom, table, dvar)
    for i, j in combinations(range(1, geom.n + 1), 2):
        pair = frozenset((i, j))
        rels.append(build.value(pair, pair, large.members))
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
    build = _Build(geom, table or geom.table_for(large))
    members = large.sorted_members()
    # t is not large, so the large sets containing t contain it strictly
    shift = build.divisor_sum([v for v in members if v > t])
    chern = chern_shift(build.chern(t), shift, sign=-1)
    return CoincidenceData(t, tuple(build.ideal_gens(members, t, rep)), chern)


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
    table = p.table.extended(Var(name))
    gens = []
    for g in center_ideal:
        g.homogeneous_degree()  # raises DegreeError if inhomogeneous
        gens.append(transport(g, table))
    shifted = ChernPoly(
        table, chern.degree, [transport(c, table) for c in chern.coeffs]
    )
    rels = [transport(r, table) for r in p.relations]
    e = Poly.variable(table, name)
    rels += [g * e for g in gens]
    rels.append(chern_eval(shifted, -e))
    return Presentation(table, rels, p.top_degree)


def _walk_table(geom: ProjectiveGeometry, walk) -> VarTable:
    """The point variables, then one divisor variable per step in walk
    order."""
    return VarTable(
        geom.point_table().vars + tuple(Var(divisor_name(t)) for t in walk)
    )


def _walk_presentations(geom: ProjectiveGeometry, walks):
    """The iterated presentation of each valid walk of one family in turn,
    all over the first walk's table.

    Each distinct crossing, a set of processed large sets and the next
    cluster, is built once for all the walks.  Two of the presentations
    are equal exactly when their canonical variable orders are, as one
    permutation of the variables takes both there."""
    table = _walk_table(geom, walks[0])
    build = _Build(geom, table)
    made = {}
    for walk in walks:
        rels, processed = [], frozenset()
        for t in walk:
            key = (processed, t)
            if key not in made:
                made[key] = build.crossing(processed, t)
            rels += made[key]
            processed = processed | {t}
        yield Presentation(table, rels, geom.top_degree())


def iterated_presentation(
    geom: ProjectiveGeometry, large: LargeFamily, walk=None
) -> Presentation:
    """Rebuild the presentation one wall crossing at a time.

    Starting from the base product (empty family), each step blows up the
    coincidence locus of the next cluster t in the walk, computed for the
    family processed so far, introducing its divisor variable E.  The
    relations are those of folding `coincidence_data` and `blowup_step`
    over the walk, but built in one pass: every step works over the final
    table (the point variables, then one divisor variable per step in
    walk order), evaluates the Chern polynomial of t at E + u rather than
    its shift at -E, and adds its relations to one list, and one
    `Presentation` is made at the end.  The Chern polynomials are made
    once for the walk.  The result has the same variables as
    `chow_presentation(geom, large)` and a subset of its relations;
    equality of graded ranks is the central cross-check of the
    construction.
    """
    if large.n != geom.n:
        raise ValueError("family and geometry disagree on the number of points")
    steps = validate_walk(large, walk if walk is not None else canonical_walk(large))
    return next(_walk_presentations(geom, [steps]))
