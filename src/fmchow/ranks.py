"""Exact per-degree linear algebra on presentations, and the independent
blow-up-additivity rank oracle.

The degree-k piece of the ideal of a presentation is the row span of
relation-times-monomial products; graded ranks, ideal membership, ideal
ranks and kernel ranks of ring maps are all answered by exact sparse
elimination over the integers (fraction-free, content-reduced), i.e. over
the rationals.  Soundness caveat, stated once here and repeated at the
reporting surfaces: non-membership over the rationals certifies
non-membership over the integers, but a positive membership answer is
rational membership only -- integral torsion is out of scope.

A degree slice builds no dead column.  The single-term relations
("killers") generate a monomial ideal; every monomial a killer divides
already lies in the span, so it is a dead column.  The live columns, the
standard monomials of that ideal under the variable caps, are enumerated
directly: the recursion over the variables stops as soon as a killer
divides the exponents assigned so far.  Every other relation is multiplied
only by live monomials: when a killer divides the shift it divides every
term of the product, whose row would be empty.  A `GradedRing` owns the
slices of one presentation.  It counts the full basis of each degree by a
small DP over the variables, so the monomial cap refuses on that count --
all monomials, live or dead -- before anything is built; it sorts the
relations, and enumerates the live monomials of a degree, once for all its
slices.  Every query walks the spans of a ring through `map`, so one span
of a ring is alive at a time.

Nor does a slice build a row that an earlier polynomial's leading monomial
(LM, its largest packed term) covers -- the syzygy criterion of Faugere's
F5.  The polynomials are taken sparse first, and m*f_j is skipped when
LM(f_i) divides m for some earlier f_i.  Writing m = LM(f_i)*m',

    m*f_j = m'*f_j*f_i - m'*tail(f_i)*f_j,

the first part is a combination of rows of f_i, in the span by induction
over the list of polynomials, and the second a combination of rows of f_j
at shifts below m, in the span by induction over the shifts.  Dead
columns and caps only drop terms from these rows, so the span, and every
rank, is exactly that of all the multiples.

Monomials in a slice are the packed integers of `Poly` itself, so a
relation's terms go into rows as they are.  The field width comes from the
variable table (see `fmchow.polyalg`): the exponent of variable i sits at
bit i*w, and ascending integer order is the canonical basis order.  A ring
refuses a top degree of 2**w or more; below it every exponent of a degree-k
monomial is at most k < 2**w, so the product of a relation term and a shift
whose degrees add up to k is one integer addition that never carries from
one field into the next.  A product term over a variable cap, or on a dead
column, is absent from the index of live columns and is dropped there.

The oracle (`rank_oracle`) never touches polynomials: it walks the large
family superset-first and applies the additive rank decomposition of a
blow-up, rank_k(after) = rank_k(before) + sum over i = 1..codim-1 of
rank_{k-i}(center), where the center is again a compactification on the
merged index set.  Agreement between `graded_ranks` of a built
presentation and `rank_oracle` is the package's central soundness check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from fmchow._elim import Echelon
from fmchow.errors import DegreeError, MapError, SizeCapError, StructureError
from fmchow.polyalg import Poly, Presentation
from fmchow.setcomb import LargeFamily, canonical_walk, merge_family

RankTable = list


def _check_degree(p: Presentation, k: int):
    if not 0 <= k <= p.top_degree:
        raise ValueError(f"degree {k} outside 0..{p.top_degree}")


def _check_variables(p: Presentation):
    if any(v.degree != 1 for v in p.table.vars):
        raise ValueError("monomial enumeration supports degree-1 variables only")


def monomials_of_degree(p: Presentation, k: int) -> list:
    """All degree-k exponent tuples of the presentation's variables, in
    ascending canonical order."""
    _check_variables(p)
    _check_degree(p, k)
    table = p.table
    return [table.unpack(m) for m in _live_monomials(table.caps(), (), k, table.width)]


def _monomial_counts(caps, top: int) -> list:
    """Number of monomials of each degree 0..top under the per-variable
    caps: the coefficients of the product over the variables of
    1 + q + ... + q^(cap-1), an uncapped variable giving 1/(1-q)."""
    counts = [1] + [0] * top
    for cap in caps:
        window = 0
        new = []
        for d, c in enumerate(counts):
            window += c
            if cap is not None and d >= cap:
                window -= counts[d - cap]
            new.append(window)
        counts = new
    return counts


def _live_monomials(caps, killers, k: int, width: int) -> list:
    """Packed degree-k monomials under the caps that no killer (exponent
    tuple) divides, in ascending canonical order.

    The recursion assigns the last variable first and each exponent in
    ascending order, which is ascending packed order.  A killer is tested
    at its lowest variable, where its whole support has been assigned: if
    it divides the exponents so far at exponent e there, it divides them
    at every larger e and in every completion, so it bounds that loop.
    """
    nvars = len(caps)
    by_low = [[] for _ in range(nvars)]
    for killer in killers:
        support = [(i, e) for i, e in enumerate(killer) if e]
        if not support:
            return []  # a unit relation kills every monomial
        (low, e_low), rest = support[0], support[1:]
        by_low[low].append((e_low, rest))
    # room[i]: the most degree that variables 0..i-1 can take together
    room = [0] * nvars
    for i in range(1, nvars):
        cap = caps[i - 1]
        room[i] = min(k, room[i - 1] + (k if cap is None else cap - 1))
    out = []
    exps = [0] * nvars

    def rec(i, remaining, packed):
        top = remaining if caps[i] is None else min(remaining, caps[i] - 1)
        for e_low, rest in by_low[i]:
            if e_low <= top and all(exps[j] >= e for j, e in rest):
                top = e_low - 1
        if i == 0:
            if remaining <= top:
                out.append(packed + remaining)
            return
        step = 1 << (i * width)
        for e in range(max(0, remaining - room[i]), top + 1):
            exps[i] = e
            rec(i - 1, remaining - e, packed + e * step)

    rec(nvars - 1, k, 0)
    return out


class GradedRing:
    """The one owner of a presentation's degree slices and of what they share:
    the monomial counts, made at once for the cap check, then on first use the
    killers, the other relations' packed terms and each degree's live
    monomials.  Packed monomials are those of the presentation's table."""

    def __init__(self, p: Presentation):
        _check_variables(p)
        self.presentation = p
        self._caps = p.table.caps()
        self.width = p.table.width
        if p.top_degree >> self.width:
            raise StructureError(
                f"top degree {p.top_degree} does not fit the packed field of {self.width} bits"
            )
        self.counts = _monomial_counts(self._caps, p.top_degree)  # live or dead
        self._live = {}  # degree -> packed live monomials, ascending

    def spans(self, degrees, monomial_cap: int = None):
        """Raise SizeCapError at the first of `degrees` with more monomials,
        live or dead, than the cap; otherwise return an iterator that
        builds `DegreeSpan(self, k)` for each in order, one at a time."""
        degrees = list(degrees)
        for k in degrees:
            if not 0 <= k < len(self.counts):
                _check_degree(self.presentation, k)  # raises
            if monomial_cap is not None and self.counts[k] > monomial_cap:
                raise SizeCapError(
                    f"degree {k} has {self.counts[k]} monomials, over the cap of {monomial_cap}"
                )
        return (DegreeSpan(self, k) for k in degrees)

    @cached_property
    def _killers(self) -> list:
        relations = self.presentation.relations
        unpack = self.presentation.table.unpack
        return [unpack(next(iter(r.packed))) for r in relations if len(r.packed) == 1]

    @cached_property
    def packed_relations(self) -> list:
        """The relations other than killers, as `packed_polys` gives them."""
        return self.packed_polys(r for r in self.presentation.relations if len(r.packed) > 1)

    def live(self, d: int) -> list:
        """Packed degree-d monomials that no killer divides, ascending."""
        if d not in self._live:
            self._live[d] = _live_monomials(self._caps, self._killers, d, self.width)
        return self._live[d]

    def packed_terms(self, poly: Poly) -> list:
        """(packed monomial, coefficient) pairs of a polynomial, ascending.
        Raises StructureError for a polynomial over another table, whose
        packed fields would be read as the wrong variables."""
        if poly.table != self.presentation.table:
            raise StructureError("polynomial over a different variable table than the presentation")
        return sorted(poly.packed.items())

    def packed_polys(self, polys) -> list:
        """(degree, packed terms) of each nonzero polynomial, sparse first
        (stable); the last term is the leading monomial."""
        polys = sorted((g for g in polys if not g.is_zero()), key=lambda g: len(g.packed))
        return [(g.homogeneous_degree(), self.packed_terms(g)) for g in polys]


class DegreeSpan:
    """The degree-k slice of a presented ring: its live columns and the
    row span of relation multiples over them, held in an incremental
    echelon form; its `GradedRing` owns what the slices share.  Killed
    monomials are dead columns, and a relation multiple whose shift an
    earlier lead divides is skipped (the F5 criterion; see the module
    docstring).  The leads stay on the span, so extra generators inserted
    afterwards (ideal generators) are pruned by the relations' leads too;
    single rows (mapped classes) can be inserted as well.  The full basis
    is counted, not built; `monomials` lists it on first use.  Ranks
    always refer to the full column space.
    """

    def __init__(self, ring: GradedRing, k: int):
        self.ring = ring
        self.presentation = ring.presentation
        self.degree = k
        _check_degree(ring.presentation, k)
        self._count = ring.counts[k]
        alive = ring.live(k)
        self._alive_index = {m: i for i, m in enumerate(alive)}
        self._dead = self._count - len(alive)
        self._leads = []  # (degree, packed leading monomial), in insertion order
        self._covered = {}  # shift degree -> (covered live shifts, leads taken in)
        self._rows_inserted = 0
        self._products_skipped = 0
        self._ech = Echelon(len(alive))
        self._insert_products(ring.packed_relations)
        self._relation_rank = self._dead + self._ech.rank

    @cached_property
    def monomials(self) -> list:
        """The full degree-k basis, live and dead columns, in ascending
        canonical order."""
        return monomials_of_degree(self.presentation, self.degree)

    @property
    def alive_monomials(self) -> tuple:
        """Basis monomials not killed by a single-term relation, in column
        order: the columns of the echelon."""
        return tuple(map(self.presentation.table.unpack, self._alive_index))

    @property
    def rows_inserted(self) -> int:
        """Rows handed to the echelon so far, relation multiples included."""
        return self._rows_inserted

    @property
    def products_skipped(self) -> int:
        """Multiples not built because an earlier lead divides the shift."""
        return self._products_skipped

    def _row(self, terms, shift: int = 0):
        """Coefficient row of packed terms times a packed monomial shift
        over the live columns, as parallel (cols, coeffs) lists.  The cols
        ascend because the terms do and the live index is monotone."""
        index = self._alive_index
        cols = []
        coeffs = []
        for t, c in terms:
            col = index.get(t + shift)
            if col is not None:
                cols.append(col)
                coeffs.append(c)
        return cols, coeffs

    def _covered_of(self, e: int) -> set:
        """Live degree-e shifts divisible by a lead so far.  A divisor of a
        live monomial is live, so lead * live(e - deg lead) finds them all.
        Each set takes in only the leads added since it was last asked for."""
        covered, seen = self._covered.get(e, (set(), 0))
        for d, lead in self._leads[seen:]:
            if d <= e:
                covered.update(lead + q for q in self.ring.live(e - d))
        self._covered[e] = (covered, len(self._leads))
        return covered

    def _insert_products(self, packed):
        rows = []
        for dg, terms in packed:
            if dg > self.degree:
                continue
            live = self.ring.live(self.degree - dg)
            covered = self._covered_of(self.degree - dg)
            shifts = [m for m in live if m not in covered]
            self._products_skipped += len(live) - len(shifts)
            for shift in shifts:
                cols, coeffs = self._row(terms, shift)
                if cols:
                    rows.append((cols, coeffs))
            self._leads.append((dg, terms[-1][0]))
        rows.sort(key=lambda row: (len(row[0]), row[0], row[1]))
        self._rows_inserted += len(rows)
        for cols, coeffs in rows:
            self._ech.insert(cols, coeffs)

    def vector(self, poly: Poly):
        terms = self.ring.packed_terms(poly)
        if not terms:
            return [], []
        if poly.homogeneous_degree() != self.degree:
            raise DegreeError(
                f"expected a homogeneous polynomial of degree {self.degree}"
            )
        return self._row(terms)

    def insert_products(self, gens) -> int:
        """Insert g*m rows for extra generators; returns the rank gain."""
        before = self._ech.rank
        self._insert_products(self.ring.packed_polys(gens))
        return self._ech.rank - before

    def insert(self, poly: Poly) -> bool:
        cols, coeffs = self.vector(poly)
        if not cols:
            return False
        self._rows_inserted += 1
        return self._ech.insert(cols, coeffs)

    def reduces_to_zero(self, poly: Poly) -> bool:
        cols, coeffs = self.vector(poly)
        return self._ech.contains(cols, coeffs)

    def span_rank(self) -> int:
        """Rank of everything inserted so far (relations included)."""
        return self._dead + self._ech.rank

    def relation_rank(self) -> int:
        """Rank of the relation span alone at this degree."""
        return self._relation_rank

    def quotient_rank(self) -> int:
        return self._count - self._relation_rank


def graded_ranks(p: Presentation, monomial_cap: int = None) -> RankTable:
    """Exact rank of each graded piece of the presented quotient, degrees
    0..top_degree.  Every degree is checked against the monomial cap
    before any span is built."""
    spans = GradedRing(p).spans(range(p.top_degree + 1), monomial_cap)
    return list(map(DegreeSpan.quotient_rank, spans))  # map holds one span at a time


def memberships(p: Presentation, gens, polys, monomial_cap: int = None) -> list:
    """Rational ideal membership of each of `polys` in <gens> inside the
    presented ring, in order.

    Every degree queried is checked against the monomial cap first; then
    one span of relation and generator multiples per degree answers all
    the queries of that degree.  A False answer is sound over the integers
    as well; a True answer certifies membership over the rationals only.
    Zero and classes above the top degree are members; an inhomogeneous
    query raises DegreeError before any span is built.
    """
    gens = list(gens)
    polys = list(polys)
    answers = [True] * len(polys)
    by_degree = {}
    for i, f in enumerate(polys):
        if not f.is_zero() and (k := f.homogeneous_degree()) <= p.top_degree:
            by_degree.setdefault(k, []).append(i)

    def answer(span):
        span.insert_products(gens)
        return [(i, span.reduces_to_zero(polys[i])) for i in by_degree[span.degree]]

    # map holds one span at a time: a for loop over the spans would keep the
    # last one bound while the iterator builds the next
    for answered in map(answer, GradedRing(p).spans(sorted(by_degree), monomial_cap)):
        for i, member in answered:
            answers[i] = member
    return answers


def membership(p: Presentation, gens, f: Poly, monomial_cap: int = None) -> bool:
    """Rational ideal membership of f in <gens> inside the presented ring:
    `memberships` of the one query."""
    return memberships(p, gens, [f], monomial_cap)[0]


def ideal_ranks(p: Presentation, gens, monomial_cap: int = None) -> RankTable:
    """Per-degree rank of the ideal generated by `gens` inside the
    presented quotient ring.  Every degree is checked against the monomial
    cap before any span is built."""
    gens = list(gens)
    spans = GradedRing(p).spans(range(p.top_degree + 1), monomial_cap)
    return list(map(lambda span: span.insert_products(gens), spans))  # one span at a time


def _map_monomial(exps, names, images: dict, target: Presentation) -> Poly:
    """Image of the monomial with these exponents of the named variables."""
    term = Poly.constant(target.table, 1)
    for name, e in zip(names, exps):
        if e:
            term = term * images[name] ** e
    return term


def map_poly(poly: Poly, images: dict, target: Presentation) -> Poly:
    """Push a polynomial through a variable substitution into the target
    presentation's ring."""
    out = Poly.zero(target.table)
    names = poly.table.names()
    for exps, coeff in sorted(poly.terms.items()):
        out = out + _map_monomial(exps, names, images, target) * coeff
    return out


def kernel_ranks(
    p_source: Presentation,
    p_target: Presentation,
    var_images: dict,
    monomial_cap: int = None,
) -> RankTable:
    """Per-degree kernel ranks of the ring map sending each source
    variable to the given degree-1 target class.

    The map must be well defined: every source relation has to land in
    the target ideal (rational membership; checked, MapError naming the
    first relation in order that does not).  Kernel rank at degree k is
    source quotient rank minus the rank of the image of the source basis
    monomials in the target quotient.  Degrees above the target's top
    degree have zero image.  Every degree a span is built for, source and
    target, is checked against the monomial cap before the first span;
    the target span of a degree answers its relations before the images.
    """
    for name in p_source.table.names():
        img = var_images.get(name)
        if img is None:
            raise MapError(f"no image given for variable {name!r}")
        if not img.is_zero() and img.homogeneous_degree() != 1:
            raise DegreeError(f"image of {name!r} must be homogeneous of degree 1")
    source_top, target_top = p_source.top_degree, p_target.top_degree
    # a relation above the source's top degree is checked in a target span too
    top = max([source_top] + [rel.homogeneous_degree() for rel in p_source.relations])
    sources = GradedRing(p_source).spans(range(source_top + 1), monomial_cap)
    targets = GradedRing(p_target).spans(range(min(top, target_top) + 1), monomial_cap)
    mapped = {}
    for rel in p_source.relations:
        image = map_poly(rel, var_images, p_target)
        if not image.is_zero():
            mapped.setdefault(image.homogeneous_degree(), []).append((rel, image))

    def kernel_rank(tgt_span):
        # ascending: the first relation outside is first in order
        for rel, f in mapped.get(tgt_span.degree, ()):
            if not tgt_span.reduces_to_zero(f):
                raise MapError(
                    f"map is not well defined: relation {rel} does not map into "
                    "the target ideal",
                    offending=rel,
                )
        if tgt_span.degree > source_top:
            return None
        src_span = next(sources)
        # dead monomials are zero in the source quotient and contribute nothing
        names = p_source.table.names()
        image = sum(
            tgt_span.insert(_map_monomial(m, names, var_images, p_target))
            for m in src_span.alive_monomials
        )
        return src_span.quotient_rank() - image

    # map holds one span of each ring at a time
    out = [rank for rank in map(kernel_rank, targets) if rank is not None]
    return out + list(map(DegreeSpan.quotient_rank, sources))


def _binomial_product(dim: int, n: int) -> list:
    """Coefficients of (1 + q + ... + q^dim)^n, the graded ranks of the
    Chow ring of (P^dim)^n."""
    out = [1]
    block = [1] * (dim + 1)
    for _ in range(n):
        new = [0] * (len(out) + dim)
        for i, a in enumerate(out):
            for j, b in enumerate(block):
                new[i + j] += a * b
        out = new
    return out


@lru_cache(maxsize=None)
def _oracle(dim: int, family: LargeFamily) -> tuple:
    n = family.n
    table = _binomial_product(dim, n)
    processed = frozenset()
    for t in canonical_walk(family):
        codim = dim * (len(t) - 1)
        if codim > 1:
            merged = merge_family(LargeFamily(n, processed), t)
            center = _oracle(dim, merged.family)
            for i in range(1, codim):
                for j, c in enumerate(center):
                    table[j + i] += c
        processed = processed | {t}
    return tuple(table)


def rank_oracle(dim: int, n: int, family: LargeFamily) -> RankTable:
    """Graded ranks of the weighted compactification for P^dim, computed
    by pure combinatorial recursion (no polynomial algebra).

    Starting from the binomial-product table of (P^dim)^n, each wall
    crossing along the canonical walk adds the center's table shifted by
    1..codim-1, where the center's table is the oracle of the merged
    instance.  Memoized on the merged instance, so repeated centers are
    computed once.
    """
    if family.n != n:
        raise ValueError("family and point count disagree")
    if dim < 1:
        raise ValueError("dimension must be positive")
    return list(_oracle(dim, family))
