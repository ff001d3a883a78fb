"""Exact per-degree linear algebra on presentations, and the independent
blow-up-additivity rank oracle.

Graded ranks, ideal membership, ideal ranks and kernel ranks of ring maps
are all read off one Groebner basis of the relation ideal, and answered
over the integers by fraction-free arithmetic, i.e. over the rationals.
Soundness caveat, stated once here and repeated at the reporting surfaces:
non-membership over the rationals certifies non-membership over the
integers, but a positive membership answer is rational membership only --
integral torsion is out of scope.

Monomials are the packed integers of `Poly` (see `fmchow.polyalg`): the
exponent of variable i sits in the field at bit i*w, w = FIELD_BITS for
every table, and a ring map's images are made by `fmchow.polyalg.map_poly`
from them, with no exponent tuple between.  The monomial order is
their integer order, lex with the later variables most significant, and it
is a monomial order: the fields never carry, so m < m' gives q*m < q*m'.  A
ring refuses a top degree over the degree bound MAX_DEGREE of the packed
monomials, so every exponent of a monomial of degree at most the top lies
below the guard bit of its field, and the degree of an lcm of two such
monomials, at most twice the top, is its packed value modulo 2**w - 1.
Then one subtraction tests a divisor: with every guard bit set, u - d
keeps them all iff no exponent of d is larger than u's.  It also gives the
field-wise maximum that an lcm takes, or the minimum that a gcd takes.

The relation ideal I is generated by the relations and, for each capped
variable x, by its vanishing power x^cap, a relation of one term.  Every
relation is homogeneous and every variable has degree 1.  A `GradedRing`
builds a Groebner basis G of I truncated at the top degree, degree by
degree, as Buchberger's algorithm runs on a homogeneous ideal (Cox, Little
and O'Shea, "Ideals, Varieties, and Algorithms", ch. 2 sections 6-10).  At
degree k it reduces, by the elements found so far, first the S-polynomials
of the pending pairs whose lcm has degree k, then the relations of degree
k.  Each nonzero remainder, made primitive with a positive lead, joins G.
A remainder's leading monomial (LM) is divisible by no LM of G, so no LM
of G divides another.  A new element h is paired with every element whose
LM shares a variable with LM(h): a pair of coprime LMs has an S-polynomial
that reduces to zero (Buchberger's first criterion).  Nor is h paired with
an element g when the gcd c of LM(g) and LM(h) divides the content of both,
the field-wise minimum of their monomials: then g = c*f and h = c*f' with
coprime LMs, and S(g, h) = c*S(f, f') has c times the standard
representation of S(f, f') over f and f' (the first criterion is the case
c = 1).  A pair whose lcm has degree above the top is dropped.  A pair
(g1, g2) of lcm l is skipped when the LM of a third element g divides l
and neither (g1, g) nor (g, g2) is pending, a pair never made counting as
treated: the lcm of each is a proper divisor of l, so it has lower degree
and was treated before, or it is l and the pair was treated before in
this degree (Buchberger's second criterion, as the improved algorithm of
Cox, Little and O'Shea, ch. 2 section 10, applies it; Gebauer and Moeller,
"On an installation of Buchberger's algorithm", 1988).  The S-polynomial
of (g1, g2) is then a combination of those of (g1, g) and (g, g2) with
monomial and rational factors, so it has a standard representation when
they have.  A new LM has the degree k of its remainder, and no LM of G
divides it, so it makes pairs of degree above k only: the pairs of degree
k are known when degree k starts.  When degree k ends, every S-polynomial
of degree at most k has a standard representation over G, so G holds a
Groebner basis of I in every degree up to k: the LM of every form of I of
such a degree is a multiple of an LM of G.

So the standard monomials of degree k, those that no LM of G divides, are
a basis of the quotient in degree k (Macaulay's theorem; Cox, Little and
O'Shea, ch. 5 section 3 and ch. 9 section 3), and the quotient rank is
their count.  They are enumerated one degree at a time by one rule: a
degree-d monomial is standard iff each of its degree-(d-1) divisors is
standard and it is no LM of G.  The monomial cap refuses on the count of
all monomials of a degree, standard or not, made by a small DP over the
variables before anything is built.

Division by G gives each form of degree at most the top its normal form NF,
the one combination of standard monomials congruent to it modulo I, so NF
is linear and NF(f) = 0 iff f lies in I.  It is fraction-free: a term u of
coefficient b whose divisor g has lead a gives a'*f - b'*(u/LM g)*g, with
a' = a/gcd(a, b) and b' = b/gcd(a, b), and the content is divided out at
the end, so the remainder is NF(f) up to a positive rational factor.  The
division loop, `GradedRing._reduce`, searches for the divisor of u itself,
by the rule that fixes the build's remainders and so G element for element:
the first element whose LM divides u met visiting the fields of u from the
lowest up and, at each, the elements whose LM has its largest variable
there in the order they joined G.  A degree slice, `DegreeSpan`, has the
standard monomials as its columns, and its `Echelon` holds query rows only.
Every monomial m is congruent to a combination of standard monomials s, so
m*g is congruent to the same combination of the s*g: the normal forms
NF(s*g), for g a generator and s standard of the complementary degree, span
the image of the generators' ideal in the quotient, and a form lies in
I + <gens> iff its NF lies in their span.

An `Echelon`'s rows have the form of the elements of G: a remainder, made
primitive with a positive lead and kept under its LM, which is standard.
The one division loop divides by both: a monomial that an LM of G divides
by that element, and a standard monomial that leads a row by that row.  A
row's other monomials are standard and below its lead, so the terms are
still met in descending order, and the remainder of f is NF(f) less a
combination of the rows, up to a positive rational factor, in which no
monomial leads a row.  The rows have distinct LMs, so every nonzero form
in their span leads with one of them: the remainder is zero iff NF(f) lies
in the span, and otherwise it adds one to the rank.

The oracle (`rank_oracle`) never touches polynomials: it walks the large
family superset-first and applies the additive rank decomposition of a
blow-up, rank_k(after) = rank_k(before) + sum over i = 1..codim-1 of
rank_{k-i}(center), where the center is again a compactification on the
merged index set.  Agreement between `graded_ranks` of a built
presentation and `rank_oracle` is the package's central soundness check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache
from heapq import heapify, heappop, heappush
from math import gcd

from fmchow.errors import DegreeError, MapError, SizeCapError, StructureError
from fmchow.polyalg import FIELD_BITS, MAX_DEGREE, Poly, Presentation, map_poly
from fmchow.setcomb import LargeFamily, canonical_walk, merge_family

RankTable = list


def _check_degree(p: Presentation, k: int):
    if not 0 <= k <= p.top_degree:
        raise ValueError(f"degree {k} outside 0..{p.top_degree}")


def monomials_of_degree(p: Presentation, k: int) -> list:
    """All degree-k exponent tuples of the presentation's variables, in
    ascending canonical order: the standard monomials of the ring with the
    same variables and no relations, where only the caps kill."""
    _check_degree(p, k)
    ring = GradedRing(Presentation(p.table, (), p.top_degree))
    return list(map(p.table.unpack, ring.live(k)))


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


def _live_layer(d: int, below: dict, steps) -> dict:
    """Every degree-d monomial q*x with x one of the packed variables
    `steps` (ascending) whose degree-(d-1) divisors all lie in `below`,
    packed and ascending, each mapped to the tuple of those divisors, made
    only for a monomial so accepted.

    `below` is a layer of degree d-1 (None at d = 0).  A monomial is built
    once, as q*x_i with x_i its last variable; its divisors are q's times
    x_i, and q itself, in `below`, when x_i is new.  For each x_i in turn,
    the q with no variable after x_i are a prefix of `below`, and the
    products come out ascending.  Above degree 1 the steps need only be the
    standard variables: a multiple of any other variable has a divisor one
    degree down that holds it, which is not standard.
    """
    if d == 0:
        return {0: ()}
    has = below.__contains__
    out = {}
    for step in steps:
        bound = step << FIELD_BITS  # the first monomial with a variable after x_i
        add = step.__add__
        for q, divisors in below.items():
            if q >= bound:
                break
            if all(map(has, map(add, divisors))):
                out[q + step] = (*map(add, divisors), q) if q < step else tuple(map(add, divisors))
    return out


class GradedRing:
    """The one owner of a presentation's degree slices and of what they
    share: the monomial counts, made at once for the cap check, then on
    first use the truncated Groebner basis of the relation ideal, the
    standard monomials of each degree and the memo of the division's
    divisor lookups (see the module docstring).  Packed monomials are
    those of the presentation's table."""

    def __init__(self, p: Presentation):
        self.presentation = p
        if p.top_degree > MAX_DEGREE:
            raise StructureError(
                f"top degree {p.top_degree} is over the packed monomial's degree bound {MAX_DEGREE}"
            )
        self.counts = _monomial_counts(p.table.caps(), p.top_degree)  # standard or not
        self._live = []  # standard monomials of each degree enumerated so far, ascending
        # the basis as (lead, a, tail): lead monomial, its coefficient a > 0
        # and the other terms, descending; indexed for the divisor search of
        # `_reduce` by the field of the lead's largest variable and, for the
        # pairs, by the field of each variable the lead holds
        self._elements = []
        self._contents = []  # of each element, see `_add`
        self._by_last = {}
        self._holding = {}
        self._found = {}  # monomial -> the divisor `_reduce` found for it

    def spans(self, degrees, monomial_cap: int = None):
        """Raise SizeCapError at the first of `degrees` with more monomials,
        standard or not, than the cap; otherwise return an iterator that
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
    def _leads(self) -> dict:
        """Degree -> the set of the basis's leading monomials of that
        degree, once the basis is built, on first use."""
        p = self.presentation
        w, top = FIELD_BITS, p.top_degree
        field = (1 << w) - 1
        relations = {}  # degree -> packed terms, each cap first
        for i, cap in enumerate(p.table.caps()):
            if cap is not None and cap <= top:
                relations.setdefault(cap, []).append({cap << (i * w): 1})
        for r in p.relations:  # homogeneous: the degree of the first term
            if (d := next(iter(r.packed)) % field) <= top:
                relations.setdefault(d, []).append(r.packed)
        pairs = {}  # lcm degree -> (lcm, g, h) of each pending pair, LM g < LM h
        leads = {}
        for k in range(top + 1):
            self._found.clear()  # its entries are monomials of the degrees below
            todo = pairs.pop(k, [])
            pending = {(g[0], h[0]) for _, g, h in todo}
            for lcm, g, h in todo:
                pending.remove((g[0], h[0]))
                if not self._chained(lcm, g[0], h[0], pending):
                    self._add(self._reduce(self._s_polynomial(lcm, g, h)), k, pairs, leads)
            for terms in relations.get(k, ()):
                self._add(self._reduce(dict(terms)), k, pairs, leads)
        return leads

    def _add(self, terms: dict, k: int, pairs: dict, leads: dict):
        """Put a nonzero remainder of degree k in the basis, primitive with
        a positive lead, and pair it with every element whose leading
        monomial shares a variable with its own, where their lcm has degree
        at most the top and the gcd c of the two leads does not divide both
        elements' contents: if it does, their S-polynomial is c times that
        of two elements with coprime leads, whose standard representation
        times c is one of it (see the module docstring)."""
        if not terms:
            return
        new = lead, a, tail = _element(terms)
        w, top, guard = FIELD_BITS, self.presentation.top_degree, self.presentation.table._guard
        field = (1 << w) - 1
        content = lead  # the field-wise minimum of the monomials
        for m, _ in tail:
            over = ((((content | guard) - m) & guard) >> (w - 1)) * field
            content = (m & over) | (content & ~over)
        h = len(self._elements)
        partners = set()
        rest = lead
        while rest:
            shift = ((rest & -rest).bit_length() - 1) // w * w
            rest &= ~(field << shift)
            holders = self._holding.setdefault(shift, [])
            partners.update(holders)
            holders.append(h)
        for i in sorted(partners):
            old = self._elements[i]
            # fields where the old lead's exponent is at least the new one's
            over = ((((old[0] | guard) - lead) & guard) >> (w - 1)) * field
            lcm = (old[0] & over) | (lead & ~over)
            common = (lead & over) | (old[0] & ~over)
            if (d := lcm % field) <= top and (
                ((content | guard) - common) & guard != guard
                or ((self._contents[i] | guard) - common) & guard != guard
            ):
                pairs.setdefault(d, []).append((lcm, old, new) if old[0] < lead else (lcm, new, old))
        self._elements.append(new)
        self._contents.append(content)
        self._by_last.setdefault((lead.bit_length() - 1) // w * w, []).append(new)
        self._found.pop(lead, None)  # the only "none" answer the new lead changes
        leads.setdefault(k, set()).add(lead)

    def _chained(self, lcm: int, first: int, second: int, pending: set) -> bool:
        """Whether the leading monomial of a third element t divides the
        lcm of the pair of leads (first, second), and neither pair of t
        with one of them is pending: each has an lcm that is a proper
        divisor of it, or was treated before in this degree (see the module
        docstring)."""
        w, guard = FIELD_BITS, self.presentation.table._guard
        field = (1 << w) - 1
        rest = lcm
        while rest:
            shift = ((rest & -rest).bit_length() - 1) // w * w
            rest &= ~(field << shift)
            for t in self._by_last.get(shift, ()):
                lead = t[0]
                if lead == first or lead == second or ((lcm | guard) - lead) & guard != guard:
                    continue
                for other in (first, second):  # is a pair of t with first or second pending?
                    over = ((((other | guard) - lead) & guard) >> (w - 1)) * field
                    if (other & over) | (lead & ~over) == lcm and (min(other, lead), max(other, lead)) in pending:
                        break
                else:
                    return True
        return False

    def _s_polynomial(self, lcm: int, g: tuple, h: tuple) -> dict:
        """(a_h/d)*(lcm/LM g)*g - (a_g/d)*(lcm/LM h)*h for elements g and h
        of leads a_g, a_h and d = gcd(a_g, a_h), less the cancelled lcm
        term."""
        (lead_g, a_g, tail_g), (lead_h, a_h, tail_h) = g, h
        d = gcd(a_g, a_h)
        b_g, b_h = a_h // d, a_g // d
        shift = lcm - lead_g
        terms = {m + shift: b_g * c for m, c in tail_g}
        shift = lcm - lead_h
        for m, c in tail_h:
            m += shift
            terms[m] = terms.get(m, 0) - b_h * c
        return terms

    def _reduce(self, f: dict, rows: dict = None) -> dict:
        """The remainder of packed terms f (monomial -> coefficient, all of
        one degree; taken over and changed) under division by the basis
        found so far, fraction-free (see the module docstring): the terms
        are visited in descending order from a heap, and the standard ones
        come back in that order, divided by their content.  A standard
        monomial that leads one of `rows` (lead -> element, as the basis
        holds them: a slice's `Echelon`) is divided by that row as by an
        element; a row holds only standard monomials below its lead, so the
        heap still meets every monomial after those above it.

        On a memo miss the loop searches for the divisor by the rule that
        fixes the basis (see the module docstring), and keeps it in the
        memo.  A "none" answer can change only when a new leading monomial
        equals the monomial: every monomial divided while the basis grows
        has the degree being built, that of every new lead.  So the memo is
        cleared when each degree of the build starts, as no later division
        of the build meets its entries; after the build, queries fill it
        again."""
        found, by_last, guard = self._found, self._by_last, self.presentation.table._guard
        w, field = FIELD_BITS, (1 << FIELD_BITS) - 1
        constant = next(iter(by_last.get(-w, ())), None)  # a constant divides every monomial
        pop, push = heappop, heappush
        heap = [-m for m in f]
        heapify(heap)
        out = {}
        while heap:
            u = -pop(heap)
            b = f.pop(u)
            if not b:
                continue
            g = found.get(u, False)
            if g is False:
                g, rest, high = constant, u, u | guard
                while g is None and rest:
                    shift = ((rest & -rest).bit_length() - 1) // w * w
                    rest &= ~(field << shift)
                    for e in by_last.get(shift, ()):
                        if (high - e[0]) & guard == guard:
                            g = e
                            break
                found[u] = g
            if g is None and (not rows or (g := rows.get(u)) is None):
                out[u] = b
                continue
            lead, a, tail = g
            if a != 1:
                d = gcd(a, b)
                a //= d
                b //= d
                if a != 1:
                    for m in f:
                        f[m] *= a
                    for m in out:
                        out[m] *= a
            shift = u - lead
            for m, c in tail:
                m += shift
                v = f.get(m)
                if v is None:
                    f[m] = -b * c
                    push(heap, -m)
                else:
                    f[m] = v - b * c
        if out:
            d = gcd(*out.values())
            if d > 1:
                out = {m: c // d for m, c in out.items()}
        return out

    @property
    def basis(self) -> tuple:
        """The truncated Groebner basis as polynomials, in the order found.
        A variable's cap x^cap is an element of one term, and a term over a
        cap, which `Poly` arithmetic drops, is kept as it is."""
        self._leads
        table = self.presentation.table
        return tuple(Poly._of(table, dict(((lead, a),) + tail)) for lead, a, tail in self._elements)

    def normal_form(self, poly: Poly) -> Poly:
        """The normal form of a homogeneous polynomial of degree at most
        the top, up to a positive rational factor: its standard terms after
        division by the basis.  It is zero iff the polynomial lies in the
        relation ideal.  Raises StructureError for a polynomial over another
        table, whose packed fields would be read as the wrong variables."""
        self._check_table(poly)
        self._leads
        return Poly._of(self.presentation.table, self._reduce(dict(poly.packed)))

    def _check_table(self, poly: Poly):
        if poly.table != self.presentation.table:
            raise StructureError("polynomial over a different variable table than the presentation")

    def live(self, d: int) -> dict:
        """The standard degree-d monomials (see the module docstring),
        packed and ascending, each mapped to its degree-(d-1) divisors;
        every degree below is enumerated first, once."""
        layers = self._live
        while len(layers) <= d:
            e = len(layers)
            if e > 1:
                steps = layers[1]  # the standard variables
            else:
                steps = [1 << (i * FIELD_BITS) for i in range(len(self.presentation.table))]
            layer = _live_layer(e, layers[-1] if layers else None, steps)
            for m in self._leads.get(e, ()):
                layer.pop(m, None)
            layers.append(layer)
        return layers[d]


def _element(terms: dict) -> tuple:
    """(lead, a, tail) of a nonzero primitive remainder of `_reduce`, its
    terms descending: the leading monomial, its coefficient a > 0 and the
    other terms, the sign flipped where the lead was negative.  The form of
    the basis's elements and of an `Echelon`'s rows."""
    items = list(terms.items())
    if items[0][1] < 0:
        items = [(m, -c) for m, c in items]
    (lead, a), tail = items[0], tuple(items[1:])
    return lead, a, tail


class Echelon:
    """The rows of a degree slice in echelon form over its `ncols`
    standard monomials: each row is a remainder of the ring's division,
    kept under its leading monomial as `_element` makes it, primitive with
    a positive lead.  A form is reduced by the basis and by these rows in
    one pass of `GradedRing._reduce`; a row is stored as found and never
    reduced again by a later one.  Every step multiplies by a positive
    rational, so the span and the rank are exact over the rationals."""

    def __init__(self, ncols: int, ring: GradedRing):
        self.ncols = ncols
        self.ring = ring
        self.rank = 0
        self.rows = {}

    def insert(self, terms: dict) -> bool:
        """Add the packed terms (taken over and changed) to the span; True
        iff they increased the rank."""
        terms = self.ring._reduce(terms, self.rows)
        if not terms:
            return False
        row = _element(terms)
        self.rows[row[0]] = row
        self.rank += 1
        return True

    def contains(self, terms: dict) -> bool:
        """True iff the packed terms (taken over and changed) lie in the
        relation ideal plus the rational span of the rows."""
        return not self.ring._reduce(terms, self.rows)


class DegreeSpan:
    """The degree-k slice of a presented ring: its columns are the ring's
    standard monomials of degree k, and an `Echelon` holds the remainders
    of what is inserted: extra generators (ideal generators) at every
    standard shift, and single rows (mapped classes); its `GradedRing`
    owns the basis.  The relation span holds every non-standard monomial,
    so it is counted, not built.  Ranks always refer to the full column
    space.
    """

    def __init__(self, ring: GradedRing, k: int):
        self.ring = ring
        self.presentation = ring.presentation
        self.degree = k
        _check_degree(ring.presentation, k)
        standard = ring.live(k)
        self._relation_rank = ring.counts[k] - len(standard)
        self._ech = Echelon(len(standard), ring)

    @property
    def alive_monomials(self) -> tuple:
        """The ring's standard degree-k monomials, in ascending canonical
        order: the columns of the echelon."""
        return tuple(map(self.presentation.table.unpack, self.ring.live(self.degree)))

    @property
    def standard_monomials(self) -> tuple:
        """The columns that lead no row, in ascending canonical order: the
        degree-k monomials that lead no element of the span of the relations
        and of what was inserted.  There are `quotient_rank()` of them in a
        relation span, and as many as the full count less `span_rank()`
        after further inserts."""
        rows = self._ech.rows
        unpack = self.presentation.table.unpack
        return tuple(unpack(m) for m in self.ring.live(self.degree) if m not in rows)

    def _terms(self, poly: Poly) -> dict:
        """A new dict of the packed terms of a form of the slice's degree."""
        if not poly.is_zero() and poly.homogeneous_degree() != self.degree:
            raise DegreeError(
                f"expected a homogeneous polynomial of degree {self.degree}"
            )
        self.ring._check_table(poly)
        return dict(poly.packed)

    def insert_products(self, gens) -> int:
        """Insert s*g for each generator g and each standard monomial s of
        the complementary degree; returns the rank gain."""
        before = self._ech.rank
        ring, insert = self.ring, self._ech.insert
        for g in gens:
            if g.is_zero() or (d := g.homogeneous_degree()) > self.degree:
                continue
            ring._check_table(g)
            for s in ring.live(self.degree - d):
                insert({m + s: c for m, c in g.packed.items()})
        return self._ech.rank - before

    def insert(self, poly: Poly) -> bool:
        return self._ech.insert(self._terms(poly))

    def reduces_to_zero(self, poly: Poly) -> bool:
        return self._ech.contains(self._terms(poly))

    def span_rank(self) -> int:
        """Rank of everything inserted so far (relations included)."""
        return self._relation_rank + self._ech.rank

    def relation_rank(self) -> int:
        """Rank of the relation span alone at this degree."""
        return self._relation_rank

    def quotient_rank(self) -> int:
        return self._ech.ncols


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
        image = map_poly(rel, var_images, p_target.table)
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
        # the standard monomials, packed, are a basis of the source quotient
        image = sum(
            tgt_span.insert(map_poly(Poly._of(p_source.table, {m: 1}), var_images, p_target.table))
            for m in src_span.ring.live(src_span.degree)
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
