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

The relations of degree 1 are solved before any slice is built.  Over
the live variables, numbered from the largest down as a slice's columns
are, they are put in reduced echelon form (`Echelon.reduced_rows`): each
row a*x - L(x), with a > 0, leads with its largest variable x, and no
other row holds x.  Every other relation, each capped x's power x^cap,
and every extra generator and query is rewritten with each solved x
replaced by L(x)/a, times a power of a that keeps it integral, so the
rest of this docstring applies to the rewritten ring in the other
variables.  It is exact by a Groebner-basis argument in the lex order of
the slices (Cox, Little and O'Shea, "Ideals, Varieties, and Algorithms",
ch. 2-3): the rows x - L(x)/a, whose leading monomial is x as L holds
only smaller variables, together with a Groebner basis of the rewritten
ideal, which holds no solved variable, form a Groebner basis of the
relation ideal I.  So the monomials free of solved variables that the
rewritten ideal leaves standard are exactly I's standard monomials, each
rank is the same, and a form lies in I iff its rewritten form lies in the
rewritten ideal.  The solved variables, and with them their multiples,
are dead columns: each leads an element x*m - L(x)*m/a of the linear part
of I, which is not x*m itself.  A ring with no relation of degree 1
skips all of this.

Then the pure-difference binomials c*(x*w - y*w) among the relations
free of solved variables, for variables x > y and a monomial w, become
rewrite rules x*w -> y*w (`fmchow._binomials`), taken one at a time
while the rules stay confluent: every S-pair of two rules whose leading
monomials share a variable, at or below the top degree, must reduce to
zero under the rules and the killers (below).  A binomial that fails
stays an ordinary relation.  Modulo the rules' ideal B each monomial m is
congruent to exactly one normal form NF(m) that no rule rewrites, and
NF(m) <= m in the lex order of the slices.  So the ring works in
k[x]/(B), whose basis is B's standard monomials (Eisenbud and Sturmfels,
"Binomial ideals", 1996; Cox, Little and O'Shea, ch. 2-3): each rule's
leading monomial x*w is dead at its degree, as a solved variable is, and
every product term, relation term and query term is read at its NF.  On
a presentation of P^d with d >= 2 most relations are such binomials: the
diagonal ones g*D_S for g = h_a - h_min(S), and g*E at each wall
crossing of the iterated build.  A ring that takes no rule skips all of
this.

A degree slice builds no dead column.  The dead columns of degree k are
the degree-k monomials of a monomial ideal J, fixed by the presentation
before any span is built.  J is generated by the monomials known dead at
their degree: each capped variable's vanishing power x_i^cap, the
single-term relations ("killers"), the solved variables, the rules'
leading monomials, and the normal forms that the closure below adds.
Apart from the multiples of the solved variables and of the leading
monomials, which lead elements of the linear part of I and of B, J lies
inside the relation ideal I: a monomial the closure adds is NF(q*g) for
a monomial g of J inside I, congruent to q*g modulo B, which lies in I.
As J_k lies in I_k + B_k, the relation rank of degree k is dim J_k plus
the rank of the relation rows modulo J_k, and a form lies in the span iff
the live terms of its NF do.  No span changes another's columns.

J stays closed under the multiplication of k[x]/(B): for every monomial m
of J inside I and every monomial q, NF(q*m) lies in J.  To that end each
monomial g of J inside I that a layer kills while it is live -- a killer,
or one this rule adds -- also kills NF(lcm(x*w, g)) at its degree, for
each rule x*w -> y*w such that x's exponent in g exceeds its exponent in
w.  That is the S-pair of the rule and g; with all of them reduced to
zero, the rules and J's generators inside I are a Groebner basis of the
ideal they generate, which holds q*m, so NF(q*m) reduces to zero by a
generator alone: one divides it.  A monomial of J inside I that is no
such g is a multiple of one.

The live columns are J's standard monomials, enumerated degree by degree by one rule: a degree-d
monomial is live iff each of its degree-(d-1) divisors is live and it is
not among the monomials known dead at degree d.  So a divisor of a live
monomial is live, and a multiple of a dead one is dead.  Every relation is
multiplied only by live monomials: a product with a shift in J has every
term in J, and its row is zero modulo J_k, or is congruent modulo B to the
product with the shift's NF, whose signature is smaller.  A `GradedRing`
owns the slices of one presentation and is the one place that decides
which monomials are dead.  It counts the full basis of each degree by a small DP over the
variables, so the monomial cap refuses on that count -- all monomials,
live or dead -- before anything is built; it sorts the relations and
enumerates the live monomials of a degree once for all its slices.  Every
query walks the spans of a ring through `map`, in ascending degree, so
one span of a ring is alive at a time.

Nor does a slice build a row that is bound to be empty or to lie in the
span of the rows before it.  It inserts its relation rows in signature
order: the relations f_1, f_2, ... in `packed_relations` order (sparse
first), and the shifts of one relation ascending.  The row m*f_j has the
signature (j, m), compared by j and then by m as a packed integer.  That
order on monomials is lex, and it is a monomial order, since the packed
fields never carry: m < m' gives q*m < q*m'.  Each relation f_j is
multiplied only by its shift layer of the shift degree e, which climbs the
degrees as the live layers do: it holds the live degree-e monomials whose
degree-(e-1) divisors all lie in f_j's layer below, and the span of degree
e + deg f_j drops from it every shift whose row was empty or reduced to
zero.  So a live shift is missing from its layer exactly when it is a
multiple of a dropped shift, and one rule (F5's rewritten criterion; Gao,
Volny and Wang's signature-based Groebner bases) skips the multiples of
empty and zero rows alike.

An empty row s*f_j has every term on a dead column, and so has every
multiple q*s*f_j, as J is closed under the ring's multiplication.  A row
s*f_j of some degree e that reduces to zero is a syzygy.  Only rows of
smaller signature went in before it, so its reduction to zero says

    s*f_j = sum of c*s'*f_i over (i, s') < (j, s), modulo B + J_e.

Multiplied by q, the identity writes q*s*f_j through the rows q*s'*f_i,
modulo B + q*J_e.  Each of those is the row at NF(q*s'), whose signature
(i, NF(q*s')) is still below (j, q*s), as NF(q*s') <= q*s' < q*s when
i = j.  And q*J_e lies in J_k, as J is an ideal.

By induction over the signatures, every multiple of degree k lies in the
span of the built rows of signature up to its own, modulo J_k: a multiple
at a dead shift, or at a multiple of an empty row's shift, has every term
dead, a built row lies there, and a multiple of a zero row's shift is a
combination of rows of smaller signature.  So the span, and every rank, is
exactly that of all the multiples.  An equal row is not filtered out: it
reduces to zero and is dropped like any other.

The order is what makes the criterion sound.  Rows inserted shortest first
reduce to zero against rows of any signature.  A dropped row's identity may
then use a row of larger signature, whose multiple is skipped by another
identity that uses the first row's multiple: the two skips vouch for each
other, and neither row is in the span.  Dropping zero rows under that
order made the top degree of (1,4) all-large 8 instead of 1.

F5's other criterion, which skips m*f_j when the leading monomial (LM, the
largest packed term) of an earlier f_i divides m, is not applied: the shift
layers catch its pairs one degree up.  Writing m = LM(f_i)*m',

    m*f_j = m'*f_i*f_j - m'*tail(f_i)*f_j,

the first part is a combination of rows of f_i, whose signatures (i, .)
have i < j, and the second a combination of rows of f_j at shifts below m.
So the row LM(f_i)*f_j, at m' = 1, is empty or reduces to zero when it is
built, and LM(f_i) is dropped from f_j's shift layer: the spans above skip
its multiples.  In a ring whose spans are built from degree 0 up, the lead
criterion would save only that one row per pair.

Extra generators (`insert_products`) follow the relations in the same
order, at every live shift, and drop nothing, as a query's generators are
not the ring's.

Monomials in a slice are the packed integers of `Poly` itself, so a
relation's terms go into rows as they are.  The field width comes from the
variable table (see `fmchow.polyalg`): the exponent of variable i sits at
bit i*w, and ascending integer order is the canonical basis order.  A ring
refuses a top degree of 2**w or more; below it every exponent of a degree-k
monomial is at most k < 2**w, so the product of a relation term and a shift
whose degrees add up to k is one integer addition that never carries from
one field into the next.  A product term over a variable cap, or on a dead
column, is absent from the index of live columns; one the rules rewrite
is looked up again at its NF, and any other is dropped.  A relation's
terms are put in normal form and cut to those live at its own degree
once, when its first span asks: a term dead there is dead in every
multiple.

A slice's columns run the other way: column 0 is its largest live
monomial.  The echelon pivots a row on its first column, which is then the
row's leading monomial in the lex order the signatures are compared by.
Relation terms are kept in descending order, leading monomial first, so a
row's columns come out ascending as they are.  Nothing above depends on the
column order: a zero row means the same under any order, so every rank
and answer is the same under each; only how much reduction a row takes
varies with it.
Under this order a pivot row, which lies in the span, leads with its first
column, so the live columns without a pivot are the standard monomials of
the span, those that lead none of its elements: the dead ones all lie in
it.

The oracle (`rank_oracle`) never touches polynomials: it walks the large
family superset-first and applies the additive rank decomposition of a
blow-up, rank_k(after) = rank_k(before) + sum over i = 1..codim-1 of
rank_{k-i}(center), where the center is again a compactification on the
merged index set.  Agreement between `graded_ranks` of a built
presentation and `rank_oracle` is the package's central soundness check.
"""

from __future__ import annotations

from functools import cached_property, lru_cache

from fmchow._binomials import BinomialRules, unit_move
from fmchow._elim import Echelon
from fmchow.errors import DegreeError, MapError, SizeCapError, StructureError
from fmchow.polyalg import Poly, Presentation
from fmchow.setcomb import LargeFamily, canonical_walk, merge_family

RankTable = list


def _check_degree(p: Presentation, k: int):
    if not 0 <= k <= p.top_degree:
        raise ValueError(f"degree {k} outside 0..{p.top_degree}")


def monomials_of_degree(p: Presentation, k: int) -> list:
    """All degree-k exponent tuples of the presentation's variables, in
    ascending canonical order: the live monomials of the ring with the same
    variables and no relations, where only the caps kill."""
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


def _live_layer(d: int, below: dict, steps, width: int, top: bool) -> dict:
    """Every degree-d monomial q*x with x one of the packed variables
    `steps` (ascending) whose degree-(d-1) divisors all lie in `below`,
    packed and ascending, each mapped to the tuple of those divisors, or
    to None at the ring's `top` degree, whose divisors nothing reads.

    `below` is a layer of degree d-1 (None at d = 0).  A monomial is built
    once, as q*x_i with x_i its last variable; its divisors are q's times
    x_i, and q itself when x_i is new.  For each x_i in turn, the q with no
    variable after x_i are a prefix of `below`, and the products come out
    ascending.  Above degree 1 the steps need only be the live variables:
    a multiple of a dead variable has a divisor one degree down that holds
    it, which is dead.
    """
    if d == 0:
        return {0: ()}
    has = below.__contains__
    out = {}
    for step in steps:
        bound = step << width  # the first monomial with a variable after x_i
        for q, divisors in below.items():
            if q >= bound:
                break
            divisors = tuple(map(step.__add__, divisors))
            if q < step:  # x_i is not in q
                divisors += (q,)
            if all(map(has, divisors)):
                out[q + step] = None if top else divisors
    return out


class _LinearPart:
    """The degree-1 relations of a ring in reduced echelon form, each row
    a*x = (the rest of its row) solved for its leading variable x, and the
    rewriting that puts the rest of the row in place of each solved
    variable (see the module docstring).

    The rows are those of the live degree-1 variables, numbered from the
    largest down as a span's columns are, so each row leads with its
    largest variable and holds no other solved one."""

    def __init__(self, rows, killers, table):
        w = table.width
        dead = set(killers.get(1, ()))
        columns = [v for v in (1 << (i * w) for i in reversed(range(len(table)))) if v not in dead]
        index = {v: c for c, v in enumerate(columns)}
        ech = Echelon(len(columns))
        for row in rows:
            entries = sorted((index[m], c) for m, c in row.items() if m in index)
            if entries:
                ech.insert([c for c, _ in entries], [v for _, v in entries])
        #: solved variable -> (a, [(y, c), ...]) with a*x = sum of c*y modulo I
        self.solved = {
            columns[lead]: (coeffs[0], [(columns[c], -v) for c, v in zip(cols[1:], coeffs[1:])])
            for lead, (cols, coeffs) in ech.reduced_rows().items()
        }
        field = (1 << w) - 1
        self.mask = 0  # the fields of the solved variables
        for x in self.solved:
            self.mask |= x * field
        self._field, self._width, self._table = field, w, table
        # the killers free of solved variables by each variable y they hold:
        # the fields of the z with y*z a killer, and the other killers
        killers_of = {}
        for monomials in killers.values():
            for g in monomials:
                if g & self.mask:
                    continue
                rest = g
                while rest:
                    shift = ((rest & -rest).bit_length() - 1) // w * w
                    rest &= ~(field << shift)
                    y = 1 << shift
                    of = killers_of.setdefault(y, [0, []])
                    z = g - y
                    if z % field == 1:  # degree 1: z is a variable
                        of[0] |= field << (z.bit_length() - 1)
                    else:
                        of[1].append(g)
        self._killers_of = killers_of
        self._expansions = {}  # see `_expansion`

    def _expansion(self, s: int) -> list:
        """The packed terms of the product of the rests of the solved
        variables in the monomial s, each to its exponent in s, made once:
        one degree-1 factor y at a time, dropping a product term u = t*y as
        soon as it is known dead where t is not, as its multiples are dead
        too.  That is when a cap divides u, or a killer, which then holds
        y."""
        got = self._expansions.get(s)
        if got is None:
            w, field, killers_of = self._width, self._field, self._killers_of
            table = self._table
            bias, guard = table._bias, table._guard
            over_cap, divides = table.over_cap, table.divides
            partial = {0: 1}
            hit = s
            while hit:
                shift = ((hit & -hit).bit_length() - 1) // w * w
                e = (hit >> shift) & field
                hit -= e << shift
                factor = [(y, b, *killers_of.get(y, (0, ()))) for y, b in self.solved[1 << shift][1]]
                for _ in range(e):
                    product = {}
                    for t, c in partial.items():
                        for y, b, fields, others in factor:
                            u = t + y
                            if (
                                (u + bias) & guard and over_cap(u)
                                or t & fields
                                or others and any(divides(g, u) for g in others)
                            ):
                                continue
                            product[u] = product.get(u, 0) + c * b
                    partial = product
            got = self._expansions[s] = [(u, c) for u, c in partial.items() if c]
        return got

    def rewrite(self, packed: dict) -> dict:
        """Packed terms with every solved variable x replaced by its row's
        rest over a, times the product over the solved x of a**(the largest
        exponent of x), so the result stays integral.  Terms free of solved
        variables come back as they are.  A term's solved part is replaced
        by its `_expansion`, and a product with the rest of the term over a
        variable cap is dropped; the row builder drops any other product
        term in J."""
        mask = self.mask
        if not any(m & mask for m in packed):
            return packed
        field, bias, guard = self._field, self._table._bias, self._table._guard
        # (shift, a, largest exponent) of each solved variable whose lead a is not 1
        scales = []
        for x, (a, _) in self.solved.items():
            if a != 1:
                shift = x.bit_length() - 1
                scales.append((shift, a, max((m >> shift) & field for m in packed)))
        out = {}
        for m, c in packed.items():
            for shift, a, most in scales:
                c *= a ** (most - ((m >> shift) & field))
            hit = m & mask
            if not hit:
                out[m] = out.get(m, 0) + c
                continue
            rest = m - hit
            for u, b in self._expansion(hit):
                u += rest
                if rest and (u + bias) & guard and self._table.over_cap(u):
                    continue
                out[u] = out.get(u, 0) + c * b
        return {u: c for u, c in out.items() if c}


class GradedRing:
    """The one owner of a presentation's degree slices and of what they share:
    the monomial counts, made at once for the cap check, then on first use the
    monomials known dead at each degree, the binomial rules, the other
    relations' packed terms and each degree's live monomials.  It alone
    decides which monomials are dead, by deleting the rules' leading
    monomials and the killers from each live layer as it enumerates it.
    Before it enumerates a layer it kills what the rules' S-pairs with the
    monomials killed one degree down ask for, so that J stays closed under
    the ring's multiplication.  It also keeps each relation's shift layers,
    from which the spans drop the shifts whose rows were empty or reduced
    to zero (see the module docstring).  Packed monomials are those of the
    presentation's table."""

    #: None until `_split` looks for a linear part, then the ring's
    #: `_LinearPart`, or False when it has none
    _linear = None
    #: None until `_split` looks for binomial rules, then the ring's
    #: `BinomialRules`, or False when it keeps none
    _rules = None

    def __init__(self, p: Presentation):
        self.presentation = p
        self.width = p.table.width
        if p.top_degree >> self.width:
            raise StructureError(
                f"top degree {p.top_degree} does not fit the packed field of {self.width} bits"
            )
        self.counts = _monomial_counts(p.table.caps(), p.top_degree)  # live or dead
        self._live = []  # live layer of each degree enumerated so far, ascending

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
    def _split(self) -> tuple:
        """(killers, packed relations): degree -> the packed monomials known
        dead at that degree before any span is built, and the other
        relations as `packed_polys` gives them.

        The dead monomials are each capped variable's power x_i^cap and the
        single-term relations.  When the relations of degree 1 (a packed
        monomial of degree 1 is 1 modulo 2**w - 1) solve for a variable,
        the ring keeps their `_LinearPart` in `_linear`, and the dead ones
        are instead those free of solved variables, the solved variables
        and the rewritten relations of one term: every other relation,
        and the cap x^cap of a solved x, is rewritten, and those of degree
        1 rewrite to zero.  The pure-difference binomials c*(x*w - y*w)
        free of solved variables, x > y, that keep the rules x*w -> y*w
        confluent are taken as rules, which the ring keeps in `_rules`, and
        the killers and every other relation are put in normal form."""
        p = self.presentation
        killers = {}
        for i, cap in enumerate(p.table.caps()):
            if cap is not None:
                killers.setdefault(cap, set()).add(cap << (i * self.width))
        field = (1 << self.width) - 1
        rows = []
        for r in p.relations:
            if len(r.packed) == 1:
                killers.setdefault(r.homogeneous_degree(), set()).update(r.packed)
            elif next(iter(r.packed)) % field == 1:
                rows.append(r.packed)
        linear = _LinearPart(rows, killers, p.table) if rows else None
        self._linear = linear if linear and linear.solved else False
        mask = 0
        polys = [r for r in p.relations if len(r.packed) > 1]
        if self._linear:
            mask, caps = linear.mask, p.table.caps()
            killers = {d: {m for m in ms if not m & mask} for d, ms in killers.items()}
            killers.setdefault(1, set()).update(linear.solved)
            polys = [r for r in p.relations if len(r.packed) > 1 or any(m & mask for m in r.packed)]
            for x in linear.solved:
                cap = caps[(x.bit_length() - 1) // self.width]
                if cap is not None:
                    polys.append(Poly._of(p.table, linear.rewrite({cap * x: 1})))
        rules = None
        others = []
        for r in polys:
            if len(r.packed) == 2:
                (m, c), (n, b) = r.packed.items()
                pair = c == -b and not (m | n) & mask and unit_move(max(m, n), min(m, n), self.width)
                if pair and m % field <= p.top_degree:
                    if rules is None:
                        rules = BinomialRules(p.table, p.top_degree)
                        dead = [g for ms in killers.values() for g in ms]
                    if rules.accept(*pair, dead):
                        continue
            others.append(r)
        self._rules = rules if rules and rules.leads else False
        if self._rules:
            self._fresh = {}  # degree -> the monomials killed there while live
            killers = {d: set(map(rules.reduce, ms)) for d, ms in killers.items()}
        relations = []
        for dg, terms in self.packed_polys(others):  # in normal form
            if len(terms) == 1:
                killers.setdefault(dg, set()).add(terms[0][0])
            else:
                relations.append((dg, terms))
        return killers, relations

    @property
    def packed_relations(self) -> list:
        """The relations other than killers and rules, as `packed_polys`
        gives them: rewritten when the ring has a linear part, and in normal
        form when it has binomial rules (see `_split`)."""
        return self._split[1]

    @cached_property
    def _shift_layers(self) -> list:
        """One list per packed relation of its shift layers, by degree."""
        return [[] for _ in self.packed_relations]

    @cached_property
    def _live_terms(self) -> list:
        """One entry per packed relation: None until `live_terms` makes it."""
        return [None] * len(self.packed_relations)

    def live_terms(self, j: int) -> list:
        """Packed relation j's terms less those dead at its own degree,
        made once, when its first span asks.  A term dead there is dead in
        every multiple of the relation, as J is closed under the ring's
        multiplication (see the module docstring)."""
        got = self._live_terms[j]
        if got is None:
            dg, terms = self.packed_relations[j]
            layer = self.live(dg)
            got = self._live_terms[j] = [(t, c) for t, c in terms if t in layer]
        return got

    def live(self, d: int) -> dict:
        """The live degree-d monomials (see the module docstring), packed
        and ascending, each mapped to its degree-(d-1) divisors (None at
        the top degree); every degree below is enumerated first, once.  A
        layer is the divisor-closed extension of the one below, less what
        `_split` knows dead at its degree and what the rules' S-pairs with
        the monomials killed one degree down kill there."""
        layers = self._live
        while len(layers) <= d:
            e = len(layers)
            if e > 1:
                steps = layers[1]  # the live variables
            else:
                steps = [1 << (i * self.width) for i in range(len(self.presentation.table))]
            top = e == self.presentation.top_degree
            killers = self._split[0]
            rules = self._rules
            if rules and e and (below := self._fresh.pop(e - 1)):
                rules.close(below, killers)
            layer = _live_layer(e, layers[-1] if layers else None, steps, self.width, top)
            for m in rules.leads.get(e, ()) if rules else ():
                layer.pop(m, None)
            fresh = [m for m in killers.get(e, ()) if m in layer]  # killed while live
            for m in fresh:
                del layer[m]
            if rules:
                self._fresh[e] = fresh
            layers.append(layer)
        return layers[d]

    def shift_layer(self, j: int, e: int) -> dict:
        """The shifts of degree e that packed relation j is multiplied by
        (see the module docstring): the live monomials whose degree-(e-1)
        divisors all lie in its layer below, less those a span dropped.
        Every degree below is built first, once.  The layer is the ring's
        live layer itself until the relation's first drop at or below its
        degree.  Callers read it and do not change it.

        A packed relation has degree 1 or more, as a form of degree 0 is
        one term, a killer; so e stays below the top degree, whose live
        layer keeps no divisors."""
        if 0 < self.presentation.top_degree <= e:
            raise ValueError(f"no shift layer at degree {e}, the top degree or above")
        layers = self._shift_layers[j]
        while len(layers) <= e:
            d = len(layers)
            layer = self.live(d)
            if d and layers[-1] is not self._live[d - 1]:
                has = layers[-1].__contains__
                layer = {m: v for m, v in layer.items() if all(map(has, v))}
            layers.append(layer)
        return layers[e]

    def _drop_shifts(self, j: int, e: int, shifts):
        """Delete shifts from relation j's layer of degree e, copying the
        ring's live layer at the first drop from it."""
        layers = self._shift_layers[j]
        if layers[e] is self._live[e]:
            layers[e] = dict(layers[e])
        for m in shifts:
            del layers[e][m]

    def packed_terms(self, poly: Poly) -> list:
        """(packed monomial, coefficient) pairs of a polynomial, rewritten
        by the ring's linear part if it has one and in normal form under its
        binomial rules, descending: the first term is the leading monomial.
        Raises StructureError for a polynomial over another table, whose
        packed fields would be read as the wrong variables."""
        if poly.table != self.presentation.table:
            raise StructureError("polynomial over a different variable table than the presentation")
        if self._linear is None:  # the relations are not split yet
            self._split
        packed = self._linear.rewrite(poly.packed) if self._linear else poly.packed
        if self._rules:
            packed = self._rules.rewrite(packed)
        return sorted(packed.items(), reverse=True)

    def packed_polys(self, polys) -> list:
        """(degree, packed terms) of each polynomial whose terms are not all
        rewritten away, sparse first (stable); the first term is the
        leading monomial."""
        packed = [(g.homogeneous_degree(), self.packed_terms(g)) for g in polys if not g.is_zero()]
        return sorted((pair for pair in packed if pair[1]), key=lambda pair: len(pair[1]))


class DegreeSpan:
    """The degree-k slice of a presented ring: its live columns and the
    row span of relation multiples over them, held in an incremental
    echelon form; its `GradedRing` owns what the slices share.  Its
    columns are the ring's live layer of degree k, largest first, so each
    row is pivoted on its leading monomial, and the monomials the ring
    knows dead are no columns.  Relation rows go in in signature
    order, each relation's at the shifts of its shift layer on the ring,
    and a shift whose row is empty or reduces to zero is dropped from that
    layer (see the module docstring).  Extra generators (ideal generators)
    can be inserted afterwards at every live shift, and single rows
    (mapped classes) as well.  The full basis is counted, not built.
    Ranks always refer to the full column space.
    """

    def __init__(self, ring: GradedRing, k: int):
        self.ring = ring
        self.presentation = ring.presentation
        self.degree = k
        _check_degree(ring.presentation, k)
        self._count = ring.counts[k]
        alive = ring.live(k)
        # descending: column 0 is the largest live monomial
        self._alive_index = {m: i for i, m in enumerate(reversed(alive))}
        self._dead = self._count - len(alive)
        self._rows_inserted = 0
        self._products_skipped = 0
        self._syzygies_found = 0
        self._ech = Echelon(len(alive))
        self._insert_products(ring.packed_relations, True)
        self._relation_rank = self._dead + self._ech.rank

    @property
    def alive_monomials(self) -> tuple:
        """The ring's live degree-k monomials, in ascending canonical order:
        the columns of the echelon, last first."""
        return tuple(map(self.presentation.table.unpack, reversed(self._alive_index)))

    @property
    def standard_monomials(self) -> tuple:
        """The live monomials with no pivot, in ascending canonical order:
        the degree-k monomials that lead no element of the span, as every
        dead monomial lies in it.  There are `quotient_rank()` of them in a
        relation span, and as many as the full count less `span_rank()`
        after further inserts."""
        pivots = self._ech.pivot_columns
        index = self._alive_index
        unpack = self.presentation.table.unpack
        return tuple(unpack(m) for m in reversed(index) if index[m] not in pivots)

    @property
    def rows_inserted(self) -> int:
        """Rows handed to the echelon so far, relation multiples included.
        It depends on the insertion order, as the skips do."""
        return self._rows_inserted

    @property
    def products_skipped(self) -> int:
        """Live multiples of relations not built because their shift is
        missing from the relation's shift layer: a multiple of a shift whose
        row was empty or reduced to zero in a span below.  It depends on the
        insertion order, which decides the rows that reduce to zero."""
        return self._products_skipped

    @property
    def syzygies_found(self) -> int:
        """Relation rows of this span that reduced to zero, each a syzygy
        whose shift is dropped from its relation's shift layer, so the
        spans above skip its multiples.  It depends on the insertion order,
        as `products_skipped` does."""
        return self._syzygies_found

    def _row(self, terms, shift: int = 0):
        """Coefficient row of packed terms times a packed monomial shift
        over the live columns, as parallel (cols, coeffs) lists.  A product
        term off the live index is looked up again at its NF, and when one
        is found there the row's equal columns are merged and sorted.
        Otherwise the cols ascend as they are, because the terms descend and
        the live index reverses the packed order."""
        index = self._alive_index
        rules = self.ring._rules
        reduce = rules.reduce if rules else None
        cols = []
        coeffs = []
        moved = False
        for t, c in terms:
            col = index.get(t + shift)
            if col is None:
                if reduce is None:
                    continue
                u = t + shift
                v = reduce(u)
                if v == u:
                    continue
                col = index.get(v)
                if col is None:
                    continue
                moved = True
            cols.append(col)
            coeffs.append(c)
        if moved:
            merged = {}
            for col, c in zip(cols, coeffs):
                merged[col] = merged.get(col, 0) + c
            cols = sorted(col for col, c in merged.items() if c)
            coeffs = [merged[col] for col in cols]
        return cols, coeffs

    def _insert_products(self, packed, relations: bool):
        """Insert the multiples of packed polynomials in signature order:
        the polynomials in turn, each one's shifts ascending.  The ring's
        relations (`relations` true) are multiplied by their shift layers,
        and each shift whose row is empty or reduces to zero is dropped from
        its layer (see the module docstring).  Extra generators are
        multiplied by every live shift and drop nothing, as a query's
        generators are not the ring's.

        Spans built out of ascending order stay exact: a shift layer built
        before a span drops shifts from the layer below it keeps their
        multiples, so more rows are built, never fewer."""
        ring = self.ring
        insert = self._ech.insert
        for j, (dg, terms) in enumerate(packed):
            if dg > self.degree:
                continue
            if relations:
                terms = ring.live_terms(j)
            e = self.degree - dg
            live = ring.live(e)
            shifts = ring.shift_layer(j, e) if relations else live
            self._products_skipped += len(live) - len(shifts)
            dropped = []
            for shift in shifts:
                cols, coeffs = self._row(terms, shift)
                if cols:
                    self._rows_inserted += 1
                    if insert(cols, coeffs):
                        continue
                    self._syzygies_found += relations
                dropped.append(shift)
            if relations and dropped:
                ring._drop_shifts(j, e, dropped)

    def vector(self, poly: Poly):
        terms = self.ring.packed_terms(poly)
        if not poly.is_zero() and poly.homogeneous_degree() != self.degree:
            raise DegreeError(
                f"expected a homogeneous polynomial of degree {self.degree}"
            )
        return self._row(terms)

    def insert_products(self, gens) -> int:
        """Insert g*m rows for extra generators at every live shift m;
        returns the rank gain."""
        before = self._ech.rank
        self._insert_products(self.ring.packed_polys(gens), False)
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
        # a dead monomial lies in the source ideal (a multiple of a cap, a
        # killer or a monomial their closure under the rules kills), or is
        # congruent modulo it to a combination of live ones (a solved
        # variable's multiple, or a rule's leading monomial's): the live
        # ones span the source quotient
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
