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

The oracle (`rank_oracle`) never touches polynomials: it walks the large
family superset-first and applies the additive rank decomposition of a
blow-up, rank_k(after) = rank_k(before) + sum over i = 1..codim-1 of
rank_{k-i}(center), where the center is again a compactification on the
merged index set.  Agreement between `graded_ranks` of a built
presentation and `rank_oracle` is the package's central soundness check.
"""

from __future__ import annotations

from functools import lru_cache

from fmchow._elim import Echelon
from fmchow.errors import DegreeError, MapError, SizeCapError
from fmchow.polyalg import Poly, Presentation, _mono_key
from fmchow.setcomb import LargeFamily, canonical_walk, merge_family

RankTable = list


def _exponents(caps, k):
    """All exponent tuples of total degree k respecting per-variable caps
    (cap = smallest vanishing power, None = unbounded); degree-1 variables
    only."""
    nvars = len(caps)
    out = []
    exps = [0] * nvars

    def rec(i, remaining):
        if i == nvars - 1:
            if caps[i] is None or remaining < caps[i]:
                exps[i] = remaining
                out.append(tuple(exps))
                exps[i] = 0
            return
        top = remaining if caps[i] is None else min(remaining, caps[i] - 1)
        for e in range(top + 1):
            exps[i] = e
            rec(i + 1, remaining - e)
        exps[i] = 0

    rec(0, k)
    return out


def monomials_of_degree(p: Presentation, k: int) -> list:
    """All degree-k exponent tuples of the presentation's variables, in
    ascending canonical order."""
    if not 0 <= k <= p.top_degree:
        raise ValueError(f"degree {k} outside 0..{p.top_degree}")
    if any(v.degree != 1 for v in p.table.vars):
        raise ValueError("monomial enumeration supports degree-1 variables only")
    return sorted(_exponents(p.table.caps(), k), key=_mono_key)


def _divides(lower, upper) -> bool:
    return all(a <= b for a, b in zip(lower, upper))


class DegreeSpan:
    """The degree-k slice of a presented ring: the monomial basis and the
    row span of relation multiples, held in an incremental echelon form.

    Single-monomial relations are handled as a column filter (each such
    relation times a monomial is a unit row, so every monomial divisible
    by one is dead); this is ordinary elimination done cheaply and keeps
    the echelon small.  Extra rows (ideal generators, mapped classes) can
    be inserted afterwards; ranks always refer to the full column space.
    """

    def __init__(self, p: Presentation, k: int, monomial_cap: int = None):
        self.presentation = p
        self.degree = k
        self.monomials = monomials_of_degree(p, k)
        if monomial_cap is not None and len(self.monomials) > monomial_cap:
            raise SizeCapError(
                f"degree {k} has {len(self.monomials)} monomials, "
                f"over the cap of {monomial_cap}"
            )
        killers = []
        generic = []
        for rel in p.relations:
            if len(rel.terms) == 1:
                killers.append(next(iter(rel.terms)))
            else:
                generic.append(rel)
        alive = []
        for m in self.monomials:
            if any(_divides(klr, m) for klr in killers):
                continue
            alive.append(m)
        self._alive_index = {m: i for i, m in enumerate(alive)}
        self._dead = len(self.monomials) - len(alive)
        self._ech = Echelon(len(alive))
        rows = self._product_rows(generic)
        rows.sort(key=lambda row: (len(row[0]), row[0], row[1]))
        for cols, coeffs in rows:
            self._ech.insert(cols, coeffs)
        self._relation_rank = self._dead + self._ech.rank

    @property
    def alive_monomials(self) -> tuple:
        """Basis monomials not killed by a single-term relation, in column
        order: the columns of the echelon."""
        return tuple(self._alive_index)

    def _row(self, poly: Poly, shift=None):
        """Coefficient row of poly (times an optional monomial shift) over
        the alive basis, as sorted parallel (cols, coeffs) lists."""
        caps = self.presentation.table.caps()
        index = self._alive_index
        entries = {}
        for exps, coeff in poly.terms.items():
            if shift is not None:
                exps = tuple(a + b for a, b in zip(exps, shift))
                if any(c is not None and e >= c for e, c in zip(exps, caps)):
                    continue
            col = index.get(exps)
            if col is None:
                continue  # dead column: already in the span
            entries[col] = entries.get(col, 0) + coeff
        cols = sorted(c for c in entries if entries[c])
        return cols, [entries[c] for c in cols]

    def _product_rows(self, polys):
        rows = []
        caps = self.presentation.table.caps()
        for g in polys:
            if g.is_zero():
                continue
            dg = g.homogeneous_degree()
            if dg > self.degree:
                continue
            for shift in sorted(_exponents(caps, self.degree - dg), key=_mono_key):
                cols, coeffs = self._row(g, shift)
                if cols:
                    rows.append((cols, coeffs))
        return rows

    def vector(self, poly: Poly):
        if poly.is_zero():
            return [], []
        if poly.homogeneous_degree() != self.degree:
            raise DegreeError(
                f"expected a homogeneous polynomial of degree {self.degree}"
            )
        return self._row(poly)

    def insert_products(self, gens) -> int:
        """Insert g*m rows for extra generators; returns the rank gain."""
        before = self._ech.rank
        rows = self._product_rows(list(gens))
        rows.sort(key=lambda row: (len(row[0]), row[0], row[1]))
        for cols, coeffs in rows:
            self._ech.insert(cols, coeffs)
        return self._ech.rank - before

    def insert(self, poly: Poly) -> bool:
        cols, coeffs = self.vector(poly)
        if not cols:
            return False
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
        return len(self.monomials) - self._relation_rank


def graded_ranks(p: Presentation, monomial_cap: int = None) -> RankTable:
    """Exact rank of each graded piece of the presented quotient, degrees
    0..top_degree."""
    return [
        DegreeSpan(p, k, monomial_cap).quotient_rank()
        for k in range(p.top_degree + 1)
    ]


def membership(p: Presentation, gens, f: Poly, monomial_cap: int = None) -> bool:
    """Rational ideal membership of f in <gens> inside the presented ring.

    True iff f lies in the span of generator and relation multiples at its
    degree.  A False answer is sound over the integers as well; a True
    answer certifies membership over the rationals only.  Classes above
    the top degree are zero by convention, hence members.
    """
    if f.is_zero():
        return True
    k = f.homogeneous_degree()
    if k > p.top_degree:
        return True
    span = DegreeSpan(p, k, monomial_cap)
    span.insert_products(gens)
    return span.reduces_to_zero(f)


def ideal_ranks(p: Presentation, gens, monomial_cap: int = None) -> RankTable:
    """Per-degree rank of the ideal generated by `gens` inside the
    presented quotient ring."""
    out = []
    for k in range(p.top_degree + 1):
        span = DegreeSpan(p, k, monomial_cap)
        out.append(span.insert_products(gens))
    return out


def map_poly(poly: Poly, images: dict, target: Presentation) -> Poly:
    """Push a polynomial through a variable substitution into the target
    presentation's ring."""
    out = Poly.zero(target.table)
    one = Poly.constant(target.table, 1)
    for exps, coeff in sorted(poly.terms.items()):
        term = one * coeff
        for name, e in zip(poly.table.names(), exps):
            if e:
                term = term * images[name] ** e
        out = out + term
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
    the target ideal (rational membership; checked, MapError otherwise).
    Kernel rank at degree k is source quotient rank minus the rank of the
    image of the source basis monomials in the target quotient.  Degrees
    above the target's top degree have zero image.
    """
    for name in p_source.table.names():
        img = var_images.get(name)
        if img is None:
            raise MapError(f"no image given for variable {name!r}")
        if not img.is_zero() and img.homogeneous_degree() != 1:
            raise DegreeError(f"image of {name!r} must be homogeneous of degree 1")
    for rel in p_source.relations:
        img = map_poly(rel, var_images, p_target)
        if not membership(p_target, [], img, monomial_cap):
            raise MapError(
                f"map is not well defined: relation {rel} does not map into "
                "the target ideal",
                offending=rel,
            )
    out = []
    for k in range(p_source.top_degree + 1):
        src_span = DegreeSpan(p_source, k, monomial_cap)
        src_rank = src_span.quotient_rank()
        if k > p_target.top_degree:
            out.append(src_rank)
            continue
        tgt_span = DegreeSpan(p_target, k, monomial_cap)
        image = 0
        # dead monomials are zero in the source quotient and contribute nothing
        for m in src_span.alive_monomials:
            img = map_poly(
                Poly.monomial(p_source.table, m), var_images, p_target
            )
            if not img.is_zero() and tgt_span.insert(img):
                image += 1
        out.append(src_rank - image)
    return out


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
