"""Intersection-theoretic input data for X = P^d.

The Chow ring of (P^d)^n is Z[h_1..h_n] with h_i^(d+1) = 0, where h_i is
the hyperplane class pulled back from the i-th factor.  This module
supplies the classes attached to diagonals: the ideal cutting out a
diagonal, the class of a pairwise diagonal, and Chern polynomials of
diagonals, built from the tangent Chern classes c(TP^d) = (1+h)^(d+1).

Sign convention: by default the pairwise Chern polynomial carries leading
coefficient (-1)^d, i.e. it is the monic Chern polynomial evaluated at -t;
with `monic=True` the plain monic form is produced instead.  The two
conventions give presentations that differ by the sign flip of every
divisor variable, hence identical graded ranks (covered by tests).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import comb

from fmchow.errors import StructureError
from fmchow.polyalg import MAX_DEGREE, ChernPoly, Poly, Var, VarTable, chern_mul, divisor_name
from fmchow.setcomb import LargeFamily


@dataclass(frozen=True)
class ProjectiveGeometry:
    """Dimension d of the projective factor, number n of marked points,
    and the Chern-polynomial sign convention."""

    dim: int
    n: int
    monic: bool = False

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dimension must be positive")
        if self.n < 1:
            raise ValueError("need at least one marked point")

    def tangent_chern(self) -> tuple:
        """Coefficient data of c(TP^d): entry l is (binomial(d+1, l), l),
        meaning c_l = binomial(d+1, l) * h^l."""
        return tuple((comb(self.dim + 1, ell), ell) for ell in range(self.dim + 1))

    def point_table(self) -> VarTable:
        """h_1..h_n, each killed in power d+1.  Raises StructureError when
        the top degree d*n is over the packed monomial's degree bound: the
        ring could not be built, so no relation is built either."""
        if self.top_degree() > MAX_DEGREE:
            raise StructureError(
                f"top degree {self.top_degree()} of P^{self.dim} with {self.n} points is over "
                f"the packed monomial's degree bound {MAX_DEGREE}"
            )
        return VarTable.for_points(self.n, self.dim)

    def table_for(self, large: LargeFamily) -> VarTable:
        """h variables followed by one divisor variable per large set, in
        the reverse of (size, lexicographic) order: the smallest sets get
        the highest packed fields, so they lead the relations they occur
        in, as on the table of a superset-first walk.  On P^1 each pair's
        Chern relation then leads with the pair's divisor, which the ring
        solves for (see `fmchow.ranks`).  The variable order changes no
        rank, membership or printed presentation, which is put in
        canonical variable order first."""
        if large.n != self.n:
            raise ValueError("family and geometry disagree on the number of points")
        divisors = tuple(
            Var(divisor_name(s), 1, None) for s in reversed(large.sorted_members())
        )
        return VarTable(self.point_table().vars + divisors)

    def top_degree(self) -> int:
        return self.dim * self.n


def _h(table: VarTable, i: int) -> Poly:
    return Poly.variable(table, f"h{i}")


def diagonal_ideal(geom: ProjectiveGeometry, s, table: VarTable = None) -> list:
    """Generators of the ideal of classes vanishing on the diagonal where
    the points indexed by s coincide: the differences h_a - h_min(s).

    For projective space these differences generate the full kernel of the
    restriction; the graded ranks of the quotient (tested) confirm it.
    """
    s = sorted(set(s))
    if len(s) < 2:
        raise ValueError("diagonal needs at least two indices")
    if s[0] < 1 or s[-1] > geom.n:
        raise ValueError("index out of range")
    table = table or geom.point_table()
    m = s[0]
    return [_h(table, a) - _h(table, m) for a in s[1:]]


def diagonal_class(geom: ProjectiveGeometry, i: int, j: int, table: VarTable = None) -> Poly:
    """Class of the diagonal of P^d x P^d pulled back from factors i, j:
    the Kunneth expression sum of h_i^a * h_j^b over a + b = d."""
    if i == j:
        raise ValueError("diagonal class needs two distinct indices")
    table = table or geom.point_table()
    hi, hj = _h(table, i), _h(table, j)
    out = Poly.zero(table)
    for a in range(geom.dim + 1):
        out = out + hi**a * hj ** (geom.dim - a)
    return out


@lru_cache(maxsize=None)
def _chern_pair_cached(geom: ProjectiveGeometry, i: int, j: int, table: VarTable) -> ChernPoly:
    d = geom.dim
    hi = _h(table, i)
    coeffs = [diagonal_class(geom, i, j, table)]
    for ell in range(1, d + 1):
        c = comb(d + 1, d - ell) * hi ** (d - ell)
        if not geom.monic:
            c = c * ((-1) ** ell)
        coeffs.append(c)
    return ChernPoly(table, d, coeffs)


def chern_pair(geom: ProjectiveGeometry, i: int, j: int, table: VarTable = None) -> ChernPoly:
    """Chern polynomial of the pairwise diagonal (i, j).

    The coefficient of t^l is (-1)^l binomial(d+1, d-l) h_i^(d-l) for
    l >= 1 (tangent Chern classes pulled back through factor i only), the
    constant term is the diagonal class.  With monic=True the (-1)^l
    factors are dropped.
    """
    if i == j:
        raise ValueError("chern_pair needs two distinct indices")
    if not (1 <= i <= geom.n and 1 <= j <= geom.n):
        raise ValueError("index out of range")
    return _chern_pair_cached(geom, i, j, table or geom.point_table())


def chain_order(s, chain=None) -> tuple:
    """The chain through the index set s that `chern_set` multiplies
    along: `chain`, which must enumerate s exactly once, or by default
    increasing index order."""
    s = set(s)
    if len(s) < 2:
        raise ValueError("chern_set needs at least two indices")
    if chain is None:
        return tuple(sorted(s))
    chain = tuple(chain)
    if set(chain) != s or len(chain) != len(s):
        raise ValueError("chain must enumerate the set exactly once")
    return chain


def chern_set(geom: ProjectiveGeometry, s, table: VarTable = None, chain=None) -> ChernPoly:
    """Chern polynomial of the diagonal of a set s of indices: the product
    of pairwise Chern polynomials along a chain through s (`chain_order`).
    Any chain gives the same graded ranks downstream (a tested property),
    though the generators differ."""
    chain = chain_order(s, chain)
    table = table or geom.point_table()
    out = chern_pair(geom, chain[0], chain[1], table)
    for a, b in zip(chain[1:], chain[2:]):
        out = chern_mul(out, chern_pair(geom, a, b, table))
    return out


def divisor_sum(table: VarTable, large: LargeFamily, lower) -> Poly:
    """Sum of divisor variables D_V over large V containing `lower`."""
    lower = frozenset(lower)
    return Poly.variable_sum(
        table, [divisor_name(v) for v in large.members if lower <= v]
    )
