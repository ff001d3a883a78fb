"""Tests for the projective-space geometric data."""

import pytest

from fmchow.geomdata import (
    ProjectiveGeometry,
    chern_pair,
    chern_set,
    diagonal_class,
    diagonal_ideal,
)
from fmchow.polyalg import Poly, Presentation, substitute
from fmchow.ranks import graded_ranks
from fmchow.setcomb import LargeFamily


def h(geom, i, table=None):
    return Poly.variable(table or geom.point_table(), f"h{i}")


class TestTangentChern:
    def test_first_and_binomials(self):
        g = ProjectiveGeometry(3, 1)
        data = g.tangent_chern()
        assert data[0] == (1, 0)
        assert [c for c, _ in data] == [1, 4, 6, 4]


class TestDiagonalIdeal:
    def test_pair(self):
        g = ProjectiveGeometry(1, 2)
        assert diagonal_ideal(g, {1, 2}) == [h(g, 2) - h(g, 1)]

    def test_triple_uses_minimum(self):
        g = ProjectiveGeometry(1, 3)
        assert diagonal_ideal(g, {1, 2, 3}) == [h(g, 2) - h(g, 1), h(g, 3) - h(g, 1)]

    def test_needs_two_indices(self):
        g = ProjectiveGeometry(1, 3)
        with pytest.raises(ValueError):
            diagonal_ideal(g, {2})

    def test_quotient_has_ranks_of_one_factor(self):
        # collapsing all three copies of P^1 leaves the Chow ring of P^1:
        # ranks (1, 1) and nothing above
        g = ProjectiveGeometry(1, 3)
        p = Presentation(g.point_table(), diagonal_ideal(g, {1, 2, 3}), 3)
        assert graded_ranks(p) == [1, 1, 0, 0]


class TestDiagonalClass:
    def test_line(self):
        g = ProjectiveGeometry(1, 2)
        assert diagonal_class(g, 1, 2) == h(g, 1) + h(g, 2)

    def test_plane(self):
        g = ProjectiveGeometry(2, 2)
        h1, h2 = h(g, 1), h(g, 2)
        assert diagonal_class(g, 1, 2) == h1 * h1 + h1 * h2 + h2 * h2

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_self_intersection_is_euler_class(self, d):
        # restricting the diagonal class to the diagonal multiplies the
        # point class by the Euler characteristic d+1
        g = ProjectiveGeometry(d, 2)
        h1 = h(g, 1)
        restricted = substitute(diagonal_class(g, 1, 2), "h2", h1)
        assert restricted == (d + 1) * h1**d

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            diagonal_class(ProjectiveGeometry(1, 2), 1, 1)


class TestChernPair:
    def test_dim_one(self):
        g = ProjectiveGeometry(1, 2)
        c = chern_pair(g, 1, 2)
        assert c.degree == 1
        assert c.coeffs[1] == Poly.constant(g.point_table(), -1)
        assert c.coeffs[0] == h(g, 1) + h(g, 2)

    def test_dim_two(self):
        g = ProjectiveGeometry(2, 2)
        c = chern_pair(g, 1, 2)
        h1, h2 = h(g, 1), h(g, 2)
        assert c.coeffs[2] == Poly.constant(g.point_table(), 1)
        assert c.coeffs[1] == -3 * h1
        assert c.coeffs[0] == h1 * h1 + h1 * h2 + h2 * h2

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_leading_and_constant(self, d):
        g = ProjectiveGeometry(d, 2)
        c = chern_pair(g, 1, 2)
        assert c.coeffs[d] == Poly.constant(g.point_table(), (-1) ** d)
        assert c.coeffs[0] == diagonal_class(g, 1, 2)

    def test_monic_convention(self):
        g = ProjectiveGeometry(2, 2, monic=True)
        c = chern_pair(g, 1, 2)
        assert c.coeffs[2] == Poly.constant(g.point_table(), 1)
        assert c.coeffs[1] == 3 * h(g, 1)

    def test_equal_indices_rejected(self):
        with pytest.raises(ValueError):
            chern_pair(ProjectiveGeometry(1, 2), 2, 2)


class TestChernSet:
    def test_pair_case(self):
        g = ProjectiveGeometry(2, 2)
        assert chern_set(g, {1, 2}) == chern_pair(g, 1, 2)

    def test_triple_expansion(self):
        # (-t + h1 + h2)(-t + h2 + h3) with h_i^2 = 0
        g = ProjectiveGeometry(1, 3)
        c = chern_set(g, {1, 2, 3})
        h1, h2, h3 = (h(g, i) for i in (1, 2, 3))
        assert c.degree == 2
        assert c.coeffs[2] == Poly.constant(g.point_table(), 1)
        assert c.coeffs[1] == -(h1 + 2 * h2 + h3)
        assert c.coeffs[0] == h1 * h2 + h1 * h3 + h2 * h3

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_degree_formula(self, d):
        g = ProjectiveGeometry(d, 4)
        for s in [{1, 2}, {1, 2, 3}, {1, 2, 3, 4}, {2, 4}]:
            assert chern_set(g, s).degree == d * (len(s) - 1)

    def test_constant_term_is_product_of_diagonal_classes(self):
        g = ProjectiveGeometry(1, 3)
        c = chern_set(g, {1, 2, 3})
        assert c.coeffs[0] == diagonal_class(g, 1, 2) * diagonal_class(g, 2, 3)

    @pytest.mark.parametrize("dim,s", [(1, {1, 2}), (2, {1, 2}), (1, {1, 2, 3}), (2, {2, 3})])
    def test_constant_term_restricts_to_euler_power(self, dim, s):
        # identifying all h_a for a in s turns the constant term into the
        # Euler-class power ((d+1) h^d)^(|s|-1), computed in the ambient
        # ring (zero once the exponent passes the cap)
        g = ProjectiveGeometry(dim, 3)
        c = chern_set(g, s)
        m = min(s)
        restricted = c.coeffs[0]
        for a in sorted(s - {m}):
            restricted = substitute(restricted, f"h{a}", h(g, m))
        expected = ((dim + 1) * h(g, m) ** dim) ** (len(s) - 1)
        assert restricted == expected

    def test_explicit_chain(self):
        g = ProjectiveGeometry(1, 3)
        c = chern_set(g, {1, 2, 3}, chain=[2, 1, 3])
        h1, h2, h3 = (h(g, i) for i in (1, 2, 3))
        assert c.coeffs[0] == (h1 + h2) * (h1 + h3)

    def test_chain_must_enumerate_set(self):
        g = ProjectiveGeometry(1, 3)
        with pytest.raises(ValueError):
            chern_set(g, {1, 2, 3}, chain=[1, 2])

    def test_needs_two_indices(self):
        with pytest.raises(ValueError):
            chern_set(ProjectiveGeometry(1, 3), {3})


class TestTables:
    def test_table_for_family_orders_divisors(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        names = g.table_for(fam).names()
        # the smallest sets get the highest fields, so they lead
        assert names == ("h1", "h2", "h3", "D{1,2,3}", "D{2,3}", "D{1,3}", "D{1,2}")
