"""Tests for degreewise linear algebra and the combinatorial rank oracle."""

import random
from fractions import Fraction
from hashlib import sha256
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmchow.ranks
from fmchow.errors import DegreeError, MapError, SizeCapError, StructureError
from fmchow.geomdata import ProjectiveGeometry
from fmchow.polyalg import (
    ChernPoly,
    Poly,
    Presentation,
    Var,
    VarTable,
    _mono_key,
    divisor_name,
)
from fmchow.present import blowup_step, chow_presentation, iterated_presentation
from fmchow.ranks import (
    DegreeSpan,
    Echelon,
    GradedRing,
    _live_layer,
    _monomial_counts,
    graded_ranks,
    ideal_ranks,
    kernel_ranks,
    map_poly,
    membership,
    memberships,
    monomials_of_degree,
    rank_oracle,
)
from fmchow.setcomb import LargeFamily, Weights

F = frozenset

#: all-large instances whose truncated Groebner basis is pinned
BASIS_INSTANCES = {
    f"({dim},{n}) {kind}": (dim, n, build)
    for dim, n in ((1, 5), (2, 4))
    for kind, build in (("direct", chow_presentation), ("iterated", iterated_presentation))
}
#: SHA-256 of the basis elements, one line each in the order found
BASIS_GOLDEN = {
    "(1,5) direct": "aee730874573d63d49b745a3212df2067de24ec36b11ffb4109aa6a702502189",
    "(1,5) iterated": "1482639bc0cda68fd067832deffc53ee791513df91948b852bf231f5856a201e",
    "(2,4) direct": "6200381d7be52d93a8c2665785a8afb4a3efb9586dafa2e037e50e3b20412fc9",
    "(2,4) iterated": "d79ae4b5b84e3f6642c6e756ba3ada037567cb63f0582722e772fc063041d029",
}


def blown_up_p3():
    table = VarTable((Var("h", 1, 4), Var("E", 1, None)))
    h, e = Poly.variable(table, "h"), Poly.variable(table, "E")
    rels = [h * h * e, e * e - 2 * h * e + h * h]
    return Presentation(table, rels, 3), h, e


def dense_reduced_rows(rows, ncols):
    """Independent oracle: plain Gauss-Jordan elimination over Fractions,
    column by column from the first; pivot column -> its row of the
    reduced row-echelon form (lead 1), in ascending pivot order."""
    mat = [[Fraction(r.get(c, 0)) for c in range(ncols)] for r in rows]
    pivots = []
    for col in range(ncols):
        rank = len(pivots)
        piv = next((i for i in range(rank, len(mat)) if mat[i][col]), None)
        if piv is None:
            continue
        mat[rank], mat[piv] = mat[piv], mat[rank]
        inv = 1 / mat[rank][col]
        mat[rank] = [x * inv for x in mat[rank]]
        for i in range(len(mat)):
            if i != rank and mat[i][col]:
                f = mat[i][col]
                mat[i] = [a - f * b for a, b in zip(mat[i], mat[rank])]
        pivots.append(col)
    return dict(zip(pivots, mat))


def dense_pivot_columns(rows, ncols):
    """The columns that get a pivot in `dense_reduced_rows`, ascending."""
    return list(dense_reduced_rows(rows, ncols))


def dense_rank(rows, ncols):
    return len(dense_pivot_columns(rows, ncols))


class MergeEchelon:
    """Reference kernel: every column of the working row that has a pivot
    is eliminated, first column first; each step merges the whole row with
    the pivot, a*row - b*pivot for pivot lead a and row coefficient b, into
    new lists and divides the result by its content."""

    def __init__(self):
        self.rank = 0
        self._pivots = {}

    def reduce(self, cols, coeffs):
        while (col := next((c for c in cols if c in self._pivots), None)) is not None:
            pcols, pcoeffs = self._pivots[col]
            b = coeffs[cols.index(col)]
            merged = {c: pcoeffs[0] * v for c, v in zip(cols, coeffs)}
            for c, v in zip(pcols, pcoeffs):
                merged[c] = merged.get(c, 0) - b * v
            cols = sorted(c for c, v in merged.items() if v)
            g = gcd(*(merged[c] for c in cols))
            coeffs = [merged[c] // g for c in cols]
        return cols, coeffs

    def insert(self, cols, coeffs):
        cols, coeffs = self.reduce(list(cols), list(coeffs))
        if not cols:
            return False
        g = gcd(*coeffs) * (1 if coeffs[0] > 0 else -1)
        self._pivots[cols[0]] = (cols, [c // g for c in coeffs])
        self.rank += 1
        return True

    def contains(self, cols, coeffs):
        return not self.reduce(list(cols), list(coeffs))[0]


class ColumnEchelon:
    """An `Echelon` over a ring of `ncols` free variables with no
    relations, read by columns: column c is the variable of field
    ncols-1-c, so the first column leads."""

    def __init__(self, ncols):
        table = VarTable(tuple(Var(f"x{i}") for i in range(ncols)))
        self.ncols, self.width = ncols, table.width
        self.ech = Echelon(ncols, GradedRing(Presentation(table, (), 1)))

    def _terms(self, row):
        return {1 << ((self.ncols - 1 - c) * self.width): v for c, v in row.items()}

    def _col(self, m):
        return self.ncols - 1 - (m.bit_length() - 1) // self.width

    def insert(self, row):
        return self.ech.insert(self._terms(row))

    def contains(self, row):
        return self.ech.contains(self._terms(row))

    def pivots(self):
        """The stored rows as {lead column: (columns, coefficients)}."""
        out = {}
        for lead, a, tail in self.ech.rows.values():
            terms = ((lead, a),) + tail
            out[self._col(lead)] = ([self._col(m) for m, _ in terms], [c for _, c in terms])
        return out


def random_kernel_rows(rng, ncols):
    """Rows for a kernel-equivalence trial: short rows (the usual pivots),
    long rows, leads of +-1..+-4, and integer combinations of earlier rows,
    which cancel to an empty residue."""
    rows = []
    for _ in range(rng.randint(5, 40)):
        kind = rng.random()
        if kind < 0.25 and rows:
            row = {}
            for earlier in rng.sample(rows, min(len(rows), rng.randint(1, 3))):
                m = rng.choice([-3, -2, -1, 1, 2, 3])
                for c, v in earlier.items():
                    row[c] = row.get(c, 0) + m * v
            row = {c: v for c, v in row.items() if v}
        else:
            size = rng.randint(1, 3) if kind < 0.65 else rng.randint(4, ncols)
            row = {c: rng.choice([-4, -3, -2, -1, 1, 2, 3, 4]) for c in rng.sample(range(ncols), size)}
        rows.append(row)
    return rows


class TestEliminationKernels:
    def test_accumulator_pivots_equal_the_merge_form(self):
        rng = random.Random(20261018)
        for trial in range(150):
            ncols = rng.randint(4, 30)
            ech, ref = ColumnEchelon(ncols), MergeEchelon()
            for row in random_kernel_rows(rng, ncols):
                cols = sorted(row)
                coeffs = [row[c] for c in cols]
                assert ech.contains(row) == ref.contains(cols, coeffs)
                assert ech.insert(row) == ref.insert(cols, coeffs)
                assert ech.pivots() == ref._pivots
                assert ech.ech.rank == ref.rank
                assert ech.contains(row)

    def test_rank_matches_dense_oracle(self):
        rng = random.Random(20240811)
        for trial in range(40):
            nrows = rng.randint(1, 12)
            ncols = rng.randint(1, 10)
            rows = []
            for _ in range(nrows):
                row = {
                    c: rng.randint(-4, 4)
                    for c in rng.sample(range(ncols), rng.randint(0, ncols))
                }
                rows.append({c: v for c, v in row.items() if v})
            ech = ColumnEchelon(ncols)
            got = sum(ech.insert(row) for row in rows)
            assert got == ech.ech.rank == dense_rank(rows, ncols)

    def test_contains_agrees_with_rank_growth(self):
        rng = random.Random(7)
        for trial in range(20):
            ncols = rng.randint(1, 8)
            ech = ColumnEchelon(ncols)
            for _ in range(10):
                row = {c: rng.randint(-3, 3) for c in range(ncols)}
                row = {c: v for c, v in row.items() if v}
                if not row:
                    continue
                member = ech.contains(row)
                grew = ech.insert(row)
                assert member == (not grew)


class TestMonomials:
    def test_caps_prune(self):
        g = ProjectiveGeometry(1, 2)
        p = chow_presentation(g, LargeFamily.empty(2))
        assert monomials_of_degree(p, 2) == [(1, 1)]

    def test_degree_one_with_divisor(self):
        g = ProjectiveGeometry(1, 2)
        p = chow_presentation(g, LargeFamily.all_subsets(2))
        assert monomials_of_degree(p, 1) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]

    def test_blown_up_p3_degree_two(self):
        p, _, _ = blown_up_p3()
        # canonical ascending order: h^2, h*E, E^2
        assert monomials_of_degree(p, 2) == [(2, 0), (1, 1), (0, 2)]

    def test_out_of_range(self):
        p, _, _ = blown_up_p3()
        with pytest.raises(ValueError):
            monomials_of_degree(p, 5)

    def test_counts_match_binomial_product(self):
        g = ProjectiveGeometry(2, 2)
        p = chow_presentation(g, LargeFamily.empty(2))
        assert [len(monomials_of_degree(p, k)) for k in range(5)] == [1, 2, 3, 2, 1]


class TestGradedRanks:
    def test_blown_up_p3(self):
        p, _, _ = blown_up_p3()
        assert graded_ranks(p) == [1, 2, 2, 1]

    def test_no_relations_gives_binomial_products(self):
        for dim, n, expected in [
            (1, 2, [1, 2, 1]),
            (1, 3, [1, 3, 3, 1]),
            (2, 2, [1, 2, 3, 2, 1]),
            (3, 2, [1, 2, 3, 4, 3, 2, 1]),
        ]:
            g = ProjectiveGeometry(dim, n)
            p = chow_presentation(g, LargeFamily.empty(n))
            assert graded_ranks(p) == expected

    def test_monomial_cap_refusal(self):
        g = ProjectiveGeometry(1, 3)
        p = chow_presentation(g, LargeFamily.all_subsets(3))
        with pytest.raises(SizeCapError):
            graded_ranks(p, monomial_cap=3)

    def test_degree_span_reports_quotient(self):
        p, _, _ = blown_up_p3()
        span = DegreeSpan(GradedRing(p), 2)
        assert len(monomials_of_degree(p, 2)) == 3
        assert span.quotient_rank() == 2

    def test_alive_monomials_are_the_unkilled_columns_in_order(self):
        p, _, _ = blown_up_p3()
        # the basis leads with h^2*E and E^2 (E is the larger variable), so
        # the columns are the standard monomials h^2, h*E and then h^3 alone
        ring = GradedRing(p)
        assert monomials_of_degree(p, 3) == [(3, 0), (2, 1), (1, 2), (0, 3)]
        assert DegreeSpan(ring, 2).alive_monomials == ((2, 0), (1, 1))
        span = DegreeSpan(ring, 3)
        assert span.alive_monomials == ((3, 0),)
        assert span.quotient_rank() == 1


    def test_refusal_comes_before_any_span(self, monkeypatch):
        g = ProjectiveGeometry(1, 5)
        p = chow_presentation(g, LargeFamily.all_subsets(5))

        def no_echelon(*args):
            raise AssertionError("a degree span was built before the cap refusal")

        monkeypatch.setattr(fmchow.ranks, "Echelon", no_echelon)
        # the basis's first work is the normal form of its first relation
        monkeypatch.setattr(fmchow.ranks.GradedRing, "_reduce", no_echelon)
        message = "degree 3 has 5301 monomials, over the cap of 1000"
        with pytest.raises(SizeCapError, match=message):
            graded_ranks(p, monomial_cap=1000)
        with pytest.raises(SizeCapError, match=message):
            ideal_ranks(p, [], monomial_cap=1000)

    def test_refusal_comes_before_any_packing_or_enumeration(self, monkeypatch):
        # the ring counts at once, and builds its basis (whose first work is a
        # normal form) and enumerates only on first use
        p = chow_presentation(ProjectiveGeometry(1, 5), LargeFamily.all_subsets(5))

        def not_yet(*args):
            raise AssertionError("the ring did work before the cap refusal")

        monkeypatch.setattr(fmchow.ranks.GradedRing, "_reduce", not_yet)
        monkeypatch.setattr(fmchow.ranks, "_live_layer", not_yet)
        with pytest.raises(SizeCapError, match="degree 3 has 5301 monomials"):
            graded_ranks(p, monomial_cap=1000)
        with pytest.raises(SizeCapError, match="degree 3 has 5301 monomials"):
            memberships(p, [], p.relations, monomial_cap=1000)

    @pytest.mark.parametrize(
        "dim, weights, expected",
        [
            (3, ("1", "1", "1"), [1, 7, 20, 37, 49, 49, 37, 20, 7, 1]),
            (2, ("1/2", "1/2", "1/2", "1/2"), [1, 9, 28, 51, 62, 51, 28, 9, 1]),
            (4, ("1", "1/2", "1/2"), [1, 6, 16, 31, 49, 63, 68, 63, 49, 31, 16, 6, 1]),
        ],
    )
    def test_large_slices_agree_with_oracle(self, dim, weights, expected):
        # the larger slices, with basis elements up to degree 6
        n = len(weights)
        family = LargeFamily.from_weights(Weights.from_strings(weights))
        p = chow_presentation(ProjectiveGeometry(dim, n), family)
        assert graded_ranks(p) == rank_oracle(dim, n, family) == expected

    def test_reach_beyond_the_default_cap_agrees_with_oracle(self):
        # (2,4) all-large: 273,978 monomials at top degree, 12,231 live
        family = LargeFamily.all_subsets(4)
        p = chow_presentation(ProjectiveGeometry(2, 4), family)
        expected = [1, 15, 67, 144, 182, 144, 67, 15, 1]
        assert graded_ranks(p, monomial_cap=None) == rank_oracle(2, 4, family) == expected
        # (4,4) and (5,4) all-large: 127,825,575 and 1,233,427,380 monomials
        # at top degree, a basis of 87 elements each
        for dim in (4, 5):
            p = chow_presentation(ProjectiveGeometry(dim, 4), family)
            assert graded_ranks(p, monomial_cap=None) == rank_oracle(dim, 4, family)

    def test_reach_of_five_points_on_the_line_agrees_with_oracle(self):
        # (1,5) all-large: 297,662 monomials at top degree, 14,632 live
        family = LargeFamily.all_subsets(5)
        p = chow_presentation(ProjectiveGeometry(1, 5), family)
        expected = [1, 21, 67, 67, 21, 1]
        assert graded_ranks(p, monomial_cap=None) == rank_oracle(1, 5, family) == expected

    @pytest.mark.parametrize(
        "dim, n, by_degree",
        [
            (3, 3, [0, 0, 8, 3, 6, 0, 1, 0, 0, 0]),
            (2, 4, [0, 0, 53, 20, 7, 6, 1, 0, 0]),
            (1, 5, [0, 10, 164, 15, 1, 0]),
            (3, 4, [0, 0, 47, 6, 20, 3, 4, 6, 0, 1, 0, 0, 0]),
            (4, 4, [0, 0, 47, 0, 6, 20, 3, 0, 4, 6, 0, 0, 1, 0, 0, 0, 0]),
        ],
    )
    def test_basis_leads_by_degree_are_the_reduced_basis(self, dim, n, by_degree):
        # all-large: the leading monomials, counted by degree, are the minimal
        # generators of the leading-term ideal in the slices' lex order, as
        # many as the reduced Groebner basis has elements of each degree.  No
        # lead divides another, and every element has lead 1
        p = chow_presentation(ProjectiveGeometry(dim, n), LargeFamily.all_subsets(n))
        basis = GradedRing(p).basis
        leads = [max(g.packed) for g in basis]
        degrees = [sum(p.table.unpack(m)) for m in leads]
        assert [degrees.count(k) for k in range(p.top_degree + 1)] == by_degree
        assert not any(a != b and p.table.divides(a, b) for a in leads for b in leads)
        assert all(g.packed[m] == 1 for g, m in zip(basis, leads))

    @pytest.mark.parametrize("name", sorted(BASIS_GOLDEN))
    def test_basis_is_golden(self, name):
        # the basis element for element, in the order found: a criterion
        # that skips an S-polynomial of nonzero remainder changes it
        dim, n, build = BASIS_INSTANCES[name]
        p = build(ProjectiveGeometry(dim, n), LargeFamily.all_subsets(n))
        basis = GradedRing(p).basis
        assert sha256("\n".join(map(str, basis)).encode()).hexdigest() == BASIS_GOLDEN[name]

    def test_pairs_of_one_lcm_are_skipped_only_once_the_others_are_treated(self):
        # the leads x*y, y*z and x*z share the lcm x*y*z, which each divides,
        # so each pair has a third lead that divides its lcm.  The second
        # criterion may skip only the last pair, once the other two are
        # treated.  Two of the S-polynomials are not in the ideal of the
        # relations' leads, and lead with a^2*z and a*b*y
        table = VarTable(tuple(Var(name) for name in "abxyz"))
        a, b, x, y, z = (Poly.variable(table, name) for name in "abxyz")
        p = Presentation(table, [x * y - a * a, y * z - b * b, x * z - a * b], 3)
        assert graded_ranks(p) == dense_quotient_ranks(p)
        leads = [max(g.packed) for g in GradedRing(p).basis]
        assert leads[3:] == [max((a * a * z).packed), max((a * b * y).packed)]

    def test_a_relation_given_twice_adds_nothing_to_the_basis(self):
        # the copy's normal form is zero once the relation is in the basis
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        twice = max(p.relations, key=lambda r: len(r.packed)) * 2
        ring = GradedRing(Presentation(p.table, list(p.relations) + [twice], p.top_degree))
        assert list(map(DegreeSpan.quotient_rank, ring.spans(range(p.top_degree + 1)))) == [1, 9, 16, 9, 1]
        assert ring.basis == GradedRing(p).basis
        assert ring.normal_form(twice).is_zero()

    def test_a_cap_is_a_basis_element_of_one_term(self):
        # h^4 = 0 is a relation of degree 4, above the top degree 3 of the
        # blown-up P^3, and leaves no element; at top degree 4 it is one
        p, h, e = blown_up_p3()
        assert GradedRing(p).basis == p.relations
        up = GradedRing(Presentation(p.table, p.relations, 4))
        assert [g.packed for g in up.basis if len(g.packed) == 1] == [(h * h * e).packed, {4: 1}]
        assert graded_ranks(Presentation(p.table, p.relations, 4)) == dense_quotient_ranks(
            Presentation(p.table, p.relations, 4)
        )

    def test_a_constant_kills_every_degree(self):
        # a constant relation leads with the monomial 1, which divides every
        # monomial; a constant generator spans every degree of the quotient
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        one = Poly.constant(p.table, 1)
        zero = Presentation(p.table, list(p.relations) + [2 * one], 4)
        assert graded_ranks(zero) == [0] * 5
        assert all(memberships(zero, [], [one] + [Poly.variable(p.table, name) for name in p.table.names()]))
        assert ideal_ranks(p, [one]) == [1, 9, 16, 9, 1]

    def test_live_monomials_are_enumerated_once_per_slice(self, monkeypatch):
        # the spans of one ring share each degree's live monomials, as
        # slices and as shifts of lower-degree relations
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        calls = []

        def counting(d, *args):
            calls.append(d)
            return _live_layer(d, *args)

        monkeypatch.setattr(fmchow.ranks, "_live_layer", counting)
        assert graded_ranks(p) == [1, 9, 16, 9, 1]
        assert sorted(calls) == [0, 1, 2, 3, 4]


#: top degrees on both sides of each change of the packed field width
TOP_DEGREES = (0, 1, 3, 4, 7, 8)


def draw_monomial(draw, nvars, degree):
    """A random exponent tuple of the given degree in nvars variables."""
    exps = [0] * nvars
    for i in draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
        exps[i] += 1
    return tuple(exps)


@st.composite
def small_presentations(draw, max_vars=4, tops=TOP_DEGREES, generic=False):
    """Random presentations with capped and uncapped degree-1 variables,
    single-term relations ("killers") and, optionally, two-term ones."""
    top = draw(st.sampled_from(tops))
    nvars = draw(st.integers(1, max_vars))
    caps = draw(st.lists(st.none() | st.integers(1, top + 2), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))
    relations = [
        Poly.monomial(table, draw_monomial(draw, nvars, draw(st.integers(1, max(top, 1)))))
        for _ in range(draw(st.integers(0, 3)))
    ]
    if generic:
        for _ in range(draw(st.integers(0, 3))):
            degree = draw(st.integers(1, max(top, 1)))
            a, b = draw_monomial(draw, nvars, degree), draw_monomial(draw, nvars, degree)
            relations.append(
                Poly.monomial(table, a, draw(st.integers(1, 3)))
                - Poly.monomial(table, b, draw(st.integers(1, 3)))
            )
    return Presentation(table, relations, top)


@st.composite
def low_binomial_presentations(draw):
    """Presentations in 2-3 variables of top degree 2-4 whose relations are
    1-3 binomials c*m - c'*m' of two different monomials under the caps
    below the top degree and at most one killer.  A binomial's span has a
    pivot of two entries, whose lead need not lie in the ideal.  No cap is
    1, so degree 1 has a monomial under the caps per variable, and the
    ideal is small enough that wrongly taking a lead in changes the ranks
    above it."""
    top = draw(st.sampled_from((2, 3, 4)))
    nvars = draw(st.integers(2, 3))
    caps = draw(st.lists(st.none() | st.integers(2, top + 2), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))
    relations = [
        Poly.monomial(table, draw_monomial(draw, nvars, draw(st.integers(1, top))))
        for _ in range(draw(st.integers(0, 1)))
    ]
    bare = Presentation(table, (), top)
    under_caps = {d: brute_basis(bare, d) for d in range(1, top)}
    degrees = [d for d, monomials in under_caps.items() if len(monomials) > 1]
    for _ in range(draw(st.integers(1, 3))):
        monomials = under_caps[draw(st.sampled_from(degrees))]
        pair = st.lists(st.sampled_from(monomials), min_size=2, max_size=2, unique=True)
        a, b = draw(pair)
        relations.append(
            Poly.monomial(table, a, draw(st.integers(1, 3)))
            - Poly.monomial(table, b, draw(st.integers(1, 3)))
        )
    return Presentation(table, relations, top)


def solved_variables(p):
    """The leads of the reduced echelon form of the degree-1 relations with
    the variables largest first, by dense elimination: the variables the
    ring solves for, and those that a degree-1 killer kills."""
    variables = brute_basis(p, 1)[::-1]
    col = {m: i for i, m in enumerate(variables)}
    rows = dense_multiples(p, [r for r in p.relations if r.homogeneous_degree() == 1], 1, col)
    return [variables[c] for c in dense_pivot_columns(rows, len(variables))]


def killers_of(p):
    """The single-term relations and the variables that a degree-1 relation
    solves for: a ring's leading monomials when, as in
    `small_presentations`, every relation has one term."""
    killers = [next(iter(r.terms)) for r in p.relations if len(r.terms) == 1]
    return killers + solved_variables(p)


def brute_basis(p, k):
    """Every degree-k exponent tuple under the caps, by plain recursion over
    the variables, sorted by `_mono_key`: a basis that shares no code with
    `GradedRing`."""
    caps = p.table.caps()

    def tails(i, left):
        if i == len(caps):
            return [()] if left == 0 else []
        most = left if caps[i] is None else min(left, caps[i] - 1)
        return [(e,) + t for e in range(most + 1) for t in tails(i + 1, left - e)]

    return sorted(tails(0, k), key=_mono_key)


def standard_monomials(p, k, generators):
    """Degree-k basis monomials that no generator (exponent tuple) divides;
    a capped variable's vanishing power is a generator too."""
    caps = [tuple(c if j == i else 0 for j in range(len(p.table))) for i, c in enumerate(p.table.caps()) if c]

    def divides(g, m):
        return all(a <= b for a, b in zip(g, m))

    generators = list(generators) + caps
    return [m for m in brute_basis(p, k) if not any(divides(g, m) for g in generators)]


class TestLiveColumns:
    @settings(deadline=None)
    @given(small_presentations())
    def test_count_dp_equals_enumeration(self, p):
        counts = _monomial_counts(p.table.caps(), p.top_degree)
        bases = [monomials_of_degree(p, k) for k in range(p.top_degree + 1)]
        assert bases == [brute_basis(p, k) for k in range(p.top_degree + 1)]
        assert counts == list(map(len, bases))

    @settings(deadline=None)
    @given(small_presentations(), st.data())
    def test_live_enumeration_equals_filtered_basis(self, p, data):
        k = data.draw(st.integers(0, p.top_degree))
        # a ring's layers know only the killers
        packed = list(GradedRing(p).live(k))
        assert packed == sorted(set(packed))
        live = [p.table.unpack(m) for m in packed]
        assert live == standard_monomials(p, k, killers_of(p))
        assert DegreeSpan(GradedRing(p), k).alive_monomials == tuple(live)

    @pytest.mark.parametrize("dim, weights", [(1, ("1",) * 4), (2, ("1/2",) * 4)])
    def test_no_span_changes_the_live_columns(self, dim, weights):
        # the columns are fixed by the basis: the spans of one ring, built
        # ascending or descending, have the same columns, the ring's standard
        # monomials, as many in each degree as the oracle's rank
        family = LargeFamily.from_weights(Weights.from_strings(weights))
        p = chow_presentation(ProjectiveGeometry(dim, len(weights)), family)
        degrees = range(p.top_degree + 1)
        tables = []
        for order in (degrees, reversed(degrees)):
            ring = GradedRing(p)
            columns = {span.degree: list(span.alive_monomials) for span in ring.spans(order)}
            tables.append([columns[k] for k in degrees])
            # nor did a span change the ring's layers once it was built
            assert [list(map(p.table.unpack, ring.live(k))) for k in degrees] == tables[-1]
        assert tables[0] == tables[1]
        assert list(map(len, tables[0])) == rank_oracle(dim, len(weights), family)

    @given(st.sampled_from(TOP_DEGREES), st.integers(1, 5), st.data())
    def test_packing_round_trips_orders_and_never_carries(self, top, nvars, data):
        table = VarTable(tuple(Var(f"x{i}") for i in range(nvars)))

        def monomial():
            exps = [0] * nvars
            for i in data.draw(st.lists(st.integers(0, nvars - 1), max_size=top)):
                exps[i] += 1
            return exps

        a, b = monomial(), monomial()
        assert table.unpack(table.pack(a)) == tuple(a)
        assert (table.pack(a) < table.pack(b)) == (_mono_key(a) < _mono_key(b))
        if sum(a) + sum(b) <= top:
            total = [x + y for x, y in zip(a, b)]
            assert table.pack(a) + table.pack(b) == table.pack(total)

    @settings(deadline=None, max_examples=60)
    @given(small_presentations(max_vars=3, tops=(0, 1, 3, 4), generic=True), st.data())
    def test_quotient_rank_matches_dense_reference(self, p, data):
        # reference: every relation times every capped monomial, over the
        # full basis, ranked by plain Gaussian elimination over Fractions
        k = data.draw(st.integers(0, p.top_degree))
        basis = brute_basis(p, k)
        col = {m: i for i, m in enumerate(basis)}
        rows = []
        for rel in p.relations:
            d = rel.homogeneous_degree()
            if d > k:
                continue
            for shift in brute_basis(p, k - d):
                prod = rel * Poly.monomial(p.table, shift)
                rows.append({col[m]: c for m, c in prod.terms.items()})
        span = DegreeSpan(GradedRing(p), k)
        assert span.quotient_rank() == len(basis) - dense_rank(rows, len(basis))
        assert monomials_of_degree(p, k) == basis

    @given(small_presentations())
    def test_degree_span_rejects_bad_slices(self, p):
        for k in (-1, p.top_degree + 1):
            with pytest.raises(ValueError):
                DegreeSpan(GradedRing(p), k)
        with pytest.raises(ValueError):
            Var("y", 2, None)


class TestMembership:
    def test_counterexample_is_negative(self):
        p, h, e = blown_up_p3()
        assert membership(p, [h * h * h], h * e) is False

    def test_relation_is_member_of_zero_ideal(self):
        p, h, e = blown_up_p3()
        assert membership(p, [], h * h * e) is True

    def test_all_relations_are_members(self):
        g = ProjectiveGeometry(1, 3)
        pres = chow_presentation(g, LargeFamily.all_subsets(3))
        for rel in pres.relations:
            assert membership(pres, [], rel)

    def test_generator_multiples(self):
        p, h, e = blown_up_p3()
        assert membership(p, [h * e], h * h * e) is True
        assert membership(p, [h * e], 7 * (h * e)) is True

    def test_scaling_invariance(self):
        p, h, e = blown_up_p3()
        assert membership(p, [h * h * h], 5 * (h * e)) is False

    def test_rejects_inhomogeneous(self):
        p, h, e = blown_up_p3()
        with pytest.raises(DegreeError):
            membership(p, [], h + h * e)

    def test_above_top_degree_is_trivial(self):
        p, h, e = blown_up_p3()
        # degree-4 classes vanish in a threefold
        assert membership(p, [], (h * e) * (h * e)) is True

    def test_normal_form_over_another_table_is_refused(self):
        x, y = Var("x"), Var("y")
        p = Presentation(VarTable((x, y)), [Poly.variable(VarTable((x, y)), "x")], 2)
        with pytest.raises(StructureError, match="different variable table"):
            GradedRing(p).normal_form(Poly.variable(VarTable((y, x)), "x"))

    def test_query_over_another_table_is_refused(self):
        # packed monomials are read by position: over (y, x), y packs as x does
        x, y = Var("x"), Var("y")
        p = Presentation(VarTable((x, y)), [Poly.variable(VarTable((x, y)), "x")], 2)
        swapped = VarTable((y, x))
        for name in ("x", "y"):
            f = Poly.variable(swapped, name)
            with pytest.raises(StructureError, match="different variable table"):
                membership(p, [], f)
            with pytest.raises(StructureError, match="different variable table"):
                memberships(p, [f], [Poly.variable(p.table, "y")])
            span = DegreeSpan(GradedRing(p), 1)
            for query in (span.insert, span.reduces_to_zero):
                with pytest.raises(StructureError, match="different variable table"):
                    query(f)


def draw_form(data, table, degree):
    """A random homogeneous polynomial of the given degree with small
    coefficients; it may be zero, for example when every term dies on a
    variable cap."""
    nvars = len(table)
    terms = {}
    for _ in range(data.draw(st.integers(1, 3))):
        exps = [0] * nvars
        for i in data.draw(st.lists(st.integers(0, nvars - 1), min_size=degree, max_size=degree)):
            exps[i] += 1
        terms[tuple(exps)] = data.draw(st.integers(-2, 2))
    return Poly(table, terms)


def reference_membership(p, gens, f):
    """One query the way it is defined: a fresh span of its degree."""
    if f.is_zero():
        return True
    k = f.homogeneous_degree()
    if k > p.top_degree:
        return True
    span = DegreeSpan(GradedRing(p), k)
    span.insert_products(gens)
    return span.reduces_to_zero(f)


def dense_multiples(p, polys, k, col):
    """Rows of every polynomial of degree at most k times every capped
    monomial of the complementary degree, over the full basis."""
    rows = []
    for g in polys:
        if g.is_zero() or g.homogeneous_degree() > k:
            continue
        for shift in brute_basis(p, k - g.homogeneous_degree()):
            prod = g * Poly.monomial(p.table, shift)
            rows.append({col[m]: c for m, c in prod.terms.items()})
    return rows


def dense_forms(data, p, extra_range):
    """A presentation with extra dense relations of up to six terms, and
    0-2 generators: (presentation, extra relations, generators)."""
    table, top = p.table, p.top_degree

    def form():
        degree = data.draw(st.integers(1, max(top, 1)))
        return draw_form(data, table, degree) + draw_form(data, table, degree)

    extra = [form() for _ in range(data.draw(extra_range))]
    gens = [form() for _ in range(data.draw(st.integers(0, 2)))]
    return Presentation(table, list(p.relations) + extra, top), extra, gens


def check_span_against_dense(span, p, extra, gens, data):
    """Relation rank, span rank after the generators and membership queries
    of a fresh relation span, against every multiple over the full basis
    ranked by plain Gaussian elimination over Fractions."""
    k, table = span.degree, p.table
    basis = brute_basis(p, k)
    col = {m: i for i, m in enumerate(basis)}
    relation_rows = dense_multiples(p, p.relations, k, col)
    rows = relation_rows + dense_multiples(p, gens, k, col)
    rank = dense_rank(rows, len(basis))
    assert span.relation_rank() == dense_rank(relation_rows, len(basis))
    span.insert_products(gens)
    assert span.span_rank() == rank

    queries = [draw_form(data, table, k)]
    factors = [g for g in gens + extra if not g.is_zero() and g.homogeneous_degree() <= k]
    if factors:
        g = data.draw(st.sampled_from(factors))
        queries.append(g * draw_form(data, table, k - g.homogeneous_degree()))
    for f in queries:
        row = {col[m]: c for m, c in f.terms.items()}
        assert span.reduces_to_zero(f) == (dense_rank(rows + [row], len(basis)) == rank)


class TestDenseRelations:
    @settings(deadline=None, max_examples=60)
    @given(small_presentations(max_vars=3, tops=(0, 1, 3, 4), generic=True), st.data())
    def test_spans_and_queries_match_dense_reference(self, p, data):
        p, extra, gens = dense_forms(data, p, st.integers(0, 3))
        k = data.draw(st.integers(0, p.top_degree))
        check_span_against_dense(DegreeSpan(GradedRing(p), k), p, extra, gens, data)

    @given(low_binomial_presentations())
    def test_low_binomials_survive_the_caps(self, p):
        # each drawn binomial has two monomials under the caps, so no
        # presentation is left without a relation
        assert 1 <= sum(len(r.terms) == 2 for r in p.relations) <= 3


class TestFoundMonomials:
    """Every span of one ring matches the dense reference, also where the
    basis finds a monomial of the ideal above the degrees of the relations
    that give it."""

    @settings(deadline=None, max_examples=100)
    @given(small_presentations(max_vars=3, tops=(2, 3, 4), generic=True), st.data())
    def test_whole_ring_matches_dense_reference(self, p, data):
        # the spans of one ring in ascending degree; the dense reference
        # knows nothing of found monomials, and a top degree of 2 or more
        # leaves a span above a find
        p, extra, gens = dense_forms(data, p, st.integers(1, 3))
        for span in GradedRing(p).spans(range(p.top_degree + 1)):
            check_span_against_dense(span, p, extra, gens, data)

    @settings(deadline=None, max_examples=100)
    @given(low_binomial_presentations(), st.data())
    def test_whole_ring_with_low_binomials_matches_dense_reference(self, p, data):
        # as above, over relation spans with pivots of two entries below
        # the top degree, whose leads need not lie in the ideal.  Each extra
        # dense form makes the ideal larger, and a faulty ring's wrong finds
        # more often lie in it, so at most two are drawn.
        p, extra, gens = dense_forms(data, p, st.integers(0, 2))
        for span in GradedRing(p).spans(range(p.top_degree + 1)):
            check_span_against_dense(span, p, extra, gens, data)

    @settings(deadline=None, max_examples=100)
    @given(low_binomial_presentations(), st.data())
    def test_syzygies_skip_a_degree_with_no_span(self, p, data):
        # the zero rows of a span at degree k prune the span at k + 2, with
        # no span built at k + 1 between them; a relation given twice makes
        # a zero row at its degree
        p, extra, gens = dense_forms(data, p, st.integers(0, 2))
        twice = data.draw(st.sampled_from(p.relations)) * 2
        p = Presentation(p.table, list(p.relations) + [twice], p.top_degree)
        k = data.draw(st.integers(0, p.top_degree - 2))
        for span in GradedRing(p).spans([k, k + 2]):
            check_span_against_dense(span, p, extra, gens, data)


@st.composite
def linear_presentations(draw):
    """Presentations in 2-4 variables of top degree 2-4 with one or two
    relations of degree 1 and up to three of higher degree.  The first
    degree-1 relation holds the last variable, which leads it and is often
    capped; coefficients run over +-1..3, so leads other than 1 are common.
    The others are killers and binomials of degree 2 up to the top."""
    top = draw(st.sampled_from((2, 3, 4)))
    nvars = draw(st.integers(2, 4))
    caps = draw(st.lists(st.none() | st.integers(2, top + 1), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))
    coefficient = st.sampled_from((-3, -2, -1, 1, 2, 3))
    relations = []
    for i in range(draw(st.integers(1, 2))):
        support = set(draw(st.lists(st.integers(0, nvars - 1), min_size=2, max_size=3, unique=True)))
        if i == 0:
            support.add(nvars - 1)
        units = {tuple(int(j == v) for j in range(nvars)): draw(coefficient) for v in support}
        relations.append(Poly(table, units))
    for _ in range(draw(st.integers(0, 3))):
        degree = draw(st.integers(2, top))
        terms = {draw_monomial(draw, nvars, degree): draw(coefficient)}
        if draw(st.booleans()):
            terms[draw_monomial(draw, nvars, degree)] = draw(coefficient)
        relations.append(Poly(table, terms))
    return Presentation(table, relations, top)


def dense_quotient_ranks(p):
    """Graded ranks of p by dense elimination of every relation multiple."""
    ranks = []
    for k in range(p.top_degree + 1):
        basis = brute_basis(p, k)
        col = {m: i for i, m in enumerate(basis)}
        ranks.append(len(basis) - dense_rank(dense_multiples(p, p.relations, k, col), len(basis)))
    return ranks


def check_queries_against_dense(p, data):
    """`memberships` of drawn forms, some in the ideal, and `ideal_ranks` of
    drawn generators, against every multiple over the full basis ranked by
    plain Gaussian elimination over Fractions."""
    table, top = p.table, p.top_degree
    count = data.draw(st.integers(0, 2))
    gens = [draw_form(data, table, data.draw(st.integers(1, top))) for _ in range(count)]
    queries = []
    expected = []
    ideal = []
    for k in range(top + 1):
        basis = brute_basis(p, k)
        col = {m: i for i, m in enumerate(basis)}
        rows = dense_multiples(p, p.relations, k, col)
        both = rows + dense_multiples(p, gens, k, col)
        rank = dense_rank(both, len(basis))
        ideal.append(rank - dense_rank(rows, len(basis)))
        factors = [
            g for g in gens + list(p.relations) if not g.is_zero() and g.homogeneous_degree() <= k
        ]
        forms = [draw_form(data, table, k)]
        if factors:
            g = data.draw(st.sampled_from(factors))
            forms.append(g * draw_form(data, table, k - g.homogeneous_degree()))
        for f in forms:
            queries.append(f)
            row = {col[m]: c for m, c in f.terms.items()}
            expected.append(dense_rank(both + [row], len(basis)) == rank)
    assert memberships(p, gens, queries) == expected
    assert ideal_ranks(p, gens) == ideal


def check_kernel_against_dense(p, data):
    """`kernel_ranks` of the identity onto the ring with extra dense
    relations: the kernel is the drop in quotient rank."""
    target, _, _ = dense_forms(data, p, st.integers(1, 2))
    images = {name: Poly.variable(p.table, name) for name in p.table.names()}
    drop = [a - b for a, b in zip(dense_quotient_ranks(p), dense_quotient_ranks(target))]
    assert kernel_ranks(p, target, images) == drop


class TestLinearPart:
    """Rings with relations of degree 1, whose leading variables lead basis
    elements and leave every column; the dense references know nothing of
    the basis."""

    @settings(deadline=None, max_examples=100)
    @given(linear_presentations(), st.data())
    def test_whole_ring_matches_dense_reference(self, p, data):
        p, extra, gens = dense_forms(data, p, st.integers(0, 2))
        solved = set(solved_variables(p))
        assert solved
        for span in GradedRing(p).spans(range(p.top_degree + 1)):
            if span.degree == 1:
                assert not solved & set(span.alive_monomials)
            check_span_against_dense(span, p, extra, gens, data)

    @settings(deadline=None, max_examples=100)
    @given(linear_presentations(), st.data())
    def test_memberships_and_ideal_ranks_match_dense_reference(self, p, data):
        check_queries_against_dense(p, data)

    @settings(deadline=None, max_examples=60)
    @given(linear_presentations(), st.data())
    def test_kernel_ranks_match_dense_reference(self, p, data):
        # the identity onto the ring with extra relations, a degree-1 one
        # among them at times: the kernel is the drop in quotient rank
        check_kernel_against_dense(p, data)

    def test_a_fresh_ring_rewrites_a_query(self):
        # a normal form builds the basis first, before any span: D{1,2} leads
        # its pair's Chern relation and is rewritten in the other variables
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        pair = Poly.variable(p.table, "D{1,2}")
        form = GradedRing(p).normal_form(pair)
        ring = GradedRing(p)
        assert list(map(DegreeSpan.quotient_rank, ring.spans(range(5)))) == [1, 9, 16, 9, 1]
        assert form == ring.normal_form(pair)
        assert not form.is_zero() and not any(e[p.table.index("D{1,2}")] for e in form.terms)
        assert ring.normal_form(pair - form).is_zero()

    @pytest.mark.parametrize("build", [chow_presentation, iterated_presentation])
    def test_no_live_column_holds_a_solved_variable(self, build):
        # (1,5) all-large: each pair's Chern relation is solved for its divisor
        p = build(ProjectiveGeometry(1, 5), LargeFamily.all_subsets(5))
        solved = [m.index(1) for m in solved_variables(p)]
        pairs = sorted(divisor_name(s) for s in combinations(range(1, 6), 2))
        assert sorted(p.table.names()[i] for i in solved) == pairs
        spans = GradedRing(p).spans(range(p.top_degree + 1))
        assert not any(m[i] for span in spans for m in span.alive_monomials for i in solved)


@st.composite
def binomial_presentations(draw):
    """Presentations in 2-4 variables of top degree 2-4 whose relations are
    one to three pure-difference binomials c*(x - y)*w, w any monomial below
    the top degree (x or y inside it as well), now and then a second one
    with the same x*w, up to two killers, and at times a relation of
    degree 1, which the ring solves first.  No cap is 1."""
    top = draw(st.sampled_from((2, 3, 4)))
    nvars = draw(st.integers(2, 4))
    caps = draw(st.lists(st.none() | st.integers(2, top + 1), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))

    def shifted(w, i):
        return Poly.monomial(table, tuple(e + (j == i) for j, e in enumerate(w)))

    relations = [
        Poly.monomial(table, draw_monomial(draw, nvars, draw(st.integers(2, top))))
        for _ in range(draw(st.integers(0, 2)))
    ]
    variable = st.integers(0, nvars - 1)
    for _ in range(draw(st.integers(1, 3))):
        w = draw_monomial(draw, nvars, draw(st.integers(1, top - 1)))
        x, y = draw(st.lists(variable, min_size=2, max_size=2, unique=True))
        relations.append(draw(st.sampled_from((-2, -1, 1, 3))) * (shifted(w, x) - shifted(w, y)))
        if draw(st.booleans()):
            z = draw(variable.filter(lambda z: z != x))
            relations.append(shifted(w, x) - shifted(w, z))
    if draw(st.booleans()):
        support = draw(st.lists(variable, min_size=2, max_size=3, unique=True))
        units = {tuple(int(j == v) for j in range(nvars)): draw(st.sampled_from((-2, -1, 1))) for v in support}
        relations.append(Poly(table, units))
    return Presentation(table, relations, top)


class TestBinomialRules:
    """Rings whose relations are mostly pure-difference binomials, such as
    the diagonal relations of P^d for d >= 2; the dense references know
    nothing of the basis."""

    @settings(deadline=None, max_examples=100)
    @given(binomial_presentations(), st.data())
    def test_whole_ring_matches_dense_reference(self, p, data):
        p, extra, gens = dense_forms(data, p, st.integers(0, 2))
        for span in GradedRing(p).spans(range(p.top_degree + 1)):
            check_span_against_dense(span, p, extra, gens, data)

    @settings(deadline=None, max_examples=100)
    @given(binomial_presentations(), st.data())
    def test_memberships_and_ideal_ranks_match_dense_reference(self, p, data):
        check_queries_against_dense(p, data)

    @settings(deadline=None, max_examples=60)
    @given(binomial_presentations(), st.data())
    def test_kernel_ranks_match_dense_reference(self, p, data):
        check_kernel_against_dense(p, data)

    @settings(deadline=None, max_examples=100)
    @given(binomial_presentations())
    def test_graded_ranks_match_dense_reference(self, p):
        assert graded_ranks(p) == dense_quotient_ranks(p)

    def test_a_killer_is_closed_through_a_rule_of_two_variables(self):
        # x^2 = 0 and x*a*b = y*a*b: the S-pair of the two leads
        # lcm(x^2, x*a*b) = x^2*a*b to y^2*a*b, which lies in the ideal but
        # is no multiple of x^2, and its divisors y^2*a, y^2*b and y*a*b
        # are live
        table = VarTable(tuple(Var(name) for name in ("y", "x", "a", "b")))
        y, x, a, b = (Poly.variable(table, name) for name in ("y", "x", "a", "b"))
        p = Presentation(table, [x * x, (x - y) * a * b], 4)
        ring = GradedRing(p)
        assert graded_ranks(p) == dense_quotient_ranks(p)
        divisors = (y * y * a, y * y * b, y * a * b)
        assert all(max(f.packed) in ring.live(3) for f in divisors)
        assert max((y * y * a * b).packed) not in ring.live(4)

    def test_a_found_monomial_kills_its_collapse_multiple(self):
        # h1*h3 = 0 makes h2^2 + h1*h3 reduce to h2^2, a basis element of
        # degree 2.  Its S-polynomial with (h2 - h1)*D, of lead h2*D, takes
        # h2^2*D to h1*h2*D and on to h1^2*D, no multiple of h2^2, whose
        # divisors h1^2 and h1*D are standard: a lead of degree 3
        table = VarTable((Var("h1", 1, 3), Var("h2", 1, 3), Var("h3", 1, 3), Var("D")))
        h1, h2, h3, d = (Poly.variable(table, name) for name in ("h1", "h2", "h3", "D"))
        p = Presentation(table, [(h2 - h1) * d, h1 * h3, h2 * h2 + h1 * h3], 4)
        ring = GradedRing(p)
        spans = list(ring.spans(range(p.top_degree + 1)))
        for k, f in ((2, h2 * h2), (3, h1 * h1 * d)):
            assert max(f.packed) not in ring.live(k)
            assert ring.normal_form(f).is_zero()
        assert all(max(f.packed) in ring.live(2) for f in (h1 * h1, h1 * d))
        assert [s.quotient_rank() for s in spans] == dense_quotient_ranks(p)

    def test_a_move_onto_a_rest_repeats_the_pass(self):
        # the lead c*a of (c - b)*a moves d*c*a onto b, which the lead d*b
        # of (d - a)*b holds: d*c*a divides by it only after the first step,
        # and its normal form is a^2*b, two steps down.  The two leads are
        # coprime, so the basis is the two relations
        table = VarTable(tuple(Var(name) for name in "abcd"))
        a, b, c, d = (Poly.variable(table, name) for name in "abcd")
        p = Presentation(table, [(c - b) * a, (d - a) * b], 3)
        ring = GradedRing(p)
        assert set(ring.basis) == set(p.relations)
        assert ring.normal_form(d * c * a) == ring.normal_form(a * a * b) == a * a * b
        assert membership(p, [], d * c * a - a * a * b)
        assert graded_ranks(p) == dense_quotient_ranks(p)

    def test_a_rule_of_no_rest_rewrites_the_powers_of_its_variable(self):
        # (x - y)*x leads with x^2, which holds no other variable: x^3
        # divides down to x*y^2, and the basis is the one relation
        table = VarTable(tuple(Var(name) for name in "yx"))
        y, x = (Poly.variable(table, name) for name in "yx")
        p = Presentation(table, [(x - y) * x], 4)
        ring = GradedRing(p)
        assert ring.basis == p.relations
        assert ring.normal_form(x * x * x) == ring.normal_form(x * y * y) == x * y * y
        assert memberships(p, [], [x * x - x * y, x * x * x - x * y * y]) == [True, True]
        assert graded_ranks(p) == dense_quotient_ranks(p)


@st.composite
def factored_presentations(draw):
    """Presentations in 2-4 variables of top degree 2-4 whose relations are
    one to four products w*f of a monomial w of degree 1-2 and a form f of
    degree 1-2 with one to three terms, and at times a killer.  The factors
    w share variables, so the gcd of two leads often divides both
    elements' contents, and of the remainders' too.  No cap is 1."""
    top = draw(st.sampled_from((2, 3, 4)))
    nvars = draw(st.integers(2, 4))
    caps = draw(st.lists(st.none() | st.integers(2, top + 1), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))
    coefficient = st.sampled_from((-3, -2, -1, 1, 2, 3))
    relations = [
        Poly.monomial(table, draw_monomial(draw, nvars, draw(st.integers(2, top))))
        for _ in range(draw(st.integers(0, 1)))
    ]
    for _ in range(draw(st.integers(1, 4))):
        w = draw_monomial(draw, nvars, draw(st.integers(1, min(2, top - 1))))
        degree = draw(st.integers(1, min(2, top - sum(w))))
        terms = {draw_monomial(draw, nvars, degree): draw(coefficient) for _ in range(draw(st.integers(1, 3)))}
        relations.append(Poly.monomial(table, w) * Poly(table, terms))
    return Presentation(table, relations, top)


class TestCommonFactorCriterion:
    """A pair whose leads' gcd g divides both elements is never reduced:
    its S-polynomial is g times that of two elements with coprime leads."""

    @staticmethod
    def counted(monkeypatch):
        calls = []
        s_polynomial = GradedRing._s_polynomial

        def counting(ring, *args):
            calls.append(args[0])
            return s_polynomial(ring, *args)

        monkeypatch.setattr(GradedRing, "_s_polynomial", counting)
        return calls

    @settings(deadline=None, max_examples=150)
    @given(factored_presentations())
    def test_graded_ranks_match_dense_reference(self, p):
        assert graded_ranks(p) == dense_quotient_ranks(p)

    @pytest.mark.parametrize("order", ["divisible first", "divisible second"])
    def test_a_gcd_dividing_one_content_only_keeps_the_pair(self, monkeypatch, order):
        # z*(x - a) and z*y - b^2 (or with x and y swapped, so that the
        # element z divides has the larger lead and joins the basis second):
        # their leads' gcd z divides the first only, and their S-polynomial
        # reduces to b^2*(x - a), a new element of degree 3.  Skipping the
        # pair would leave b^2*x standard and read 26 at degree 3
        table = VarTable(tuple(Var(name) for name in "abxyz"))
        a, b, x, y, z = (Poly.variable(table, name) for name in "abxyz")
        if order == "divisible second":
            x, y = y, x
        divisible, other = z * (x - a), z * y - b * b
        p = Presentation(table, [divisible, other], 3)
        calls = self.counted(monkeypatch)
        basis = GradedRing(p).basis
        assert calls == [max((x * y * z).packed)]
        assert basis[0] == (divisible if order == "divisible first" else other)
        assert basis[2] == b * b * (x - a)
        assert graded_ranks(p) == dense_quotient_ranks(p) == [1, 5, 13, 25]

    def test_a_gcd_dividing_both_contents_skips_the_pair(self, monkeypatch):
        # z*(x - a) and z*(y - b): the gcd z of the leads z*x and z*y divides
        # both, and no S-polynomial is reduced
        table = VarTable(tuple(Var(name) for name in "abxyz"))
        a, b, x, y, z = (Poly.variable(table, name) for name in "abxyz")
        p = Presentation(table, [z * (x - a), z * (y - b)], 3)
        calls = self.counted(monkeypatch)
        assert GradedRing(p).basis == p.relations
        assert calls == []
        assert graded_ranks(p) == dense_quotient_ranks(p)

    @pytest.mark.parametrize("dim, n, count", [(1, 5, 468), (2, 4, 255)])
    def test_s_polynomials_reduced_at_all_large(self, monkeypatch, dim, n, count):
        # 2,054 and 654 with the coprime criterion alone; `BASIS_GOLDEN`
        # pins the same basis
        p = chow_presentation(ProjectiveGeometry(dim, n), LargeFamily.all_subsets(n))
        calls = self.counted(monkeypatch)
        GradedRing(p).basis
        assert len(calls) == count


class TestStandardMonomials:
    @settings(deadline=None, max_examples=100)
    @given(
        st.one_of(
            small_presentations(max_vars=3, tops=(0, 1, 3, 4), generic=True),
            low_binomial_presentations(),
        )
    )
    def test_standard_monomials_lead_nothing_in_the_ideal(self, p):
        # reference: every relation multiple over the full basis, its
        # columns in descending packed order, so the dense pivots are the
        # lex-leading monomials of I_k.  It needs no J: a dead monomial
        # lies in I_k and leads itself.
        for span in GradedRing(p).spans(range(p.top_degree + 1)):
            k = span.degree
            basis = brute_basis(p, k)[::-1]
            col = {m: i for i, m in enumerate(basis)}
            rows = dense_multiples(p, p.relations, k, col)
            leads = {basis[c] for c in dense_pivot_columns(rows, len(basis))}
            expected = tuple(m for m in reversed(basis) if m not in leads)
            assert span.standard_monomials == expected
            assert len(expected) == span.quotient_rank()


class TestBatchedMembership:
    @settings(deadline=None, max_examples=60)
    @given(small_presentations(max_vars=3, tops=(0, 1, 3, 4), generic=True), st.data())
    def test_batch_equals_one_span_per_query(self, p, data):
        table, top = p.table, p.top_degree
        gens = [
            draw_form(data, table, data.draw(st.integers(1, max(top, 1))))
            for _ in range(data.draw(st.integers(0, 2)))
        ]
        queries = [Poly.zero(table), draw_form(data, table, top + 1)]
        for _ in range(data.draw(st.integers(0, 6))):
            k = data.draw(st.integers(0, top + 1))
            factors = [
                g
                for g in gens + list(p.relations)
                if not g.is_zero() and g.homogeneous_degree() <= k
            ]
            queries.append(draw_form(data, table, k))
            if factors:
                # a multiple of a relation or generator, a member, beside a
                # form of the same degree that may not be one
                g = data.draw(st.sampled_from(factors))
                queries.append(g * draw_form(data, table, k - g.homogeneous_degree()))
        queries = data.draw(st.permutations(queries))
        expected = [reference_membership(p, gens, f) for f in queries]
        assert memberships(p, gens, queries) == expected
        assert [membership(p, gens, f) for f in queries] == expected

        survivors = [v.name for v in table.vars if v.cap != 1]
        if survivors:
            mixed = Poly.constant(table, 1) + Poly.variable(table, survivors[0])
            at = data.draw(st.integers(0, len(queries)))
            with pytest.raises(DegreeError):
                memberships(p, gens, queries[:at] + [mixed] + queries[at:])

    def test_answers_follow_the_queries_within_a_degree(self):
        p, h, e = blown_up_p3()
        relation = e * e - 2 * h * e + h * h
        queries = [h * e, Poly.zero(p.table), h * h * e, h * h, (h * e) * (h * e), relation]
        assert memberships(p, [h * h * h], queries) == [False, True, True, False, True, True]
        assert memberships(p, [h * h * h], queries[::-1]) == [True, True, False, True, True, False]

    def test_generators_may_be_an_iterator(self):
        p, h, e = blown_up_p3()
        queries = [h * e, h * h * e, h * h * e * e, h * e * e]
        expected = [reference_membership(p, [h * e], f) for f in queries]
        assert memberships(p, iter([h * e]), queries) == expected == [True] * 4


class TestIdealAndKernelRanks:
    def test_corrected_kernel_ideal(self):
        p, h, e = blown_up_p3()
        assert ideal_ranks(p, [h * h * h, h * e]) == [0, 0, 1, 1]

    def test_identity_map_has_zero_kernel(self):
        p, h, e = blown_up_p3()
        images = {"h": h, "E": e}
        assert kernel_ranks(p, p, images) == [0, 0, 0, 0]

    def test_restriction_to_blown_up_plane(self):
        p, h, e = blown_up_p3()
        table = VarTable((Var("h", 1, 3), Var("E", 1, None)))
        hh, ee = Poly.variable(table, "h"), Poly.variable(table, "E")
        target = Presentation(table, [hh * ee, ee * ee + hh * hh], 2)
        assert graded_ranks(target) == [1, 2, 1]
        kern = kernel_ranks(p, target, {"h": hh, "E": ee})
        assert kern == [0, 0, 1, 1]
        assert kern == ideal_ranks(p, [h * h * h, h * e])

    def test_restriction_builds_one_span_per_presentation_and_degree(self, monkeypatch):
        # the target span of each degree answers the well-definedness
        # queries and then takes the images: 4 source + 3 target spans
        p, h, e = blown_up_p3()
        table = VarTable((Var("h", 1, 3), Var("E", 1, None)))
        hh, ee = Poly.variable(table, "h"), Poly.variable(table, "E")
        target = Presentation(table, [hh * ee, ee * ee + hh * hh], 2)
        built = []
        init = DegreeSpan.__init__

        def counting_init(self, ring, k):
            built.append((ring.presentation.top_degree, k))
            init(self, ring, k)

        monkeypatch.setattr(DegreeSpan, "__init__", counting_init)
        assert kernel_ranks(p, target, {"h": hh, "E": ee}) == [0, 0, 1, 1]
        assert sorted(built) == [(2, 0), (2, 1), (2, 2), (3, 0), (3, 1), (3, 2), (3, 3)]

    def test_ill_defined_map_names_the_first_relation_outside(self):
        p, h, e = blown_up_p3()
        table = VarTable((Var("h", 1, 3), Var("E", 1, None)))
        hh, ee = Poly.variable(table, "h"), Poly.variable(table, "E")
        target = Presentation(table, [hh * ee, ee * ee + hh * hh], 2)
        with pytest.raises(MapError) as exc_info:
            kernel_ranks(p, target, {"h": hh, "E": Poly.zero(table)})
        # E^2 - 2hE + h^2 maps to h^2, outside the target ideal; h^2*E maps to 0
        assert exc_info.value.offending == e * e - 2 * h * e + h * h

    def test_ideal_generators_may_be_an_iterator(self):
        p, h, e = blown_up_p3()
        assert ideal_ranks(p, iter([h * h * h, h * e])) == [0, 0, 1, 1]

    def test_ill_defined_map_reports_relation(self):
        p, h, e = blown_up_p3()
        table = VarTable((Var("h", 1, 3), Var("E", 1, None)))
        hh, ee = Poly.variable(table, "h"), Poly.variable(table, "E")
        target = Presentation(table, [hh * ee, ee * ee + hh * hh], 2)
        with pytest.raises(MapError) as exc_info:
            kernel_ranks(p, target, {"h": hh, "E": Poly.zero(table)})
        assert exc_info.value.offending is not None

    @pytest.mark.parametrize("big_side", ["source", "target"])
    def test_kernel_refusal_comes_before_any_span(self, monkeypatch, big_side):
        big = chow_presentation(ProjectiveGeometry(1, 5), LargeFamily.all_subsets(5))
        small, h, e = blown_up_p3()
        if big_side == "source":
            source, target = big, small
            images = {name: h for name in big.table.names()}
        else:
            source, target = small, big
            names = big.table.names()
            images = {
                "h": Poly.variable(big.table, names[0]),
                "E": Poly.variable(big.table, names[-1]),
            }

        def no_echelon(*args):
            raise AssertionError("a degree span was built before the cap refusal")

        monkeypatch.setattr(fmchow.ranks, "Echelon", no_echelon)
        message = "degree 3 has 5301 monomials, over the cap of 1000"
        with pytest.raises(SizeCapError, match=message):
            kernel_ranks(source, target, images, monomial_cap=1000)

    def test_map_poly_multiplicative(self):
        p, h, e = blown_up_p3()
        images = {"h": h + e, "E": e}
        assert map_poly(h * e, images, p) == (h + e) * e


class TestRankOracle:
    def test_empty_family_binomials(self):
        assert rank_oracle(1, 3, LargeFamily.empty(3)) == [1, 3, 3, 1]
        assert rank_oracle(2, 2, LargeFamily.empty(2)) == [1, 2, 3, 2, 1]

    def test_one_wall(self):
        fam = LargeFamily.all_subsets(2)
        assert rank_oracle(2, 2, fam) == [1, 3, 4, 3, 1]
        assert rank_oracle(3, 2, fam) == [1, 3, 5, 6, 5, 3, 1]

    def test_codimension_one_walls_add_nothing(self):
        fam = LargeFamily.all_subsets(3)
        assert rank_oracle(1, 3, fam) == [1, 4, 4, 1]

    def test_four_points(self):
        assert rank_oracle(1, 4, LargeFamily.all_subsets(4)) == [1, 9, 16, 9, 1]

    def test_triple_only_dim_two(self):
        fam = LargeFamily(3, frozenset({F({1, 2, 3})}))
        assert rank_oracle(2, 3, fam) == [1, 4, 8, 10, 8, 4, 1]

    def test_deterministic_across_calls(self):
        fam = LargeFamily.all_subsets(3)
        assert rank_oracle(1, 3, fam) == rank_oracle(1, 3, fam)

    def test_rejects_mismatched_n(self):
        with pytest.raises(ValueError):
            rank_oracle(1, 4, LargeFamily.all_subsets(3))


class TestStructuralProperties:
    @pytest.mark.parametrize(
        "dim,n,sets",
        [(1, 3, None), (2, 2, None), (1, 4, [{1, 2}, {1, 2, 3}])],
    )
    def test_palindromic_with_unit_ends(self, dim, n, sets):
        fam = (
            LargeFamily.all_subsets(n) if sets is None else LargeFamily.closure(n, sets)
        )
        table = rank_oracle(dim, n, fam)
        assert table[0] == table[-1] == 1
        assert table == table[::-1]

    def test_label_permutation_invariance(self):
        fam = LargeFamily.closure(3, [{1, 2}])
        perm = {1: 3, 2: 1, 3: 2}
        assert rank_oracle(1, 3, fam) == rank_oracle(1, 3, fam.relabel(perm))

    def test_monotone_under_adding_a_wall(self):
        small = LargeFamily.closure(3, [{1, 2, 3}])
        bigger = LargeFamily.closure(3, [{1, 2}])
        a = rank_oracle(2, 3, small)
        b = rank_oracle(2, 3, bigger)
        assert all(x <= y for x, y in zip(a, b))


class TestOneSpanAlive:
    """Every query drops a span before the next span of its ring is built."""

    @pytest.fixture
    def most_alive(self, monkeypatch):
        import weakref

        alive = weakref.WeakSet()
        seen = []  # (spans of the new span's ring, spans of any ring) alive after each build
        init = DegreeSpan.__init__

        def tracking(self, ring, k):
            init(self, ring, k)
            alive.add(self)
            seen.append((sum(s.ring is ring for s in alive), len(alive)))

        monkeypatch.setattr(DegreeSpan, "__init__", tracking)

        def most():
            assert seen, "no span was built"
            return max(r for r, _ in seen), max(a for _, a in seen)

        return most

    def test_memberships(self, most_alive):
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        assert all(memberships(p, [], p.relations))
        assert most_alive() == (1, 1)

    def test_ideal_ranks(self, most_alive):
        p, h, e = blown_up_p3()
        assert ideal_ranks(p, [h**3, h * e]) == [0, 0, 1, 1]
        assert most_alive() == (1, 1)

    def test_graded_ranks(self, most_alive):
        p = chow_presentation(ProjectiveGeometry(1, 4), LargeFamily.all_subsets(4))
        assert graded_ranks(p) == [1, 9, 16, 9, 1]
        assert most_alive() == (1, 1)

    def test_rank_table_and_queries_of_a_side(self, most_alive):
        from fmchow.verify import check_equivalence

        assert check_equivalence(1, 4).passed
        assert most_alive() == (1, 1)

    def test_kernel_ranks_hold_one_source_and_one_target_span(self, most_alive):
        from fmchow.verify import _blown_up_p2_at_point, _blown_up_p3_along_line

        up, down = _blown_up_p3_along_line(), _blown_up_p2_at_point()
        images = {name: Poly.variable(down.table, name) for name in ("h", "E")}
        assert kernel_ranks(up, down, images) == [0, 0, 1, 1]
        assert most_alive() == (1, 2)


class TestFieldBound:
    def test_ring_takes_a_top_degree_at_the_bound(self):
        # a constant relation leaves every degree empty, so the ring is cheap
        # up to the packed monomial's degree bound, and refused one above it
        table = VarTable((Var("x"), Var("y")))
        one = Poly.constant(table, 1)
        assert graded_ranks(Presentation(table, [one], 127)) == [0] * 128
        with pytest.raises(StructureError, match="degree bound 127"):
            GradedRing(Presentation(table, [one], 128))

    def test_ring_refuses_a_top_degree_the_field_cannot_hold(self):
        table = VarTable((Var("x"), Var("y")))
        assert graded_ranks(Presentation(table, [], 5)) == [1, 2, 3, 4, 5, 6]
        # every exponent must stay below its field's guard bit, 2**7
        for top in (128, 1 << 15, 1 << 16):
            with pytest.raises(StructureError, match=f"top degree {top} is over the packed monomial's degree bound"):
                graded_ranks(Presentation(table, [], top))
