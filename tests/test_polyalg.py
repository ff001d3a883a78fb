"""Tests for the exact polynomial substrate."""

from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fmchow.errors import DegreeError, StructureError
from fmchow.polyalg import (
    FIELD_BITS,
    MAX_DEGREE,
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
    substitute,
    transport,
)

T2 = VarTable.for_points(2, 2)  # h1, h2 with h^3 = 0
T1 = VarTable.for_points(2, 1)  # h1, h2 with h^2 = 0
TCE = VarTable((Var("h", 1, 4), Var("E", 1, None)))  # blown-up P^3 variables


def h(table, i):
    return Poly.variable(table, f"h{i}")


small_polys = st.builds(
    lambda terms: Poly(T2, {e: c for e, c in terms}),
    st.lists(
        st.tuples(
            st.tuples(st.integers(0, 2), st.integers(0, 2)),
            st.integers(-4, 4),
        ),
        max_size=5,
    ),
)


class TestArithmetic:
    def test_add_cancels(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        assert (h1 + h2) + (-h2) == h1

    def test_nilpotency_cap(self):
        h1 = h(T1, 1)
        assert (h1 * h1).is_zero()
        hh = h(T2, 1)
        assert not (hh * hh).is_zero()
        assert (hh * hh * hh).is_zero()

    def test_difference_of_squares(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        assert (h1 - h2) * (h1 + h2) == h1 * h1 - h2 * h2

    def test_mismatched_tables(self):
        with pytest.raises(StructureError):
            h(T2, 1) + h(T1, 1)

    def test_scalar_and_power(self):
        h1 = h(T2, 1)
        assert 3 * h1 - h1 == 2 * h1
        assert h1**0 == Poly.constant(T2, 1)

    @given(small_polys, small_polys, small_polys)
    @settings(max_examples=60)
    def test_ring_axioms(self, a, b, c):
        assert a + b == b + a
        assert a * b == b * a
        assert (a + b) + c == a + (b + c)
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c

    @given(small_polys)
    def test_normalization_idempotent(self, a):
        assert Poly(T2, a.terms) == a


class TestDegrees:
    def test_homogeneous_degree(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        assert (h1 * h1 - h1 * h2).homogeneous_degree() == 2
        with pytest.raises(DegreeError):
            (h1 + h1 * h2).homogeneous_degree()

    def test_zero_degree(self):
        assert Poly.zero(T2).homogeneous_degree() is None


class TestText:
    def test_blowup_relation_rendering(self):
        hh = Poly.variable(TCE, "h")
        e = Poly.variable(TCE, "E")
        rel = e * e - 2 * hh * e + hh * hh
        assert str(rel) == "E^2 - 2*h*E + h^2"

    def test_constant_and_zero(self):
        assert str(Poly.constant(T2, -7)) == "-7"
        assert str(Poly.zero(T2)) == "0"

    def test_divisor_name(self):
        assert divisor_name({3, 1}) == "D{1,3}"


class TestTransport:
    def test_reorder_by_name(self):
        big = VarTable((Var("D{1,2}"), Var("h1", 1, 2), Var("h2", 1, 2)))
        p = h(T1, 1) * h(T1, 2)
        q = transport(p, big)
        assert str(q) == str(p)
        assert q.table is big

    def test_missing_variable(self):
        with pytest.raises(StructureError):
            transport(h(T2, 1), VarTable((Var("x"),)))

    def test_rename(self):
        table = VarTable((Var("e", 1, None),))
        p = transport(Poly.variable(TCE, "E"), table, rename={"E": "e"})
        assert p == Poly.variable(table, "e")


class TestSubstitute:
    def test_identify_variables(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        p = h1 * h1 + h1 * h2 + h2 * h2
        assert substitute(p, "h2", h1) == 3 * h1 * h1

    def test_cap_applies_after_substitution(self):
        h1, h2 = h(T1, 1), h(T1, 2)
        assert substitute(h1 * h2, "h2", h1).is_zero()


class TestChern:
    def test_eval_at_zero_gives_constant(self):
        c = h(T2, 1) + h(T2, 2)
        p = ChernPoly(T2, 1, [c, Poly.constant(T2, 1)])
        assert chern_eval(p, Poly.zero(T2)) == c

    def test_eval_perfect_square(self):
        h1 = h(T2, 1)
        p = ChernPoly(T2, 2, [h1 * h1, -2 * h1, Poly.constant(T2, 1)])
        assert chern_eval(p, h1).is_zero()

    def test_blowup_relation_via_eval(self):
        hh = Poly.variable(TCE, "h")
        e = Poly.variable(TCE, "E")
        p = ChernPoly(TCE, 2, [hh * hh, 2 * hh, Poly.constant(TCE, 1)])
        assert chern_eval(p, -e) == e * e - 2 * hh * e + hh * hh

    def test_eval_requires_degree_one(self):
        p = ChernPoly(T2, 1, [h(T2, 1), Poly.constant(T2, 1)])
        with pytest.raises(DegreeError):
            chern_eval(p, h(T2, 1) * h(T2, 2))

    def test_eval_matches_naive_expansion(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        p = ChernPoly(
            T2, 3, [h1 * h1 * h2, h1 * h2 * 0, 2 * h1 - h2, Poly.constant(T2, -1)]
        )
        s = h1 - 2 * h2
        naive = Poly.zero(T2)
        for ell in range(4):
            naive = naive + p.coeffs[ell] * s**ell
        assert chern_eval(p, s) == naive

    def test_coefficient_grading_enforced(self):
        with pytest.raises(DegreeError):
            ChernPoly(T2, 2, [h(T2, 1), Poly.zero(T2), Poly.constant(T2, 1)])

    def test_shift_negates_variable(self):
        c = h(T2, 1)
        p = ChernPoly(T2, 1, [c, Poly.constant(T2, 1)])
        q = chern_shift(p, Poly.zero(T2), sign=-1)
        assert q.coeffs[1] == Poly.constant(T2, -1)
        assert q.coeffs[0] == c

    def test_shift_by_binomial_expansion(self):
        # p(t) = t^2 + a t + b shifted to p(t - e): constant term e^2 - a e + b
        h1, h2 = h(T2, 1), h(T2, 2)
        a, b = 2 * h1, h1 * h2
        p = ChernPoly(T2, 2, [b, a, Poly.constant(T2, 1)])
        q = chern_shift(p, -h2, sign=1)
        assert q.coeffs[0] == h2 * h2 - a * h2 + b
        assert q.coeffs[2] == Poly.constant(T2, 1)

    def test_shift_requires_degree_one(self):
        p = ChernPoly(T2, 1, [h(T2, 1), Poly.constant(T2, 1)])
        with pytest.raises(DegreeError):
            chern_shift(p, h(T2, 1) * h(T2, 2), sign=-1)
        with pytest.raises(ValueError):
            chern_shift(p, h(T2, 1), sign=2)

    def test_shift_composition(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        p = ChernPoly(T2, 2, [h1 * h2, h1 - h2, Poly.constant(T2, 1)])
        for e1 in (1, -1):
            for e2 in (1, -1):
                lhs = chern_shift(chern_shift(p, h1, e1), h2, e2)
                rhs = chern_shift(p, e1 * h2 + h1, e1 * e2)
                assert lhs == rhs

    def test_products_over_another_table_are_refused(self):
        # the Chern product and evaluation add into one dict of packed
        # terms, and still refuse a factor over another table
        p = ChernPoly(T2, 1, [h(T2, 1), Poly.constant(T2, 1)])
        q = ChernPoly(T1, 1, [h(T1, 1), Poly.constant(T1, 1)])
        with pytest.raises(StructureError):
            chern_mul(p, q)
        with pytest.raises(StructureError):
            chern_eval_powers(p, [Poly.constant(T1, 1), h(T1, 2)])

    def test_mul_degrees_add(self):
        p = ChernPoly(T2, 1, [h(T2, 1), Poly.constant(T2, 1)])
        q = ChernPoly(T2, 1, [h(T2, 2), Poly.constant(T2, 1)])
        pq = chern_mul(p, q)
        assert pq.degree == 2
        assert pq.coeffs[0] == h(T2, 1) * h(T2, 2)
        assert pq.coeffs[1] == h(T2, 1) + h(T2, 2)


class TestPresentation:
    def test_deduplicates_up_to_sign(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        p = Presentation(T2, [h1 - h2, h2 - h1, h1 - h2], 4)
        assert len(p.relations) == 1

    def test_rejects_inhomogeneous(self):
        with pytest.raises(DegreeError):
            Presentation(T2, [h(T2, 1) + Poly.constant(T2, 1)], 4)

    def test_drops_zero_relations(self):
        p = Presentation(T2, [Poly.zero(T2)], 4)
        assert p.relations == ()

    def test_dump_is_canonical(self):
        p = Presentation(TCE, [Poly.variable(TCE, "h") * Poly.variable(TCE, "E")], 3)
        dump = p.dump()
        assert dump.splitlines() == [
            "vars:",
            "h deg 1 cap 4",
            "E deg 1",
            "top-degree: 3",
            "rel:",
            "h*E",
        ]

    def test_canonical_var_order_sorts_divisors(self):
        table = VarTable(
            (Var("h1", 1, 2), Var("D{1,2,3}"), Var("D{1,2}"), Var("h2", 1, 2))
        )
        p = Presentation(table, [], 2)
        assert p.canonical_var_order().table.names() == (
            "h1",
            "h2",
            "D{1,2}",
            "D{1,2,3}",
        )

    def test_equal_presentations_hash_equal(self):
        h1, h2 = h(T2, 1), h(T2, 2)
        # built apart, over an equal table, with the relations in another order and sign
        other = VarTable.for_points(2, 2)
        a = Presentation(T2, [h1 * h2, h1 - h2], 4)
        b = Presentation(other, [h(other, 2) - h(other, 1), h(other, 1) * h(other, 2)], 4)
        assert a == b and a.table is not b.table
        assert hash(a) == hash(b)
        assert len({a, b}) == 1
        assert {a: 1}[b] == 1
        assert Presentation(T2, [h1 - h2], 4) not in {a}
        assert Presentation(T2, [h1 * h2, h1 - h2], 3) not in {a}


class TestCoefficientChecks:
    """Coefficients are integers: a rational or float one is refused with a
    typed error, never truncated or carried into elimination."""

    NON_INTEGERS = [Fraction(1, 2), Fraction(2), 0.5, 1.0, "1"]

    @pytest.mark.parametrize("c", NON_INTEGERS)
    def test_constructors_refuse(self, c):
        with pytest.raises(StructureError, match="not an integer"):
            Poly(T2, {(1, 0): c, (0, 1): 1})
        with pytest.raises(StructureError, match="not an integer"):
            Poly.constant(T2, c)
        with pytest.raises(StructureError, match="not an integer"):
            Poly.monomial(T2, (1, 0), c)

    @pytest.mark.parametrize("c", NON_INTEGERS)
    def test_scalar_arithmetic_refuses(self, c):
        x = h(T2, 1)
        for op in (
            lambda: x * c,
            lambda: c * x,
            lambda: x + c,
            lambda: c + x,
            lambda: x - c,
            lambda: c - x,
        ):
            with pytest.raises(StructureError, match="not an integer"):
                op()

    def test_integer_scalars_still_work(self):
        x = h(T2, 1)
        assert Poly.constant(T2, True) == Poly.constant(T2, 1)
        assert (x * 2 - 2 * x).is_zero()
        assert x + 1 - 1 == x


class TestExponentChecks:
    """A packed field never borrows or carries: exponents it cannot hold
    are refused with a typed error, never wrapped."""

    X = VarTable((Var("x"), Var("h", 1, 3)))  # x uncapped, h^3 = 0

    def test_negative_exponent_is_refused(self):
        with pytest.raises(StructureError, match="negative"):
            Poly(T2, {(-1, 0): 1})
        with pytest.raises(StructureError, match="negative"):
            Poly.monomial(self.X, (1, -2))

    @pytest.mark.parametrize("exponent", [0.5, 1.0, "1", None])
    def test_non_integer_exponent_is_refused(self, exponent):
        with pytest.raises(StructureError, match="not an integer"):
            Poly(T2, {(exponent, 0): 1})

    def test_exponent_over_a_cap_dies(self):
        assert Poly(T2, {(3, 0): 1}).is_zero()
        assert Poly.monomial(self.X, (0, 10**9)).is_zero()

    def test_uncapped_exponent_over_the_field_is_refused_on_construction(self):
        # every monomial has degree at most MAX_DEGREE, so no exponent
        # reaches its field's guard bit
        assert (FIELD_BITS, MAX_DEGREE) == (8, 127)
        assert str(Poly.monomial(self.X, (127, 0))) == "x^127"
        assert str(Poly.monomial(self.X, (125, 2))) == "x^125*h^2"
        for exps in ((128, 0), (126, 2)):
            with pytest.raises(StructureError, match="degree 128 is over the packed monomial's degree bound 127"):
                Poly.monomial(self.X, exps)
        # a cap kills a tuple before its degree is asked
        assert Poly.monomial(self.X, (200, 3)).is_zero()

    def test_uncapped_exponent_over_the_field_is_refused_on_a_product(self):
        x, h = Poly.variable(self.X, "x"), Poly.variable(self.X, "h")
        with pytest.raises(StructureError, match="degree 128"):
            Poly.monomial(self.X, (127, 0)) * x
        # a product term killed by h's cap is dropped, not refused
        assert (Poly.monomial(self.X, (125, 2)) * (x * h)).is_zero()
        assert (x + h) ** 127 == Poly(self.X, {(127, 0): 1, (126, 1): 127, (125, 2): 127 * 63})
        with pytest.raises(StructureError, match="degree 128"):
            (x + h) ** 128
        # neither field reaches its guard bit, but the degree is over the bound
        xy = VarTable((Var("x"), Var("y")))
        x64, y = Poly.monomial(xy, (64, 0)), Poly.variable(xy, "y")
        assert (x64 * y**63).terms == {(64, 63): 1}
        with pytest.raises(StructureError, match="degree 128"):
            x64 * y**64
        with pytest.raises(StructureError, match="degree 128"):
            Poly.monomial(xy, (64, 64))

    def test_bound_keeps_every_degree_exact(self):
        # a monomial's degree is its packed value modulo 2**8 - 1, exact up to
        # 254, the largest degree of a product of two monomials
        assert 2 * MAX_DEGREE < 2**FIELD_BITS - 1
        n = 40
        table = VarTable(tuple(Var(f"x{i}") for i in range(n)))
        exps = tuple(4 if i < 7 else 3 for i in range(n))
        assert sum(exps) == 127
        full = Poly.monomial(table, exps)
        assert full.homogeneous_degree() == 127
        assert full.terms == {exps: 1}
        with pytest.raises(StructureError, match="degree 128"):
            full * Poly.variable(table, "x39")
        with pytest.raises(StructureError, match="degree 254"):
            full * full

    def test_table_refuses_a_cap_the_field_cannot_hold(self):
        # one bound for every table, however many variables it has
        wide = VarTable(tuple(Var(f"h{i}", 1, 128) for i in range(40)))
        assert str(Poly.monomial(wide, (127,) + (0,) * 39)) == "h0^127"
        assert Poly.monomial(wide, (128,) + (0,) * 39).is_zero()
        with pytest.raises(StructureError, match="cap 129"):
            VarTable((Var("h", 1, 129),))
        with pytest.raises(StructureError, match="cap 129"):
            VarTable(wide.vars + (Var("y", 1, 129),))

    def test_transport_checks_the_target_field(self):
        small = VarTable((Var("a", 1, 3), Var("b", 1, 3), Var("c", 1, 3)))
        merged = VarTable((Var("z", 1, 5),))
        a, b = Poly.variable(small, "a"), Poly.variable(small, "b")
        rename = {"a": "z", "b": "z", "c": "z"}
        assert transport(a * a * b, merged, rename) == Poly.monomial(merged, (3,))
        c = Poly.variable(small, "c")
        assert transport(a * a * b * b, merged, rename) == Poly.monomial(merged, (4,))
        assert transport(a * a * b * b * c, merged, rename).is_zero()
        # a rename keeps the degree, so a merged uncapped field stays in bounds
        free = VarTable((Var("a"), Var("b")))
        onto = VarTable((Var("z"),))
        assert transport(Poly.monomial(free, (60, 67)), onto, {"a": "z", "b": "z"}) == Poly.monomial(onto, (127,))
        wide = VarTable((Var("x"), Var("h", 1, 3)) + tuple(Var(f"y{i}") for i in range(40)))
        onto_wide = transport(Poly.monomial(self.X, (127, 0)), wide)
        assert onto_wide.terms == {(127,) + (0,) * 41: 1}


def _reference_normalized(terms, caps):
    out = {}
    for exps, c in terms:
        if any(cap is not None and e >= cap for e, cap in zip(exps, caps)):
            continue
        out[exps] = out.get(exps, 0) + c
    return {e: c for e, c in out.items() if c}


def _reference_mul(a, b, caps):
    return _reference_normalized(
        [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()],
        caps,
    )


def _reference_str(terms, names):
    # the canonical text form, from exponent tuples
    ordered = sorted(terms.items(), key=lambda t: tuple(reversed(t[0])), reverse=True)
    if not ordered:
        return "0"
    out = []
    for i, (exps, c) in enumerate(ordered):
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        out.append(("-" if c < 0 else "") + body if i == 0 else (" - " if c < 0 else " + ") + body)
    return "".join(out)


@st.composite
def tables_and_polys(draw):
    nvars = draw(st.integers(1, 4))
    caps = draw(st.lists(st.none() | st.integers(1, 4), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))
    exps = st.tuples(*[st.integers(0, 3)] * nvars)
    polys = [
        draw(st.lists(st.tuples(exps, st.integers(-4, 4)), max_size=5)) for _ in range(2)
    ]
    return table, polys


def _reference_mul_checked(a, b, caps):
    """The product of exponent-tuple terms, or None where a term that
    survives the caps has a degree over MAX_DEGREE, so the product must
    be refused; a zero factor makes no terms to check."""
    terms = [(tuple(x + y for x, y in zip(e1, e2)), c1 * c2) for e1, c1 in a.items() for e2, c2 in b.items()]
    alive = [(e, c) for e, c in terms if not any(cap is not None and x >= cap for x, cap in zip(e, caps))]
    if any(sum(e) > MAX_DEGREE for e, _ in alive):
        return None
    return _reference_normalized(alive, caps)


@st.composite
def near_bound_polys(draw):
    """A table of up to 40 variables, capped up to MAX_DEGREE + 1 or not,
    and two polynomials whose terms have degree up to MAX_DEGREE, often
    near it, each spread over up to four variables."""
    nvars = draw(st.integers(1, 40))
    caps = draw(st.lists(st.none() | st.integers(1, MAX_DEGREE + 1), min_size=nvars, max_size=nvars))
    table = VarTable(tuple(Var(f"x{i}", 1, cap) for i, cap in enumerate(caps)))

    def monomial():
        degree = draw(st.integers(0, MAX_DEGREE) | st.integers(MAX_DEGREE // 2, MAX_DEGREE))
        support = draw(st.lists(st.integers(0, nvars - 1), min_size=1, max_size=4))
        cuts = sorted(draw(st.lists(st.integers(0, degree), min_size=len(support) - 1, max_size=len(support) - 1)))
        exps = [0] * nvars
        for i, lo, hi in zip(support, [0] + cuts, cuts + [degree]):
            exps[i] += hi - lo
        return tuple(exps)

    polys = [
        {monomial(): draw(st.sampled_from((-3, -2, -1, 1, 2, 3))) for _ in range(draw(st.integers(0, 3)))}
        for _ in range(2)
    ]
    return table, polys


class TestPackedAgreesWithTupleReference:
    @settings(max_examples=150, deadline=None)
    @given(tables_and_polys(), st.integers(0, 3))
    def test_arithmetic_and_canonical_form(self, drawn, k):
        table, (ta, tb) = drawn
        caps, names = table.caps(), table.names()
        a, b = Poly(table, dict(ta)), Poly(table, dict(tb))
        # dict(ta) keeps the last coefficient of a repeated monomial
        ra, rb = _reference_normalized(dict(ta).items(), caps), _reference_normalized(dict(tb).items(), caps)
        assert a.terms == ra and b.terms == rb
        assert (a + b).terms == _reference_normalized(list(ra.items()) + list(rb.items()), caps)
        assert (a - b).terms == _reference_normalized(
            list(ra.items()) + [(e, -c) for e, c in rb.items()], caps
        )
        assert (-a).terms == {e: -c for e, c in ra.items()}
        assert (3 * a).terms == {e: 3 * c for e, c in ra.items()}
        assert (a * b).terms == _reference_mul(ra, rb, caps)
        power = {(0,) * len(table): 1}
        for _ in range(k):
            power = _reference_mul(power, ra, caps)
        assert (a**k).terms == power
        for poly, ref in ((a, ra), (a * b, _reference_mul(ra, rb, caps))):
            assert str(poly) == _reference_str(ref, names)
            degrees = {sum(e) for e in ref}
            if len(degrees) > 1:
                with pytest.raises(DegreeError):
                    poly.homogeneous_degree()
            else:
                assert poly.homogeneous_degree() == (degrees.pop() if degrees else None)
            lead = max(ref, key=lambda e: tuple(reversed(e)), default=None)
            flip = lead is not None and ref[lead] < 0
            assert poly.sign_normalized().terms == ({e: -c for e, c in ref.items()} if flip else ref)

    @settings(max_examples=200, deadline=None)
    @given(near_bound_polys(), st.integers(0, 4))
    def test_products_and_powers_near_the_degree_bound(self, drawn, k):
        table, (ta, tb) = drawn
        caps = table.caps()
        a, b = Poly(table, ta), Poly(table, tb)
        ra, rb = _reference_normalized(ta.items(), caps), _reference_normalized(tb.items(), caps)
        assert a.terms == ra and b.terms == rb
        power = {(0,) * len(table): 1}
        for _ in range(k):
            power = None if power is None else _reference_mul_checked(power, ra, caps)
        for op, ref in ((lambda: a * b, _reference_mul_checked(ra, rb, caps)), (lambda: a**k, power)):
            if ref is None:
                with pytest.raises(StructureError, match="over the packed monomial's degree bound 127"):
                    op()
                continue
            poly = op()
            assert poly.terms == ref
            degrees = {sum(e) for e in ref}
            if len(degrees) > 1:
                with pytest.raises(DegreeError):
                    poly.homogeneous_degree()
            else:
                assert poly.homogeneous_degree() == (degrees.pop() if degrees else None)
