"""Tests for the presentation builders and the iterated construction."""

from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fmchow.present
from fmchow.errors import StructureError, WalkOrderError
from fmchow.geomdata import ProjectiveGeometry, chern_set, diagonal_ideal
from fmchow.polyalg import (
    ChernPoly,
    Poly,
    Presentation,
    Var,
    VarTable,
    chern_eval,
    divisor_name,
    transport,
)
from fmchow.present import (
    CoincidenceData,
    blowup_step,
    chow_presentation,
    coincidence_data,
    iterated_presentation,
    simplified_presentation,
)
from fmchow.ranks import graded_ranks, ideal_ranks, membership, rank_oracle
from fmchow.setcomb import (
    LargeFamily,
    Weights,
    all_walks,
    canonical_walk,
    merge_family,
    subset_key,
)

F = frozenset


def var(p, name):
    return Poly.variable(p.table, name)


def divisor_sum(table, large, lower):
    """The sum of the divisor variables D_V over the large V containing
    `lower`."""
    return Poly.variable_sum(table, [divisor_name(v) for v in large.members if F(lower) <= v])


class TestChowPresentation:
    def test_empty_family_is_base_product(self):
        g = ProjectiveGeometry(2, 2)
        p = chow_presentation(g, LargeFamily.empty(2))
        assert p.relations == ()
        assert p.table.names() == ("h1", "h2")
        # ranks of (P^2)^2: coefficients of (1+q+q^2)^2
        assert graded_ranks(p) == [1, 2, 3, 2, 1]

    def test_one_pair_dim_one(self):
        g = ProjectiveGeometry(1, 2)
        p = chow_presentation(g, LargeFamily.all_subsets(2))
        d12 = var(p, "D{1,2}")
        h1, h2 = var(p, "h1"), var(p, "h2")
        expected = Presentation(p.table, [(h1 - h2) * d12, -d12 + h1 + h2], 2)
        assert p == expected
        assert graded_ranks(p) == [1, 2, 1]

    def test_one_pair_dim_two_ranks(self):
        g = ProjectiveGeometry(2, 2)
        p = chow_presentation(g, LargeFamily.all_subsets(2))
        assert graded_ranks(p) == [1, 3, 4, 3, 1]

    def test_relations_are_homogeneous(self):
        g = ProjectiveGeometry(1, 3)
        p = chow_presentation(g, LargeFamily.all_subsets(3))
        for rel in p.relations:
            assert rel.homogeneous_degree() is not None

    def test_chain_override_changes_generators_not_ranks(self):
        # route the triple's Chern product through a different chain
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        middle_first = lambda s: sorted(s)[1:2] + sorted(s)[:1] + sorted(s)[2:]
        default = chow_presentation(g, fam)
        other = chow_presentation(g, fam, chain=middle_first)
        assert default.relations != other.relations
        assert graded_ranks(default) == graded_ranks(other)

    def test_chain_reversal_dim_two(self):
        # for d >= 2 even a pair is chain-sensitive (the tangent classes
        # are pulled back through the first chain index)
        g = ProjectiveGeometry(2, 2)
        fam = LargeFamily.all_subsets(2)
        default = chow_presentation(g, fam)
        other = chow_presentation(g, fam, chain=lambda s: sorted(s, reverse=True))
        assert default.relations != other.relations
        assert graded_ranks(default) == graded_ranks(other)

    def test_sign_convention_does_not_change_ranks(self):
        fam = LargeFamily.all_subsets(3)
        verbatim = chow_presentation(ProjectiveGeometry(1, 3), fam)
        monic = chow_presentation(ProjectiveGeometry(1, 3, monic=True), fam)
        assert verbatim.relations != monic.relations
        assert graded_ranks(verbatim) == graded_ranks(monic)

    def test_lift_independence(self):
        # perturbing a Chern coefficient by an element of the diagonal
        # ideal leaves the graded ranks unchanged
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily(3, frozenset({F({1, 2, 3})}))
        table = g.table_for(fam)
        d = Poly.variable(table, "D{1,2,3}")
        h1, h2 = Poly.variable(table, "h1"), Poly.variable(table, "h2")
        c = chern_set(g, {1, 2, 3}, table)
        perturbed = ChernPoly(
            table, 2, [c.coeffs[0], c.coeffs[1] + (h2 - h1), c.coeffs[2]]
        )
        rels = [gen * d for gen in diagonal_ideal(g, {1, 2, 3}, table)]
        p_perturbed = Presentation(table, rels + [chern_eval(perturbed, d)], 3)
        p_original = chow_presentation(g, fam)
        assert p_perturbed.relations != p_original.relations
        assert graded_ranks(p_perturbed) == graded_ranks(p_original)


class TestDegreeBound:
    def test_geometry_tables_refuse_a_top_degree_over_the_bound(self):
        for dim, n in ((127, 1), (63, 2), (1, 127)):
            assert len(ProjectiveGeometry(dim, n).point_table()) == n
        geom = ProjectiveGeometry(64, 2)
        with pytest.raises(StructureError, match="top degree 128"):
            geom.point_table()
        with pytest.raises(StructureError, match="top degree 128"):
            geom.table_for(LargeFamily.all_subsets(2))

    def test_builders_refuse_before_any_relation_is_built(self, monkeypatch):
        def no_build(*args):
            pytest.fail("a builder started work on an instance over the degree bound")

        monkeypatch.setattr(fmchow.present, "_Build", no_build)
        geom, large = ProjectiveGeometry(64, 2), LargeFamily.all_subsets(2)
        for build in (
            lambda: chow_presentation(geom, large),
            lambda: simplified_presentation(geom),
            lambda: iterated_presentation(geom, large),
        ):
            with pytest.raises(StructureError, match="top degree 128 of P\\^64 with 2 points"):
                build()


class TestSimplifiedPresentation:
    @pytest.mark.parametrize("dim", [1, 2])
    def test_two_points_coincides_with_full(self, dim):
        g = ProjectiveGeometry(dim, 2)
        assert simplified_presentation(g) == chow_presentation(
            g, LargeFamily.all_subsets(2)
        )

    def test_three_points_dim_one_ranks(self):
        g = ProjectiveGeometry(1, 3)
        assert graded_ranks(simplified_presentation(g)) == [1, 4, 4, 1]

    def test_relation_family_counts(self):
        # 3 overlap products, 5 diagonal-ideal multiples (one per pair plus
        # two for the triple), 3 pairwise Chern relations
        g = ProjectiveGeometry(1, 3)
        p = simplified_presentation(g)
        assert len(p.relations) == 11

    def test_relations_contained_in_full(self):
        g = ProjectiveGeometry(1, 3)
        simple = set(simplified_presentation(g).relations)
        full = set(chow_presentation(g, LargeFamily.all_subsets(3)).relations)
        assert simple <= full

    def test_extra_full_relation_lies_in_simplified_ideal(self):
        # the triple Chern relation is implied by the pairwise ones
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        full = chow_presentation(g, fam)
        simple = simplified_presentation(g)
        triple = chern_eval(
            chern_set(g, {1, 2, 3}, full.table),
            divisor_sum(full.table, fam, {1, 2, 3}),
        )
        assert triple in full.relations
        assert membership(simple, [], triple)

    def test_rank_agreement_with_full(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        assert graded_ranks(simplified_presentation(g)) == graded_ranks(
            chow_presentation(g, fam)
        )


class TestCoincidenceData:
    def test_no_large_sets(self):
        g = ProjectiveGeometry(1, 2)
        data = coincidence_data(g, LargeFamily.empty(2), {1, 2})
        table = g.table_for(LargeFamily.empty(2))
        h1, h2 = Poly.variable(table, "h1"), Poly.variable(table, "h2")
        assert data.ideal_gens == (h2 - h1,)
        # Chern polynomial of the pair diagonal with t negated: t + h1 + h2
        assert data.chern.degree == 1
        assert data.chern.coeffs[1] == Poly.constant(table, 1)
        assert data.chern.coeffs[0] == h1 + h2

    def test_inside_triple_diagonal(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily(3, frozenset({F({1, 2, 3})}))
        data = coincidence_data(g, fam, {1, 2}, rep=1)
        table = g.table_for(fam)
        h1, h2, h3 = (Poly.variable(table, f"h{i}") for i in (1, 2, 3))
        d123 = Poly.variable(table, "D{1,2,3}")
        assert data.ideal_gens == (h2 - h1, -d123 + h1 + h3)
        assert data.chern.coeffs[1] == Poly.constant(table, 1)
        assert data.chern.coeffs[0] == -d123 + h1 + h2

    def test_overlapping_divisors_enter_ideal(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.closure(3, [{1, 3}])
        data = coincidence_data(g, fam, {1, 2})
        gens = {str(p) for p in data.ideal_gens}
        assert "D{1,3}" in gens

    def test_representative_choice_gives_same_ideal(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily(3, frozenset({F({1, 2, 3})}))
        ambient = chow_presentation(g, fam)
        tables = []
        for rep in (1, 2):
            data = coincidence_data(g, fam, {1, 2}, rep=rep)
            gens = [transport(p, ambient.table) for p in data.ideal_gens]
            tables.append(ideal_ranks(ambient, gens))
        assert tables[0] == tables[1]

    def test_large_cluster_rejected(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        with pytest.raises(ValueError):
            coincidence_data(g, fam, {1, 2})


class TestBlowupStep:
    def test_blown_up_p3_matches_printed_ring(self):
        table = VarTable((Var("h", cap=4),))
        h = Poly.variable(table, "h")
        base = Presentation(table, [], 3)
        chern = ChernPoly(table, 2, [h * h, 2 * h, Poly.constant(table, 1)])
        p = blowup_step(base, [h * h], chern, "E")
        assert sorted(str(r) for r in p.relations) == ["E^2 - 2*h*E + h^2", "h^2*E"]
        assert graded_ranks(p) == [1, 2, 2, 1]

    def test_point_in_plane(self):
        table = VarTable((Var("h", cap=3),))
        h = Poly.variable(table, "h")
        base = Presentation(table, [], 2)
        chern = ChernPoly(table, 2, [h * h, Poly.zero(table), Poly.constant(table, 1)])
        p = blowup_step(base, [h], chern, "E")
        assert graded_ranks(p) == [1, 2, 1]

    def test_empty_center_keeps_base_ranks(self):
        # an empty center is encoded by putting 1 in the ideal, which kills
        # the new variable; the quotient keeps the ranks of the base
        table = VarTable((Var("h", cap=3),))
        h = Poly.variable(table, "h")
        base = Presentation(table, [], 2)
        chern = ChernPoly(
            table, 2, [Poly.zero(table), Poly.zero(table), Poly.constant(table, 1)]
        )
        p = blowup_step(base, [Poly.constant(table, 1)], chern, "E")
        assert graded_ranks(p) == graded_ranks(base) == [1, 1, 1]

    def test_name_collision(self):
        table = VarTable((Var("h", cap=3),))
        base = Presentation(table, [], 2)
        chern = ChernPoly(
            table, 1, [Poly.variable(table, "h"), Poly.constant(table, 1)]
        )
        with pytest.raises(StructureError):
            blowup_step(base, [], chern, "h")

    @pytest.mark.parametrize(
        "dim,n,cluster",
        [(1, 3, {1, 2, 3}), (2, 2, {1, 2})],
    )
    def test_rank_additivity_law(self, dim, n, cluster):
        # one blow-up adds the center's table shifted by 1..codim-1
        g = ProjectiveGeometry(dim, n)
        before = chow_presentation(g, LargeFamily.empty(n))
        data = coincidence_data(g, LargeFamily.empty(n), cluster)
        after = blowup_step(
            before, list(data.ideal_gens), data.chern, divisor_name(cluster)
        )
        merged = merge_family(LargeFamily.empty(n), cluster)
        center = graded_ranks(
            chow_presentation(ProjectiveGeometry(dim, merged.m), merged.family)
        )
        expected = graded_ranks(before)
        codim = data.chern.degree
        for i in range(1, codim):
            for j, c in enumerate(center):
                expected[j + i] += c
        assert graded_ranks(after) == expected


class TestIteratedPresentation:
    def test_empty_family(self):
        g = ProjectiveGeometry(2, 2)
        fam = LargeFamily.empty(2)
        assert iterated_presentation(g, fam) == chow_presentation(g, fam)

    def test_single_triple_equals_direct(self):
        # with one large set the two constructions emit identical relations
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily(3, frozenset({F({1, 2, 3})}))
        assert iterated_presentation(g, fam) == chow_presentation(g, fam)
        assert graded_ranks(iterated_presentation(g, fam)) == [1, 4, 4, 1]

    def test_same_variables_fewer_relations(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        it = iterated_presentation(g, fam)
        direct = chow_presentation(g, fam)
        assert set(it.table.names()) == set(direct.table.names())
        assert set(it.canonical_var_order().relations) <= set(
            direct.canonical_var_order().relations
        )

    @pytest.mark.parametrize(
        "dim,n,sets",
        [
            (1, 3, None),
            (1, 3, [{1, 2, 3}]),
            (2, 2, None),
            (1, 4, [{1, 2}, {3, 4}, {1, 2, 3}]),
        ],
    )
    def test_rank_agreement(self, dim, n, sets):
        g = ProjectiveGeometry(dim, n)
        fam = (
            LargeFamily.all_subsets(n) if sets is None else LargeFamily.closure(n, sets)
        )
        tables = {
            "direct": graded_ranks(chow_presentation(g, fam)),
            "iterated": graded_ranks(iterated_presentation(g, fam)),
            "oracle": rank_oracle(dim, n, fam),
        }
        assert tables["direct"] == tables["iterated"] == tables["oracle"]

    def test_walk_independence(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        walks = all_walks(fam)
        assert len(walks) == 6
        tables = {
            tuple(graded_ranks(iterated_presentation(g, fam, walk))) for walk in walks
        }
        assert len(tables) == 1

    def test_rejects_invalid_walk(self):
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        walk = canonical_walk(fam)
        with pytest.raises(WalkOrderError):
            iterated_presentation(g, fam, walk[::-1])

    def test_merged_transport_reproduces_generators(self):
        # the chern-type ideal generators of a coincidence locus are the
        # transported Chern relations of the merged-space presentation
        g = ProjectiveGeometry(1, 3)
        fam = LargeFamily.all_subsets(3)
        walk = canonical_walk(fam)
        processed = LargeFamily.empty(3)
        for t in walk:
            data = coincidence_data(g, processed, t, rep=min(t))
            ambient_table = g.table_for(processed)
            merged = merge_family(processed, t)
            gm = ProjectiveGeometry(g.dim, merged.m)
            merged_table = gm.table_for(merged.family)
            inverse = {new: old for old, new in merged.relabel.items()}
            rename = {}
            for j in range(1, merged.m + 1):
                rename[f"h{j}"] = f"h{min(t)}" if j == merged.star else f"h{inverse[j]}"
            for sp in merged.family.sorted_members():
                rename[divisor_name(sp)] = divisor_name(merged.expand(sp, t))
            for s in processed.sorted_members():
                if not s > t:
                    continue
                image = frozenset(
                    merged.star if i in t else merged.relabel[i] for i in s
                )
                merged_rel = chern_eval(
                    chern_set(gm, image, merged_table),
                    divisor_sum(merged_table, merged.family, image),
                )
                transported = transport(merged_rel, ambient_table, rename)
                expected = chern_eval(
                    chern_set(g, (s - t) | {min(t)}, ambient_table),
                    divisor_sum(ambient_table, processed, s),
                )
                assert transported == expected
                assert expected in data.ideal_gens
            processed = LargeFamily(3, processed.members | {t})


def fold(geom, large, walk):
    """The iterated construction as a fold of single blow-ups: at each wall
    crossing, the coincidence data over the processed family's own table,
    transported into the ring built so far, then `blowup_step`."""
    p = chow_presentation(geom, LargeFamily.empty(geom.n))
    processed = LargeFamily.empty(geom.n)
    for t in walk:
        data = coincidence_data(geom, processed, t, rep=min(t))
        gens = [transport(g, p.table) for g in data.ideal_gens]
        chern = ChernPoly(
            p.table, data.chern.degree, [transport(c, p.table) for c in data.chern.coeffs]
        )
        p = blowup_step(p, gens, chern, divisor_name(t))
        processed = LargeFamily(geom.n, processed.members | {t})
    return p


def assert_equals_fold(geom, large, walk):
    one_pass = iterated_presentation(geom, large, walk)
    folded = fold(geom, large, walk)
    assert one_pass == folded
    assert one_pass.dump().encode() == folded.dump().encode()


#: the grid of the benchmark's sweep workload, (d, n), and its weights k/12
SWEEP_GRID = ((1, 3), (1, 4), (2, 2), (2, 3), (3, 2))


@st.composite
def sweep_instances(draw):
    d, n = draw(st.sampled_from(SWEEP_GRID))
    ks = draw(st.lists(st.integers(1, 12), min_size=n, max_size=n))
    return d, Weights.from_strings([f"{k}/12" for k in ks])


class TestOnePassBuild:
    """The one-pass iterated build against the step-by-step fold."""

    @pytest.mark.parametrize(
        "dim, weights", [(2, "1,1,1"), (1, "1,1/2,1/2,1/2")]
    )
    def test_every_walk_equals_fold(self, dim, weights):
        parsed = Weights.from_strings(weights.split(","))
        geom = ProjectiveGeometry(dim, parsed.n)
        large = LargeFamily.from_weights(parsed)
        walks = all_walks(large)
        assert len(walks) > 1
        for walk in walks:
            assert_equals_fold(geom, large, walk)

    @settings(deadline=None)
    @given(sweep_instances())
    def test_sweep_draws_equal_fold(self, instance):
        dim, weights = instance
        large = LargeFamily.from_weights(weights)
        assert_equals_fold(ProjectiveGeometry(dim, weights.n), large, canonical_walk(large))

    def test_coincidence_data_over_a_given_table_is_the_transport(self):
        geom = ProjectiveGeometry(1, 4)
        large = LargeFamily.all_subsets(4)
        walk = canonical_walk(large)
        final = VarTable(
            geom.point_table().vars + tuple(Var(divisor_name(t)) for t in walk)
        )
        processed = LargeFamily.empty(4)
        for t in walk:
            default = coincidence_data(geom, processed, t)
            chern = ChernPoly(
                final, default.chern.degree, [transport(c, final) for c in default.chern.coeffs]
            )
            gens = tuple(transport(g, final) for g in default.ideal_gens)
            expected = CoincidenceData(default.subset, gens, chern)
            assert coincidence_data(geom, processed, t, table=final) == expected
            processed = LargeFamily(4, processed.members | {t})

    @settings(deadline=None)
    @given(sweep_instances())
    def test_a_crossing_evaluates_the_chern_polynomial_at_e_plus_u(self, instance):
        # P_t(E + u), u the divisors of the processed supersets of t, is the
        # coincidence data's shifted Chern polynomial evaluated at -E
        dim, weights = instance
        geom = ProjectiveGeometry(dim, weights.n)
        large = LargeFamily.from_weights(weights)
        walk = canonical_walk(large)
        table = iterated_presentation(geom, large, walk).table
        processed = LargeFamily.empty(weights.n)
        for t in walk:
            e = Poly.variable(table, divisor_name(t))
            u = Poly.variable_sum(table, [divisor_name(v) for v in processed.members if v > t])
            data = coincidence_data(geom, processed, t, table=table)
            assert chern_eval(chern_set(geom, t, table), e + u) == chern_eval(data.chern, -e)
            processed = LargeFamily(weights.n, processed.members | {t})


@pytest.mark.parametrize("builder", [chow_presentation, iterated_presentation])
@pytest.mark.parametrize("n", [4, 2])
def test_family_and_geometry_must_agree_on_the_points(builder, n):
    # a family over three points, for a geometry over more or fewer
    with pytest.raises(ValueError, match="family and geometry disagree on the number of points"):
        builder(ProjectiveGeometry(1, n), LargeFamily.all_subsets(3))


def test_no_memo_outlives_a_build(monkeypatch):
    # the Chern memos are local to one builder call: a second, equal build
    # computes exactly as many Chern polynomials as the first
    calls = []
    counted = fmchow.present.chern_set

    def counting(*args, **kwargs):
        calls.append(1)
        return counted(*args, **kwargs)

    monkeypatch.setattr(fmchow.present, "chern_set", counting)
    builds = [
        lambda: chow_presentation(ProjectiveGeometry(1, 5), LargeFamily.all_subsets(5)),
        lambda: iterated_presentation(ProjectiveGeometry(2, 4), LargeFamily.all_subsets(4)),
    ]
    for build in builds:
        counts = []
        for _ in range(2):
            calls.clear()
            build()
            counts.append(len(calls))
        assert counts[0] == counts[1] > 0


#: SHA-256 of `fmchow present`'s two files and of the iterated and
#: simplified presentations' dumps, recorded before monomials were packed
#: (the last two before the iterated construction was built in one pass)
GOLDEN = {
    (1, "1,1,1,1"): (
        "9ff0dddeaacf9e5427a293e31361282d3e5e2c0f2989e2941a08040310f9a7a7",
        "0d8e2ccd37df7046031187fdb9297f0e33be92d30c86ca9ab8fd201320174fff",
        "183f2fbade94bd12c9bd55bc93e1ba02a9fee371d5da6518a45808a000c9e044",
        "40f41b54b9a07b39281dd906c7977d42cb490dc0ce21e20fd91656c9034f5da8",
    ),
    (2, "1,1/2,1/2"): (
        "cb7d10781b4563d889e4e3c3e24f45708b45c9b2301d0464dbe9bf48313a3557",
        "637fa3bc2aa362904b268c3f2ce2bc6fa8bf67f5bb24b53553d5fa9b1960c5c5",
        "cd257e5c3a68c3b861007b594a1c2c74fcc8e7c2838466b3b0cfc47e753b3b56",
        "8b6b7d68986b7d606e9011a3f0bffebf876d316d6aed16b7a9fcffe1d0e47852",
    ),
    (3, "1,1"): (
        "51b3f8716518bfb91398ef0caaa01919d9273090b69a3e08bb9e885361f3fcc7",
        "235d69ab8ac6ab043965cd31121ab48c01a17a9d03bccbfff3aadbdf7609e52d",
        "8bffcde67f87e42d0494e02af69fa5f3397de623a2757e2c037f3d42d258f66e",
        "8bffcde67f87e42d0494e02af69fa5f3397de623a2757e2c037f3d42d258f66e",
    ),
    (1, "1,1,1,1,1"): (
        "b476b1212447fbb88bec4cf8dd5838153c45afcfe7270faee8d6a30a0f4efceb",
        "d8515e15b2d1d590db16e516c1279de1f0823a1e33d199fb2e3dd07ab8397e0e",
        "ffc60923eed87173656cb708776e2bff4cf8b4b66c76af0e897b0ffb9316e2ff",
        "7c6feafa59c8e51789960c9f1589a2cb7bc80c3f2c68ea5285f13e3cb2376205",
    ),
    (2, "1/2,1/2,1/2,1/2"): (
        "13132acbbf95a796255ae31992b693ed733c5eb147d81682f543a4bb39069de0",
        "d39d77b87a5939f0fc2c32a7c389f126acb759ff595d74d3dca69c61e366a917",
        "2a6fcfd60b25f7413525fa9946c2cac7c292d3f5e09f7cadb85d069244107ecb",
        "cf872241e9fbb4c7ffd47ae3de86e9d4ee9cabb68074ae625761059f96097dfd",
    ),
}


@pytest.mark.parametrize("dim, weights", sorted(GOLDEN))
def test_presentation_bytes_are_golden(dim, weights, tmp_path):
    from hashlib import sha256

    from fmchow.cli import main
    from fmchow.setcomb import Weights

    assert main(["present", "--d", str(dim), "--weights", weights, "--out", str(tmp_path)]) == 0
    parsed = Weights.from_strings(weights.split(","))
    geom = ProjectiveGeometry(dim, parsed.n)
    blobs = [
        (tmp_path / "presentation.txt").read_bytes(),
        (tmp_path / "presentation.json").read_bytes(),
        iterated_presentation(geom, LargeFamily.from_weights(parsed)).dump().encode(),
        simplified_presentation(geom).dump().encode(),
    ]
    assert tuple(sha256(b).hexdigest() for b in blobs) == GOLDEN[dim, weights]


@pytest.mark.parametrize("n", range(1, 7))
def test_mixed_partners_equal_the_filter_over_all_subsets(n):
    # every subset s' of size >= 2 meeting s in exactly one index, in
    # (size, lexicographic) order, for every s
    ground = range(1, n + 1)
    subsets = [F(c) for k in range(n + 1) for c in combinations(ground, k)]
    for s in subsets:
        expected = sorted((c for c in subsets if len(c) >= 2 and len(c & s) == 1), key=subset_key)
        assert fmchow.present._mixed_partners(n, s) == expected


def test_equal_tables_compare_without_comparing_variables(monkeypatch):
    # every table_for call makes a fresh, equal table, and a repeat build
    # meets the cached Chern polynomials over the first build's table; tables
    # compare and hash by one plain tuple, never variable by variable (about
    # 52,000 Var comparisons per repeat (1,5) build otherwise)
    geom, large = ProjectiveGeometry(1, 5), LargeFamily.all_subsets(5)
    first = chow_presentation(geom, large)
    calls = []
    var_eq = Var.__eq__

    def counting(self, other):
        calls.append(1)
        return var_eq(self, other)

    monkeypatch.setattr(Var, "__eq__", counting)
    again = chow_presentation(geom, large)
    assert again.table is not first.table
    assert again == first and len(again.relations) == 520
    assert calls == []


def _digest(p: Presentation) -> str:
    # the dump, then the relations as stored over the build's own table,
    # where walks that dump alike still differ
    from hashlib import sha256

    stored = "\n".join([" ".join(p.table.names())] + [str(r) for r in p.relations])
    return sha256((p.dump() + stored).encode()).hexdigest()


def _builder_paths():
    """The builder paths `GOLDEN` misses, by name: the monic sign
    convention, a chain override, `sweep`'s heaviest chamber direct and
    iterated, and every walk of (2,3) all-ones, alone and as the
    construction check builds them."""
    middle_first = lambda s: sorted(s)[1:2] + sorted(s)[:1] + sorted(s)[2:]
    largest_first = lambda s: [max(s)] + sorted(s)[:-1]
    paths = {}
    for dim, n in ((1, 4), (2, 3)):
        geom, large = ProjectiveGeometry(dim, n, monic=True), LargeFamily.all_subsets(n)
        paths[f"monic ({dim},{n}) direct"] = lambda g=geom, f=large: chow_presentation(g, f)
        paths[f"monic ({dim},{n}) iterated"] = lambda g=geom, f=large: iterated_presentation(g, f)
    for label, chain in (("middle first", middle_first), ("largest first", largest_first)):
        for dim, n in ((1, 4), (2, 3)):
            geom, large = ProjectiveGeometry(dim, n), LargeFamily.all_subsets(n)
            paths[f"chain {label} ({dim},{n})"] = (
                lambda g=geom, f=large, c=chain: chow_presentation(g, f, chain=c)
            )
    geom = ProjectiveGeometry(1, 4)
    large = LargeFamily.from_weights(Weights.from_strings(["5/6", "1", "1", "1"]))
    paths["(1,4) at 5/6,1,1,1 direct"] = lambda: chow_presentation(geom, large)
    paths["(1,4) at 5/6,1,1,1 iterated"] = lambda: iterated_presentation(geom, large)
    geom23, large23 = ProjectiveGeometry(2, 3), LargeFamily.all_subsets(3)
    walks = all_walks(large23)
    for i, walk in enumerate(walks):
        paths[f"(2,3) walk {i}"] = lambda w=walk: iterated_presentation(geom23, large23, w)
        # the construction check's path: every walk over the first walk's table
        paths[f"(2,3) walk {i} shared"] = (
            lambda i=i: list(fmchow.present._walk_presentations(geom23, walks))[i]
        )
    return paths


BUILDER_GOLDEN = {
    "(1,4) at 5/6,1,1,1 direct": "21fcac22d0f8b3e80eb66742c7174baccfd439e125aca3a61ef8670b148d26ce",
    "(1,4) at 5/6,1,1,1 iterated": "d9e1ce403a9d0ad6afa0362c04adcb21fc51aeb748c9e4255da2f2d685a0ef5e",
    "(2,3) walk 0": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 1": "50380d5c60a2ddefb48e63ad12236f5af36344fa4ab377488288d53aa5c24a82",
    "(2,3) walk 2": "b1e620904a173d158ba4d82a7e810f9b3bee796abd6b6e37340c9b3fd5516ca3",
    "(2,3) walk 3": "3f69729de45519f2e536d279034e313ff63d7a22ef8314ac7b450e6eff9fa0f1",
    "(2,3) walk 4": "201fb7abf627b0be5191817a19098a5ddf0c4803c1fc92098ee0f13503dfe35a",
    "(2,3) walk 5": "a6bf3f720453840065263fc53cbf8635b14469a937e35a8a55b8cd9e525dbccb",
    "(2,3) walk 0 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 1 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 2 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 3 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 4 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "(2,3) walk 5 shared": "49091f3cfbaefbdbffb2a92da2605119ea32c587681d0351575376b80c26fa5b",
    "chain largest first (1,4)": "1dec99022bf46ec3b8e4d52f36096d83069adf24601d0599167bfb35b00126d7",
    "chain largest first (2,3)": "7449a1a73765f96ba54873b32cb0a371252b9bd8d19ee493923f9b953c74f8d7",
    "chain middle first (1,4)": "68e88e9cd5969206077fe198e3244853bc2ec44c495371d832978f272d8c04fa",
    "chain middle first (2,3)": "b0fe15394868c9d20a5cce6aca754b1753c8b6f03773048e43458b4ec67e8f72",
    "monic (1,4) direct": "34fd8f905396079c7f08e0843a6d73a6fc762daf15d31b3a7821921b80445ed5",
    "monic (1,4) iterated": "67689ffac3172270b66ef976a296a5d9a162603b98271701ed2bf1c164b95b9d",
    "monic (2,3) direct": "61ec57f87099a7cc2a28d6a0aecd76b8565fd29ddf11800b0ccf75d60cec5b32",
    "monic (2,3) iterated": "14779c8caeb65471ddcee705aa57e93ba5aecb813aabac3ef8b2e8ccb0b2112b",
}


@pytest.mark.parametrize("name", sorted(_builder_paths()))
def test_builder_paths_are_golden(name):
    assert _digest(_builder_paths()[name]()) == BUILDER_GOLDEN[name]


@pytest.mark.parametrize("dim", [1, 2])
def test_chain_that_drops_an_index_raises(dim):
    # a chain must enumerate its set exactly once, however the build reuses
    # chain prefixes
    geom, large = ProjectiveGeometry(dim, 4), LargeFamily.all_subsets(4)
    with pytest.raises(ValueError, match="exactly once"):
        chow_presentation(geom, large, chain=lambda s: sorted(s)[:-1])
    with pytest.raises(ValueError, match="exactly once"):
        chow_presentation(geom, large, chain=lambda s: sorted(s) + [min(s)])
