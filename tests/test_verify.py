"""Tests for the named verification scenarios."""

import json
from itertools import combinations

import pytest

import fmchow.verify as verify_module
from fmchow.errors import SizeCapError
from fmchow.geomdata import ProjectiveGeometry
from fmchow.polyalg import Presentation, VarTable, transport
from fmchow.present import (
    _Build,
    _walk_presentations,
    chow_presentation,
    iterated_presentation,
    simplified_presentation,
)
from fmchow.ranks import DegreeSpan
from fmchow.setcomb import LargeFamily, Weights, all_walks
from fmchow.verify import (
    _ranks_and_outside,
    check_construction,
    check_counterexample,
    check_equivalence,
    first_divergence,
)


class TestFirstDivergence:
    def test_none_when_equal(self):
        assert first_divergence([[1, 2, 1], [1, 2, 1]]) is None

    def test_smallest_degree(self):
        assert first_divergence([[1, 2, 1], [1, 3, 1]]) == 1
        assert first_divergence([[1, 2], [1, 2, 0]]) == 2


class TestCounterexample:
    def test_passes(self):
        report = check_counterexample()
        assert report.passed
        ev = report.evidence
        assert ev["h*E_in_ideal_of_h^3"] is False
        assert ev["ranks_blowup"] == [1, 2, 2, 1]
        assert ev["ranks_restriction"] == [1, 2, 1]
        assert ev["kernel_ranks"] == [0, 0, 1, 1]
        assert ev["corrected_ideal_ranks"] == [0, 0, 1, 1]
        assert ev["membership_semantics"] == "rational"

    def test_report_is_json_serializable(self):
        report = check_counterexample()
        payload = json.loads(json.dumps(report.to_json_dict()))
        assert payload["scenario"] == "counterexample"
        assert payload["pass"] is True

    def test_rerun_identical_modulo_duration(self):
        a = check_counterexample().to_json_dict()
        b = check_counterexample().to_json_dict()
        a.pop("duration_seconds")
        b.pop("duration_seconds")
        assert a == b


class TestEquivalence:
    def test_trivial_two_points(self):
        report = check_equivalence(1, 2)
        assert report.passed
        assert report.evidence["ranks_full"] == [1, 2, 1]

    def test_three_points(self):
        report = check_equivalence(1, 3)
        assert report.passed
        assert report.evidence["ranks_full"] == [1, 4, 4, 1]
        assert report.evidence["full_relations_outside_simplified_ideal"] == []
        assert report.evidence["simplified_relations_outside_full_ideal"] == []

    def test_surface_two_points(self):
        report = check_equivalence(2, 2)
        assert report.passed
        assert report.evidence["ranks_full"] == [1, 3, 4, 3, 1]

    def test_five_points_beyond_the_default_cap(self):
        # (1,5) uncapped: 297,662 monomials at top degree
        report = check_equivalence(1, 5, None)
        assert report.passed
        expected = [1, 21, 67, 67, 21, 1]
        assert report.evidence["ranks_full"] == report.evidence["ranks_simplified"] == expected

    def test_four_points_build_one_span_per_side_and_degree(self, monkeypatch):
        # one pass a side: the span of each degree gives the rank and
        # answers the other side's relations of that degree
        built = []
        init = DegreeSpan.__init__

        def counting_init(self, ring, k):
            built.append((len(ring.presentation.relations), k))
            init(self, ring, k)

        monkeypatch.setattr(DegreeSpan, "__init__", counting_init)
        report = check_equivalence(1, 4)
        assert len(built) == 10
        assert sorted(built) == sorted(
            [(106, k) for k in range(5)] + [(53, k) for k in range(5)]
        )
        assert report.passed
        assert report.evidence == {
            "dim": 1,
            "n": 4,
            "ranks_full": [1, 9, 16, 9, 1],
            "ranks_simplified": [1, 9, 16, 9, 1],
            "relation_counts": {"full": 106, "simplified": 53},
            "full_relations_outside_simplified_ideal": [],
            "simplified_relations_outside_full_ideal": [],
            "first_divergence_degree": None,
            "membership_semantics": "rational",
        }

    def test_outside_relations_print_alike_under_any_table_order(self):
        # the simplified ring of (1,3) without its Chern relations leaves ten
        # full relations outside; they print in canonical variable order,
        # sorted there, whatever the order of the ring's own table
        geom = ProjectiveGeometry(1, 3)
        full = chow_presentation(geom, LargeFamily.all_subsets(3))
        simple = simplified_presentation(geom)
        weak = [r for r in simple.relations if r.homogeneous_degree() == 2]
        reports = []
        reverse = VarTable(tuple(reversed(full.table.vars)))
        for table in (full.table, full.canonical_var_order().table, reverse):
            p = Presentation(table, [transport(r, table) for r in weak], full.top_degree)
            reports.append(_ranks_and_outside(p, [transport(r, table) for r in full.relations], None))
        ranks, outside = reports[0]
        assert reports == [(ranks, outside)] * 3
        assert ranks == [1, 7, 17, 24]
        assert len(outside) == 10
        assert outside[0] == "D{1,2,3} + D{1,2} - h2 - h1"
        assert outside[-1] == (
            "D{1,2,3}^2 - h3*D{1,2,3} - 2*h2*D{1,2,3} - h1*D{1,2,3} + h2*h3 + h1*h3 + h1*h2"
        )


class TestConstruction:
    def test_triple_only(self):
        fam = LargeFamily(3, frozenset({frozenset({1, 2, 3})}))
        report = check_construction(1, 3, fam)
        assert report.passed
        assert report.evidence["ranks_oracle"] == [1, 4, 4, 1]

    def test_all_walks(self):
        fam = LargeFamily.all_subsets(3)
        report = check_construction(1, 3, fam, walks="all")
        assert report.passed
        assert report.evidence["walks_checked"] == 6
        assert report.evidence["first_divergence_degree"] is None

    def test_all_walks_over_enumeration_cap_refuses_before_rank_work(
        self, monkeypatch
    ):
        def no_rank_work(*args, **kwargs):
            raise AssertionError("rank work started before the walk cap was checked")

        monkeypatch.setattr(verify_module, "graded_ranks", no_rank_work)
        fam = LargeFamily.all_subsets(4)  # 11 members, over the cap of 8
        with pytest.raises(SizeCapError):
            check_construction(1, 4, fam, walks="all")

    def test_dim_two_triple(self):
        fam = LargeFamily(3, frozenset({frozenset({1, 2, 3})}))
        report = check_construction(2, 3, fam)
        assert report.passed
        assert report.evidence["ranks_oracle"] == [1, 4, 8, 10, 8, 4, 1]

    @pytest.mark.parametrize(
        "dim, weights, walks",
        [
            (2, "1,1,1", 6),
            (1, "1/2,11/12,1/12,5/12", 16),
            (2, "1/2,1/2,1/2,1/4", 24),
        ],
    )
    def test_every_walk_gives_one_canonical_presentation(self, dim, weights, walks):
        w = Weights.from_strings(weights.split(","))
        family = LargeFamily.from_weights(w)
        geom = ProjectiveGeometry(dim, w.n)
        walk_list = all_walks(family)
        assert len(walk_list) == walks
        canonical = {
            iterated_presentation(geom, family, walk).canonical_var_order()
            for walk in walk_list
        }
        assert len(canonical) == 1

    @pytest.mark.parametrize(
        "dim, weights",
        [(2, "1,1,1"), (1, "1/2,11/12,1/12,5/12"), (2, "1/2,1/2,1/2,1/4")],
    )
    def test_walk_classes_are_the_canonical_classes(self, dim, weights):
        # over the first walk's table, each walk's presentation is its
        # iterated presentation transported there, and two are equal exactly
        # when their canonical variable orders are
        w = Weights.from_strings(weights.split(","))
        family = LargeFamily.from_weights(w)
        geom = ProjectiveGeometry(dim, w.n)
        walk_list = all_walks(family)
        keys = list(_walk_presentations(geom, walk_list))
        table = keys[0].table
        canonical = []
        for walk, key in zip(walk_list, keys):
            p = iterated_presentation(geom, family, walk)
            assert key == Presentation(table, [transport(r, table) for r in p.relations], p.top_degree)
            canonical.append(p.canonical_var_order())
        for i, j in combinations(range(len(walk_list)), 2):
            assert (keys[i] == keys[j]) == (canonical[i] == canonical[j])

    @pytest.mark.parametrize(
        "dim, weights, crossings, steps",
        [(2, "1,1,1", 13, 24), (2, "1/3,7/12,5/12,5/6", 79, 2688)],
    )
    def test_all_walks_build_each_distinct_crossing_once(
        self, monkeypatch, dim, weights, crossings, steps
    ):
        made = []
        built = _Build.crossing

        def counted(self, processed, t):
            made.append((processed, t))
            return built(self, processed, t)

        monkeypatch.setattr(_Build, "crossing", counted)
        w = Weights.from_strings(weights.split(","))
        family = LargeFamily.from_weights(w)
        report = check_construction(dim, w.n, family, 60000, walks="all")
        ev = report.evidence
        assert report.passed
        assert ev["walks_checked"] * len(family) == steps
        assert ev["iterated_presentations_ranked"] == 1
        assert len(made) == len(set(made)) == crossings

    def test_all_walks_rank_each_distinct_presentation_once(self, monkeypatch):
        calls = []
        ranks = verify_module.graded_ranks

        def counted(p, *args, **kwargs):
            calls.append(p)
            return ranks(p, *args, **kwargs)

        monkeypatch.setattr(verify_module, "graded_ranks", counted)
        report = check_construction(2, 3, LargeFamily.all_subsets(3), walks="all")
        assert report.passed
        assert len(calls) == 2  # the direct presentation and one iterated class
        # the class is ranked over its first walk's table, not the canonical one
        family = LargeFamily.all_subsets(3)
        assert calls[1] == iterated_presentation(ProjectiveGeometry(2, 3), family, all_walks(family)[0])
        ev = report.evidence
        assert ev["walks_checked"] == 6
        assert ev["iterated_presentations_ranked"] == 1
        assert ev["ranks_iterated_per_walk"] == [ev["ranks_presentation"]] * 6

    def test_a_walk_with_another_presentation_is_ranked_on_its_own(self, monkeypatch):
        family = LargeFamily.all_subsets(3)
        last = all_walks(family)[-1]
        # the last walk's third crossing is the first that no other walk makes
        only_last = (frozenset(last[:2]), last[2])
        built = _Build.crossing

        def one_relation_short(self, processed, t):
            rels = built(self, processed, t)
            if (processed, t) != only_last:
                return rels
            # the first relation, of degree 2, is not redundant: the ranks change
            return rels[1:]

        monkeypatch.setattr(_Build, "crossing", one_relation_short)
        report = check_construction(2, 3, family, walks="all")
        ev = report.evidence
        assert not report.passed
        assert ev["iterated_presentations_ranked"] == 2
        assert ev["ranks_iterated_per_walk"][:-1] == [ev["ranks_presentation"]] * 5
        assert ev["ranks_iterated_per_walk"][-1] != ev["ranks_presentation"]
        assert ev["first_divergence_degree"] == 2

    def test_evidence_recomputes_verdict(self):
        fam = LargeFamily.all_subsets(2)
        report = check_construction(2, 2, fam)
        ev = report.evidence
        tables = [ev["ranks_presentation"], ev["ranks_oracle"]] + ev[
            "ranks_iterated_per_walk"
        ]
        assert report.passed == all(t == tables[0] for t in tables)
