"""Tests for the package's public namespace."""

import pytest

import fmchow


def test_star_import_resolves_every_public_name():
    namespace = {}
    exec("from fmchow import *", namespace)
    missing = [name for name in fmchow.__all__ if name not in namespace]
    assert missing == []


def test_single_elimination_kernel():
    assert fmchow.elimination_backend == "python"


def test_star_import_exports_batched_membership():
    namespace = {}
    exec("from fmchow import *", namespace)
    assert namespace["memberships"] is fmchow.ranks.memberships


def test_star_import_exports_the_ring_owner():
    namespace = {}
    exec("from fmchow import *", namespace)
    assert namespace["GradedRing"] is fmchow.ranks.GradedRing


def test_public_namespace_is_pinned():
    # every change to the public API shows up here
    assert sorted(fmchow.__all__) == [
        "ChernPoly",
        "CoincidenceData",
        "DegreeError",
        "DegreeSpan",
        "FmchowError",
        "GradedRing",
        "LargeFamily",
        "MapError",
        "MergeResult",
        "Poly",
        "Presentation",
        "ProjectiveGeometry",
        "SizeCapError",
        "StructureError",
        "Var",
        "VarTable",
        "VerdictReport",
        "WalkOrderError",
        "Weights",
        "all_walks",
        "blowup_step",
        "canonical_walk",
        "check_construction",
        "check_counterexample",
        "check_equivalence",
        "chern_eval",
        "chern_mul",
        "chern_pair",
        "chern_set",
        "chern_shift",
        "chow_presentation",
        "coincidence_data",
        "diagonal_class",
        "diagonal_ideal",
        "divisor_name",
        "elimination_backend",
        "graded_ranks",
        "ideal_ranks",
        "iterated_presentation",
        "kernel_ranks",
        "map_poly",
        "membership",
        "memberships",
        "merge_family",
        "monomials_of_degree",
        "rank_oracle",
        "simplified_presentation",
        "transport",
        "validate_walk",
    ]


@pytest.mark.parametrize(
    "make",
    [lambda: fmchow.Var("h", 1, 4), lambda: fmchow.Var("E", 1), lambda: fmchow.Var("h", degree=1)],
    ids=["degree and cap", "degree", "degree keyword"],
)
def test_var_takes_no_degree(make):
    # the cap is keyword-only: an old positional degree is never read as a cap
    with pytest.raises(TypeError):
        make()


def test_var_takes_a_keyword_cap():
    assert fmchow.Var("h", cap=4).cap == 4
    assert fmchow.Var("E").cap is None
    with pytest.raises(ValueError, match="cap must be positive"):
        fmchow.Var("h", cap=0)
