"""Tests for the package's public namespace."""

import ast
from pathlib import Path

import pytest

import fmchow

ROOT = Path(__file__).resolve().parent.parent


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


def unread_imports(source: str) -> list:
    """The names that an import in `source` binds and the module never
    reads, in order.  A name listed in the module's `__all__` counts as
    read; `from __future__` imports bind nothing."""
    tree = ast.parse(source)
    bound = []
    read = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [alias.asname or alias.name.partition(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [alias.asname or alias.name for alias in node.names if alias.name != "*"]
        elif isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            read.update(ast.literal_eval(node.value))
    return [name for name in bound if name not in read]


def test_unread_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import os.path\nimport json as j\nfrom math import gcd, lcm as l\n"
        "from x import y\n__all__ = ['y']\nprint(gcd)\n"
    )
    assert unread_imports(source) == ["os", "j", "l"]


@pytest.mark.parametrize(
    "path",
    sorted((ROOT / "src" / "fmchow").glob("*.py")) + sorted((ROOT / "tests").glob("*.py")),
    ids=lambda path: f"{path.parent.name}/{path.name}",
)
def test_every_import_is_read(path):
    assert unread_imports(path.read_text()) == []
