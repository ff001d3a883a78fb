"""Tests for the package's public namespace."""

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
