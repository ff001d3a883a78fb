"""Tests for the command-line interface (exit codes, files, determinism)."""

import json

import pytest

import fmchow.cli
from fmchow.cli import main


def run(tmp_path, *argv):
    return main([str(a) for a in argv])


class TestPresent:
    def test_writes_dump_and_mirror(self, tmp_path):
        out = tmp_path / "out"
        assert main(["present", "--d", "1", "--weights", "1,1", "--out", str(out)]) == 0
        dump = (out / "presentation.txt").read_text()
        assert "vars:" in dump and "rel:" in dump
        assert "D{1,2}" in dump
        assert dump.startswith("# config:")
        mirror = json.loads((out / "presentation.json").read_text())
        assert len(mirror["vars"]) == 3
        assert len(mirror["relations"]) == 2
        assert mirror["config"]["weights"] == ["1", "1"]

    def test_simplified_relation_counts(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["present", "--d", "1", "--weights", "1,1,1", "--fm", "--out", str(out)]
        )
        assert code == 0
        mirror = json.loads((out / "presentation.json").read_text())
        assert len(mirror["vars"]) == 7
        # 3 overlap + 5 diagonal-ideal multiples + 3 pairwise Chern
        assert len(mirror["relations"]) == 11

    def test_fm_requires_all_ones(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["present", "--d", "1", "--weights", "1,1/2,1/2", "--fm", "--out", str(out)]
        )
        assert code == 2
        assert not out.exists()

    def test_invalid_weight_rejected(self, tmp_path):
        out = tmp_path / "out"
        code = main(["present", "--d", "1", "--weights", "3/2,1", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_cas_export_includes_caps(self, tmp_path):
        out = tmp_path / "out"
        main(
            [
                "present",
                "--d",
                "2",
                "--weights",
                "1,1",
                "--export-cas",
                "--out",
                str(out),
            ]
        )
        cas = (out / "presentation.cas.txt").read_text()
        assert "h1^3" in cas and "h2^3" in cas
        assert "vars: h1, h2, D{1,2}" in cas

    def test_large_sets_input(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["present", "--d", "1", "--n", "3", "--large-sets", "1,2", "--out", str(out)]
        )
        assert code == 0
        mirror = json.loads((out / "presentation.json").read_text())
        # upward closure adds the triple
        assert mirror["config"]["large_sets"] == [[1, 2], [1, 2, 3]]

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(
            json.dumps(
                {"base": {"kind": "projective", "dim": 1}, "weights": ["1", "1"]}
            )
        )
        out = tmp_path / "out"
        assert main(["present", "--config", str(cfg), "--out", str(out)]) == 0

    def test_config_rejects_floats(self, tmp_path):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps({"base": {"dim": 1}, "weights": [0.5, 1]}))
        assert main(["present", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2

    def test_requires_exactly_one_instance_description(self, tmp_path):
        assert main(["present", "--d", "1", "--out", str(tmp_path)]) == 2


class TestRanks:
    def test_agreement_written(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ranks", "--d", "2", "--weights", "1,1", "--out", str(out)]) == 0
        payload = json.loads((out / "ranks.json").read_text())
        assert payload["presentation_ranks"] == [1, 3, 4, 3, 1]
        assert payload["oracle_ranks"] == [1, 3, 4, 3, 1]
        assert payload["agree"] is True

    def test_zero_weights(self, tmp_path):
        out = tmp_path / "out"
        assert main(["ranks", "--d", "1", "--weights", "0,0,0", "--out", str(out)]) == 0
        payload = json.loads((out / "ranks.json").read_text())
        assert payload["presentation_ranks"] == [1, 3, 3, 1]

    def test_weighted_instance(self, tmp_path):
        out = tmp_path / "out"
        code = main(["ranks", "--d", "1", "--weights", "1,1/2,1/2", "--out", str(out)])
        assert code == 0
        payload = json.loads((out / "ranks.json").read_text())
        assert payload["agree"] is True

    def test_cap_refusal(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["ranks", "--d", "1", "--weights", "1,1,1", "--cap", "2", "--out", str(out)]
        )
        assert code == 3

    def test_top_degree_over_the_degree_bound_exits_2(self, tmp_path):
        # d*n = 126 is answered, 128 is over the packed monomial's degree bound
        assert main(["ranks", "--d", "63", "--weights", "1,1", "--out", str(tmp_path / "in")]) == 0
        assert json.loads((tmp_path / "in" / "ranks.json").read_text())["agree"] is True
        out = tmp_path / "out"
        assert main(["ranks", "--d", "64", "--weights", "1,1", "--out", str(out)]) == 2
        assert not (out / "ranks.json").exists()


class TestVerify:
    def test_counterexample_scenario(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "counterexample", "--out", str(out)]) == 0
        report = json.loads((out / "report_counterexample.json").read_text())
        assert report["pass"] is True
        assert report["evidence"]["h*E_in_ideal_of_h^3"] is False

    def test_equivalence_scenario_with_instance(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            ["verify", "equivalence", "--d", "1", "--n", "3", "--out", str(out)]
        )
        assert code == 0
        report = json.loads((out / "report_equivalence_d1_n3.json").read_text())
        assert report["pass"] is True

    def test_construction_all_walks(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verify",
                "construction",
                "--d",
                "1",
                "--weights",
                "1,1,1",
                "--walk",
                "all",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        report = json.loads((out / "report_construction_d1_n3.json").read_text())
        assert report["evidence"]["walks_checked"] == 6

    def test_construction_reads_empty_large_sets(self, tmp_path):
        # the empty family is an instance of its own, not the all-ones default
        out = tmp_path / "out"
        argv = ["verify", "construction", "--d", "1", "--n", "3", "--large-sets", ""]
        assert main(argv + ["--out", str(out)]) == 0
        report = json.loads((out / "report_construction_d1_n3.json").read_text())
        assert report["evidence"]["large_sets"] == []
        assert report["evidence"]["ranks_presentation"] == [1, 3, 3, 1]

    def test_construction_all_walks_over_cap_refuses(self, tmp_path):
        out = tmp_path / "out"
        code = main(
            [
                "verify",
                "construction",
                "--d",
                "1",
                "--n",
                "4",
                "--walk",
                "all",
                "--out",
                str(out),
            ]
        )
        assert code == 3
        assert list(tmp_path.rglob("report_*.json")) == []

    def test_all_walks_refusal_comes_before_any_scenario(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a scenario ran before the walk-cap refusal")

        monkeypatch.setattr(fmchow.cli, "check_counterexample", never)
        monkeypatch.setattr(fmchow.cli, "check_equivalence", never)
        out = tmp_path / "out"
        code = main(["verify", "--d", "1", "--n", "4", "--walk", "all", "--out", str(out)])
        assert code == 3
        assert list(tmp_path.rglob("report_*.json")) == []

    def test_unknown_scenario(self, tmp_path):
        assert main(["verify", "nonsense", "--out", str(tmp_path)]) == 2

    def test_default_suite(self, tmp_path):
        out = tmp_path / "out"
        assert main(["verify", "--out", str(out)]) == 0
        names = sorted(p.name for p in out.glob("report_*.json"))
        assert "report_counterexample.json" in names
        assert len(names) >= 4


class TestUsageErrors:
    @pytest.mark.parametrize(
        "argv",
        [
            ["ranks", "--d", "0", "--weights", "1,1"],
            ["ranks", "--d", "-1", "--weights", "1,1"],
            ["verify", "equivalence", "--d", "1", "--n", "0"],
            ["verify", "construction", "--d", "1", "--n", "0"],
            ["ranks", "--d", "1", "--weights", "1,1", "--cap", "-5"],
            ["ranks", "--d", "1", "--weights", "1,1", "--cap", "0"],
        ],
    )
    def test_bad_dimension_or_cap_exits_2(self, tmp_path, argv):
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("command", ["present", "ranks"])
    def test_empty_config_path_exits_2(self, tmp_path, command):
        # an empty path names no file: it is refused, not read as no config
        out = tmp_path / "out"
        argv = [command, "--config", "", "--d", "1", "--weights", "1,1"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    def test_bad_equivalence_instance_stops_before_any_scenario(self, tmp_path, monkeypatch):
        def never(*args, **kwargs):
            raise AssertionError("a scenario ran before the bad instance was refused")

        monkeypatch.setattr(fmchow.cli, "check_counterexample", never)
        out = tmp_path / "out"
        argv = ["verify", "counterexample", "equivalence", "--d", "0", "--n", "2"]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("flag", [["--d", "3"], ["--n", "3"]])
    @pytest.mark.parametrize("scenario", ["equivalence", "construction"])
    def test_lone_d_or_n_stops_before_any_scenario(self, tmp_path, monkeypatch, scenario, flag):
        # a default instance must not run in place of the one half asked for
        def never(*args, **kwargs):
            raise AssertionError("a scenario ran before the lone flag was refused")

        for check in ("check_counterexample", "check_equivalence", "check_construction"):
            monkeypatch.setattr(fmchow.cli, check, never)
        out = tmp_path / "out"
        argv = ["verify", "counterexample", scenario, *flag]
        assert main(argv + ["--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag",
        [
            ["counterexample", "--d", "3"],
            ["counterexample", "--n", "3"],
            ["counterexample", "--weights", "1,1,1"],
            ["counterexample", "--large-sets", "1,2"],
            ["counterexample", "--config", "c.json"],
            ["equivalence", "--weights", "1,1/2,1/2"],
            ["equivalence", "--large-sets", "1,2"],
            ["equivalence", "--config", "c.json"],
            ["equivalence", "--walk", "all"],
            ["equivalence", "--d", "1", "--n", "3", "--walk", "all"],
            ["counterexample", "equivalence", "--weights", "1,1,1"],
        ],
    )
    def test_counterexample_alone_refuses_instance_flags(self, tmp_path, monkeypatch, flag):
        # a flag that no requested scenario reads would be dropped without a
        # word: the counterexample's instance is fixed, and equivalence reads
        # only --d and --n
        def never(*args, **kwargs):
            raise AssertionError("a scenario ran in spite of a flag it does not read")

        for check in ("check_counterexample", "check_equivalence", "check_construction"):
            monkeypatch.setattr(fmchow.cli, check, never)
        out = tmp_path / "out"
        assert main(["verify", *flag, "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "config",
        [
            {"base": {"dim": "2"}, "weights": ["1", "1"]},
            {"base": {"dim": True}, "weights": ["1", "1"]},
            {"base": {"dim": 1.0}, "weights": ["1", "1"]},
            {"base": {"dim": 1}, "n": "3", "large_sets": [[1, 2]]},
            {"base": {"dim": 1}, "n": 2.0, "large_sets": [[1, 2]]},
            {"base": {"dim": 1}, "n": 3, "large_sets": [1, 2]},
            {"base": {"dim": 1}, "n": 3, "large_sets": [[1, True]]},
            {"base": {"dim": 1}, "weights": 5},
            {"base": 1, "weights": ["1", "1"]},
            ["1", "1"],
        ],
    )
    def test_mistyped_config_exits_2(self, tmp_path, config):
        cfg = tmp_path / "job.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["ranks", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()


class TestDeterminism:
    def test_present_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["present", "--d", "1", "--weights", "1,1,1", "--export-cas"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        for name in ("presentation.txt", "presentation.json", "presentation.cas.txt"):
            assert (a / name).read_bytes() == (b / name).read_bytes()

    def test_ranks_is_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["ranks", "--d", "2", "--weights", "1,1"]
        assert main(argv + ["--out", str(a)]) == 0
        assert main(argv + ["--out", str(b)]) == 0
        assert (a / "ranks.json").read_bytes() == (b / "ranks.json").read_bytes()
