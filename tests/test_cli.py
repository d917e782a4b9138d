import json
from fractions import Fraction as F

import pytest

import shvkernel.cli as cli
from shvkernel.cli import RunConfig, UsageError


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args, "--format", "json")
    return code, json.loads(out)


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.p == 1 and cfg.r == F(1, 3)
        assert cfg.cL == F(11, 2) and cfg.cLa == F(2, 3) and cfg.cA == 0
        assert cfg.max_degree == 4

    def test_rejects_zero_twist_central(self):
        with pytest.raises(UsageError):
            RunConfig(cLa=F(0))

    def test_rejects_degree_beyond_cap(self):
        with pytest.raises(UsageError):
            RunConfig(max_degree=F(13, 2))
        with pytest.raises(UsageError):
            RunConfig(max_degree=F(1, 3))

    def test_params_are_strings(self):
        params = RunConfig().params()
        assert params["cL"] == "11/2"
        assert params["max_degree"] == "4"
        assert list(params) == ["p", "r", "cL", "cLa", "cA", "max_degree", "mode"]


class TestUsageErrors:
    def test_no_mode_flag(self, capsys):
        # no command read the mode, so the flag and the field are gone
        assert cli.main(["relations", "--mode", "symbolic", "--max-degree", "0"]) == 2
        with pytest.raises(TypeError):
            RunConfig(mode="symbolic")

    @pytest.mark.parametrize(
        "flag, value", [("--p", "2"), ("--r", "1/2"), ("--cL", "1"), ("--cLa", "1"), ("--cA", "5")]
    )
    def test_acceptance_rejects_labels(self, capsys, flag, value):
        # the battery pins its own labels, so any other value would be ignored
        assert cli.main(["acceptance", flag, value]) == 2
        assert flag in capsys.readouterr().err

    def test_bad_rational(self, capsys):
        assert cli.main(["relations", "--p", "abc"]) == 2

    def test_zero_twist_central(self, capsys):
        assert cli.main(["relations", "--cLa", "0"]) == 2

    def test_degree_cap(self, capsys):
        assert cli.main(["relations", "--max-degree", "7"]) == 2

    def test_integer_precondition(self, capsys):
        assert cli.main(["char", "--p", "1/2"]) == 2
        assert cli.main(["diagram", "--p", "0"]) == 2
        assert cli.main(["singular", "--p", "3/2"]) == 2

    def test_subsingular_needs_odd_positive(self, capsys):
        assert cli.main(["subsingular", "--p", "2"]) == 2
        assert cli.main(["subsingular", "--p", "-1"]) == 2

    def test_unknown_command(self, capsys):
        assert cli.main(["bogus"]) == 2

    def test_realize_rejects_nonzero_cA(self, capsys):
        # the realization fixes CA = 0, so any other value would be ignored
        assert cli.main(["realize", "--cA", "5", "--max-degree", "0"]) == 2
        assert "cA" in capsys.readouterr().err

    def test_relations_rejects_nonzero_cA(self, capsys):
        # the bracket checks would run at level zero and print cA=5 as passed
        assert cli.main(["relations", "--cA", "5", "--max-degree", "1"]) == 2
        assert "cA" in capsys.readouterr().err

    def test_det_rejects_nonzero_cA(self, capsys):
        assert cli.main(["det", "--cA", "5", "--max-degree", "1"]) == 2
        assert "cA" in capsys.readouterr().err


class TestReportShape:
    def test_json_schema(self, capsys):
        code, report = run_json(capsys, "relations", "--max-degree", "1")
        assert code == 0
        assert list(report) == ["command", "params", "checks", "elapsed_ms"]
        assert report["command"] == "relations"
        for check in report["checks"]:
            assert list(check) == ["name", "paper_ref", "status", "details"]
            assert check["status"] in ("pass", "fail", "warn", "skip")
        assert isinstance(report["elapsed_ms"], int)

    def test_text_rendering(self, capsys):
        code, out = run(capsys, "relations", "--max-degree", "1")
        assert code == 0
        assert out.splitlines()[0].startswith("relations")
        assert "[PASS] antisymmetry" in out
        assert out.rstrip().endswith("ms")

    def test_determinism_modulo_elapsed(self, capsys):
        _, first = run_json(capsys, "char", "--p", "1", "--max-degree", "2")
        _, second = run_json(capsys, "char", "--p", "1", "--max-degree", "2")
        first.pop("elapsed_ms")
        second.pop("elapsed_ms")
        assert json.dumps(first) == json.dumps(second)

    def test_out_writes_file(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code = cli.main(
            ["diagram", "--p", "1", "--max-degree", "1", "--format", "json", "--out", str(target)]
        )
        assert code == 0
        assert json.loads(target.read_text())["command"] == "diagram"


class TestFaultInjection:
    def test_corrupted_bracket_is_named(self, capsys, monkeypatch):
        import shvkernel.shv_algebra as alg

        orig = alg.super_bracket

        def corrupted(x, y):
            out = orig(x, y)
            if {str(x), str(y)} == {"L(2)", "L(-2)"}:
                return out + alg.Element.of(alg.A(0))
            return out

        monkeypatch.setattr(alg, "super_bracket", corrupted)
        code, report = run_json(capsys, "relations", "--max-degree", "2")
        assert code == 1
        anti = report["checks"][0]
        assert anti["status"] == "fail"
        named = " ".join(anti["details"]["failures"])
        assert "L(2)" in named and "L(-2)" in named

    def test_corrupted_determinant_check_fails_det_and_criterion(self, capsys, monkeypatch):
        # the det command and criterion 07 share one implementation
        orig = cli.det_vanishing_check

        def corrupted(level, *args):
            result = orig(level, *args)
            if level == 1:
                result["match"] = False
            return result

        monkeypatch.setattr(cli, "det_vanishing_check", corrupted)
        code, report = run_json(capsys, "det", "--max-degree", "2")
        assert code == 1
        assert [c["status"] for c in report["checks"]] == ["pass", "fail", "pass", "pass"]
        check = cli._criterion_07()
        assert check["status"] == "fail"
        assert check["details"]["failures"] == ["det --max-degree 2: determinant-locus-1"]


class TestCache:
    def test_cache_round_trip(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        args = ["char", "--p", "2", "--r", "1/2", "--max-degree", "2", "--format", "json"]
        _, cold = run_json(capsys, *args, "--cache-dir", str(cache))
        _, warm = run_json(capsys, *args, "--cache-dir", str(cache))
        _, bare = run_json(capsys, *args)
        for rep in (cold, warm, bare):
            rep.pop("elapsed_ms")
        assert cold == warm == bare
        assert list(cache.glob("char-*.json"))

    @pytest.mark.parametrize(
        "damage",
        [
            lambda blob: blob[:40],  # truncated mid-write
            lambda blob: b"",
            lambda blob: b"\xff\xfe",  # not UTF-8
            lambda blob: b"[]",
            lambda blob: b'{"version": 1, "checks": [1]}',
        ],
        ids=["truncated", "empty", "binary", "not-an-object", "bad-checks"],
    )
    def test_damaged_entry_is_a_miss(self, capsys, tmp_path, damage):
        cache = tmp_path / "cache"
        args = ["char", "--p", "2", "--r", "1/2", "--max-degree", "2", "--cache-dir", str(cache)]
        _, cold = run_json(capsys, *args)
        (entry,) = cache.glob("char-*.json")
        entry.write_bytes(damage(entry.read_bytes()))
        code, again = run_json(capsys, *args)
        assert code == 0
        cold.pop("elapsed_ms")
        again.pop("elapsed_ms")
        assert again == cold
        # the entry was rewritten whole, and no temporary file is left behind
        assert json.loads(entry.read_text())["checks"] == cold["checks"]
        assert list(cache.iterdir()) == [entry]

    def test_uncreatable_cache_dir_is_a_usage_error(self, capsys, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code = cli.main(["relations", "--max-degree", "0", "--cache-dir", str(blocker / "sub")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: --cache-dir") and err.count("\n") == 1

    def test_unwritable_cache_entry_is_a_usage_error(self, capsys, tmp_path):
        cache = tmp_path / "cache"
        entry = cache / f"relations-{cli._cache_key('relations', RunConfig(max_degree=F(0)))}.json"
        entry.mkdir(parents=True)  # a directory where the entry should go
        code = cli.main(["relations", "--max-degree", "0", "--cache-dir", str(cache)])
        assert code == 2
        assert capsys.readouterr().err.startswith("error: --cache-dir")
        assert list(cache.iterdir()) == [entry]

    def test_cache_key_separates_configs(self, tmp_path):
        a = cli._cache_key("char", RunConfig(p=F(1)))
        b = cli._cache_key("char", RunConfig(p=F(2)))
        c = cli._cache_key("det", RunConfig(p=F(1)))
        assert len({a, b, c}) == 3


class TestCommands:
    def test_realize_full_span(self, capsys):
        code, report = run_json(capsys, "realize", "--p", "1/2", "--max-degree", "3/2")
        assert code == 0
        span = report["checks"][1]
        assert span["details"]["expectation"] == "full-span"
        assert all(row["ok"] for row in span["details"]["rows"])

    def test_realize_negative_label_simple_span(self, capsys):
        code, report = run_json(capsys, "realize", "--p", "-1", "--r", "0", "--max-degree", "3/2")
        assert code == 0
        span = report["checks"][1]
        assert span["details"]["expectation"] == "simple-dims"
        assert [row["rank"] for row in span["details"]["rows"]] == [1, 1, 1, 3]

    def test_singular_positive_odd(self, capsys):
        code, report = run_json(capsys, "singular", "--p", "1")
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert "singular-odd-explicit" in names
        assert "kernel-cross-check" in names

    def test_singular_negative(self, capsys):
        code, report = run_json(capsys, "singular", "--p", "-2", "--r", "3/4")
        assert code == 0
        assert report["checks"][0]["name"] == "descent-operator"

    def test_singular_zero_label_skips(self, capsys):
        code, report = run_json(capsys, "singular", "--p", "0")
        assert code == 0
        assert report["checks"][0]["status"] == "skip"

    def test_subsingular_alias(self, capsys):
        code, report = run_json(capsys, "subsingular", "--p", "1")
        assert code == 0
        assert report["command"] == "subsingular"
        names = [c["name"] for c in report["checks"]]
        assert "charge-image-nonzero" in names
        assert "supercharge-link" in names

    def test_char_duality_rows(self, capsys):
        code, report = run_json(capsys, "char", "--p", "-2", "--r", "3/4", "--max-degree", "3")
        assert code == 0
        dual = report["checks"][1]
        assert dual["name"] == "contragredient-duality"
        assert [row["dim"] for row in dual["details"]["rows"]] == [1, 2, 3, 6, 10, 16, 25]

    def test_det_levels_and_cap(self, capsys):
        code, report = run_json(capsys, "det", "--max-degree", "5/2")
        assert code == 0
        names = [c["name"] for c in report["checks"]]
        assert names[:4] == [
            "determinant-locus-1/2",
            "determinant-locus-1",
            "determinant-locus-3/2",
            "determinant-locus-2",
        ]
        assert report["checks"][-1]["status"] == "skip"
        assert report["checks"][0]["details"]["computed_roots"] == ["-1", "1"]

    def test_diagram_generic_label(self, capsys):
        code, report = run_json(capsys, "diagram", "--p", "5", "--max-degree", "2")
        assert code == 0
        assert report["checks"][0]["details"]["pattern"] == "single-node"
