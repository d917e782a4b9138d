import hashlib
import json
from fractions import Fraction as F
from pathlib import Path

import pytest

import shvkernel.acceptance as acceptance
import shvkernel.cli as cli
from shvkernel.cli import RunConfig, UsageError


def run(capsys, *args):
    code = cli.main(list(args))
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *args):
    code, out = run(capsys, *args, "--format", "json")
    return code, json.loads(out)


def body_digest(report):
    """sha256 of a report without elapsed_ms, hashed as perfbench/worker.py
    hashes it."""
    body = {k: v for k, v in report.items() if k != "elapsed_ms"}
    blob = json.dumps(body, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


#: body digests of cheap reports whose text depends on the order of bases,
#: raising sets and closure sweeps
ORDER_DIGESTS = {
    "singular --p 1": "cdf5d5c925dfc975b533a69830e93e0cf5fddf73300de22472d092f8aad53f39",
    "singular --p 2": "8999fc864e3b9d0c487b1c7ba53800b477fcb7dd9909fd1cf21f30cc7dd363b3",
    "singular --p -2": "3991757c4aa92ad4a5bae92012237acb27181948d91aa1268c366c210b2f377e",
    "subsingular --p 3": "20880f2221f3a9fc4412958e8cc18eb3ed694f141809895267bf6b0292ed942e",
    "subsingular --p 5": "a1090e25aad642cc62c8af9f282390d2dd31e11ab1c854758ff4c53631320596",
    "relations --max-degree 2": "a8f97d19289dd87f99676066cc974220470eeaf31d52319be1ebb524023f00d8",
    "diagram --max-degree 2": "120d427e85acab0709599dc799b316c56434b52ff8f762cde863017dbbfd3fa4",
    "diagram --p 1 --r 1/3 --max-degree 3": (
        "d859d08a364313038cf6a0ff857261b5e958e2371c13749b441906e5f4cc5124"
    ),
    "char --p 2 --max-degree 3": "0004e8c099fc0f8a34203f960d4efae85029b6417feb5f7be418ac739d8ff2e2",
    "det --max-degree 1": "71a704dc555cf4b10bfe4bebc04de72181cc5a9bf18cea717d5bbe029a78a90c",
}


#: the label flags each command reads, and so the only ones it accepts
READ_FLAGS = {
    "relations": ("--max-degree",),
    "realize": ("--p", "--r", "--cL", "--cLa", "--max-degree"),
    "singular": ("--p", "--r", "--cL", "--cLa", "--max-degree"),
    "subsingular": ("--p", "--r", "--cL", "--cLa"),
    "char": ("--p", "--r", "--cL", "--cLa", "--max-degree"),
    "det": ("--r", "--cL", "--cLa", "--max-degree"),
    "diagram": ("--p", "--r", "--cL", "--cLa", "--max-degree"),
    "acceptance": ("--max-degree",),
}

#: a value for each label flag a command might be given, --cA included
FLAG_VALUES = {"--p": "2", "--r": "1/2", "--cL": "1", "--cLa": "1", "--cA": "5", "--max-degree": "0"}

REFUSED_FLAGS = [
    pytest.param(command, flag, value, id=f"{command} {flag}")
    for command, flags in READ_FLAGS.items()
    for flag, value in FLAG_VALUES.items()
    if flag not in flags
]


def _with_checks(blob, **values):
    """A cache entry whose checks keep their keys but take these values."""
    entry = json.loads(blob)
    entry["checks"] = [{**c, **values} for c in entry["checks"]]
    return json.dumps(entry).encode()


class TestConfig:
    def test_defaults(self):
        cfg = RunConfig()
        assert cfg.p == 1 and cfg.r == F(1, 3)
        assert cfg.cL == F(11, 2) and cfg.cLa == F(2, 3)
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
        # level zero: a constant entry, not a parameter
        assert params["cA"] == "0"
        assert list(params) == ["p", "r", "cL", "cLa", "cA", "max_degree", "mode"]


class TestUsageErrors:
    def test_no_mode_flag(self, capsys):
        # no command read the mode, and cA is 0 at level zero, so neither
        # has a flag or a field
        assert cli.main(["relations", "--mode", "symbolic", "--max-degree", "0"]) == 2
        assert cli.main(["char", "--cA", "0", "--max-degree", "0"]) == 2
        with pytest.raises(TypeError):
            RunConfig(mode="symbolic")
        with pytest.raises(TypeError):
            RunConfig(cA=0)

    @pytest.mark.parametrize("command, flag, value", REFUSED_FLAGS)
    def test_refused_label_flag(self, capsys, monkeypatch, command, flag, value):
        # a flag the command does not read would change nothing, so the
        # parser refuses it before any check runs
        ran = []
        monkeypatch.setitem(cli._COMMANDS, command, ran.append)
        assert cli.main([command, flag, value]) == 2
        assert f"unrecognized arguments: {flag} {value}" in capsys.readouterr().err
        assert ran == []

    def test_flags_are_spelled_in_full(self, capsys, tmp_path):
        # a prefix is refused even where it names one flag of the command
        assert cli.main(["relations", "--c", str(tmp_path / "cache"), "--max-degree", "0"]) == 2
        assert cli.main(["char", "--max", "0"]) == 2
        assert "unrecognized arguments: --max 0" in capsys.readouterr().err
        assert not (tmp_path / "cache").exists()

    def test_bad_rational(self, capsys):
        assert cli.main(["char", "--p", "abc"]) == 2
        assert "--p" in capsys.readouterr().err
        # an exponent form would build an integer too long to print
        assert cli.main(["char", "--r", "1e5000", "--max-degree", "0"]) == 2
        err = capsys.readouterr().err
        assert "--r" in err and "unrecognized" not in err

    def test_zero_twist_central(self, capsys):
        assert cli.main(["char", "--cLa", "0", "--max-degree", "0"]) == 2
        assert "cLa" in capsys.readouterr().err

    def test_acceptance_below_the_pinned_depth_is_a_usage_error(self, capsys, monkeypatch):
        # the sweeps never run shallower than degree 4, so a lower value
        # would change only the report header
        monkeypatch.setattr(acceptance, "_criterion_01", pytest.fail)
        for degree in ("0", "7/2"):
            assert cli.main(["acceptance", "--max-degree", degree]) == 2
            err = capsys.readouterr().err
            assert "--max-degree must be at least 4" in err and f"got {degree}" in err

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

    def test_det_below_the_first_level_is_a_usage_error(self, capsys):
        # a det report with no level in range would check nothing and exit 0
        assert cli.main(["det", "--max-degree", "0"]) == 2
        err = capsys.readouterr().err
        assert "--max-degree" in err and "1/2" in err
        code, report = run_json(capsys, "det", "--max-degree", "1/2")
        assert code == 0
        assert [c["name"] for c in report["checks"]] == ["determinant-locus-1/2"]


#: cheap command lines that together reach every label read of each command
#: (singular reads --max-degree only at even p)
READ_PROBES = {
    "relations": ["--max-degree 0"],
    "realize": ["--p 1/2 --max-degree 0"],
    "singular": ["--p 1", "--p 2 --max-degree 0", "--p -1"],
    "subsingular": ["--p 1"],
    "char": ["--max-degree 0"],
    "det": ["--max-degree 1/2"],
    "diagram": ["--max-degree 0"],
    "acceptance": [""],
}

LABEL_FIELDS = {"p", "r", "cL", "cLa", "max_degree"}


class TestFlagTable:
    def test_each_command_reads_exactly_its_flags(self, monkeypatch):
        reads = set()

        class RecordingConfig(RunConfig):
            def __getattribute__(self, name):
                if name in LABEL_FIELDS:
                    reads.add(name)
                return super().__getattribute__(name)

        monkeypatch.setattr(cli, "RunConfig", RecordingConfig)
        # the battery's criteria build their own configurations
        for n in range(1, 12):
            monkeypatch.setattr(acceptance, f"_criterion_{n:02d}", lambda *_: {})
        parser = cli.build_parser()
        assert sorted(READ_PROBES) == sorted(READ_FLAGS) == sorted(cli._COMMANDS)
        for command, flags in READ_FLAGS.items():
            # the parser takes every flag of the table
            parser.parse_args([command] + [x for flag in flags for x in (flag, "1")])
            read = set()
            for line in READ_PROBES[command]:
                cfg = cli._config_from_args(parser.parse_args([command] + line.split()))
                reads.clear()  # the reads of __post_init__ do not count
                cli._COMMANDS[command](cfg)
                read |= reads
            assert read == {flag[2:].replace("-", "_") for flag in flags}, command


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

    def test_unwritable_out_is_a_usage_error(self, capsys, tmp_path):
        # a missing parent directory, and a directory where the file should go
        for target in (tmp_path / "missing" / "report.txt", tmp_path):
            code = cli.main(["relations", "--max-degree", "0", "--out", str(target)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: --out {target}: ") and err.count("\n") == 1
        assert list(tmp_path.parent.glob(f".{tmp_path.name}.*")) == []

    def test_directory_target_is_refused_before_any_write(self, capsys, tmp_path, monkeypatch):
        # a directory as --out or as the cache entry: nothing is written,
        # not even a temporary file beside it
        writes = []
        real_write_text = Path.write_text

        def spy(self, *args, **kwargs):
            writes.append(self)
            return real_write_text(self, *args, **kwargs)

        monkeypatch.setattr(Path, "write_text", spy)
        cache = tmp_path / "cache"
        entry = cache / f"relations-{cli._cache_key('relations', RunConfig(max_degree=F(0)))}.json"
        entry.mkdir(parents=True)
        for flag, target in (("--out", tmp_path), ("--cache-dir", cache)):
            code = cli.main(["relations", "--max-degree", "0", flag, str(target)])
            assert code == 2
            err = capsys.readouterr().err
            assert err.startswith(f"error: {flag} {target}: ") and err.count("\n") == 1
        assert writes == []


    @pytest.mark.parametrize(
        "argv",
        [
            "realize --p 1/2 --r 1/3 --max-degree 2",
            "realize --p 2 --r 1/2 --max-degree 2",
            "diagram --p -1 --r 1/3",
            "det --r 1/3 --max-degree 2",
            "char --p 1 --r 1/3 --max-degree 5",
        ],
    )
    def test_report_body_matches_its_benchmark_digest(self, capsys, argv):
        # the body without elapsed_ms is byte-identical to the recorded one
        digests = json.loads((Path(__file__).parents[1] / "perfbench" / "digests.json").read_text())
        code, report = run_json(capsys, *argv.split())
        assert code == 0
        assert body_digest(report) == digests[argv]

    @pytest.mark.parametrize("argv", sorted(ORDER_DIGESTS))
    def test_report_body_keeps_its_order_dependent_text(self, capsys, argv):
        # the text of these bodies follows basis, symbol and sweep order
        code, report = run_json(capsys, *argv.split())
        assert code == 0
        assert body_digest(report) == ORDER_DIGESTS[argv]


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
        check = acceptance._criterion_07()
        assert check["status"] == "fail"
        assert check["details"]["failures"] == ["det --max-degree 2: determinant-locus-1"]

    def test_corrupted_bracket_report_fails_realize_and_criterion(self, capsys, monkeypatch):
        # the realize command and criterion 02 share one implementation
        from shvkernel.freefield import FreeFieldRealization

        def corrupted(self, p, r, max_twice_mode=6, max_degree=F(3)):
            mismatches = [("L(1)", "L(-1)", "0")] if (p, r) == (2, F(1, 2)) else []
            return {"pairs": 1, "vectors": 1, "checked": 1, "mismatches": mismatches,
                    "ok": not mismatches}

        monkeypatch.setattr(FreeFieldRealization, "realized_bracket_report", corrupted)
        code, report = run_json(capsys, "realize", "--p", "2", "--r", "1/2", "--max-degree", "3")
        assert code == 1
        assert [c["status"] for c in report["checks"]] == ["fail", "pass"]
        check = acceptance._criterion_02(F(0))
        assert check["status"] == "fail"
        assert [row["ok"] for row in check["details"]["labels"]] == [True, True, False, True, True]
        assert check["details"]["failures"] == [
            "realize --p 2 --r 1/2 --max-degree 3: commutator-matrices"
        ]

    def test_wrong_diagram_pattern_fails_diagram_and_criterion(self, capsys, monkeypatch):
        # the diagram command and criterion 10 share one implementation
        orig = cli.embedding_diagram

        def corrupted(p, *args):
            diagram = orig(p, *args)
            if p == -2:
                diagram.pattern = "single-node"
            return diagram

        monkeypatch.setattr(cli, "embedding_diagram", corrupted)
        code, report = run_json(capsys, "diagram", "--p", "-2", "--r", "3/4")
        assert code == 1
        assert report["checks"][0]["details"]["pattern"] == "single-node"
        check = acceptance._criterion_10()
        assert check["status"] == "fail"
        assert check["details"]["failures"] == ["diagram --p -2 --r 3/4: embedding-diagram"]


class TestPinnedRuns:
    CRITERIA = [f"_criterion_{n:02d}" for n in range(1, 12)]

    def stub_battery(self, monkeypatch, calls):
        """Every criterion runs `singular --p 2`, a counting stand-in."""
        passing = [{"name": "stub", "paper_ref": "stub", "status": "pass", "details": {}}]
        monkeypatch.setitem(cli._COMMANDS, "singular", lambda cfg: calls.append(cfg) or passing)

        def criterion(*_):
            runs = acceptance._pinned_runs("singular", [RunConfig(p=F(2))])
            return acceptance._fold("stub", "stub", runs)

        for name in self.CRITERIA:
            monkeypatch.setattr(acceptance, name, criterion)
        return criterion

    def test_one_acceptance_call_runs_each_command_line_once(self, monkeypatch):
        calls = []
        criterion = self.stub_battery(monkeypatch, calls)
        checks = acceptance.cmd_acceptance(RunConfig())
        assert len(checks) == 11 and all(c["status"] == "pass" for c in checks)
        assert len(calls) == 1
        # outside acceptance, a criterion runs fresh
        criterion()
        criterion()
        assert len(calls) == 3
        assert acceptance._shared_runs is None

    def test_shared_runs_cleared_when_acceptance_raises(self, monkeypatch):
        calls = []
        self.stub_battery(monkeypatch, calls)

        def broken():
            raise RuntimeError("criterion failed to run")

        monkeypatch.setattr(acceptance, "_criterion_07", broken)
        with pytest.raises(RuntimeError):
            acceptance.cmd_acceptance(RunConfig())
        assert acceptance._shared_runs is None
        acceptance._criterion_01()
        assert len(calls) == 2


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
            lambda blob: _with_checks(blob, details=5),  # the right keys, a wrong value
            lambda blob: _with_checks(blob, status=None),
        ],
        ids=["truncated", "empty", "binary", "not-an-object", "bad-checks", "bad-details",
             "bad-status"],
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

    def test_changed_sources_miss_the_cache(self, capsys, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        args = ["relations", "--max-degree", "0", "--cache-dir", str(cache)]
        run_json(capsys, *args)
        run_json(capsys, *args)
        assert len(list(cache.iterdir())) == 1
        monkeypatch.setattr(cli, "_source_hash", lambda: "0" * 64)
        assert run_json(capsys, *args)[0] == 0
        assert len(list(cache.iterdir())) == 2

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
