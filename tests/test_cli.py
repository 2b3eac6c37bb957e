"""Tests for the command-line interface."""

import pytest

from repro.cli import main


@pytest.fixture
def rules_file(tmp_path):
    path = tmp_path / "rules.txt"
    path.write_text("# demo\nbat\nbar[t]?\nc[ao]t\n")
    return str(path)


@pytest.fixture
def input_file(tmp_path):
    path = tmp_path / "input.bin"
    path.write_bytes(b"the cart hit a bat and the cat ran")
    return str(path)


class TestCompile:
    def test_basic(self, rules_file, capsys):
        assert main(["compile", rules_file]) == 0
        output = capsys.readouterr().out
        assert "CA_P" in output
        assert "partitions" in output
        assert "bitstream" in output

    def test_space_design(self, rules_file, capsys):
        assert main(["compile", rules_file, "--design", "CA_S"]) == 0
        assert "CA_S" in capsys.readouterr().out

    def test_anml_export_roundtrips(self, rules_file, tmp_path, capsys):
        anml_path = str(tmp_path / "out.anml")
        assert main(["compile", rules_file, "--anml", anml_path]) == 0
        assert main(["anml-info", anml_path]) == 0
        output = capsys.readouterr().out
        assert "components:" in output

    def test_missing_file(self, capsys):
        assert main(["compile", "/nonexistent/rules.txt"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_empty_rules(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# nothing but comments\n")
        assert main(["compile", str(path)]) == 1
        assert "no rules" in capsys.readouterr().err


class TestScan:
    def test_finds_matches(self, rules_file, input_file, capsys):
        assert main(["scan", rules_file, input_file]) == 0
        output = capsys.readouterr().out
        assert "'bat'" in output
        assert "matches in" in output
        assert "nJ/symbol" in output

    def test_limit(self, tmp_path, capsys):
        rules = tmp_path / "r.txt"
        rules.write_text("a\n")
        data = tmp_path / "d.bin"
        data.write_bytes(b"a" * 50)
        assert main(["scan", str(rules), str(data), "--limit", "3"]) == 0
        output = capsys.readouterr().out
        assert "and 47 more" in output


class TestScanThroughTheEngine:
    """``scan`` builds through ``CacheAutomatonEngine.from_patterns``:
    one front door, so the CLI starts warm from the artifact cache, and
    its summary is over every input it was given."""

    @pytest.fixture(autouse=True)
    def cache_dir(self, tmp_path, monkeypatch):
        path = tmp_path / "cache"
        monkeypatch.setenv("REPRO_CACHE_DIR", str(path))
        return path

    @pytest.fixture
    def two_inputs(self, tmp_path):
        rules = tmp_path / "r.txt"
        rules.write_text("a\n")
        big = tmp_path / "big.bin"
        big.write_bytes(b"a" * 4000)
        small = tmp_path / "small.bin"
        small.write_bytes(b"xx a")
        return str(rules), str(big), str(small)

    @staticmethod
    def summary(output: str):
        return output.split("\n\n", 1)[1].splitlines()

    def test_summary_does_not_depend_on_input_order(self, two_inputs, capsys):
        rules, big, small = two_inputs
        assert main(["scan", rules, big, small, "--limit", "0"]) == 0
        forward = self.summary(capsys.readouterr().out)
        assert main(["scan", rules, small, big, "--limit", "0"]) == 0
        assert self.summary(capsys.readouterr().out) == forward
        assert "4001 matches in 4004 bytes" in forward[0]
        assert "0.0020 ms" in forward[1]
        assert forward[-1].endswith("62 interrupt(s)")

    def test_second_scan_starts_from_the_cache(
        self, rules_file, input_file, cache_dir, capsys, monkeypatch
    ):
        assert main(["scan", rules_file, input_file]) == 0
        cold = capsys.readouterr().out
        stored = sorted(path.name for path in cache_dir.rglob("*.npz"))
        assert len(stored) == 2
        assert sum(name.endswith(".automaton.npz") for name in stored) == 1

        def refuse(*args, **kwargs):
            raise AssertionError("a warm scan ran the front end or the compiler")

        for module in ("repro.cli", "repro.engine"):
            for name in ("compile_patterns", "compile_automaton",
                         "compile_space_optimized"):
                monkeypatch.setattr(f"{module}.{name}", refuse)
        assert main(["scan", rules_file, input_file]) == 0
        assert capsys.readouterr().out == cold

    @pytest.mark.parametrize("how", ["--jobs", "REPRO_SCAN_JOBS"])
    def test_mistyped_worker_count_is_one_error_line(
        self, how, two_inputs, capsys, monkeypatch
    ):
        argv = ["scan", *two_inputs, "--backend", "lazy-dfa"]
        if how == "--jobs":
            argv += ["--jobs", "x"]
        else:
            monkeypatch.setenv(how, "many")
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {how.lstrip('-')} must be")
        assert len(err.strip().splitlines()) == 1


class TestDesigns:
    def test_lists_design_points(self, capsys):
        assert main(["designs"]) == 0
        output = capsys.readouterr().out
        for name in ("CA_P", "CA_S", "CA_64"):
            assert name in output


class TestClassify:
    @pytest.mark.parametrize(
        "rules",
        [["bat", "c[ao]t", "dog+"], ["bat", "c[ao]t", "dog+", "x.{14}y"]],
        ids=["friendly", "hostile"],
    )
    def test_engine_placement_is_the_engines(self, tmp_path, capsys, rules):
        """Under the census table the command prints the engine's own
        ``auto=True`` decision, from the function the engine calls."""
        from repro.engine import CacheAutomatonEngine

        path = tmp_path / "rules.txt"
        path.write_text("\n".join(rules) + "\n")
        assert main(["classify", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert any(line.startswith("placement: ") for line in lines)
        assert lines[-1].startswith("engine placement: ")
        printed = lines[-1].split()[2]
        engine = CacheAutomatonEngine.from_patterns(rules, auto=True, cache=None)
        assert printed == engine.health().backend
        # The reason is the health event's.
        reason = lines[-1][len(f"engine placement: {printed} "):]
        assert engine.health().events == (
            f"auto placement selected {printed} {reason}",
        )


class TestAnmlInfo:
    def test_malformed_file(self, tmp_path, capsys):
        path = tmp_path / "bad.anml"
        path.write_text("<not-anml/>")
        assert main(["anml-info", str(path)]) == 1
        assert "error:" in capsys.readouterr().err


class TestSaveMapping:
    def test_save_and_reload(self, rules_file, tmp_path, capsys):
        from repro.compiler import mapping_from_json

        path = str(tmp_path / "mapping.json")
        assert main(["compile", rules_file, "--save-mapping", path]) == 0
        assert "mapping written" in capsys.readouterr().out
        mapping = mapping_from_json(open(path, encoding="utf-8").read())
        assert mapping.design.name == "CA_P"
        assert mapping.partition_count == 1


class TestServe:
    def test_scans_inputs_through_service(self, rules_file, input_file,
                                          capsys):
        assert main(["serve", rules_file, input_file, "--repeat", "2"]) == 0
        out = capsys.readouterr().out
        assert out.count("match(es)") == 2
        assert "2 completed, 0 failed" in out
        assert "breaker_trips" in out

    def test_oversized_input_fails_typed(self, rules_file, input_file,
                                         capsys):
        assert main([
            "serve", rules_file, input_file, "--max-stream-bytes", "4",
        ]) == 1
        captured = capsys.readouterr()
        assert "StreamTooLarge" in captured.out
        assert "1 failed" in captured.out

    def test_missing_input_one_line_error(self, rules_file, capsys):
        assert main(["serve", rules_file, "/nonexistent/input.bin"]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "Traceback" not in err


class TestOneLineDiagnostics:
    """Library failures (ReproError and subclasses such as
    SimulationError) become a single ``error:`` line on stderr and exit
    status 1 — never a traceback.  CI scripts grep for this."""

    def test_repro_error_single_line(self, tmp_path, capsys):
        path = tmp_path / "empty.txt"
        path.write_text("# only comments\n")
        assert main(["compile", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err

    def test_simulation_error_single_line(self, rules_file, input_file,
                                          capsys, monkeypatch):
        from repro.errors import SimulationError

        def explode(arguments):
            raise SimulationError("backend wedged mid-scan")

        # build_parser() binds handlers at call time inside main(), so
        # the patched module global is what gets dispatched
        monkeypatch.setattr("repro.cli._cmd_scan", explode)
        status = main(["scan", rules_file, input_file])
        err = capsys.readouterr().err
        assert status == 1
        assert err.startswith("error: backend wedged mid-scan")
        assert len(err.strip().splitlines()) == 1
        assert "Traceback" not in err


class TestProfileCompileCommand:
    def test_rules_file(self, rules_file, capsys):
        assert main(["profile-compile", rules_file, "--no-bitstream"]) == 0
        out = capsys.readouterr().out
        assert "Phase" in out
        assert "split" in out
        assert "total" in out

    def test_workload(self, capsys):
        assert main(
            ["profile-compile", "--workload", "Bro217", "--scale", "0.5"]
        ) == 0
        out = capsys.readouterr().out
        assert "bitstream" in out

    def test_unknown_workload(self, capsys):
        assert main(["profile-compile", "--workload", "NotASuite"]) == 1

    def test_no_source(self, capsys):
        assert main(["profile-compile"]) == 1
