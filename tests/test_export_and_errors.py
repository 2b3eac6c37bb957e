"""Tests for the ANML corpus exporter, the eval runner CLI, and the
exception hierarchy."""

import re
from pathlib import Path

import pytest

import repro
from repro import errors
from repro.automata.anml import from_anml
from repro.sim.golden import match_offsets
from repro.workloads.export import export_benchmark, export_suite, main
from repro.workloads.suite import get_benchmark


class TestExport:
    def test_export_single_roundtrips(self, tmp_path):
        benchmark = get_benchmark("Bro217")
        written = export_benchmark(
            benchmark, tmp_path, input_length=1500, seed=2
        )
        assert len(written) == 2
        automaton = from_anml(written[0].read_text(encoding="utf-8"))
        data = written[1].read_bytes()
        assert len(data) == 1500
        original = benchmark.build()
        assert match_offsets(automaton, data[:600]) == match_offsets(
            original, data[:600]
        )

    def test_export_subset(self, tmp_path):
        written = export_suite(tmp_path, names=["ExactMatch", "SPM"])
        names = {path.stem for path in written}
        assert names == {"ExactMatch", "SPM"}

    def test_cli_main(self, tmp_path, capsys):
        assert main([str(tmp_path), "--only", "Bro217",
                     "--input-length", "100"]) == 0
        output = capsys.readouterr().out
        assert "Bro217.anml" in output
        assert (tmp_path / "Bro217.input").stat().st_size == 100


class TestEvalRunnerCli:
    def test_static_experiments(self, capsys):
        from repro.eval.runner import main as runner_main

        assert runner_main(["table3", "fig10"]) == 0
        output = capsys.readouterr().out
        assert "Table 3" in output
        assert "Figure 10" in output
        assert "CA_P" in output

    def test_unknown_experiment(self, capsys):
        from repro.eval.runner import main as runner_main

        with pytest.raises(SystemExit):
            runner_main(["not-an-experiment"])


class TestErrorHierarchy:
    def test_all_errors_derive_from_repro_error(self):
        for name in dir(errors):
            attribute = getattr(errors, name)
            if isinstance(attribute, type) and issubclass(attribute, Exception):
                # Warnings (DegradedModeWarning) live outside the error
                # hierarchy so `except ReproError` never swallows one.
                if issubclass(attribute, Warning):
                    continue
                assert issubclass(attribute, errors.ReproError) or (
                    attribute is errors.ReproError
                ), name

    def test_regex_syntax_error_position(self):
        error = errors.RegexSyntaxError("bad", "a[b", 1)
        assert error.position == 1
        assert "offset 1" in str(error)
        assert "a[b" in str(error)

    def test_regex_syntax_error_without_position(self):
        error = errors.RegexSyntaxError("bad")
        assert error.position == -1
        assert str(error) == "bad"

    def test_specific_hierarchies(self):
        assert issubclass(errors.CapacityError, errors.CompileError)
        assert issubclass(errors.ConnectivityError, errors.CompileError)
        assert issubclass(errors.SymbolSetError, errors.AutomatonError)
        assert issubclass(errors.AnmlError, errors.AutomatonError)
        assert issubclass(errors.FaultError, errors.ReproError)
        assert issubclass(errors.DegradedModeWarning, RuntimeWarning)


class TestMarkdownReport:
    def test_static_experiments_to_markdown(self, tmp_path):
        from repro.eval.report import generate_report, main, rows_to_markdown

        report = generate_report(experiments=["table3", "fig10"])
        assert "## Table 3" in report
        assert "| CA_P |" in report or "| CA_P " in report

        output = tmp_path / "results.md"
        assert main([str(output), "--experiments", "table2"]) == 0
        assert "280x256" in output.read_text(encoding="utf-8")

        assert rows_to_markdown([]) == ""
        table = rows_to_markdown([("A", "B"), (1, 2.5)])
        assert table.splitlines()[1] == "|---|---|"


class TestOneBenchmarkOfRecord:
    """``BENCHMARK.json`` + ``benchmarks/e2e`` is the only thing that
    measures: the package keeps no measurement history of its own and
    reaches for no file outside itself."""

    def test_package_reads_nothing_outside_itself(self):
        """A module that climbs out of the package (``parents[3]``) or
        names a repo-root ``BENCH_*`` history fails here, not in review."""
        root = Path(repro.__file__).parent
        offenders = sorted(
            str(path.relative_to(root))
            for path in root.rglob("*.py")
            if re.search(r"parents\[|BENCH_", path.read_text(encoding="utf-8"))
        )
        assert offenders == []

    def test_ci_run_blocks_name_only_files_that_exist(self):
        repo = Path(__file__).resolve().parents[1]
        workflow = repo / ".github" / "workflows" / "ci.yml"
        if not workflow.exists():
            pytest.skip("not running from a repository checkout")
        named = set()
        block_indent = None
        for line in workflow.read_text(encoding="utf-8").splitlines():
            indent = len(line) - len(line.lstrip())
            if block_indent is not None and line.strip() and indent <= block_indent:
                block_indent = None
            if re.match(r"\s*run:", line):
                block_indent = indent
            if block_indent is not None:
                named.update(
                    re.findall(r"\b(?:benchmarks|tests)/[\w./-]*\w", line)
                )
        assert any(path.startswith("benchmarks/e2e/") for path in named)
        missing = sorted(path for path in named if not (repo / path).exists())
        assert missing == []

    def test_report_is_exactly_the_requested_sections(
        self, tmp_path, monkeypatch
    ):
        from repro.eval.report import generate_report
        from repro.eval.runner import TITLES

        monkeypatch.chdir(tmp_path)
        wanted = ["table2", "fig10", "table3"]
        report = generate_report(experiments=wanted)
        headings = [
            line[3:] for line in report.splitlines() if line.startswith("## ")
        ]
        assert headings == [TITLES[name] for name in wanted]
        assert report.endswith("|\n")
        assert list(tmp_path.iterdir()) == []

    def test_report_rejects_an_unknown_experiment(self, tmp_path, capsys):
        from repro.eval.report import main as report_main

        output = tmp_path / "out.md"
        with pytest.raises(SystemExit) as usage:
            report_main([str(output), "--experiments", "nope"])
        assert usage.value.code == 2
        assert "invalid choice: 'nope'" in capsys.readouterr().err
        assert not output.exists()
