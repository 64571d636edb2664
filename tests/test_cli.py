"""Unit tests for the command-line interface."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import build_parser, main
from repro.fsm import write_kiss_file


@pytest.fixture
def kiss_path(tmp_path, small_controller) -> Path:
    path = tmp_path / "controller.kiss2"
    write_kiss_file(small_controller, path)
    return path


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_synthesize_defaults(self, kiss_path):
        args = build_parser().parse_args(["synthesize", str(kiss_path)])
        assert args.structure == "PST"
        assert args.width is None

    def test_unknown_structure_rejected(self, kiss_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["synthesize", str(kiss_path), "--structure", "JK"])


class TestSynthesizeCommand:
    def test_basic_run(self, kiss_path, capsys):
        exit_code = main(["synthesize", str(kiss_path), "--structure", "DFF"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Synthesis result" in out
        assert "product terms" in out
        assert "State assignment:" in out

    def test_writes_pla_and_verilog(self, kiss_path, tmp_path, capsys):
        pla = tmp_path / "logic.pla"
        verilog = tmp_path / "controller.v"
        exit_code = main([
            "synthesize", str(kiss_path),
            "--structure", "PST",
            "--pla-out", str(pla),
            "--verilog-out", str(verilog),
        ])
        assert exit_code == 0
        assert pla.exists() and ".i " in pla.read_text()
        assert verilog.exists() and "module" in verilog.read_text()


class TestCompareCommand:
    def test_compare_prints_all_structures(self, kiss_path, capsys):
        exit_code = main(["compare", str(kiss_path)])
        assert exit_code == 0
        out = capsys.readouterr().out
        for structure in ("DFF", "PAT", "SIG", "PST"):
            assert structure in out


class TestFaultsimCommand:
    def test_faultsim_defaults(self, kiss_path):
        args = build_parser().parse_args(["faultsim", str(kiss_path)])
        assert args.engine == "compiled"
        assert args.word_width == 256
        assert not hasattr(args, "jobs")
        assert not args.collapse

    def test_faultsim_runs_compiled(self, kiss_path, capsys):
        exit_code = main([
            "faultsim", str(kiss_path),
            "--patterns", "100", "--word-width", "32",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Fault simulation" in out
        assert "fault coverage" in out
        assert "100" in out  # exactly the requested pattern count

    def test_faultsim_engines_agree(self, kiss_path, capsys):
        main(["faultsim", str(kiss_path), "--patterns", "64", "--word-width", "16",
              "--engine", "compiled"])
        compiled_out = capsys.readouterr().out
        main(["faultsim", str(kiss_path), "--patterns", "64", "--word-width", "16",
              "--engine", "legacy"])
        legacy_out = capsys.readouterr().out

        def coverage_line(text):
            return [l for l in text.splitlines() if "fault coverage" in l]

        assert coverage_line(compiled_out) == coverage_line(legacy_out)

    def test_faultsim_collapse_reduces_faults(self, kiss_path, capsys):
        main(["faultsim", str(kiss_path), "--patterns", "16"])
        full_out = capsys.readouterr().out
        main(["faultsim", str(kiss_path), "--patterns", "16", "--collapse"])
        collapsed_out = capsys.readouterr().out
        assert "faults (collapsed)" in collapsed_out

        def fault_count(text, label):
            for line in text.splitlines():
                if line.startswith(label):
                    return int(line.split()[-1])
            raise AssertionError(f"no {label!r} row in output")

        assert fault_count(collapsed_out, "faults (collapsed)") < fault_count(full_out, "faults ")

    def test_compare_with_fault_patterns(self, kiss_path, capsys):
        exit_code = main(["compare", str(kiss_path), "--fault-patterns", "64",
                          "--word-width", "16"])
        assert exit_code == 0
        assert "fault coverage" in capsys.readouterr().out


class TestBenchmarksCommand:
    def test_small_sweep(self, capsys):
        exit_code = main(["benchmarks", "--names", "dk512", "--trials", "2"])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "Table 2" in out
        assert "Table 3" in out
        assert "dk512" in out


class TestUniformFlowKnobs:
    """The engine knobs are routed through every subcommand uniformly;
    ``--jobs`` (cell-level parallelism) belongs to the sweep commands only."""

    KNOBS = ["--assignment-engine", "reference", "--multi-start", "2",
             "--word-width", "64", "--engine", "legacy"]

    @pytest.mark.parametrize("command", ["synthesize", "compare", "faultsim"])
    def test_knobs_parse_on_file_commands(self, command, kiss_path):
        args = build_parser().parse_args([command, str(kiss_path)] + self.KNOBS)
        assert args.assignment_engine == "reference"
        assert args.multi_start == 2
        assert args.word_width == 64
        assert args.engine == "legacy"

    @pytest.mark.parametrize("command", ["synthesize", "compare", "faultsim"])
    def test_jobs_is_rejected_on_file_commands(self, command, kiss_path):
        with pytest.raises(SystemExit):
            build_parser().parse_args([command, str(kiss_path), "--jobs", "2"])

    def test_knobs_parse_on_benchmarks(self):
        args = build_parser().parse_args(["benchmarks"] + self.KNOBS + ["--jobs", "2"])
        assert args.assignment_engine == "reference"
        assert args.multi_start == 2
        assert args.word_width == 64
        assert args.jobs == 2

    def test_compare_multi_start_runs(self, kiss_path, capsys):
        exit_code = main(["compare", str(kiss_path), "--multi-start", "2"])
        assert exit_code == 0
        assert "PST" in capsys.readouterr().out


class TestValidateCommand:
    def test_valid_machine(self, kiss_path, capsys):
        exit_code = main(["validate", str(kiss_path)])
        assert exit_code == 0
        assert "OK" in capsys.readouterr().out

    def test_invalid_machine(self, tmp_path, capsys):
        text = ".i 1\n.o 1\n.r a\n- a b 0\n1 a a 1\n- b a 0\n.e\n"
        path = tmp_path / "bad.kiss2"
        path.write_text(text)
        exit_code = main(["validate", str(path)])
        assert exit_code == 1
        assert "ERRORS" in capsys.readouterr().out


class TestCorpusAndFuzzCommands:
    def test_split_machines_keeps_corpus_specs_intact(self):
        from repro.cli import _split_machines

        raw = "dk512,corpus:ring:states=32,seed=1,outputs=2,ex4,corpus:tree"
        assert _split_machines(raw) == [
            "dk512",
            "corpus:ring:states=32,seed=1,outputs=2",
            "ex4",
            "corpus:tree",
        ]
        assert _split_machines("dk512,ex4") == ["dk512", "ex4"]

    def test_corpus_list_and_show(self, capsys):
        assert main(["corpus", "list"]) == 0
        out = capsys.readouterr().out
        assert "controller" in out and "ring" in out

        assert main(["corpus", "show", "corpus:ring:states=8,seed=1", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["states"] == 8
        assert len(data["digest"]) == 64

    def test_corpus_gen_writes_kiss(self, tmp_path, capsys):
        out_path = tmp_path / "gen.kiss2"
        assert main(["corpus", "gen", "corpus:tree:states=7,seed=2",
                     "--out", str(out_path)]) == 0
        assert out_path.read_text().startswith(".i ")
        assert main(["validate", str(out_path)]) == 0

    def test_fuzz_list_mutations(self, capsys):
        assert main(["fuzz", "--list-mutations"]) == 0
        out = capsys.readouterr().out
        assert "engine-legacy-drop" in out

    def test_sweep_accepts_corpus_spec(self, capsys):
        exit_code = main([
            "sweep", "--machines", "corpus:ring:states=8,seed=1,jump_every=4",
            "--structures", "PST", "--seeds", "0", "--json",
        ])
        assert exit_code == 0
        data = json.loads(capsys.readouterr().out)
        assert data["machines"] == [
            "corpus:ring:jump_every=4,output_dc=0.1,outputs=3,seed=1,states=8"
        ]
