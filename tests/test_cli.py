"""Command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.circuit import save_bench, toy_seq


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])
        # metrics-export is not a subcommand: argparse exits 2.
        with pytest.raises(SystemExit) as exc:
            main(["metrics-export", "runs:latest"])
        assert exc.value.code == 2

    def test_generate_defaults(self):
        args = build_parser().parse_args(["generate", "s27"])
        assert args.circuit == "s27"
        assert args.seed == 0
        assert not args.no_compact


class TestCommands:
    def test_info(self, capsys):
        assert main(["info", "s27"]) == 0
        out = capsys.readouterr().out
        assert "inputs" in out and "flops" in out

    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "s27 (exact netlist)" in out
        assert "s5378" in out

    def test_generate_s27(self, capsys):
        assert main(["generate", "s27", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "fcov" in out
        assert "restoration" in out
        assert "omission" in out

    def test_generate_show_sequence(self, capsys):
        assert main(["generate", "s27", "--seed", "1",
                     "--show-sequence"]) == 0
        out = capsys.readouterr().out
        assert "scan_sel" in out

    def test_generate_no_compact(self, capsys):
        assert main(["generate", "s27", "--no-compact"]) == 0
        out = capsys.readouterr().out
        assert "restoration" not in out

    def test_translate_s27(self, capsys):
        assert main(["translate", "s27", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "faster" in out

    def test_bench_file_input(self, tmp_path, capsys):
        path = tmp_path / "toy.bench"
        save_bench(toy_seq(), path)
        assert main(["info", str(path)]) == 0
        out = capsys.readouterr().out
        assert "flops" in out

    def test_table_quick(self, capsys):
        assert main(["table", "5", "--profile", "quick"]) == 0
        out = capsys.readouterr().out
        assert "Table 5" in out

    def test_analyze(self, capsys):
        from repro.cli import main as _main

        assert _main(["analyze", "s27"]) == 0
        out = capsys.readouterr().out
        assert "sequential depth" in out

    def test_export_vcd(self, tmp_path, capsys):
        from repro.cli import main as _main

        out = tmp_path / "s27.vcd"
        assert _main(["export", "s27", str(out), "--seed", "1"]) == 0
        assert out.read_text().startswith("$date")

    def test_export_stil(self, tmp_path, capsys):
        from repro.cli import main as _main

        out = tmp_path / "s27.stil"
        assert _main(["export", "s27", str(out), "--seed", "1"]) == 0
        assert "STIL 1.0;" in out.read_text()

    def test_export_bad_extension(self, tmp_path, capsys, monkeypatch):
        import repro.cli
        from repro.cli import main as _main

        def no_flow(*args, **kwargs):
            raise AssertionError("export ran the flow before checking "
                                 "the output suffix")

        monkeypatch.setattr(repro.cli, "generation_flow", no_flow)
        assert _main(["export", "s27", str(tmp_path / "s27.txt")]) == 1
        assert "unsupported extension '.txt'" in capsys.readouterr().out

    def test_report_to_file(self, tmp_path, capsys):
        from repro.cli import main as _main

        out = tmp_path / "rep.md"
        assert _main(["report", "--profile", "quick",
                      "--out", str(out)]) == 0
        assert "Table 6" in out.read_text()

    def test_verilog_file_input(self, tmp_path, capsys):
        from repro.circuit import save_verilog, toy_seq
        from repro.cli import main as _main

        path = tmp_path / "toy.v"
        save_verilog(toy_seq(), path)
        assert _main(["info", str(path)]) == 0
        assert "flops" in capsys.readouterr().out
