"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main
from repro.newick import read_newick_file, trees_from_string, write_newick_file


@pytest.fixture
def quartet_file(tmp_path):
    path = tmp_path / "trees.nwk"
    path.write_text("((A,B),(C,D));\n((A,C),(B,D));\n((A,B),(C,D));\n")
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self, capsys):
        for command in ("teleport", "bench"):
            with pytest.raises(SystemExit) as exc:
                build_parser().parse_args([command])
            assert exc.value.code == 2
            assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestAvgRF:
    def test_basic(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3
        values = [float(line.split("\t")[1]) for line in out]
        assert values == pytest.approx([2 / 3, 4 / 3, 2 / 3])

    @pytest.mark.parametrize("method", ["ds", "dsmp", "hashrf", "bfhrf"])
    def test_all_methods(self, quartet_file, capsys, method):
        assert main(["avg-rf", quartet_file, "--method", method]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert len(out) == 3

    def test_reference_file(self, quartet_file, tmp_path, capsys):
        ref = tmp_path / "ref.nwk"
        ref.write_text("((A,B),(C,D));\n")
        assert main(["avg-rf", quartet_file, "-r", str(ref)]) == 0
        values = [float(l.split("\t")[1])
                  for l in capsys.readouterr().out.strip().splitlines()]
        assert values == [0.0, 2.0, 0.0]

    def test_normalized(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file, "--normalized"]) == 0
        values = [float(l.split("\t")[1])
                  for l in capsys.readouterr().out.strip().splitlines()]
        assert all(0 <= v <= 1 for v in values)

    def test_split_size_filter(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file, "--min-split-size", "3"]) == 0
        values = [float(l.split("\t")[1])
                  for l in capsys.readouterr().out.strip().splitlines()]
        # n=4: no split has smaller side >= 3, so all distances are 0.
        assert values == [0.0, 0.0, 0.0]

    def test_workers(self, quartet_file, capsys):
        assert main(["avg-rf", quartet_file, "--workers", "2"]) == 0

    @pytest.mark.parametrize("executor", ["serial", "thread", "spawn"])
    def test_executor_flag(self, quartet_file, capsys, executor):
        assert main(["avg-rf", quartet_file, "--workers", "2",
                     "--executor", executor]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        values = [float(line.split("\t")[1]) for line in out]
        assert values == pytest.approx([2 / 3, 4 / 3, 2 / 3])

    def test_executor_flag_resets_after_run(self, quartet_file, capsys,
                                            monkeypatch):
        from repro.runtime import EXECUTOR_ENV, default_executor_name

        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        main(["avg-rf", quartet_file, "--executor", "thread"])
        capsys.readouterr()
        assert default_executor_name() == "auto"

    def test_unknown_executor_rejected(self, quartet_file, capsys):
        with pytest.raises(SystemExit):
            main(["avg-rf", quartet_file, "--executor", "mpi"])

    def test_error_reported_cleanly(self, tmp_path, capsys):
        bad = tmp_path / "bad.nwk"
        bad.write_text("((A,B),(C,;\n")
        assert main(["avg-rf", str(bad)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_timing_on_stderr(self, quartet_file, capsys):
        main(["avg-rf", quartet_file])
        assert "wall time" in capsys.readouterr().err


class TestMatrix:
    def test_stdout(self, quartet_file, capsys):
        assert main(["matrix", quartet_file, "--method", "naive"]) == 0
        rows = capsys.readouterr().out.strip().splitlines()
        assert len(rows) == 3
        assert rows[0].split(",") == ["0", "2", "0"]

    def test_csv_output(self, quartet_file, tmp_path, capsys):
        out = tmp_path / "m.csv"
        assert main(["matrix", quartet_file, "-o", str(out)]) == 0
        assert out.read_text().strip().splitlines()[0] == "0,2,0"


class TestConsensus:
    def test_majority(self, quartet_file, capsys):
        assert main(["consensus", quartet_file]) == 0
        newick = capsys.readouterr().out.strip()
        trees = trees_from_string(newick)
        assert trees[0].n_leaves == 4

    def test_strict(self, quartet_file, capsys):
        assert main(["consensus", quartet_file, "--consensus-method", "strict"]) == 0


class TestSimulate:
    def test_variable_trees(self, tmp_path, capsys):
        out = tmp_path / "sim.nwk"
        assert main(["simulate", "--family", "variable-trees", "--trees", "6",
                     "-o", str(out), "--seed", "3"]) == 0
        trees = read_newick_file(out)
        assert len(trees) == 6
        assert trees[0].n_leaves == 100

    def test_variable_taxa(self, tmp_path):
        out = tmp_path / "sim.nwk"
        assert main(["simulate", "--family", "variable-taxa", "--taxa", "12",
                     "--trees", "4", "-o", str(out), "--seed", "3"]) == 0
        trees = read_newick_file(out)
        assert trees[0].n_leaves == 12

    def test_insect_unweighted(self, tmp_path):
        out = tmp_path / "sim.nwk"
        assert main(["simulate", "--family", "insect", "--trees", "2",
                     "-o", str(out), "--seed", "3"]) == 0
        assert ":" not in out.read_text()


class TestBest:
    def test_best(self, quartet_file, tmp_path, capsys):
        cand = tmp_path / "cand.nwk"
        cand.write_text("((A,D),(B,C));\n((A,B),(C,D));\n")
        assert main(["best", str(cand), "-r", quartet_file]) == 0
        out = capsys.readouterr().out
        assert "index 1" in out
