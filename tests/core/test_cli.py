"""Tests for the command-line interface."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
import repro.graph.csr as csr_mod
from repro.cli import build_parser, main
from repro.core import METHODS, TrussDecomposition
from repro.graph import complete_graph, read_edge_list, write_edge_list

from helpers import needs_numpy

needs_int64 = pytest.mark.skipif(
    csr_mod._np is None, reason="the CSR engines' int64 path needs numpy"
)


@pytest.fixture
def graph_file(tmp_path):
    g = complete_graph(5)
    g.add_edge(0, 10)
    path = tmp_path / "g.txt"
    write_edge_list(g, path)
    return path


class TestDecompose:
    def test_writes_phi_lines(self, graph_file, tmp_path, capsys):
        out = tmp_path / "phi.txt"
        assert main(["decompose", str(graph_file), "-o", str(out)]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11
        phi = {}
        for line in lines:
            u, v, k = map(int, line.split())
            phi[(u, v)] = k
        assert phi[(0, 10)] == 2
        assert phi[(0, 1)] == 5
        assert "kmax=5" in capsys.readouterr().err

    def test_stdout_default(self, graph_file, capsys):
        assert main(["decompose", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert len(out.strip().splitlines()) == 11

    @needs_numpy
    def test_flat_stdout_matches_output_file(self, graph_file, tmp_path, capsys):
        # the column writer's route to stdout, next to its route to -o
        assert main(["decompose", str(graph_file), "--method", "flat"]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "--method", "flat", "-o", str(out),
        ]) == 0
        assert printed.encode() == out.read_bytes()
        assert len(printed.splitlines()) == 11

    @needs_int64
    def test_flat_path_builds_no_dict(self, graph_file, tmp_path, monkeypatch):
        def refuse(self):
            raise AssertionError("the flat CLI path built the trussness dict")

        monkeypatch.setattr(TrussDecomposition, "_dict_from_columns", refuse)
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "--method", "flat", "-o", str(out),
        ]) == 0
        assert len(out.read_text().splitlines()) == 11

    @needs_numpy
    def test_int64_extreme_ids_match_improved(self, tmp_path):
        lo, hi = -(1 << 63), (1 << 63) - 1
        graph = tmp_path / "extremes.txt"
        graph.write_text(
            f"{lo} {hi}\n{hi} 7\n7 {lo}\n-12 7\n-12 {lo}\n{hi} 0\n"
        )
        outputs = {}
        for method in ("flat", "improved"):
            out = tmp_path / f"{method}.txt"
            assert main([
                "decompose", str(graph), "--method", method, "-o", str(out),
            ]) == 0
            outputs[method] = out.read_bytes()
        assert outputs["flat"] == outputs["improved"]
        assert f"{lo} {hi} 3\n".encode() in outputs["flat"]

    @pytest.mark.parametrize("method", ["baseline", "bottomup", "topdown"])
    def test_other_methods(self, graph_file, tmp_path, method):
        out = tmp_path / "phi.txt"
        args = ["decompose", str(graph_file), "-o", str(out), "--method", method]
        if method in ("bottomup", "topdown"):
            args += ["--memory-fraction", "4"]
        assert main(args) == 0
        assert len(out.read_text().strip().splitlines()) == 11

    @needs_numpy
    @pytest.mark.parametrize("method", ["flat", "parallel"])
    def test_csr_fastpath_methods(self, graph_file, tmp_path, method, capsys):
        out = tmp_path / "phi.txt"
        args = ["decompose", str(graph_file), "-o", str(out), "--method", method]
        if method == "parallel":
            args += ["--jobs", "2"]
        assert main(args) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 11
        phi = {}
        for line in lines:
            u, v, k = map(int, line.split())
            phi[(u, v)] = k
        assert phi[(0, 10)] == 2
        assert phi[(0, 1)] == 5
        err = capsys.readouterr().err
        assert "streaming CSR ingest" in err
        assert "kmax=5" in err

    @needs_numpy
    def test_pooled_parallel_matches_flat(self, graph_file, tmp_path):
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", "parallel", "--jobs", "2",
        ]) == 0
        reference = tmp_path / "flat.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(reference),
            "--method", "flat",
        ]) == 0
        assert out.read_text() == reference.read_text()

    @needs_numpy
    @pytest.mark.parametrize("transport", ["loopback", "tcp"])
    def test_dist_method_matches_flat(self, graph_file, tmp_path, transport):
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", "dist", "--ranks", "2", "--transport", transport,
        ]) == 0
        reference = tmp_path / "flat.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(reference),
            "--method", "flat",
        ]) == 0
        assert out.read_text() == reference.read_text()

    def test_jobs_rejected_without_parallel(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "flat", "--jobs", "2",
        ]) == 2
        assert "--jobs only applies" in capsys.readouterr().err

    def test_ranks_rejected_without_dist(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "parallel",
            "--ranks", "2",
        ]) == 2
        assert "--ranks only applies to --method dist" in (
            capsys.readouterr().err
        )

    def test_transport_rejected_without_dist(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "flat",
            "--transport", "tcp",
        ]) == 2
        assert "--transport only applies to --method dist" in (
            capsys.readouterr().err
        )

    def test_timeout_rejected_without_dist(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "flat",
            "--timeout", "30",
        ]) == 2
        assert "--timeout only applies to --method dist" in (
            capsys.readouterr().err
        )

    def test_on_failure_rejected_without_dist(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "parallel",
            "--on-failure", "retry",
        ]) == 2
        assert "--on-failure only applies to --method dist" in (
            capsys.readouterr().err
        )

    def test_unknown_on_failure_rejected(self, graph_file, capsys):
        with pytest.raises(SystemExit):  # argparse choices guard
            main([
                "decompose", str(graph_file), "--method", "dist",
                "--on-failure", "shrug",
            ])

    @needs_numpy
    def test_dist_survivability_flags_accepted(
        self, graph_file, tmp_path
    ):
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", "dist", "--ranks", "2",
            "--timeout", "60", "--on-failure", "retry",
        ]) == 0
        reference = tmp_path / "flat.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(reference),
            "--method", "flat",
        ]) == 0
        assert out.read_text() == reference.read_text()

    @needs_numpy
    @pytest.mark.parametrize("method", ["flat", "parallel", "dist"])
    @pytest.mark.parametrize("storage", ["ram", "mmap"])
    def test_index_storage_matches_flat(
        self, graph_file, tmp_path, monkeypatch, method, storage
    ):
        # the builder picks the route by size: a 1-byte cutoff spills
        # even this index to disk; dist always streams it there
        import repro.triangles.index_builder as ib

        reference = tmp_path / "flat.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(reference),
            "--method", "flat",
        ]) == 0
        if storage == "mmap":
            monkeypatch.setattr(ib, "_AUTO_MMAP_INDEX_BYTES", 1)
        out = tmp_path / "phi.txt"
        metrics = tmp_path / "metrics.json"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", method, "--metrics", str(metrics),
        ]) == 0
        assert out.read_text() == reference.read_text()
        route = json.loads(metrics.read_text())["info"]["index_storage"]
        assert route == {"": "mmap" if method == "dist" else storage}

    def test_index_storage_rejected_off_csr_methods(self, graph_file, capsys):
        # the route is the builder's choice alone: no method takes the
        # flag
        for method in METHODS:
            with pytest.raises(SystemExit) as exc:
                main([
                    "decompose", str(graph_file), "--method", method,
                    "--index-storage", "mmap",
                ])
            assert exc.value.code == 2
            assert "unrecognized arguments: --index-storage" in (
                capsys.readouterr().err
            )

    def test_external_flags_rejected_on_fastpath(self, graph_file, capsys):
        assert main([
            "decompose", str(graph_file), "--method", "flat", "--top", "3",
        ]) == 2
        assert "--top/--memory-fraction" in capsys.readouterr().err
        assert main([
            "decompose", str(graph_file), "--method", "parallel",
            "--memory-fraction", "4",
        ]) == 2
        assert "--top/--memory-fraction" in capsys.readouterr().err

    def test_top_t(self, graph_file, tmp_path):
        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", "topdown", "--top", "1",
        ]) == 0
        lines = out.read_text().strip().splitlines()
        assert len(lines) == 10  # only the 5-class
        assert all(line.endswith(" 5") for line in lines)


class TestErrors:
    """Library errors surface as one ``error:`` line and exit status 2."""

    @pytest.fixture
    def malformed_file(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("0 1\nx 2\n")
        return path

    @staticmethod
    def _fails_cleanly(capsys, argv):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        lines = [line for line in err.splitlines() if line.startswith("error:")]
        assert len(lines) == 1, err
        return lines[0]

    @pytest.mark.parametrize("method", [
        "improved",
        pytest.param("flat", marks=needs_numpy),
        pytest.param("dist", marks=needs_numpy),
    ])
    def test_malformed_line_keeps_file_and_line(
        self, malformed_file, capsys, method
    ):
        line = self._fails_cleanly(capsys, [
            "decompose", str(malformed_file), "--method", method,
        ])
        assert f"{malformed_file}:2: non-integer vertex id" in line

    @pytest.mark.parametrize("method", [
        "improved", pytest.param("flat", marks=needs_numpy),
    ])
    def test_missing_input_file(self, tmp_path, capsys, method):
        missing = tmp_path / "absent.txt"
        line = self._fails_cleanly(capsys, [
            "decompose", str(missing), "--method", method,
        ])
        assert str(missing) in line

    @pytest.mark.parametrize("flags, message", [
        (["--method", "dist", "--ranks", "0"], "at least 1 rank"),
        (["--method", "dist", "--timeout", "0"], "timeout must be positive"),
        (["--method", "parallel", "--jobs", "0"], "at least 1 job"),
        (["--method", "parallel", "--jobs", "-3"], "at least 1 job"),
    ])
    @needs_numpy
    def test_bad_engine_option(self, graph_file, capsys, flags, message):
        line = self._fails_cleanly(
            capsys, ["decompose", str(graph_file), *flags]
        )
        assert message in line

    @pytest.mark.parametrize("flags, message", [
        (["--method", "dist", "--ranks", "0"], "need at least 1 rank, got 0"),
        (["--method", "parallel", "--jobs", "0"],
         "need at least 1 job, got 0"),
        (["--method", "dist", "--timeout", "0"],
         "timeout must be positive, got 0.0"),
    ], ids=["ranks", "jobs", "timeout"])
    def test_bad_engine_option_fails_before_reading_input(
        self, tmp_path, capsys, flags, message
    ):
        # the flag is checked before the input is opened, so a missing
        # file is never reached and no 'loaded' line is printed
        missing = tmp_path / "absent.txt"
        assert main(["decompose", str(missing), *flags]) == 2
        assert capsys.readouterr().err.splitlines() == [f"error: {message}"]

    @needs_numpy
    def test_update_malformed_graph(self, malformed_file, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 1 10\n")
        line = self._fails_cleanly(capsys, [
            "update", str(malformed_file), str(updates),
        ])
        assert f"{malformed_file}:2: non-integer vertex id" in line

    @needs_numpy
    @pytest.mark.parametrize("data", [
        b"+ 1 2\n+ \xff 3\n",
        "+ 1 2\n+ \u0661 3\n".encode(),  # int() of the str reads 1
    ], ids=["byte-ff", "arabic-indic-one"])
    def test_update_non_ascii_id_names_file_and_line(
        self, graph_file, tmp_path, capsys, data
    ):
        updates = tmp_path / "updates.txt"
        updates.write_bytes(data)
        line = self._fails_cleanly(capsys, [
            "update", str(graph_file), str(updates),
        ])
        assert line.startswith(f"error: {updates}:2: non-integer vertex id")

    @needs_int64
    @pytest.mark.parametrize("command", ["decompose", "update"])
    def test_vertex_id_outside_int64(self, tmp_path, capsys, command):
        graph = tmp_path / "big.txt"
        graph.write_text(f"1 2\n2 3\n1 3\n{1 << 63} 1\n")
        argv = [command, str(graph)]
        if command == "update":
            updates = tmp_path / "updates.txt"
            updates.write_text("+ 1 10\n")
            argv.append(str(updates))
        else:
            argv += ["--method", "flat"]
        line = self._fails_cleanly(capsys, argv)
        assert f"{graph}:4: vertex id outside the signed 64-bit range" in line

    @pytest.mark.parametrize("method", ["bottomup", "topdown"])
    def test_external_method_rejects_id_outside_int64(
        self, tmp_path, capsys, method
    ):
        # their on-disk records are int64: one error line, no traceback
        graph = tmp_path / "big.txt"
        graph.write_text(f"1 2\n2 3\n1 3\n{1 << 63} 1\n")
        line = self._fails_cleanly(capsys, [
            "decompose", str(graph), "--method", method,
        ])
        assert f"vertex id {1 << 63} is outside the signed 64-bit" in line

    @needs_numpy
    def test_update_missing_graph(self, tmp_path, capsys):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 1 10\n")
        missing = tmp_path / "absent.txt"
        line = self._fails_cleanly(capsys, [
            "update", str(missing), str(updates),
        ])
        assert str(missing) in line

    @needs_numpy
    @pytest.mark.parametrize("command", ["decompose", "update"])
    def test_unwritable_output(self, graph_file, tmp_path, capsys, command):
        argv = [command, str(graph_file)]
        if command == "update":
            updates = tmp_path / "updates.txt"
            updates.write_text("+ 1 10\n")
            argv.append(str(updates))
        else:
            argv += ["--method", "flat"]
        target = tmp_path / "missing" / "out.txt"
        line = self._fails_cleanly(capsys, [*argv, "-o", str(target)])
        assert str(target) in line

    @needs_numpy
    @pytest.mark.parametrize("command, suffix", [
        ("decompose", "json"), ("update", "prom"),
    ])
    def test_unwritable_metrics(
        self, graph_file, tmp_path, capsys, command, suffix
    ):
        # the metrics file is written after the whole run: a bad path
        # there must still end in one error line, not a traceback
        argv = [command, str(graph_file)]
        if command == "update":
            updates = tmp_path / "updates.txt"
            updates.write_text("+ 1 10\n")
            argv.append(str(updates))
        else:
            argv += ["--method", "flat"]
        target = tmp_path / "missing" / f"m.{suffix}"
        line = self._fails_cleanly(capsys, [
            *argv, "--metrics", str(target), "-o", str(tmp_path / "out.txt"),
        ])
        assert str(target) in line


def _numpy_blocked_env(root: Path) -> dict:
    """The environment of a fresh interpreter whose first
    ``PYTHONPATH`` entry is a ``numpy.py`` that raises ``ImportError``."""
    blocker = root / "blocker"
    blocker.mkdir()
    (blocker / "numpy.py").write_text('raise ImportError("numpy blocked")\n')
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(blocker), str(src_root), env.get("PYTHONPATH", "")]
    ).rstrip(os.pathsep)
    return env


class TestWithoutNumpy:
    """Without numpy the CSR methods and ``update`` stop at once.

    Runs the CLI in a fresh interpreter with numpy blocked: one
    ``error:`` line that names numpy and the stdlib method, exit
    status 2, before any input file is read.
    """

    @pytest.fixture(scope="class")
    def run(self, tmp_path_factory):
        root = tmp_path_factory.mktemp("numpy_free")
        env = _numpy_blocked_env(root)

        def run(*args):
            proc = subprocess.run(
                [sys.executable, "-m", "repro", *args],
                capture_output=True, text=True, env=env, timeout=120,
                cwd=root,
            )
            return proc.returncode, proc.stderr.splitlines()

        return run

    def _assert_one_numpy_error(self, rc, lines):
        assert rc == 2, lines
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: "), lines
        assert "numpy" in lines[0] and "--method improved" in lines[0]

    @pytest.mark.parametrize("method", ["flat", "parallel", "dist"])
    def test_csr_method_is_one_error_line(self, run, graph_file, method):
        self._assert_one_numpy_error(
            *run("decompose", str(graph_file), "--method", method)
        )

    def test_update_is_one_error_line(self, run, graph_file, tmp_path):
        updates = tmp_path / "updates.txt"
        updates.write_text("+ 1 10\n")
        self._assert_one_numpy_error(
            *run("update", str(graph_file), str(updates))
        )

    @pytest.mark.parametrize("argv", [
        ("decompose", "MISSING.txt", "--method", "flat"),
        ("update", "MISSING.txt", "U.txt"),
    ], ids=["decompose", "update"])
    def test_fails_before_reading_input(self, run, argv):
        rc, lines = run(*argv)
        self._assert_one_numpy_error(rc, lines)
        assert "MISSING" not in lines[0]


def test_serve_without_numpy_is_one_error_line(graph_file, tmp_path):
    """Serve keeps its generations and views in int64 arrays: without
    numpy it refuses to start, before it touches the data directory."""
    data = tmp_path / "data"
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "serve", str(graph_file),
         "--data", str(data)],
        capture_output=True, text=True, env=_numpy_blocked_env(tmp_path),
        timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    lines = proc.stderr.splitlines()
    assert len(lines) == 1, proc.stderr
    assert lines[0].startswith("error: ") and "numpy" in lines[0]
    assert not data.exists()


def test_serve_has_no_fsync_opt_out(graph_file, tmp_path, capsys):
    """Every acked write is fsynced: no flag turns the WAL's off."""
    argv = ["serve", str(graph_file), "--data", str(tmp_path), "--no-fsync"]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    assert "unrecognized arguments: --no-fsync" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["decompose", "update", "serve"])
def test_no_command_has_a_kernel_flag(graph_file, tmp_path, capsys,
                                      command):
    """The process picks the wave-step backend: no flag does."""
    argv = {
        "decompose": ["decompose", str(graph_file)],
        "update": ["update", str(graph_file), "-"],
        "serve": ["serve", str(graph_file), "--data", str(tmp_path)],
    }[command]
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args([*argv, "--kernel", "numpy"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --kernel" in capsys.readouterr().err


class TestOtherCommands:
    def test_ktruss(self, graph_file, tmp_path, capsys):
        out = tmp_path / "t4.txt"
        assert main(["ktruss", str(graph_file), "4", str(out)]) == 0
        t = read_edge_list(out)
        assert t.num_edges == 10

    def test_stats(self, graph_file, capsys):
        assert main(["stats", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert "kmax (truss)    5" in out
        assert "edges           11" in out

    def test_hierarchy(self, graph_file, capsys):
        assert main(["hierarchy", str(graph_file)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0].split() == ["k", "|V|", "|E|", "comps", "density", "CC"]
        assert len(out.strip().splitlines()) == 5  # header + k=2..5

    def test_generate_roundtrip(self, tmp_path, capsys):
        out = tmp_path / "p2p.txt"
        assert main(["generate", "p2p", str(out), "--scale", "0.02"]) == 0
        g = read_edge_list(out)
        assert g.num_edges > 0

    def test_unknown_dataset_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["generate", "nope", str(tmp_path / "x.txt")])

    def test_missing_command_rejected(self):
        with pytest.raises(SystemExit):
            main([])
