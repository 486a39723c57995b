"""The kernel registry's selection, gating and degradation contract."""

import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
from repro.core import truss_decomposition
from repro.errors import DecompositionError
from repro.graph import complete_graph
from repro.kernels import (
    KERNELS,
    NUMPY_REQUIRED,
    available_kernels,
    get_kernel,
    kernel_available,
    resolve_kernel,
)

from helpers import needs_numpy

try:
    import numpy as np
except ImportError:  # pragma: no cover
    np = None


class TestRegistry:
    @pytest.mark.skipif(np is None, reason="numpy not installed")
    def test_numpy_backend_available_with_numpy(self):
        assert kernel_available("numpy")
        assert get_kernel("numpy").name == "numpy"

    @needs_numpy
    def test_auto_prefers_most_compiled_available(self):
        order = ("numba", "numpy")
        expect = next(n for n in order if kernel_available(n))
        assert resolve_kernel(None) == expect
        assert resolve_kernel("auto") == expect
        assert get_kernel().name == expect

    @needs_numpy
    def test_instances_are_cached_per_process(self):
        assert get_kernel("numpy") is get_kernel("numpy")

    @needs_numpy
    def test_unknown_kernel_rejected(self):
        with pytest.raises(DecompositionError, match="unknown kernel"):
            resolve_kernel("cython")

    @needs_numpy
    def test_unavailable_named_backend_raises_specific_message(self):
        if kernel_available("numba"):
            pytest.skip("numba installed; unavailability not testable")
        with pytest.raises(DecompositionError, match="numba"):
            resolve_kernel("numba")

    def test_registry_vocabulary(self):
        assert KERNELS == ("numpy", "numba")
        assert set(available_kernels()) <= set(KERNELS)

    def test_without_numpy_every_name_is_one_error(self, monkeypatch):
        import repro.kernels as kernels

        monkeypatch.setattr(kernels, "_np", None)
        assert available_kernels() == ()
        for name in (None, "auto", "numpy", "numba", "cython"):
            with pytest.raises(DecompositionError) as info:
                resolve_kernel(name)
            assert str(info.value) == NUMPY_REQUIRED
        assert "numpy" in NUMPY_REQUIRED
        assert "--method improved" in NUMPY_REQUIRED

    @needs_numpy
    def test_failed_factory_is_tried_once(self, monkeypatch):
        import repro.kernels as kernels

        calls = []

        def broken():
            calls.append(1)
            raise DecompositionError("kernel 'numba' is broken here")

        monkeypatch.setitem(kernels._FACTORIES, "numba", broken)
        monkeypatch.delitem(kernels._INSTANCES, "numba", raising=False)
        monkeypatch.setattr(kernels, "_FAILED", {})
        for _ in range(5):
            assert resolve_kernel("auto") != "numba"
        assert len(calls) == 1
        # a named request still reports the factory's own message
        with pytest.raises(DecompositionError, match="broken here"):
            resolve_kernel("numba")
        assert len(calls) == 1


class TestApiGating:
    """The ``kernel`` knob is accepted by the CSR methods only."""

    @pytest.mark.parametrize(
        "method", ["improved", "baseline", "bottomup", "topdown",
                    "mapreduce"]
    )
    def test_kernel_rejected_off_csr_methods(self, method):
        with pytest.raises(DecompositionError, match="kernel"):
            truss_decomposition(
                complete_graph(4), method=method, kernel="numpy"
            )

    @pytest.mark.skipif(np is None, reason="numpy not installed")
    @pytest.mark.parametrize("method", ["flat", "parallel", "dist"])
    def test_unknown_kernel_rejected_eagerly(self, method):
        with pytest.raises(DecompositionError, match="unknown kernel"):
            truss_decomposition(
                complete_graph(4), method=method, kernel="bogus"
            )

    @pytest.mark.skipif(np is None, reason="numpy not installed")
    def test_decompose_file_threads_kernel(self, tmp_path):
        from repro.core import decompose_file
        from repro.graph import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(complete_graph(5), path)
        td = decompose_file(path, method="flat", kernel="numpy")
        assert td.stats.extra["kernel"] == "numpy"
        assert td.kmax == 5

    @needs_numpy
    def test_missing_numba_degrades_not_crashes(self):
        """``kernel="auto"`` never fails, with or without numba."""
        td = truss_decomposition(
            complete_graph(4), method="flat", kernel="auto"
        )
        assert td.kmax == 4


class TestCliGating:
    @pytest.fixture
    def graph_file(self, tmp_path):
        from repro.graph import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(complete_graph(5), path)
        return path

    def test_kernel_rejected_off_csr_methods(self, graph_file, capsys):
        from repro.cli import main

        assert main([
            "decompose", str(graph_file), "--method", "improved",
            "--kernel", "numpy",
        ]) == 2
        assert "--kernel only applies" in capsys.readouterr().err

    @pytest.mark.skipif(np is None, reason="numpy not installed")
    @pytest.mark.parametrize("kernel", ["auto", "numpy"])
    def test_kernel_flag_matches_flat_default(
        self, graph_file, tmp_path, kernel
    ):
        from repro.cli import main

        out = tmp_path / "phi.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(out),
            "--method", "flat", "--kernel", kernel,
        ]) == 0
        reference = tmp_path / "ref.txt"
        assert main([
            "decompose", str(graph_file), "-o", str(reference),
            "--method", "flat",
        ]) == 0
        assert out.read_text() == reference.read_text()


#: prelude of the subprocess tests: a meta-path finder that blocks
#: ``numba`` and counts lookups of the numba backend module
_BLOCK_NUMBA = """
import sys

class _BlockNumba:
    backend_lookups = 0

    def find_spec(self, name, path=None, target=None):
        if name == "numba" or name.startswith("numba."):
            raise ImportError("numba blocked for this test")
        if name == "repro.kernels.numba_backend":
            _BlockNumba.backend_lookups += 1
        return None

sys.meta_path.insert(0, _BlockNumba())
"""


def _run_without_numba(body: str) -> str:
    """Run ``body`` in a fresh interpreter with numba blocked; stdout."""
    src_root = Path(repro.__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = str(src_root) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    proc = subprocess.run(
        [sys.executable, "-c", _BLOCK_NUMBA + textwrap.dedent(body)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@needs_numpy
class TestNumbaAbsentImportGuard:
    """The package must import and decompose with numba truly absent.

    Run in a subprocess whose meta path blocks ``numba`` imports, so
    the guard holds even on environments (the tier-2 CI leg) where
    numba *is* installed.
    """

    def test_import_and_decompose_without_numba(self):
        out = _run_without_numba(
            """
            from repro.core import truss_decomposition
            from repro.graph import complete_graph
            from repro.kernels import available_kernels, resolve_kernel

            kernels = available_kernels()
            assert "numba" not in kernels, kernels
            assert "numpy" in kernels, kernels
            assert resolve_kernel("auto") != "numba"
            td = truss_decomposition(
                complete_graph(5), method="flat", kernel="auto"
            )
            assert td.kmax == 5, td.kmax
            print("guard-ok")
            """
        )
        assert "guard-ok" in out

    def test_named_numba_fails_before_reading_input(self, tmp_path):
        """``--kernel numba`` without numba names numba, not the
        missing input: the kernel is resolved before any file is read."""
        missing = tmp_path / "MISSING.txt"
        out = _run_without_numba(
            f"""
            import contextlib, io
            from repro.cli import main

            for argv in (
                ["decompose", {str(missing)!r}, "--method", "flat",
                 "--kernel", "numba"],
                ["update", {str(missing)!r}, {str(tmp_path / "U.txt")!r},
                 "--kernel", "numba"],
            ):
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    rc = main(argv)
                print(rc, err.getvalue().strip())
            """
        )
        lines = out.splitlines()
        assert len(lines) == 2, out
        for line in lines:
            assert line.startswith("2 error: ") and "numba" in line, line
            assert "MISSING" not in line, line


@needs_numpy
class TestRepairHotPath:
    """A repair looks no kernel backend up.

    A local repair re-peels in plain Python, and a failed numba import
    is remembered for the full re-peel: the repairs after seeding never
    look the backend module up again (each retry would re-run, and
    without ``.pyc`` files recompile, the module).
    """

    def test_repairs_do_not_retry_the_numba_import(self):
        out = _run_without_numba(
            """
            from repro.graph import complete_graph
            from repro.stream import TrussMaintainer

            tm = TrussMaintainer.from_graph(complete_graph(6))
            seeded = _BlockNumba.backend_lookups
            for i in range(25):
                # the second insert closes a triangle with edge (0, 1)
                assert tm.apply_batch([("insert", 0, 100 + i)]) == 1
                assert tm.apply_batch([("insert", 1, 100 + i)]) == 1
            assert tm.trussness[(0, 100)] == 3, tm.trussness[(0, 100)]
            print("lookups", _BlockNumba.backend_lookups - seeded)
            """
        )
        assert "lookups 0" in out, out
