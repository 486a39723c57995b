"""The process's wave-step backend: its choice, gating and degradation.

No option picks a backend: :func:`repro.kernels.get_kernel` takes
numba's when its module imports and numpy's otherwise, once per
process.  Tests that compare backends pin the choice with
``helpers.pinned_kernel``.
"""

import inspect
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import repro
import repro.kernels as kernels
from repro.core import truss_decomposition
from repro.errors import DecompositionError
from repro.graph import complete_graph
from repro.kernels import NUMPY_REQUIRED, get_kernel

from helpers import BACKENDS, needs_numpy


class TestRegistry:
    @needs_numpy
    def test_numpy_backend_available_with_numpy(self):
        assert BACKENDS["numpy"]().name == "numpy"
        # numba's backend extends numpy's, so this holds either way
        assert isinstance(get_kernel(), BACKENDS["numpy"])

    @needs_numpy
    def test_auto_prefers_most_compiled_available(self, monkeypatch):
        monkeypatch.setattr(kernels, "_KERNEL", None)  # choose afresh
        expect = "numba" if "numba" in BACKENDS else "numpy"
        assert get_kernel().name == expect

    @needs_numpy
    def test_instances_are_cached_per_process(self):
        assert get_kernel() is get_kernel()

    def test_registry_vocabulary(self):
        """No registry is left: the contract, the missing-numpy error
        and the one chooser, which takes no name."""
        assert sorted(kernels.__all__) == [
            "NUMPY_REQUIRED", "PeelKernel", "get_kernel",
        ]
        for gone in ("KERNELS", "available_kernels", "kernel_available",
                     "resolve_kernel"):
            assert not hasattr(kernels, gone), gone
        assert not inspect.signature(get_kernel).parameters

    def test_without_numpy_every_name_is_one_error(self, monkeypatch):
        """Without numpy, whatever backend the process holds (none yet,
        or any importable one), get_kernel raises the one error."""
        monkeypatch.setattr(kernels, "_np", None)
        for held in [None, *(cls() for cls in BACKENDS.values())]:
            monkeypatch.setattr(kernels, "_KERNEL", held)
            with pytest.raises(DecompositionError) as info:
                get_kernel()
            assert str(info.value) == NUMPY_REQUIRED
        assert "numpy" in NUMPY_REQUIRED
        assert "--method improved" in NUMPY_REQUIRED

    @needs_numpy
    def test_failed_factory_is_tried_once(self, monkeypatch):
        """A numba backend that fails to import is never tried again."""
        calls = []

        class _BrokenNumba:
            def find_spec(self, name, path=None, target=None):
                if name == "repro.kernels.numba_backend":
                    calls.append(name)
                    raise ImportError("numba is broken here")
                return None

        monkeypatch.setattr(kernels, "_KERNEL", None)
        monkeypatch.delitem(
            sys.modules, "repro.kernels.numba_backend", raising=False
        )
        monkeypatch.setattr(
            sys, "meta_path", [_BrokenNumba(), *sys.meta_path]
        )
        for _ in range(5):
            assert get_kernel().name == "numpy"
        assert len(calls) == 1


class TestApiGating:
    """No method takes a ``kernel``: the process picks the backend."""

    @pytest.mark.parametrize(
        "method", ["improved", "baseline", "bottomup", "topdown",
                    "mapreduce"]
    )
    def test_kernel_rejected_off_csr_methods(self, method):
        with pytest.raises(TypeError, match="kernel"):
            truss_decomposition(
                complete_graph(4), method=method, kernel="numpy"
            )

    @pytest.mark.parametrize("method", ["flat", "parallel", "dist"])
    def test_unknown_kernel_rejected_eagerly(self, method):
        with pytest.raises(TypeError, match="kernel"):
            truss_decomposition(
                complete_graph(4), method=method, kernel="bogus"
            )

    def test_no_entry_point_takes_a_kernel(self):
        from repro.core import apply_updates, decompose_file
        from repro.core.dist import truss_decomposition_dist
        from repro.core.flat import (
            peel_flat_arrays,
            truss_decomposition_flat,
        )
        from repro.core.parallel import truss_decomposition_parallel
        from repro.serve.chaos import ServerProcess
        from repro.serve.server import ServeConfig
        from repro.serve.service import TrussService
        from repro.stream import TrussMaintainer

        for entry in (
            truss_decomposition, decompose_file, apply_updates,
            truss_decomposition_flat, truss_decomposition_parallel,
            truss_decomposition_dist, peel_flat_arrays, TrussMaintainer,
            TrussMaintainer.from_graph, TrussMaintainer.from_state,
            TrussService, ServeConfig, ServerProcess,
        ):
            assert "kernel" not in inspect.signature(entry).parameters, (
                entry
            )

    @needs_numpy
    def test_decompose_file_threads_kernel(self, tmp_path):
        from repro.core import decompose_file
        from repro.graph import write_edge_list

        path = tmp_path / "g.txt"
        write_edge_list(complete_graph(5), path)
        td = decompose_file(path, method="flat")
        assert td.stats.extra["kernel"] == get_kernel().name
        assert td.kmax == 5

    @needs_numpy
    def test_missing_numba_degrades_not_crashes(self):
        """The choice never fails with numpy, with or without numba."""
        td = truss_decomposition(complete_graph(4), method="flat")
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

        with pytest.raises(SystemExit) as exc:
            main([
                "decompose", str(graph_file), "--method", "improved",
                "--kernel", "numpy",
            ])
        assert exc.value.code == 2
        assert "unrecognized arguments: --kernel" in capsys.readouterr().err

    @needs_numpy
    @pytest.mark.parametrize("method", ["flat", "parallel", "dist"])
    def test_metrics_name_the_backend(self, graph_file, tmp_path, method):
        import json

        from repro.cli import main

        metrics = tmp_path / "m.json"
        assert main([
            "decompose", str(graph_file), "--method", method,
            "--metrics", str(metrics), "-o", str(tmp_path / "phi.txt"),
        ]) == 0
        info = json.loads(metrics.read_text())["info"]
        assert info["kernel"][""] == get_kernel().name


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
            from repro.kernels import get_kernel

            assert get_kernel().name == "numpy", get_kernel().name
            td = truss_decomposition(complete_graph(5), method="flat")
            assert td.kmax == 5, td.kmax
            assert td.stats.extra["kernel"] == "numpy", td.stats.extra
            print("guard-ok")
            """
        )
        assert "guard-ok" in out


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
