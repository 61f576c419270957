"""The benchmark tracer in ``perfbench/`` wraps library functions by name;
every name it wraps must still exist in the package."""

import importlib
from pathlib import Path

from sphereacs import search


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # a deleted or renamed function that the tracer wraps fails here, in the
    # package's own suite, and not only in the benchmark's self-tests
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    tracer = importlib.import_module("tracing").Tracer()
    original = search.nelder_mead
    try:
        tracer.install()
        assert search.nelder_mead is not original
    finally:
        tracer.uninstall()
    assert search.nelder_mead is original
