"""The benchmark's tracer wraps library names by attribute; check they all exist."""

import importlib.util
from pathlib import Path

import dismantle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def test_benchmark_wrappers_all_register(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    tracer = worker.Tracer()
    worker.install_wrappers(tracer, dismantle)
    assert len(tracer._patches) == 18
