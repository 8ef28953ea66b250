"""The benchmark's tracer wraps library names by attribute; check they all exist."""

import importlib.util
from pathlib import Path

import pytest

import dismantle

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


@pytest.fixture
def worker(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spec = importlib.util.spec_from_file_location("perfbench_worker", PERFBENCH / "worker.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_benchmark_wrappers_all_register(worker):
    tracer = worker.Tracer()
    worker.install_wrappers(tracer, dismantle)
    assert len(tracer._patches) == 18


def test_generators_build_through_the_traced_graph_name(worker):
    # The tracer replaces ``generators.Graph``; a generator that builds its
    # graph another way would lose the ``graph.construct`` spans.
    tracer = worker.Tracer()
    worker.install_wrappers(tracer, dismantle)
    with tracer.recording(0):
        dismantle.generators.gnp(200, 2.0, 1)
        dismantle.generators.random_regular(200, 3, 1)
    spans = tracer.spans
    roots = [i for i, span in enumerate(spans) if span["parent"] is None]
    assert [spans[i]["name"] for i in roots] == ["generators.gnp", "generators.random_regular"]
    for i in roots:
        assert [span["name"] for span in spans if span["parent"] == i] == ["graph.construct"]
