"""The benchmark's contract with the library.

bench/ builds its workloads from prymlab's public API and wraps named entry
points in spans.  These tests import bench/ as it stands and run a small
part of it, so a change to a name, a signature or an output that the
benchmark relies on fails here rather than in a benchmark run.
"""

import importlib
from pathlib import Path

import pytest

from prymlab import verify

BENCH = Path(__file__).resolve().parents[1] / "bench"
SEED = 0


@pytest.fixture
def bench(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    return importlib.import_module("workloads"), importlib.import_module("spans")


def test_every_workload_builds_and_verify_runs_every_suite(bench):
    workloads, _ = bench
    jobs = {name: workloads.setup(name, SEED) for name in workloads.WORKLOADS}
    assert list(jobs) == ["verify", "exact-scale", "float-flows"]
    assert all(jobs.values())
    assert [job.name for job in jobs["verify"]] == list(verify.SUITES)


@pytest.mark.parametrize("name", ["exact-scale", "float-flows"])
def test_one_pass_has_every_verdict_true(bench, name):
    workloads, _ = bench
    verdicts = workloads.run_pass(workloads.setup(name, SEED)).verdicts
    assert verdicts
    assert [job for job, ok in verdicts if not ok] == []


def test_every_span_target_is_wrapped(bench):
    _, spans = bench
    modules = {module for module, _ in spans.TARGETS.values()}
    for module in modules:
        importlib.import_module(f"prymlab.{module}")
    with spans.instrument(spans.Tracer()):
        for module, path in spans.TARGETS.values():
            target = importlib.import_module(f"prymlab.{module}")
            for part in path.split("."):
                target = getattr(target, part)
            assert callable(getattr(target, "__wrapped__", None)), (module, path)
