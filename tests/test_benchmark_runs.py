"""The benchmark's workloads still produce the bytes it checks them against.

`perfbench/bench.py` drives the package through its public API and
`perfbench/tracing.py` wraps package functions by name and reads attributes
of their arguments. Each workload runs here in-process at benchmark seed 1,
once untraced and once under the tracer, and its output digests must equal
those `perfbench/golden.json` records, so a package change that breaks how
the benchmark uses it fails here rather than in a benchmark run. Work files
go under the test's own temporary directory.
"""

import importlib
import json
import sys
from contextlib import nullcontext
from pathlib import Path

import pytest

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
GOLDEN = json.loads((PERFBENCH / "golden.json").read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def bench():
    """perfbench/bench.py, which imports its sibling modules by bare name."""
    sys.path.insert(0, str(PERFBENCH))
    try:
        yield importlib.import_module("bench")
    finally:
        sys.path.remove(str(PERFBENCH))


def test_golden_digests_cover_every_workload(bench):
    assert set(GOLDEN["digests"]) == set(bench.WORKLOADS)


@pytest.mark.kernel_independent
@pytest.mark.parametrize("traced", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(GOLDEN["digests"]))
def test_workload_matches_golden_digests(bench, name, traced, tmp_path):
    seed = bench.dataset_seed(1, GOLDEN["pool"])
    workload = bench.WORKLOADS[name](seed, tmp_path)
    with bench.Tracer() if traced else nullcontext():
        workload.setup()
        workload.reset()
        result = workload.run()
    assert bench.digests(workload.outputs(result)) == GOLDEN["digests"][name][str(seed)]
