"""Record the golden output digests, or scan seeds for the dataset pool.

    python3 perfbench/record.py            # re-record golden.json for its pool
    python3 perfbench/record.py --scan 2 200

Benchmark seeds map onto a pool of dataset seeds (bench.dataset_seed). The
pool is seed 1, the README's frozen set, followed by the smallest seeds
whose loocv-solver run takes a total number of solver passes within
POOL_TOLERANCE of seed 1's. Solver work varies about tenfold between
arbitrary seeds, so without this rule the run-to-run spread of loocv-solver
would measure the inputs rather than the program. ``--scan`` prints each
seed's pass total and marks the ones that qualify.

Recording stores the SHA-256 of every workload output for every pool seed.
Only a change that alters outputs on purpose re-records, as a change of its
own.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys
import tempfile
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
for _name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_name] = "1"

import bench  # noqa: E402
from tracing import Tracer, summarize  # noqa: E402

POOL_TOLERANCE = 0.05


def run_once(workload: str, seed: int, traced: bool = False):
    """Set up and run a workload once; return its output digests and trace summary."""
    (bench.ROOT / ".perfbench_work").mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="record-", dir=bench.ROOT / ".perfbench_work"))
    try:
        w = bench.WORKLOADS[workload](seed, workdir)
        w.setup()
        w.reset()
        tracer = Tracer() if traced else None
        with tracer or nullcontext():
            result = w.run()
        outputs = w.outputs(result)
        summary = summarize([tracer]) if tracer else None
        return bench.digests(outputs), outputs, summary
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def passes(seed: int) -> int:
    return run_once("loocv-solver", seed, traced=True)[2]["classifier.solve_dual.passes"]


def scan(first: int, last: int) -> None:
    reference = passes(1)
    print(f"seed 1: {reference} passes")
    for seed in range(first, last + 1):
        total = passes(seed)
        mark = " pool" if abs(total - reference) <= POOL_TOLERANCE * reference else ""
        print(f"seed {seed}: {total} passes{mark}", flush=True)


def record() -> None:
    golden = json.loads(bench.GOLDEN.read_text(encoding="utf-8"))
    pool = golden["pool"]
    digests = {}
    for workload in bench.WORKLOADS:
        digests[workload] = {}
        for seed in pool:
            got, outputs, _ = run_once(workload, seed)
            if workload == "ingest-ref" and outputs["extract.txt"] != outputs["extract-p6.txt"]:
                raise SystemExit(f"seed {seed}: P5 and P6 extract outputs differ")
            digests[workload][str(seed)] = got
            print(f"{workload} seed {seed}: recorded", flush=True)
    golden["digests"] = digests
    bench.GOLDEN.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--scan", nargs=2, type=int, metavar=("FIRST", "LAST"))
    args = p.parse_args()
    if args.scan:
        scan(*args.scan)
    else:
        record()


if __name__ == "__main__":
    main()
