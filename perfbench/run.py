"""texscreen benchmark: one run of one workload.

    python3 perfbench/run.py --workload sweep-frozen --seed 1 --seconds 30 --trace 0

Each run starts fresh single-threaded Python processes, one after another,
from the repository's own ``src``: with ``--trace 0`` first a few that only
set up (to take the median set-up time), then the one that runs the
workload's timed region for ``--seconds`` (bench.py). ``--trace 1`` runs
only the latter, with tracing. Untraced times are corrected for the shared
host's speed (segments.py). Every metric is printed by name with its unit,
after the spread of the per-iteration wall times and the uncorrected
figures; the last line is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. Metric names and units come from
BENCHMARK.json: end-to-end metrics untraced, per-layer metrics traced.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from segments import PIECES_PER_ITERATION, REFERENCE_BURST_PIECE_S, host_factor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 7  # set-up is timed in this many processes per run
RUN_LIMIT_S = 170.0  # a run must end within 180 s

THREAD_VARIABLES = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({name: "1" for name in THREAD_VARIABLES})
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def run_child(args: argparse.Namespace, setup_only: bool, timeout: float) -> tuple[float, dict]:
    """Run bench.py once; return its set-up time and its result (empty if set-up only).

    Set-up runs from starting the child until it is ready, and is corrected
    by the calibration the child takes right after.
    """
    cmd = [
        sys.executable,
        str(HERE / "bench.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    if setup_only:
        cmd.append("--setup-only")
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, env=child_env(), cwd=ROOT, text=True) as child:
        try:
            out, _ = child.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            child.kill()
            child.wait()
            raise RuntimeError(f"bench.py did not finish within {timeout:.0f} s") from None
        except BaseException:  # interrupted or terminated: stop the child first
            child.terminate()
            child.wait()
            raise
    if child.returncode != 0:
        raise RuntimeError(f"bench.py exited with code {child.returncode}")
    lines = out.splitlines()
    ready = [ln for ln in lines if ln.startswith("ready ")]
    if not ready:
        raise RuntimeError("bench.py never finished set-up")
    setup = json.loads(ready[0].split(None, 1)[1])
    setup_s = setup["at"] - started
    if setup["calibration_s"] is not None:
        setup_s *= host_factor(
            setup["calibration_s"], PIECES_PER_ITERATION, REFERENCE_BURST_PIECE_S
        )
    return setup_s, ({} if setup_only else json.loads(lines[-1]))


def end_to_end(setup_samples: list[float], result: dict) -> dict[str, float]:
    # Times are sums of per-segment minima, converted to seconds of the
    # reference host by the calibration pieces timed between the segments
    # (segments.py). Uncorrected, the fastest whole iteration of a run moved
    # by a third and more between sets of runs half an hour apart.
    if result["segment_wall_s"] and result["calibration_s"]:
        wall = result["segment_wall_s"] * host_factor(
            result["calibration_s"], result["calibration_pieces"]
        )
    else:
        print("iterations cut different segments: taking the fastest whole iteration",
              file=sys.stderr)
        wall = min(result["wall_s"])
    busy = sum(result["cpu_s"]) / sum(result["wall_s"])
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": wall,
        "cpu_s": wall * busy,
        "work_per_s": result["units"] / wall,
        "peak_rss_mb": result["peak_rss_kb"] / 1024.0,
    }


def per_layer(result: dict) -> dict[str, float]:
    metrics = dict(result["layers"])
    metrics["trace.overhead_s"] = statistics.median(result["traced_wall_s"]) - statistics.median(
        result["wall_s"]
    )
    metrics["error_rate"] = result["failed"] / result["attempted"]
    return metrics


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (ROOT / "src" / "texscreen" / "__init__.py").is_file():
        print(f"texscreen sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        print(f"unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    deadline = time.monotonic() + RUN_LIMIT_S
    try:
        setup_samples = []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_samples.append(run_child(args, True, deadline - time.monotonic())[0])
        setup_s, result = run_child(args, False, deadline - time.monotonic())
        setup_samples.append(setup_s)
        values = per_layer(result) if args.trace else end_to_end(setup_samples, result)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    except (RuntimeError, KeyError, ValueError) as exc:
        print(f"benchmark run failed: {exc!r}", file=sys.stderr)
        return 1

    print(f"# workload {args.workload} seed {args.seed} dataset_seed {result['dataset_seed']}"
          f" trace {args.trace} iterations {result['attempted']}")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    walls = result["wall_s"]
    print(f"# wall_s per iteration: min {min(walls)!r} median {statistics.median(walls)!r}"
          f" max {max(walls)!r} over {len(walls)}")
    if not args.trace:
        print(f"# segments {result['segments']} sum of minima {result['segment_wall_s']!r} s"
              f" calibration {result['calibration_pieces']} pieces {result['calibration_s']!r} s")
    for name, m in metrics.items():
        print(f"{name} {m['value']!r} {m['unit']}")
    print(json.dumps({
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
