"""The benchmark's own test.

    python3 perfbench/selfcheck.py

Runs the benchmark briefly and checks that
- every workload runs with error_rate 0, untraced and traced;
- the untraced run cuts every iteration into the same segments, so its
  times are sums of segment minima (segments.py);
- every exact counter repeats exactly between two traced runs of seed 1;
- on seed 1 and on seed 2 each workload keeps the character it was chosen
  for: loocv-solver converges on every fold and spends most in solve_dual,
  sweep-frozen is dominated by resize and LBP with the useful ratios 1/3
  and 1/2, ingest-ref is dominated by synthetic generation and does one
  solver pass per fold;
- in a directory holding only BENCHMARK.json and perfbench/, run.py exits
  non-zero without printing a result.
Exits 1 if any check fails.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SECONDS = "1"

EXACT = (
    "imagecore.resize.calls",
    "imagecore.resize.useful_ratio",
    "imagecore.decode.bytes_in",
    "features.lbp_transform.calls",
    "features.lbp_transform.useful_ratio",
    "features.format.bytes_out",
    "classifier.from_samples.calls",
    "classifier.solve_dual.passes",
    "classifier.solve_dual.unconverged",
    "evaluation.loocv.calls",
    "evaluation.folds",
    "dataset.rng_draws",
)
SEED_1_PASSES = 19343  # loocv-solver on the frozen set

failures: list[str] = []


def check(ok: bool, what: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {what}", flush=True)
    if not ok:
        failures.append(what)


def run(workload: str, seed: int, trace: int, cwd: Path = ROOT) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", SECONDS, "--trace", str(trace)],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc.returncode, proc.stdout


def result(workload: str, seed: int, trace: int) -> dict:
    code, out = run(workload, seed, trace)
    res = json.loads(out.splitlines()[-1]) if code == 0 else {}
    check(code == 0 and res.get("correct") is True and res["failed"] == 0,
          f"{workload} seed {seed} trace {trace}: runs, outputs match the golden digests")
    if code == 0 and not trace:
        cut = next(ln for ln in out.splitlines() if ln.startswith("# segments "))
        check(" None" not in cut and int(cut.split()[2]) > 1,
              f"{workload} seed {seed}: every iteration cuts the same segments ({cut.split()[2]})")
    return {k: v["value"] for k, v in res.get("metrics", {}).items()}


def largest_op(m: dict) -> str:
    ops = {k: v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 2}
    return max(ops, key=ops.get)


def character(workload: str, seed: int, m: dict) -> None:
    where = f"{workload} seed {seed}"
    check(m.get("error_rate") == 0, f"{where}: error_rate 0")
    if workload == "loocv-solver":
        check(m["classifier.solve_dual.unconverged"] == 0, f"{where}: every fold converges")
        check(largest_op(m) == "classifier.solve_dual.self_s", f"{where}: solve_dual largest self time")
    elif workload == "sweep-frozen":
        check(m["imagecore.resize.useful_ratio"] == 1 / 3, f"{where}: resize useful ratio 1/3")
        check(m["features.lbp_transform.useful_ratio"] == 1 / 2, f"{where}: LBP useful ratio 1/2")
        check(largest_op(m) == "imagecore.resize.self_s", f"{where}: resize largest self time")
        ops = sum(v for k, v in m.items() if k.endswith(".self_s") and k.count(".") == 2)
        share = (m["imagecore.resize.self_s"] + m["features.lbp_transform.self_s"]) / ops
        check(share > 0.5, f"{where}: resize and LBP take {share:.0%} of traced self time")
    else:
        check(largest_op(m) == "dataset.generate.self_s", f"{where}: generation largest self time")
        check(m["classifier.solve_dual.passes"] == m["evaluation.folds"],
              f"{where}: one solver pass per fold")


def bare_directory() -> None:
    bare = ROOT / ".perfbench_work" / f"bare-{os.getpid()}"
    try:
        shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy2(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        code, out = run("sweep-frozen", 1, 0, cwd=bare)
        printed = any(line.startswith("{") for line in out.splitlines())
        check(code != 0 and not printed, "without the program's sources: non-zero exit, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    workloads = [w["name"] for w in json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    for workload in workloads:
        result(workload, 1, 0)
        first = result(workload, 1, 1)
        second = result(workload, 1, 1)
        other = result(workload, 2, 1)
        if not (first and second and other):
            continue
        same = [k for k in EXACT if first[k] == second[k]]
        check(len(same) == len(EXACT), f"{workload}: {len(same)}/{len(EXACT)} exact counters repeat")
        character(workload, 1, first)
        character(workload, 2, other)
        if workload == "loocv-solver":
            check(first["classifier.solve_dual.passes"] == SEED_1_PASSES,
                  f"{workload} seed 1: {SEED_1_PASSES} solver passes")
    bare_directory()
    print(f"{len(failures)} failed" if failures else "all checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
