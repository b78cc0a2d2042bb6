"""One benchmark run of one workload, in its own process.

Started by run.py with the repository's ``src`` on PYTHONPATH and BLAS and
OpenMP pinned to one thread. It builds the workload's inputs (set-up),
prints ``ready`` with its CLOCK_MONOTONIC time and a calibration taken
right after (segments.py), then repeats the workload's timed region until
``--seconds`` have passed (and at least twice), checks every output against
the golden digests recorded from the program, and prints one JSON line of
raw samples, segment minima and calibration. ``--setup-only`` stops after
the calibration, so run.py can time set-up again.

With ``--trace 1`` the iterations alternate untraced and traced (see
tracing.py); set-up is traced once and each traced iteration is summarized
together with it, so a per-layer figure describes set-up plus one command.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import traceback
from contextlib import nullcontext
from pathlib import Path

import numpy as np

import texscreen
from texscreen import cli, dataset, evaluation

from segments import PIECES_PER_ITERATION, Marks, SegmentMinima, calibrate, clock
from tracing import Tracer, summarize, write_spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
GOLDEN = HERE / "golden.json"

FROZEN = dict(per_class=20, width=64, height=48)  # the README's frozen set
INGEST = dict(per_class=4, width=300, height=225)  # the reference resolution
SOLVER = dict(c=10.0, max_outer_iterations=1000)
SETUP_CALIBRATIONS = 5  # calibration rows right after set-up


def dataset_seed(seed: int, pool: list[int]) -> int:
    """Map a benchmark seed onto the recorded pool; seed 1 is the frozen set."""
    return pool[(seed - 1) % len(pool)]


def _synthetic(seed: int, **spec):
    return dataset.generate_synthetic(texscreen.SyntheticSpec(seed=seed, **spec))


def _labeled(images, manifest):
    return texscreen.LabeledDataset(
        tuple(
            texscreen.DatasetEntry(e.sample_id, img, e.label, e.group)
            for img, e in zip(images, manifest.entries)
        )
    )


class SweepFrozen:
    """resolution_sweep over the default 11-row grid, all three kinds."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.data = _labeled(*_synthetic(self.seed, **FROZEN))
        self.units = len(self.data.entries) * len(evaluation.DEFAULT_SWEEP_RESOLUTIONS) * 3

    def reset(self) -> None:
        pass

    def run(self):
        report = evaluation.resolution_sweep(self.data)
        return evaluation.sweep_to_json(report), evaluation.sweep_to_table(report)

    def outputs(self, result) -> dict[str, bytes]:
        as_json, table = result
        return {"sweep.json": as_json.encode(), "sweep.csv": table.encode()}


class LoocvSolver:
    """LOOCV at native 64x48 for LBP and CONCAT with C=10: solver-bound."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed

    def setup(self) -> None:
        self.data = _labeled(*_synthetic(self.seed, **FROZEN))
        self.cfg = texscreen.SolverConfig(**SOLVER)
        self.native = texscreen.Resolution(FROZEN["width"], FROZEN["height"])
        self.units = 2 * len(self.data.entries)

    def reset(self) -> None:
        pass

    def run(self):
        return [
            evaluation.report_to_json(evaluation.loocv(self.data, kind, self.native, cfg=self.cfg))
            for kind in (texscreen.FeatureKind.LBP, texscreen.FeatureKind.CONCAT)
        ]

    def outputs(self, result) -> dict[str, bytes]:
        lbp, concat = result
        return {"loocv-lbp.json": lbp.encode(), "loocv-concat.json": concat.encode()}


class IngestRef:
    """The CLI path at 300x225: synth, extract from P5 and P6, loocv."""

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.dir = workdir

    def setup(self) -> None:
        images, manifest = _synthetic(self.seed, **INGEST)
        p6 = self.dir / "p6"
        p6.mkdir(parents=True)
        lines = ["id,path,label,group"]
        for img, e in zip(images, manifest.entries):
            h, w = img.pixels.shape
            rgb = np.repeat(img.pixels[:, :, None], 3, axis=2)
            (p6 / f"{e.sample_id}.ppm").write_bytes(f"P6 {w} {h} 255\n".encode() + rgb.tobytes())
            label = "normal" if e.label < 0 else "adulterated"
            lines.append(f"{e.sample_id},{e.sample_id}.ppm,{label},{e.group}")
        (p6 / "manifest.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
        (self.dir / "out").mkdir()
        self.units = 4 * len(images)  # images through synth, two extracts and loocv

    def reset(self) -> None:
        shutil.rmtree(self.dir / "p5", ignore_errors=True)

    def run(self):
        d = self.dir
        commands = (
            ["synth", "--out", str(d / "p5"), "--seed", str(self.seed),
             "--per-class", str(INGEST["per_class"]),
             "--width", str(INGEST["width"]), "--height", str(INGEST["height"])],
            ["extract", "--manifest", str(d / "p5" / "manifest.csv"), "--kind", "concat",
             "--out", str(d / "out" / "p5.txt")],
            ["extract", "--manifest", str(d / "p6" / "manifest.csv"), "--kind", "concat",
             "--out", str(d / "out" / "p6.txt")],
            ["loocv", "--manifest", str(d / "p5" / "manifest.csv"),
             "--out", str(d / "out" / "loocv.json")],
        )
        return [cli.main(argv) for argv in commands]

    def outputs(self, result) -> dict[str, bytes]:
        if any(result):
            raise RuntimeError(f"texscreen exit codes {result}")
        p5 = self.dir / "p5"
        pgms = sorted(p5.glob("*.pgm"))
        return {
            "synth.pgm": b"".join(p.name.encode() + b"\0" + p.read_bytes() for p in pgms),
            "synth.manifest.csv": (p5 / "manifest.csv").read_bytes(),
            "extract.txt": (self.dir / "out" / "p5.txt").read_bytes(),
            "extract-p6.txt": (self.dir / "out" / "p6.txt").read_bytes(),
            "loocv.json": (self.dir / "out" / "loocv.json").read_bytes(),
        }


WORKLOADS = {"sweep-frozen": SweepFrozen, "loocv-solver": LoocvSolver, "ingest-ref": IngestRef}


def digests(outputs: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in outputs.items()}


def metadata() -> dict:
    blas = {}
    try:
        deps = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {"name": deps.get("name"), "version": deps.get("version")}
    except (TypeError, KeyError):  # numpy without show_config(mode="dicts")
        pass
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": blas,
    }


def _terminate(*_) -> None:
    """Exit through the ``finally`` that removes the work directory, once."""
    signal.signal(signal.SIGTERM, signal.SIG_IGN)
    sys.exit(143)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True, help="benchmark seed")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    signal.signal(signal.SIGTERM, _terminate)

    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    seed = dataset_seed(args.seed, golden["pool"])
    expected = golden["digests"][args.workload][str(seed)]

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    marks = None
    try:
        workload = WORKLOADS[args.workload](seed, workdir)
        setup_tracer = Tracer() if args.trace else None
        with setup_tracer or nullcontext():
            workload.setup()
        ready = clock()
        # The host's speed right after set-up, to correct set-up's time by.
        setup_calibration = SegmentMinima()
        for _ in range(0 if args.trace else SETUP_CALIBRATIONS):
            setup_calibration.add(calibrate())
        print("ready " + json.dumps({"at": ready, "calibration_s": setup_calibration.total()}),
              flush=True)
        if args.setup_only:
            return 0

        # The untraced run cuts every iteration into segments, with
        # calibration pieces between them (segments.py). Its first iteration
        # counts the boundaries, to space the pieces, and is left out of the
        # minima.
        marks = None if args.trace else Marks(args.workload).__enter__()
        walls = {False: [], True: []}
        cpus, phases = [], []
        segments, calibration = SegmentMinima(), SegmentMinima()
        failed = 0
        started = clock()
        i = 0
        while True:
            traced = bool(args.trace) and i % 2 == 1
            workload.reset()
            tracer = Tracer() if traced else None
            c0 = time.process_time()
            t0 = clock()
            if marks:
                marks.start(t0)
            try:
                with tracer or nullcontext():
                    result = workload.run()
            except Exception:
                result = None
                traceback.print_exc()
            t1 = clock()
            cpu = time.process_time() - c0
            i += 1
            walls[traced].append(t1 - t0)
            if not traced:
                cpus.append(cpu)
            else:
                phases.append(tracer)
            if marks and result is not None:
                if marks.every:
                    program, pieces = marks.durations(t1)
                    segments.add(program)
                    calibration.add(pieces)
                else:
                    marks.every = max(1, marks.count // PIECES_PER_ITERATION)
            try:
                got = digests(workload.outputs(result)) if result is not None else {}
            except Exception:
                traceback.print_exc()
                got = {}
            bad = sorted(k for k in expected if got.get(k) != expected[k])
            if bad:
                failed += 1
                print(f"output mismatch in iteration {i}: {', '.join(bad)}", file=sys.stderr)
            if clock() - started >= args.seconds and i >= 2:
                break

        out = {
            "dataset_seed": seed,
            "units": workload.units,
            "wall_s": walls[False],
            "cpu_s": cpus,
            "segment_wall_s": segments.total(),
            "segments": len(segments),
            "calibration_s": calibration.total(),
            "calibration_pieces": len(calibration),
            "traced_wall_s": walls[True],
            "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
            "attempted": i,
            "failed": failed,
            "meta": metadata(),
        }
        if args.trace:
            per_iter = [summarize([setup_tracer, t]) for t in phases]
            layers = {}
            for name in per_iter[0]:
                values = [m[name] for m in per_iter]
                layers[name] = statistics.median(values) if name.endswith("_s") else values[0]
                if not name.endswith("_s") and len(set(values)) > 1:
                    out["failed"] = min(i, out["failed"] + 1)
                    print(f"counter {name} differs between iterations: {values}", file=sys.stderr)
            out["layers"] = layers
            spans_dir = ROOT / ".perfbench_out"
            spans_dir.mkdir(exist_ok=True)
            write_spans(
                spans_dir / f"spans-{args.workload}.jsonl",
                [("setup", setup_tracer)] + [(f"iteration-{n}", t) for n, t in enumerate(phases)],
            )
        print(json.dumps(out), flush=True)
        return 0
    finally:
        if marks:
            marks.__exit__(None, None, None)
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
