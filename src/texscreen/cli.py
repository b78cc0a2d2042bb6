"""Command-line entry point for batch extraction, evaluation, and generation.

Commands:
  extract  write one feature line per manifest entry
  loocv    leave-one-out evaluation report for one feature kind
  sweep    leave-one-out accuracy of all feature kinds across resolutions
  synth    generate the seeded synthetic benchmark (images + manifest)

Defaults reproduce the reference configuration: resolution 300x225,
C=1.0. The strict-greater LBP tie rule, the KKT tolerance, the cap of 1000
KKT checks per fold and the synthetic blur radius (2) are fixed. All
randomness flows from --seed; no command reads a clock or the environment.
"""

from __future__ import annotations

import argparse
import math
import sys
from dataclasses import replace
from pathlib import Path
from typing import Sequence

from .classifier import SolverConfig
from .dataset import (
    LabeledDataset,
    ManifestError,
    SyntheticSpec,
    generate_synthetic,
    load_manifest,
    serialize_manifest,
)
from .evaluation import (
    DEFAULT_RESOLUTION,
    DEFAULT_SWEEP_RESOLUTIONS,
    EvalReport,
    feature_tables,
    loocv,
    report_to_json,
    resolution_sweep,
    sweep_to_json,
    sweep_to_table,
)
from .features import FeatureKind, format_feature
from .imagecore import PnmDecodeError, Resolution, decode_image, encode_pgm

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_UNREADABLE = 3
EXIT_INVALID_DATA = 4
EXIT_PROCESSING = 5

_EXIT_CODE_HELP = """\
exit codes:
  0  success
  2  invalid usage or flag combination
  3  unreadable input or unwritable output (missing file, IO failure)
  4  invalid data (malformed manifest or image)
  5  processing failure (e.g. a fold with single-class training data, out of memory)
"""

def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"expected a positive number, got {text!r}")
    return value


def _int_range(low: int, high: int | None = None):
    """Argument type: an integer in [low, high), or at least low when high is None."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < low or (high is not None and value >= high):
            bounds = f"in [{low}, {high})" if high is not None else f">= {low}"
            raise argparse.ArgumentTypeError(f"expected an integer {bounds}, got {text!r}")
        return value

    return parse


def _path(text: str) -> str:
    """Argument type: a path, which the OS cannot open if it holds a NUL."""
    if "\0" in text:
        raise argparse.ArgumentTypeError("path contains a NUL character")
    return text


_EVAL_SIZE = _int_range(3)  # every size flag's floor: LBP needs at least 3x3 pixels


def _resolution_list(text: str) -> list[Resolution]:
    out = []
    for token in text.split(","):
        try:
            w, h = (_EVAL_SIZE(v) for v in token.lower().split("x"))
        except (ValueError, argparse.ArgumentTypeError):
            raise argparse.ArgumentTypeError(
                f"bad resolution {token!r}, expected WIDTHxHEIGHT of at least 3x3"
            ) from None
        out.append(Resolution(w, h))
    if len(set(out)) != len(out):
        raise argparse.ArgumentTypeError(f"duplicate resolution in {text!r}")
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="texscreen",
        description="Texture-based adulteration screening over image manifests.",
        epilog=_EXIT_CODE_HELP,
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    sub = parser.add_subparsers(dest="command", required=True)

    manifest_flags = argparse.ArgumentParser(add_help=False)
    manifest_flags.add_argument("--manifest", type=_path, required=True, help="manifest csv path")
    manifest_flags.add_argument(
        "--group", choices=("1", "2", "all"), default="all", help="group filter"
    )

    solver_flags = argparse.ArgumentParser(add_help=False)
    solver_flags.add_argument(
        "--c", type=_positive_float, default=SolverConfig().c, help="soft-margin penalty"
    )

    output_flags = argparse.ArgumentParser(add_help=False)
    output_flags.add_argument("--out", type=_path, help="output path (default: stdout)")

    feature_flags = argparse.ArgumentParser(add_help=False)
    feature_flags.add_argument("--kind", choices=[k.value for k in FeatureKind], default="lbp")
    feature_flags.add_argument("--width", type=_EVAL_SIZE, default=DEFAULT_RESOLUTION.width)
    feature_flags.add_argument("--height", type=_EVAL_SIZE, default=DEFAULT_RESOLUTION.height)

    sub.add_parser(
        "extract",
        parents=[manifest_flags, feature_flags, output_flags],
        help="write one feature line per manifest entry",
    ).set_defaults(run=_cmd_extract)
    sub.add_parser(
        "loocv",
        parents=[manifest_flags, feature_flags, solver_flags, output_flags],
        help="leave-one-out evaluation at one resolution",
    ).set_defaults(run=_cmd_loocv)

    p_sweep = sub.add_parser(
        "sweep",
        parents=[manifest_flags, solver_flags, output_flags],
        help="accuracy of all feature kinds across resolutions",
    )
    p_sweep.set_defaults(run=_cmd_sweep)
    p_sweep.add_argument(
        "--resolutions",
        type=_resolution_list,
        default=DEFAULT_SWEEP_RESOLUTIONS,
        help="comma-separated WIDTHxHEIGHT list (default: the 4:3 grid 50x37..300x225)",
    )
    p_sweep.add_argument(
        "--format", choices=("json", "table"), default="json", help="report format"
    )

    p_synth = sub.add_parser(
        "synth", help="generate the seeded synthetic benchmark into a directory"
    )
    p_synth.set_defaults(run=_cmd_synth)
    p_synth.add_argument("--out", type=_path, required=True, help="output directory")
    p_synth.add_argument(
        "--seed", type=_int_range(0, 2**64), default=1, help="64-bit generator seed"
    )
    p_synth.add_argument("--per-class", type=_int_range(2), default=20, help="pairs to generate")
    p_synth.add_argument("--width", type=_int_range(8), default=64)
    p_synth.add_argument("--height", type=_int_range(8), default=48)

    return parser


def _load_dataset(path_text: str, group: str) -> LabeledDataset:
    """The manifest's entries (of one group, unless `group` is "all") with
    their images decoded to gray; image paths resolve against the manifest."""
    path = Path(path_text)
    return LabeledDataset(
        tuple(
            replace(e, image=decode_image((path.parent / e.path).read_bytes()))
            for e in load_manifest(path.read_bytes()).entries
            if group in ("all", str(e.group))
        )
    )


class _OutputError(OSError):
    """An OSError raised while writing the output: `--out` or stdout."""


def _write_text(out: str | None, text: str) -> None:
    try:
        if out is None:
            sys.stdout.write(text)
        else:
            Path(out).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise _OutputError(exc) from exc


def _cmd_extract(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.manifest, args.group)
    kind = FeatureKind(args.kind)
    images = [e.image for e in dataset.entries]
    table = feature_tables(images, (kind,), Resolution(args.width, args.height))[kind]
    _write_text(args.out, "".join(format_feature(kind, row) + "\n" for row in table))
    return EXIT_OK


def _warn_pass_cap(reports: Sequence[EvalReport], cfg: SolverConfig) -> None:
    unconverged = sum(r.unconverged for r in reports)
    folds = sum(r.n for r in reports)  # one fold per entry
    if unconverged:
        print(
            f"texscreen: warning: {unconverged} of {folds} folds stopped at the pass cap "
            f"of {cfg.max_outer_iterations} KKT checks",
            file=sys.stderr,
        )


def _cmd_loocv(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.manifest, args.group)
    cfg = SolverConfig(c=args.c)
    report = loocv(dataset, FeatureKind(args.kind), Resolution(args.width, args.height), cfg)
    _write_text(args.out, report_to_json(report))
    _warn_pass_cap([report], cfg)
    return EXIT_OK


def _cmd_sweep(args: argparse.Namespace) -> int:
    dataset = _load_dataset(args.manifest, args.group)
    cfg = SolverConfig(c=args.c)
    sweep = resolution_sweep(dataset, args.resolutions, cfg)
    if args.format == "json":
        text = sweep_to_json(sweep)
    else:
        text = sweep_to_table(sweep)
    _write_text(args.out, text)
    _warn_pass_cap([r for reports in sweep.values() for r in reports.values()], cfg)
    return EXIT_OK


def _cmd_synth(args: argparse.Namespace) -> int:
    spec = SyntheticSpec(args.seed, args.per_class, args.width, args.height)
    out_dir = Path(args.out)
    _, dataset = generate_synthetic(spec)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for entry in dataset.entries:
            (out_dir / entry.path).write_bytes(encode_pgm(entry.image))
        (out_dir / "manifest.csv").write_text(serialize_manifest(dataset), encoding="utf-8")
    except OSError as exc:
        raise _OutputError(exc) from exc
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.run(args)
    except OSError as exc:
        what = "cannot write output" if isinstance(exc, _OutputError) else "unreadable input"
        print(f"texscreen: {what}: {exc}", file=sys.stderr)
        return EXIT_UNREADABLE
    except (ManifestError, PnmDecodeError) as exc:
        print(f"texscreen: invalid data: {exc}", file=sys.stderr)
        return EXIT_INVALID_DATA
    except ValueError as exc:
        print(f"texscreen: {exc}", file=sys.stderr)
        return EXIT_PROCESSING
    except MemoryError:
        print("texscreen: out of memory", file=sys.stderr)
        return EXIT_PROCESSING


if __name__ == "__main__":
    sys.exit(main())
