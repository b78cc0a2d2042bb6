import contextlib
import hashlib
import io
import json
import resource
import subprocess
import sys
import tempfile
from functools import partial
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from conftest import FROZEN_SPEC
from texscreen import cli
from texscreen.classifier import SolverConfig
from texscreen.cli import (
    EXIT_INVALID_DATA,
    EXIT_OK,
    EXIT_PROCESSING,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    build_parser,
    main,
)
from texscreen.evaluation import DEFAULT_SWEEP_RESOLUTIONS


def _synth(tmp_path, per_class=3, width=16, height=12, seed=5):
    out = tmp_path / "bench"
    code = main(
        [
            "synth",
            "--out",
            str(out),
            "--seed",
            str(seed),
            "--per-class",
            str(per_class),
            "--width",
            str(width),
            "--height",
            str(height),
        ]
    )
    assert code == EXIT_OK
    return out


class TestSynth:
    def test_writes_images_and_manifest(self, tmp_path):
        out = _synth(tmp_path)
        pgms = sorted(p.name for p in out.glob("*.pgm"))
        assert len(pgms) == 6
        assert (out / "manifest.csv").exists()
        manifest_text = (out / "manifest.csv").read_text()
        assert manifest_text.splitlines()[0] == "id,path,label,group"

    def test_same_seed_same_bytes(self, tmp_path):
        out1 = _synth(tmp_path / "a")
        out2 = _synth(tmp_path / "b")
        for p1 in sorted(out1.iterdir()):
            p2 = out2 / p1.name
            assert p1.read_bytes() == p2.read_bytes()


class TestLoocvCommand:
    def test_json_report(self, tmp_path):
        bench = _synth(tmp_path)
        report_path = tmp_path / "report.json"
        code = main(
            [
                "loocv",
                "--manifest",
                str(bench / "manifest.csv"),
                "--kind",
                "lbp",
                "--width",
                "16",
                "--height",
                "12",
                "--out",
                str(report_path),
            ]
        )
        assert code == EXIT_OK
        obj = json.loads(report_path.read_text())
        assert obj["feature_kind"] == "lbp"
        assert obj["n"] == 6
        assert 0.0 <= obj["global_accuracy"] <= 1.0

    def test_byte_identical_reruns(self, tmp_path):
        bench = _synth(tmp_path)
        args = [
            "loocv",
            "--manifest",
            str(bench / "manifest.csv"),
            "--kind",
            "concat",
            "--width",
            "16",
            "--height",
            "12",
        ]
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        assert main(args + ["--out", str(out1)]) == EXIT_OK
        assert main(args + ["--out", str(out2)]) == EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()

    def test_group_filter(self, tmp_path):
        bench = _synth(tmp_path, per_class=4)
        out = tmp_path / "g1.json"
        code = main(
            [
                "loocv",
                "--manifest",
                str(bench / "manifest.csv"),
                "--group",
                "1",
                "--width",
                "16",
                "--height",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        # pairs alternate groups, so group 1 holds half the entries
        assert json.loads(out.read_text())["n"] == 4


class TestExtractCommand:
    def test_one_line_per_entry(self, tmp_path):
        bench = _synth(tmp_path)
        out = tmp_path / "features.txt"
        code = main(
            [
                "extract",
                "--manifest",
                str(bench / "manifest.csv"),
                "--kind",
                "concat",
                "--width",
                "16",
                "--height",
                "12",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 6
        for line in lines:
            tokens = line.split(",")
            assert tokens[0] == "concat"
            assert len(tokens) == 1 + 512


class TestExtractAnyManifest:
    """extract needs no labels, so LOOCV's dataset rules do not apply to it."""

    def _manifest(self, tmp_path, rows):
        bench = _synth(tmp_path)
        path = bench / "subset.csv"
        path.write_text("id,path,label,group\n" + "".join(row + "\n" for row in rows))
        return str(path)

    def _extract(self, manifest, out, *flags):
        argv = ["extract", "--manifest", manifest, "--width", "16", "--height", "12"]
        return main([*argv, *flags, "--out", str(out)])

    def _evaluations_fail(self, manifest, flags, message, capsys):
        capsys.readouterr()
        for argv in (
            ["loocv", "--width", "16", "--height", "12"],
            ["sweep", "--resolutions", "16x12"],
        ):
            code = main([argv[0], "--manifest", manifest, *flags, *argv[1:]])
            assert code == EXIT_PROCESSING
            assert capsys.readouterr().err == f"texscreen: {message}\n"

    def test_single_entry_manifest(self, tmp_path, capsys):
        manifest = self._manifest(tmp_path, ["normal-000,normal-000.pgm,normal,1"])
        out = tmp_path / "features.txt"
        assert self._extract(manifest, out) == EXIT_OK
        lines = out.read_text().splitlines()
        assert len(lines) == 1
        tokens = lines[0].split(",")
        assert tokens[0] == "lbp" and len(tokens) == 1 + 256
        self._evaluations_fail(manifest, [], "dataset must contain both labels", capsys)

    def test_single_class_group(self, tmp_path, capsys):
        rows = [f"normal-{k:03d},normal-{k:03d}.pgm,normal,1" for k in range(3)]
        rows += [f"adulterated-{k:03d},adulterated-{k:03d}.pgm,adulterated,2" for k in range(3)]
        manifest = self._manifest(tmp_path, rows)
        out = tmp_path / "features.txt"
        assert self._extract(manifest, out, "--group", "1") == EXIT_OK
        assert len(out.read_text().splitlines()) == 3
        flags = ["--group", "1"]
        self._evaluations_fail(manifest, flags, "dataset must contain both labels", capsys)

    def test_group_reads_only_its_own_images(self, tmp_path, capsys):
        # a group-2 row whose image is missing, between group-1 rows
        bench = _synth(tmp_path, per_class=4)
        rows = (bench / "manifest.csv").read_text().splitlines()
        rows.insert(3, "gone,missing.pgm,normal,2")
        manifest = bench / "gapped.csv"
        manifest.write_text("\n".join(rows) + "\n")
        everything, grouped = tmp_path / "all.txt", tmp_path / "g1.txt"
        assert self._extract(str(bench / "manifest.csv"), everything) == EXIT_OK
        assert self._extract(str(manifest), grouped, "--group", "1") == EXIT_OK
        listed = [row.split(",") for row in rows[1:] if row.split(",")[0] != "gone"]
        expected = [
            line
            for (_, _, _, group), line in zip(listed, everything.read_text().splitlines())
            if group == "1"
        ]
        assert len(expected) == 4
        assert grouped.read_text().splitlines() == expected
        capsys.readouterr()
        assert self._extract(str(manifest), grouped, "--group", "2") == EXIT_UNREADABLE
        assert "missing.pgm" in capsys.readouterr().err

    def test_empty_selection_writes_empty_output(self, tmp_path):
        manifest = self._manifest(tmp_path, ["normal-000,normal-000.pgm,normal,1"])
        out = tmp_path / "features.txt"
        assert self._extract(manifest, out, "--group", "2") == EXIT_OK
        assert out.read_bytes() == b""


class TestSweepCommand:
    @pytest.mark.parametrize("fmt", ["json", "table"])
    def test_default_grid_is_the_sweep_resolutions(self, tmp_path, fmt):
        bench = _synth(tmp_path)
        grid = ",".join(f"{r.width}x{r.height}" for r in DEFAULT_SWEEP_RESOLUTIONS)
        assert len(DEFAULT_SWEEP_RESOLUTIONS) == 11
        outputs = []
        for extra in ([], ["--resolutions", grid]):
            out = tmp_path / f"sweep{len(outputs)}"
            argv = ["sweep", "--manifest", str(bench / "manifest.csv"), "--format", fmt]
            assert main(argv + extra + ["--out", str(out)]) == EXIT_OK
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]

    def test_table_format(self, tmp_path):
        bench = _synth(tmp_path)
        out = tmp_path / "sweep.csv"
        code = main(
            [
                "sweep",
                "--manifest",
                str(bench / "manifest.csv"),
                "--resolutions",
                "8x6,16x12",
                "--format",
                "table",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        lines = out.read_text().splitlines()
        assert lines[0] == "width,height,acc_lbp,acc_gray,acc_concat"
        assert len(lines) == 3
        assert lines[1].startswith("8,6,")
        assert lines[2].startswith("16,12,")


@pytest.mark.kernel_independent
class TestPinnedOutputs:
    """SHA-256 of every output on the frozen set, `synth --seed 1 --per-class
    20 --width 64 --height 48`, recorded before the manifest and dataset
    record types were merged (the second extract and loocv digests before
    the feature kind stopped being a tag on vectors and models): outputs
    must stay byte-identical."""

    @pytest.fixture(scope="class")
    def frozen_manifest(self, tmp_path_factory):
        bench = tmp_path_factory.mktemp("frozen")
        argv = ["synth", "--out", str(bench), "--seed", "1", "--per-class", "20"]
        assert main([*argv, "--width", "64", "--height", "48"]) == EXIT_OK
        return bench / "manifest.csv"

    def test_manifest(self, frozen_manifest):
        digest = hashlib.sha256(frozen_manifest.read_bytes()).hexdigest()
        assert digest == "e1ff43f65221367147e4fce8c75ebd687db2f24188d79d897a4fba2b0a64a475"

    @pytest.mark.parametrize(
        "argv, digest",
        [
            (
                ["extract", "--kind", "concat", "--width", "32", "--height", "24"],
                "ac516e6110ca6b23d543dc2a777b7e6af51153a17eb72de411f09a4c67734d38",
            ),
            (
                ["extract", "--kind", "gray", "--width", "32", "--height", "24"],
                "1afa69243cca917c5ec296727f088e2181e7a7c0c6e33f0d1239c73b3b0e7b4f",
            ),
            (
                ["loocv", "--width", "64", "--height", "48"],
                "c301a75f451796d95ef2292a3eb22a82d19dcd0d084164456a7ffa78001f9dfa",
            ),
            (
                # gray misclassifies 34 of 40 here: pins predict and the id list
                # (recorded before the loocv table format went)
                ["loocv", "--kind", "gray", "--width", "64", "--height", "48"],
                "3e357386915ff0b72f37d703b5955c35da72341081933977e7e4489709521779",
            ),
            (
                ["sweep", "--resolutions", "50x37,64x48"],
                "37087960e3a88d7c791051cdb55ecc2bdd646f1c57868f9b061aa82b59795ede",
            ),
            (
                ["sweep", "--resolutions", "50x37,64x48", "--format", "table"],
                "85f15e87bcaeddb3fffae17ce1f2a06db7e5c6a0a43ae5485bd079a9250e9433",
            ),
        ],
        ids=[
            "extract-concat",
            "extract-gray",
            "loocv-json",
            "loocv-gray-json",
            "sweep-json",
            "sweep-table",
        ],
    )
    def test_command_output(self, frozen_manifest, tmp_path, argv, digest):
        out = tmp_path / "out"
        code = main([argv[0], "--manifest", str(frozen_manifest), *argv[1:], "--out", str(out)])
        assert code == EXIT_OK
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest


class TestFailurePaths:
    def test_missing_manifest_exits_unreadable(self, tmp_path, capsys):
        code = main(["loocv", "--manifest", str(tmp_path / "nope.csv")])
        assert code == EXIT_UNREADABLE
        assert "nope.csv" in capsys.readouterr().err

    def test_missing_image_exits_unreadable(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "id,path,label,group\n"
            "a,gone.pgm,normal,1\n"
            "b,gone2.pgm,adulterated,1\n"
            "c,gone3.pgm,normal,2\n"
        )
        code = main(["loocv", "--manifest", str(manifest)])
        assert code == EXIT_UNREADABLE
        assert "gone" in capsys.readouterr().err

    def test_malformed_manifest_exits_invalid_data(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        overlong = "a" * 131073  # one past csv.field_size_limit()
        cases = [
            ("id,path,label,group\na,x.pgm,fresh,1\n", "unknown label 'fresh' (line 2)"),
            (overlong + "\n", "field larger than field limit (131072) (line 1)"),
            (
                f"id,path,label,group\n{overlong},x.pgm,normal,1\n",
                "field larger than field limit (131072) (line 2)",
            ),
        ]
        for text, reason in cases:
            manifest.write_text(text)
            code = main(["loocv", "--manifest", str(manifest)])
            assert code == EXIT_INVALID_DATA
            assert capsys.readouterr().err == f"texscreen: invalid data: {reason}\n"

    def test_corrupt_image_exits_invalid_data(self, tmp_path, capsys):
        (tmp_path / "bad.pgm").write_bytes(b"P5 2 2 255\n\x00")  # truncated
        manifest = tmp_path / "manifest.csv"
        manifest.write_text(
            "id,path,label,group\n"
            "a,bad.pgm,normal,1\n"
            "b,bad.pgm2,adulterated,1\n"
            "c,bad.pgm3,normal,2\n"
        )
        code = main(["loocv", "--manifest", str(manifest)])
        assert code in (EXIT_INVALID_DATA, EXIT_UNREADABLE)

    def test_overlong_header_number_exits_invalid_data(self, tmp_path, capsys):
        (tmp_path / "long.pgm").write_bytes(b"P5 " + b"1" * 5000 + b" 1 255\n\x00")
        manifest = tmp_path / "manifest.csv"
        manifest.write_text("id,path,label,group\na,long.pgm,normal,1\n")
        code = main(["extract", "--manifest", str(manifest)])
        assert code == EXIT_INVALID_DATA
        assert capsys.readouterr().err == (
            "texscreen: invalid data: width token of 5000 digits is too long (byte offset 3)\n"
        )

    def test_untrainable_fold_exits_processing(self, tmp_path, capsys):
        bench = _synth(tmp_path)
        manifest_lines = (bench / "manifest.csv").read_text().splitlines()
        # keep two normals and one adulterated: its fold is single-class
        trimmed = tmp_path / "trimmed.csv"
        header = manifest_lines[0]
        normals = [l for l in manifest_lines[1:] if ",normal," in l][:2]
        adulterated = [l for l in manifest_lines[1:] if ",adulterated," in l][:1]
        trimmed.write_text("\n".join([header] + normals + adulterated) + "\n")
        for line in normals + adulterated:
            name = line.split(",")[1]
            (tmp_path / name).write_bytes((bench / name).read_bytes())
        code = main(
            [
                "loocv",
                "--manifest",
                str(trimmed),
                "--width",
                "16",
                "--height",
                "12",
            ]
        )
        assert code == EXIT_PROCESSING
        lone = adulterated[0].split(",")[0]
        message = (
            f"texscreen: fold holding out {lone!r} is untrainable: "
            "training set must contain both labels\n"
        )
        assert capsys.readouterr().err == message
        assert main(["sweep", "--manifest", str(trimmed), "--resolutions", "16x12"]) == EXIT_PROCESSING
        assert capsys.readouterr().err == message

    def test_unknown_flag_value_exits_usage(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["loocv", "--manifest", "x.csv", "--kind", "wavelet"])
        assert err.value.code == 2

    def test_bad_resolution_list_exits_usage(self, tmp_path):
        with pytest.raises(SystemExit) as err:
            main(["sweep", "--manifest", "x.csv", "--resolutions", "50by37"])
        assert err.value.code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            ["loocv", "--manifest", "x.csv", "--c", "-1"],
            ["loocv", "--manifest", "x.csv", "--c", "nan"],
            ["loocv", "--manifest", "x.csv", "--c", "x"],
            ["loocv", "--manifest", "x.csv", "--width", "2", "--height", "2"],
            ["sweep", "--manifest", "x.csv", "--resolutions", "50x37,2x2"],
            ["sweep", "--manifest", "x.csv", "--resolutions", "50x37,50X37"],
            ["extract", "--manifest", "x.csv", "--width", "0"],
            # one floor for every kind, though a gray histogram needs one pixel
            ["extract", "--manifest", "x.csv", "--kind", "gray", "--width", "1", "--height", "1"],
            ["synth", "--out", "unused", "--seed", "-1"],
            ["synth", "--out", "unused", "--seed", str(2**64)],
            ["synth", "--out", "unused", "--per-class", "1"],
            ["synth", "--out", "unused", "--width", "7"],
            ["loocv", "--manifest", "m.csv\0x"],
            ["extract", "--manifest", "x.csv", "--out", "o\0ut"],
            ["loocv", "--manifest", "x.csv", "--out", "r\0.json"],
            ["sweep", "--manifest", "x.csv", "--out", "s\0.json"],
            ["synth", "--out", "x\0y"],
        ],
        ids=lambda argv: " ".join(argv[2:]),
    )
    def test_invalid_flag_values_exit_usage(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert "error: argument" in capsys.readouterr().err
        assert not (tmp_path / "unused").exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["loocv", "--manifest", "x.csv", "--tol", "1e-6"],
            ["sweep", "--manifest", "x.csv", "--tol", "1e-6"],
            ["synth", "--out", "unused", "--smoothing-radius", "2"],
            ["extract", "--manifest", "x.csv", "--comparator", "gt"],
            ["loocv", "--manifest", "x.csv", "--comparator", "gt"],
            ["sweep", "--manifest", "x.csv", "--comparator", "gt"],
            ["loocv", "--manifest", "x.csv", "--max-iter", "5"],
            ["sweep", "--manifest", "x.csv", "--max-iter", "5"],
            ["loocv", "--manifest", "x.csv", "--decimal-comma"],
            ["sweep", "--manifest", "x.csv", "--decimal-comma"],
            ["loocv", "--manifest", "x.csv", "--format", "table"],
            ["loocv", "--manifest", "x.csv", "--format", "json"],
        ],
        ids=lambda argv: " ".join(argv[::3]),
    )
    def test_fixed_settings_are_no_flags(self, argv, tmp_path, monkeypatch, capsys):
        # the KKT tolerance, the pass cap, the blur radius, the LBP tie rule,
        # the percent's decimal point and the loocv report's format each have
        # one value in use
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as err:
            main(argv)
        assert err.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {' '.join(argv[3:])}" in capsys.readouterr().err
        assert not (tmp_path / "unused").exists()

    def test_oversized_synth_exits_processing_before_drawing(self, tmp_path, capsys):
        out = tmp_path / "bench"
        code = main(["synth", "--out", str(out), "--per-class", "100000000000000000000"])
        assert code == EXIT_PROCESSING
        assert capsys.readouterr().err == (
            "texscreen: 2 * per_class * width * height must be below 2^31, "
            "the pixels generated at once\n"
        )
        assert not out.exists()

    def test_non_utf8_manifest_exits_invalid_data(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"id,path,label,group\na,\xe9t\xe9.pgm,normal,1\n")
        code = main(["loocv", "--manifest", str(manifest)])
        assert code == EXIT_INVALID_DATA
        assert "UTF-8" in capsys.readouterr().err


    def test_nul_in_image_path_exits_invalid_data(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"id,path,label,group\na,x.pgm,normal,1\nb,y\0.pgm,normal,1\n")
        code = main(["loocv", "--manifest", str(manifest)])
        assert code == EXIT_INVALID_DATA
        assert capsys.readouterr().err == (
            "texscreen: invalid data: line contains a NUL character (line 3)\n"
        )

    def test_out_of_memory_exits_processing(self, tmp_path):
        bench = _synth(tmp_path, per_class=2)
        cap = 1_500_000_000  # bytes of address space, for the child only

        def limit_child():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        argv = ["extract", "--manifest", str(bench / "manifest.csv")]
        argv += ["--width", "50000", "--height", "50000"]
        run = subprocess.run(
            [sys.executable, "-m", "texscreen.cli", *argv],
            capture_output=True,
            text=True,
            preexec_fn=limit_child,
        )
        assert run.returncode == EXIT_PROCESSING
        assert run.stderr == "texscreen: out of memory\n"

    def test_memory_error_of_a_command_exits_processing(self, monkeypatch, tmp_path, capsys):
        # the same handler in-process, raised by a command's own call
        def exhausted(spec):
            raise MemoryError

        monkeypatch.setattr(cli, "generate_synthetic", exhausted)
        assert main(["synth", "--out", str(tmp_path)]) == EXIT_PROCESSING
        assert capsys.readouterr().err == "texscreen: out of memory\n"


class TestExtractSizeFloor:
    @pytest.mark.parametrize("kind", ["lbp", "concat"])
    @pytest.mark.parametrize("size", [["--width", "2"], ["--height", "2"]], ids=["w", "h"])
    def test_texture_kinds_below_3x3_exit_usage(self, kind, size, tmp_path, capsys):
        out = tmp_path / "features.txt"
        with pytest.raises(SystemExit) as err:
            main(["extract", "--manifest", "x.csv", "--kind", kind, *size, "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        assert f"argument {size[0]}: expected an integer >= 3" in capsys.readouterr().err
        assert not out.exists()


class TestPassCapWarning:
    def _run(self, tmp_path, capsys, argv):
        bench = _synth(tmp_path)
        capsys.readouterr()
        manifest = str(bench / "manifest.csv")
        code = main([argv[0], "--manifest", manifest, *argv[1:], "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        return capsys.readouterr().err

    @pytest.fixture
    def cap_1(self, monkeypatch):
        monkeypatch.setattr(cli, "SolverConfig", partial(SolverConfig, max_outer_iterations=1))

    def test_loocv_capped_run_warns(self, tmp_path, capsys, cap_1):
        argv = ["loocv", "--c", "100", "--width", "16", "--height", "12"]
        err = self._run(tmp_path, capsys, argv)
        assert err == "texscreen: warning: 6 of 6 folds stopped at the pass cap of 1 KKT checks\n"

    def test_sweep_capped_run_warns(self, tmp_path, capsys, cap_1):
        argv = ["sweep", "--c", "100", "--resolutions", "8x6,16x12"]
        err = self._run(tmp_path, capsys, argv)
        assert err.startswith("texscreen: warning: ")
        assert err.endswith(" of 36 folds stopped at the pass cap of 1 KKT checks\n")

    @pytest.mark.parametrize("kind", ["lbp", "concat"])
    def test_frozen_set_at_c_100_is_silent(self, tmp_path, capsys, kind):
        # at the reference 300x225 and --c 100 every fold of the frozen set
        # meets its tolerance within the default cap
        spec = FROZEN_SPEC
        synth = ["synth", "--out", str(tmp_path), "--seed", str(spec.seed)]
        synth += ["--per-class", str(spec.per_class), "--width", str(spec.width)]
        synth += ["--height", str(spec.height)]
        assert main(synth) == EXIT_OK
        capsys.readouterr()
        manifest, out = str(tmp_path / "manifest.csv"), str(tmp_path / "r.json")
        code = main(["loocv", "--manifest", manifest, "--kind", kind, "--c", "100", "--out", out])
        assert code == EXIT_OK
        assert capsys.readouterr().err == ""

    def test_default_runs_are_silent(self, tmp_path, capsys):
        loocv = ["loocv", "--width", "16", "--height", "12"]
        assert self._run(tmp_path / "l", capsys, loocv) == ""
        assert self._run(tmp_path / "s", capsys, ["sweep", "--resolutions", "8x6,16x12"]) == ""


def test_solver_flag_defaults_are_the_solver_config_defaults():
    args = build_parser().parse_args(["loocv", "--manifest", "x.csv"])
    assert SolverConfig(c=args.c) == SolverConfig()


def _pnm_bytes(magic, width, height, seed):
    """A well-formed binary netpbm image of random pixels."""
    channels = 3 if magic == b"P6" else 1
    rng = np.random.default_rng(seed)
    payload = rng.integers(0, 256, width * height * channels, dtype=np.uint8).tobytes()
    return b"%s %d %d 255\n" % (magic, width, height) + payload


_GOOD_IMAGE = st.builds(
    _pnm_bytes,
    st.sampled_from([b"P5", b"P6"]),
    st.integers(1, 12),
    st.integers(1, 12),
    st.integers(0, 2**32 - 1),
)
_BAD_IMAGE = st.one_of(  # drawn as in the decoder's arbitrary-bytes test
    st.binary(max_size=64),
    st.builds(
        lambda magic, dims, tail: magic + b" ".join(b"%d" % d for d in dims) + tail,
        st.sampled_from([b"P2 ", b"P3 ", b"P5 ", b"P6 ", b"P2\n#c\n"]),
        st.lists(st.integers(0, 2**64), min_size=0, max_size=3).map(lambda dims: dims + [255]),
        st.binary(max_size=32),
    ),
    st.builds(
        lambda prefix, digit, run, tail: prefix + digit * run + tail,
        st.sampled_from([b"P5 ", b"P2 1 ", b"P6 1 1 ", b"P3 1 1 255\n", b"P2 1 1 255\n"]),
        st.sampled_from([b"0", b"1", b"9"]),
        st.integers(4290, 4310),
        st.binary(max_size=16),
    ),
)
_HEADER = "id,path,label,group"
_BAD_HEADER = st.one_of(
    st.sampled_from(["id,file,label,group", "id,path,label", ""]), st.text(max_size=20)
)
# (path kind, label, group, image bytes)
_GOOD_PAIR = st.builds(
    lambda group, normal, adulterated: [
        ("file", "normal", group, normal),
        ("file", "adulterated", group, adulterated),
    ],
    st.sampled_from("12"),
    _GOOD_IMAGE,
    _GOOD_IMAGE,
)
_BAD_ENTRY = st.one_of(
    st.tuples(
        st.sampled_from(["missing", "directory", "nul", "latin-1"]),
        st.just("normal"),
        st.just("1"),
        st.just(b""),
    ),
    st.tuples(st.just("file"), st.sampled_from(["fresh", ""]), st.just("1"), _GOOD_IMAGE),
    st.tuples(st.just("file"), st.just("adulterated"), st.sampled_from(["3", "x"]), _GOOD_IMAGE),
    st.tuples(st.just("file"), st.just("normal"), st.just("2"), _BAD_IMAGE),
)


def _mostly(valid, invalid):
    """Draws from `valid` three times in four, else from `invalid`; lists are sampled."""
    valid, invalid = (st.sampled_from(v) if isinstance(v, list) else v for v in (valid, invalid))
    return st.sampled_from((valid, valid, valid, invalid)).flatmap(lambda choice: choice)


_SIZE = _mostly(st.integers(3, 24).map(str), ["-1", "2", "", "x", "3.5"])
_FLAG_VALUES = {
    "--group": _mostly(["1", "2", "all"], ["3"]),
    "--kind": _mostly(["lbp", "gray", "concat"], ["wavelet"]),
    "--width": _SIZE,
    "--height": _SIZE,
    "--resolutions": st.one_of(
        st.lists(st.tuples(_SIZE, _SIZE).map("x".join), min_size=1, max_size=3).map(",".join),
        st.sampled_from(["", "8x8,8x8", "8by8"]),
    ),
    "--c": _mostly(["1", "0.01", "100", "1.7e308"], ["0", "-1", "nan", "inf", "x"]),
    "--format": _mostly(["json", "table"], ["xml"]),
    "--seed": _mostly(["0", "1", str(2**64 - 1)], ["-1", str(2**64), "x"]),
    "--per-class": _mostly(["2", "3"], ["1", "x"]),
}
_COMMAND_FLAGS = {
    "extract": ["--group", "--kind", "--width", "--height"],
    "loocv": ["--group", "--kind", "--width", "--height", "--c"],
    "sweep": ["--group", "--resolutions", "--c", "--format"],
    "synth": ["--seed", "--per-class", "--width", "--height"],
}


def _flags(command):
    """Up to three of the command's flags with drawn values; rarely one it lacks."""
    flag = _mostly(_COMMAND_FLAGS[command], ["--kind"]).flatmap(
        lambda name: _FLAG_VALUES[name].map(lambda v: [name, v])
    )
    return st.lists(flag, max_size=3).map(lambda pairs: [t for pair in pairs for t in pair])


class TestCliFuzz:
    """Whatever the manifest, images and flags, `main` ends in a documented
    exit code, and a failure says so in exactly one stderr line."""

    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        command=st.sampled_from(["extract", "loocv", "sweep", "synth"]),
        header=_mostly(st.just(_HEADER), _BAD_HEADER),
        pairs=st.lists(_GOOD_PAIR, min_size=1, max_size=4),
        defect=_mostly(st.none(), _BAD_ENTRY),
        manifest_name=_mostly(["manifest.csv"], ["missing.csv", ".", "m\0.csv"]),
        out_name=_mostly([None], ["out", ".", "o\0"]),
        data=st.data(),
    )
    def test_exit_codes_and_one_line_errors(
        self, tmp_path, command, header, pairs, defect, manifest_name, out_name, data
    ):
        root = Path(tempfile.mkdtemp(dir=tmp_path))
        entries = [entry for pair in pairs for entry in pair]
        if defect is not None:
            entries.insert(data.draw(st.integers(0, len(entries))), defect)
        lines = [header]
        for i, (kind, label, group, image) in enumerate(entries):
            path = {
                "missing": f"gone{i}.pgm",
                "directory": f"dir{i}",
                "nul": f"img{i}\0.pgm",
                "latin-1": f"\udce9t\udce9{i}.pgm",  # written as the non-UTF-8 byte 0xe9
            }.get(kind, f"img{i}.pnm")
            if kind == "file":
                (root / path).write_bytes(image)
            elif kind == "directory":
                (root / path).mkdir()
            lines.append(f"e{i},{path},{label},{group}")
        text = "\n".join(lines) + "\n"
        (root / "manifest.csv").write_bytes(text.encode("utf-8", "surrogateescape"))

        if command == "synth":
            argv = ["synth", "--out", str(root / (out_name or "synth"))]
            argv += ["--per-class", "2", "--width", "8", "--height", "8"]
        else:
            argv = [command, "--manifest", str(root / manifest_name)]
            if command == "sweep":
                argv += ["--resolutions", "8x8,5x4"]
            else:
                argv += ["--width", "8", "--height", "8"]
            if out_name is not None:
                argv += ["--out", str(root / out_name)]
        argv += data.draw(_flags(command))

        stderr = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
        event(f"{command} exit {code}")
        assert code in {EXIT_OK, EXIT_USAGE, EXIT_UNREADABLE, EXIT_INVALID_DATA, EXIT_PROCESSING}
        if code in {EXIT_UNREADABLE, EXIT_INVALID_DATA, EXIT_PROCESSING}:
            err = stderr.getvalue()
            assert err.startswith("texscreen: ") and err.count("\n") == 1 and err.endswith("\n")


class TestInstalledEntryPoint:
    def test_module_invocation(self, tmp_path):
        bench = tmp_path / "bench"
        run = subprocess.run(
            [
                sys.executable,
                "-m",
                "texscreen.cli",
                "synth",
                "--out",
                str(bench),
                "--seed",
                "5",
                "--per-class",
                "2",
                "--width",
                "16",
                "--height",
                "12",
            ],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        assert (bench / "manifest.csv").exists()
        run = subprocess.run(
            [
                sys.executable,
                "-m",
                "texscreen.cli",
                "loocv",
                "--manifest",
                str(bench / "manifest.csv"),
                "--width",
                "16",
                "--height",
                "12",
            ],
            capture_output=True,
            text=True,
        )
        assert run.returncode == 0, run.stderr
        assert json.loads(run.stdout)["n"] == 4
