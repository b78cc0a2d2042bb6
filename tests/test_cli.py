import hashlib
import json
import subprocess
import sys

import pytest

from texscreen.cli import (
    EXIT_INVALID_DATA,
    EXIT_OK,
    EXIT_PROCESSING,
    EXIT_UNREADABLE,
    EXIT_USAGE,
    main,
)


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
            "--smoothing-radius",
            "1",
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

    def test_decimal_comma_table(self, tmp_path):
        bench = _synth(tmp_path)
        out = tmp_path / "report.csv"
        code = main(
            [
                "loocv",
                "--manifest",
                str(bench / "manifest.csv"),
                "--width",
                "16",
                "--height",
                "12",
                "--format",
                "table",
                "--decimal-comma",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        text = out.read_text()
        assert ",0%" in text or ",3%" in text or '"' in text  # comma-decimal percents

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
        self._evaluations_fail(manifest, [], "dataset needs at least 3 entries", capsys)

    def test_single_class_group(self, tmp_path, capsys):
        rows = [f"normal-{k:03d},normal-{k:03d}.pgm,normal,1" for k in range(3)]
        rows += [f"adulterated-{k:03d},adulterated-{k:03d}.pgm,adulterated,2" for k in range(3)]
        manifest = self._manifest(tmp_path, rows)
        out = tmp_path / "features.txt"
        assert self._extract(manifest, out, "--group", "1") == EXIT_OK
        assert len(out.read_text().splitlines()) == 3
        flags = ["--group", "1"]
        self._evaluations_fail(manifest, flags, "dataset must contain both labels", capsys)

    def test_empty_selection_writes_empty_output(self, tmp_path):
        manifest = self._manifest(tmp_path, ["normal-000,normal-000.pgm,normal,1"])
        out = tmp_path / "features.txt"
        assert self._extract(manifest, out, "--group", "2") == EXIT_OK
        assert out.read_bytes() == b""


class TestSweepCommand:
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
                ["extract", "--kind", "lbp", "--comparator", "ge"]
                + ["--width", "32", "--height", "24"],
                "9bf26b1644d36a1a496590d832ab2be0e27a333fd399d02440a417d0b2881cf6",
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
                ["loocv", "--kind", "gray", "--width", "64", "--height", "48"]
                + ["--format", "table", "--decimal-comma"],
                "413681c09eaa57357710cb31a8371c40625cb4ed6a164ed7c5bb68117b26526f",
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
            "extract-lbp-ge",
            "extract-gray",
            "loocv-json",
            "loocv-gray-table",
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
        manifest.write_text("id,path,label,group\na,x.pgm,fresh,1\n")
        code = main(["loocv", "--manifest", str(manifest)])
        assert code == EXIT_INVALID_DATA
        assert "fresh" in capsys.readouterr().err

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
            ["loocv", "--manifest", "x.csv", "--tol", "0"],
            ["sweep", "--manifest", "x.csv", "--max-iter", "0"],
            ["loocv", "--manifest", "x.csv", "--width", "2", "--height", "2"],
            ["sweep", "--manifest", "x.csv", "--resolutions", "50x37,2x2"],
            ["sweep", "--manifest", "x.csv", "--resolutions", "50x37,50X37"],
            ["extract", "--manifest", "x.csv", "--width", "0"],
            ["synth", "--out", "unused", "--seed", "-1"],
            ["synth", "--out", "unused", "--seed", str(2**64)],
            ["synth", "--out", "unused", "--per-class", "1"],
            ["synth", "--out", "unused", "--width", "7"],
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

    def test_non_utf8_manifest_exits_invalid_data(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.csv"
        manifest.write_bytes(b"id,path,label,group\na,\xe9t\xe9.pgm,normal,1\n")
        code = main(["loocv", "--manifest", str(manifest)])
        assert code == EXIT_INVALID_DATA
        assert "UTF-8" in capsys.readouterr().err


class TestExtractSizeFloor:
    @pytest.mark.parametrize("kind", ["lbp", "concat"])
    @pytest.mark.parametrize("size", [["--width", "2"], ["--height", "2"]], ids=["w", "h"])
    def test_texture_kinds_below_3x3_exit_usage(self, kind, size, tmp_path, capsys):
        out = tmp_path / "features.txt"
        with pytest.raises(SystemExit) as err:
            main(["extract", "--manifest", "x.csv", "--kind", kind, *size, "--out", str(out)])
        assert err.value.code == EXIT_USAGE
        assert f"--kind {kind} needs --width and --height of at least 3" in capsys.readouterr().err
        assert not out.exists()

    def test_gray_accepts_one_pixel(self, tmp_path):
        bench = _synth(tmp_path)
        out = tmp_path / "features.txt"
        code = main(
            [
                "extract",
                "--manifest",
                str(bench / "manifest.csv"),
                "--kind",
                "gray",
                "--width",
                "1",
                "--height",
                "1",
                "--out",
                str(out),
            ]
        )
        assert code == EXIT_OK
        assert len(out.read_text().splitlines()) == 6


class TestPassCapWarning:
    def _run(self, tmp_path, capsys, argv):
        bench = _synth(tmp_path)
        capsys.readouterr()
        manifest = str(bench / "manifest.csv")
        code = main([argv[0], "--manifest", manifest, *argv[1:], "--out", str(tmp_path / "r")])
        assert code == EXIT_OK
        return capsys.readouterr().err

    def test_loocv_capped_run_warns(self, tmp_path, capsys):
        argv = ["loocv", "--max-iter", "1", "--c", "100", "--width", "16", "--height", "12"]
        err = self._run(tmp_path, capsys, argv)
        assert err == "texscreen: warning: 6 of 6 folds stopped at the pass cap (--max-iter 1)\n"

    def test_sweep_capped_run_warns(self, tmp_path, capsys):
        argv = ["sweep", "--max-iter", "1", "--c", "100", "--resolutions", "8x6,16x12"]
        err = self._run(tmp_path, capsys, argv)
        assert err.startswith("texscreen: warning: ")
        assert err.endswith(" of 36 folds stopped at the pass cap (--max-iter 1)\n")

    def test_default_runs_are_silent(self, tmp_path, capsys):
        loocv = ["loocv", "--width", "16", "--height", "12"]
        assert self._run(tmp_path / "l", capsys, loocv) == ""
        assert self._run(tmp_path / "s", capsys, ["sweep", "--resolutions", "8x6,16x12"]) == ""


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
