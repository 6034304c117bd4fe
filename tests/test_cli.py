import dataclasses
import io
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from click.testing import CliRunner

from driftwatch import cli, detector
from driftwatch.cli import (
    DetectorConfig,
    _parse_scalar,
    _parse_vector,
    detect,
    main,
    run_detect,
)
from driftwatch.detector import fit_static, load_checkpoint, score, update_online
from driftwatch.errors import InvalidInputError
from driftwatch import pewma
from driftwatch.pewma import (
    INV_SQRT_2PI,
    LOG_INV_SQRT_2PI,
    PewmaParams,
    Verdict,
    pewma_init,
    pewma_step,
)
from driftwatch.harness import (
    SHIFT_KINDS,
    ShiftSpec,
    gen_random_stream,
    gen_shift_stream,
    run_experiment_1,
)
from test_detector import awkward_stream, open_on_a_full_disk


@pytest.fixture
def runner():
    return CliRunner()


def simulate(runner, *args):
    result = runner.invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.stderr
    return result.stdout


def univariate_input(values):
    return "\n".join(f"{v:.17g}" for v in values) + "\n"


# RFC 8259 section 6: the oracle for the lines a CSV verdict echoes as written.
# No possessive quantifiers: Python 3.10 lacks them.
JSON_NUMBER = re.compile(r"-?(?:0|[1-9][0-9]*)(?:\.[0-9]+)?(?:[eE][-+]?[0-9]+)?")
PLAIN_NUMBERS = re.compile(f"{JSON_NUMBER.pattern}(?:,{JSON_NUMBER.pattern})*")


class TestSimulate:
    def test_deterministic(self, runner):
        args = ["--kind", "abrupt-transient", "--count", "50", "--seed", "11"]
        assert simulate(runner, *args) == simulate(runner, *args)

    @pytest.mark.parametrize("dim", [1, 3])
    @pytest.mark.parametrize("kind", SHIFT_KINDS)
    def test_matches_generator_exactly(self, runner, kind, dim):
        out = simulate(runner, "--kind", kind, "--count", "40", "--seed", "5", "--at", "0.5",
                       "--magnitude", "2.0", "--ramp", "7", "--dim", str(dim))
        values = np.array([[float(v) for v in line.split(",")] for line in out.splitlines()])
        spec = ShiftSpec(kind=kind, at=0.5, magnitude=2.0, ramp=7)
        np.testing.assert_array_equal(values, gen_shift_stream(40, dim, 5, spec))

    def test_transient_deviates_in_exactly_one_line(self, runner):
        base = simulate(runner, "--kind", "abrupt-transient", "--count", "100",
                        "--seed", "7", "--magnitude", "0")
        bumped = simulate(runner, "--kind", "abrupt-transient", "--count", "100",
                          "--seed", "7", "--magnitude", "4")
        differing = [
            i for i, (a, b) in enumerate(zip(base.splitlines(), bumped.splitlines())) if a != b
        ]
        assert differing == [50]

    def test_multivariate_shape(self, runner):
        out = simulate(runner, "--kind", "abrupt-transient", "--count", "10", "--dim", "3")
        lines = out.splitlines()
        assert len(lines) == 10
        assert all(len(line.split(",")) == 3 for line in lines)

    def test_jsonl_format(self, runner):
        out = simulate(runner, "--kind", "abrupt-transient", "--count", "10", "--dim", "2",
                       "--format", "jsonl")
        rows = [json.loads(line) for line in out.splitlines()]
        assert len(rows) == 10 and all(len(row) == 2 for row in rows)

    def test_invalid_spec_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--kind", "abrupt-transient", "--at", "1.5"])
        assert result.exit_code == 2

    def test_too_short_stream_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--kind", "abrupt-transient", "--count", "5"])
        assert result.exit_code == 2

    def test_negative_seed_is_usage_error(self, runner):
        result = runner.invoke(main, ["simulate", "--kind", "abrupt-transient", "--seed", "-1"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "seed must be >= 0" in result.stderr


class TestDetectDefaults:
    def test_config_takes_the_library_defaults(self):
        # The PEWMA fields and their defaults are PewmaParams' own: declared once.
        assert set(DetectorConfig.__annotations__) == {"tau", "mode", "static_count_points"}
        assert DetectorConfig().tau is None
        assert DetectorConfig(tau=None, mode="multivariate").tau is None

    def test_flags_default_to_the_config(self):
        flags = {p.name: p.default for p in detect.params}
        for field in dataclasses.fields(DetectorConfig):
            assert flags[field.name] == field.default, field.name


class TestDetectUnivariate:
    def test_constant_stream_has_no_anomalies(self, runner):
        result = runner.invoke(main, ["detect"], input=univariate_input([5.0] * 100))
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 100
        assert all(line.endswith(",false") for line in lines)

    def test_outlier_after_warmup_is_flagged(self, runner):
        rng = np.random.default_rng(3)
        stream = list(rng.standard_normal(300))
        stream.append(4.0)  # roughly mean + 4 sigma for this history
        result = runner.invoke(main, ["detect"], input=univariate_input(stream))
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[-1].endswith(",true")

    def test_indices_are_sequential(self, runner):
        result = runner.invoke(main, ["detect"], input=univariate_input([1.0, 2.0, 3.0]))
        indices = [int(line.split(",")[0]) for line in result.stdout.splitlines()]
        assert indices == [0, 1, 2]

    def test_malformed_lines_skipped_with_diagnostics(self, runner):
        result = runner.invoke(main, ["detect"], input="1.0\nnot-a-number\n2.0\nnan\n3.0\n")
        assert result.exit_code == 1
        assert len(result.stdout.splitlines()) == 3
        assert "line 2: skipped" in result.stderr
        assert "line 4: skipped" in result.stderr

    def test_header_flag_skips_first_line(self, runner):
        result = runner.invoke(main, ["detect", "--header"], input="value\n1.0\n2.0\n")
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 2

    def test_blank_lines_ignored(self, runner):
        result = runner.invoke(main, ["detect"], input="1.0\n\n2.0\n\n")
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 2

    def test_jsonl_records(self, runner):
        result = runner.invoke(main, ["detect", "--format", "jsonl"],
                               input=univariate_input([1.0, 1.0, 1.0]))
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert rows[0]["index"] == 0
        assert rows[0]["values"] == [1.0]
        assert rows[2]["score"] == pytest.approx(1.0 / math.sqrt(2 * math.pi), rel=1e-12)
        assert rows[2]["is_anomaly"] is False

    def test_bad_alpha_is_usage_error(self, runner):
        result = runner.invoke(main, ["detect", "--alpha", "1.5"], input="1.0\n")
        assert result.exit_code == 2

    @pytest.mark.parametrize("floor", ["1e-170", "1e200"])
    def test_sigma_floor_whose_square_is_not_a_positive_float_runs(self, runner, floor):
        # The floor clamps sqrt(var), so its square, 0 or inf here, is never formed.
        result = runner.invoke(main, ["detect", "--sigma-floor", floor], input="1\n1\n1\n2\n")
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 4
        assert "Traceback" not in result.stderr

    def test_first_verdict_is_not_mutated(self):
        # Every stream's first verdict is the one shared module constant.
        out = io.StringIO()
        run_detect(univariate_input([2.0, 2.5, 1.5] * 20).splitlines(), DetectorConfig(), out,
                   io.StringIO())
        assert len(out.getvalue().splitlines()) == 60
        assert pewma.FIRST_VERDICT == Verdict(LOG_INV_SQRT_2PI, INV_SQRT_2PI, 0.0, False)


class TestDetectMultivariate:
    @staticmethod
    def stream_text(count, dim, seed, tail=(), scale=1.0):
        rows = [*gen_random_stream(count, dim, seed), *tail]
        return "\n".join(",".join(f"{v:.17g}" for v in row * scale) for row in rows) + "\n"

    def test_static_buffer_produces_no_output(self, runner):
        text = self.stream_text(250, 2, seed=0)
        result = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "200"], input=text
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 50
        assert int(lines[0].split(",")[0]) == 200

    def test_far_point_flagged_under_auto_tau(self, runner):
        text = self.stream_text(200, 2, seed=1, tail=[np.array([10.0, 10.0])])
        result = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "200"], input=text
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith(",true")

    def test_tiny_scale_prints_every_verdict(self, runner):
        # log |C| is about -2300 here, so the density at distance 3 overflows.
        text = self.stream_text(130, 50, seed=7, scale=1e-10)
        result = runner.invoke(main, ["detect", "--mode", "multivariate"], input=text)
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.splitlines()
        assert [int(line.split(",")[0]) for line in lines] == list(range(100, 130))

    def test_far_point_flagged_at_huge_scale(self, runner):
        # log |C| is about 1700 here, so the density at distance 3 underflows.
        far = np.zeros(15)
        far[0] = 100.0
        text = self.stream_text(120, 15, seed=8, tail=[far], scale=1e25)
        result = runner.invoke(main, ["detect", "--mode", "multivariate"], input=text)
        assert result.exit_code == 0, result.stderr
        lines = result.stdout.splitlines()
        assert len(lines) == 21
        assert lines[-1].startswith("120,") and lines[-1].endswith(",true")

    def test_dimension_change_is_fatal(self, runner):
        result = runner.invoke(
            main,
            ["detect", "--mode", "multivariate", "--static-points", "5"],
            input="1,2\n3,4\n5,6,7\n",
        )
        assert result.exit_code == 2
        assert "dimension changed" in result.stderr

    def test_dimension_change_saves_the_model(self, runner, tmp_path):
        # The fatal line takes no index: the checkpoint counts the 150 points
        # before it, and resuming after it prints what a run without it prints.
        lines = simulate(runner, "--kind", "abrupt-distributional", "--dim", "3",
                         "--count", "300", "--seed", "1").splitlines(keepends=True)
        cut = lines[150].rsplit(",", 1)[0] + "\n"
        ckpt = tmp_path / "model.ckpt"
        args = ["detect", "--mode", "multivariate", "--checkpoint", str(ckpt)]
        result = runner.invoke(main, args, input="".join(lines[:150] + [cut]))
        assert result.exit_code == 2
        assert "line 151: fatal: dimension changed from 3 to 2" in result.stderr
        model, points = load_checkpoint(ckpt)
        assert (model.n, points) == (150, 150)

        resumed = runner.invoke(main, args, input="".join(lines[151:]))
        whole = runner.invoke(main, ["detect", "--mode", "multivariate"],
                              input="".join(lines[:150] + lines[151:]))
        assert resumed.exit_code == whole.exit_code == 0
        assert resumed.stdout.splitlines() == whole.stdout.splitlines()[50:]
        assert resumed.stdout.startswith("150,")

    def test_checkpoint_run_ending_in_the_static_buffer_is_fatal(self, runner, tmp_path):
        # No model to save: exit 0 would let a resumed run fit on later points
        # and number them from 0.
        lines = simulate(runner, "--kind", "abrupt-distributional", "--dim", "3",
                         "--count", "300", "--seed", "1").splitlines(keepends=True)
        ckpt = tmp_path / "model.ckpt"
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--checkpoint",
                                      str(ckpt)], input="".join(lines[:50]))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr == ("fatal: stream ended after 50 of 100 static points; "
                                 "no checkpoint written\n")
        assert list(tmp_path.iterdir()) == []

    def test_insufficient_static_points_is_fatal(self, runner):
        text = self.stream_text(10, 4, seed=2)
        result = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "3"], input=text
        )
        assert result.exit_code == 2
        assert "static fit failed" in result.stderr

    def test_checkpoint_saved_and_resumed(self, runner, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        first = self.stream_text(220, 2, seed=3)
        result = runner.invoke(
            main,
            ["detect", "--mode", "multivariate", "--static-points", "200",
             "--checkpoint", str(ckpt)],
            input=first,
        )
        assert result.exit_code == 0
        model = load_checkpoint(ckpt)[0]
        assert model.m == 2 and model.n == 220

        # Second invocation resumes: every point is scored, none buffered.
        second = self.stream_text(30, 2, seed=4)
        result = runner.invoke(
            main,
            ["detect", "--mode", "multivariate", "--static-points", "200",
             "--checkpoint", str(ckpt)],
            input=second,
        )
        assert result.exit_code == 0
        resumed = result.stdout.splitlines()
        assert len(resumed) == 30
        assert load_checkpoint(ckpt)[0].n == 250

        # The resumed verdicts equal those of one uninterrupted run, byte for
        # byte, index included: the checkpoint carries the count of points read.
        whole = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "200"],
            input=first + second,
        )
        assert resumed == whole.stdout.splitlines()[-30:]
        assert resumed[0].startswith("220,")

    @pytest.mark.parametrize("process", [False, True], ids=["runner", "process"])
    def test_unsavable_checkpoint_is_fatal_after_every_verdict(self, runner, tmp_path, process):
        # A directory at PATH.tmp passes the up-front path rule, so only the
        # save at the end fails: a fatal line and exit 2, not a traceback, after
        # every verdict, and the directory left as it was.
        (tmp_path / "model.ckpt.tmp").mkdir()
        text = simulate(runner, "--kind", "abrupt-transient", "--dim", "3", "--count", "120")
        args = ["detect", "--mode", "multivariate", "--checkpoint", str(tmp_path / "model.ckpt")]
        if process:
            src = Path(__file__).resolve().parents[1] / "src"
            run = subprocess.run([sys.executable, "-m", "driftwatch.cli", *args], input=text,
                                 capture_output=True, text=True, timeout=120,
                                 env={**os.environ, "PYTHONPATH": str(src)})
            code, out, err = run.returncode, run.stdout, run.stderr
        else:
            result = runner.invoke(main, args, input=text)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            code, out, err = result.exit_code, result.stdout, result.stderr
        whole = runner.invoke(main, args[:3], input=text)
        assert code == 2
        assert out == whole.stdout and len(out.splitlines()) == 20
        assert err.startswith("fatal: checkpoint not saved: ") and "Is a directory" in err
        assert "Traceback" not in err and len(err.splitlines()) == 1
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt.tmp"]
        assert (tmp_path / "model.ckpt.tmp").is_dir()

    def test_resumed_run_whose_save_fails_keeps_the_old_checkpoint(self, runner, tmp_path,
                                                                   monkeypatch):
        # A full disk during the save: exit 2 after every verdict, and the
        # checkpoint the run resumed from is left byte for byte.
        lines = simulate(runner, "--kind", "abrupt-distributional", "--dim", "3",
                         "--count", "300", "--seed", "1").splitlines(keepends=True)
        ckpt = tmp_path / "model.ckpt"
        args = ["detect", "--mode", "multivariate", "--checkpoint", str(ckpt)]
        assert runner.invoke(main, args, input="".join(lines[:150])).exit_code == 0
        saved = ckpt.read_bytes()
        monkeypatch.setattr(detector, "open", open_on_a_full_disk, raising=False)
        resumed = runner.invoke(main, args, input="".join(lines[150:]))
        monkeypatch.undo()
        whole = runner.invoke(main, args[:3], input="".join(lines))
        assert resumed.exit_code == 2
        assert resumed.stderr == "fatal: checkpoint not saved: [Errno 28] No space left on device\n"
        assert resumed.stdout.splitlines() == whole.stdout.splitlines()[50:]
        assert ckpt.read_bytes() == saved
        assert [p.name for p in tmp_path.iterdir()] == ["model.ckpt"]

    def test_malformed_and_non_finite_lines_skipped(self, runner):
        lines = self.stream_text(130, 3, seed=9).splitlines()
        args = ["detect", "--mode", "multivariate"]
        bad = lines[:50] + ["1,abc,3"] + lines[50:119] + ["1,nan,3"] + lines[119:]
        result = runner.invoke(main, args, input="\n".join(bad) + "\n")
        assert result.exit_code == 1
        assert result.stderr.splitlines() == [
            "line 51: skipped: could not convert string to float: 'abc'",
            "line 121: skipped: non-finite value in '1,nan,3'",
        ]
        clean = runner.invoke(main, args, input="\n".join(lines) + "\n")
        assert clean.exit_code == 0
        assert result.stdout == clean.stdout

    @pytest.mark.parametrize("tau", ["-1", "nan", "inf"])
    @pytest.mark.parametrize("count", [0, 150])
    def test_bad_tau_rejected_before_reading_input(self, runner, tau, count):
        text = self.stream_text(count, 3, seed=10) if count else ""
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--tau", tau],
                               input=text)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "tau must be finite and >= 0" in result.stderr

    def test_bad_tau_reads_no_line(self):
        lines = iter(["1,2\n"] * 150)
        with pytest.raises(InvalidInputError):
            run_detect(lines, DetectorConfig(mode="multivariate", tau=-1.0), io.StringIO(),
                       io.StringIO())
        assert len(list(lines)) == 150

    @pytest.mark.parametrize("setting", [{"alpha": 7.0}, {"beta": -0.5}, {"warmup_T": -3},
                                         {"sigma_floor": 0.0}])
    def test_bad_pewma_setting_reads_no_line(self, setting):
        # Every flag is checked in both modes, not only the ones a mode uses.
        lines = iter(["1,2\n"] * 150)
        with pytest.raises(InvalidInputError, match="must be"):
            run_detect(lines, DetectorConfig(mode="multivariate", **setting), io.StringIO(),
                       io.StringIO())
        assert len(list(lines)) == 150

    @pytest.mark.parametrize("mode", ["univariate", "multivariate"])
    @pytest.mark.parametrize("static_points", ["1", "0", "-3"])
    @pytest.mark.parametrize("count", [0, 150])
    def test_static_points_below_two_rejected_before_reading_input(self, runner, mode,
                                                                   static_points, count):
        text = self.stream_text(count, 3, seed=10) if count else ""
        result = runner.invoke(
            main, ["detect", "--mode", mode, "--static-points", static_points], input=text,
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"static points must be >= 2, got {static_points}" in result.stderr

    def test_static_points_below_two_reads_no_line(self):
        lines = iter(["1,2\n"] * 150)
        with pytest.raises(InvalidInputError, match="static points"):
            run_detect(lines, DetectorConfig(mode="multivariate", static_count_points=1),
                       io.StringIO(), io.StringIO())
        assert len(list(lines)) == 150

    def test_singular_static_fit_is_fatal(self, runner):
        # Three equal columns at scale 1e20: the absolute jitter of 1e-10 is far
        # below the QR's rank tolerance, so the rank-one covariance never factorizes.
        column = np.random.default_rng(11).normal(0.0, 1e20, 100)
        text = "".join(f"{v:.17g},{v:.17g},{v:.17g}\n" for v in column)
        result = runner.invoke(main, ["detect", "--mode", "multivariate"], input=text)
        assert result.exit_code == 2
        assert result.stdout == ""
        assert result.stderr.startswith("fatal: static fit failed: ")

    def test_non_ascii_checkpoint_is_usage_error(self, runner, tmp_path):
        ckpt = tmp_path / "model.ckpt"
        ckpt.write_bytes(b"\xef\xbb\xbfdriftwatch-model 5\n")  # a byte-order mark first
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--checkpoint",
                                      str(ckpt)], input=self.stream_text(110, 2, seed=12))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "does not start with" in result.stderr

    @pytest.mark.parametrize("target", [".", "missing/model.ckpt", None])
    def test_checkpoint_path_that_cannot_be_saved_is_usage_error(self, runner, tmp_path, target):
        # A directory, a file in a directory that does not exist, or the empty
        # path: each is refused before any input is read, not after every verdict,
        # and by run_detect's one rule, which the CLI does not duplicate.
        ckpt = "" if target is None else str(tmp_path / target)
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--checkpoint", ckpt],
                               input=self.stream_text(110, 2, seed=12))
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"Error: --checkpoint {ckpt!r}: cannot save a file there" in result.stderr
        assert list(tmp_path.iterdir()) == []

    def test_checkpoint_requires_multivariate(self, runner, tmp_path):
        result = runner.invoke(
            main, ["detect", "--checkpoint", str(tmp_path / "x")], input="1.0\n"
        )
        assert result.exit_code == 2

    def test_run_detect_refuses_a_univariate_checkpoint(self, tmp_path):
        lines = iter(["1.0\n"] * 50)
        out = io.StringIO()
        with pytest.raises(InvalidInputError, match="requires --mode multivariate"):
            run_detect(lines, DetectorConfig(), out, io.StringIO(),
                       checkpoint=str(tmp_path / "x.ckpt"))
        assert len(list(lines)) == 50
        assert out.getvalue() == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("target", [".", "missing/x.ckpt", None])
    def test_run_detect_refuses_an_unsavable_checkpoint_before_reading(self, tmp_path, target):
        # Not after printing every verdict, when the save fails and the model is
        # lost; an existing directory is refused too, not read as a checkpoint.
        checkpoint = "" if target is None else str(tmp_path / target)
        lines = iter(self.stream_text(150, 3, seed=12).splitlines(keepends=True))
        out, err = io.StringIO(), io.StringIO()
        with pytest.raises(InvalidInputError, match="cannot save a file there"):
            run_detect(lines, DetectorConfig(mode="multivariate"), out, err,
                       checkpoint=checkpoint)
        assert len(list(lines)) == 150
        assert out.getvalue() == err.getvalue() == ""
        assert list(tmp_path.iterdir()) == []

    def test_run_detect_refuses_an_unknown_mode_before_reading(self):
        # Not a silent multivariate run: the mode is matched exactly.
        lines = iter(self.stream_text(150, 3, seed=12).splitlines(keepends=True))
        out = io.StringIO()
        with pytest.raises(InvalidInputError, match="unknown mode 'Univariate'"):
            run_detect(lines, DetectorConfig(mode="Univariate"), out, io.StringIO())
        assert len(list(lines)) == 150
        assert out.getvalue() == ""

    @pytest.mark.parametrize("mode", ["univariate", "multivariate"])
    @pytest.mark.parametrize("fmt", ["json", "CSV", ""])
    def test_run_detect_refuses_an_unknown_format_before_reading(self, mode, fmt):
        # Not a silent CSV run: only "csv" and "jsonl" are formats.
        lines = iter(["1.0\n"] * 50)
        out = io.StringIO()
        with pytest.raises(InvalidInputError, match=f"unknown format {fmt!r}"):
            run_detect(lines, DetectorConfig(mode=mode), out, io.StringIO(), fmt=fmt)
        assert len(list(lines)) == 50
        assert out.getvalue() == ""

    def test_huge_point_does_not_end_the_stream(self, runner, tmp_path):
        self.check_huge_point_refused(runner, tmp_path, "1e200")

    def test_one_overflowing_line_does_not_end_the_stream(self, runner):
        # Row 220 of this stream is about 2e200 per entry, and its dᵀC⁻¹d
        # overflows to -inf. It must be refused: absorbing it would move the
        # mean to about 1e197 and flag every later point.
        rows = awkward_stream("spikes", 626, 3, seed=1)[:606]
        text = "".join(",".join(f"{v:.17g}" for v in row) + "\n" for row in rows)
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--static-points", "6"],
                               input=text)
        assert result.exit_code == 0, result.stderr
        flags = [line.endswith(",true") for line in result.stdout.splitlines()]
        assert len(flags) == 600
        before, after = flags[: 220 - 6], flags[220 - 6 + 1 :]
        assert sum(after) / len(after) <= 2 * sum(before) / len(before)

    @pytest.mark.parametrize("value", ["1e12", "1e30"])
    def test_huge_finite_point_is_refused(self, runner, tmp_path, value):
        # Finite, but its rank-one term would swamp the covariance.
        self.check_huge_point_refused(runner, tmp_path, value)

    def check_huge_point_refused(self, runner, tmp_path, value):
        lines = self.stream_text(129, 3, seed=5).splitlines()
        args = ["detect", "--mode", "multivariate"]
        ckpt = tmp_path / "model.ckpt"
        huge = runner.invoke(
            main,
            [*args, "--checkpoint", str(ckpt)],
            input="\n".join(lines[:110] + [",".join([value] * 3)] + lines[110:]) + "\n",
        )
        assert huge.exit_code == 0, huge.stderr
        verdicts = huge.stdout.splitlines()
        assert len(verdicts) == 30
        assert verdicts[10].startswith("110,") and verdicts[10].endswith(",true")
        assert load_checkpoint(ckpt)[0].n == 129
        assert load_checkpoint(ckpt)[1] == 130  # the refused point was read too
        without = runner.invoke(main, args, input="\n".join(lines) + "\n").stdout.splitlines()
        log_score = lambda row: row.split(",")[-2]
        assert [log_score(r) for r in verdicts[11:]] == [log_score(r) for r in without[10:]]

    def test_jsonl_records(self, runner):
        text = self.stream_text(45, 3, seed=6)
        result = runner.invoke(
            main,
            ["detect", "--mode", "multivariate", "--static-points", "40", "--format", "jsonl"],
            input=text,
        )
        assert result.exit_code == 0
        rows = [json.loads(line) for line in result.stdout.splitlines()]
        assert len(rows) == 5
        assert rows[0]["index"] == 40 and len(rows[0]["values"]) == 3
        assert {"score", "log_score", "is_anomaly"} <= rows[0].keys()

    def test_jsonl_writes_non_finite_scores_as_null(self, runner):
        # At scale 1e-30 every density overflows, and the 1e300 row's
        # log-density is -inf: JSON has neither, so both are null.
        rows = gen_random_stream(130, 15, seed=0) * 1e-30
        rows[120] = 1e300
        text = "\n".join(",".join(f"{v:.17g}" for v in row) for row in rows) + "\n"
        args = ["detect", "--mode", "multivariate"]
        result = runner.invoke(main, [*args, "--format", "jsonl"], input=text)
        assert result.exit_code == 0

        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        records = [json.loads(line, parse_constant=refuse) for line in result.stdout.splitlines()]
        assert [r["index"] for r in records] == list(range(100, 130))
        assert [r["index"] for r in records if r["score"] is None] == \
            [i for i in range(100, 130) if i != 120]
        assert [r["index"] for r in records if r["log_score"] is None] == [120]
        assert records[20]["is_anomaly"] is True
        # The CSV keeps inf and -inf.
        csv = runner.invoke(main, args, input=text).stdout.splitlines()
        assert csv[0].split(",")[-3] == "inf" and csv[20].split(",")[-2] == "-inf"


class TestLineReader:
    """Both modes read their input through one reader: the header and blank
    lines are passed over, a malformed line is reported by number and
    skipped, and verdict indices stay contiguous across the gaps."""

    @pytest.mark.parametrize("header", [False, True])
    def test_both_modes_skip_the_same_lines(self, runner, header):
        values = gen_random_stream(30, 1, seed=8)[:, 0]
        lines = [f"{v:.17g}" for v in values]
        malformed = ("abc", "nan", "-inf", "1e999")
        for at, bad in zip((3, 6, 10, 14, 20, 25), ("", "abc", "   ", "nan", "-inf", "1e999")):
            lines.insert(at, bad)
        text = "\n".join((["value"] if header else []) + lines) + "\n"
        expected = [f"line {i + 1 + header}" for i, line in enumerate(lines) if line in malformed]

        flags = ["--static-points", "5"] + (["--header"] if header else [])
        outputs = {}
        for mode, first_index in (("univariate", 0), ("multivariate", 5)):
            result = runner.invoke(main, ["detect", "--mode", mode, *flags], input=text)
            assert result.exit_code == 1
            skipped = [line.partition(": skipped: ")[0] for line in result.stderr.splitlines()]
            assert skipped == expected, mode
            indices = [int(row.split(",")[0]) for row in result.stdout.splitlines()]
            assert indices == list(range(first_index, 30)), mode
            outputs[mode] = [row.split(",")[1] for row in result.stdout.splitlines()]
        assert outputs["multivariate"] == outputs["univariate"][5:]


    @staticmethod
    def numpy_rule(text):
        """Numpy's cast of the tokens, then isfinite: the reference for ``_parse_vector``."""
        values = np.array(text.split(","), dtype=np.float64)
        if not np.isfinite(values).all():
            raise ValueError(f"non-finite value in {text!r}")
        return values.tolist()

    @pytest.mark.parametrize("text", [
        # The benchmark's malformed tokens, then tokens where the two parsers could part.
        "nan", "inf", "-inf", "1e999", "NaN", "abc", "1.2.3", "--1",
        "1_0", "１", "١٢", " 2 ", "0x10", "1e", "", "True", "1j", "1,,2",
        "1_0,１, 2 ,١٢,-0.5e-3",
    ])
    def test_vector_parse_matches_numpys_cast(self, text):
        # The parsed values, or the message after "line N: skipped: ".
        outcomes = []
        for parse in (lambda line: _parse_vector(line)[1], self.numpy_rule):
            try:
                outcomes.append(parse(text))
            except ValueError as exc:
                outcomes.append(f"skipped: {exc}")
        assert outcomes[0] == outcomes[1]


class TestUndecodableInput:
    """A line that is not valid UTF-8 is one malformed line: it is reported
    and skipped, and the stream goes on."""

    @pytest.mark.parametrize("header", [False, True])
    @pytest.mark.parametrize("mode,first_index", [("univariate", 0), ("multivariate", 5)])
    def test_bad_bytes_skip_one_line(self, runner, mode, first_index, header):
        lines = [f"{v:.17g}".encode() for v in gen_random_stream(20, 1, seed=13)[:, 0]]
        if header:
            lines.insert(0, b"value")
        args = ["detect", "--mode", mode, "--static-points", "5"] + (["--header"] if header else [])
        clean = runner.invoke(main, args, input=b"\n".join(lines) + b"\n")
        assert clean.exit_code == 0
        lines.insert(8, b"\xff\xfe")
        result = runner.invoke(main, args, input=b"\n".join(lines) + b"\n")
        assert result.exit_code == 1
        assert result.stderr.startswith("line 9: skipped: ")
        assert len(result.stderr.splitlines()) == 1
        assert result.stdout == clean.stdout
        assert int(result.stdout.split(",", 1)[0]) == first_index


class TestCutAndResume:
    """A multivariate stream with skipped lines and re-formatted points, cut
    anywhere past the static buffer and resumed from its checkpoint, prints
    what the run that was never cut prints, byte for byte, and leaves the same
    checkpoint file; each part reports the skips in its own lines."""

    @staticmethod
    def stream() -> list[str]:
        rng = random.Random(20261021)
        lines = []
        for i in range(400):
            row = [repr(rng.gauss(5.0 if i >= 250 else 0.0, 1.0)) for _ in range(3)]
            if rng.random() < 0.05:  # still a point, but not echoed
                row[rng.randrange(3)] = rng.choice(["+.5", "1_0"])
            lines.append(",".join(row) + "\n")
            if rng.random() < 0.04:
                lines.append(rng.choice(["1,abc,3\n", "1,nan,3\n", "1,,3\n", "\n"]))
        return lines

    @staticmethod
    def detect(runner, ckpt, lines):
        return runner.invoke(main, ["detect", "--mode", "multivariate", "--checkpoint", str(ckpt)],
                             input="".join(lines))

    @staticmethod
    def skips(result, offset=0):
        """The (line number in the whole stream, reason) of each skipped line;
        the exit code says whether there were any."""
        found = [re.fullmatch(r"line (\d+): (skipped: .*)", line).groups()
                 for line in result.stderr.splitlines()]
        assert result.exit_code == (1 if found else 0), result.stderr
        return [(int(number) + offset, reason) for number, reason in found]

    def test_random_cuts(self, runner, tmp_path):
        lines = self.stream()
        whole = self.detect(runner, tmp_path / "whole.ckpt", lines)
        whole_skips = self.skips(whole)
        assert len(whole_skips) >= 5
        assert ",0.5," in whole.stdout and ",10," in whole.stdout  # re-formatted points
        skipped = {number for number, _ in whole_skips}
        points = [n for n, line in enumerate(lines, 1) if line.strip() and n not in skipped]
        for cut in random.Random(20261022).sample(range(points[99], len(lines)), 20):
            ckpt = tmp_path / f"cut-{cut}.ckpt"
            head = self.detect(runner, ckpt, lines[:cut])
            tail = self.detect(runner, ckpt, lines[cut:])
            assert head.stdout + tail.stdout == whole.stdout, cut
            assert ckpt.read_bytes() == (tmp_path / "whole.ckpt").read_bytes(), cut
            assert self.skips(head) + self.skips(tail, cut) == whole_skips, cut

    def test_cut_at_a_wrong_width_line(self, runner, tmp_path):
        # The fatal line takes no index: the checkpoint counts the points
        # before it, and the run resumed after it prints what a run without it
        # prints.
        lines = self.stream()
        ckpt = tmp_path / "model.ckpt"
        head = self.detect(runner, ckpt, [*lines[:300], "1,2\n"])
        assert head.exit_code == 2
        assert head.stderr.endswith("line 301: fatal: dimension changed from 3 to 2\n")
        consumed = load_checkpoint(ckpt)[1]
        assert consumed == 100 + len(head.stdout.splitlines())
        tail = self.detect(runner, ckpt, lines[300:])
        assert tail.stdout.startswith(f"{consumed},")
        whole = self.detect(runner, tmp_path / "whole.ckpt", lines)
        assert head.stdout + tail.stdout == whole.stdout
        assert ckpt.read_bytes() == (tmp_path / "whole.ckpt").read_bytes()


class TestByteOrderMark:
    """Input that starts with a UTF-8 byte-order mark reads as the same input
    without it, from stdin or a file; a mark anywhere else is part of its line."""

    BOM = b"\xef\xbb\xbf"

    @staticmethod
    def stream(mode) -> bytes:
        points = gen_random_stream(30, 1 if mode == "univariate" else 3, seed=14)
        return "".join(",".join(repr(float(v)) for v in row) + "\n" for row in points).encode()

    @pytest.mark.parametrize("source", ["stdin", "file", "process"])
    @pytest.mark.parametrize("mode", ["univariate", "multivariate"])
    def test_leading_mark_is_not_part_of_the_first_line(self, runner, tmp_path, mode, source):
        args = ["detect", "--mode", mode, "--static-points", "5"]
        data = self.stream(mode)
        clean = runner.invoke(main, args, input=data)
        assert clean.exit_code == 0 and clean.stderr == ""
        if source == "process":  # the process's own stdin, not CliRunner's stand-in
            src = Path(__file__).resolve().parents[1] / "src"
            run = subprocess.run([sys.executable, "-m", "driftwatch.cli", *args],
                                 input=self.BOM + data, capture_output=True, timeout=120,
                                 env={**os.environ, "PYTHONPATH": str(src)})
            outcome = (run.returncode, run.stdout.decode(), run.stderr.decode())
        else:
            if source == "file":
                (tmp_path / "points.csv").write_bytes(self.BOM + data)
                result = runner.invoke(main, [*args, str(tmp_path / "points.csv")])
            else:
                result = runner.invoke(main, args, input=self.BOM + data)
            outcome = (result.exit_code, result.stdout, result.stderr)
        assert outcome == (0, clean.stdout, "")

    @pytest.mark.parametrize("mode", ["univariate", "multivariate"])
    def test_mark_after_the_first_line_is_skipped(self, runner, mode):
        args = ["detect", "--mode", mode, "--static-points", "5"]
        lines = self.stream(mode).splitlines(keepends=True)
        result = runner.invoke(main, args, input=b"".join([*lines[:9], self.BOM + lines[9],
                                                            *lines[10:]]))
        assert result.exit_code == 1
        first = lines[9].decode().split(",")[0].strip()  # the field that holds the mark
        assert result.stderr == \
            f"line 10: skipped: could not convert string to float: '\\ufeff{first}'\n"
        without = runner.invoke(main, args, input=b"".join(lines[:9] + lines[10:]))
        assert result.stdout == without.stdout


class TestNumpyOnFirstUse:
    # A fresh interpreter, warnings as errors: univariate detect never loads
    # numpy, and the first multivariate call loads it and scores a point whose
    # d² overflows under the errstate scope that call builds.
    SCRIPT = """
import io, sys
import driftwatch, driftwatch.cli as cli
out = io.StringIO()
code = cli.run_detect(["1\\n", "x\\n", "2\\n"], cli.DetectorConfig(), out, io.StringIO())
assert code == 1 and len(out.getvalue().splitlines()) == 2, (code, out.getvalue())
assert "numpy" not in sys.modules
out = io.StringIO()
config = cli.DetectorConfig(mode="multivariate", static_count_points=3)
lines = ["1,2\\n", "2,1\\n", "0,0\\n", "1e300,1e300\\n"]
code = cli.run_detect(lines, config, out, io.StringIO())
assert code == 0 and out.getvalue().endswith(",true\\n"), (code, out.getvalue())
"""

    def test_univariate_detect_leaves_numpy_unloaded(self):
        src = Path(__file__).resolve().parents[1] / "src"
        result = subprocess.run([sys.executable, "-W", "error", "-c", self.SCRIPT],
                                env={**os.environ, "PYTHONPATH": str(src)},
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""


class TestNoTraceback:
    """Seeded random byte streams through ``detect`` in both modes, with and
    without ``--header`` and ``--format jsonl``: every run exits 0, 1 or 2,
    and no exception but the command's own exit escapes."""

    TOKENS = ["0", "1", "7", "42", ".", "-", "e", "nan", "inf", "1e308", "-1e308", ",", " ",
              "x", "\x00", "\xff"]

    @classmethod
    def field(cls, rng) -> str:
        if rng.random() < 0.8:  # mostly numbers, from tiny to overflowing
            exponent = rng.choice(["", ".5", "e-300", "e307", "e308"])
            return f"{rng.choice(['', '-'])}{rng.randint(0, 99)}{exponent}"
        return "".join(rng.choice(cls.TOKENS) for _ in range(rng.randint(1, 3)))

    @classmethod
    def stream(cls, rng) -> bytes:
        fields = rng.randint(1, 3)
        lines = [
            "" if rng.random() < 0.1 else ",".join(cls.field(rng) for _ in range(fields))
            for _ in range(rng.randint(0, 16))
        ]
        newline = rng.choice(["\n", "\r\n"])
        return newline.join(lines).encode("latin-1") + newline.encode() * rng.randint(0, 1)

    def test_random_streams(self, runner):
        rng = random.Random(20261018)
        for case in range(400):
            data = self.stream(rng)
            args = ["detect", "--mode", ("univariate", "multivariate")[case % 2],
                    "--static-points", "3"]
            if case // 2 % 2:
                args.append("--header")
            if case // 4 % 2:
                args += ["--format", "jsonl"]
            result = runner.invoke(main, args, input=data)
            assert result.exit_code in (0, 1, 2), (args, data, result.exception)
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                args, data, result.exception)


class TestOutputContract:
    """Every verdict line equals a fold of the library calls, formatted value
    by value: 17 significant digits in CSV, ``json.dumps`` in JSONL. The CSV
    echoes each point's text, which here is 17-digit text already
    (``TestEchoedText`` covers other text)."""

    @staticmethod
    def line(fmt, index, values, density, log_score, flag):
        if fmt == "jsonl":
            record = {"index": index, "values": [float(v) for v in values],
                      "score": float(density), "log_score": float(log_score),
                      "is_anomaly": bool(flag)}
            return json.dumps(record) + "\n"
        floats = ",".join(f"{v:.17g}" for v in [*values, density, log_score])
        return f"{index},{floats},{'true' if flag else 'false'}\n"

    @pytest.mark.parametrize("tau", [None, 1e-9])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    @pytest.mark.parametrize("dim", [2, 15, 50])
    def test_multivariate(self, runner, dim, fmt, tau):
        rows = gen_random_stream(140, dim, seed=dim)
        rows[125:] += 2.0
        lines = [",".join(f"{v:.17g}" for v in row) for row in rows]
        lines.insert(110, ",".join(["1"] * (dim - 1) + ["x"]))
        args = ["detect", "--mode", "multivariate", "--format", fmt]
        if tau is not None:
            args += ["--tau", repr(tau)]
        result = runner.invoke(main, args, input="\n".join(lines) + "\n")
        assert result.exit_code == 1
        assert result.stderr == "line 111: skipped: could not convert string to float: 'x'\n"

        model = fit_static(rows[:100])
        expected = []
        for index, x in enumerate(rows[100:], start=100):
            verdict = score(model, x, tau)
            expected.append(self.line(fmt, index, x, verdict.density, verdict.log_density,
                                      verdict.is_anomaly))
            model = update_online(model, x)
        assert result.stdout == "".join(expected)

    @pytest.mark.parametrize("floor", [None, 1e-20, 0.5])
    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_univariate(self, runner, fmt, floor):
        spec = ShiftSpec(kind="abrupt-distributional", at=0.5, magnitude=5.0)
        values = gen_shift_stream(300, 1, 3, spec)[:, 0].tolist()
        lines = [f"{v:.17g}" for v in values]
        lines.insert(100, "abc")
        args = ["detect", "--format", fmt]
        if floor is not None:
            args += ["--sigma-floor", repr(floor)]
        result = runner.invoke(main, args, input="\n".join(lines) + "\n")
        assert result.exit_code == 1

        params = PewmaParams() if floor is None else PewmaParams(sigma_floor=floor)
        state = pewma_init(values[0], params)
        log_peak = math.log(INV_SQRT_2PI)
        expected = [self.line(fmt, 0, [values[0]], INV_SQRT_2PI, log_peak, False)]
        for index, value in enumerate(values[1:], start=1):
            z = (value - state.mean) / math.sqrt(max(state.var, params.sigma_floor**2))
            state, point = pewma_step(state, value, params)
            log_score = log_peak - 0.5 * z * z
            expected.append(self.line(fmt, index, [value], point.density, log_score,
                                      point.is_anomaly))
        assert any(row.endswith(("true\n", "true}\n")) for row in expected)
        assert result.stdout == "".join(expected)


class TestEchoedText:
    """A CSV verdict echoes a point's line as written when the line is plain
    JSON numbers (RFC 8259) separated by commas, and writes the whole point
    at 17 significant digits otherwise. Either way each value field parses
    back to the float that was scored; JSONL and checkpoints do not depend on
    how the input was written."""

    FORMS = {
        "repr": lambda row: [repr(v) for v in row],
        "17g": lambda row: [f"{v:.17g}" for v in row],
        "mixed": lambda row: [repr(v) if i % 2 else f"{v:.17g}" for i, v in enumerate(row)],
    }

    @staticmethod
    def rows(count, dim, seed):
        rows = gen_random_stream(count, dim, seed)
        rows[::5] *= 1e-9  # exponents: repr and %.17g write these differently
        return rows.tolist()

    @pytest.mark.parametrize("form", ["repr", "17g", "mixed"])
    @pytest.mark.parametrize("mode,dim,first_index", [("univariate", 1, 0),
                                                      ("multivariate", 2, 20)])
    def test_plain_numbers_are_echoed(self, runner, form, mode, dim, first_index):
        rows = [*self.rows(40, dim, seed=21), [0.1, 0.2][:dim]]
        tokens = [self.FORMS[form](row) for row in rows[:-1]] + [["0.1", "0.2"][:dim]]
        text = "".join(",".join(row) + "\n" for row in tokens)
        result = runner.invoke(main, ["detect", "--mode", mode, "--static-points", "20"],
                               input=text.replace("\n", "  \r\n", 1))
        assert result.exit_code == 0, result.stderr
        echoed = [row.split(",")[1 : 1 + dim] for row in result.stdout.splitlines()]
        assert echoed == tokens[first_index:]
        assert echoed[-1] == ["0.1", "0.2"][:dim]
        assert [[float(field) for field in fields] for fields in echoed] == rows[first_index:]

    TOKENS = ["1_0", "+.5", "1.", "01", "-.5", "\u0661", "1\u0661", "2.\u0661", "1, 2"]

    @pytest.mark.parametrize("first", [False, True])
    @pytest.mark.parametrize("token", TOKENS)
    def test_other_text_is_reformatted_whole(self, runner, token, first):
        line = f"{token},0.1" if first else f"0.1,{token}"
        values = [float(field) for field in line.split(",")]
        static = [",".join(self.FORMS["17g"](row)) for row in self.rows(10, len(values), seed=22)]
        result = runner.invoke(main, ["detect", "--mode", "multivariate", "--static-points", "10"],
                               input="\n".join([*static, line, static[0]]) + "\n")
        assert result.exit_code == 0, (result.stderr, result.exception)
        rows = result.stdout.splitlines()
        assert rows[0].startswith("10," + ",".join(f"{v:.17g}" for v in values) + ",")
        assert "0.10000000000000001" in rows[0].split(",")
        assert rows[1].startswith(f"11,{static[0]},")  # the stream goes on
        assert len(rows) == 2

    @pytest.mark.parametrize("token", [token for token in TOKENS if "," not in token]
                             + ["-", "e", ".", "+", "true", "[1]", "NaN", "-Infinity",
                                pytest.param("[" * 100_000, id="[*100000")])
    def test_other_scalar_text_is_reformatted_or_skipped(self, runner, token):
        # Each token alone is either re-formatted or skipped with float()'s
        # message (JSON's other values and constants included); the stream
        # goes on either way.
        result = runner.invoke(main, ["detect"], input=f"0.5\n{token}\n0.25\n")
        assert result.exception is None or isinstance(result.exception, SystemExit), \
            result.exception
        try:
            value = float(token)
            message = "" if math.isfinite(value) else f"non-finite value {token!r}"
        except ValueError as exc:
            message = str(exc)
        prefixes = ["0,0.5,", "1,0.25,"] if message else ["0,0.5,", f"1,{value:.17g},", "2,0.25,"]
        assert result.exit_code == (1 if message else 0)
        assert result.stderr == (f"line 2: skipped: {message}\n" if message else "")
        rows = result.stdout.splitlines()
        assert [row[: len(prefix)] for row, prefix in zip(rows, prefixes)] == prefixes
        assert len(rows) == len(prefixes)

    @pytest.mark.parametrize("mode,line,message", [
        ("univariate", "1e999", "non-finite value '1e999'"),
        ("multivariate", "0.1,1e999", "non-finite value in '0.1,1e999'"),
    ])
    def test_overflowing_number_is_rejected_not_echoed(self, runner, mode, line, message):
        assert PLAIN_NUMBERS.fullmatch(line)  # the grammar allows it; parsing refuses it
        dim = line.count(",") + 1
        lines = [",".join(self.FORMS["repr"](row)) for row in self.rows(14, dim, seed=24)]
        lines.insert(11, line)
        result = runner.invoke(main, ["detect", "--mode", mode, "--static-points", "10"],
                               input="\n".join(lines) + "\n")
        assert result.exit_code == 1
        assert result.stderr == f"line 12: skipped: {message}\n"
        assert "1e999" not in result.stdout
        first_index = 0 if mode == "univariate" else 10
        assert [int(row.split(",")[0]) for row in result.stdout.splitlines()] == \
            list(range(first_index, 14))

    @pytest.mark.parametrize("cut", [200, 231])
    def test_resumed_run_echoes_like_an_uninterrupted_one(self, runner, tmp_path, cut):
        rows = self.rows(260, 3, seed=23)
        lines = {form: [",".join(self.FORMS[form](row)) + "\n" for row in rows]
                 for form in ("repr", "17g")}
        args = ["detect", "--mode", "multivariate", "--static-points", "200"]
        whole = runner.invoke(main, args, input="".join(lines["repr"]))
        assert whole.exit_code == 0
        ckpt = tmp_path / "repr.ckpt"
        first = runner.invoke(main, [*args, "--checkpoint", str(ckpt)],
                              input="".join(lines["repr"][:cut]))
        second = runner.invoke(main, [*args, "--checkpoint", str(ckpt)],
                               input="".join(lines["repr"][cut:]))
        assert (first.exit_code, second.exit_code) == (0, 0)
        assert second.stdout.startswith(f"{cut},{lines['repr'][cut].strip()},")
        assert first.stdout + second.stdout == whole.stdout

        # JSONL and the checkpoint depend only on the parsed floats.
        jsonl = {form: runner.invoke(main, [*args, "--format", "jsonl", "--checkpoint",
                                            str(tmp_path / form)], input="".join(text)).stdout
                 for form, text in lines.items()}
        assert jsonl["repr"] == jsonl["17g"]
        assert (tmp_path / "repr").read_bytes() == (tmp_path / "17g").read_bytes()
        assert ckpt.read_bytes() == (tmp_path / "repr").read_bytes()

    def test_pattern_uses_no_syntax_newer_than_python_3_10(self):
        # Possessive quantifiers and atomic groups arrived in Python 3.11.
        for pattern in (PLAIN_NUMBERS.pattern, cli._VECTOR_CHARS.pattern):
            for token in ("*+", "++", "?+", "}+", "(?>"):
                assert token not in pattern


class TestPlainLineOracle:
    """Fuzzed lines through both parsers: each gives the values, or the skip
    message, of float() on each field, and echoes its text exactly when the
    RFC 8259 grammar matches it and every value is finite. Run once with
    json's C scanner and once with its pure-Python one, which json uses where
    the C module is missing."""

    ALPHABET = "-+.,0123456789eE _\t\u0661"

    @staticmethod
    def float_rule(text, vector):
        try:
            values = [float(field) for field in (text.split(",") if vector else [text])]
        except ValueError as exc:
            return f"skipped: {exc}"
        if not all(map(math.isfinite, values)):
            return f"skipped: non-finite value {'in ' if vector else ''}{text!r}"
        return [value.hex() for value in values]  # bit for bit, -0.0 too

    @pytest.mark.parametrize("scanner", ["c", "python"])
    def test_fuzzed_lines(self, monkeypatch, scanner):
        if scanner == "c":
            assert isinstance(cli._scan, json.scanner.c_make_scanner)
        else:
            decoder = json.JSONDecoder(parse_int=float)
            monkeypatch.setattr(cli, "_scan", json.scanner.py_make_scanner(decoder))
        rng = random.Random(20261020)
        echoed = {True: 0, False: 0}
        for _ in range(20_000):
            fields = ["".join(rng.choices(self.ALPHABET, k=rng.randint(0, 8)))
                      for _ in range(rng.randint(1, 4))]
            text = ",".join(fields).strip()  # as the line reader passes it
            if not text:
                continue
            for vector, parse, grammar in ((True, _parse_vector, PLAIN_NUMBERS),
                                           (False, _parse_scalar, JSON_NUMBER)):
                expected = self.float_rule(text, vector)
                try:
                    echo, values = parse(text)
                    outcome = [value.hex() for value in (values if vector else [values])]
                except ValueError as exc:
                    echo, outcome = None, f"skipped: {exc}"
                assert outcome == expected, (text, vector)
                plain = grammar.fullmatch(text) is not None and not isinstance(expected, str)
                assert echo == (text if plain else None), (text, vector)
                echoed[vector] += plain
        assert min(echoed.values()) >= 500, echoed  # the echo path ran, in both modes


class TestRoundTrip:
    @pytest.mark.parametrize(
        "kind", ["abrupt-transient", "abrupt-distributional", "gradual-distributional"]
    )
    def test_simulate_into_detect_univariate(self, runner, kind):
        stream = simulate(runner, "--kind", kind, "--count", "300", "--seed", "9",
                          "--ramp", "50")
        result = runner.invoke(main, ["detect"], input=stream)
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 300

    @pytest.mark.parametrize(
        "kind", ["abrupt-transient", "abrupt-distributional", "gradual-distributional"]
    )
    def test_simulate_into_detect_multivariate(self, runner, kind):
        stream = simulate(runner, "--kind", kind, "--count", "300", "--seed", "9",
                          "--dim", "3", "--ramp", "50")
        result = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "120"], input=stream
        )
        assert result.exit_code == 0
        assert len(result.stdout.splitlines()) == 300 - 120


class TestExperimentCommand:
    def test_row_count_and_header(self, runner):
        result = runner.invoke(
            main,
            ["experiment", "--which", "1", "--count", "60", "--dim", "2", "--seeds", "0,1"],
        )
        assert result.exit_code == 0
        lines = result.stdout.splitlines()
        assert lines[0] == "experiment,static_count,aad,points,seed,elapsed_ms,aad_inverse"
        assert len(lines) == 1 + 4 * 2

    def test_matches_harness_oracle_fixture(self, runner):
        result = runner.invoke(
            main, ["experiment", "--which", "1", "--count", "60", "--dim", "2", "--seeds", "42"]
        )
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        reports = run_experiment_1(gen_random_stream(60, 2, seed=42))
        for row, report in zip(rows, reports):
            assert int(row[1]) == report.static_count
            assert float(row[2]) == pytest.approx(report.aad, abs=1e-10)
            assert int(row[3]) == report.points_evaluated

    def test_protocols_share_final_prefix_row(self, runner):
        args = ["--count", "100", "--dim", "2", "--seeds", "3,4"]
        rows1 = runner.invoke(main, ["experiment", "--which", "1", *args]).stdout.splitlines()[1:]
        rows2 = runner.invoke(main, ["experiment", "--which", "2", *args]).stdout.splitlines()[1:]
        # aad column of the static_count=4 row per seed must coincide.
        pick = lambda rows: {r.split(",")[4]: r.split(",")[2] for r in rows if r.split(",")[1] == "4"}
        assert pick(rows1) == pick(rows2)

    def test_count_too_small_is_usage_error(self, runner):
        result = runner.invoke(main, ["experiment", "--which", "1", "--count", "10", "--dim", "2"])
        assert result.exit_code == 2

    @pytest.mark.parametrize(
        "args,message",
        [(["--seeds", "-1"], "seed must be >= 0"), (["--dim", "0"], "count and dim must be >= 1")],
    )
    def test_bad_generator_argument_is_usage_error(self, runner, args, message):
        result = runner.invoke(main, ["experiment", "--which", "1", *args])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert message in result.stderr

    def test_count_too_small_names_the_rows_needed(self, runner):
        args = ["experiment", "--which", "1", "--dim", "15", "--seeds", "0"]
        result = runner.invoke(main, [*args, "--count", "79"])
        assert result.exit_code == 2
        assert result.stdout == ""
        assert "79 points cannot fill 5 segments of 16 rows" in result.stderr
        assert runner.invoke(main, [*args, "--count", "80"]).exit_code == 0

    def test_empty_seed_list_is_usage_error(self, runner):
        result = runner.invoke(main, ["experiment", "--which", "1", "--seeds", ","])
        assert result.exit_code == 2
        assert "at least one seed" in result.stderr

    def test_bad_seed_list_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["experiment", "--which", "1", "--count", "60", "--dim", "2", "--seeds", "a,b"]
        )
        assert result.exit_code == 2
