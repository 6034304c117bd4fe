import dataclasses
import io
import json
import math

import numpy as np
import pytest
from click.testing import CliRunner

from driftwatch.cli import DetectorConfig, detect, main, run_detect
from driftwatch.detector import fit_static, load_model, score, update_online
from driftwatch.errors import InvalidInputError
from driftwatch.pewma import INV_SQRT_2PI, PewmaParams, pewma_init, pewma_step
from driftwatch.harness import gen_random_stream, gen_shift_stream, ShiftSpec, run_experiment_1


@pytest.fixture
def runner():
    return CliRunner()


def simulate(runner, *args):
    result = runner.invoke(main, ["simulate", *args])
    assert result.exit_code == 0, result.stderr
    return result.stdout


def univariate_input(values):
    return "\n".join(f"{v:.17g}" for v in values) + "\n"


class TestSimulate:
    def test_deterministic(self, runner):
        args = ["--kind", "abrupt-transient", "--count", "50", "--seed", "11"]
        assert simulate(runner, *args) == simulate(runner, *args)

    def test_matches_generator_exactly(self, runner):
        out = simulate(runner, "--kind", "abrupt-distributional", "--count", "40",
                       "--seed", "5", "--at", "0.5", "--magnitude", "2.0")
        values = np.array([float(line) for line in out.splitlines()])
        spec = ShiftSpec(kind="abrupt-distributional", at=0.5, magnitude=2.0)
        np.testing.assert_array_equal(values, gen_shift_stream(40, spec, seed=5))

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
        config, params = DetectorConfig(), PewmaParams()
        assert config.alpha == params.alpha
        assert config.beta == params.beta
        assert config.warmup_T == params.warmup_T
        assert config.sigma_floor == params.sigma_floor
        assert config.tau is None

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
        model = load_model(ckpt)
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
        assert load_model(ckpt).n == 250

        # The resumed verdicts equal those of one uninterrupted run, byte for
        # byte after the index field (each run numbers its own input lines).
        whole = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", "200"],
            input=first + second,
        )
        after_index = lambda rows: [row.split(",", 1)[1] for row in rows]
        assert after_index(resumed) == after_index(whole.stdout.splitlines()[-30:])

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
        config = DetectorConfig(mode="multivariate", tau=-1.0)
        with pytest.raises(InvalidInputError):
            run_detect(lines, config, io.StringIO(), io.StringIO())
        assert len(list(lines)) == 150

    @pytest.mark.parametrize("static_points", ["1", "0", "-3"])
    @pytest.mark.parametrize("count", [0, 150])
    def test_static_points_below_two_rejected_before_reading_input(self, runner, static_points,
                                                                   count):
        text = self.stream_text(count, 3, seed=10) if count else ""
        result = runner.invoke(
            main, ["detect", "--mode", "multivariate", "--static-points", static_points],
            input=text,
        )
        assert result.exit_code == 2
        assert result.stdout == ""
        assert f"static points must be >= 2, got {static_points}" in result.stderr

    def test_static_points_below_two_reads_no_line(self):
        lines = iter(["1,2\n"] * 150)
        config = DetectorConfig(mode="multivariate", static_count_points=1)
        with pytest.raises(InvalidInputError, match="static points"):
            run_detect(lines, config, io.StringIO(), io.StringIO())
        assert len(list(lines)) == 150

    def test_checkpoint_requires_multivariate(self, runner, tmp_path):
        result = runner.invoke(
            main, ["detect", "--checkpoint", str(tmp_path / "x")], input="1.0\n"
        )
        assert result.exit_code == 2

    def test_huge_point_does_not_end_the_stream(self, runner, tmp_path):
        self.check_huge_point_refused(runner, tmp_path, "1e200")

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
        assert load_model(ckpt).n == 129
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


class TestOutputContract:
    """Every verdict line equals a fold of the library calls, formatted value
    by value: 17 significant digits in CSV, ``json.dumps`` in JSONL."""

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

    @pytest.mark.parametrize("fmt", ["csv", "jsonl"])
    def test_univariate(self, runner, fmt):
        spec = ShiftSpec(kind="abrupt-distributional", at=0.5, magnitude=5.0)
        values = gen_shift_stream(300, spec, seed=3).tolist()
        lines = [f"{v:.17g}" for v in values]
        lines.insert(100, "abc")
        result = runner.invoke(main, ["detect", "--format", fmt], input="\n".join(lines) + "\n")
        assert result.exit_code == 1

        params = PewmaParams()
        state = pewma_init(values[0], params)
        log_peak = math.log(INV_SQRT_2PI)
        expected = [self.line(fmt, 0, [values[0]], INV_SQRT_2PI, log_peak, False)]
        for index, value in enumerate(values[1:], start=1):
            z = (value - state.mean) / state.sigma_hat
            state, point = pewma_step(state, value, params)
            log_score = log_peak - 0.5 * z * z
            expected.append(self.line(fmt, index, [value], point.density, log_score,
                                      point.is_anomaly))
        assert any(row.endswith(("true\n", "true}\n")) for row in expected)
        assert result.stdout == "".join(expected)


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

    def test_bad_seed_list_is_usage_error(self, runner):
        result = runner.invoke(
            main, ["experiment", "--which", "1", "--count", "60", "--dim", "2", "--seeds", "a,b"]
        )
        assert result.exit_code == 2
