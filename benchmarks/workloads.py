"""Workload inputs, closed-loop passes and the correctness gate.

Each workload turns a seed into one input with the benchmark's own
``numpy.random.default_rng``, hands it to a public driftwatch entry point,
and checks every output against an independent numpy reference:

* ``uni-detect``: ``cli.run_detect`` with default flags on a N(0, 1) stream
  with a +5 sigma level step at the midpoint and 0.1% malformed lines.
  Reference: the PEWMA recurrence, carried in centred form.
* ``mv-detect``: ``cli.run_detect --mode multivariate`` at m = 15 with the
  default 100 static points, the automatic threshold, a +1 sigma step in
  every coordinate at the midpoint and a checkpoint written to a fresh
  path. Reference: the direct blend C' = alpha C + beta d d^T, scored with
  ``slogdet`` and ``solve``.
* ``experiment``: ``harness.run_experiment_1`` then ``run_experiment_2`` on
  one 1,000 x 15 i.i.d. stream (the criterion-7 protocol at a twentieth of
  its length, so that a run holds a few dozen passes). Reference: the same
  blend recurrence, scored with an AAD written here.

The detect passes are closed loops with one producer: the next line is
handed over only when ``run_detect`` asks for it, as when ``detect`` reads
a pipe. A verdict's latency runs from the hand-off of its line to the
write of its verdict. Flags are not gated, because thresholds are meant to
change; log-scores, value echoes, verdict indices, rejections and exit
codes are.
"""

from __future__ import annotations

import io
import math
import os
import re
import subprocess
import sys
import time
from dataclasses import dataclass, field

import numpy as np

from driftwatch import cli, harness

# Relative tolerance of every numeric comparison against a reference. The
# program agrees with the references to about 1e-13; one skipped update
# moves every later multivariate log-score by far more (see the tests).
REL_TOL = 1e-9
LOG_2PI = math.log(2.0 * math.pi)
BAD_TOKENS = ("nan", "inf", "-inf", "1e999", "NaN", "abc", "1.2.3", "--1")
_REJECTED = re.compile(r"^line (\d+): skipped", re.MULTILINE)


def close(value: float, reference: float) -> bool:
    return abs(value - reference) <= REL_TOL * max(1.0, abs(reference))


@dataclass
class PassResult:
    """One timed pass: wall time of the entry call, work done, gate outcome.

    ``p50``/``p99`` are percentiles, in seconds, of the pass's ``samples``
    operation latencies; only these are kept, so that the benchmark's own
    memory does not grow with the number of passes.
    """

    wall: float
    points: int
    attempted: int
    failed: int
    p50: float
    p99: float
    samples: int
    counts: dict = field(default_factory=dict)


# --- references ---------------------------------------------------------------


def pewma_reference(values, alpha=0.98, beta=0.98, warmup=30, sigma_floor=1e-8):
    """Log-scores of ``detect``'s univariate mode at the given parameters.

    Carries the mean and variance with the centred recurrence
    var' = a var + a (1 - a) (x - mean)^2, equal in exact arithmetic to the
    raw-moment form s2 - s1^2 of Carter & Streilein (2012).
    """
    log_c = -0.5 * LOG_2PI
    out = [log_c]
    mean, var, t, sigma = values[0], 0.0, 1, sigma_floor
    for x in values[1:]:
        z = (x - mean) / sigma
        out.append(log_c - 0.5 * z * z)
        t += 1
        a = 1.0 - 1.0 / t if t < warmup else alpha * (1.0 - beta * math.exp(log_c - 0.5 * z * z))
        diff = x - mean
        mean += (1.0 - a) * diff
        var = a * var + a * (1.0 - a) * diff * diff
        sigma = math.sqrt(max(var, sigma_floor * sigma_floor))
    return out


def _blend(n_static: int) -> tuple[float, float]:
    c = 2.0 / (float(n_static) ** 2 + 6.0)
    return 1.0 - c, c


def _fit(rows):
    return rows.mean(axis=0), np.atleast_2d(np.cov(rows, rowvar=False, ddof=1)), rows.shape[0]


def gaussian_reference(rows, static: int) -> list[float]:
    """Log-densities of ``detect --mode multivariate``: score, then blend."""
    mu, cov, n = _fit(rows[:static])
    alpha, beta = _blend(n)
    const = rows.shape[1] * LOG_2PI
    out = []
    for x in rows[static:]:
        d = x - mu
        _, log_det = np.linalg.slogdet(cov)
        out.append(-0.5 * (const + log_det + float(d @ np.linalg.solve(cov, d))))
        cov = alpha * cov + beta * np.outer(d, d)
        mu = mu + d / (n + 1)
        n += 1
    return out


def _aad(predicted, truth) -> float:
    p, y = predicted.ravel(), truth.ravel()
    keep = np.abs(y) > 1e-12
    return float(np.mean(np.abs((p[keep] - y[keep]) / y[keep])))


def experiment_reference(data, n_segments: int = 5) -> list[tuple]:
    """``(static_count, points, aad, aad_inverse)`` of both protocols, in order,
    by the direct blend recurrence over each online segment."""
    seg = data.shape[0] // n_segments
    out = []
    for protocol in (1, 2):
        for k in range(1, n_segments):
            end = (k + 1) * seg if protocol == 1 and k + 1 < n_segments else data.shape[0]
            mu, cov, n = _fit(data[: k * seg])
            alpha, beta = _blend(n)
            for x in data[k * seg : end]:
                d = x - mu
                cov = alpha * cov + beta * np.outer(d, d)
                mu = mu + d / (n + 1)
                n += 1
            truth = np.atleast_2d(np.cov(data[:end], rowvar=False, ddof=1))
            out.append((k, end - k * seg, _aad(cov, truth), _aad(np.linalg.inv(cov), np.linalg.inv(truth))))
    return out


# --- detect workloads ---------------------------------------------------------


class _Sink:
    """Verdict writer that stamps each write with the line handed over last."""

    def __init__(self, handoff: list):
        self.handoff = handoff
        self.chunks: list[str] = []
        self.lines: list[int] = []
        self.times: list[float] = []

    def write(self, text: str) -> None:
        self.times.append(time.perf_counter())
        self.lines.append(len(self.handoff) - 1)
        self.chunks.append(text)


class _Detect:
    """Shared closed-loop pass and gate of the two ``detect`` workloads.

    Subclasses set ``lines`` (input text, one entry per line), ``bad``
    (1-based numbers of the lines that must be rejected), ``config``, and
    per expected verdict: ``index`` (the verdict's index field), ``values``
    (the echoed point, one row each) and ``scores`` (the log-score).
    """

    checkpoint = None

    def run(self) -> PassResult:
        handoff: list[float] = []

        def feed():
            clock = time.perf_counter
            for line in self.lines:
                handoff.append(clock())
                yield line

        out, err = _Sink(handoff), io.StringIO()
        if self.checkpoint is not None and os.path.exists(self.checkpoint):
            os.remove(self.checkpoint)
        start = time.perf_counter()
        code = cli.run_detect(feed(), self.config, out, err, checkpoint=self.checkpoint)
        wall = time.perf_counter() - start

        rows = "".join(out.chunks).splitlines()
        failed = self._failed_rows(rows) + abs(len(rows) - len(self.scores))
        rejected = {int(n) for n in _REJECTED.findall(err.getvalue())}
        failed += len(rejected ^ self.bad)
        failed += code != (cli.EXIT_SKIPPED_LINES if self.bad else cli.EXIT_OK)
        checkpoint_bytes = 0
        if self.checkpoint is not None:
            if os.path.exists(self.checkpoint):
                checkpoint_bytes = os.path.getsize(self.checkpoint)
            else:
                failed += 1
        attempted = len(self.scores) + len(self.bad)
        latencies = np.array(out.times) - np.array(handoff)[out.lines]
        p50, p99 = np.percentile(latencies, [50, 99]) if latencies.size else (math.nan, math.nan)
        return PassResult(
            wall=wall,
            points=len(rows),
            attempted=attempted,
            failed=min(failed, attempted),
            p50=float(p50),
            p99=float(p99),
            samples=latencies.size,
            counts={
                "cli.lines_read": len(handoff),
                "cli.lines_rejected": len(rejected),
                "cli.verdicts": len(rows),
                "cli.flagged": sum(row.endswith(",true") for row in rows),
                "detector.checkpoint_bytes": checkpoint_bytes,
            },
        )

    def _failed_rows(self, rows) -> int:
        """How many of the verdict rows, compared in order, miss their reference.

        A row is ``index,values...,density,log_score,flag``; the index and
        the echoed values must match exactly, the log-score within REL_TOL.
        Output that does not parse as such a table fails every row.
        """
        n = min(len(rows), len(self.scores))
        text = "\n".join(rows[:n]).replace("true", "1").replace("false", "0")
        try:
            table = np.array(text.replace("\n", ",").split(","), dtype=float).reshape(n, -1)
        except ValueError:
            return n
        if table.shape[1] != self.values.shape[1] + 4:
            return n
        scores = self.scores[:n]
        ok = (
            (table[:, 0] == self.index[:n])
            & (table[:, 1:-3] == self.values[:n]).all(axis=1)
            & (np.abs(table[:, -2] - scores) <= REL_TOL * np.maximum(1.0, np.abs(scores)))
        )
        return n - int(ok.sum())


def _text(row) -> str:
    return ",".join(repr(float(v)) for v in row) + "\n"


class UniDetect(_Detect):
    name = "uni-detect"

    def __init__(self, seed: int, lines: int = 10_000):
        rng = np.random.default_rng([seed, 1])
        x = rng.standard_normal(lines)
        x[lines // 2 :] += 5.0
        bad_at = rng.choice(lines, size=max(1, round(lines * 0.001)), replace=False)
        tokens = rng.choice(BAD_TOKENS, size=bad_at.size)
        self.lines = [_text([v]) for v in x]
        for i, token in zip(bad_at.tolist(), tokens.tolist()):
            self.lines[i] = token + "\n"
        self.bad = {i + 1 for i in bad_at.tolist()}
        valid = np.delete(x, bad_at)
        self.config = cli.DetectorConfig()
        self.index = np.arange(valid.size)
        self.values = valid[:, None]
        self.scores = np.array(pewma_reference(valid.tolist(), self.config.alpha, self.config.beta,
                                               self.config.warmup_T, self.config.sigma_floor))

    def setup_probe(self):
        """Flags, stdin and a check of the first result line for a cold ``detect``."""
        return ["detect"], "".join(self.lines[:3]), lambda line: line.startswith("0,")


class MvDetect(_Detect):
    name = "mv-detect"

    def __init__(self, seed: int, lines: int = 1_100, dim: int = 15, build_dir="."):
        rng = np.random.default_rng([seed, 2])
        rows = rng.standard_normal((lines, dim))
        rows[lines // 2 :] += 1.0
        self.config = cli.DetectorConfig(mode="multivariate")
        static = self.config.static_count_points
        self.lines = [_text(row) for row in rows]
        self.bad = set()
        self.index = np.arange(static, lines)
        self.values = rows[static:]
        self.scores = np.array(gaussian_reference(rows, static))
        self.checkpoint = os.path.join(build_dir, f"mv-detect-{seed}.ckpt")

    def setup_probe(self):
        static = self.config.static_count_points
        probe_checkpoint = self.checkpoint + ".probe"
        if os.path.exists(probe_checkpoint):  # detect would resume from it
            os.remove(probe_checkpoint)
        argv = ["detect", "--mode", "multivariate", "--checkpoint", probe_checkpoint]
        return argv, "".join(self.lines[: static + 1]), lambda line: line.startswith(f"{static},")


# --- experiment workload ------------------------------------------------------


class Experiment:
    name = "experiment"

    def __init__(self, seed: int, count: int = 1_000, dim: int = 15):
        self.seed = seed
        self.data = np.random.default_rng([seed, 3]).standard_normal((count, dim))
        self.expected = experiment_reference(self.data)

    def run(self) -> PassResult:
        start = time.perf_counter()
        reports = harness.run_experiment_1(self.data) + harness.run_experiment_2(self.data)
        wall = time.perf_counter() - start
        failed = abs(len(reports) - len(self.expected))
        for report, (k, points, aad, aad_inverse) in zip(reports, self.expected):
            ok = (
                report.static_count == k
                and report.points_evaluated == points
                and close(report.aad, aad)
                and close(report.aad_inverse, aad_inverse)
            )
            failed += not ok
        return PassResult(
            wall=wall,
            points=sum(r.points_evaluated for r in reports),
            attempted=len(self.expected),
            failed=min(failed, len(self.expected)),
            p50=wall,
            p99=wall,
            samples=1,
        )

    def setup_probe(self):
        # The smallest run the experiment command accepts at m = 15: it
        # prints its CSV only when done, so a longer run would time the
        # experiment rather than the start-up.
        argv = ["experiment", "--which", "1", "--count", "80", "--dim", "15", "--seeds", str(self.seed)]
        return argv, "", lambda line: line.startswith("1,")


# Each entry builds a workload from a seed and a directory for scratch files.
WORKLOADS = {
    "uni-detect": lambda seed, build_dir: UniDetect(seed),
    "mv-detect": lambda seed, build_dir: MvDetect(seed, build_dir=build_dir),
    "experiment": lambda seed, build_dir: Experiment(seed),
}


# --- set-up time --------------------------------------------------------------


def cold_start_seconds(workload, src_dir, cwd) -> float:
    """Seconds from spawning ``python -m driftwatch.cli`` with the workload's
    flags until the first line that reads as a result arrives on stdout."""
    argv, stdin_text, is_first_result = workload.setup_probe()
    env = dict(os.environ, PYTHONUNBUFFERED="1")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(src_dir), env.get("PYTHONPATH")) if p)
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-m", "driftwatch.cli", *argv],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        text=True, cwd=cwd, env=env,
    )
    try:
        proc.stdin.write(stdin_text)
        proc.stdin.close()
        line = proc.stdout.readline()
        while line and not is_first_result(line):  # e.g. a CSV header
            line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        err = proc.stderr.read()
    finally:
        proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    if not line:
        raise RuntimeError(f"cold start of {workload.name} gave no result; stderr: {err!r}")
    return elapsed
