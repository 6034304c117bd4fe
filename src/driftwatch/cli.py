"""Command-line surface: ``detect``, ``simulate``, and ``experiment``.

``detect`` scores points read one per line (CSV numbers; a single number in
univariate mode), ``simulate`` emits synthetic streams with configurable
signal changes, and ``experiment`` runs the segmented static-vs-online
covariance protocols and prints their report CSV. A CSV verdict echoes a line
of plain JSON numbers as written, recognised because json's scanner parses it
whole, and writes other points, and the scores, at 17 significant digits;
JSONL writes Python's shortest round-trip repr. Both parse back to the exact
float64 values; JSONL writes a non-finite score as null.
"""

from __future__ import annotations

import functools
import json
import math
import os
import re
import sys
from dataclasses import dataclass, replace

import click

from ._numpy import LazyNumpy
from .detector import (
    fit_static,
    load_checkpoint,
    save_model,
    score,
    update_online,
)
from .errors import InvalidInputError
from .harness import (
    SHIFT_KINDS,
    ShiftSpec,
    gen_random_stream,
    run_experiment_1,
    run_experiment_2,
    shift_offsets,
    write_reports_csv,
)
from .pewma import FIRST_VERDICT, PewmaParams, pewma_init, pewma_step

np = LazyNumpy(__name__)
EXIT_OK = 0
EXIT_SKIPPED_LINES = 1
EXIT_FATAL = 2


@dataclass(frozen=True)
class DetectorConfig(PewmaParams):
    """``detect``'s options: ``PewmaParams`` plus the mode and the count of
    points buffered for the multivariate static fit, every one checked when
    the config is built, in either mode. ``tau = None`` means ``score``'s own
    rule in multivariate mode (flag beyond Mahalanobis distance 3), and
    ``PewmaParams``' default tau in univariate mode."""

    tau: float | None = None
    mode: str = "univariate"
    static_count_points: int = 100

    def __post_init__(self) -> None:
        super().__post_init__()
        if self.mode not in ("univariate", "multivariate"):
            raise InvalidInputError(f"unknown mode {self.mode!r}")
        if self.static_count_points < 2:
            raise InvalidInputError(f"static points must be >= 2, got {self.static_count_points}")


@functools.cache
def _row_format(count: int) -> str:
    """One ``%``-format for ``count`` comma-separated floats, 17 digits each."""
    return ",".join(["%.17g"] * count)


# A point written as JSON numbers (RFC 8259 section 6) is echoed as written.
# json's scanner reads such a line whole, passing each number's text to float()
# (parse_int=float: integers too), so one scan parses the point and proves it
# plain; other text float() takes (1_0, +.5, 1., 01, non-ASCII digits) is read
# by float() and re-formatted. Only ASCII text counts as plain: json's
# pure-Python scanner, used where its C module is missing, reads \d.
_scan = json.JSONDecoder(parse_int=float).scan_once
# A vector's scan: no JSON whitespace, brackets, quotes or constants; [0-9], not \d.
_VECTOR_CHARS = re.compile(r"[-+.,0-9eE]+")


def _finite_or_none(value: float) -> float | None:
    """JSON has no inf: a non-finite density or log-density is written as null."""
    return value if math.isfinite(value) else None


def _make_emitter(out, fmt: str):
    if fmt == "jsonl":

        def emit(index, echo, values, verdict):
            record = {"index": index, "values": values,
                      "score": _finite_or_none(verdict.density),
                      "log_score": _finite_or_none(verdict.log_density),
                      "is_anomaly": verdict.is_anomaly}
            out.write(json.dumps(record) + "\n")

    else:

        def emit(index, echo, values, verdict):
            flag = "true" if verdict.is_anomaly else "false"
            if echo is None:
                echo = _row_format(len(values)) % tuple(values)
            out.write("%d,%s,%.17g,%.17g,%s\n"
                      % (index, echo, verdict.density, verdict.log_density, flag))

    return emit


def _parse_scalar(text: str) -> tuple[str | None, float]:
    try:  # StopIteration: no value at all; RecursionError: a line of many "["
        value, end = _scan(text, 0)
        if end == len(text) and type(value) is float and math.isfinite(value) and text.isascii():
            return text, value
    except (ValueError, StopIteration, RecursionError):
        pass
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return None, value


def _parse_vector(text: str) -> tuple[str | None, list[float]]:
    if _VECTOR_CHARS.fullmatch(text):
        try:  # the text holds no "]", so a scan that succeeds ends at the last one
            values = _scan(f"[{text}]", 0)[0]
            if all(map(math.isfinite, values)):
                return text, values
        except (ValueError, StopIteration):  # StopIteration: a field with no value
            pass
    values = list(map(float, text.split(",")))
    if not all(map(math.isfinite, values)):
        raise ValueError(f"non-finite value in {text!r}")
    return None, values


def _data_lines(lines, skip_header: bool, parse, err, rejected: list):
    """Yield (line_no, echo, values) past the header and blank lines, where
    ``parse(stripped text)`` gives ``(echo, values)``: the echo is the text
    when json's scanner read it as plain JSON numbers, else None. Report each
    line ``parse`` rejects on ``err`` and append its number to ``rejected``."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or (skip_header and line_no == 1):
            continue
        try:
            echo, values = parse(text)
        except ValueError as exc:
            err.write(f"line {line_no}: skipped: {exc}\n")
            rejected.append(line_no)
            continue
        yield line_no, echo, values


def run_detect(lines, config: DetectorConfig, out, err, checkpoint=None, header=False, fmt="csv"):
    """Core of the ``detect`` command; returns the process exit code. An unknown
    ``fmt``, or a checkpoint outside multivariate mode or unsavable (a directory
    too), raises InvalidInputError before any read; ``config`` checked its own settings."""
    if fmt not in ("csv", "jsonl"):
        raise InvalidInputError(f"unknown format {fmt!r}")
    if checkpoint is not None:
        if config.mode != "multivariate":
            raise InvalidInputError("--checkpoint requires --mode multivariate")
        folder, name = os.path.split(checkpoint)
        if not name or os.path.isdir(checkpoint) or not os.path.isdir(folder or "."):
            raise InvalidInputError(f"--checkpoint {checkpoint!r}: cannot save a file there")
    emit = _make_emitter(out, fmt)
    rejected: list[int] = []
    fatal = False

    if config.mode == "univariate":
        params = config if config.tau is not None else replace(config, tau=PewmaParams.tau)
        state = None
        values = _data_lines(lines, header, _parse_scalar, err, rejected)
        for index, (_, echo, value) in enumerate(values):
            if state is None:
                state, verdict = pewma_init(value, params), FIRST_VERDICT
            else:
                state, verdict = pewma_step(state, value, params)
            emit(index, echo, [value], verdict)
    else:
        model = dim = None
        consumed = 0  # data points read before any fatal line, the checkpoint's count included
        buffer: list[list[float]] = []
        if checkpoint is not None and os.path.exists(checkpoint):
            model, consumed = load_checkpoint(checkpoint)
            dim = model.m

        points = _data_lines(lines, header, _parse_vector, err, rejected)
        for index, (line_no, echo, values) in enumerate(points, start=consumed):
            if dim is None:
                dim = len(values)
            elif len(values) != dim:
                err.write(f"line {line_no}: fatal: dimension changed from {dim} to {len(values)}\n")
                fatal = True
                break
            consumed = index + 1
            if model is None:
                buffer.append(values)
                if len(buffer) >= config.static_count_points:
                    try:
                        model = fit_static(np.asarray(buffer))
                    except InvalidInputError as exc:
                        err.write(f"fatal: static fit failed: {exc}\n")
                        fatal = True
                        break
                    buffer.clear()
            else:
                x = np.array(values)
                emit(index, echo, values, score(model, x, config.tau))
                model = update_online(model, x)

        if checkpoint is not None and model is not None:
            try:
                save_model(model, checkpoint, consumed)
            except OSError as exc:
                err.write(f"fatal: checkpoint not saved: {exc}\n")
                fatal = True
        elif checkpoint is not None and buffer and not fatal:  # resuming would fit on later points
            err.write(f"fatal: stream ended after {len(buffer)} of {config.static_count_points} "
                      "static points; no checkpoint written\n")
            fatal = True
    return EXIT_FATAL if fatal else EXIT_SKIPPED_LINES if rejected else EXIT_OK


@click.group()
def main():
    """Streaming anomaly detection and the experiments around it."""


@main.command()
@click.argument("input_file", type=click.File(encoding="utf-8-sig", errors="replace"), default="-")
@click.option("--mode", type=click.Choice(["univariate", "multivariate"]),
              default=DetectorConfig.mode)
@click.option("--alpha", type=float, default=DetectorConfig.alpha, show_default=True)
@click.option("--beta", type=float, default=DetectorConfig.beta, show_default=True)
@click.option("--tau", type=float, default=DetectorConfig.tau,
              help=f"Density threshold; omit for {PewmaParams.tau:g} (univariate) "
              "or Mahalanobis distance 3 (multivariate).")
@click.option("--warmup", "warmup_T", type=int, default=DetectorConfig.warmup_T, show_default=True)
@click.option("--static-points", "static_count_points", type=int,
              default=DetectorConfig.static_count_points, show_default=True,
              help="Points buffered for the multivariate static fit.")
@click.option("--sigma-floor", type=float, default=DetectorConfig.sigma_floor, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--header", is_flag=True, help="Skip one leading input line.")
@click.option("--checkpoint", default=None, metavar="PATH",
              help="Model checkpoint to resume from and save to (multivariate only).")
@click.pass_context
def detect(ctx, input_file, fmt, header, checkpoint, **settings):
    """Score a stream of points, one verdict line per scored point."""
    try:
        code = run_detect(
            input_file,
            DetectorConfig(**settings),
            sys.stdout,
            sys.stderr,
            checkpoint=checkpoint,
            header=header,
            fmt=fmt,
        )
    except InvalidInputError as exc:
        raise click.UsageError(str(exc)) from exc
    ctx.exit(code)


@main.command()
@click.option("--kind", type=click.Choice(list(SHIFT_KINDS)), required=True)
@click.option("--at", type=float, default=ShiftSpec.at, show_default=True,
              help="Fractional position of the shift.")
@click.option("--magnitude", type=float, default=ShiftSpec.magnitude, show_default=True)
@click.option("--ramp", type=int, default=ShiftSpec.ramp, show_default=True,
              help="Ramp length for gradual shifts.")
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
def simulate(count, seed, dim, fmt, **spec):
    """Emit a synthetic stream, one point per line (CSV for dim > 1)."""
    try:
        offsets = shift_offsets(count, ShiftSpec(**spec))
        stream = gen_random_stream(count, dim, seed) + offsets[:, None]
    except InvalidInputError as exc:
        raise click.UsageError(str(exc)) from exc
    out = sys.stdout
    if fmt == "jsonl":
        for row in stream.tolist():
            out.write(json.dumps(row) + "\n")
    else:
        line = _row_format(dim) + "\n"
        for row in stream.tolist():
            out.write(line % tuple(row))


@main.command()
@click.option("--which", type=click.Choice(["1", "2"]), required=True)
@click.option("--count", type=int, default=20000, show_default=True)
@click.option("--dim", type=int, default=15, show_default=True)
@click.option("--seeds", type=str, default="0", show_default=True,
              help="Comma-separated list of generator seeds.")
def experiment(which, count, dim, seeds):
    """Run a static-vs-online covariance experiment, CSV report to stdout."""
    try:
        seed_list = [int(token) for token in seeds.split(",") if token.strip() != ""]
    except ValueError as exc:
        raise click.UsageError(f"bad --seeds list {seeds!r}") from exc
    if not seed_list:
        raise click.UsageError("--seeds must name at least one seed")

    runner = run_experiment_1 if which == "1" else run_experiment_2
    rows = []
    for seed in seed_list:
        try:
            reports = runner(gen_random_stream(count, dim, seed))
        except InvalidInputError as exc:
            raise click.UsageError(str(exc)) from exc
        rows.extend((int(which), seed, report) for report in reports)
    write_reports_csv(sys.stdout, rows)


if __name__ == "__main__":
    main()
