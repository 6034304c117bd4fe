"""Command-line surface: ``detect``, ``simulate``, and ``experiment``.

``detect`` scores points read one per line (CSV numbers; a single number in
univariate mode), ``simulate`` emits synthetic streams with configurable
signal changes, and ``experiment`` runs the segmented static-vs-online
covariance protocols and prints their report CSV. Numeric output uses 17
significant digits so downstream parsing recovers the exact float64 values.
"""

from __future__ import annotations

import functools
import json
import math
import os
import sys
from dataclasses import dataclass

import click
import numpy as np

from .detector import (
    check_tau,
    fit_static,
    load_model,
    save_model,
    score,
    update_online,
)
from .errors import InvalidInputError
from .harness import (
    N_SEGMENTS,
    SHIFT_KINDS,
    ShiftSpec,
    gen_random_stream,
    run_experiment_1,
    run_experiment_2,
    shift_offsets,
    write_reports_csv,
)
from .pewma import FIRST_VERDICT, PewmaParams, pewma_init, pewma_step

EXIT_OK = 0
EXIT_SKIPPED_LINES = 1
EXIT_FATAL = 2


@dataclass
class DetectorConfig:
    """``detect``'s options, one field each, with the library's defaults;
    ``tau = None`` means ``score``'s own rule in multivariate mode (flag
    beyond Mahalanobis distance 3), and ``PewmaParams``' default tau in
    univariate mode."""

    mode: str = "univariate"
    alpha: float = PewmaParams.alpha
    beta: float = PewmaParams.beta
    tau: float | None = None
    warmup_T: int = PewmaParams.warmup_T
    static_count_points: int = 100
    sigma_floor: float = PewmaParams.sigma_floor


@functools.cache
def _row_format(count: int) -> str:
    """One ``%``-format for ``count`` comma-separated floats, 17 digits each."""
    return ",".join(["%.17g"] * count)


def _make_emitter(out, fmt: str):
    if fmt == "jsonl":

        def emit(index, values, verdict):
            record = {"index": index, "values": values, "score": verdict.density,
                      "log_score": verdict.log_density, "is_anomaly": verdict.is_anomaly}
            out.write(json.dumps(record) + "\n")

    else:

        def emit(index, values, verdict):
            line = "%d," + _row_format(len(values) + 2) + ",%s\n"
            flag = "true" if verdict.is_anomaly else "false"
            out.write(line % (index, *values, verdict.density, verdict.log_density, flag))

    return emit


def _parse_scalar(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"non-finite value {text!r}")
    return value


def _parse_vector(text: str) -> np.ndarray:
    values = np.array(text.split(","), dtype=np.float64)
    if not np.isfinite(values).all():
        raise ValueError(f"non-finite value in {text!r}")
    return values


def _data_lines(lines, skip_header: bool, parse, err, rejected: list):
    """Yield (line_no, parse(text)) past the header and blank lines; report each
    line ``parse`` rejects on ``err`` and append its number to ``rejected``."""
    for line_no, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or (skip_header and line_no == 1):
            continue
        try:
            value = parse(text)
        except ValueError as exc:
            err.write(f"line {line_no}: skipped: {exc}\n")
            rejected.append(line_no)
            continue
        yield line_no, value


def run_detect(lines, config: DetectorConfig, out, err, checkpoint=None, header=False, fmt="csv"):
    """Core of the ``detect`` command; returns the process exit code."""
    emit = _make_emitter(out, fmt)
    rejected: list[int] = []

    if config.mode == "univariate":
        params = PewmaParams(
            alpha=config.alpha,
            beta=config.beta,
            tau=PewmaParams.tau if config.tau is None else config.tau,
            warmup_T=config.warmup_T,
            sigma_floor=config.sigma_floor,
        )
        state = None
        values = _data_lines(lines, header, _parse_scalar, err, rejected)
        for index, (_, value) in enumerate(values):
            if state is None:
                state, verdict = pewma_init(value, params), FIRST_VERDICT
            else:
                state, verdict = pewma_step(state, value, params)
            emit(index, [value], verdict)
        return EXIT_SKIPPED_LINES if rejected else EXIT_OK

    check_tau(config.tau)
    if config.static_count_points < 2:
        raise InvalidInputError(f"static points must be >= 2, got {config.static_count_points}")
    model = None
    dim = None
    buffer: list[np.ndarray] = []
    if checkpoint is not None and os.path.exists(checkpoint):
        model = load_model(checkpoint)
        dim = model.m

    points = _data_lines(lines, header, _parse_vector, err, rejected)
    for index, (line_no, x) in enumerate(points):
        if dim is None:
            dim = len(x)
        elif len(x) != dim:
            err.write(f"line {line_no}: fatal: dimension changed from {dim} to {len(x)}\n")
            return EXIT_FATAL

        if model is None:
            buffer.append(x)
            if len(buffer) >= config.static_count_points:
                try:
                    model = fit_static(np.asarray(buffer))
                except InvalidInputError as exc:
                    err.write(f"fatal: static fit failed: {exc}\n")
                    return EXIT_FATAL
                buffer.clear()
        else:
            emit(index, x.tolist(), score(model, x, config.tau))
            model = update_online(model, x)

    if checkpoint is not None and model is not None:
        save_model(model, checkpoint)
    return EXIT_SKIPPED_LINES if rejected else EXIT_OK


@click.group()
def main():
    """Streaming anomaly detection and the experiments around it."""


@main.command()
@click.argument("input_file", type=click.File("r"), default="-", required=False)
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
@click.option("--checkpoint", type=click.Path(), default=None,
              help="Model checkpoint to resume from and save to (multivariate only).")
@click.pass_context
def detect(ctx, input_file, fmt, header, checkpoint, **settings):
    """Score a stream of points, one verdict line per scored point."""
    if checkpoint is not None and settings["mode"] != "multivariate":
        raise click.UsageError("--checkpoint requires --mode multivariate")
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
@click.option("--at", type=float, default=0.5, show_default=True,
              help="Fractional position of the shift.")
@click.option("--magnitude", type=float, default=5.0, show_default=True)
@click.option("--ramp", type=int, default=1, show_default=True,
              help="Ramp length for gradual shifts.")
@click.option("--count", type=int, default=1000, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--dim", type=int, default=1, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
def simulate(kind, at, magnitude, ramp, count, seed, dim, fmt):
    """Emit a synthetic stream, one point per line (CSV for dim > 1)."""
    try:
        offsets = shift_offsets(count, ShiftSpec(kind=kind, at=at, magnitude=magnitude, ramp=ramp))
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
    if count < N_SEGMENTS * (dim + 1):
        raise click.UsageError(
            f"count must be at least {N_SEGMENTS} * (dim + 1) = {N_SEGMENTS * (dim + 1)} "
            f"so each segment can support a fit, got {count}"
        )
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
            data = gen_random_stream(count, dim, seed)
        except InvalidInputError as exc:
            raise click.UsageError(str(exc)) from exc
        rows.extend((int(which), seed, report) for report in runner(data))
    write_reports_csv(sys.stdout, rows)


if __name__ == "__main__":
    main()
