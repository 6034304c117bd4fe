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
from .errors import InsufficientDataError, InvalidInputError
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
from .pewma import INV_SQRT_2PI, PewmaParams, pewma_init, pewma_step

EXIT_OK = 0
EXIT_SKIPPED_LINES = 1
EXIT_FATAL = 2


@dataclass
class DetectorConfig:
    """Flag bundle for ``detect``, defaulting to the library's defaults;
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

        def emit(index, values, density, log_score, flag):
            record = {"index": index, "values": values, "score": float(density),
                      "log_score": float(log_score), "is_anomaly": bool(flag)}
            out.write(json.dumps(record) + "\n")

    else:

        def emit(index, values, density, log_score, flag):
            line = "%d," + _row_format(len(values) + 2) + ",%s\n"
            out.write(line % (index, *values, density, log_score, "true" if flag else "false"))

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


def _data_lines(lines, skip_header: bool):
    """Yield (line_no, stripped_text), skipping the header and blank lines."""
    for line_no, raw in enumerate(lines, start=1):
        if skip_header and line_no == 1:
            continue
        text = raw.strip()
        if text:
            yield line_no, text


def run_detect(lines, config: DetectorConfig, out, err, checkpoint=None, header=False, fmt="csv"):
    """Core of the ``detect`` command; returns the process exit code."""
    emit = _make_emitter(out, fmt)
    skipped = 0
    index = 0

    if config.mode == "univariate":
        params = PewmaParams(
            alpha=config.alpha,
            beta=config.beta,
            tau=PewmaParams.tau if config.tau is None else config.tau,
            warmup_T=config.warmup_T,
            sigma_floor=config.sigma_floor,
        )
        state = None
        for line_no, text in _data_lines(lines, header):
            try:
                value = _parse_scalar(text)
            except ValueError as exc:
                err.write(f"line {line_no}: skipped: {exc}\n")
                skipped += 1
                continue
            if state is None:
                state = pewma_init(value, params)
                emit(index, [value], INV_SQRT_2PI, math.log(INV_SQRT_2PI), False)
            else:
                state, point = pewma_step(state, value, params)
                log_score = math.log(INV_SQRT_2PI) - 0.5 * point.z * point.z
                emit(index, [value], point.density, log_score, point.is_anomaly)
            index += 1
        return EXIT_SKIPPED_LINES if skipped else EXIT_OK

    check_tau(config.tau)
    model = None
    dim = None
    buffer: list[np.ndarray] = []
    if checkpoint is not None and os.path.exists(checkpoint):
        model = load_model(checkpoint)
        dim = model.m

    for line_no, text in _data_lines(lines, header):
        try:
            x = _parse_vector(text)
        except ValueError as exc:
            err.write(f"line {line_no}: skipped: {exc}\n")
            skipped += 1
            continue
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
                except (InsufficientDataError, InvalidInputError) as exc:
                    err.write(f"fatal: static fit failed: {exc}\n")
                    return EXIT_FATAL
                buffer.clear()
        else:
            verdict = score(model, x, config.tau)
            emit(index, x.tolist(), verdict.density, verdict.log_density, verdict.is_anomaly)
            model = update_online(model, x)
        index += 1

    if checkpoint is not None and model is not None:
        save_model(model, checkpoint)
    return EXIT_SKIPPED_LINES if skipped else EXIT_OK


@click.group()
def main():
    """Streaming anomaly detection and the experiments around it."""


@main.command()
@click.argument("input_file", type=click.File("r"), default="-", required=False)
@click.option("--mode", type=click.Choice(["univariate", "multivariate"]), default="univariate")
@click.option("--alpha", type=float, default=DetectorConfig.alpha, show_default=True)
@click.option("--beta", type=float, default=DetectorConfig.beta, show_default=True)
@click.option("--tau", type=float, default=None,
              help=f"Density threshold; omit for {PewmaParams.tau:g} (univariate) "
              "or Mahalanobis distance 3 (multivariate).")
@click.option("--warmup", "warmup_t", type=int, default=DetectorConfig.warmup_T, show_default=True)
@click.option("--static-points", type=int, default=DetectorConfig.static_count_points,
              show_default=True, help="Points buffered for the multivariate static fit.")
@click.option("--sigma-floor", type=float, default=DetectorConfig.sigma_floor, show_default=True)
@click.option("--format", "fmt", type=click.Choice(["csv", "jsonl"]), default="csv")
@click.option("--header", is_flag=True, help="Skip one leading input line.")
@click.option("--checkpoint", type=click.Path(), default=None,
              help="Model checkpoint to resume from and save to (multivariate only).")
@click.pass_context
def detect(ctx, input_file, mode, alpha, beta, tau, warmup_t, static_points, sigma_floor,
           fmt, header, checkpoint):
    """Score a stream of points, one verdict line per scored point."""
    if checkpoint is not None and mode != "multivariate":
        raise click.UsageError("--checkpoint requires --mode multivariate")
    config = DetectorConfig(
        mode=mode,
        alpha=alpha,
        beta=beta,
        tau=tau,
        warmup_T=warmup_t,
        static_count_points=static_points,
        sigma_floor=sigma_floor,
    )
    try:
        code = run_detect(
            input_file,
            config,
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
        data = gen_random_stream(count, dim, seed)
        rows.extend((int(which), seed, report) for report in runner(data))
    write_reports_csv(sys.stdout, rows)


if __name__ == "__main__":
    main()
