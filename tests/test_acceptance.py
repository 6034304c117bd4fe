"""End-to-end acceptance checks.

Each test exercises one release criterion at its stated tolerance and
prints a single PASS/FAIL line (run with ``pytest -s`` to see them all).
"""

import math
import time

import numpy as np
import pytest
from click.testing import CliRunner

from driftwatch.cli import main as cli_main
from driftwatch.detector import fit_static, update_online
from driftwatch.harness import (
    ShiftSpec,
    gen_random_stream,
    gen_shift_stream,
    run_experiment_1,
    run_experiment_2,
)
from driftwatch.linalg import (
    CovBlend,
    factor_rank_one_update,
    sherman_morrison_update,
)
from driftwatch.pewma import (
    INV_SQRT_2PI,
    PewmaParams,
    PewmaState,
    ewma_step,
    pewma_init,
    pewma_step,
)


def report(number, label, ok):
    print(f"criterion {number:2d} ({label}): {'PASS' if ok else 'FAIL'}")
    return ok


@pytest.fixture(scope="module", autouse=True)
def warm_kernels():
    # Run the update path once outside any timed section.
    model = fit_static(gen_random_stream(30, 2, seed=0))
    update_online(model, np.zeros(2))


def random_spd(rng, dim):
    b = rng.standard_normal((dim, dim))
    return b @ b.T + 0.5 * np.eye(dim)


def test_criterion_01_factor_update_oracle():
    rng = np.random.default_rng(1001)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        dim = 1 + trial % 8
        cov = random_spd(rng, dim)
        factor = np.linalg.cholesky(cov)
        z = rng.standard_normal(dim)
        blend = CovBlend(float(rng.uniform(0.2, 0.999)), float(rng.uniform(0.001, 0.8)))
        d = factor @ z
        updated = factor_rank_one_update(factor, z, blend)
        direct = blend.alpha * cov + blend.beta * np.outer(d, d)
        err = np.linalg.norm(updated @ updated.T - direct) / np.linalg.norm(direct)
        worst = max(worst, err)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-9 and elapsed < 5.0
    assert report(1, "factor-update oracle", ok), f"worst rel err {worst:g}, {elapsed:.2f}s"


def test_criterion_02_sherman_morrison_oracle():
    rng = np.random.default_rng(1002)
    start = time.perf_counter()
    worst = 0.0
    for trial in range(1000):
        dim = 1 + trial % 8
        cov = random_spd(rng, dim)
        v = rng.standard_normal(dim)
        blend = CovBlend(float(rng.uniform(0.2, 0.999)), float(rng.uniform(0.001, 0.8)))
        updated = sherman_morrison_update(np.linalg.inv(cov), v, blend)
        blended = blend.alpha * cov + blend.beta * np.outer(v, v)
        drift = np.abs(updated @ blended - np.eye(dim)).sum(axis=1).max()
        worst = max(worst, drift)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-7 and elapsed < 5.0
    assert report(2, "Sherman-Morrison oracle", ok), f"worst drift {worst:g}, {elapsed:.2f}s"


def test_criterion_03_long_run_consistency():
    rng = np.random.default_rng(1003)
    start = time.perf_counter()
    model = fit_static(rng.standard_normal((100, 5)))
    worst = 0.0
    for _ in range(500):
        model = update_online(model, rng.standard_normal(5))
        drift = np.abs(model.cinv @ model.cov - np.eye(5)).sum(axis=1).max()
        worst = max(worst, drift)
    elapsed = time.perf_counter() - start
    ok = worst < 1e-4 and elapsed < 5.0
    assert report(3, "long-run paired consistency", ok), f"worst drift {worst:g}, {elapsed:.2f}s"


def test_criterion_04_pewma_three_sigma_calibration():
    params = PewmaParams()  # alpha=0.98, beta=0.98, tau=0.0044, warmup 30
    state = PewmaState(mean=0.0, var=1.0, t=50, sigma_hat=1.0)
    _, at3 = pewma_step(state, 3.0, params)
    _, beyond = pewma_step(state, 3.01, params)
    _, inside = pewma_step(state, 2.99, params)
    _, beyond_neg = pewma_step(state, -3.01, params)
    ok = (
        abs(at3.density - 0.00443) < 1e-5
        and beyond.is_anomaly
        and beyond_neg.is_anomaly
        and not inside.is_anomaly
        and not at3.is_anomaly
    )
    assert report(4, "three-sigma density calibration", ok), at3.density


def test_criterion_05_beta_zero_collapses_to_ewma():
    worst = 0.0
    for seed in range(10):
        rng = np.random.default_rng(2000 + seed)
        stream = rng.standard_normal(100) * 2.0 + 1.0
        params = PewmaParams(beta=0.0)
        state = pewma_init(float(stream[0]), params)
        mean = None
        for x in stream[1:]:
            prev_mean, prev_t = state.mean, state.t
            state, _ = pewma_step(state, float(x), params)
            if prev_t + 1 >= params.warmup_T:
                mean = ewma_step(prev_mean if mean is None else mean, float(x), params.alpha)
                worst = max(worst, abs(state.mean - mean))
    ok = worst < 1e-12
    assert report(5, "beta-zero EWMA collapse", ok), f"worst gap {worst:g}"


def test_criterion_06_shift_resilience_versus_ewma():
    # EWMA reference detector: the same training phase fixes the scale, the
    # mean then follows the plain EWMA recurrence at the identical alpha,
    # and verdicts use the identical density threshold. Flags are compared
    # over the re-stabilization window after the shift (two mean
    # time-constants, 2 / (1 - alpha) points), where a detector that keeps
    # lagging keeps flagging the already-shifted stream.
    params = PewmaParams()  # alpha=0.98, beta=0.98, tau=0.0044, warmup 30
    count, shift_at = 2000, 1000
    window = 2 * round(1.0 / (1.0 - params.alpha))
    spec = ShiftSpec(kind="abrupt-distributional", at=0.5, magnitude=5.0)

    def pewma_flags(stream):
        state = pewma_init(float(stream[0]), params)
        flags = np.zeros(len(stream), dtype=bool)
        for i in range(1, len(stream)):
            state, point = pewma_step(state, float(stream[i]), params)
            flags[i] = point.is_anomaly
        return flags

    def ewma_flags(stream):
        warm = stream[: params.warmup_T]
        mean = float(np.mean(warm))
        sigma = max(float(np.std(warm)), params.sigma_floor)
        flags = np.zeros(len(stream), dtype=bool)
        for i in range(params.warmup_T, len(stream)):
            x = float(stream[i])
            z = (x - mean) / sigma
            flags[i] = INV_SQRT_2PI * math.exp(-0.5 * z * z) < params.tau
            mean = ewma_step(mean, x, params.alpha)
        return flags

    start = time.perf_counter()
    wins = 0
    for seed in range(50):
        stream = gen_shift_stream(count, 1, seed, spec)[:, 0]
        p = int(pewma_flags(stream)[shift_at : shift_at + window].sum())
        e = int(ewma_flags(stream)[shift_at : shift_at + window].sum())
        wins += p < e
    elapsed = time.perf_counter() - start
    ok = wins >= 45 and elapsed < 10.0
    assert report(6, "shift resilience vs EWMA", ok), f"wins {wins}/50, {elapsed:.2f}s"


def test_criterion_07_static_size_error_trend():
    start = time.perf_counter()
    aads_1 = np.zeros((20, 4))
    aads_2 = np.zeros((20, 4))
    for seed in range(20):
        data = gen_random_stream(20000, 15, seed=seed)
        aads_1[seed] = [r.aad for r in run_experiment_1(data)]
        aads_2[seed] = [r.aad for r in run_experiment_2(data)]
    med1 = np.median(aads_1, axis=0)
    med2 = np.median(aads_2, axis=0)
    elapsed = time.perf_counter() - start
    ok = (
        all(med1[i] >= med1[i + 1] for i in range(3))
        and all(med2[i] >= med2[i + 1] for i in range(3))
        and elapsed < 60.0
    )
    assert report(7, "more static data, lower AAD", ok), f"{med1}, {med2}, {elapsed:.1f}s"


def oracle_aads(data, mode, n_segments=5):
    """From-scratch recomputation used as the experiment oracle."""
    data = np.asarray(data, dtype=np.float64)
    base = data.shape[0] // n_segments
    bounds = [base * i for i in range(n_segments)] + [data.shape[0]]
    segments = [data[bounds[i] : bounds[i + 1]] for i in range(n_segments)]
    out = []
    for sc in range(1, n_segments):
        static = np.concatenate(segments[:sc])
        n = static.shape[0]
        mu = static.mean(axis=0)
        cov = np.atleast_2d(np.cov(static, rowvar=False, ddof=1))
        c_cov = 2.0 / (n**2 + 6.0)
        online = segments[sc] if mode == 1 else np.concatenate(segments[sc:])
        for x in online:
            d = x - mu
            cov = (1.0 - c_cov) * cov + c_cov * np.outer(d, d)
            mu = (n * mu + x) / (n + 1)
            n += 1
        consumed = np.concatenate(segments[: sc + 1]) if mode == 1 else data
        truth = np.atleast_2d(np.cov(consumed, rowvar=False, ddof=1))
        mask = np.abs(truth.ravel()) > 1e-12
        out.append(
            float(np.mean(np.abs((cov.ravel()[mask] - truth.ravel()[mask]) / truth.ravel()[mask])))
        )
    return out


def test_criterion_08_experiment_oracle_small_instances():
    data = gen_random_stream(60, 2, seed=4242)
    worst = 0.0
    for runner, mode in ((run_experiment_1, 1), (run_experiment_2, 2)):
        reports = runner(data)
        for got, expected in zip([r.aad for r in reports], oracle_aads(data, mode)):
            worst = max(worst, abs(got - expected))
    ok = worst < 1e-10
    assert report(8, "tiny-instance experiment oracle", ok), f"worst gap {worst:g}"


def test_criterion_09_incremental_mean_exactness():
    rng = np.random.default_rng(1009)
    data = rng.standard_normal((10_000, 3)) * 4.0 - 2.0
    model = fit_static(data[:100])
    for x in data[100:]:
        model = update_online(model, x)
    batch = data.mean(axis=0)
    err = np.linalg.norm(model.mu - batch) / np.linalg.norm(batch)
    ok = err < 1e-9 and model.n == 10_000
    assert report(9, "incremental mean exactness", ok), f"relative err {err:g}"


def test_criterion_10_cli_round_trips():
    runner = CliRunner()
    ok = True
    for kind in ("abrupt-transient", "abrupt-distributional", "gradual-distributional"):
        sim = runner.invoke(
            cli_main,
            ["simulate", "--kind", kind, "--count", "300", "--seed", "6", "--ramp", "60"],
        )
        ok = ok and sim.exit_code == 0
        uni = runner.invoke(cli_main, ["detect"], input=sim.stdout)
        ok = ok and uni.exit_code == 0 and len(uni.stdout.splitlines()) == 300

        sim3 = runner.invoke(
            cli_main,
            ["simulate", "--kind", kind, "--count", "300", "--seed", "6", "--ramp", "60",
             "--dim", "3"],
        )
        multi = runner.invoke(
            cli_main,
            ["detect", "--mode", "multivariate", "--static-points", "120"],
            input=sim3.stdout,
        )
        ok = ok and multi.exit_code == 0 and len(multi.stdout.splitlines()) == 180

    malformed = runner.invoke(cli_main, ["detect"], input="1.0\noops\n2.0\n")
    ok = ok and malformed.exit_code == 1 and "line 2" in malformed.stderr
    fatal = runner.invoke(
        cli_main,
        ["detect", "--mode", "multivariate", "--static-points", "5"],
        input="1,2\n1,2,3\n",
    )
    ok = ok and fatal.exit_code == 2
    assert report(10, "CLI round-trips and exit codes", ok)
