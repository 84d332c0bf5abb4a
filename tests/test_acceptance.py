"""Acceptance gate: every exit criterion at its stated tolerance.

Each test exercises one numbered criterion end to end and registers a
PASS/FAIL line that is printed in the terminal summary. Runtime limits are
asserted inside the tests that carry one.
"""

import json
import time
from pathlib import Path

import numpy as np
from conftest import mc_se_mean, se_proportion
from oracles import hmm_forward_loglik, kalman_loglik, person_counts, person_total, toy_grid

from epipomp.benchmark import aic, ar_nb_loglik, fit_benchmark
from epipomp.cli import main
from epipomp.filtering import particle_filter
from epipomp.forecast import elimination_probability, forecast_from_filter, longest_zero_run
from epipomp.grid import weekly_grid
from epipomp.haiti.geography import synthetic_geography
from epipomp.haiti.model1 import seasonal_beta
from epipomp.haiti.model2 import build_model2
from epipomp.haiti.model3 import build_model3
from epipomp.iterfilter import If2Settings, ibpf, if2
from epipomp.io import load_cases, load_rainfall
from epipomp.euler import euler_multinomial, gamma_increment
from epipomp.mcap import mcap_ci
from epipomp.model import simulate
from epipomp.series import CovariateTable, ObservationSeries, standardize_rainfall
from epipomp.toys import (
    hmm_model,
    lgssm_model,
    metapop_model,
    sir_model,
)
from epipomp.units import WEEK

RESULTS: list[tuple[int, str, bool, str]] = []


def record(num: int, title: str, passed: bool, detail: str = "") -> None:
    RESULTS.append((num, title, passed, detail))
    assert passed, f"criterion {num} ({title}): {detail}"


def data_path(name: str) -> Path:
    from epipomp.cli import bundled_path

    return bundled_path(name)


def test_criterion_01_pf_vs_forward_algorithm():
    started = time.monotonic()
    T = np.array([[0.93, 0.07], [0.15, 0.85]])
    E = np.array([[0.75, 0.2, 0.05], [0.05, 0.35, 0.6]])
    pi0 = np.array([0.5, 0.5])
    m = hmm_model(T, E, pi0)
    g = toy_grid(50)
    data = simulate(m, m.params, g, n_sims=1, seed=101).observation_series(0)
    exact = hmm_forward_loglik(data.values[0].astype(int), T, E, pi0)
    lls = np.array(
        [particle_filter(m, m.params, data, g, J=5000, seed=s).loglik for s in range(20)]
    )
    elapsed = time.monotonic() - started
    gap = abs(lls.mean() - exact)
    bound = 3 * mc_se_mean(lls)
    record(
        1,
        "particle filter vs forward algorithm",
        gap < bound and elapsed < 10.0,
        f"|mean PF - exact| = {gap:.4f} < {bound:.4f}, {elapsed:.1f}s < 10s",
    )


def test_criterion_02_pf_vs_kalman():
    started = time.monotonic()
    m = lgssm_model(a=0.85, sig_proc=1.0, sig_obs=0.6)
    g = toy_grid(100)
    data = simulate(m, m.params, g, n_sims=1, seed=202).observation_series(0)
    exact = kalman_loglik(data.values[0], 0.85, 1.0, 0.6)
    lls = np.array(
        [particle_filter(m, m.params, data, g, J=5000, seed=s).loglik for s in range(20)]
    )
    elapsed = time.monotonic() - started
    gap = abs(lls.mean() - exact)
    bound = 3 * mc_se_mean(lls)
    record(
        2,
        "particle filter vs Kalman filter",
        gap < bound and elapsed < 10.0,
        f"|mean PF - exact| = {gap:.4f} < {bound:.4f}, {elapsed:.1f}s < 10s",
    )


def test_criterion_03_euler_multinomial_closed_form():
    rng = np.random.Generator(np.random.Philox(33))
    X = 100_000
    one = euler_multinomial(np.array([X]), np.array([[1.0]]), 0.1, rng)
    p_single = 1.0 - np.exp(-0.1)
    ok_single = abs(one[0, 0] / X - 0.095163) < 3 * se_proportion(p_single, X)
    two = euler_multinomial(np.array([X]), np.array([[1.0, 3.0]]), 0.5, rng)
    ok_two = (
        abs(two[0, 0] / X - 0.21617) < 3 * se_proportion(0.21617, X)
        and abs(two[0, 1] / X - 0.64850) < 3 * se_proportion(0.64850, X)
    )
    conserved = True
    for _ in range(10_000):
        counts = rng.integers(0, 400, size=4)
        rates = rng.gamma(1.0, 1.5, size=(4, 3))
        flows = euler_multinomial(counts, rates, 0.05, rng)
        stay = counts - flows.sum(axis=-1)
        if np.any(stay < 0) or np.any(flows < 0) or np.any(stay + flows.sum(axis=-1) != counts):
            conserved = False
            break
    record(
        3,
        "Euler-multinomial closed form + conservation fuzz",
        ok_single and ok_two and conserved,
        f"exit fractions ok={ok_single and ok_two}, 1e4-step conservation exact={conserved}",
    )


def test_criterion_04_gamma_noise_moments():
    rng = np.random.Generator(np.random.Philox(44))
    pairs = [(0.02, 0.0), (0.1, 0.04), (1.0, 0.5), (0.25, 1.0), (2.0, 0.1)]
    ok = True
    details = []
    for delta, sigma2 in pairs:
        if sigma2 == 0.0:
            exact = gamma_increment(delta, sigma2, rng, size=10)
            good = bool(np.all(exact == delta))
        else:
            draws = gamma_increment(delta, sigma2, rng, size=1_000_000)
            from conftest import mc_se_variance

            good = bool(
                abs(draws.mean() - delta) < 3 * mc_se_mean(draws)
                and abs(draws.var(ddof=1) - sigma2 * delta) < 3 * mc_se_variance(draws)
            )
        ok &= good
        details.append(f"({delta},{sigma2}):{'ok' if good else 'FAIL'}")
    record(4, "gamma white-noise increment moments", ok, " ".join(details))


def test_criterion_05_ode_stochastic_agreement():
    started = time.monotonic()
    pop, i0 = 1e6, 1000.0
    m_stoch = sir_model(pop=pop)
    params = m_stoch.params.replace(
        {"beta": 1.5, "gamma": 1.0, "waning": 1e-9, "i0": i0, "sigma_proc": 1e-12}
    )
    m_det = sir_model(pop=pop, stochastic=False)
    g_det = toy_grid(40, steps_per_week=56)
    i_col = m_det.state_names.index("I")
    I_det = simulate(m_det, params, g_det, n_sims=1, seed=0).states[0, :, i_col]
    g = toy_grid(40, steps_per_week=336)
    res = simulate(m_stoch, params, g, n_sims=100, seed=2)
    I_mean = res.states[:, :, res.state_names.index("I")].mean(axis=0)
    err = float(np.max(np.abs(I_mean - I_det)) / np.max(I_det))
    elapsed = time.monotonic() - started
    record(
        5,
        "ODE vs stochastic-mean agreement (1% sup-norm)",
        err < 0.01 and elapsed < 60.0,
        f"sup-norm rel err = {err:.4f} < 0.01, {elapsed:.1f}s < 60s",
    )


def test_criterion_06_conservation():
    started = time.monotonic()
    geo = synthetic_geography()
    cases = load_cases(data_path("cases.csv"), expected_units=10)
    depts, dates, raw = load_rainfall(data_path("rainfall.csv"))
    rain = standardize_rainfall(raw, depts)
    times = np.arange(len(dates)) * WEEK
    covs = CovariateTable(times=times, step=WEEK, rainfall=rain, units=tuple(depts))
    m3 = build_model3(cases.values[:, :4], geo, median_rainfall=float(np.median(rain)))
    t0 = 3 * WEEK
    grid = weekly_grid(400, t0)
    res = simulate(m3, m3.params, grid, covs, n_sims=1, seed=606)
    pops = np.round(geo.populations)
    exact = all(
        np.array_equal(person_counts(res.states[:, n, :], 10)[0], pops)
        for n in range(res.states.shape[1])
    )
    m2 = build_model2(np.nan_to_num(cases.values[:, 0]), geo)
    grid2 = weekly_grid(104)
    res2 = simulate(m2, m2.params, grid2, n_sims=1, seed=0)
    pt = person_total(res2.states[0], geo)
    rel = float(np.max(np.abs(pt - pt[0])) / pt[0])
    elapsed = time.monotonic() - started
    record(
        6,
        "population conservation (model 3 exact, model 2 1e-8)",
        exact and rel < 1e-8,
        f"model3 400-week exact={exact}, model2 rel drift={rel:.2e}, {elapsed:.0f}s",
    )


def test_criterion_07_if2_recovery():
    started = time.monotonic()
    m = sir_model()
    g = toy_grid(100)
    truth = m.params  # beta = 2.0
    data = simulate(m, truth, g, n_sims=1, seed=314).observation_series(0)
    start = truth.replace({"beta": 1.2, "gamma": 0.8})
    start_ll = float(
        np.mean([particle_filter(m, start, data, g, J=2000, seed=s).loglik for s in (900, 901)])
    )
    settings = If2Settings(
        J=2000, M=50, rw_sd={"beta": 0.03, "gamma": 0.03}, cooling=0.5, initial=start
    )
    res = if2(m, data, g, None, settings, seed=99)
    res_again = if2(m, data, g, None, settings, seed=99)
    deterministic = [r.eval_loglik for r in res.trace] == [r.eval_loglik for r in res_again.trace]
    gain = res.best_loglik - start_ll
    beta_err = abs(res.best["beta"] - 2.0) / 2.0
    elapsed = time.monotonic() - started
    record(
        7,
        "IF2 recovery on toy SIR",
        gain >= 10.0 and beta_err < 0.2 and deterministic and elapsed < 300.0,
        f"gain = {gain:.1f} >= 10, beta err = {100*beta_err:.1f}% < 20%, "
        f"seed-deterministic={deterministic}, {elapsed:.0f}s < 300s",
    )


def test_criterion_08_ibpf():
    started = time.monotonic()
    # (a) one-block run bit-identical to IF2
    m = sir_model()
    g = toy_grid(40)
    data = simulate(m, m.params, g, n_sims=1, seed=31).observation_series(0)
    kwargs = dict(J=100, M=5, rw_sd={"beta": 0.05}, cooling=0.6)
    a = if2(m, data, g, None, If2Settings(**kwargs), seed=23)
    b = ibpf(m, data, g, None, If2Settings(**kwargs), seed=23, blocks=[["unit"]])
    identical = (
        [r.eval_loglik for r in a.trace] == [r.eval_loglik for r in b.trace]
        and [r.pass_loglik for r in a.trace] == [r.pass_loglik for r in b.trace]
        and np.array_equal(a.swarm, b.swarm)
    )
    # (b) two independent units: block loglik within 3 SE of per-unit PF sum
    m2 = metapop_model(units=("a", "b"), pops=(3000.0, 3000.0), coupling=0.0)
    g2 = toy_grid(30)
    data2 = simulate(m2, m2.params, g2, n_sims=1, seed=41).observation_series(0)
    block_lls = np.array(
        [
            particle_filter(m2, m2.params, data2, g2, J=800, seed=s, blocks=[["a"], ["b"]]).loglik
            for s in range(8)
        ]
    )
    totals = []
    for s in range(8):
        tot = 0.0
        for i, unit in enumerate(("a", "b")):
            solo = metapop_model(units=(unit,), pops=(3000.0,), coupling=0.0)
            solo_data = ObservationSeries((unit,), data2.values[i : i + 1])
            tot += particle_filter(solo, solo.params, solo_data, g2, J=800, seed=500 + 9 * s + i).loglik
        totals.append(tot)
    totals = np.array(totals)
    se = float(np.sqrt(mc_se_mean(block_lls) ** 2 + mc_se_mean(totals) ** 2))
    factorizes = abs(block_lls.mean() - totals.mean()) < 3 * se
    # (c) coupled 3-unit toy improves by >= 10 over 30 iterations
    m3 = metapop_model(units=("north", "center", "south"), coupling=0.1)
    g3 = toy_grid(60)
    data3 = simulate(m3, m3.params, g3, n_sims=1, seed=2718).observation_series(0)
    start = m3.params.replace(
        {"beta[north]": 1.0, "beta[center]": 2.1, "beta[south]": 0.9}
    )
    blocks = [["north"], ["center"], ["south"]]
    start_ll = float(
        np.mean(
            [particle_filter(m3, start, data3, g3, J=500, seed=s, blocks=blocks).loglik for s in (70, 71)]
        )
    )
    res3 = ibpf(
        m3, data3, g3, None,
        If2Settings(J=500, M=30, rw_sd={"beta": 0.03}, cooling=0.5, initial=start),
        seed=5, blocks=blocks,
    )
    gain = res3.best_loglik - start_ll
    elapsed = time.monotonic() - started
    record(
        8,
        "IBPF: one-block identity, factorization, coupled improvement",
        identical and factorizes and gain >= 10.0 and elapsed < 600.0,
        f"bit-identical={identical}, factorization gap within 3SE={factorizes}, "
        f"gain = {gain:.1f} >= 10, {elapsed:.0f}s < 600s",
    )


def test_criterion_09_aic_table_arithmetic():
    checks = [
        (aic(-2728.1, 15), 5486.3),
        (aic(-21957.3, 6), 43926.5),
        (aic(-17332.9, 34), 34733.9),
    ]
    ok = all(abs(got - want) <= 0.2 for got, want in checks)
    record(
        9,
        "AIC arithmetic against published table",
        ok,
        "; ".join(f"{got:.1f}~{want}" for got, want in checks),
    )


def test_criterion_10_mcap():
    started = time.monotonic()
    theta0, s = 1.5, 0.4
    x = np.linspace(theta0 - 3 * s, theta0 + 3 * s, 41)
    y = -((x - theta0) ** 2) / (2 * s**2)
    curve = mcap_ci(x, y, confidence=0.95)
    half = 1.959964 * s
    noiseless_ok = (
        abs(curve.ci[0] - (theta0 - half)) / half < 0.02
        and abs(curve.ci[1] - (theta0 + half)) / half < 0.02
    )
    rng = np.random.Generator(np.random.Philox(7))
    xg = np.tile(np.linspace(-1.5, 1.5, 13), 3)
    hits = 0
    for _ in range(200):
        yg = -(xg**2) / (2 * 0.5**2) + rng.normal(0, 0.5, size=xg.size)
        c = mcap_ci(xg, yg)
        hits += c.ci[0] <= 0.0 <= c.ci[1]
    coverage = hits / 200
    elapsed = time.monotonic() - started
    record(
        10,
        "MCAP noiseless interval + noisy coverage",
        noiseless_ok and coverage >= 0.90 and elapsed < 120.0,
        f"noiseless CI within 2%={noiseless_ok}, coverage={coverage:.2f} >= 0.90, {elapsed:.0f}s < 120s",
    )


def test_criterion_11_seasonal_trend_semantics():
    ratio = seasonal_beta(8.0, [0.0] * 6, -0.0378, 0.0, 8.0) / seasonal_beta(
        0.0, [0.0] * 6, -0.0378, 0.0, 8.0
    )
    reduction_pp = 100.0 * (1.0 - ratio)
    ok = abs(ratio - np.exp(-0.0756)) < 1e-12 and abs(reduction_pp - 7.3) < 0.3
    record(
        11,
        "log-linear trend reduction semantics",
        ok,
        f"ratio = {ratio:.6f} = e^-0.0756, reduction = {reduction_pp:.2f}% (7.3% +/- 0.3)",
    )


def test_criterion_12_elimination_predicate():
    rng = np.random.Generator(np.random.Philox(12))
    ok = True
    for _ in range(1000):
        x = (rng.random(110) < rng.uniform(0.02, 0.3)).astype(float)
        window = int(rng.integers(4, 60))
        brute = any(np.sum(x[k : k + window]) == 0 for k in range(x.size - window + 1))
        if (longest_zero_run(x) >= window) != brute:
            ok = False
            break
    m = sir_model()
    g = toy_grid(10)
    data = simulate(m, m.params, g, n_sims=1, seed=3).observation_series(0)
    pf = particle_filter(m, m.params, data, g, J=30, seed=0)
    res = forecast_from_filter(
        m, m.params.replace({"beta": 1e-12}), pf.filter_sample, None,
        weekly_grid(60, g.t_end, week=1.0), n_sims=25, seed=5,
    )
    record(
        12,
        "elimination predicate equivalence + zero-transmission certainty",
        ok and res.probability == 1.0,
        f"1000 brute-force scans exact={ok}, zero-transmission probability = {res.probability}",
    )


def test_criterion_13_benchmark_recovery():
    rng = np.random.Generator(np.random.Philox(1000))

    def simulate_ar_nb(alpha, b, phi, n, r):
        y = np.zeros(n)
        y[0] = alpha
        for i in range(1, n):
            mean = alpha + b * y[i - 1]
            y[i] = r.negative_binomial(phi, phi / (phi + mean))
        return y

    y = simulate_ar_nb(5.0, 0.6, 10.0, 500, rng)
    fit = fit_benchmark(ObservationSeries(("u",), y[None, :]))
    p = fit.params["u"]
    recovered = (
        abs(p.alpha - 5.0) / 5.0 < 0.15
        and abs(p.b - 0.6) / 0.6 < 0.15
        and abs(p.phi - 10.0) / 10.0 < 0.15
    )
    from epipomp.optimize import restarted_nelder_mead

    dominance = True
    for s in range(20):
        r = np.random.Generator(np.random.Philox(5000 + s))
        ys = simulate_ar_nb(4.0, 0.5, 8.0, 120, r)
        full = fit_benchmark(ObservationSeries(("u",), ys[None, :])).unit_logliks["u"]
        obj = lambda est: -ar_nb_loglik(ys, np.exp(est[0]), 0.0, np.exp(est[1]))
        restricted = -restarted_nelder_mead(obj, np.log([max(ys.mean(), 0.1), 5.0])).fun
        if full < restricted - 1e-6:
            dominance = False
            break
    record(
        13,
        "benchmark recovery + nested dominance",
        recovered and dominance,
        f"params within 15%={recovered}, full >= restricted on 20 datasets={dominance}",
    )


def test_criterion_14_end_to_end_smoke(tmp_path):
    started = time.monotonic()
    fit_out = tmp_path / "fit"
    code = main(
        [
            "fit-ibpf", "--seed", "11", "--out", str(fit_out),
            "--set", "model=model3",
            "--set", "fit.J=50", "--set", "fit.M=2",
            "--set", 'fit.rw_sd={"sigma_proc": 0.05, "beta_w": 0.05}',
            "--set", "fit.cooling=0.7",
        ]
    )
    assert code == 0
    fc_out = tmp_path / "fc"
    code = main(
        [
            "forecast", "--seed", "12", "--out", str(fc_out),
            "--set", "model=model3", "--set", "forecast.scenario=V0",
            "--set", "forecast.n_sims=50", "--set", "forecast.horizon_weeks=520",
            "--set", "forecast.J=50",
        ]
    )
    assert code == 0
    elapsed = time.monotonic() - started
    manifest = json.loads((fc_out / "manifest.json").read_text())
    summary = json.loads((fc_out / "summary.json").read_text())
    prob = summary["elimination_probability"]
    ok = (
        manifest["status"] == "ok"
        and manifest["partial"] is False
        and manifest["seed"] == 12
        and 0.0 <= prob <= 1.0
        and elapsed < 300.0
    )
    record(
        14,
        "end-to-end fit-ibpf -> forecast smoke on bundled data",
        ok,
        f"manifest ok, elimination probability = {prob} in [0,1], {elapsed:.0f}s < 300s",
    )
