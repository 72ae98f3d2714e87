"""Acceptance suite: one test per criterion, one printed line per criterion.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines; every
tolerance is fixed here, with discretization constants calibrated by
Richardson extrapolation where statistics require them.
"""

import time

import numpy as np
import pytest

from cmvlq.lqmodel import gains
from cmvlq.measure import mean
from cmvlq.policy import (
    FeedbackPolicy,
    QuadraticFunctional,
    QuadraticValue,
    optimal_feedback,
    recover_original,
    value,
)
from cmvlq.riccati import closed_form_lambda, solve_riccati
from cmvlq.simulator import (
    ConstantControl,
    FeedbackControl,
    ShiftedControl,
    lq_dynamics_spec,
    sample_initial,
    simulate_path,
)
from cmvlq.verify import (
    bellman_residual,
    bellman_rule,
    chaos_convergence,
    chaos_rule,
    dpp_check,
    dpp_rule,
    estimate_cost,
    flow_restarts,
    flow_rule,
    grad_check,
    grad_rule,
    ito_generator_check,
    ito_rule,
    statistical_tolerance,
)

from conftest import make_interbank, random_cloud, random_lq, zero_control
from reference import AffineMap, feedback_affine_map, pushforward, variance_form


def report(num, ok, detail):
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@pytest.fixture(scope="module")
def ib():
    """Interbank stack at the acceptance parameters (sigma1 = 0.3)."""
    p, dyn, cost, sol, qv = make_interbank(h=1e-3)
    model = lq_dynamics_spec(dyn, cost, p.T)
    control = FeedbackControl(FeedbackPolicy(qv))
    return p, dyn, cost, sol, qv, model, control


@pytest.fixture(scope="module")
def ib0():
    """Same parameters with sigma1 = 0."""
    p, dyn, cost, sol, qv = make_interbank(h=1e-3, sigma1=0.0)
    model = lq_dynamics_spec(dyn, cost, p.T)
    control = FeedbackControl(FeedbackPolicy(qv))
    return p, dyn, cost, sol, qv, model, control


@pytest.fixture(scope="module")
def richardson(ib):
    """Cost estimates at dt in {4e-3, 2e-3, 1e-3} and the calibrated dt constant."""
    p, dyn, cost, sol, qv, model, control = ib
    mu0 = {"kind": "point", "x0": p.x0}
    ests = {dt: estimate_cost(model, control, 0.0, mu0, 2000, 200, dt, 2024)
            for dt in (4e-3, 2e-3, 1e-3)}
    c1 = abs(ests[4e-3].mean - ests[2e-3].mean) / 2e-3
    c2 = abs(ests[2e-3].mean - ests[1e-3].mean) / 1e-3
    C = 2.0 * max(c1, c2) + 1.0
    return {"ests": ests, "C": C, "mu0": mu0}


def test_criterion_1_riccati_closed_form(ib):
    p, dyn, cost, _, _, _, _ = ib
    t0 = time.perf_counter()
    sol = solve_riccati(dyn, cost, p.T, 1e-3)
    elapsed = time.perf_counter() - t0
    cf = np.array([closed_form_lambda(p, t) for t in sol.grid])
    err_h = float(np.max(np.abs(sol.Lam[:, 0, 0] - cf)))

    sol_half = solve_riccati(dyn, cost, p.T, 5e-4)
    cf_half = np.array([closed_form_lambda(p, t) for t in sol_half.grid])
    err_half = float(np.max(np.abs(sol_half.Lam[:, 0, 0] - cf_half)))
    ratio = err_h / err_half

    ok = err_h <= 1e-8 and elapsed < 1.0 and 8.0 <= ratio <= 32.0
    report(1, ok, f"max |Lam err| = {err_h:.2e} (<= 1e-8), solve {elapsed:.2f}s (< 1s), "
                  f"h->h/2 error ratio {ratio:.1f} in [8, 32]")


def test_criterion_2_sigma1_zero_degeneration(ib0):
    p, dyn, cost, sol, qv, model, control = ib0
    gam_max = max(float(np.max(np.abs(sol.Gam))), float(np.max(np.abs(sol.gam))))

    fbp = control.policy
    n, dt = 2000, 1e-3
    mu0 = sample_initial({"kind": "point", "x0": p.x0}, n, 7)
    traj = simulate_path(model, control, 0.0, mu0, p.T, dt, 7, 0)
    w0c = np.concatenate(([0.0], np.cumsum(traj.dw0[:, 0])))
    worst_identity = 0.0
    worst_mean_gap = 0.0
    for k in range(0, traj.n_steps + 1, 50):
        t = float(traj.times[k])
        x = traj.states[k][:, 0]
        m = traj.means[k, 0]
        Lam = sol.eval(t)[0][0, 0]
        rec = recover_original(fbp, p, t, x, np.array([m]))
        formula = -(2.0 * Lam + p.q) * (x - m)
        scale = max(1.0, float(np.max(np.abs(rec))))
        worst_identity = max(worst_identity, float(np.max(np.abs(rec - formula))) / scale)
        worst_mean_gap = max(worst_mean_gap, abs(m - (p.x0 + p.sigma0 * p.rho * w0c[k])))
    # the empirical conditional mean carries an idiosyncratic-average term of
    # size theta * sqrt(t/N); with it replaced (paper formula at the simulated
    # mean) the match is exact to rounding
    mean_tol = 6.0 * p.sigma0 * np.sqrt(1 - p.rho ** 2) * np.sqrt(p.T / n) + 1.0 * dt

    # rho = 1 removes the idiosyncratic channel: the literal formula holds
    p1, dyn1, cost1, sol1, qv1 = make_interbank(h=1e-3, sigma1=0.0, rho=1.0)
    model1 = lq_dynamics_spec(dyn1, cost1, p1.T)
    fbp1 = FeedbackPolicy(qv1)
    traj1 = simulate_path(model1, FeedbackControl(fbp1), 0.0,
                          sample_initial({"kind": "point", "x0": p1.x0}, 500, 8),
                          p1.T, dt, 8, 0)
    w0c1 = np.concatenate(([0.0], np.cumsum(traj1.dw0[:, 0])))
    worst_literal = 0.0
    for k in range(0, traj1.n_steps + 1, 50):
        t = float(traj1.times[k])
        x = traj1.states[k][:, 0]
        Lam = sol1.eval(t)[0][0, 0]
        rec = recover_original(fbp1, p1, t, x, np.array([traj1.means[k, 0]]))
        formula = -(2.0 * Lam + p1.q) * (x - p1.x0 - p1.sigma0 * p1.rho * w0c1[k])
        scale = max(1.0, float(np.max(np.abs(rec))))
        worst_literal = max(worst_literal, float(np.max(np.abs(rec - formula))) / scale)

    ok = (gam_max <= 1e-14 and worst_identity <= 1e-10
          and worst_mean_gap <= mean_tol and worst_literal <= 1e-10 + 1.0 * dt)
    report(2, ok, f"max |Gam|,|gam| = {gam_max:.1e} (<= 1e-14); control identity "
                  f"{worst_identity:.1e} (<= 1e-10); mean gap {worst_mean_gap:.2e} "
                  f"(<= {mean_tol:.2e}); literal formula at rho=1 {worst_literal:.1e}")


def test_criterion_3_bellman_residual_identity():
    t_start = time.perf_counter()
    rng = np.random.default_rng(333)
    draws = []
    worst_identity = 0.0
    for seed in (500, 501, 502, 503, 504):
        dyn, cost = random_lq(seed, d=int(rng.integers(1, 4)),
                              with_m2=(seed % 2 == 0))
        sol = solve_riccati(dyn, cost, 1.0, 5e-3)
        qv = QuadraticValue(sol, dyn, cost)
        d, m = dyn.d, dyn.m
        for _ in range(20):
            t = float(rng.uniform(0, 0.999))
            mu = random_cloud(rng, 50, d)
            a_star = feedback_affine_map(optimal_feedback(qv, t), mean(mu))
            r_star, terms = bellman_residual(qv, t, mu, (a_star.A, a_star.A, a_star.b),
                                             with_terms=True)
            draws.append((t, r_star, terms))

            a = AffineMap(a_star.A + 0.5 * rng.standard_normal((m, d)),
                          a_star.b + 0.5 * rng.standard_normal(m))
            r = bellman_residual(qv, t, mu, (a.A, a.A, a.b))
            g = gains(t, *qv.sol.eval(t)[:3], dyn, cost)
            diff = pushforward(mu, AffineMap(a.A - a_star.A, a.b - a_star.b))
            dbar = mean(diff)
            predicted = variance_form(diff, g.U) + float(dbar @ g.V @ dbar)
            rel = abs((r - r_star) - predicted) / max(abs(predicted), 1.0)
            worst_identity = max(worst_identity, rel)
    elapsed = time.perf_counter() - t_start
    star = bellman_rule(draws)
    ok = len(draws) == 100 and star.passed and worst_identity <= 1e-10 and elapsed < 10.0
    report(3, ok, f"{len(draws)} draws: |residual(a*)| <= {star.statistic:.1e} "
                  f"({star.tolerance:g}); "
                  f"excess identity <= {worst_identity:.1e} (1e-10); "
                  f"runtime {elapsed:.1f}s (< 10s)")


def test_criterion_4_verification_gap(ib, richardson):
    p, dyn, cost, sol, qv, model, control = ib
    ests, C, mu0 = richardson["ests"], richardson["C"], richardson["mu0"]
    est = ests[1e-3]
    w0 = value(qv, 0.0, sample_initial(mu0, 2000, 2024))
    gap = abs(est.mean - w0)
    tol = statistical_tolerance(est.stderr, C * 1e-3)
    ok = gap <= tol

    lines = [f"|cost - value| = {gap:.4f} <= {tol:.4f} (C = {C:.1f})"]
    for eps in (0.2, 0.5):
        shifted = estimate_cost(model, ShiftedControl(control, eps), 0.0, mu0,
                                2000, 200, 1e-3, 2024)
        excess = shifted.mean - est.mean
        predicted = eps ** 2 * p.T / 2.0
        ok = ok and abs(excess - predicted) <= 0.2 * predicted
        lines.append(f"eps={eps}: excess {excess:.4f} vs {predicted:.4f}")
    report(4, ok, "; ".join(lines))


def test_criterion_5_dpp_inequality(ib, richardson):
    p, dyn, cost, sol, qv, model, control = ib
    C = richardson["C"]
    mu0 = {"kind": "point", "x0": p.x0}
    controls = {
        "optimal": control,
        "shift 0.2": ShiftedControl(control, 0.2),
        "shift 0.5": ShiftedControl(control, 0.5),
        "zero": zero_control(),
        "affine": ConstantControl(np.array([[-0.3]]), np.array([[-0.3]]), np.array([0.1])),
    }
    dt = 2e-3
    worst = ""
    for name, ctrl in controls.items():
        for theta in (0.25, 0.5, 0.75):
            res = dpp_rule(dpp_check(qv, model, 0.0, mu0, theta, ctrl, 1000, 64, dt, 77),
                           dt, C, two_sided=name == "optimal")
            if not res.passed:
                worst = f"{name}@theta={theta}: gap={res.statistic:.4f} tol={res.tolerance:.4f}"
    report(5, not worst, worst or f"15 (control, theta) pairs: gap >= -(3 stderr + {C:.1f} dt), "
                                 "optimal gap within tolerance")


def test_criterion_6_flow_property():
    rng = np.random.default_rng(666)
    restarts = []
    setups = []
    for sigma1, rho in ((0.3, 0.5), (0.0, 1.0)):
        p, dyn, cost, sol, qv = make_interbank(h=0.02, sigma1=sigma1, rho=rho)
        setups.append((lq_dynamics_spec(dyn, cost, p.T),
                       FeedbackControl(FeedbackPolicy(qv)), 1))
    for seed in (600, 601, 602):
        dyn, cost = random_lq(seed)
        sol = solve_riccati(dyn, cost, 1.0, 0.02)
        qv = QuadraticValue(sol, dyn, cost)
        setups.append((lq_dynamics_spec(dyn, cost, 1.0),
                       FeedbackControl(FeedbackPolicy(qv)), dyn.d))
    for model, control, d in setups:
        mu0 = sample_initial({"kind": "gaussian", "mean": np.zeros(d), "cov": 0.5},
                             64, 6)
        # 50 steps of 0.02: nodes 0..50
        nodes = [(len(restarts), int(rng.integers(0, 51))) for _ in range(2)]
        restarts += flow_restarts(model, control, 0.0, mu0, 1.0, 0.02, 6, nodes)
    report(6, flow_rule(restarts).passed and len(restarts) == 10,
           f"{len(restarts)} random (model, theta) restarts bitwise equal (zero tolerance)")


def test_criterion_7_ito_generator(ib0):
    p, dyn, cost, sol, qv, model, _ = ib0
    phi = QuadraticFunctional(np.zeros((1, 1)), np.eye(1), np.zeros(1), 0.0)
    delta, dt = 0.01, 1e-3
    res = ito_generator_check(model, zero_control(), 0.0,
                              {"kind": "point", "x0": 0.0}, phi, delta,
                              400, 400, dt, 4040)
    exact = (p.sigma0 * p.rho) ** 2
    rhs_exact = res.rhs == pytest.approx(exact, abs=1e-14)
    # bias constant ~ second flow derivative of E[phi]; order-of-magnitude 2|rhs|
    fd = ito_rule(res, dt, bias_factor=2.0)
    report(7, bool(rhs_exact and fd.passed),
           f"generator side {res.rhs:.6f} == (sigma0 rho)^2 = {exact:.6f} exactly; "
           f"|lhs - rhs| = {fd.statistic:.5f} <= {fd.tolerance:.5f}")


def test_criterion_8_lifted_gradient(ib):
    _, dyn, cost, sol, qv, _, _ = ib
    rng = np.random.default_rng(888)
    dyn2, cost2 = random_lq(777, d=2, m=2, with_m2=True)
    qv2 = QuadraticValue(solve_riccati(dyn2, cost2, 1.0, 5e-3), dyn2, cost2)
    draws = []
    for qv_k, d in ((qv, 1), (qv2, 2)):
        for _ in range(50):
            t = float(rng.uniform(0, 1))
            mu = random_cloud(rng, int(rng.integers(2, 25)), d,
                              spread=float(rng.uniform(0.2, 2.0)))
            draws.append((t, grad_check(qv_k, t, mu, 1e-5)))
    res = grad_rule(draws)
    report(8, len(draws) == 100 and res.passed,
           f"max relative gradient error over {len(draws)} draws: {res.statistic:.2e} "
           f"(<= {res.tolerance:g})")


def test_criterion_9_propagation_of_chaos(ib0):
    p, dyn, cost, sol, qv, model, control = ib0
    mu0 = {"kind": "point", "x0": p.x0}
    rows = chaos_convergence(model, control, 0.0, mu0, [250, 1000, 4000],
                             64, 2e-3, 99)
    res = chaos_rule(rows, [value(qv, 0.0, sample_initial(mu0, r["N"], 99)) for r in rows])
    detail = ", ".join(f"N={r['N']}: dev {r['deviation']:.2e} (se {r['stderr']:.1e})"
                       for r in res.constituents["rows"])
    report(9, res.passed, f"deviation from closed-form value decreasing ({detail}); "
                          f"{res.constituents['rises']} inversion(s) allowed <= 1")
