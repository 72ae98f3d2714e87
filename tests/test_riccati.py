import warnings

import numpy as np
import pytest

from cmvlq import riccati
from cmvlq.errors import DomainError, NonPositiveGain, NumericalBlowup
from cmvlq.lqmodel import LqCost, LqDynamics
from cmvlq.riccati import (
    SystemicRiskParams,
    closed_form_lambda,
    delta_pm,
    ode_rhs,
    save_riccati_csv,
    solve_riccati,
    systemic_risk_model,
)

from conftest import make_interbank, random_lq
from reference import array_kit, array_sweep, direct_rhs, feedback_by_gains

# independent RK4 integration of the scalar Riccati ODE at h = 1e-6,
# kappa=1, q=0, eta=1, c=1, sigma1=0, T=1, evaluated at t = 0
FINE_GRID_LAMBDA0 = 0.22159516602816265


def interbank_params(**kw):
    base = dict(kappa=1.0, q=0.0, eta=1.0, c=1.0, sigma0=1.0, sigma1=0.0,
                rho=0.5, T=1.0, x0=0.0)
    base.update(kw)
    return SystemicRiskParams(**base)


class TestClosedForm:
    def test_terminal_value(self):
        p = interbank_params(c=1.7)
        assert closed_form_lambda(p, p.T) == pytest.approx(0.85, abs=1e-15)

    def test_zero_solution_degenerate(self):
        # eta = q^2 and c = 0: zero forcing, zero terminal data
        p = interbank_params(q=1.0, eta=1.0, c=0.0)
        for t in (0.0, 0.3, 1.0):
            assert closed_form_lambda(p, t) == 0.0

    def test_double_root_branch(self):
        # kappa + q = sigma1^2 / 2 and eta = q^2: Lambda' = 2 Lambda^2
        p = interbank_params(kappa=0.0, q=1.0, eta=1.0, sigma1=np.sqrt(2.0), c=0.8)
        for t in (0.0, 0.5, 1.0):
            expect = 0.4 / (1.0 + 0.8 * (1.0 - t))
            assert closed_form_lambda(p, t) == pytest.approx(expect, rel=1e-12)

    def test_fine_grid_oracle(self):
        p = interbank_params()
        assert closed_form_lambda(p, 0.0) == pytest.approx(FINE_GRID_LAMBDA0, abs=1e-9)

    def test_positive_on_horizon(self):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            p = interbank_params(kappa=float(rng.uniform(0, 2)),
                                 q=float(rng.uniform(0, 0.9)),
                                 eta=float(rng.uniform(0.85, 3)),
                                 c=float(rng.uniform(0.1, 2)),
                                 sigma1=float(rng.uniform(-1, 1)))
            for t in np.linspace(0, p.T, 11):
                assert closed_form_lambda(p, t) > 0.0

    def test_domain_error(self):
        p = interbank_params(q=2.0, eta=1.0)
        with pytest.raises(DomainError):
            closed_form_lambda(p, 0.0)
        with pytest.raises(DomainError):
            delta_pm(p)

    def test_time_range(self):
        with pytest.raises(ValueError):
            closed_form_lambda(interbank_params(), 1.5)


class TestSystemicRiskModel:
    def test_quoted_coefficients(self):
        p = interbank_params(q=0.5)
        dyn, cost = systemic_risk_model(p)
        assert dyn.B[0, 0] == pytest.approx(-1.5, abs=0)
        assert dyn.Bbar[0, 0] == pytest.approx(1.5, abs=0)
        assert cost.Q2[0, 0] == pytest.approx(0.375, abs=0)
        assert cost.Q2bar[0, 0] == pytest.approx(-0.375, abs=0)
        assert cost.R2[0, 0] == 0.5
        assert cost.P2[0, 0] == 0.5
        assert cost.P2bar[0, 0] == -0.5
        assert not np.any(cost.M2)

    def test_full_common_noise(self):
        p = interbank_params(sigma1=0.0, rho=1.0)
        dyn, _ = systemic_risk_model(p)
        assert dyn.D[0, 0] == 0.0
        assert dyn.D0[0, 0] == 0.0
        assert dyn.theta[0] == 0.0
        assert dyn.theta0[0] == pytest.approx(p.sigma0, abs=0)
        assert dyn.D0bar[0, 0] == 0.0

    def test_generic_rhs_matches_scalar_system(self):
        # generic backward RHS vs the literal scalar equations
        rng = np.random.default_rng(31)
        for trial in range(10):
            p = interbank_params(kappa=float(rng.uniform(0, 2)),
                                 q=float(rng.uniform(0, 0.8)),
                                 eta=float(rng.uniform(0.7, 2)),
                                 c=float(rng.uniform(0.2, 2)),
                                 sigma0=float(rng.uniform(0.5, 2)),
                                 sigma1=float(rng.uniform(-1, 1)),
                                 rho=float(rng.uniform(-1, 1)))
            dyn, cost = systemic_risk_model(p)
            Lam = float(rng.uniform(0.05, 2))
            Gam = float(rng.uniform(-1, 1))
            gam = float(rng.uniform(-1, 1))
            dL, dG, dg, dc = ode_rhs(np.array([[Lam]]), np.array([[Gam]]),
                                     np.array([gam]), dyn, cost)
            rate = p.kappa + p.q - 0.5 * p.sigma1 ** 2
            s1sq, rho2 = p.sigma1 ** 2, p.rho ** 2
            exp_dL = 2 * rate * Lam + 2 * Lam ** 2 - 0.5 * (p.eta - p.q ** 2)
            exp_dG = 2 * Gam ** 2 - s1sq * rho2 * Gam - s1sq * (1 - rho2) * Lam
            exp_dg = 2 * Gam * gam - 2 * p.sigma0 * p.sigma1 * rho2 * Gam \
                - 2 * p.sigma0 * p.sigma1 * (1 - rho2) * Lam
            exp_dc = 0.5 * gam ** 2 - p.sigma0 ** 2 * rho2 * Gam \
                - p.sigma0 ** 2 * (1 - rho2) * Lam
            assert dL[0, 0] == pytest.approx(exp_dL, rel=1e-12, abs=1e-12)
            assert dG[0, 0] == pytest.approx(exp_dG, rel=1e-12, abs=1e-12)
            assert dg[0] == pytest.approx(exp_dg, rel=1e-12, abs=1e-12)
            assert dc == pytest.approx(exp_dc, rel=1e-12, abs=1e-12)


class TestSolve:
    def test_interbank_matches_closed_form(self):
        p, dyn, cost, sol, _ = make_interbank(h=1e-3, q=0.0, sigma1=0.0, x0=0.0)
        cf = np.array([closed_form_lambda(p, t) for t in sol.grid])
        assert np.max(np.abs(sol.Lam[:, 0, 0] - cf)) <= 1e-8

    def test_sigma1_zero_kills_gam_and_gam_vec(self):
        _, _, _, sol, _ = make_interbank(h=1e-3, sigma1=0.0)
        assert np.max(np.abs(sol.Gam)) <= 1e-14
        assert np.max(np.abs(sol.gam)) <= 1e-14

    def test_chi_quadrature_oracle(self):
        from scipy.integrate import quad

        p, _, _, sol, _ = make_interbank(h=1e-3, sigma1=0.0)
        oracle, _ = quad(lambda s: p.sigma0 ** 2 * (1 - p.rho ** 2)
                         * closed_form_lambda(p, s), 0.0, p.T,
                         epsabs=1e-13, epsrel=1e-13)
        assert sol.chi[0] == pytest.approx(oracle, abs=1e-10)

    def test_zero_data_zero_lambda(self):
        # P2 = Q2 = 0, M2 = 0, F = F0 = 0: zero is the exact solution
        dyn, cost = random_lq(40, d=2, m=1)
        dyn = LqDynamics(b0=dyn.b0, B=dyn.B, Bbar=dyn.Bbar, C=dyn.C, theta=dyn.theta,
                         D=dyn.D, Dbar=dyn.Dbar, F=np.zeros((2, 1)), theta0=dyn.theta0,
                         D0=dyn.D0, D0bar=dyn.D0bar, F0=np.zeros((2, 1)))
        cost = LqCost(Q2=np.zeros((2, 2)), Q2bar=cost.Q2bar, R2=cost.R2,
                      P2=np.zeros((2, 2)), P2bar=cost.P2bar)
        with pytest.warns(RuntimeWarning):
            sol = solve_riccati(dyn, cost, 1.0, 0.01)
        assert np.max(np.abs(sol.Lam)) == 0.0

    def test_terminal_conditions_exact(self):
        dyn, cost = random_lq(41, d=3, m=2)
        sol = solve_riccati(dyn, cost, 1.0, 0.01)
        assert np.array_equal(sol.Lam[-1], cost.P2)
        assert np.array_equal(sol.Gam[-1], cost.P2 + cost.P2bar)
        assert np.all(sol.gam[-1] == 0.0)
        assert sol.chi[-1] == 0.0

    def test_symmetry_every_node(self):
        dyn, cost = random_lq(42, d=3, m=2, with_m2=True)
        sol = solve_riccati(dyn, cost, 1.0, 0.01)
        assert np.max(np.abs(sol.Lam - np.swapaxes(sol.Lam, 1, 2))) <= 1e-12
        assert np.max(np.abs(sol.Gam - np.swapaxes(sol.Gam, 1, 2))) <= 1e-12

    def test_psd_under_standing_condition(self):
        for seed in (50, 51, 52):
            dyn, cost = random_lq(seed)
            sol = solve_riccati(dyn, cost, 1.0, 5e-3)
            for k in range(sol.n_nodes):
                assert np.min(np.linalg.eigvalsh(sol.Lam[k])) >= -1e-10
                assert np.min(np.linalg.eigvalsh(sol.Gam[k])) >= -1e-10
            assert np.min(sol.pd_history) > 1e-10

    def test_convergence_order(self):
        p = interbank_params(q=0.5, sigma1=0.3)
        dyn, cost = systemic_risk_model(p)
        errs = []
        for h in (4e-3, 2e-3, 1e-3, 5e-4):
            sol = solve_riccati(dyn, cost, p.T, h)
            cf = np.array([closed_form_lambda(p, t) for t in sol.grid])
            errs.append(np.max(np.abs(sol.Lam[:, 0, 0] - cf)))
        for coarse, fine in zip(errs, errs[1:]):
            assert 8.0 <= coarse / fine <= 32.0

    def test_step_validation(self):
        dyn, cost = random_lq(43, d=1, m=1)
        with pytest.raises(ValueError):
            solve_riccati(dyn, cost, 1.0, 0.3)
        with pytest.raises(ValueError):
            solve_riccati(dyn, cost, 1.0, 0.6)
        with pytest.raises(ValueError):
            solve_riccati(dyn, cost, 1.0, -0.1)

    def test_non_positive_gain(self):
        dyn, _ = random_lq(44, d=1, m=1)
        bad = LqCost(Q2=1.0, Q2bar=0.0, R2=-0.1, P2=1.0, P2bar=0.0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonPositiveGain) as exc:
                solve_riccati(dyn, bad, 1.0, 0.01)
        assert exc.value.min_eig <= 1e-10

    def test_blowup(self):
        # Lambda' = 2 Lambda^2 with Lambda(T) < 0 escapes in finite time
        dyn = LqDynamics(b0=0.0, B=0.0, Bbar=0.0, C=1.0, theta=0.0, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        bad = LqCost(Q2=0.0, Q2bar=0.0, R2=0.5, P2=-5.0, P2bar=0.0)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericalBlowup) as exc:
                solve_riccati(dyn, bad, 1.0, 1e-3)
        assert exc.value.where == "t=0.899"

    def test_blowup_d2(self):
        # the same escape on the diagonal of a d = m = 2 model, through the array sweep
        I, Z, z = np.eye(2), np.zeros((2, 2)), np.zeros(2)
        dyn = LqDynamics(b0=z, B=Z, Bbar=Z, C=I, theta=z, D=Z, Dbar=Z, F=Z,
                         theta0=z, D0=Z, D0bar=Z, F0=Z)
        bad = LqCost(Q2=Z, Q2bar=Z, R2=0.5 * I, P2=-5.0 * I, P2bar=Z)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NumericalBlowup) as exc:
                solve_riccati(dyn, bad, 1.0, 1e-3)
        assert exc.value.where == "t=0.899"

    def test_stage_overflow_is_blowup(self):
        # B = 1e150 I overflows an RK4 stage to inf within the first step; the
        # non-finite gain matrix is reported, never factored
        I, Z, z = np.eye(2), np.zeros((2, 2)), np.zeros(2)
        dyn = LqDynamics(b0=z, B=1e150 * I, Bbar=Z, C=I, theta=z, D=Z, Dbar=Z,
                         F=0.1 * I, theta0=z, D0=Z, D0bar=Z, F0=Z)
        cost = LqCost(Q2=I, Q2bar=Z, R2=I, P2=I, P2bar=Z)
        with pytest.raises(NumericalBlowup) as exc:
            solve_riccati(dyn, cost, 1.0, 0.01)
        assert exc.value.where == "t=0.99"
        assert "gain matrix U is not finite" in str(exc.value)


def falling_gain_model(d, which, r, p2bar=0.0):
    """A model whose U (which="U") or V (which="V") falls by 1 per unit time back from T.

    Only entry (0, 0) moves: Lam_00 (through Q2 = -1) or Gam_00 (through
    Q2bar = -1) falls linearly, and U_00 = Lam_00 + r or V_00 = Gam_00 + r;
    every other direction keeps weight 1.
    """
    e = np.zeros((d, d))
    e[0, 0] = 1.0
    rest = np.eye(d) - e
    Z, z = np.zeros((d, d)), np.zeros(d)
    F, F0, Q2bar = (e, Z, Z) if which == "U" else (Z, e, -e)
    Q2 = -e + 0.5 * rest if which == "U" else 0.5 * rest
    dyn = LqDynamics(b0=z, B=Z, Bbar=Z, C=Z, theta=z, D=Z, Dbar=Z, F=F,
                     theta0=z, D0=Z, D0bar=Z, F0=F0)
    return dyn, LqCost(Q2=Q2, Q2bar=Q2bar, R2=r * e + rest, P2=Z, P2bar=p2bar * e)


class TestFailureSemantics:
    """NonPositiveGain names the node or stage, eigenvalue and matrix that fail first.

    The expected triples are those of the solver that checked every node
    with gains() before its first RK4 stage; h = 1/8, so the nodes are
    exact binary fractions.
    """

    @pytest.mark.parametrize("d", [1, 2])
    @pytest.mark.parametrize("which, r, p2bar, expect", [
        ("U", -0.1, 0.0, (1.0, -0.1, "U")),                            # U <= 0 at T
        ("U", 0.4275, 0.0, (0.5625, -0.010000000000000009, "U")),      # at a half-step stage
        ("U", 0.5, 0.0, (0.5, 0.0, "U")),                              # U = 0 exactly
        ("V", 0.5, -0.6, (1.0, -0.09999999999999998, "V")),            # V <= 0 < U at T
        ("V", 0.4275, 0.0, (0.5625, -0.010000000000000009, "V")),      # at a half-step stage
        ("U", 0.5 + 3e-11, 0.0, (0.5, 3.000000248221113e-11, "U")),    # 0 < eig <= 1e-10
        ("V", 0.5 + 3e-11, 0.0, (0.5, 3.000000248221113e-11, "V")),
    ])
    def test_first_failure(self, d, which, r, p2bar, expect):
        dyn, cost = falling_gain_model(d, which, r, p2bar)
        with pytest.warns(RuntimeWarning):
            with pytest.raises(NonPositiveGain) as exc:
                solve_riccati(dyn, cost, 1.0, 0.125)
        assert (float(exc.value.t), exc.value.min_eig, exc.value.which) == expect


def random_scalar_model(seed):
    """A random d = m = 1 model: F, F0, M2 and b0 nonzero, three other coefficients exactly 0."""
    rng = np.random.default_rng([seed, 11])
    dyn_keys = ["b0", "B", "Bbar", "C", "theta", "D", "Dbar", "F", "theta0", "D0", "D0bar", "F0"]
    vals = {k: float(rng.normal(0.0, 0.5)) for k in dyn_keys + ["M2"]}
    for k in rng.choice(["Bbar", "C", "theta", "D", "Dbar", "theta0", "D0", "D0bar"], 3, replace=False):
        vals[k] = 0.0
    q2, p2 = float(rng.uniform(0, 1)), float(rng.uniform(0, 1))
    cost = LqCost(Q2=q2, Q2bar=float(rng.uniform(-q2, 1)) if seed % 4 else 0.0,
                  R2=float(rng.uniform(0.3, 1.5)), P2=p2,
                  P2bar=-p2 if seed % 5 == 0 else float(rng.uniform(-p2, 1)), M2=vals.pop("M2"))
    return LqDynamics(**vals), cost


def sweep_outcome(kit, T, K, h):
    """Every array of the sweep's solution as bytes, or the error it raised."""
    try:
        sol = riccati._sweep(kit, T, K, h)
    except (NonPositiveGain, NumericalBlowup) as exc:
        return type(exc).__name__, str(exc), getattr(exc, "min_eig", None)
    return {name: getattr(sol, name).tobytes()
            for name in ("grid", "Lam", "Gam", "gam", "chi", "pd_history", "K1", "K2", "k")}


class TestSweep:
    def test_scalar_floats_equal_arrays(self):
        # the float sweep against the array sweep forced at d = 1, bit for bit
        outcomes = []
        for seed in range(24):
            dyn, cost = random_scalar_model(seed)
            scalar = sweep_outcome(riccati.backward_kit(dyn, cost), 1.0, 100, 0.01)
            arrays = sweep_outcome(array_kit(dyn, cost), 1.0, 100, 0.01)
            assert scalar == arrays, seed
            outcomes.append(isinstance(scalar, dict))
        assert sum(outcomes) >= 20

    def test_interbank_floats_equal_arrays(self, interbank):
        _, dyn, cost, sol, _ = interbank
        arrays = sweep_outcome(array_kit(dyn, cost), 1.0, 1000, 1e-3)
        assert arrays == {name: getattr(sol, name).tobytes()
                          for name in ("grid", "Lam", "Gam", "gam", "chi", "pd_history",
                                       "K1", "K2", "k")}

    @pytest.mark.parametrize("case", ["interbank", "d3"])
    def test_node_gains_equal_optimal_feedback(self, case, interbank):
        from cmvlq.policy import QuadraticValue, optimal_feedback

        if case == "interbank":
            qv = interbank[4]
        else:
            dyn, cost = random_lq(47, d=3, m=2, with_m2=True)
            qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 0.01), dyn, cost)
        sol = qv.sol
        fbs = [optimal_feedback(qv, float(t)) for t in sol.grid]
        assert np.stack([fb.K1 for fb in fbs]).tobytes() == sol.K1.tobytes()
        assert np.stack([fb.K2 for fb in fbs]).tobytes() == sol.K2.tobytes()
        assert np.stack([fb.k for fb in fbs]).tobytes() == sol.k.tobytes()

    def test_pd_history_is_gains_eigenvalues(self):
        from cmvlq.lqmodel import gains

        dyn, cost = random_lq(48, d=3, m=2, with_m2=True)
        sol = solve_riccati(dyn, cost, 1.0, 0.05)
        for k in range(sol.n_nodes):
            g = gains(sol.grid[k], sol.Lam[k], sol.Gam[k], sol.gam[k], dyn, cost)
            assert (sol.pd_history[k, 0], sol.pd_history[k, 1]) == (g.min_eig_u, g.min_eig_v)

    def test_ode_rhs_at_d1_is_direct_formulas(self, interbank):
        # the float route against the array formulas on 1x1 arrays, bit for bit
        rng = np.random.default_rng(71)
        models = [interbank[1:3]] + [random_scalar_model(seed) for seed in range(24)]
        for trial in range(250):
            dyn, cost = models[trial % len(models)]
            Lam, Gam = abs(rng.normal(0.0, 1.0)) + 0.1, rng.normal(0.0, 1.0)
            args = (np.array([[Lam]]), np.array([[Gam]]), np.array([rng.normal(0.0, 1.0)]))
            want = solve_outcome(lambda: direct_rhs(*args, dyn, cost, 0.25)[0])
            got = solve_outcome(lambda: ode_rhs(*args, dyn, cost, 0.25))
            if isinstance(want[0], str):
                assert got == want
                continue
            assert [np.asarray(a).tobytes() for a in got] == [np.asarray(a).tobytes() for a in want]
            assert type(got[3]) is float and got[0].shape == (1, 1) and got[2].shape == (1,)

    @pytest.mark.parametrize("d, m", [(1, 1), (3, 2), (3, 1)])
    def test_off_node_feedback_is_gains_and_cholesky(self, d, m, interbank):
        from cmvlq.policy import QuadraticValue, optimal_feedback

        if d == 1:
            qv = interbank[4]
        else:
            dyn, cost = random_lq(50 + m, d=d, m=m, with_m2=True)
            qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 0.01), dyn, cost)
        grid = qv.sol.grid
        times = np.concatenate((np.linspace(0.0, 1.0, 97), 0.5 * (grid[:-1] + grid[1:])[::7]))
        assert np.sum(~np.isin(times, grid)) >= 100
        for t in times:
            fb = optimal_feedback(qv, float(t))
            want = feedback_by_gains(qv, float(t))
            assert [fb.K1.shape, fb.K2.shape, fb.k.shape] == [(m, d), (m, d), (m,)]
            assert [a.tobytes() for a in (fb.K1, fb.K2, fb.k)] == [a.tobytes() for a in want]


class TestEval:
    def test_terminal_node(self):
        _, _, cost, sol, _ = make_interbank(h=0.05)
        Lam, Gam, gam, chi = sol.eval(sol.T)
        assert np.array_equal(Lam, cost.P2)
        assert np.array_equal(Gam, cost.P2 + cost.P2bar)
        assert np.all(gam == 0.0) and chi == 0.0

    def test_node_hit_bitwise(self):
        _, _, _, sol, _ = make_interbank(h=0.05)
        for k in (0, 7, sol.n_nodes - 1):
            Lam, Gam, gam, chi = sol.eval(float(sol.grid[k]))
            assert np.array_equal(Lam, sol.Lam[k])
            assert np.array_equal(Gam, sol.Gam[k])
            assert np.array_equal(gam, sol.gam[k])
            assert chi == sol.chi[k]

    def test_midpoint_is_arithmetic_mean(self):
        _, _, _, sol, _ = make_interbank(h=0.05)
        k = 4
        tm = 0.5 * (sol.grid[k] + sol.grid[k + 1])
        Lam, _, _, chi = sol.eval(float(tm))
        assert np.array_equal(Lam, 0.5 * sol.Lam[k] + 0.5 * sol.Lam[k + 1])
        assert chi == 0.5 * sol.chi[k] + 0.5 * sol.chi[k + 1]

    def test_out_of_range(self):
        _, _, _, sol, _ = make_interbank(h=0.05)
        with pytest.raises(ValueError):
            sol.eval(-0.2)
        with pytest.raises(ValueError):
            sol.eval(sol.T + 0.2)

    def test_non_finite_t(self):
        dyn, cost = random_lq(49, d=3, m=2)
        sol = solve_riccati(dyn, cost, 1.0, 0.05)
        for t in (float("nan"), float("inf"), -float("inf")):
            with pytest.raises(ValueError, match="not finite"):
                sol.eval(t)

    def test_continuity(self):
        _, _, _, sol, _ = make_interbank(h=0.05)
        for t in np.linspace(0.0, sol.T, 173):
            left = sol.eval(max(float(t) - 1e-10, 0.0))[0]
            right = sol.eval(min(float(t) + 1e-10, sol.T))[0]
            assert np.max(np.abs(left - right)) < 1e-7


class TestCsv:
    def test_columns_and_values(self, tmp_path):
        dyn, cost = random_lq(45, d=2, m=1)
        sol = solve_riccati(dyn, cost, 1.0, 0.05)
        path = tmp_path / "riccati.csv"
        save_riccati_csv(sol, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == ("t,Lam_00,Lam_01,Lam_10,Lam_11,"
                            "Gam_00,Gam_01,Gam_10,Gam_11,gam_0,gam_1,chi,minEigU,minEigV")
        assert len(lines) == sol.n_nodes + 1
        last = [float(v) for v in lines[-1].split(",")]
        assert last[0] == 1.0
        assert last[1] == sol.Lam[-1, 0, 0]

    def test_deterministic_bytes(self, tmp_path):
        dyn, cost = random_lq(46, d=1, m=1)
        sol = solve_riccati(dyn, cost, 1.0, 0.05)
        p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
        save_riccati_csv(sol, p1)
        save_riccati_csv(sol, p2)
        assert p1.read_bytes() == p2.read_bytes()


class TestParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            interbank_params(kappa=-1.0)
        with pytest.raises(ValueError):
            interbank_params(eta=0.0)
        with pytest.raises(ValueError):
            interbank_params(rho=1.5)
        with pytest.raises(ValueError):
            interbank_params(T=0.0)
        with pytest.raises(ValueError):
            interbank_params(sigma0=0.0)

    def test_delta_pm_roots(self):
        # delta+- solve x^2 + 2 rate x - (eta - q^2) = 0
        p = interbank_params(q=0.5, sigma1=0.3)
        rate = p.kappa + p.q - 0.5 * p.sigma1 ** 2
        for root in delta_pm(p):
            assert root ** 2 + 2 * rate * root - (p.eta - p.q ** 2) == pytest.approx(
                0.0, abs=1e-12)


def operator_model(seed):
    """A random model with d in 2..4 and m != d in 1..4; M2 on even seeds.

    Seeds 1 mod 4 drive Lam and Gam down backward from T (Q2 < 0), seeds
    3 mod 4 the mean's weight Gam (Q2bar < 0), both with a small R2, so U or
    V loses positive definiteness at a node or a stage.
    """
    rng = np.random.default_rng([seed, 17])
    d = int(rng.integers(2, 5))
    m = int(rng.choice([k for k in range(1, 5) if k != d]))
    dyn, cost = random_lq(500 + seed, d=d, m=m, with_m2=seed % 2 == 0)
    if seed % 4 == 1:
        cost = LqCost(Q2=-float(rng.uniform(2, 6)) * np.eye(d), Q2bar=cost.Q2bar,
                      R2=0.05 * np.eye(m), P2=cost.P2, P2bar=cost.P2bar, M2=cost.M2)
    elif seed % 4 == 3:
        cost = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar - float(rng.uniform(2, 6)) * np.eye(d),
                      R2=0.05 * np.eye(m), P2=cost.P2, P2bar=cost.P2bar, M2=cost.M2)
    return dyn, cost


def overflow_models():
    """d = 3, m = 2: an RK4 stage that overflows to inf, and a state that escapes past 1e12."""
    I3, Z3, z3 = np.eye(3), np.zeros((3, 3)), np.zeros(3)
    C = np.vstack((np.eye(2), np.zeros((1, 2))))
    stage = (LqDynamics(b0=z3, B=1e150 * I3, Bbar=Z3, C=C, theta=z3, D=Z3, Dbar=Z3, F=0.1 * C,
                        theta0=z3, D0=Z3, D0bar=Z3, F0=np.zeros((3, 2))),
             LqCost(Q2=I3, Q2bar=Z3, R2=np.eye(2), P2=I3, P2bar=Z3))
    escape = (LqDynamics(b0=z3, B=Z3, Bbar=Z3, C=C, theta=z3, D=Z3, Dbar=Z3, F=np.zeros((3, 2)),
                         theta0=z3, D0=Z3, D0bar=Z3, F0=np.zeros((3, 2))),
              LqCost(Q2=Z3, Q2bar=Z3, R2=0.5 * np.eye(2), P2=-5.0 * I3, P2bar=Z3))
    return [stage, escape]


def solve_outcome(solve):
    """The solution, or the failure as (type, t or where, which)."""
    try:
        return solve()
    except NonPositiveGain as exc:
        return "NonPositiveGain", float(exc.t), exc.which
    except NumericalBlowup as exc:
        return "NumericalBlowup", exc.where, None


def assert_close(got, want, tol):
    """Every entry of got within tol of want, relative to max(1, |want|)."""
    got, want = np.asarray(got), np.asarray(want)
    assert got.shape == want.shape
    assert np.all(np.abs(got - want) <= tol * np.maximum(1.0, np.abs(want)))


MODELS = [operator_model(seed) for seed in range(24)] + overflow_models()


class TestOperator:
    """The d > 1 sweep on the model's BackwardOperator against the direct array formulas."""

    @pytest.mark.parametrize("case", range(24))
    def test_rhs_matches_direct_formulas(self, case):
        dyn, cost = MODELS[case]
        kit = riccati.backward_kit(dyn, cost)
        rng = np.random.default_rng([case, 5])
        d = dyn.d
        for _ in range(5):
            a, b = 0.2 * rng.standard_normal((2, d, d))
            Lam, Gam = cost.P2 + a + a.T, cost.P2 + cost.P2bar + b + b.T
            gam = 0.3 * rng.standard_normal(d)
            want = solve_outcome(lambda: direct_rhs(Lam, Gam, gam, dyn, cost, 0.5)[0])
            got = solve_outcome(lambda: riccati.ode_rhs(Lam, Gam, gam, dyn, cost, 0.5, kit))
            if isinstance(want[0], str):
                assert got == want
                continue
            for g, w in zip(got, want):
                assert_close(g, w, 1e-13)
            assert np.array_equal(got[0], got[0].T) and np.array_equal(got[1], got[1].T)

    @pytest.mark.parametrize("case", range(len(MODELS)))
    def test_sweep_matches_array_sweep(self, case):
        dyn, cost = MODELS[case]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            got = solve_outcome(lambda: solve_riccati(dyn, cost, 1.0, 0.01))
            want = solve_outcome(lambda: array_sweep(dyn, cost, 1.0, 0.01))
        if isinstance(want, tuple):
            assert got == want
            return
        assert got.kit.op is not None
        for name in ("grid", "Lam", "Gam", "gam", "chi", "pd_history", "K1", "K2", "k"):
            assert_close(getattr(got, name), getattr(want, name), 1e-12)

    def test_models_cover_every_outcome(self):
        outcomes = []
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            for dyn, cost in MODELS:
                res = solve_outcome(lambda: array_sweep(dyn, cost, 1.0, 0.01))
                outcomes.append(res[0] + (res[2] or "") if isinstance(res, tuple) else "ok")
        assert {"ok", "NonPositiveGainU", "NonPositiveGainV", "NumericalBlowup"} <= set(outcomes)
        assert outcomes.count("ok") >= 10
        assert all(dyn.m != dyn.d for dyn, _ in MODELS[:24])

    def test_one_operator_per_model(self):
        from cmvlq.lqmodel import gains
        from cmvlq.policy import QuadraticValue

        dyn, cost = random_lq(47, d=3, m=2, with_m2=True)
        sol = solve_riccati(dyn, cost, 1.0, 0.05)
        assert QuadraticValue(sol, dyn, cost).kit.op is sol.kit.op
        other = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=2.0 * cost.R2, P2=cost.P2,
                       P2bar=cost.P2bar, M2=cost.M2)
        qv = QuadraticValue(sol, dyn, other)
        assert qv.kit.op is not sol.kit.op and qv.kit.op is not None
        # a rebuilt operator gives the same bits as the one the solve kept
        k = 7
        args = (sol.grid[k], sol.Lam[k], sol.Gam[k], sol.gam[k], dyn, cost)
        for a, b in zip(astuple_gains(gains(*args)), astuple_gains(gains(*args, sol.kit.op))):
            assert a.tobytes() == b.tobytes()

    def test_scalar_model_has_no_operator(self, interbank):
        _, _, _, sol, qv = interbank
        assert sol.kit.op is None and qv.kit.op is None


def astuple_gains(g):
    return (g.U, g.V, np.ascontiguousarray(g.S), np.ascontiguousarray(g.Z), g.Y,
            np.array([g.min_eig_u, g.min_eig_v]))
