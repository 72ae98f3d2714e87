import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cmvlq import policy
from cmvlq.errors import NonPositiveGain
from cmvlq.lqmodel import LqCost, gains
from cmvlq.measure import EmpiricalMeasure, mean, tree_mean
from cmvlq.policy import (
    FeedbackPolicy,
    QuadraticFunctional,
    QuadraticValue,
    optimal_feedback,
    recover_original,
    value,
)
from cmvlq.riccati import solve_riccati

from conftest import make_interbank, random_cloud, random_lq
from reference import (
    AffineMap,
    feedback_affine_map,
    l2_norm,
    lifted_terminal_cost,
    moment_functional,
    pushforward,
    quadratic_functional,
    terminal_consistency_gap,
    value_derivatives,
    variance_form,
)


@pytest.fixture(scope="module")
def random_qv():
    dyn, cost = random_lq(60, d=2, m=2, with_m2=True)
    sol = solve_riccati(dyn, cost, 1.0, 2e-3)
    return QuadraticValue(sol, dyn, cost)


class TestValue:
    def test_point_mass(self, random_qv):
        rng = np.random.default_rng(61)
        for _ in range(5):
            t = float(rng.uniform(0, 1))
            x = rng.standard_normal(2)
            mu = EmpiricalMeasure(np.tile(x, (6, 1)))
            Lam, Gam, gam, chi = random_qv.sol.eval(t)
            expect = float(x @ Gam @ x + x @ gam) + chi
            assert value(random_qv, t, mu) == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_terminal_consistency(self, random_qv):
        rng = np.random.default_rng(62)
        for _ in range(30):
            mu = random_cloud(rng, int(rng.integers(1, 25)), 2)
            assert terminal_consistency_gap(random_qv, mu) <= 1e-12 * (
                1.0 + abs(lifted_terminal_cost(mu, random_qv.cost)))

    def test_interbank_value_is_lambda_quadrature(self, interbank_sigma1_zero):
        from scipy.integrate import quad

        from cmvlq.riccati import closed_form_lambda

        p, _, _, _, qv = interbank_sigma1_zero
        mu = EmpiricalMeasure(np.full((11, 1), p.x0))
        oracle, _ = quad(lambda s: p.sigma0 ** 2 * (1 - p.rho ** 2)
                         * closed_form_lambda(p, s), 0.0, p.T,
                         epsabs=1e-13, epsrel=1e-13)
        assert value(qv, 0.0, mu) == pytest.approx(oracle, abs=1e-9)

    def test_time_range(self, random_qv):
        mu = EmpiricalMeasure([[0.0, 0.0]])
        with pytest.raises(ValueError):
            value(random_qv, 1.2, mu)


class TestValueDerivatives:
    def test_centered_point_zero_gradient(self, interbank_sigma1_zero):
        # Gam = gam = 0: the derivative at x = mean vanishes
        _, _, _, _, qv = interbank_sigma1_zero
        rng = np.random.default_rng(63)
        mu = random_cloud(rng, 9, 1)
        mbar = mean(mu)
        _, d_mu, _, _ = value_derivatives(qv, 0.4, mu, mbar)
        assert np.max(np.abs(d_mu)) <= 1e-13

    def test_state_derivative_constant(self, random_qv):
        rng = np.random.default_rng(64)
        mu = random_cloud(rng, 7, 2)
        t = 0.37
        Lam = random_qv.sol.eval(t)[0]
        for _ in range(4):
            x = rng.standard_normal(2)
            _, _, dx_dmu, d2_mu = value_derivatives(random_qv, t, mu, x)
            assert np.array_equal(dx_dmu, 2.0 * Lam)
        Gam = random_qv.sol.eval(t)[1]
        assert np.allclose(d2_mu, 2.0 * (Gam - Lam), atol=0)

    def test_gradient_matches_lifted_finite_difference(self, random_qv):
        rng = np.random.default_rng(65)
        eps = 1e-5
        for _ in range(5):
            mu = random_cloud(rng, 8, 2)
            t = float(rng.uniform(0, 0.99))
            phi = random_qv.at(t)
            i = int(rng.integers(0, mu.n))
            _, d_mu, _, _ = value_derivatives(random_qv, t, mu, mu.points[i])
            for j in range(2):
                up = mu.points.copy()
                up[i, j] += eps
                dn = mu.points.copy()
                dn[i, j] -= eps
                fd = (phi(EmpiricalMeasure(up)) - phi(EmpiricalMeasure(dn))) / (2 * eps)
                assert fd == pytest.approx(d_mu[j] / mu.n, rel=1e-6, abs=1e-9)

    def test_time_derivative_is_ode_rhs(self, random_qv):
        # d_t from the exact right-hand sides, cross-checked by differencing
        # the value on a fine solve
        dyn, cost = random_qv.dyn, random_qv.cost
        fine = QuadraticValue(solve_riccati(dyn, cost, 1.0, 1e-4), dyn, cost)
        rng = np.random.default_rng(66)
        mu = random_cloud(rng, 6, 2)
        for t in (0.11, 0.5, 0.83):
            d_t = value_derivatives(fine, t, mu, mu.points[0])[0]
            h = 1e-4
            fd = (value(fine, t + h, mu) - value(fine, t - h, mu)) / (2 * h)
            assert d_t == pytest.approx(fd, rel=5e-4, abs=5e-6)


class TestOptimalFeedback:
    def test_interbank_gains(self, interbank):
        _, _, _, sol, qv = interbank
        for k in (0, 250, 777):
            t = float(sol.grid[k])
            fb = optimal_feedback(qv, t)
            assert fb.K1[0, 0] == pytest.approx(-2.0 * sol.Lam[k, 0, 0], rel=1e-12)
            assert fb.K2[0, 0] == pytest.approx(-2.0 * sol.Gam[k, 0, 0], rel=1e-12, abs=1e-12)
            assert fb.k[0] == pytest.approx(-sol.gam[k, 0], rel=1e-12, abs=1e-12)

    def test_zero_value_zero_feedback(self):
        from cmvlq.lqmodel import LqDynamics

        dyn = LqDynamics(b0=0.0, B=-1.0, Bbar=0.3, C=1.0, theta=0.1, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.1, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=0.0, Q2bar=0.0, R2=1.0, P2=0.0, P2bar=0.0)
        sol = solve_riccati(dyn, cost, 1.0, 0.01)
        qv = QuadraticValue(sol, dyn, cost)
        fb = optimal_feedback(qv, 0.25)
        assert np.all(fb.K1 == 0.0) and np.all(fb.K2 == 0.0) and np.all(fb.k == 0.0)

    def test_non_positive_gain(self, interbank):
        _, dyn, cost, sol, _ = interbank
        broken = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=0.0, P2=cost.P2,
                        P2bar=cost.P2bar)
        qv = QuadraticValue(sol, dyn, broken)
        with pytest.raises(NonPositiveGain):
            optimal_feedback(qv, 0.5)

    def test_policy_csv(self, interbank, tmp_path):
        _, dyn, cost, _, _ = interbank
        sol = solve_riccati(dyn, cost, 1.0, 0.1)
        qv = QuadraticValue(sol, dyn, cost)
        path = tmp_path / "policy.csv"
        policy.save_policy_csv(qv, path)
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "t,K1_00,K2_00,k_0"
        assert len(lines) == sol.n_nodes + 1


class TestGridGains:
    @staticmethod
    def per_node(qv, t0, dt, n_steps, offset=0):
        fbs = [optimal_feedback(qv, t0 + (offset + j) * dt) for j in range(n_steps)]
        return tuple(np.stack([getattr(fb, a) for fb in fbs]) for a in ("K1", "K2", "k"))

    @pytest.mark.parametrize("case", ["interbank", "d2"])
    def test_node_grids_are_sliced(self, case, interbank, random_qv):
        # dt = h, dt = 2h and a restart offset read the node gains: equal to
        # the per-node route bit for bit, with nothing cached
        qv = interbank[4] if case == "interbank" else random_qv
        h, n = qv.sol.h, qv.sol.n_nodes - 1
        pol = FeedbackPolicy(qv)
        for dt, n_steps, offset in ((h, n, 0), (2 * h, n // 2, 0), (h, n - 137, 137),
                                    (2 * h, n // 2 - 40, 40)):
            got = pol.grid_gains(0.0, dt, n_steps, offset)
            want = self.per_node(qv, 0.0, dt, n_steps, offset)
            for a, b in zip(got, want):
                assert a.shape == b.shape and a.tobytes() == b.tobytes()
        assert pol._grid_cache == {}

    def test_off_grid_dt_is_computed_and_cached(self, random_qv):
        dt = 0.75 * random_qv.sol.h
        pol = FeedbackPolicy(random_qv)
        got = pol.grid_gains(0.0, dt, 40, 3)
        want = self.per_node(random_qv, 0.0, dt, 40, 3)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert len(pol._grid_cache) == 1
        assert pol.grid_gains(0.0, dt, 40, 3) is got

    def test_other_model_is_computed(self, interbank, tmp_path):
        # a solution paired with a model it was not solved for has no node
        # gains: node-aligned grids are computed for the paired model
        _, dyn, cost, sol, _ = interbank
        other = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=1.0, P2=cost.P2, P2bar=cost.P2bar)
        qv = QuadraticValue(sol, dyn, other)
        assert qv.node_gains() is None
        pol = FeedbackPolicy(qv)
        got = pol.grid_gains(0.0, sol.h, 50, 20)
        want = self.per_node(qv, 0.0, sol.h, 50, 20)
        for a, b in zip(got, want):
            assert a.tobytes() == b.tobytes()
        assert got[0].tobytes() != sol.K1[20:70].tobytes()
        assert len(pol._grid_cache) == 1
        with pytest.raises(ValueError):
            policy.save_policy_csv(qv, tmp_path / "policy.csv")

        broken = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=0.0, P2=cost.P2, P2bar=cost.P2bar)
        with pytest.raises(NonPositiveGain):
            FeedbackPolicy(QuadraticValue(sol, dyn, broken)).grid_gains(0.0, sol.h, 10)

    def test_policy_csv_is_node_gains(self, interbank, tmp_path):
        _, _, _, sol, qv = interbank
        path = tmp_path / "policy.csv"
        policy.save_policy_csv(qv, path)
        rows = path.read_text().strip().split("\n")[1:]
        for k in (0, 1, 500, sol.n_nodes - 1):
            fb = optimal_feedback(qv, float(sol.grid[k]))
            expect = [float(sol.grid[k]), fb.K1[0, 0], fb.K2[0, 0], fb.k[0]]
            assert rows[k] == ",".join(repr(float(v)) for v in expect)


class TestRecoverOriginal:
    def test_centered_state(self, interbank):
        p, _, _, sol, qv = interbank
        fbp = FeedbackPolicy(qv)
        for t in (0.0, 0.4):
            Lam, Gam, gam, _ = sol.eval(t)
            mubar = 0.7
            got = recover_original(fbp, p, t, 0.7, mubar)
            expect = -2.0 * Gam[0, 0] * mubar - gam[0]
            assert got == pytest.approx(expect, rel=1e-12, abs=1e-12)

    def test_shift_identity(self, interbank):
        # -2 (Lam + q/2)(x - mubar) == -(2 Lam + q)(x - mubar)
        p, _, _, sol, qv = interbank
        fbp = FeedbackPolicy(qv)
        rng = np.random.default_rng(67)
        for _ in range(10):
            t = float(rng.uniform(0, 1))
            x = float(rng.uniform(-3, 3))
            mubar = float(rng.uniform(-3, 3))
            Lam, Gam, gam, _ = sol.eval(t)
            got = recover_original(fbp, p, t, x, mubar)
            expect = -(2.0 * Lam[0, 0] + p.q) * (x - mubar) \
                - 2.0 * Gam[0, 0] * mubar - gam[0]
            assert got == pytest.approx(expect, rel=1e-11, abs=1e-12)


class TestGrowthBounds:
    def test_quadratic_growth(self, random_qv):
        rng = np.random.default_rng(68)
        for _ in range(40):
            t = float(rng.uniform(0, 1))
            Lam, Gam, gam, chi = random_qv.sol.eval(t)
            C = (np.linalg.norm(Lam, 2) + np.linalg.norm(Gam, 2)
                 + np.linalg.norm(gam) + abs(chi) + 1.0)
            mu = random_cloud(rng, int(rng.integers(1, 30)), 2,
                              spread=float(rng.uniform(0.1, 4)))
            assert abs(value(random_qv, t, mu)) <= 2.0 * C * (1.0 + l2_norm(mu) ** 2)

    def test_gradient_linear_growth(self, random_qv):
        rng = np.random.default_rng(69)
        for _ in range(40):
            t = float(rng.uniform(0, 1))
            Lam, Gam, gam, _ = random_qv.sol.eval(t)
            C = 2.0 * np.linalg.norm(Lam, 2) + 2.0 * np.linalg.norm(Gam, 2) \
                + np.linalg.norm(gam)
            mu = random_cloud(rng, 12, 2, spread=float(rng.uniform(0.1, 4)))
            phi = random_qv.at(t)
            for i in range(mu.n):
                x = mu.points[i]
                bound = C * (1.0 + np.linalg.norm(x) + l2_norm(mu)) + 1e-12
                assert np.linalg.norm(phi.d_mu(mu, x)) <= bound


def control_objective(g, mu, a_map):
    """Literal control-dependent part of the dynamic-programming minimum."""
    amu = pushforward(mu, a_map)
    abar = mean(amu)
    mbar = mean(mu)
    val = variance_form(amu, g.U) + float(abar @ g.V @ abar)
    centered = mu.points - mbar
    val += 2.0 * float(tree_mean(np.einsum("ni,ij,nj->n", centered, g.S, amu.points)))
    val += 2.0 * float(mbar @ g.Z @ abar) + float(g.Y @ abar)
    return val


class TestSquareCompletion:
    def test_objective_gap_identity(self, random_qv):
        rng = np.random.default_rng(70)
        d, m = 2, 2
        for _ in range(15):
            t = float(rng.uniform(0, 0.999))
            mu = random_cloud(rng, int(rng.integers(2, 20)), d)
            mbar = mean(mu)
            Lam, Gam, gam, _ = random_qv.sol.eval(t)
            g = gains(t, Lam, Gam, gam, random_qv.dyn, random_qv.cost)
            fb = optimal_feedback(random_qv, t)
            a_star = feedback_affine_map(fb, mbar)
            a = AffineMap(a_star.A + 0.5 * rng.standard_normal((m, d)),
                          a_star.b + 0.5 * rng.standard_normal(m))
            lhs = control_objective(g, mu, a) - control_objective(g, mu, a_star)
            diff = AffineMap(a.A - a_star.A, a.b - a_star.b)
            dmu = pushforward(mu, diff)
            dbar = mean(dmu)
            rhs = variance_form(dmu, g.U) + float(dbar @ g.V @ dbar)
            assert rhs >= -1e-12
            assert lhs == pytest.approx(rhs, rel=1e-10, abs=1e-12)

    def test_minimum_at_optimal_feedback(self, random_qv):
        rng = np.random.default_rng(71)
        t = 0.3
        mu = random_cloud(rng, 10, 2)
        g = gains(t, *random_qv.sol.eval(t)[:3], random_qv.dyn, random_qv.cost)
        fb = optimal_feedback(random_qv, t)
        a_star = feedback_affine_map(fb, mean(mu))
        base = control_objective(g, mu, a_star)
        for _ in range(20):
            a = AffineMap(a_star.A + 0.3 * rng.standard_normal((2, 2)),
                          a_star.b + 0.3 * rng.standard_normal(2))
            assert control_objective(g, mu, a) >= base - 1e-12


class TestQuadraticFunctional:
    def test_eval_matches_parts(self):
        rng = np.random.default_rng(72)
        L = rng.standard_normal((2, 2))
        L = L + L.T
        G = rng.standard_normal((2, 2))
        G = G + G.T
        g = rng.standard_normal(2)
        phi = QuadraticFunctional(L, G, g, 0.7)
        mu = random_cloud(rng, 9, 2)
        mbar = mean(mu)
        expect = variance_form(mu, L) + float(mbar @ G @ mbar) + float(g @ mbar) + 0.7
        assert phi(mu) == pytest.approx(moment_functional(phi, mu), abs=0)
        assert phi(mu) == pytest.approx(expect, rel=1e-12)

    @settings(derandomize=True, max_examples=150, deadline=1000)
    @given(data=st.data(), d=st.sampled_from([1, 2, 3]), size=st.sampled_from([1, 3, 8]),
           n=st.integers(1, 12))
    def test_stacked_values_are_each_clouds_bits(self, data, d, size, n):
        # coordinates of either sign with magnitudes 1e-8 to 1e8
        coord = st.floats(1e-8, 1e8) | st.floats(-1e8, -1e-8)
        coef = st.floats(-2.0, 2.0)
        x = data.draw(arrays(np.float64, (size, n, d), elements=coord))
        phi = QuadraticFunctional(data.draw(arrays(np.float64, (d, d), elements=coef)),
                                  data.draw(arrays(np.float64, (d, d), elements=coef)),
                                  data.draw(arrays(np.float64, d, elements=coef)),
                                  data.draw(coef))
        stacked = phi.values(x)
        assert stacked.shape == (size,)
        for s in range(size):
            assert stacked[s].hex() == phi(EmpiricalMeasure(x[s])).hex()

    @pytest.mark.parametrize("d, n", [(1, 1), (1, 2), (1, 40), (2, 3), (2, 40), (3, 1), (3, 2),
                                      (3, 40)])
    def test_values_match_the_per_cloud_route(self, d, n):
        # against the reference's moment form, one cloud at a time, on the
        # functionals the program builds: at a solver node (views of the
        # solution's arrays), between nodes and their time derivatives; the
        # einsum route of the point form is a cross-check to 1e-12
        dyn, cost = random_lq(74, d=d, m=1)
        qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 1e-2), dyn, cost)
        rng = np.random.default_rng(73)
        for t in (0.3, 0.3125):
            for phi in (qv.at(t), qv.dt_at(t)):
                x = 10.0 ** rng.uniform(-8, 8) * rng.standard_normal((8, n, d))
                for s, v in enumerate(phi.values(x)):
                    cloud = EmpiricalMeasure(x[s])
                    assert v.hex() == moment_functional(phi, cloud).hex()
                    assert v == pytest.approx(quadratic_functional(phi, cloud), rel=1e-12)
