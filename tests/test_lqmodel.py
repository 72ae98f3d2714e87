import numpy as np
import pytest

from cmvlq import lqmodel
from cmvlq.lqmodel import (
    LqCost,
    check_standing_condition,
    gains,
    lifted_cost,
    load_model,
    save_model,
)
from cmvlq.measure import EmpiricalMeasure, mean, moments, tree_mean

import reference
from conftest import make_interbank, random_cloud, random_lq
from reference import AffineMap, affine_feedback


def cloud(*vals):
    return EmpiricalMeasure(np.asarray(vals, dtype=float))


def scalar_cost(Q2=0.0, Q2bar=0.0, R2=1.0, P2=0.0, P2bar=0.0, M2=None):
    return LqCost(Q2=Q2, Q2bar=Q2bar, R2=R2, P2=P2, P2bar=P2bar, M2=M2)


class TestLiftedRunningCost:
    """lifted_cost with gains: here K1 = K2 = A and k = b, the feedback of a fixed map A x + b."""

    def test_all_zero(self):
        c = scalar_cost(Q2=1.0, Q2bar=0.5, R2=2.0, M2=0.3)
        zero = np.zeros((1, 1))
        assert lifted_cost(c, *moments(cloud(0.0).points), (zero, zero, np.zeros(1))) == 0.0

    def test_state_terms(self):
        c = scalar_cost(Q2=1.0, Q2bar=0.0, R2=1.0)
        zero = np.zeros((1, 1))
        got = lifted_cost(c, *moments(cloud(1.0, 3.0).points), (zero, zero, np.zeros(1)))
        assert got == pytest.approx(5.0, abs=1e-14)  # Var + mean^2 = 1 + 4

    def test_control_second_moment(self):
        c = scalar_cost(Q2=0.0, Q2bar=0.0, R2=1.0)
        one = np.eye(1)
        got = lifted_cost(c, *moments(cloud(1.0, 3.0).points), (one, one, np.zeros(1)))
        assert got == pytest.approx(5.0, abs=1e-14)  # (1 + 9) / 2

    def test_matches_pointwise_average(self):
        # lifted value == particle average of the pointwise integrand
        rng = np.random.default_rng(21)
        for trial in range(12):
            dyn, cost = random_lq(100 + trial, with_m2=bool(trial % 2))
            d, m = dyn.d, dyn.m
            mu = random_cloud(rng, 17, d)
            a = AffineMap(rng.standard_normal((m, d)), rng.standard_normal(m))
            lifted = float(lifted_cost(cost, *moments(mu.points), (a.A, a.A, a.b)))
            mbar = mean(mu)
            avals = a(mu.points)
            pointwise = (
                np.einsum("ni,ij,nj->n", mu.points, cost.Q2, mu.points)
                + float(mbar @ cost.Q2bar @ mbar)
                + np.einsum("ni,ij,nj->n", avals, cost.R2, avals)
                + 2.0 * np.einsum("ni,ij,nj->n", mu.points, cost.M2, avals)
            )
            assert lifted == pytest.approx(float(np.mean(pointwise)), rel=1e-12, abs=1e-12)


class TestLiftedTerminalCost:
    def test_zero_point(self):
        assert reference.lifted_terminal_cost(cloud(0.0), scalar_cost(P2=0.7, P2bar=-0.2)) == 0.0

    def test_interbank_terminal(self):
        c = scalar_cost(P2=0.5, P2bar=-0.5)
        assert reference.lifted_terminal_cost(cloud(1.0, 3.0), c) == pytest.approx(0.5, abs=1e-14)

    def test_point_mass(self):
        rng = np.random.default_rng(22)
        P2 = rng.standard_normal((2, 2))
        P2 = P2 + P2.T
        P2bar = rng.standard_normal((2, 2))
        P2bar = P2bar + P2bar.T
        c = LqCost(Q2=np.zeros((2, 2)), Q2bar=np.zeros((2, 2)), R2=np.eye(1),
                   P2=P2, P2bar=P2bar)
        x = rng.standard_normal(2)
        mu = EmpiricalMeasure(np.tile(x, (5, 1)))
        assert reference.lifted_terminal_cost(mu, c) == pytest.approx(
            float(x @ (P2 + P2bar) @ x), rel=1e-12)


class TestGains:
    def test_identity_loading(self):
        # F = F0 = 0, C = I, M2 = 0, R2 = I/2: gains reduce to the value coefficients
        rng = np.random.default_rng(23)
        d = 2
        dyn, _ = random_lq(7, d=d, m=d)
        dyn = lqmodel.LqDynamics(
            b0=dyn.b0, B=dyn.B, Bbar=dyn.Bbar, C=np.eye(d), theta=dyn.theta,
            D=dyn.D, Dbar=dyn.Dbar, F=np.zeros((d, d)), theta0=dyn.theta0,
            D0=dyn.D0, D0bar=dyn.D0bar, F0=np.zeros((d, d)))
        cost = LqCost(Q2=np.eye(d), Q2bar=np.zeros((d, d)), R2=0.5 * np.eye(d),
                      P2=np.eye(d), P2bar=np.zeros((d, d)))
        A = rng.standard_normal((d, d))
        Lam = A @ A.T
        Bm = rng.standard_normal((d, d))
        Gam = Bm @ Bm.T
        gam = rng.standard_normal(d)
        g = gains(0.3, Lam, Gam, gam, dyn, cost)
        assert np.allclose(g.U, 0.5 * np.eye(d), atol=1e-14)
        assert np.allclose(g.V, 0.5 * np.eye(d), atol=1e-14)
        assert np.allclose(g.S, Lam, atol=1e-14)
        assert np.allclose(g.Z, Gam, atol=1e-14)
        assert np.allclose(g.Y, gam, atol=1e-14)
        assert g.pd_ok

    def test_zero_states(self):
        dyn, cost = random_lq(8, d=2, m=2, with_m2=True)
        z = np.zeros((2, 2))
        g = gains(0.0, z, z, np.zeros(2), dyn, cost)
        assert np.allclose(g.U, cost.R2, atol=0)
        assert np.allclose(g.V, cost.R2, atol=0)
        assert np.allclose(g.S, cost.M2, atol=0)
        assert np.allclose(g.Z, cost.M2, atol=0)
        assert np.allclose(g.Y, 0.0, atol=0)

    def test_against_direct_reevaluation(self):
        # independent literal re-evaluation of the five blocks
        rng = np.random.default_rng(24)
        for trial in range(8):
            dyn, cost = random_lq(300 + trial, d=2, m=2, with_m2=True)
            A = rng.standard_normal((2, 2))
            Lam = A + A.T
            Bm = rng.standard_normal((2, 2))
            Gam = Bm + Bm.T
            gam = rng.standard_normal(2)
            g = gains(0.1, Lam, Gam, gam, dyn, cost)
            F, F0, C, M2, R2 = dyn.F, dyn.F0, dyn.C, cost.M2, cost.R2
            assert np.allclose(g.U, F.T @ Lam @ F + F0.T @ Lam @ F0 + R2, atol=1e-13)
            assert np.allclose(g.V, F.T @ Lam @ F + F0.T @ Gam @ F0 + R2, atol=1e-13)
            assert np.allclose(g.S, dyn.D.T @ Lam @ F + dyn.D0.T @ Lam @ F0 + Lam @ C + M2,
                               atol=1e-13)
            assert np.allclose(
                g.Z,
                (dyn.D + dyn.Dbar).T @ Lam @ F + (dyn.D0 + dyn.D0bar).T @ Gam @ F0
                + Gam @ C + M2,
                atol=1e-13)
            assert np.allclose(
                g.Y, C.T @ gam + 2 * F.T @ Lam @ dyn.theta + 2 * F0.T @ Gam @ dyn.theta0,
                atol=1e-13)

    def test_linear_in_value_coefficients(self):
        dyn, cost = random_lq(9, d=2, m=1)
        rng = np.random.default_rng(25)

        def draw():
            A = rng.standard_normal((2, 2))
            B = rng.standard_normal((2, 2))
            return A + A.T, B + B.T, rng.standard_normal(2)

        L1, G1, g1 = draw()
        L2, G2, g2 = draw()
        cost0 = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=np.zeros((1, 1)),
                       P2=cost.P2, P2bar=cost.P2bar)
        ga = gains(0.0, L1, G1, g1, dyn, cost0)
        gb = gains(0.0, L2, G2, g2, dyn, cost0)
        gsum = gains(0.0, L1 + L2, G1 + G2, g1 + g2, dyn, cost0)
        for name in ("U", "V", "S", "Z", "Y"):
            assert np.allclose(getattr(gsum, name),
                               getattr(ga, name) + getattr(gb, name), atol=1e-12)

    @pytest.mark.parametrize("entry", [0.0, -0.0, 5e-324, 1e-300, 1e300, -3.5, np.nan])
    def test_min_eigenvalue_of_1x1_is_its_entry(self, monkeypatch, entry):
        # dsyev's bits, without LAPACK: a d = m = 1 model never loads scipy
        from scipy.linalg.lapack import dsyev

        M = np.array([[entry]])
        expected = dsyev(M, compute_v=0)[0][0]

        def no_lapack():
            raise AssertionError("min_eigenvalue called LAPACK on a 1 x 1 matrix")

        monkeypatch.setattr(lqmodel, "lapack", no_lapack)
        assert np.float64(lqmodel.min_eigenvalue(M)).tobytes() == expected.tobytes()

    def test_s_depends_only_on_lam_and_c(self):
        dyn, cost = random_lq(10, d=2, m=1)
        dyn = lqmodel.LqDynamics(
            b0=dyn.b0, B=dyn.B, Bbar=dyn.Bbar, C=dyn.C, theta=dyn.theta,
            D=dyn.D, Dbar=dyn.Dbar, F=np.zeros((2, 1)), theta0=dyn.theta0,
            D0=dyn.D0, D0bar=dyn.D0bar, F0=np.zeros((2, 1)))
        cost = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=cost.R2, P2=cost.P2,
                      P2bar=cost.P2bar)
        rng = np.random.default_rng(26)
        A = rng.standard_normal((2, 2))
        Lam = A + A.T
        g1 = gains(0.0, Lam, np.eye(2), np.zeros(2), dyn, cost)
        g2 = gains(0.0, Lam, 5.0 * np.eye(2), np.ones(2), dyn, cost)
        assert np.array_equal(g1.S, Lam @ dyn.C)
        assert np.array_equal(g1.S, g2.S)


def wide_values(rng, shape):
    """Signed values of magnitude 1e-8 to 1e8, about a quarter of them exactly zero."""
    v = rng.choice([-1.0, 1.0], shape) * 10.0 ** rng.uniform(-8.0, 8.0, shape)
    v[rng.random(shape) < 0.25] = 0.0
    return v


def zero_values(rng, shape):
    return np.zeros(shape)


def normal_values(rng, shape):
    return rng.standard_normal(shape)


class TestPointwiseFormulas:
    """step_loadings and the moment-form lifted costs against their references.

    The reference loadings (tests/reference.py) take one coefficient
    matrix at a time: at d = m = 1 the two agree bit for bit, at d > 1
    within 1e-14 of max(1, |term|).  lifted_cost, from a cloud's mean and
    second moment, equals the particle mean of reference.running_cost under
    the feedback K1 (x - mbar) + K2 mbar + k, and of
    reference.terminal_cost, within 1e-14 of the size of their terms: the
    same particle mean with every matrix, gain and coordinate replaced by
    its absolute value, which bounds each term and each product either form
    rounds.  Each row runs on a stack of P gains and clouds (P, N, d), as
    the step loop passes them, and on one (N, d), as the checks do.
    """

    @pytest.mark.parametrize("d, m, draw, with_m2", [
        pytest.param(1, 1, normal_values, False, id="d1m1-normal"),
        pytest.param(1, 1, normal_values, True, id="d1m1-normal-M2"),
        pytest.param(1, 1, wide_values, False, id="d1m1-wide"),
        pytest.param(1, 1, wide_values, True, id="d1m1-wide-M2"),
        pytest.param(1, 1, zero_values, True, id="d1m1-zeros"),
        pytest.param(2, 1, normal_values, False, id="d2m1"),
        pytest.param(2, 3, normal_values, True, id="d2m3-M2"),
        pytest.param(2, 3, wide_values, True, id="d2m3-wide-M2"),
        pytest.param(3, 2, normal_values, False, id="d3m2"),
        pytest.param(3, 2, normal_values, True, id="d3m2-M2"),
        pytest.param(3, 2, wide_values, True, id="d3m2-wide-M2"),
        pytest.param(4, 1, normal_values, True, id="d4m1-M2"),
        pytest.param(4, 3, normal_values, False, id="d4m3"),
    ])
    def test_matches_reference(self, d, m, draw, with_m2):
        rng = np.random.default_rng([d, m, int(with_m2)])

        def sym(n):
            a = draw(rng, (n, n))
            return a + a.T

        dyn = lqmodel.LqDynamics(
            b0=draw(rng, d), B=draw(rng, (d, d)), Bbar=draw(rng, (d, d)), C=draw(rng, (d, m)),
            theta=draw(rng, d), D=draw(rng, (d, d)), Dbar=draw(rng, (d, d)),
            F=draw(rng, (d, m)), theta0=draw(rng, d), D0=draw(rng, (d, d)),
            D0bar=draw(rng, (d, d)), F0=draw(rng, (d, m)))
        # the zeros row's M2 is all zeros: a cost without a cross weight
        cost = LqCost(Q2=sym(d), Q2bar=sym(d), R2=sym(m), P2=sym(d), P2bar=sym(d),
                      M2=draw(rng, (d, m)) if with_m2 else None)
        size_cost = LqCost(**{k: np.abs(getattr(cost, k))
                              for k in ("Q2", "Q2bar", "R2", "P2", "P2bar", "M2")})
        P, N = 3, 7
        for x in (draw(rng, (P, N, d)), draw(rng, (N, d))):
            lead = x.shape[:-2]
            K1, K2, k = draw(rng, lead + (m, d)), draw(rng, lead + (m, d)), draw(rng, lead + (m,))
            for got, want in zip(lqmodel.step_loadings(dyn, K1, K2, k),
                                 reference.step_loadings(dyn, K1, K2, k)):
                assert got.shape == want.shape
                if d == m == 1:
                    assert np.array_equal(got, want)
                else:
                    assert np.all(np.abs(got - want) <= 1e-14 * np.maximum(1.0, np.abs(want)))

            mbar, second = moments(x)
            a = affine_feedback(K1, K2, k, x, mbar)
            ax, am = np.abs(x), np.abs(mbar)
            # a bound on |a| that keeps every term of its sum
            size_a = (ax @ np.swapaxes(np.abs(K1), -1, -2)
                      + (am[..., None, :] @ np.swapaxes(np.abs(K1) + np.abs(K2), -1, -2))
                      + np.abs(k)[..., None, :])
            for got, want, size in (
                    (lqmodel.lifted_cost(cost, mbar, second, (K1, K2, k)),
                     reference.running_cost(cost, x, mbar, a),
                     reference.running_cost(size_cost, ax, am, size_a)),
                    (lqmodel.lifted_cost(cost, mbar, second),
                     reference.terminal_cost(cost, x, mbar),
                     reference.terminal_cost(size_cost, ax, am))):
                want, size = tree_mean(want, axis=-1), tree_mean(size, axis=-1)
                assert got.shape == want.shape == lead
                assert np.all(np.abs(got - want) <= 1e-14 * size)


class TestStandingCondition:
    def test_interbank_passes(self):
        _, _, cost, _, _ = make_interbank(h=0.25)
        report = check_standing_condition(cost, delta=0.5)
        assert report["ok"]
        assert all(report["checks"].values())

    def test_zero_r2_fails(self):
        c = scalar_cost(Q2=1.0, R2=0.0, P2=1.0)
        report = check_standing_condition(c, delta=1e-6)
        assert not report["ok"]
        assert not report["checks"]["R2_geq_delta"]

    def test_negative_p2_fails(self):
        c = scalar_cost(Q2=1.0, R2=1.0, P2=-1.0)
        report = check_standing_condition(c, delta=1e-6)
        assert not report["ok"]
        assert not report["checks"]["P2"]

    def test_rejects_nonpositive_delta(self):
        with pytest.raises(ValueError):
            check_standing_condition(scalar_cost(), delta=0.0)


class TestCostConstruction:
    def test_symmetrizes(self):
        c = LqCost(Q2=np.array([[1.0, 1e-13], [0.0, 1.0]]), Q2bar=np.zeros((2, 2)),
                   R2=np.eye(1), P2=np.zeros((2, 2)), P2bar=np.zeros((2, 2)))
        assert np.array_equal(c.Q2, c.Q2.T)

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError):
            LqCost(Q2=np.array([[1.0, 0.5], [0.0, 1.0]]), Q2bar=np.zeros((2, 2)),
                   R2=np.eye(1), P2=np.zeros((2, 2)), P2bar=np.zeros((2, 2)))

    def test_rejects_nonfinite_dynamics(self):
        with pytest.raises(ValueError):
            lqmodel.LqDynamics(b0=np.nan, B=1.0, Bbar=0.0, C=1.0, theta=0.0, D=0.0,
                               Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)


class TestModelFile:
    def test_roundtrip_scalar(self, tmp_path):
        _, dyn, cost, _, _ = make_interbank(h=0.25)
        path = tmp_path / "model.txt"
        save_model(path, dyn, cost, 1.0)
        dyn2, cost2, T2 = load_model(path)
        assert T2 == 1.0
        for name in ("b0", "B", "Bbar", "C", "theta", "D", "Dbar", "F",
                     "theta0", "D0", "D0bar", "F0"):
            assert np.array_equal(getattr(dyn, name), getattr(dyn2, name)), name
        for name in ("Q2", "Q2bar", "R2", "P2", "P2bar", "M2"):
            assert np.array_equal(getattr(cost, name), getattr(cost2, name)), name

    def test_roundtrip_matrix(self, tmp_path):
        dyn, cost = random_lq(11, d=3, m=2, with_m2=True)
        path = tmp_path / "model.txt"
        save_model(path, dyn, cost, 2.5)
        dyn2, cost2, T2 = load_model(path)
        assert T2 == 2.5
        assert np.array_equal(dyn.C, dyn2.C)
        assert np.array_equal(cost.M2, cost2.M2)
        assert np.array_equal(cost.Q2, cost2.Q2)

    def test_missing_key(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("d = 1\nm = 1\nT = 1.0\n")
        with pytest.raises(ValueError, match="missing"):
            load_model(path)

    def test_comments_and_blank_lines(self, tmp_path):
        _, dyn, cost, _, _ = make_interbank(h=0.25)
        path = tmp_path / "model.txt"
        save_model(path, dyn, cost, 1.0)
        text = "# header comment\n\n" + path.read_text()
        path.write_text(text)
        dyn2, _, _ = load_model(path)
        assert np.array_equal(dyn2.B, dyn.B)
