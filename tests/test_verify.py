import hashlib
import itertools
import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from cmvlq import cli, simulator
from cmvlq.errors import NumericalBlowup
from cmvlq.lqmodel import (
    LqCost,
    LqDynamics,
    affine_feedback,
    expected_moments,
    gains,
    save_model,
)
from cmvlq.measure import EmpiricalMeasure, mean, moments, tree_mean
from cmvlq.policy import (
    FeedbackPolicy,
    QuadraticFunctional,
    QuadraticValue,
    optimal_feedback,
    value,
)
from cmvlq.riccati import RiccatiSolution, solve_riccati
from cmvlq.simulator import (
    ConstantControl,
    FeedbackControl,
    Recorder,
    ShiftedControl,
    lq_dynamics_spec,
    pathwise_cost,
    restart_continuation,
    sample_initial,
    simulate_path,
    stream_scenarios,
)
from cmvlq.verify import (
    BELLMAN_TOL,
    GRAD_TOL,
    CheckResult,
    FLOW_ARRAYS,
    DppResult,
    ItoCheckResult,
    bellman_residual,
    bellman_rule,
    chaos_convergence,
    chaos_rule,
    dpp_check,
    dpp_rule,
    estimate_cost,
    expected_dpp_gap,
    flow_restarts,
    flow_rule,
    generator_apply,
    grad_check,
    grad_rule,
    ito_generator_check,
    ito_rule,
    random_clouds,
    save_report,
)

from conftest import (
    forked_pids,
    inline_noise,
    make_interbank,
    random_cloud,
    random_lq,
    reaped,
    zero_control,
)
from reference import (
    AffineMap,
    coefficient_values,
    euler_nodes,
    feedback_affine_map,
    generator_pair_sum,
    pointwise_generator,
    grad_check_loop,
    pushforward,
    quadratic_functional,
    variance_form,
)


def interbank_stack(sigma1=0.0, **kw):
    p, dyn, cost, sol, qv = make_interbank(sigma1=sigma1, **kw)
    model = lq_dynamics_spec(dyn, cost, p.T)
    control = FeedbackControl(FeedbackPolicy(qv))
    return p, dyn, cost, sol, qv, model, control


def residual_scale(terms):
    return max(max(abs(v) for v in terms.values()), 1.0)


def optimal_map(qv, t, mu):
    return feedback_affine_map(optimal_feedback(qv, t), mean(mu))


def map_gains(a):
    """The gains (K1, K2, k) of the feedback that is the fixed affine map a: (A, A, b)."""
    return a.A, a.A, a.b


class TestEstimateCost:
    def test_zero_cost_model(self):
        dyn, cost = random_lq(101, d=1, m=1)
        zero_cost = LqCost(Q2=0.0, Q2bar=0.0, R2=0.0, P2=0.0, P2bar=0.0)
        model = lq_dynamics_spec(dyn, zero_cost, 1.0)
        est = estimate_cost(model, zero_control(), 0.0,
                            {"kind": "point", "x0": 0.5}, 16, 4, 0.125, 3)
        assert est.mean == 0.0 and est.stderr == 0.0

    def test_interbank_matches_value(self):
        p, dyn, cost, sol, qv, model, control = interbank_stack()
        mu0 = {"kind": "point", "x0": p.x0}
        est = estimate_cost(model, control, 0.0, mu0, 1000, 48, 2e-3, 11)
        w0 = value(qv, 0.0, sample_initial(mu0, 1000, 11))
        assert abs(est.mean - w0) <= 3.0 * est.stderr + 5.0 * 2e-3

    def test_constant_shift_excess(self):
        p, dyn, cost, sol, qv, model, control = interbank_stack()
        mu0 = {"kind": "point", "x0": p.x0}
        base = estimate_cost(model, control, 0.0, mu0, 800, 48, 2e-3, 12)
        eps = 0.5
        shifted = estimate_cost(model, ShiftedControl(control, eps), 0.0, mu0,
                                800, 48, 2e-3, 12)
        excess = shifted.mean - base.mean
        predicted = eps ** 2 * p.T / 2.0
        assert abs(excess - predicted) <= 0.2 * predicted

    def test_requires_two_paths(self):
        _, _, _, _, _, model, control = interbank_stack()
        with pytest.raises(ValueError):
            estimate_cost(model, control, 0.0, {"kind": "point", "x0": 0.0},
                          8, 1, 0.1, 0)

    def test_monotone_in_r2(self):
        # enlarging R2 by a PSD block cannot decrease the cost, same seed
        p, dyn, cost, _, qv, model, control = interbank_stack(sigma1=0.3)
        bigger = LqCost(Q2=cost.Q2, Q2bar=cost.Q2bar, R2=cost.R2 + 0.4,
                        P2=cost.P2, P2bar=cost.P2bar)
        model_big = lq_dynamics_spec(dyn, bigger, p.T)
        mu0 = {"kind": "point", "x0": p.x0}
        a = estimate_cost(model, control, 0.0, mu0, 200, 8, 0.01, 5)
        b = estimate_cost(model_big, control, 0.0, mu0, 200, 8, 0.01, 5)
        assert b.mean >= a.mean

    def test_deterministic(self):
        _, _, _, _, _, model, control = interbank_stack()
        mu0 = {"kind": "point", "x0": 1.0}
        a = estimate_cost(model, control, 0.0, mu0, 100, 4, 0.01, 9)
        b = estimate_cost(model, control, 0.0, mu0, 100, 4, 0.01, 9)
        assert a.mean == b.mean and a.stderr == b.stderr


class TestStreamedDrivers:
    """The batched drivers against the per-path simulate_path + pathwise_cost route."""

    N, M, DT, SEED = 40, 5, 0.02, 17

    def stacks(self, d, monkeypatch):
        # batches of 2 scenarios and chunk buffers of 3 steps of them: 5 paths
        # make batches 2, 2, 1, each path's noise is drawn in several chunks,
        # and the last batch's chunks are as long as a full batch's
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 2 * self.N * d)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 3 * 2 * self.N * d)
        if d == 1:
            _, dyn, cost, _, qv = make_interbank(h=self.DT, sigma1=0.3)
        else:
            dyn, cost = random_lq(82, d=3, m=2, with_m2=True)
            qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, self.DT), dyn, cost)
        model = lq_dynamics_spec(dyn, cost, 1.0)
        base = FeedbackControl(FeedbackPolicy(qv))
        cloud0 = sample_initial({"kind": "gaussian", "mean": np.ones(d), "cov": 0.4},
                                self.N, self.SEED)
        return qv, model, cloud0, {"optimal": base,
                                   "shift": ShiftedControl(base, 0.25 * np.ones(dyn.m))}

    def paths(self, model, control, t0, cloud0, T):
        return [simulate_path(model, control, t0, cloud0, T, self.DT, self.SEED, path_index=p)
                for p in range(self.M)]

    def check(self, got, want, d):
        if d == 1:
            assert np.array_equal(np.asarray(got), np.asarray(want))
        else:
            np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_each_scenario(self, d, monkeypatch):
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls["shift"]
        trajs = self.paths(model, control, 0.0, cloud0, model.T)
        seen = []
        for paths, running, ends in stream_scenarios(model, control, 0.0, cloud0, model.T,
                                                     self.DT, self.SEED, self.M):
            for j, p in enumerate(paths):
                self.check(ends[j], trajs[p].states[-1], d)
                self.check(running[j], pathwise_cost(trajs[p], model, control,
                                                     include_terminal=False), d)
                seen.append(p)
        assert seen == list(range(self.M))

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", ["optimal", "shift"])
    def test_estimate_cost(self, d, name, monkeypatch):
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls[name]
        costs = np.array([pathwise_cost(tr, model, control)
                          for tr in self.paths(model, control, 0.0, cloud0, model.T)])
        est = estimate_cost(model, control, 0.0, cloud0, self.N, self.M, self.DT, self.SEED)
        self.check([est.mean, est.stderr],
                   [float(tree_mean(costs)), float(np.std(costs, ddof=1) / np.sqrt(self.M))], d)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", ["optimal", "shift"])
    def test_dpp_gaps(self, d, name, monkeypatch):
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls[name]
        w_t = value(qv, 0.2, cloud0)
        gaps = np.array([pathwise_cost(tr, model, control, include_terminal=False)
                         + value(qv, 0.6, tr.cloud(tr.n_steps)) - w_t
                         for tr in self.paths(model, control, 0.2, cloud0, 0.6)])
        res = dpp_check(qv, model, 0.2, cloud0, 0.6, control, self.N, self.M, self.DT, self.SEED)
        self.check([res.gap, res.stderr],
                   [float(tree_mean(gaps)), float(np.std(gaps, ddof=1) / np.sqrt(self.M))], d)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("name", ["optimal", "shift"])
    def test_ito_end_values(self, d, name, monkeypatch):
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls[name]
        phi = QuadraticFunctional(np.zeros((d, d)), np.eye(d), np.zeros(d), 0.0)
        delta = 10 * self.DT
        ends = np.array([phi(tr.cloud(tr.n_steps))
                         for tr in self.paths(model, control, 0.1, cloud0, 0.1 + delta)])
        res = ito_generator_check(model, control, 0.1, cloud0, phi, delta, self.N, self.M,
                                  self.DT, self.SEED)
        self.check([res.lhs, res.stderr],
                   [(float(tree_mean(ends)) - phi(cloud0)) / delta,
                    float(np.std(ends, ddof=1) / np.sqrt(self.M)) / delta], d)

    @pytest.mark.parametrize("d", [1, 3])
    def test_flow_digests_are_the_trajectories(self, d, monkeypatch):
        # the digests fed node by node are those of simulate_path's suffix and
        # of restart_continuation's arrays, held whole
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls["shift"]
        nodes = [(0, 0), (1, 17), (1, 3), (4, 49), (4, 50)]
        got = list(flow_restarts(model, control, 0.0, cloud0, model.T, self.DT, self.SEED, nodes))
        want = []
        for p, j in nodes:
            traj = simulate_path(model, control, 0.0, cloud0, model.T, self.DT, self.SEED,
                                 path_index=p)
            cont = restart_continuation(traj, float(traj.times[j]))
            want.append((p, j, _digests({k: getattr(traj, k)[j:] for k in FLOW_ARRAYS}),
                         _digests({k: getattr(cont, k) for k in FLOW_ARRAYS})))
        assert got == want
        assert all(ref == cont for _, _, ref, cont in got)

    @pytest.mark.parametrize("d", [1, 3])
    def test_noise_routes_agree(self, d, monkeypatch):
        # the overlapped and the inline noise route, on a ragged last batch
        # and on spans of several chunks, one chunk and no step at all
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls["shift"]
        phi = QuadraticFunctional(np.zeros((d, d)), np.eye(d), np.zeros(d), 0.0)
        pids = forked_pids(monkeypatch)
        results = []
        for overlapped in (True, False):
            if not overlapped:
                inline_noise(monkeypatch)
            out = []
            for t0, T in ((0.0, model.T), (0.2, 0.6), (0.9, 0.96), (model.T, model.T)):
                for paths, running, ends in stream_scenarios(model, control, t0, cloud0, T,
                                                             self.DT, self.SEED, self.M):
                    out += [running.tobytes(), ends.tobytes()]
            for t0 in (0.0, model.T):
                est = estimate_cost(model, control, t0, cloud0, self.N, self.M, self.DT,
                                    self.SEED)
                out += [est.mean.hex(), est.stderr.hex()]
            for t, theta in ((0.2, 0.6), (0.6, 0.6)):
                res = dpp_check(qv, model, t, cloud0, theta, control, self.N, self.M, self.DT,
                                self.SEED)
                out += [res.gap.hex(), res.stderr.hex()]
            res = ito_generator_check(model, control, 0.1, cloud0, phi, 10 * self.DT, self.N,
                                      self.M, self.DT, self.SEED)
            out += [res.lhs.hex(), res.stderr.hex()]
            out += list(flow_restarts(model, control, 0.0, cloud0, model.T, self.DT, self.SEED,
                                      [(0, 0), (1, 17), (4, 49), (4, 50)]))
            results.append(out)
        assert results[0] == results[1]
        assert pids and all(reaped(pid) for pid in pids)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("n_rec, stride, batches, recorded", [
        (8, 1, [range(0, 8)], [range(0, 8)]),
        (3, 4, [range(0, 2), range(2, 4), range(4, 8)], [range(0, 2), range(2, 3)]),
    ])
    def test_recorded_scenarios(self, d, n_rec, stride, batches, recorded, monkeypatch):
        # a batch of 8 scenarios stepped in chunks of 25 steps records nodes
        # 0, stride, ... of its first n_rec, equal to simulate_path's P = 1
        # runs at every recorded node; with a budget for only two recorded
        # scenarios, the recorded batches are two wide
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        control = controls["shift"]
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 8 * self.N * d)
        # 4 * _CHUNK_DOUBLES holds the kept nodes and increments of 8, or of 2, scenarios
        per_path = (50 // stride + 1) * self.N * d + 50
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES",
                            2**14 * d if n_rec == 8 else per_path // 2 + 1)
        recs = []
        stream = stream_scenarios(model, control, 0.0, cloud0, model.T, self.DT, self.SEED, 8,
                                  record=Recorder(n_rec, stride, recs.append))
        assert [paths for paths, _, _ in stream] == batches
        assert [rec.paths for rec in recs] == recorded
        for rec in recs:
            assert np.array_equal(rec.nodes, np.arange(0, 51, stride))
            for j, p in enumerate(rec.paths):
                traj = simulate_path(model, control, 0.0, cloud0, model.T, self.DT, self.SEED,
                                     path_index=p)
                assert np.array_equal(rec.times, traj.times[::stride])
                assert np.array_equal(rec.dw0[:, j], traj.dw0)
                self.check(rec.states[:, j], traj.states[::stride], d)
                self.check(rec.means[:, j], traj.means[::stride], d)

    @pytest.mark.parametrize("name, d", [
        pytest.param("optimal", 3, id="optimal"), pytest.param("shift", 3, id="shift"),
        pytest.param("optimal", 1, id="d1-optimal"), pytest.param("shift", 1, id="d1-shift"),
    ])
    def test_batch_width_keeps_bits(self, name, d, monkeypatch):
        # a scenario's end cloud and running cost are the same bits whether
        # it is stepped alone or in a batch of 3 or 8, at d = 3 and on the
        # interbank model at d = 1: no product of the step loop or the cost
        # depends on the batch's row count
        qv, model, cloud0, controls = self.stacks(d, monkeypatch)
        runs = []
        for width in (1, 3, 8):
            monkeypatch.setattr(simulator, "_BATCH_DOUBLES", width * self.N * d)
            out = {}
            for paths, running, ends in stream_scenarios(model, controls[name], 0.0, cloud0,
                                                         model.T, self.DT, self.SEED, 8):
                assert len(paths) == min(width, 8 - paths.start)
                for j, p in enumerate(paths):
                    out[p] = (running[j].tobytes(), ends[j].tobytes())
            runs.append(out)
        assert sorted(runs[0]) == list(range(8))
        assert runs[0] == runs[1] == runs[2]

    def test_no_trajectory_allocated(self, monkeypatch):
        # K = 1000 steps of 500 particles: a stored trajectory is 4 MB
        _, model, _, controls = self.stacks(1, monkeypatch)
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 2**14)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2**14)
        cloud0 = sample_initial({"kind": "point", "x0": 1.0}, 500, 0)
        tracemalloc.start()
        try:
            estimate_cost(model, controls["optimal"], 0.0, cloud0, 500, 2, 1e-3, 0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1001 * 500 * 8 / 4


class TestNoProcessOutlivesACall:
    """The overlapped noise route's drawing process is reaped when a driver or stream ends."""

    def explosive(self):
        # 10 * 1.4^76 is the first state past 1e12, at step 76 of 100
        dyn = LqDynamics(b0=0.0, B=40.0, Bbar=0.0, C=0.0, theta=0.0, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=1.0, Q2bar=0.0, R2=1.0, P2=1.0, P2bar=0.0)
        return lq_dynamics_spec(dyn, cost, 1.0)

    @pytest.fixture(autouse=True)
    def overlapped(self, monkeypatch):
        # batches of 2 paths of 8 particles and chunks of 4 steps, so the
        # drawing process is drawing ahead whenever the caller stops
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 16)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 4 * 16)
        self.pids = forked_pids(monkeypatch)

    def test_blowup(self):
        mu0 = sample_initial({"kind": "point", "x0": 10.0}, 8, 0)
        with pytest.raises(NumericalBlowup, match="step 76"):
            estimate_cost(self.explosive(), zero_control(), 0.0, mu0,
                          8, 6, 0.01, 0)
        assert len(self.pids) == 1 and reaped(self.pids[0])

    def test_consumer_raises_after_first_batch(self):
        _, _, _, _, _, model, control = interbank_stack(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 8, 0)
        stacks = []

        class Failing(QuadraticFunctional):
            def values(self, x):
                # the initial cloud, the first batch's end clouds, then the second's
                stacks.append(x.shape)
                if len(stacks) > 2:
                    raise RuntimeError("consumer failed")
                return super().values(x)

        phi = Failing(np.zeros((1, 1)), np.eye(1), np.zeros(1), 0.0)
        # `info` holds the traceback and with it the driver's frame and its
        # stream, so only the driver's own close can have reaped the process
        with pytest.raises(RuntimeError, match="consumer failed") as info:
            ito_generator_check(model, control, 0.0, mu0, phi, 0.5, 8, 6, 0.01, 0)
        assert stacks == [(1, 8, 1), (2, 8, 1), (2, 8, 1)]
        assert info.value.__traceback__ is not None
        assert len(self.pids) == 1 and reaped(self.pids[0])

    def test_abandoned_generator(self):
        _, _, _, _, _, model, control = interbank_stack(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 8, 0)
        stream = stream_scenarios(model, control, 0.0, mu0, 1.0, 0.01, 0, 6)
        next(stream)
        assert len(self.pids) == 1 and not reaped(self.pids[0])
        del stream
        assert reaped(self.pids[0])


def explosive(B=40.0):
    """The model x' = (1 + B dt) x, with no noise.

    From 10 at dt = 0.01, B = 40 first passes 1e12 at step 76 (10 * 1.4^76);
    B = -150 is stable at dt = 0.01 (factor -0.5) but not at 0.02 (factor
    -2, past 1e12 at step 37).
    """
    dyn = LqDynamics(b0=0.0, B=B, Bbar=0.0, C=0.0, theta=0.0, D=0.0, Dbar=0.0, F=0.0,
                     theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
    return lq_dynamics_spec(dyn, LqCost(Q2=1.0, Q2bar=0.0, R2=1.0, P2=1.0, P2bar=0.0), 1.0)


class TestExpectedGap:
    """expected_dpp_gap: the dpp gap's expectation over the noise, from the exact moment recursion."""

    @pytest.mark.parametrize("d, m", [(1, 1), (3, 2)])
    def test_without_noise_it_is_the_scheme(self, d, m):
        # with every noise loading zero the scheme is deterministic: every
        # scenario is the one gap, and the expectation is that gap
        dyn, cost = random_lq(11, d=d, m=m, with_m2=True)
        z, Z, F = np.zeros(d), np.zeros((d, d)), np.zeros((d, m))
        dyn = replace(dyn, theta=z, D=Z, Dbar=Z, F=F, theta0=z, D0=Z, D0bar=Z, F0=F)
        model = lq_dynamics_spec(dyn, cost, 1.0)
        qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 0.01), dyn, cost)
        spec = {"kind": "gaussian", "mean": np.linspace(-1.0, 1.0, d), "cov": 0.5 * np.eye(d)}
        mu0 = sample_initial(spec, 50, 3)
        base = FeedbackControl(FeedbackPolicy(qv))
        for control in (base, ShiftedControl(base, 0.25 * np.ones(m))):
            mc = dpp_check(qv, model, 0.2, mu0, 0.8, control, 50, 2, 0.01, 0)
            assert mc.stderr == 0.0
            assert expected_dpp_gap(qv, model, 0.2, mu0, 0.8, control, 0.01) == pytest.approx(
                mc.gap, rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("d, m", [(1, 1), (3, 2)])
    def test_moments_are_the_mean_over_every_outcome(self, d, m):
        # each state is affine in each step's increments, so a moment has degree <= 2 in every
        # increment, and the two outcomes +-sqrt(dt) of each, weights 1/2, integrate it
        # exactly: over N = 2 particles and K = 3 steps, 2^9 outcomes of the Euler loop
        dyn, _ = random_lq(5, d=d, m=m, with_m2=True)
        rng = np.random.default_rng(d)
        K1, K2 = 0.5 * rng.standard_normal((2, 3, m, d))
        k, x0, dt = rng.standard_normal((3, m)), rng.standard_normal((2, d)), 0.1
        ends = np.stack([euler_nodes(dyn, (K1, K2, k), x0, dt, z[:, :1], z[:, 1:, None])[-1]
                         for z in np.sqrt(dt) * np.reshape(list(itertools.product(
                             (-1.0, 1.0), repeat=9)), (-1, 3, 3))])
        mbar, second = expected_moments(dyn, K1, K2, k, *moments(x0), dt, 2)
        A = rng.standard_normal((2, d, d))
        phi = QuadraticFunctional(A[0] @ A[0].T, A[1] + A[1].T, rng.standard_normal(d), 0.5)
        assert np.mean(phi.at_moments(mbar[-1], second[-1])) == pytest.approx(
            np.mean(phi.values(ends)), rel=1e-12, abs=0.0)
        outcomes = moments(ends)
        for got, want in zip((mbar[-1], second[-1]), outcomes):
            assert np.mean(got, axis=0) == pytest.approx(np.mean(want, axis=0), rel=1e-12)

    @pytest.mark.parametrize("name", ["interbank", "d3"])
    def test_monte_carlo_mean_within_four_stderr(self, name):
        # at N = 20 the expectation holds the scheme's particle bias, about 4 stderr here
        if name == "interbank":
            _, dyn, cost, _, qv = make_interbank(h=0.01)
            mu0, M = sample_initial({"kind": "point", "x0": 1.0}, 20, 0), 4000
        else:
            dyn, cost = random_lq(3, d=3, m=2, with_m2=True)
            qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 0.01), dyn, cost)
            mu0, M = random_cloud(np.random.default_rng(3), 20, 3), 2000
        model = lq_dynamics_spec(dyn, cost, 1.0)
        control = FeedbackControl(FeedbackPolicy(qv))
        res = dpp_check(qv, model, 0.0, mu0, 0.5, control, 20, M, 0.01, 5)
        expected = expected_dpp_gap(qv, model, 0.0, mu0, 0.5, control, 0.01)
        assert abs(res.gap - expected) <= 4.0 * res.stderr

    def test_blowup_names_the_grid_and_the_step(self):
        # B = -150 is stable at dt = 0.01, but at 0.02 the mean square passes 1e24 at step 37
        model, mu0 = explosive(-150.0), sample_initial({"kind": "point", "x0": 10.0}, 8, 0)
        gains = zero_control().grid_gains(0.0, 0.02, 50)
        with pytest.raises(NumericalBlowup, match=r"at step 37 of the expected moments at "
                                                  r"dt=0\.02: E\|x\|\^2 [0-9.e+]* exceeded 1e24"):
            expected_moments(model.dyn, *gains, *moments(mu0.points), 0.02, 8)
        expected_moments(model.dyn, *zero_control().grid_gains(0.0, 0.01, 100),
                         *moments(mu0.points), 0.01, 8)

    @staticmethod
    def verify_dpp(tmp_path, B, x0):
        model = explosive(B)
        path = str(tmp_path / "explosive.txt")
        save_model(path, model.dyn, model.cost, model.T)
        return cli.main(["verify", "dpp", "--model", path, "--out", str(tmp_path), "--seed", "0",
                         "--particles", "8", "--paths", "2", "--dt", "0.01", "--theta", "1.0",
                         "--init", f"point:{x0}", "--control", "zero"])

    def test_expected_blowup_exits_three(self, tmp_path, capsys):
        # the Monte Carlo run at dt passes; the expected moments at 2 dt blow up
        assert self.verify_dpp(tmp_path, -150.0, 10.0) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: numerical blowup at step 37 of the expected moments at dt=0.02: ")

    def test_monte_carlo_blowup_wins(self, tmp_path, capsys):
        # both blow up, from 1e8 at factor 1.12 per step; the Monte Carlo run goes first
        assert self.verify_dpp(tmp_path, 12.0, 1e8) == 3
        assert capsys.readouterr().err.startswith(
            "numerical failure: numerical blowup at t=0.82, path 0, step 82, particle 0: ")


class TestFlowRestarts:
    """flow_restarts: digests fed node by node, no trajectory held, a FAIL names its array."""

    def perturb(self, monkeypatch, target):
        # the first draw of every run that starts past node 0 moved: the
        # continuations', since each reference path is drawn in one chunk
        # (a budget of 4 scenarios of 16 particles sizes chunks past 50 steps)
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 4 * 16)
        real = simulator._gen_noise

        def gen(seed, path_index, step_offset, n_steps, *args, out=None):
            dw0, db = real(seed, path_index, step_offset, n_steps, *args, out=out)
            if step_offset > 0:
                arr = dw0 if target == "dw0" else db
                arr.flat[0] += 0.5
            return dw0, db

        monkeypatch.setattr(simulator, "_gen_noise", gen)

    @pytest.mark.parametrize("target, named", [("dw0", "dw0"), ("db", "states")])
    def test_failure_names_the_first_array(self, target, named, monkeypatch):
        # no common-noise loading (rho = 0): a perturbed dw0 moves no state
        _, _, _, _, _, model, control = interbank_stack(sigma1=0.3, rho=0.0, h=0.02)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 16, 0)
        self.perturb(monkeypatch, target)
        nodes = [(0, 0), (0, 20), (1, 49), (2, 50), (3, 1)]
        result = flow_rule(flow_restarts(model, control, 0.0, mu0, 1.0, 0.02, 3, nodes))
        assert not result.passed
        assert result.constituents == {"restarts": 5, "failures": [[0, 20, named], [1, 49, named],
                                                                   [3, 1, named]]}

    def test_bounded_memory(self):
        # 4 paths of 500 particles over 1000 steps: a held trajectory is 4 MB
        _, _, _, _, _, model, control = interbank_stack(sigma1=0.3, h=1e-3)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 500, 0)
        nodes = [(0, 912), (1, 40), (2, 1000), (3, 493)]
        tracemalloc.start()
        try:
            result = flow_rule(flow_restarts(model, control, 0.0, mu0, 1.0, 1e-3, 1, nodes))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert result.passed and result.constituents["restarts"] == 4
        assert peak < 2 * 2**20

    def test_blowup_names_the_batch_step(self):
        # paths 1..3 step as one batch: the earliest step, then the lowest path
        mu0 = sample_initial({"kind": "point", "x0": 10.0}, 8, 0)
        with pytest.raises(NumericalBlowup, match="t=0.76, path 1, step 76, particle 0"):
            list(flow_restarts(explosive(), zero_control(), 0.0, mu0, 1.0,
                               0.01, 0, [(3, 10), (1, 5)]))

    def test_rejects_nodes_off_the_grid(self):
        _, _, _, _, _, model, control = interbank_stack(h=0.02)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 4, 0)
        for node in (-1, 51):
            with pytest.raises(ValueError, match="not a node 0..50"):
                list(flow_restarts(model, control, 0.0, mu0, 1.0, 0.02, 0, [(0, node)]))


class TestGeneratorApply:
    @pytest.mark.parametrize("n, d, m", [(2000, 3, 1), (300, 2, 2)])
    def test_common_noise_term_is_the_pair_sum(self, n, d, m):
        # with L = 0 and a model whose only loadings are the common noise's,
        # only the common noise term is left
        rng = np.random.default_rng(n)
        G = rng.standard_normal((d, d))
        phi = QuadraticFunctional(np.zeros((d, d)), G + G.T, rng.standard_normal(d), 0.0)
        mu = EmpiricalMeasure(rng.standard_normal((n, d)))
        zero_d, zero_dd, zero_dm = np.zeros(d), np.zeros((d, d)), np.zeros((d, m))
        dyn = LqDynamics(b0=zero_d, B=zero_dd, Bbar=zero_dd, C=zero_dm, theta=zero_d,
                         D=zero_dd, Dbar=zero_dd, F=zero_dm, theta0=rng.standard_normal(d),
                         D0=rng.standard_normal((d, d)), D0bar=rng.standard_normal((d, d)),
                         F0=rng.standard_normal((d, m)))
        gains = (rng.standard_normal((m, d)), rng.standard_normal((m, d)), rng.standard_normal(m))
        s0 = coefficient_values(dyn, mu.points, mean(mu),
                                affine_feedback(*gains, mu.points, mean(mu)))[2]
        got = generator_apply(phi, mu, dyn, gains)
        np.testing.assert_allclose(got, generator_pair_sum(phi, s0), rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_moments_match_the_pointwise_sums(self, d):
        # phi = w, d_t w and a random quadratic functional, under random gains
        # on random clouds, on a model with a cross weight M2
        rng = np.random.default_rng(140 + d)
        dyn, cost = random_lq(140 + d, d=d, with_m2=True)
        qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 5e-3), dyn, cost)
        m = dyn.m
        for _ in range(4):
            t = float(rng.uniform(0.0, 0.999))
            mu = random_cloud(rng, 50, d)
            gains = (rng.standard_normal((m, d)), rng.standard_normal((m, d)),
                     rng.standard_normal(m))
            L, G = rng.standard_normal((2, d, d))
            for phi in (qv.at(t), qv.dt_at(t),
                        QuadraticFunctional(L, G, rng.standard_normal(d), 0.7)):
                want = pointwise_generator(phi, mu, dyn, gains)
                assert generator_apply(phi, mu, dyn, gains) == pytest.approx(want, rel=1e-12,
                                                                             abs=0.0)

    @pytest.mark.parametrize("d", [1, 3])
    def test_without_noise_it_is_the_flow_derivative(self, d):
        # every noise loading zero: the mean over particles of d_mu phi(x_i) . b_i
        rng = np.random.default_rng(150 + d)
        dyn, _ = random_lq(150 + d, d=d)
        noiseless = replace(dyn, **{k: np.zeros_like(getattr(dyn, k)) for k in (
            "theta", "D", "Dbar", "F", "theta0", "D0", "D0bar", "F0")})
        m = dyn.m
        for _ in range(4):
            mu = random_cloud(rng, 40, d)
            gains = (rng.standard_normal((m, d)), rng.standard_normal((m, d)),
                     rng.standard_normal(m))
            L, G = rng.standard_normal((2, d, d))
            phi = QuadraticFunctional(L, G, rng.standard_normal(d), -0.4)
            a = affine_feedback(*gains, mu.points, mean(mu))
            drift = coefficient_values(noiseless, mu.points, mean(mu), a)[0]
            want = float(np.mean(np.sum(phi.d_mu(mu, mu.points) * drift, axis=1)))
            assert generator_apply(phi, mu, noiseless, gains) == pytest.approx(want, rel=1e-12,
                                                                               abs=0.0)


class TestBellmanResidual:
    def test_zero_at_optimal_feedback(self):
        rng = np.random.default_rng(110)
        for seed in (200, 201, 202):
            dyn, cost = random_lq(seed, with_m2=(seed % 2 == 0))
            sol = solve_riccati(dyn, cost, 1.0, 5e-3)
            qv = QuadraticValue(sol, dyn, cost)
            for _ in range(6):
                t = float(rng.uniform(0, 0.999))
                mu = random_cloud(rng, 50, dyn.d)
                res, terms = bellman_residual(qv, t, mu, map_gains(optimal_map(qv, t, mu)),
                                              with_terms=True)
                assert abs(res) <= 1e-8 * residual_scale(terms)

    def test_point_mass_cloud(self):
        dyn, cost = random_lq(203, d=2, m=1)
        sol = solve_riccati(dyn, cost, 1.0, 5e-3)
        qv = QuadraticValue(sol, dyn, cost)
        rng = np.random.default_rng(111)
        mu = EmpiricalMeasure(np.tile(rng.standard_normal(2), (30, 1)))
        res, terms = bellman_residual(qv, 0.37, mu, map_gains(optimal_map(qv, 0.37, mu)),
                                      with_terms=True)
        assert abs(res) <= 1e-8 * residual_scale(terms)

    def test_excess_is_control_quadratic(self):
        rng = np.random.default_rng(112)
        dyn, cost = random_lq(204, d=2, m=2, with_m2=True)
        sol = solve_riccati(dyn, cost, 1.0, 5e-3)
        qv = QuadraticValue(sol, dyn, cost)
        for _ in range(20):
            t = float(rng.uniform(0, 0.999))
            mu = random_cloud(rng, int(rng.integers(2, 40)), 2)
            a_star = optimal_map(qv, t, mu)
            a = AffineMap(a_star.A + 0.6 * rng.standard_normal((2, 2)),
                          a_star.b + 0.6 * rng.standard_normal(2))
            r_star = bellman_residual(qv, t, mu, map_gains(a_star))
            r = bellman_residual(qv, t, mu, map_gains(a))
            g = gains(t, *qv.sol.eval(t)[:3], dyn, cost)
            diff = AffineMap(a.A - a_star.A, a.b - a_star.b)
            dmu = pushforward(mu, diff)
            dbar = mean(dmu)
            predicted = variance_form(dmu, g.U) + float(dbar @ g.V @ dbar)
            assert r - r_star == pytest.approx(predicted, rel=1e-10, abs=1e-11)
            assert r >= r_star - 1e-11

    def test_constant_shift_excess_formula(self):
        # interbank: residual at a* + eps is eps^2 / 2 (V = 1/2, Var of const = 0)
        _, _, _, _, qv, _, _ = interbank_stack(sigma1=0.3)
        rng = np.random.default_rng(113)
        for eps in (0.2, 0.5):
            t = 0.3
            mu = random_cloud(rng, 25, 1)
            a_star = optimal_map(qv, t, mu)
            a = AffineMap(a_star.A, a_star.b + eps)
            excess = (bellman_residual(qv, t, mu, map_gains(a))
                      - bellman_residual(qv, t, mu, map_gains(a_star)))
            assert excess == pytest.approx(eps ** 2 / 2.0, rel=1e-10)

    def test_rejects_terminal_time(self):
        _, _, _, _, qv, _, _ = interbank_stack()
        mu = EmpiricalMeasure([[0.0]])
        with pytest.raises(ValueError):
            bellman_residual(qv, qv.T, mu, zero_control().gains)


class TestDpp:
    def test_theta_equals_t_gap_zero(self):
        _, _, _, _, qv, model, control = interbank_stack()
        res = dpp_check(qv, model, 0.25, {"kind": "point", "x0": 1.0}, 0.25,
                        control, 50, 8, 0.05, 4)
        assert res.gap == 0.0 and res.stderr == 0.0

    def test_theta_T_consistent_with_estimate(self):
        p, _, _, _, qv, model, control = interbank_stack()
        mu0 = {"kind": "point", "x0": p.x0}
        N, M, dt, seed = 150, 12, 0.01, 21
        res = dpp_check(qv, model, 0.0, mu0, p.T, control, N, M, dt, seed)
        est = estimate_cost(model, control, 0.0, mu0, N, M, dt, seed)
        w0 = value(qv, 0.0, sample_initial(mu0, N, seed))
        assert res.gap == pytest.approx(est.mean - w0, abs=1e-12)

    def test_optimal_control_gap_small(self):
        p, _, _, _, qv, model, control = interbank_stack()
        res = dpp_check(qv, model, 0.0, {"kind": "point", "x0": p.x0}, 0.5,
                        control, 1000, 48, 2e-3, 31)
        assert abs(res.gap) <= 3.0 * res.stderr + 5.0 * 2e-3

    def test_shifted_control_gap_positive(self):
        p, _, _, _, qv, model, control = interbank_stack()
        eps, theta = 0.5, 0.5
        res = dpp_check(qv, model, 0.0, {"kind": "point", "x0": p.x0}, theta,
                        ShiftedControl(control, eps), 800, 48, 2e-3, 32)
        predicted = eps ** 2 * theta / 2.0
        assert res.gap >= -(3.0 * res.stderr + 5.0 * 2e-3)
        assert res.gap == pytest.approx(predicted, rel=0.25)

    def test_zero_control_gap_nonnegative(self):
        p, _, _, _, qv, model, _ = interbank_stack(sigma1=0.3)
        res = dpp_check(qv, model, 0.0, {"kind": "point", "x0": p.x0}, 0.75,
                        zero_control(), 500, 32, 2e-3, 33)
        assert res.gap >= -(3.0 * res.stderr + 5.0 * 2e-3)

    def test_validates_theta(self):
        _, _, _, _, qv, model, control = interbank_stack()
        with pytest.raises(ValueError):
            dpp_check(qv, model, 0.5, {"kind": "point", "x0": 0.0}, 0.25,
                      control, 10, 4, 0.05, 0)


class TestItoGenerator:
    def test_frozen_flow(self):
        dyn, cost = random_lq(120, d=1, m=1)
        from cmvlq.lqmodel import LqDynamics

        frozen = LqDynamics(b0=0.0, B=0.0, Bbar=0.0, C=0.0, theta=0.0, D=0.0,
                            Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        model = lq_dynamics_spec(frozen, cost, 1.0)
        phi = QuadraticFunctional(np.ones((1, 1)), np.ones((1, 1)), np.ones(1), 0.0)
        res = ito_generator_check(model, zero_control(), 0.0,
                                  {"kind": "gaussian", "mean": [0.3], "cov": 0.5},
                                  phi, 0.1, 50, 8, 0.05, 7)
        assert res.lhs == 0.0 and res.rhs == 0.0 and res.stderr == 0.0

    def test_mean_square_generator_exact(self):
        # sigma1 = 0, a = 0, phi = mean^2: generator side is (sigma0 rho)^2
        p, _, _, _, qv, model, _ = interbank_stack()
        phi = QuadraticFunctional(np.zeros((1, 1)), np.eye(1), np.zeros(1), 0.0)
        res = ito_generator_check(model, zero_control(), 0.0,
                                  {"kind": "point", "x0": 0.0}, phi,
                                  0.01, 400, 64, 1e-3, 41)
        assert res.rhs == pytest.approx((p.sigma0 * p.rho) ** 2, abs=1e-14)
        assert abs(res.lhs - res.rhs) <= 3.0 * res.stderr + (0.01 + 1e-3)

    def test_variance_generator_matches_ode(self):
        # d/dt E[Var] = -2 (kappa + q) Var + sigma0^2 (1 - rho^2) at t = 0
        p, dyn, _, _, qv, model, _ = interbank_stack()
        phi = QuadraticFunctional(np.eye(1), np.zeros((1, 1)), np.zeros(1), 0.0)
        mu0 = {"kind": "gaussian", "mean": [p.x0], "cov": 0.2}
        cloud0 = sample_initial(mu0, 400, 42)
        var0 = variance_form(cloud0, np.eye(1))
        expect = -2.0 * (p.kappa + p.q) * var0 + p.sigma0 ** 2 * (1 - p.rho ** 2)
        res = ito_generator_check(model, zero_control(), 0.0,
                                  mu0, phi, 0.01, 400, 64, 1e-3, 42)
        assert res.rhs == pytest.approx(expect, rel=1e-12)
        assert abs(res.lhs - res.rhs) <= 3.0 * res.stderr + 2.0 * (0.01 + 1e-3)

    def test_delta_must_be_step_multiple(self):
        _, _, _, _, _, model, control = interbank_stack()
        with pytest.raises(ValueError):
            ito_generator_check(model, control, 0.0, {"kind": "point", "x0": 0.0},
                                QuadraticFunctional(np.eye(1), np.eye(1), np.zeros(1), 0.0),
                                0.0105, 50, 4, 1e-3, 0)


class TestGradCheck:
    def test_quadratic_value(self):
        rng = np.random.default_rng(130)
        dyn, cost = random_lq(205, d=2, m=1)
        sol = solve_riccati(dyn, cost, 1.0, 5e-3)
        qv = QuadraticValue(sol, dyn, cost)
        for _ in range(10):
            t = float(rng.uniform(0, 1))
            mu = random_cloud(rng, int(rng.integers(2, 15)), 2)
            assert grad_check(qv, t, mu, 1e-5) <= 1e-6

    def test_linear_functional_exact(self):
        # Lam = Gam = 0 and fixed gam: derivative is the constant gam
        grid = np.array([0.0, 1.0])
        z = np.zeros((2, 1, 1))
        sol = RiccatiSolution(grid=grid, Lam=z, Gam=z.copy(),
                              gam=np.full((2, 1), 0.8), chi=np.zeros(2),
                              pd_history=np.ones((2, 2)), h=1.0, T=1.0,
                              K1=z.copy(), K2=z.copy(), k=np.zeros((2, 1)))
        dyn, cost = random_lq(206, d=1, m=1)
        qv = QuadraticValue(sol, dyn, cost)
        rng = np.random.default_rng(131)
        mu = random_cloud(rng, 7, 1)
        assert grad_check(qv, 0.5, mu, 1e-5) <= 1e-9

    @pytest.mark.parametrize("d", [1, 3])
    def test_stack_is_the_loop_bitwise(self, d):
        # the draws of `verify grad --seed 1` (100 clouds of 20 particles,
        # epsilon 0.1) on the interbank model and a d = 3, m = 2 model: each
        # draw's error, and so the statistic, is the per-cloud loop's bits;
        # the loop on the einsum point form agrees to 1e-12 of the derivative scale
        if d == 1:
            qv = make_interbank()[4]
        else:
            dyn, cost = random_lq(61, d=3, m=2, with_m2=True)
            qv = QuadraticValue(solve_riccati(dyn, cost, 1.0, 1e-3), dyn, cost)
        draws = [random_clouds(qv, 1, 20, 1 + i)[0] for i in range(100)]
        stacked = [(t, grad_check(qv, t, cloud, 0.1)) for t, cloud in draws]
        looped = [(t, grad_check_loop(qv, t, cloud, 0.1)) for t, cloud in draws]
        assert [e.hex() for _, e in stacked] == [e.hex() for _, e in looped]
        assert grad_rule(stacked) == grad_rule(looped)
        pointwise = [grad_check_loop(qv, t, cloud, 0.1, quadratic_functional) for t, cloud in draws]
        assert np.allclose([e for _, e in stacked], pointwise, rtol=0.0, atol=1e-12)

    def test_point_mass_gradient_value(self):
        dyn, cost = random_lq(207, d=1, m=1)
        sol = solve_riccati(dyn, cost, 1.0, 5e-3)
        qv = QuadraticValue(sol, dyn, cost)
        x = 0.9
        mu = EmpiricalMeasure(np.full((5, 1), x))
        t = 0.4
        phi = qv.at(t)
        d_mu = phi.d_mu(mu, np.array([x]))
        Lam, Gam, gam, _ = sol.eval(t)
        assert d_mu[0] == pytest.approx(2 * Gam[0, 0] * x + gam[0], rel=1e-12)


class TestChaos:
    def test_mean_field_free_model(self):
        # no measure coupling: estimates agree across N within noise
        from cmvlq.lqmodel import LqDynamics

        dyn = LqDynamics(b0=0.1, B=-0.8, Bbar=0.0, C=1.0, theta=0.3, D=0.1,
                         Dbar=0.0, F=0.0, theta0=0.2, D0=0.1, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=0.5, Q2bar=0.0, R2=0.5, P2=0.5, P2bar=0.0)
        model = lq_dynamics_spec(dyn, cost, 1.0)
        control = ConstantControl(np.array([[-0.4]]), np.array([[-0.4]]), np.array([0.1]))
        rows = chaos_convergence(model, control, 0.0, {"kind": "point", "x0": 0.7},
                                 [100, 400, 1600], 24, 5e-3, 51)
        for a in rows:
            for b in rows:
                assert abs(a["mean"] - b["mean"]) <= 3.0 * (a["stderr"] + b["stderr"])

    def test_interbank_trend_toward_value(self):
        p, _, _, _, qv, model, control = interbank_stack()
        mu0 = {"kind": "point", "x0": p.x0}
        rows = chaos_convergence(model, control, 0.0, mu0, [250, 1000, 4000],
                                 32, 2e-3, 52)
        w0 = value(qv, 0.0, sample_initial(mu0, 250, 52))
        devs = [abs(r["mean"] - w0) for r in rows]
        inversions = sum(
            1 for i in range(len(devs) - 1)
            if devs[i + 1] > devs[i]
            and devs[i + 1] - devs[i] > 2.0 * (rows[i + 1]["stderr"] + rows[i]["stderr"]))
        assert inversions == 0

    def test_clt_stderr_scaling(self):
        # quadrupling the scenario count halves the standard error
        _, _, _, _, _, model, control = interbank_stack(sigma1=0.3)
        mu0 = {"kind": "point", "x0": 1.0}
        small = estimate_cost(model, control, 0.0, mu0, 200, 24, 5e-3, 53)
        big = estimate_cost(model, control, 0.0, mu0, 200, 96, 5e-3, 53)
        assert 1.6 <= small.stderr / big.stderr <= 2.5

    def test_validates_ns(self):
        _, _, _, _, _, model, control = interbank_stack()
        with pytest.raises(ValueError):
            chaos_convergence(model, control, 0.0, {"kind": "point", "x0": 0.0},
                              [100], 4, 0.05, 0)
        with pytest.raises(ValueError):
            chaos_convergence(model, control, 0.0, {"kind": "point", "x0": 0.0},
                              [400, 100], 4, 0.05, 0)


class TestHelpers:
    def test_random_clouds_deterministic(self):
        _, _, _, _, qv, _, _ = interbank_stack()
        a = random_clouds(qv, 3, 10, 77)
        b = random_clouds(qv, 3, 10, 77)
        for (ta, ca), (tb, cb) in zip(a, b):
            assert ta == tb and np.array_equal(ca.points, cb.points)

    def test_report_roundtrip(self, tmp_path):
        import json

        path = tmp_path / "report.json"
        for result in (
                bellman_rule([(0.25, 1.5e-9, {"d_t": -0.5, "running_cost": 0.25,
                                              "generator": 0.25})]),
                dpp_rule(DppResult(gap=-0.1, stderr=0.02, theta=0.5, t=0.0, M=8), 0.01, 3.0,
                         False)):
            save_report(path, result.report({"seed": 1}))
            back = json.loads(path.read_text())
            assert back.pop("config") == {"seed": 1}
            assert CheckResult(back["check"], back["pass"], back["statistic"], back["tolerance"],
                               back["stderr"], back["constituents"]) == result


def _up(x):
    return float(np.nextafter(x, np.inf))


def _down(x):
    return float(np.nextafter(x, -np.inf))


# |residual| is scaled by max(1, largest |term|) = 4
TERMS = {"d_t": 4.0, "running_cost": -1.0, "generator": -3.0}
# stderr 0.25: 3 stderr = 0.75
DPP = dict(stderr=0.25, theta=0.5, t=0.0, M=8)


def _dpp(gap, two_sided):
    # c_dt dt = 2 * 0.125, so the tolerance is 1.0
    return dpp_rule(DppResult(gap=gap, **DPP), 0.125, 2.0, two_sided)


def _ito(lhs, rhs, bias_factor):
    # delta + dt = 0.5
    return ito_rule(ItoCheckResult(lhs=lhs, rhs=rhs, stderr=0.25, delta=0.375), 0.125, bias_factor)


def _chaos(means):
    # value 0 at every cloud, se 0.0625 per row: the slack of every rise is 0.25
    rows = [{"N": 10 * 2 ** i, "mean": m, "stderr": 0.0625} for i, m in enumerate(means)]
    return chaos_rule(rows, [0.0] * len(rows))


def _digests(arrays):
    # the digests that flow_restarts feeds node by node, of whole arrays
    return tuple(hashlib.sha256(arrays[k].tobytes()).digest() for k in FLOW_ARRAYS)


def _flow(broken):
    arrays = {k: np.linspace(0.0, 1.0, 6) for k in FLOW_ARRAYS}
    traj = SimpleNamespace(**arrays)
    conts = [SimpleNamespace(**{k: v[j:].copy() for k, v in arrays.items()}) for j in (1, 4)]
    for k in broken:
        getattr(conts[1], k)[-1] = _up(1.0)
    return flow_rule([(p, j, _digests({k: getattr(traj, k)[j:] for k in FLOW_ARRAYS}),
                       _digests(vars(cont))) for (p, j), cont in zip([(0, 1), (3, 4)], conts)])


class TestPassRules:
    """One boundary table over the six rules: statistic == tolerance passes, one ulp more fails."""

    @pytest.mark.parametrize("decide, passed", [
        pytest.param(lambda: bellman_rule([(0.5, 4 * BELLMAN_TOL, TERMS)]), True, id="bellman-at"),
        pytest.param(lambda: bellman_rule([(0.5, -4 * BELLMAN_TOL, TERMS)]), True,
                     id="bellman-at-negative"),
        pytest.param(lambda: bellman_rule([(0.5, 0.0, TERMS), (0.7, _up(4 * BELLMAN_TOL), TERMS)]),
                     False, id="bellman-above"),
        pytest.param(lambda: grad_rule([(0.1, 0.0), (0.2, GRAD_TOL)]), True, id="grad-at"),
        pytest.param(lambda: grad_rule([(0.1, _up(GRAD_TOL))]), False, id="grad-above"),
        pytest.param(lambda: grad_rule([(0.1, 0.0), (0.2, float("nan"))]), False, id="grad-nan"),
        pytest.param(lambda: _dpp(1.0, True), True, id="dpp-two-sided-at"),
        pytest.param(lambda: _dpp(_up(1.0), True), False, id="dpp-two-sided-above"),
        pytest.param(lambda: _dpp(-1.0, True), True, id="dpp-two-sided-at-below"),
        pytest.param(lambda: _dpp(_down(-1.0), True), False, id="dpp-two-sided-beyond-below"),
        pytest.param(lambda: _dpp(1e9, False), True, id="dpp-one-sided-large-gap"),
        pytest.param(lambda: _dpp(-1.0, False), True, id="dpp-one-sided-at"),
        pytest.param(lambda: _dpp(_down(-1.0), False), False, id="dpp-one-sided-beyond"),
        # |rhs| < 1: bias 2 * 1 * 0.5, tolerance 0.75 + 1 = 1.75
        pytest.param(lambda: _ito(2.25, 0.5, 2.0), True, id="ito-at"),
        pytest.param(lambda: _ito(_up(2.25), 0.5, 2.0), False, id="ito-above"),
        # |rhs| = 4: bias 1 * 4 * 0.5, tolerance 0.75 + 2 = 2.75
        pytest.param(lambda: _ito(1.25, 4.0, 1.0), True, id="ito-at-large-rhs"),
        pytest.param(lambda: _ito(4.0 - _up(2.75), 4.0, 1.0), False, id="ito-above-large-rhs"),
        pytest.param(lambda: _chaos([0.5, 0.25, 0.125]), True, id="chaos-no-rise"),
        pytest.param(lambda: _chaos([0.5, 0.25, 0.5]), True, id="chaos-one-rise-at-slack"),
        pytest.param(lambda: _chaos([0.5, 0.25, _up(0.5)]), False, id="chaos-rise-beyond-slack"),
        pytest.param(lambda: _chaos([-0.25, 0.375, -0.5]), False, id="chaos-two-rises"),
        pytest.param(lambda: _flow(()), True, id="flow-at"),
        pytest.param(lambda: _flow(("times",)), False, id="flow-times-one-ulp"),
        pytest.param(lambda: _flow(("dw0",)), False, id="flow-dw0-one-ulp"),
    ])
    def test_boundary(self, decide, passed):
        result = decide()
        assert bool(result.passed) is passed

    def test_boundary_rows_sit_on_the_tolerance(self):
        for result in (bellman_rule([(0.5, 4 * BELLMAN_TOL, TERMS)]), _ito(2.25, 0.5, 2.0),
                       _dpp(1.0, True), _chaos([0.5, 0.25, 0.5])):
            assert result.statistic == result.tolerance
        assert _dpp(-1.0, False).statistic == -_dpp(-1.0, False).tolerance

    def test_constituents(self):
        bellman = bellman_rule([(0.1, 0.0, TERMS), (0.7, 4e-9, TERMS), (0.9, 1e-9, TERMS)])
        assert bellman.constituents == {"draw": 1, "t": 0.7, "residual": 4e-9, **TERMS}
        assert grad_rule([(0.1, 1e-9), (0.3, 2e-9)]).constituents == {"draw": 1, "t": 0.3}
        assert _dpp(0.5, True).constituents == {"fine_gap": 0.5, "expected_gaps": None,
                                                "c_dt": 2.0, "dt": 0.125, "two_sided": True}
        assert dpp_rule(DppResult(gap=0.5, **DPP), 0.125, 2.0, True, (0.25, 0.5)).constituents[
            "expected_gaps"] == [0.25, 0.5]
        assert _ito(2.25, 0.5, 2.0).constituents == {"lhs": 2.25, "rhs": 0.5, "bias": 1.0}
        chaos = _chaos([0.5, -0.25, 0.5])
        assert [r["deviation"] for r in chaos.constituents["rows"]] == [0.5, 0.25, 0.5]
        assert chaos.constituents["rises"] == 1
        flow = _flow(("states", "means"))
        assert flow.statistic == 1.0 and flow.constituents == {"restarts": 2,
                                                               "failures": [[3, 4, "states"]]}
        assert _flow(("dw0", "times")).constituents["failures"] == [[3, 4, "dw0"]]
