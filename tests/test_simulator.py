import os
import threading
import time
from contextlib import closing
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq import simulator
from cmvlq.errors import NumericalBlowup
from cmvlq.lqmodel import LqCost, LqDynamics, affine_feedback
from cmvlq.measure import EmpiricalMeasure, tree_mean
from cmvlq.policy import FeedbackPolicy, QuadraticValue, optimal_feedback
from cmvlq.riccati import solve_riccati
from cmvlq.simulator import (
    ConstantControl,
    FeedbackControl,
    Recorder,
    ShiftedControl,
    _blowup,
    _gen_noise,
    lq_dynamics_spec,
    pathwise_cost,
    restart_continuation,
    sample_initial,
    simulate_path,
    stream_scenarios,
)

from conftest import forked_pids, inline_noise, make_interbank, random_lq, reaped, zero_control
from reference import (
    AffineMap,
    control_values_on_grid,
    l2_norm,
    running_cost,
    save_csv,
    step_normals,
)


def interbank_setup(sigma1=0.3, rho=0.5, q=0.5, h=1e-3, x0=1.0):
    p, dyn, cost, sol, qv = make_interbank(h=h, sigma1=sigma1, rho=rho, q=q, x0=x0)
    model = lq_dynamics_spec(dyn, cost, p.T)
    control = FeedbackControl(FeedbackPolicy(qv))
    return p, dyn, cost, sol, qv, model, control


def lq_model(d=2, B=0.0, R2=0.0, T=1.0):
    """B I drift, no noise, no control loading; running cost a'R2 a only (m = 1)."""
    z, zv, zc = np.zeros((d, d)), np.zeros(d), np.zeros((d, 1))
    dyn = LqDynamics(b0=zv, B=B * np.eye(d), Bbar=z, C=zc, theta=zv, D=z, Dbar=z, F=zc,
                     theta0=zv, D0=z, D0bar=z, F0=zc)
    cost = LqCost(Q2=z, Q2bar=z, R2=R2, P2=z, P2bar=z)
    return lq_dynamics_spec(dyn, cost, T)


class TestSampleInitial:
    def test_point(self):
        mu = sample_initial({"kind": "point", "x0": 1.5}, 4, 0)
        assert mu.n == 4 and mu.dim == 1
        assert np.all(mu.points == 1.5)

    def test_gaussian_clt(self):
        n = 10_000
        mu = sample_initial({"kind": "gaussian", "mean": np.zeros(2),
                             "cov": np.eye(2)}, n, 123)
        m = tree_mean(mu.points, axis=0)
        assert np.all(np.abs(m) <= 4.0 / np.sqrt(n))

    def test_deterministic(self):
        spec = {"kind": "gaussian", "mean": [0.0], "cov": 2.0}
        a = sample_initial(spec, 100, 7)
        b = sample_initial(spec, 100, 7)
        assert np.array_equal(a.points, b.points)
        c = sample_initial(spec, 100, 8)
        assert not np.array_equal(a.points, c.points)

    def test_csv(self, tmp_path):
        mu = EmpiricalMeasure(np.arange(6.0).reshape(3, 2))
        path = tmp_path / "init.csv"
        save_csv(mu, path)
        back = sample_initial({"kind": "csv", "path": str(path)}, 3, 0)
        assert np.array_equal(back.points, mu.points)
        with pytest.raises(ValueError):
            sample_initial({"kind": "csv", "path": str(path)}, 5, 0)

    def test_non_psd_covariance(self):
        cov = np.array([[1.0, 2.0], [2.0, 1.0]])
        with pytest.raises(ValueError, match="positive semidefinite"):
            sample_initial({"kind": "gaussian", "mean": np.zeros(2), "cov": cov}, 5, 0)

    def test_singular_psd_covariance_ok(self):
        cov = np.array([[1.0, 1.0], [1.0, 1.0]])
        mu = sample_initial({"kind": "gaussian", "mean": np.zeros(2), "cov": cov}, 50, 3)
        spread = mu.points[:, 0] - mu.points[:, 1]
        assert np.max(np.abs(spread)) < 1e-12


class TestNoise:
    def test_step_normals_deterministic(self):
        a0, ab = step_normals(9, 2, 5, 10, 1, 1)
        b0, bb = step_normals(9, 2, 5, 10, 1, 1)
        assert np.array_equal(a0, b0) and np.array_equal(ab, bb)

    def test_distinct_keys_differ(self):
        base = step_normals(9, 2, 5, 10, 1, 1)[1]
        assert not np.array_equal(base, step_normals(9, 3, 5, 10, 1, 1)[1])
        assert not np.array_equal(base, step_normals(9, 2, 6, 10, 1, 1)[1])
        assert not np.array_equal(base, step_normals(10, 2, 5, 10, 1, 1)[1])

    def test_common_block_independent_of_particle_count(self):
        z250 = step_normals(11, 0, 3, 250, 1, 1)[0]
        z4000 = step_normals(11, 0, 3, 4000, 1, 1)[0]
        assert np.array_equal(z250, z4000)

    def test_gen_noise_matches_step_normals(self):
        dw0, db = _gen_noise(21, 4, 7, 5, 13, 1, 1)
        for j in range(5):
            z0, zb = step_normals(21, 4, 7 + j, 13, 1, 1)
            assert np.array_equal(dw0[j], z0)
            assert np.array_equal(db[j], zb)


@pytest.fixture
def draw_log(monkeypatch, tmp_path):
    """Installs a logger of every _gen_noise call, in any process.

    draw_log(stall) returns a function that reads the log so far as
    (by_caller, path, step_offset, n_steps) rows.  With stall, a process
    other than the caller sleeps that many seconds before each draw.
    """
    caller, gen_noise = os.getpid(), simulator._gen_noise
    log = tmp_path / "draws"
    fd = os.open(log, os.O_WRONLY | os.O_CREAT | os.O_APPEND)

    def install(stall=0.0):
        def traced(*args, **kwargs):
            if os.getpid() != caller:
                time.sleep(stall)
            os.write(fd, f"{os.getpid()} {args[1]} {args[2]} {args[3]}\n".encode())
            return gen_noise(*args, **kwargs)

        monkeypatch.setattr(simulator, "_gen_noise", traced)
        return read

    def read():
        with open(log) as fh:
            rows = [list(map(int, line.split())) for line in fh]
        return [(pid == caller, p, k0, c) for pid, p, k0, c in rows]

    yield install
    os.close(fd)


class TestNoiseProducer:
    """The streamed engine's double-buffered noise, drawn inline and overlapped."""

    SEED, N, DT = 5, 6, 0.01

    def stream(self, batches, n_steps, log):
        """Steps through _noise_chunks as stream_scenarios does, checking each
        chunk against fresh step normals and each draw the caller makes
        while it waits for a chunk (read from log) against that chunk.
        Returns (start, k0, c) per chunk and the caller's draws per chunk."""
        chunks, own = [], []
        with closing(simulator._noise_chunks(self.SEED, batches, self.N, n_steps)) as noise:
            for paths in batches:
                k0 = 0
                while k0 < n_steps:
                    seen = len(log())
                    dw0, db = next(noise)
                    c = dw0.shape[0]
                    assert db.shape == (c, len(paths), self.N, 1)
                    for j, p in enumerate(paths):
                        for i in range(c):
                            z0, zb = step_normals(self.SEED, p, k0 + i, self.N, 1, 1)
                            assert np.array_equal(dw0[i, j], z0)
                            assert np.array_equal(db[i, j], zb)
                    own.append([(p, k, n) for here, p, k, n in log()[seen:] if here])
                    assert all(p in paths and (k, n) == (k0, c) for p, k, n in own[-1])
                    chunks.append((paths.start, k0, c))
                    k0 += c
            assert next(noise, None) is None
        return chunks, own

    @pytest.mark.parametrize("route", ["inline", "overlapped", "other thread"])
    def test_chunks_match_step_normals(self, route, monkeypatch, draw_log):
        # each buffer holds 3 steps of a batch of 2 paths; the ragged last
        # batch of 1 path takes chunks of 6 steps, longer than the first's
        pids = forked_pids(monkeypatch)
        if route == "inline":
            inline_noise(monkeypatch)
        overlapped = route == "overlapped"
        release = threading.Event()
        other = threading.Thread(target=release.wait, args=(60,), daemon=True)
        if route == "other thread":
            other.start()
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", self.N)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 3 * 2 * self.N)
        log = draw_log()
        batches = [range(0, 2), range(2, 4), range(4, 5)]
        chunks, _ = self.stream(batches, 10, log)
        release.set()
        if route == "other thread":
            other.join(60)
            assert not other.is_alive()
        assert chunks == [(0, 0, 3), (0, 3, 3), (0, 6, 3), (0, 9, 1),
                          (2, 0, 3), (2, 3, 3), (2, 6, 3), (2, 9, 1), (4, 0, 6), (4, 6, 4)]
        # the overlapped route forks one drawing process, reaped by the time
        # the stream closes; with another thread running, the interpreter
        # does not fork.  Across both processes, every path of every chunk
        # is drawn exactly once, and the caller draws only paths of the
        # chunk it is waiting for (checked in stream)
        assert len(pids) == overlapped and all(reaped(pid) for pid in pids)
        expected = sorted((p, k0, c) for start, k0, c in chunks
                          for p in next(b for b in batches if b.start == start))
        assert sorted((p, k0, c) for _, p, k0, c in log()) == expected
        if not overlapped:
            assert all(here for here, *_ in log())

    def test_stalled_drawing_process(self, monkeypatch, draw_log):
        # the drawing process sleeps before each draw: the caller draws the
        # chunks itself, only waiting for the one task the drawing process
        # has in flight, and gets the same bits
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 4 * self.N)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 5 * 4 * self.N)
        pids = forked_pids(monkeypatch)
        log = draw_log(stall=0.5)
        batches = [range(0, 4), range(4, 8)]
        chunks, own = self.stream(batches, 10, log)
        assert chunks == [(0, 0, 5), (0, 5, 5), (4, 0, 5), (4, 5, 5)]
        assert len(pids) == 1 and reaped(pids[0])
        assert sorted((p, k0) for _, p, k0, _ in log()) == sorted(
            (p, k0) for b in batches for p in b for k0 in (0, 5))
        # the drawing process takes at most the one task it stalls on per chunk
        assert all(len(drawn) >= 3 for drawn in own)

    @settings(derandomize=True, max_examples=30, deadline=10000)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4),
           n=st.integers(1, 7), n_steps=st.integers(1, 12), chunk=st.integers(1, 200))
    def test_any_split_matches_inline_draws(self, sizes, n, n_steps, chunk):
        # any batches, cloud size, step count and chunk budget: the chunks
        # equal the inline draws bit for bit, and the drawing process is reaped
        cuts = np.cumsum([0] + sizes).tolist()
        batches = [range(a, b) for a, b in zip(cuts, cuts[1:])]
        pids, fork = [], os.fork

        def recording():
            pid = fork()
            if pid:
                pids.append(pid)
            return pid

        with mock.patch.object(simulator, "_CHUNK_DOUBLES", chunk), \
                mock.patch.object(simulator, "_BATCH_DOUBLES", 1), \
                mock.patch.object(os, "fork", recording), \
                closing(simulator._noise_chunks(9, batches, n, n_steps)) as noise:
            for paths in batches:
                k0 = 0
                while k0 < n_steps:
                    dw0, db = next(noise)
                    c = dw0.shape[0]
                    for j, p in enumerate(paths):
                        want = _gen_noise(9, p, k0, c, n, 1, 1)
                        assert np.array_equal(dw0[:, j], want[0])
                        assert np.array_equal(db[:, j], want[1])
                    k0 += c
            assert next(noise, None) is None
        assert all(reaped(pid) for pid in pids)

    def test_chunk_rule(self):
        # a chunk holds the steps of at least a full batch of normals: 16 at
        # lq3's batch of 8 scenarios of 250 particles (2^18 // 2000 = 131 if
        # sized by the batch itself), and one step of a scenario that alone
        # outgrows a buffer
        assert simulator._chunk_steps(8, 250, 1000) == 16
        assert simulator._chunk_steps(8, 2000, 1000) == 16
        assert simulator._chunk_steps(1, 10**6, 1000) == 1
        assert simulator._chunk_steps(1, 10, 5) == 5

    def test_small_stream_draws_inline_across_chunks(self, monkeypatch, draw_log):
        # one scenario of 10 particles over 1000 steps: 63 chunks of 16
        # steps, whose 10^4 normals fit one buffer, so no process is forked
        pids = forked_pids(monkeypatch)
        log = draw_log()
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 10, 0)
        list(stream_scenarios(lq_model(d=1), zero_control(d=1), 0.0, mu0, 1.0, 1e-3, 4, 1))
        assert pids == []
        assert log() == [(True, 0, k0, min(16, 1000 - k0)) for k0 in range(0, 1000, 16)]

    def test_single_chunk_is_drawn_inline(self, monkeypatch):
        pids = forked_pids(monkeypatch)
        with closing(simulator._noise_chunks(self.SEED, [range(0, 2)], self.N, 3)) as noise:
            assert next(noise)[1].shape == (3, 2, self.N, 1)
            assert next(noise, None) is None
        assert pids == []

    def test_bad_seed_same_error_on_both_routes(self, monkeypatch):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 4, 0)
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 3 * 4)
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 3 * 4)
        pids = forked_pids(monkeypatch)
        errors = []
        for overlapped in (True, False):
            if not overlapped:
                inline_noise(monkeypatch)
            with pytest.raises(OverflowError) as info:
                list(stream_scenarios(model, control, 0.0, mu0, 1.0, 0.01, -1, 3))
            errors.append((type(info.value), str(info.value)))
        assert errors[0] == errors[1]
        assert len(pids) == 1 and reaped(pids[0])


class TestSimulate:
    def test_frozen_dynamics(self):
        # the zero model at d = 2 steps on the affine loop
        mu0 = sample_initial({"kind": "gaussian", "mean": [0.5, -0.5], "cov": 1.0}, 30, 5)
        traj = simulate_path(lq_model(), zero_control(2), 0.0, mu0, 1.0, 0.05, 5, 0)
        for k in range(traj.n_steps + 1):
            assert np.array_equal(traj.states[k], mu0.points)

    def test_bitwise_determinism(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 64, 3)
        a = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 3, 2)
        b = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 3, 2)
        assert np.array_equal(a.states, b.states)
        assert np.array_equal(a.means, b.means)
        assert np.array_equal(a.dw0, b.dw0)
        c = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 3, 3)
        assert not np.array_equal(a.states, c.states)

    def test_d3_matches_per_step_feedback(self):
        # reference: the optimal feedback solved afresh at every node time
        dyn, cost = random_lq(82, d=3, m=2, with_m2=True)
        sol = solve_riccati(dyn, cost, 1.0, 0.02)
        qv = QuadraticValue(sol, dyn, cost)
        control = FeedbackControl(FeedbackPolicy(qv))
        n, dt = 40, 0.02
        mu0 = sample_initial({"kind": "gaussian", "mean": np.ones(3), "cov": 0.5}, n, 4)
        traj = simulate_path(lq_dynamics_spec(dyn, cost, 1.0), control, 0.0, mu0, 1.0, dt, 4, 0)
        db = _gen_noise(4, 0, 0, traj.n_steps, n, 1, 1)[1] * np.sqrt(dt)
        x = mu0.points.copy()
        for k in range(traj.n_steps):
            mbar = tree_mean(x, axis=0)
            fb = optimal_feedback(qv, float(traj.times[k]))
            a = (x - mbar) @ fb.K1.T + mbar @ fb.K2.T + fb.k
            b = dyn.b0 + x @ dyn.B.T + mbar @ dyn.Bbar.T + a @ dyn.C.T
            s = dyn.theta + x @ dyn.D.T + mbar @ dyn.Dbar.T + a @ dyn.F.T
            s0 = dyn.theta0 + x @ dyn.D0.T + mbar @ dyn.D0bar.T + a @ dyn.F0.T
            x = x + b * dt + s * db[k] + s0 * traj.dw0[k]
            np.testing.assert_allclose(traj.states[k + 1], x, rtol=1e-12, atol=1e-12)

    def test_grid_validation(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 0.0}, 4, 0)
        with pytest.raises(ValueError):
            simulate_path(model, control, 0.0, mu0, 1.0, 0.3, 0, 0)
        with pytest.raises(ValueError):
            simulate_path(model, control, 0.0, mu0, 1.0, -0.1, 0, 0)

    def test_blowup_fast_path(self):
        dyn = LqDynamics(b0=0.0, B=40.0, Bbar=0.0, C=0.0, theta=0.0, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=1.0, Q2bar=0.0, R2=1.0, P2=1.0, P2bar=0.0)
        model = lq_dynamics_spec(dyn, cost, 1.0)
        mu0 = sample_initial({"kind": "point", "x0": 10.0}, 8, 0)
        control = zero_control()
        # 10 * 1.4^76 is the first state past 1e12; every particle and path is alike
        where = r"t=0\.76, path {}, step 76, particle 0: value 1275647586028\.\d+ exceeded"
        with pytest.raises(NumericalBlowup, match=where.format(2)):
            simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 0, 2)
        # the streamed engine names the lowest path of the failing batch
        with pytest.raises(NumericalBlowup, match=where.format(0)):
            list(stream_scenarios(model, control, 0.0, mu0, 1.0, 0.01, 0, 3))

    def test_blowup_names_lowest_path_then_particle(self):
        x = np.zeros((4, 5, 2))
        x[3, 0, 0] = np.nan
        x[1, 2, 1] = -2e12
        x[1, 4, 0] = np.inf
        err = _blowup(0.25, range(6, 10), 9, x)
        assert str(err) == ("numerical blowup at t=0.25, path 7, step 9, particle 2: "
                            "value -2000000000000.0 exceeded 1e12 or is NaN")

    def test_blowup_generic_path(self):
        mu0 = sample_initial({"kind": "point", "x0": [10.0, -10.0]}, 8, 0)
        with pytest.raises(NumericalBlowup):
            simulate_path(lq_model(B=40.0), zero_control(2), 0.0, mu0, 1.0, 0.01, 0, 0)

    def test_nonfinite_coefficients_detected(self):
        # the drift overflows to inf at the first step; the state check catches it
        mu0 = sample_initial({"kind": "point", "x0": [10.0, -10.0]}, 4, 0)
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalBlowup, match="t=0.5"):
                simulate_path(lq_model(B=1e308), zero_control(2), 0.0, mu0, 1.0, 0.5, 0, 0)


def hand_node(batch, k):
    """Clouds (P, 3, 1), their means and common increments of a hand-driven batch at node k."""
    x = 100.0 * k + 10.0 * np.array(batch, float)[:, None, None] + np.arange(3.0)[:, None]
    return x, x.mean(axis=1), np.array(batch, float)[:, None] + k / 8


class TestRecorder:
    def drive(self, hook, batch, nodes):
        """Feeds hook the batch's nodes of a run of 4 steps; node 4 has no increment."""
        for k in nodes:
            x, mean, dw0 = hand_node(batch, k)
            hook(batch, k, x, mean, None if k == 4 else dw0)

    def test_hook_records_the_owed_paths_of_each_batch(self):
        # 3 paths owed at stride 2, a run of 4 steps from node 1 of the grid
        # from 0.5 with dt 0.25: batch 0-1 is recorded whole, batch 2-3 only
        # its path 2, each handed over at its last node; before it, nothing
        # is, which is all a blowup leaves
        recs = []
        hook = Recorder(3, 2, recs.append).hook(0.5, 0.25, 1, 4)
        self.drive(hook, range(0, 2), range(4))
        assert recs == []
        self.drive(hook, range(0, 2), [4])
        self.drive(hook, range(2, 4), range(5))
        assert [rec.paths for rec in recs] == [range(0, 2), range(2, 3)]
        for rec in recs:
            kept = len(rec.paths)
            assert np.array_equal(rec.nodes, [0, 2, 4])
            assert np.array_equal(rec.times, [0.75, 1.25, 1.75])
            for i, k in enumerate(rec.nodes):
                x, mean, _ = hand_node(rec.paths, k)
                assert np.array_equal(rec.states[i], x) and np.array_equal(rec.means[i], mean)
            assert rec.dw0.shape == (4, kept, 1)
            for k in range(4):
                assert np.array_equal(rec.dw0[k], hand_node(rec.paths, k)[2])

    def test_record_and_on_node_are_exclusive(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 4, 0)
        stream = stream_scenarios(model, control, 0.0, mu0, 1.0, 0.01, 0, 2,
                                  record=Recorder(1, 1, print), on_node=lambda *node: None)
        with pytest.raises(ValueError, match="record or on_node"):
            next(stream)


class TestBlowupScreen:
    """Each new state's moments screen it; a tripped screen tests every particle.

    Only a planted idiosyncratic increment moves the particles of this
    model: every coefficient is zero but theta = 1, so x' = x + db.
    """

    @staticmethod
    def model(d):
        z, zv, zc = np.zeros((d, d)), np.zeros(d), np.zeros((d, 1))
        dyn = LqDynamics(b0=zv, B=z, Bbar=z, C=zc, theta=np.ones(d), D=z, Dbar=z, F=zc,
                         theta0=zv, D0=z, D0bar=z, F0=zc)
        return lq_dynamics_spec(dyn, LqCost(Q2=z, Q2bar=z, R2=1.0, P2=z, P2bar=z), 1.0)

    @staticmethod
    def plant(monkeypatch, paths, step, particles, value):
        # the step scales the planted normal by sqrt(dt) at dt = 0.02, back to value exactly
        root = float(np.sqrt(0.02))
        normal = value / root
        assert not np.isfinite(value) or normal * root == value

        def gen(seed, path_index, step_offset, n_steps, n_particles, n_idio, m0, *, out):
            dw0, db = out
            dw0[...] = 0.0
            db[...] = 0.0
            if path_index in paths and step_offset <= step < step_offset + n_steps:
                db[step - step_offset, particles] = normal
            return out

        monkeypatch.setattr(simulator, "_gen_noise", gen)

    @pytest.mark.parametrize("d", [1, 3])
    @pytest.mark.parametrize("value, step", [(np.nan, 0), (np.inf, 36), (2e12, 49)])
    def test_planted_value_is_named(self, d, value, step, monkeypatch):
        # step 49 is the last: its state is the end state
        self.plant(monkeypatch, {5}, step, 4, value)
        mu0 = sample_initial({"kind": "point", "x0": np.zeros(d)}, 8, 0)
        with np.errstate(invalid="ignore", over="ignore"):
            with pytest.raises(NumericalBlowup) as err:
                list(stream_scenarios(self.model(d), zero_control(d), 0.0, mu0, 1.0, 0.02, 0, 8))
        assert str(err.value) == (
            f"numerical blowup at t={0.02 * (step + 1):.6g}, path 5, step {step + 1}, "
            f"particle 4: value {value!r} exceeded 1e12 or is NaN")

    @pytest.mark.parametrize("d", [1, 3])
    def test_sum_of_squares_past_screen_steps_on(self, d, monkeypatch):
        # every coordinate at 1e12 from step 10 on: the sum of squares, 8 d 1e24,
        # trips the screen at every later step, and no particle exceeds 1e12
        self.plant(monkeypatch, range(8), 10, slice(None), 1e12)
        mu0 = sample_initial({"kind": "point", "x0": np.zeros(d)}, 8, 0)
        for paths, running, ends in stream_scenarios(self.model(d), zero_control(d), 0.0, mu0,
                                                     1.0, 0.02, 0, 8):
            assert np.all(ends == 1e12)


class TestFlowProperty:
    def test_restart_from_origin(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 32, 17)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 17, 0)
        cont = restart_continuation(traj, 0.0)
        assert np.array_equal(cont.states, traj.states)
        assert np.array_equal(cont.means, traj.means)

    def test_restart_from_terminal(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 32, 17)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 17, 1)
        cont = restart_continuation(traj, 1.0)
        assert cont.n_steps == 0
        assert np.array_equal(cont.states[0], traj.states[-1])

    def test_restart_midpoints_bitwise(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "gaussian", "mean": [1.0], "cov": 0.3}, 40, 23)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 23, 4)
        rng = np.random.default_rng(0)
        for j in rng.integers(1, traj.n_steps, size=5):
            cont = restart_continuation(traj, float(traj.times[j]))
            assert np.array_equal(cont.states, traj.states[j:])
            assert np.array_equal(cont.dw0, traj.dw0[j:])

    def test_restart_generic_path_bitwise(self):
        dyn, cost = random_lq(80, d=2, m=1)
        model = lq_dynamics_spec(dyn, cost, 1.0)
        sol = solve_riccati(dyn, cost, 1.0, 0.02)
        control = FeedbackControl(FeedbackPolicy(QuadraticValue(sol, dyn, cost)))
        mu0 = sample_initial({"kind": "gaussian", "mean": np.zeros(2), "cov": 0.5}, 25, 3)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.02, 3, 0)
        cont = restart_continuation(traj, float(traj.times[20]))
        assert np.array_equal(cont.states, traj.states[20:])

    def test_restart_off_grid_rejected(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 8, 0)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 0, 0)
        with pytest.raises(ValueError):
            restart_continuation(traj, 0.505)


class TestConditionalMean:
    def test_mean_recursion_closure(self):
        # empirical-mean increment = mean drift * dt + mean idio + mean common
        p, dyn, cost, sol, qv, model, control = interbank_setup(h=2e-3)
        mu0 = sample_initial({"kind": "point", "x0": p.x0}, 200, 31)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 2e-3, 31, 0)
        db = _gen_noise(31, 0, 0, traj.n_steps, 200, 1, 1)[1] * np.sqrt(traj.dt)
        for k in range(0, traj.n_steps, 97):
            x = traj.states[k][:, 0]
            m = traj.means[k, 0]
            a = control_values_on_grid(control, traj, k)[:, 0]
            b = dyn.b0[0] + dyn.B[0, 0] * x + dyn.Bbar[0, 0] * m + dyn.C[0, 0] * a
            sig = dyn.theta[0] + dyn.D[0, 0] * x
            sig0 = dyn.theta0[0] + dyn.D0[0, 0] * x
            pred = (m + float(tree_mean(b)) * traj.dt
                    + float(tree_mean(sig * db[k][:, 0]))
                    + float(tree_mean(sig0)) * traj.dw0[k, 0])
            assert traj.means[k + 1, 0] == pytest.approx(pred, abs=1e-13)

    def test_sigma1_zero_tracks_common_noise(self):
        p, _, _, _, _, model, control = interbank_setup(sigma1=0.0, h=1e-3)
        n = 4000
        mu0 = sample_initial({"kind": "point", "x0": p.x0}, n, 40)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 1e-3, 40, 0)
        w0 = np.concatenate(([0.0], np.cumsum(traj.dw0[:, 0])))
        target = p.x0 + p.sigma0 * p.rho * w0
        gap = np.abs(traj.means[:, 0] - target)
        idio_scale = p.sigma0 * np.sqrt(1 - p.rho ** 2)
        assert np.max(gap) <= 6.0 * idio_scale * np.sqrt(traj.times[-1] / n)

    def test_sigma1_zero_full_common_noise_exact(self):
        # rho = 1 removes the idiosyncratic channel entirely
        p, _, _, _, _, model, control = interbank_setup(sigma1=0.0, rho=1.0, h=1e-3)
        mu0 = sample_initial({"kind": "point", "x0": p.x0}, 128, 41)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 1e-3, 41, 0)
        target = p.x0 + p.sigma0 * np.concatenate(([0.0], np.cumsum(traj.dw0[:, 0])))
        assert np.max(np.abs(traj.means[:, 0] - target)) <= 1e-11

    def test_general_sigma1_scalar_sde_oracle(self):
        # side-by-side Euler recursion for the conditional mean
        p, _, _, sol, _, model, control = interbank_setup(sigma1=0.4, h=1e-3)
        n = 4000
        mu0 = sample_initial({"kind": "point", "x0": p.x0}, n, 42)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 1e-3, 42, 0)
        mhat = np.empty(traj.n_steps + 1)
        mhat[0] = p.x0
        for k in range(traj.n_steps):
            Gam = sol.eval(float(traj.times[k]))[1][0, 0]
            gam = sol.eval(float(traj.times[k]))[2][0]
            mhat[k + 1] = (mhat[k] - (2.0 * Gam * mhat[k] + gam) * traj.dt
                           + (p.sigma1 * mhat[k] + p.sigma0) * p.rho * traj.dw0[k, 0])
        gap = np.max(np.abs(traj.means[:, 0] - mhat))
        sig_bound = (abs(p.sigma1) * np.max(np.abs(traj.states)) + p.sigma0) \
            * np.sqrt(1 - p.rho ** 2)
        assert gap <= 6.0 * sig_bound * np.sqrt(traj.times[-1] / n)


class TestPathwiseCost:
    def test_zero_cost(self):
        mu0 = sample_initial({"kind": "point", "x0": [0.3, 0.3]}, 16, 1)
        traj = simulate_path(lq_model(), zero_control(2), 0.0, mu0, 1.0, 0.125, 1, 0)
        assert pathwise_cost(traj, traj.model, traj.control) == 0.0

    def test_unit_running_cost_integrates_exactly(self):
        # R2 = 1 under the constant control 1: running cost 1 at every particle
        model = lq_model(R2=1.0)
        control = ConstantControl(np.zeros((1, 2)), np.zeros((1, 2)), np.array([1.0]))
        mu0 = sample_initial({"kind": "point", "x0": [0.0, 0.0]}, 8, 1)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 2.0 ** -6, 1, 0)
        assert pathwise_cost(traj, model, control) == 1.0

    def test_transformed_equals_original_integrand(self):
        # square-completion identity holds stepwise along simulated paths
        p, dyn, cost, sol, qv, model, control = interbank_setup(h=1e-3, q=0.5)
        mu0 = sample_initial({"kind": "point", "x0": p.x0}, 100, 55)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 1e-3, 55, 0)

        for k in range(0, traj.n_steps, 211):
            x = traj.states[k][:, 0]
            m = traj.means[k, 0]
            a_t = control_values_on_grid(control, traj, k)[:, 0]
            alpha = a_t - p.q * (x - m)  # original borrowing/lending control
            orig = (0.5 * alpha ** 2 - p.q * alpha * (m - x)
                    + 0.5 * p.eta * (m - x) ** 2)
            transformed = 0.5 * a_t ** 2 + 0.5 * (p.eta - p.q ** 2) * (m - x) ** 2
            assert np.max(np.abs(orig - transformed)) <= 1e-12 * max(
                1.0, float(np.max(np.abs(orig))))

    def test_lq_cost_matches_generic_callables(self):
        _, dyn, cost, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 40, 2)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 2, 0)
        fast = pathwise_cost(traj, model, control)

        # reference: a step loop through per-particle cost callables
        def f(x, mbar, a):
            return (cost.Q2[0, 0] * x ** 2 + cost.Q2bar[0, 0] * mbar ** 2
                    + cost.R2[0, 0] * a ** 2 + 2.0 * cost.M2[0, 0] * x * a)

        def g(x, mbar):
            return cost.P2[0, 0] * x ** 2 + cost.P2bar[0, 0] * mbar ** 2

        ref = 0.0
        for k in range(traj.n_steps):
            a = control_values_on_grid(control, traj, k)[:, 0]
            ref += float(tree_mean(f(traj.states[k, :, 0], traj.means[k, 0], a))) * traj.dt
        ref += float(tree_mean(g(traj.states[-1, :, 0], traj.means[-1, 0])))
        assert fast == pytest.approx(ref, rel=1e-12, abs=1e-13)

    def test_partial_cost_end_step(self):
        _, _, _, _, _, model, control = interbank_setup(h=0.01)
        mu0 = sample_initial({"kind": "point", "x0": 1.0}, 16, 6)
        traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, 6, 0)
        full_running = pathwise_cost(traj, model, control, include_terminal=False)
        half = pathwise_cost(traj, model, control, end_step=50, include_terminal=False)
        rest = sum(
            float(tree_mean(running_cost(model.cost, traj.states[k], traj.means[k],
                                         control_values_on_grid(control, traj, k)))) * traj.dt
            for k in range(50, traj.n_steps))
        assert half + rest == pytest.approx(full_running, rel=1e-11)


class TestMomentStability:
    def test_gronwall_style_bound(self):
        for seed in (90, 91):
            dyn, cost = random_lq(seed, d=2, m=1)
            model = lq_dynamics_spec(dyn, cost, 1.0)
            sol = solve_riccati(dyn, cost, 1.0, 0.01)
            control = FeedbackControl(FeedbackPolicy(QuadraticValue(sol, dyn, cost)))
            mu0 = sample_initial({"kind": "gaussian", "mean": np.zeros(2), "cov": 1.0},
                                 300, seed)
            traj = simulate_path(model, control, 0.0, mu0, 1.0, 0.01, seed, 0)
            K1, _, _ = control.grid_gains(0.0, 0.01, traj.n_steps)
            lin = sum(np.linalg.norm(getattr(dyn, n), 2) for n in
                      ("B", "Bbar", "C", "D", "Dbar", "F", "D0", "D0bar", "F0"))
            lin += float(np.max([np.linalg.norm(k, 2) for k in K1]))
            aff = sum(np.linalg.norm(getattr(dyn, n)) for n in ("b0", "theta", "theta0"))
            C_bound = 20.0 * np.exp((3.0 + 4.0 * lin + 2.0 * lin ** 2) * 1.0) \
                * (1.0 + aff ** 2)
            start = 1.0 + l2_norm(mu0) ** 2
            for k in range(traj.n_steps + 1):
                assert l2_norm(traj.cloud(k)) ** 2 <= C_bound * start


class TestControls:
    def test_shifted_control(self):
        _, _, _, _, qv, model, control = interbank_setup(h=0.01)
        shifted = ShiftedControl(control, 0.25)
        x = np.array([[0.5], [1.5]])
        m = np.array([1.0])
        K1, K2, kk = shifted.grid_gains(0.0, 0.01, 100)
        K1b, K2b, kkb = control.grid_gains(0.0, 0.01, 100)
        assert np.array_equal(K1, K1b) and np.array_equal(K2, K2b)
        assert np.array_equal(kk, kkb + 0.25)
        base = affine_feedback(K1b[30], K2b[30], kkb[30], x, m)
        assert np.allclose(affine_feedback(K1[30], K2[30], kk[30], x, m), base + 0.25,
                           rtol=0, atol=1e-14)

    def test_affine_control_grid_form_matches_values(self):
        amap = AffineMap(np.array([[0.7]]), np.array([0.2]))
        ctrl = ConstantControl(amap.A, amap.A, amap.b)
        K1, K2, kk = ctrl.grid_gains(0.0, 0.1, 3)
        x = np.array([[0.5], [-1.0]])
        m = np.array([0.4])
        direct = amap(x)
        via_gains = affine_feedback(K1[0], K2[0], kk[0], x, m)
        assert np.allclose(direct, via_gains, atol=1e-15)
