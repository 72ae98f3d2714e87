"""Interacting-particle approximation of controlled conditional
McKean-Vlasov dynamics.

One scenario is a cloud of N particles driven by per-particle idiosyncratic
Brownian increments plus one common-noise path shared by the whole cloud.
The conditional law entering the coefficients and the control at step k is
the empirical cloud at step k (explicit Euler coupling), so a step is a
deterministic function of the previous state and the stored increments and
any suffix can be replayed bitwise.

Randomness is counter-based: the normal draws of (path, step) come from a
Philox generator keyed by (seed, path_index) with the step index in the
counter block, so paths are independent streams and a step's noise can be
regenerated without replaying the stream.

Every control is an affine feedback a = K1(t)(x - mbar) + K2(t) mbar + k(t)
given by its gains on the step grid.  One Euler loop steps P scenarios of
any (d, m) held as coordinate rows: a batch's coordinates, each a row of
its particles, sit at one end of a buffer and their products x_i x_j in
the middle.  Given its mean and common increment, a scenario's particles
take one affine step to the other end, and one contiguous tree_sum gives
each scenario's mean and second moment, which give its running cost
(lqmodel.lifted_cost) and screen the new state for blowup.  Hooks and
blowups see (P, N, d) views of the rows.

One function, stream_scenarios, steps them in batches, keeps only a
batch's current state and adds the running cost inside the step; a run
from a stored node replays the rest of a trajectory bit for bit.  Its
per-node hook feeds the flow check's digests and the Recorder.

The noise comes from a double-buffered producer (_noise_chunks): while
the caller steps one chunk, a forked process draws the next, and the
caller draws what is pending of a chunk it asks for, so neither idles.
A chunk's draws depend only on (seed, path, step), so who draws them,
and when, changes no bit.
"""

from __future__ import annotations

import math
import mmap
import os
import pickle
import select
import signal
import threading
from contextlib import closing
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from numpy.random import Generator, Philox

from .errors import NumericalBlowup
from .lqmodel import (
    BLOWUP_LIMIT,
    GRID_TOL,
    LqCost,
    LqDynamics,
    LqModel,
    lifted_cost,
    matprod,
    step_loadings,
    whole_steps,
)
from .measure import EmpiricalMeasure, load_csv, moments, row_moments

_INIT_PATH_TAG = 2**64 - 1


# ---------------------------------------------------------------------------
# counter-based noise

def _philox(seed, path_index, step):
    key = np.array([np.uint64(seed), np.uint64(path_index)], dtype=np.uint64)
    return Generator(Philox(key=key, counter=int(step) << 128))


def _gen_noise(seed, path_index, step_offset, n_steps, n_particles, n_idio, m0, *, out=None):
    """Unit normals of steps offset..offset+K-1, which the step loop scales by its grid's sqrt(dt).

    Re-keys a single Philox per step by resetting its counter block, which
    draws exactly what a fresh generator keyed at that step would.  Each
    step's common block is drawn before its idiosyncratic block.  The
    normals are drawn straight into the output blocks, dw0 (K, m0) and db
    (K, n_particles, n_idio); `out` gives them as the caller's views (each
    step's block contiguous), else they are allocated.  Returns (dw0, db).
    """
    key = np.array([np.uint64(seed), np.uint64(path_index)], dtype=np.uint64)
    bg = Philox(key=key)
    gen = Generator(bg)
    if out is None:
        out = np.empty((n_steps, m0)), np.empty((n_steps, n_particles, n_idio))
    dw0, db = out
    st = bg.state
    st["buffer_pos"] = 4
    st["has_uint32"] = 0
    st["uinteger"] = 0
    for j in range(n_steps):
        st["state"]["counter"] = np.array([0, 0, step_offset + j, 0], dtype=np.uint64)
        bg.state = st
        gen.standard_normal(out=dw0[j])
        gen.standard_normal(out=db[j])
    return dw0, db


# ---------------------------------------------------------------------------
# model and control specifications

def lq_dynamics_spec(dyn: LqDynamics, cost: LqCost, T) -> LqModel:
    """The LQ model on [0, T] (one idiosyncratic, one common noise)."""
    return LqModel(dyn, cost, float(T))


class ConstantControl:
    """Time-constant affine feedback a(x, mubar) = K1 (x - mubar) + K2 mubar + k.

    `zero` is the gains (0, 0, 0) and `const:v` is (0, 0, v).
    """

    def __init__(self, K1, K2, k):
        self.gains = K1, K2, k

    def grid_gains(self, t0, dt, n_steps, offset=0):
        return tuple(np.broadcast_to(a, (n_steps,) + np.shape(a)) for a in self.gains)


class FeedbackControl:
    """Time-varying affine feedback a(t, x, mubar) from a feedback policy."""

    def __init__(self, policy):
        self.policy = policy

    def grid_gains(self, t0, dt, n_steps, offset=0):
        return self.policy.grid_gains(t0, dt, n_steps, offset)


class ShiftedControl:
    """Wraps another control and adds a constant shift to its output."""

    def __init__(self, base, shift):
        self.base = base
        self.shift = np.atleast_1d(np.asarray(shift, dtype=np.float64))

    def grid_gains(self, t0, dt, n_steps, offset=0):
        K1, K2, kk = self.base.grid_gains(t0, dt, n_steps, offset)
        return K1, K2, kk + self.shift


# ---------------------------------------------------------------------------
# trajectories

@dataclass(frozen=True)
class ParticleTrajectory:
    """States of one scenario on a uniform grid, with its common-noise path.

    states[k+1] is the Euler-Maruyama image of states[k] under the stored
    common increments and the (regenerable) idiosyncratic increments, so the
    suffix from any node replays bitwise.
    """

    times: np.ndarray
    states: np.ndarray
    means: np.ndarray
    dw0: np.ndarray
    t0: float
    base_t0: float
    dt: float
    seed: int
    path_index: int
    step_offset: int
    model: LqModel
    control: object

    @property
    def n_steps(self):
        return self.states.shape[0] - 1

    def cloud(self, k) -> EmpiricalMeasure:
        return EmpiricalMeasure._wrap(self.states[k])

    def node_index(self, t):
        j = int(round((float(t) - self.t0) / self.dt)) if self.dt else 0
        if j < 0 or j > self.n_steps or abs(self.t0 + j * self.dt - float(t)) > GRID_TOL * max(1.0, self.dt):
            raise ValueError(f"t={t} is not a grid node of this trajectory")
        return j


def _control_grid(control, base_t0, dt, n_steps, offset, d, m):
    K1, K2, kk = control.grid_gains(base_t0, dt, n_steps, offset)
    K1 = np.asarray(K1, dtype=np.float64).reshape(n_steps, m, d)
    K2 = np.asarray(K2, dtype=np.float64).reshape(n_steps, m, d)
    kk = np.asarray(kk, dtype=np.float64).reshape(n_steps, m)
    return K1, K2, kk


# A sum of squares of at most 1e24 bounds every |x| by 1e12; the margin
# covers the rounding of the sum, and NaN fails the comparison
_SCREEN = BLOWUP_LIMIT ** 2 * (1.0 - 1e-9)


def _run_generic(model, bufs, mom, K1, K2, kk, dt, dw0, db, running=None, keep=None):
    """Affine Euler loop for any (d, m) over P scenarios held as coordinate rows.

    bufs is the batch's state (_batch_buffers), mom its moments; dw0
    (K, P, 1) and db (K, P, N, 1) are K steps' unit normals, each step
    scaled by sqrt(dt) (fl(z sqrt(dt)), what a grid of step dt draws).  A
    scenario's particles take x' = x A_p + c_p + (x S + s_p) db, A_p = I +
    (B + C K1)' dt + (D0 + F0 K1)' dw0_p, S = (D + F K1)', as the same
    products on the rows X (P, d, N), A_p' X, written to the buffer's other
    end.  keep(k, x, mean, dw0_k), if given, sees node k of the chunk as a
    (P, N, d) view with the scaled common increments; `running` (P,) adds
    dt times each node's lifted running cost.  A state whose N trace(second
    moment) passes _SCREEN has its particles tested one by one.  Returns
    (k, bufs, mom): the failing step, or -1, and that state.
    """
    dyn, (buf, c) = model.dyn, bufs
    d, n, R, sqrt_dt = dyn.d, buf.shape[-1], len(buf) - dyn.d, math.sqrt(dt)
    # x @ M on the particle layout is M' @ X on the rows; at d = 1 the same product
    prod = np.multiply if d == 1 else np.matmul
    # per step, the loadings of the state, L = [(B + C K1)', S, (D0 + F0 K1)'], of the mean, G,
    # and of 1, g0
    L, G, g0 = step_loadings(dyn, K1, K2, kk)
    Ab = np.eye(d) + L[:, :, :d] * dt
    S, L0 = L[:, :, d:2 * d], L[:, :, 2 * d:]
    diag = model.cost.triu_diag
    node_moments = []
    for k in range(dw0.shape[0]):
        w0 = dw0[k] * sqrt_dt
        if keep is not None:
            keep(k, _points((buf, c), d), mom[0], w0)
        node_moments.append(mom)
        g = np.swapaxes(matprod(mom[0][:, None, :], G[k]) + g0[k], 1, 2)
        # x' goes to the other end, and z, (x S + s_p) db, to the product rows
        x, y, z = (buf[a:a + d].transpose(1, 0, 2) for a in (c, R - c, d))
        prod(S[k].T, x, out=z)
        z += g[:, d:2 * d]
        # the scaled db waits in y's first row, which the step then overwrites
        np.multiply(db[k, :, :, 0], sqrt_dt, out=buf[R - c])
        z *= buf[R - c][:, None]
        prod(np.swapaxes(L0[k] * w0[:, :, None] + Ab[k], 1, 2), x, out=y)
        y += g[:, :d] * dt + g[:, 2 * d:] * w0[:, :, None]
        y += z
        c = R - c
        mom = row_moments(buf[d:] if c else buf[:R], d, last=c > 0)
        if (not np.all(n * np.sum(mom[1][:, diag], axis=1) <= _SCREEN)
                and not np.all(np.abs(y) <= BLOWUP_LIMIT)):
            return k, (buf, c), mom
    if running is not None:
        fhat = lifted_cost(model.cost, *map(np.stack, zip(*node_moments)),
                           (K1[:, None], K2[:, None], kk[:, None]))
        for f in fhat:
            running += f * dt
    return -1, (buf, c), mom


def _batch_buffers(x0, P):
    """State (rows, 0) of P copies of the cloud x0 (N, d), and its moments.

    rows (R + d, P, N), R = d + d(d+1)/2, allocated once per batch, hold a
    state's coordinates in rows c..c+d-1, c = 0 or R, and their products in
    rows d..R-1 (measure.row_moments); a step writes the next at the other end.
    """
    n, d = x0.shape
    buf = np.empty((2 * d + d * (d + 1) // 2, P, n))
    buf[:d] = x0.T[:, None]
    return (buf, 0), row_moments(buf[:-d], d)


def _points(state, d):
    """The (P, N, d) view of the clouds of a batch's state (rows, c) (_batch_buffers)."""
    return state[0][state[1]:state[1] + d].transpose(1, 2, 0)


def _blowup(t, paths, step, x):
    """NumericalBlowup at the first bad entry of x (P, N, d): lowest path, then particle."""
    p, i, j = np.argwhere(~(np.abs(x) <= BLOWUP_LIMIT))[0]
    return NumericalBlowup(
        f"t={float(t):.6g}, path {paths[p]}, step {step}, particle {i}",
        f"value {float(x[p, i, j])!r} exceeded 1e12 or is NaN")


def horizon(t0, T):
    """T - t0, checked not to be negative (within the grid tolerance)."""
    span = float(T) - float(t0)
    if span < -GRID_TOL:
        raise ValueError("T must be >= t0")
    return span


def step_count(model, t0, mu0, T, dt):
    """Number of steps dt from t0 to T, checked to be whole, for a cloud of the model's dimension."""
    if not 0 < dt < math.inf:
        raise ValueError("dt must be positive and finite")
    span = horizon(t0, T)
    n_steps = whole_steps(span, dt, 0, f"dt={dt} divides T - t0 = {span}",
                          f"dt={dt} must divide T - t0 = {span} into whole steps")
    if mu0.dim != model.d:
        raise ValueError("initial cloud dimension does not match the model")
    return n_steps


class Recording(NamedTuple):
    """What a Recorder kept of one batch's first scenarios, `paths`.

    nodes (0, stride, ...) count steps from the run's first node, and times
    are their times; states (nodes, P, N, d) and means (nodes, P, d) are the
    clouds there, and dw0 (K, P, 1) every step's scaled common increment.
    """

    paths: range
    nodes: np.ndarray
    times: np.ndarray
    states: np.ndarray
    means: np.ndarray
    dw0: np.ndarray


class Recorder(NamedTuple):
    """Keep nodes 0, stride, ... of the first n_paths scenarios; sink gets a Recording per batch."""

    n_paths: int
    stride: int
    sink: object

    def hook(self, t0, dt, step_offset, n_steps):
        """An on_node hook recording a run of n_steps from node step_offset of the grid from t0.

        A batch's node 0 allocates buffers for its first scenarios still owed;
        its last node (dw0 None) hands their Recording to sink: a blowup hands over none.
        """
        nodes = np.arange(0, n_steps + 1, self.stride)
        owed, kept, rec = self.n_paths, 0, None

        def on_node(paths, k, x, mean, dw0):
            nonlocal owed, kept, rec
            if k == 0:
                kept = min(len(paths), owed)
                owed -= kept
                rec = Recording(paths[:kept], nodes, t0 + dt * (step_offset + nodes),
                                np.empty((len(nodes), kept) + x.shape[1:]),
                                np.empty((len(nodes), kept) + mean.shape[1:]),
                                np.empty((n_steps, kept, 1))) if kept else None
            if kept:
                if k % self.stride == 0:
                    rec.states[k // self.stride] = x[:kept]
                    rec.means[k // self.stride] = mean[:kept]
                if dw0 is None:
                    self.sink(rec)
                else:
                    rec.dw0[k] = dw0[:kept]

        return on_node


def _simulate(model, control, base_t0, x0, n_steps, dt, seed, path_index, step_offset):
    """Scenario path_index from x0 at node step_offset of the grid from base_t0, every node kept."""
    kept = []
    drain(stream_scenarios(model, control, base_t0, EmpiricalMeasure._wrap(x0),
                           base_t0 + dt * (step_offset + n_steps), dt, seed,
                           range(path_index, path_index + 1), with_cost=False,
                           step_offset=step_offset, record=Recorder(1, 1, kept.append)))
    rec = kept[0]
    times, states, means, dw0 = rec.times, rec.states[:, 0], rec.means[:, 0], rec.dw0[:, 0]
    for arr in (times, states, means, dw0):
        arr.setflags(write=False)
    return ParticleTrajectory(times=times, states=states, means=means, dw0=dw0,
                              t0=float(times[0]), base_t0=float(base_t0),
                              dt=float(dt), seed=int(seed),
                              path_index=int(path_index), step_offset=int(step_offset),
                              model=model, control=control)


def simulate_path(model, control, t0, mu0: EmpiricalMeasure, T, dt, seed, path_index=0):
    """Simulate one scenario of the controlled particle system on [t0, T].

    dt must divide T - t0 into an integral number of steps.  All randomness
    is a function of (seed, path_index, particle, step); reruns with the
    same arguments are bitwise identical.
    """
    n_steps = step_count(model, t0, mu0, T, dt)
    return _simulate(model, control, float(t0), mu0.points.copy(), n_steps,
                     float(dt), seed, path_index, 0)


# Memory budget of stream_scenarios, in doubles.  The state of a batch of P
# scenarios (P * N * d values) stays within _BATCH_DOUBLES (125 kB, so P = 8
# at N = 2000, d = 1): its row buffers are allocated once per batch, and
# each step's temporaries stay below the 128 KiB from which glibc malloc
# maps fresh pages for every array, and in cache.
# The two noise-chunk buffers share _CHUNK_DOUBLES: a chunk holds the
# steps of at least a full batch's normals, _CHUNK_DOUBLES // 2 //
# max(P * N, _BATCH_DOUBLES) steps (16 at any batch within the budget), so
# a small batch's buffers shrink with it.  The nodes a Recorder keeps of
# one batch stay within 4 * _CHUNK_DOUBLES (16 MiB: every node and every
# common increment of one scenario at N = 2000 and K = 1000), unless one
# scenario's alone exceed it.
_BATCH_DOUBLES = 16000
_CHUNK_DOUBLES = 2**19


def _chunk_steps(P, n, n_steps):
    """Steps per noise chunk of a batch of P scenarios of n particles."""
    return max(1, min(n_steps, _CHUNK_DOUBLES // 2 // max(P * n, _BATCH_DOUBLES)))


def may_fork():
    """Whether this process may fork a helper process: the OS can fork, and
    no other Python thread runs.

    The forked process inherits every lock in the state other threads left
    it in.  It takes none that native BLAS threads hold, but other Python
    threads may hold any, so only a single-threaded interpreter forks.
    """
    return hasattr(os, "fork") and threading.active_count() == 1


# A task id is 4 bytes, and one pipe write of at most PIPE_BUF bytes queues
# every task of a chunk at once
_TASKS_PER_CHUNK = select.PIPE_BUF // 4


def _noise_chunks(seed, batches, n, n_steps, step_offset=0):
    """Unit normals of every batch's noise chunks, in stepping order.

    Yields dw0 (c, P, 1) and db (c, P, n, 1), the normals of the next c
    steps of the batch at hand (_chunk_steps), unscaled: the step loop
    scales them by its grid's sqrt(dt).  Each batch's chunks cover its
    steps step_offset .. step_offset + n_steps - 1 in order.  A chunk is a
    view of one of two buffers in one anonymous shared mapping, valid until
    the next is requested.

    A chunk's paths are split into tasks, contiguous groups of paths, and
    a forked drawing process takes tasks from a shared queue (a pipe).
    Chunk i + 1's tasks are queued once chunk i is complete, just before
    chunk i is handed out, so the drawing process draws chunk i + 1 into
    the other buffer while the caller steps chunk i.  When the caller asks
    for a chunk that is not complete, it claims that chunk's queued tasks
    and draws them itself, then waits for the ones the drawing process has
    in flight; the queue never holds tasks of another chunk, so neither
    process idles while draws are pending.  A draw depends only on (seed,
    path, step), so who draws it changes no bit.  The process forks only
    when there is more than one chunk and the idiosyncratic normals of
    the whole call exceed one buffer's budget, _CHUNK_DOUBLES // 2, and it
    may fork (may_fork); else the same draws run inline, so a stream that
    one buffer could hold pays for no process.  A draw's exception reaches
    the caller, with its type and message, when it requests that chunk.
    Closing the generator ends and reaps the drawing process, so none
    outlives it.
    """
    blocks = [(paths, k0, min(chunk, n_steps - k0))
              for paths in batches
              for chunk in [_chunk_steps(len(paths), n, n_steps)]
              for k0 in range(0, n_steps, chunk)]
    size = max((c * len(paths) for paths, _, c in blocks), default=0)
    # one anonymous shared mapping holds both buffers: the drawing process
    # writes into the parent's pages, and they go back to the OS when the
    # call ends
    shared = mmap.mmap(-1, max(1, 16 * size * (n + 1)))
    bufs = np.frombuffer(shared, np.float64, count=2 * size * (n + 1)).reshape(2, -1)
    dw0_buf, db_buf = bufs[:, :size], bufs[:, size:]

    def views(i):
        paths, _, c = blocks[i]
        P = len(paths)
        return (dw0_buf[i % 2, :c * P].reshape(c, P, 1),
                db_buf[i % 2, :c * P * n].reshape(c, P, n, 1))

    # tasks[first[i]:first[i + 1]] are chunk i's, each (i, j0, j1): its paths j0..j1-1
    tasks, first = [], [0]
    for i, (paths, _, _) in enumerate(blocks):
        per = -(-len(paths) // _TASKS_PER_CHUNK)
        tasks += [(i, j, min(j + per, len(paths))) for j in range(0, len(paths), per)]
        first.append(len(tasks))

    def draw(task):
        i, j0, j1 = tasks[task]
        paths, k0, c = blocks[i]
        dw0, db = views(i)
        for j in range(j0, j1):
            _gen_noise(seed, paths[j], step_offset + k0, c, n, 1, 1, out=(dw0[:, j], db[:, j]))

    pid = -1
    idio = n * n_steps * sum(map(len, batches))
    if len(blocks) > 1 and idio > _CHUNK_DOUBLES // 2 and may_fork():
        task_r, task_w = os.pipe()
        done_r, done_w = os.pipe()
        # both processes take tasks from task_r; the caller's reads must not block
        os.set_blocking(task_r, False)
        try:
            pid = os.fork()
        except OSError:
            for fd in (task_r, task_w, done_r, done_w):
                os.close(fd)
        if pid == 0:
            os.close(task_w)
            os.close(done_r)
            _draw_tasks(draw, task_r, done_w)
    if pid < 0:
        for i in range(len(blocks)):
            for task in range(first[i], first[i + 1]):
                draw(task)
            yield views(i)
        return
    owner = os.getpid()
    os.close(done_w)

    def queue(i):
        os.write(task_w, b"".join(t.to_bytes(4, "little") for t in range(first[i], first[i + 1])))

    try:
        queue(0)
        for i in range(len(blocks)):
            owed = first[i + 1] - first[i]
            while owed and (task := _claim(task_r)) is not None:
                draw(task)
                owed -= 1
            _await_tasks(done_r, owed)
            if i + 1 < len(blocks):
                queue(i + 1)
            yield views(i)
    finally:
        for fd in (task_w, task_r, done_r):
            os.close(fd)
        # a process forked from this one later must not reap our child
        if os.getpid() == owner:
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            os.waitpid(pid, 0)


def _claim(task_r):
    """The next queued task id, or None if the queue is empty."""
    try:
        word = os.read(task_r, 4)
    except BlockingIOError:
        return None
    return int.from_bytes(word, "little")


def _draw_tasks(draw, task_r, done):
    """Body of the drawing process: draws queued tasks until the queue
    closes, then exits, never returning.

    After each task it sends one zero byte; on an exception, a one byte
    and the pickled exception.
    """
    try:
        try:
            ready = select.poll()
            ready.register(task_r, select.POLLIN)
            while True:
                ready.poll()
                try:
                    word = os.read(task_r, 4)
                except BlockingIOError:
                    continue  # the caller claimed it first
                if not word:
                    break
                draw(int.from_bytes(word, "little"))
                os.write(done, b"\0")
        except Exception as exc:  # noqa: BLE001 - handed to the parent as is
            try:
                payload = pickle.dumps(exc)
            except Exception:  # noqa: BLE001
                payload = pickle.dumps(RuntimeError(f"{type(exc).__name__}: {exc}"))
            data = b"\1" + payload
            while data:
                data = data[os.write(done, data):]
    finally:
        os._exit(0)


def _await_tasks(done, owed):
    """Waits for the drawing process to finish `owed` tasks; raises what a draw raised."""
    while owed:
        words = os.read(done, owed)
        if not words:
            raise RuntimeError("the noise drawing process ended early")
        bad = words.find(b"\1")
        if bad >= 0:
            payload = [words[bad + 1:]]
            while chunk := os.read(done, 1 << 16):
                payload.append(chunk)
            raise pickle.loads(b"".join(payload))
        owed -= len(words)


def stream_scenarios(model, control, t0, mu0: EmpiricalMeasure, T, dt, seed, paths,
                     with_cost=True, *, step_offset=0, record=None, on_node=None):
    """Step scenarios on the grid t0, t0 + dt, ..., T from node step_offset to T, in batches.

    The one function that steps scenarios.  `paths` is a count n (the
    scenarios 0..n-1) or a range of path indices; each starts from the cloud
    mu0.  Step k uses the time, gains and noise counters of grid node k
    whatever node the run starts at, so a run from a stored node replays
    the rest of the original bit for bit.  Yields (paths, running, ends)
    per batch: the range of path indices, the left-endpoint Riemann sums of
    the particle-averaged running cost (P,) (None without `with_cost`) and
    the end clouds (P, N, d), copied out of the batch's rows.  Per
    scenario, these equal simulate_path's last node and pathwise_cost bit
    for bit.  A blowup names the earliest failing step of a batch and its
    lowest path there.  Close the generator, or run it to the end, to reap
    the process that draws the noise (_noise_chunks).

    on_node(paths, k, x, mean, dw0), if given, sees every node k of every
    batch, counted from the run's first node: the clouds x as a (P, N, d)
    view of the rows, their means (P, d) and the step's scaled common
    increments (P, 1), None at the last node, valid only during the call.
    A Recorder, `record`, is such a hook whose paths get batches of their
    own; pass record or on_node, not both.
    """
    n_steps = step_count(model, t0, mu0, T, dt) - step_offset
    t0, dt = float(t0), float(dt)
    paths = range(paths) if isinstance(paths, int) else paths
    n, d = mu0.points.shape
    K1, K2, kk = _control_grid(control, t0, dt, n_steps, step_offset, d, model.m)
    width = max(1, _BATCH_DOUBLES // (n * d))
    n_rec, rec_width = 0, width
    if record is not None:
        if on_node is not None:
            raise ValueError("a Recorder is an on_node hook: pass record or on_node, not both")
        n_rec = min(record.n_paths, len(paths))
        per_path = (n_steps // record.stride + 1) * n * d + n_steps
        rec_width = max(1, min(width, 4 * _CHUNK_DOUBLES // per_path))
        on_node = record.hook(t0, dt, step_offset, n_steps)
    # batches of rec_width until every recorded scenario is in one, then of width
    rec_end = -(-n_rec // rec_width) * rec_width
    cuts = [*range(0, rec_end, rec_width), *range(rec_end, len(paths), width), len(paths)]
    batches = [paths[a:b] for a, b in zip(cuts, cuts[1:])]
    with closing(_noise_chunks(seed, batches, n, n_steps, step_offset)) as noise:
        for batch in batches:
            P = len(batch)
            bufs, mom = _batch_buffers(mu0.points, P)
            running = np.zeros(P) if with_cost else None
            k0 = 0
            while k0 < n_steps:
                dw0, db = next(noise)
                g = slice(k0, k0 + dw0.shape[0])
                keep = None if on_node is None else lambda k, *node: on_node(batch, k0 + k, *node)
                bad, bufs, mom = _run_generic(model, bufs, mom, K1[g], K2[g], kk[g], dt, dw0, db,
                                              running=running, keep=keep)
                if bad >= 0:
                    step = step_offset + k0 + bad + 1
                    raise _blowup(t0 + dt * step, batch, step, _points(bufs, d))
                k0 = g.stop
            # copies, so that no caller keeps the batch's row buffers alive
            x, bufs = _points(bufs, d).copy(), None
            if on_node is not None:
                on_node(batch, n_steps, x, mom[0], None)
            yield batch, running, x


def drain(stream):
    """Runs a scenario stream to its end, for what its hooks see."""
    with closing(stream):
        for _ in stream:
            pass


def restart_continuation(traj: ParticleTrajectory, theta):
    """Re-run the simulation from the stored state at grid node theta.

    The continuation regenerates noise increments and node times at their
    original absolute step indices, so on [theta, T] it reproduces the
    original trajectory bitwise.
    """
    j = traj.node_index(theta)
    return _simulate(traj.model, traj.control, traj.base_t0,
                     traj.states[j].copy(), traj.n_steps - j, traj.dt,
                     traj.seed, traj.path_index, traj.step_offset + j)


def pathwise_cost(traj: ParticleTrajectory, model, control, end_step=None,
                  include_terminal=True):
    """Realized lifted cost along one trajectory.

    Left-endpoint Riemann sum of the particle-averaged running cost plus the
    particle-averaged terminal cost at the end node, each from its node's
    moments (lqmodel.lifted_cost).  The Monte Carlo drivers
    fuse this sum into the step loop; this is the public per-path
    reference that their per-scenario costs equal bit for bit.
    """
    end = traj.n_steps if end_step is None else int(end_step)
    if end < 0 or end > traj.n_steps:
        raise ValueError("end_step outside the trajectory grid")
    total = 0.0
    if end:
        K1, K2, kk = _control_grid(control, traj.base_t0, traj.dt, traj.n_steps,
                                   traj.step_offset, traj.model.d, traj.model.m)
        fhat = lifted_cost(model.cost, *moments(traj.states[:end]),
                           (K1[:end], K2[:end], kk[:end]))
        for k in range(end):
            total += float(fhat[k]) * traj.dt
    if include_terminal:
        total += float(lifted_cost(model.cost, *moments(traj.states[end])))
    return total


# ---------------------------------------------------------------------------
# initial clouds

def sample_initial(spec, n_particles, seed):
    """Sample an initial cloud: point mass, Gaussian, or particle file.

    spec is {'kind': 'point', 'x0': ...}, {'kind': 'gaussian', 'mean': ...,
    'cov': ...} or {'kind': 'csv', 'path': ...}.  Deterministic in seed.
    A coordinate past BLOWUP_LIMIT, a blowup at the first step, is a ValueError.
    """
    if n_particles < 1:
        raise ValueError("n_particles must be >= 1")
    kind = spec.get("kind")
    if kind == "point":
        x0 = np.atleast_1d(np.asarray(spec["x0"], dtype=np.float64))
        cloud = EmpiricalMeasure(np.tile(x0, (n_particles, 1)))
    elif kind == "gaussian":
        mu = np.atleast_1d(np.asarray(spec["mean"], dtype=np.float64))
        d = mu.shape[0]
        cov = np.asarray(spec["cov"], dtype=np.float64)
        if cov.ndim == 0:
            cov = cov * np.eye(d)
        if cov.shape != (d, d):
            raise ValueError("covariance shape does not match the mean")
        factor = _psd_factor(cov)
        z = _philox(seed, _INIT_PATH_TAG, 0).standard_normal((n_particles, d))
        cloud = EmpiricalMeasure(mu + z @ factor.T)
    elif kind == "csv":
        cloud = load_csv(spec["path"])
        if cloud.n != n_particles:
            raise ValueError(
                f"particle file holds {cloud.n} particles, expected {n_particles}")
    else:
        raise ValueError(f"unknown initial-condition kind: {kind!r}")
    if not np.all(np.abs(cloud.points) <= BLOWUP_LIMIT):
        raise ValueError(f"initial states must be at most {BLOWUP_LIMIT:g} in absolute value")
    return cloud


def _psd_factor(cov):
    try:
        return np.linalg.cholesky(cov)
    except np.linalg.LinAlgError:
        pass
    eigvals, eigvecs = np.linalg.eigh(cov)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(eigvals))))
    if np.min(eigvals) < -tol:
        raise ValueError("covariance is not positive semidefinite")
    return eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
