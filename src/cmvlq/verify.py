"""Numerical certification of the dynamic-programming structure.

Monte Carlo cost estimation against the quadratic value, the measure-space
Bellman residual evaluated exactly from cloud moments, the dynamic-programming
inequality at intermediate times, the generator identity along conditional
flows, lifted-gradient finite differences, particle-count convergence, and
the flow property (a restart from a stored node replays the rest bitwise).

The Monte Carlo drivers stream their scenarios (simulator.stream_scenarios)
and hold no trajectory: the flow check compares a restart with its reference
through SHA-256 digests fed node by node, and dpp's step constant comes from
the exact expected gaps at dt and 2 dt (expected_dpp_gap), with no second run.

Each check's pass rule is written once here and shared by `cmvlq verify`
and the acceptance suite.  A rule takes what was measured plus the caller's
constants (dpp's step constant, ito's bias factor) and returns a
CheckResult whose constituents let a report be re-decided from its JSON
alone.  Statistical tolerances are three standard errors plus a bias.
"""

from __future__ import annotations

import hashlib
import json
from contextlib import closing
from dataclasses import dataclass

import numpy as np

from .errors import NumericalBlowup
from .lqmodel import GRID_TOL, expected_moments, lifted_cost, moment_form, step_loadings
from .lqmodel import whole_steps
from .measure import EmpiricalMeasure, moments, tree_mean
from .policy import QuadraticFunctional, QuadraticValue, value
from .simulator import drain, sample_initial, step_count, stream_scenarios


def _resolve_cloud(mu0, n_particles, seed):
    if isinstance(mu0, EmpiricalMeasure):
        if mu0.n != n_particles:
            raise ValueError(f"cloud holds {mu0.n} particles, expected {n_particles}")
        return mu0
    return sample_initial(mu0, n_particles, seed)


def _mean_stderr(what, M, stream, value):
    """Mean (tree_mean) and stderr of value(running, ends) over the M >= 2 scenarios of stream."""
    if M < 2:
        raise ValueError(f"{what} needs M >= 2 scenarios")
    values = np.empty(M)
    with closing(stream):
        for paths, running, ends in stream:
            values[paths.start:paths.stop] = value(running, ends)
    return float(tree_mean(values)), float(np.std(values, ddof=1) / np.sqrt(M))


@dataclass(frozen=True)
class CostEstimate:
    """Monte Carlo estimate of the lifted cost over common-noise scenarios."""

    mean: float
    stderr: float
    M: int
    N: int
    dt: float
    seed: int


def estimate_cost(model, control, t0, mu0, N, M, dt, seed, record=None) -> CostEstimate:
    """Average pathwise cost over M independent common-noise scenarios.

    mu0 is an initial-cloud spec (or a ready cloud of N particles) shared by
    all scenarios; the scenario index enters only the noise keying, so the
    estimate is deterministic in seed.  Scenario p's cost equals
    pathwise_cost of simulate_path(..., path_index=p) bit for bit.  A
    Recorder `record` keeps nodes of the stepped scenarios (see
    stream_scenarios).
    """
    cloud0 = _resolve_cloud(mu0, N, seed)
    m, stderr = _mean_stderr(
        "cost estimation", M,
        stream_scenarios(model, control, t0, cloud0, model.T, dt, seed, M, record=record),
        lambda running, ends: running + lifted_cost(model.cost, *moments(ends)))
    return CostEstimate(mean=m, stderr=stderr, M=M, N=N, dt=float(dt), seed=int(seed))


# ---------------------------------------------------------------------------
# generators from cloud moments

def generator_apply(phi: QuadraticFunctional, mu, dyn, gains, mom=None):
    """mu(L^a phi) + (mu x mu)(M^a phi) at the cloud mu under the feedback of gains (K1, K2, k).

    With u = (x, mbar, 1), a particle's drift and volatilities are u P, P =
    [L; G; g] (lqmodel.step_loadings), and d_mu phi(x) is u Q.  The
    first-order and trace parts are the mean of u W u' over the particles,
    <W, ubar'ubar + blockdiag(E xx' - mbar'mbar, 0, 0)>, ubar = (mbar, mbar,
    1), and the common-noise pair mean is ubar P_0 (G_phi - L_phi) P_0' ubar':
    one lqmodel.moment_form of the moments mom (measure.moments, taken here
    when not given) plus terms in mbar.
    """
    mbar, second = moments(mu.points) if mom is None else mom
    L, G, g = step_loadings(dyn, *gains)
    d = dyn.d
    b, s, s0 = (slice(i * d, (i + 1) * d) for i in range(3))
    # the rows of v = (mbar, 1) in u P and u Q: L + G and g, 2 G_phi' and g_phi
    Pv = np.concatenate((L + G, g))
    Qv = np.concatenate((2.0 * phi.G.T, phi.g[None, :]))
    W = (2.0 * phi.L.T @ L[:, b].T + L[:, s] @ phi.L @ L[:, s].T
         + L[:, s0] @ phi.L @ L[:, s0].T)
    Wv = Qv @ Pv[:, b].T + Pv[:, s] @ phi.L @ Pv[:, s].T + Pv[:, s0] @ phi.G @ Pv[:, s0].T
    form = moment_form(W, Wv[:d, :d] - W, mbar, second)[0, 0]
    return float(form + (Wv[:d, d] + Wv[d, :d]) @ mbar + Wv[d, d])


def bellman_residual(qv: QuadraticValue, t, mu, gains, with_terms=False):
    """Dynamic-programming residual at (t, mu) under the feedback of gains (K1, K2, k).

    d_t w + lifted running cost + mu(L^a w) + (mu x mu)(M^a w), every term
    from one call of measure.moments.  Nonnegative for every feedback, zero
    at the minimizing one; the excess is a quadratic form in the control.
    """
    t = float(t)
    if not 0.0 <= t < qv.T:
        raise ValueError(f"residual needs t in [0, T); got t={t}")
    mom = moments(mu.points)
    d_t = float(qv.dt_at(t).at_moments(*mom))
    fhat = float(lifted_cost(qv.cost, *mom, gains))
    gen = generator_apply(qv.at(t), mu, qv.dyn, gains, mom)
    residual = d_t + fhat + gen
    if with_terms:
        return residual, {"d_t": d_t, "running_cost": fhat, "generator": gen}
    return residual


# ---------------------------------------------------------------------------
# dynamic programming and generator checks

@dataclass(frozen=True)
class DppResult:
    gap: float
    stderr: float
    theta: float
    t: float
    M: int


def dpp_check(qv: QuadraticValue, model, t, mu0, theta, control, N, M, dt, seed):
    """Estimate E[int_t^theta fhat ds + w(theta, rho_theta)] - w(t, mu).

    Nonnegative up to statistical and discretization error for any control;
    zero within tolerance along the optimal feedback.  theta must be a node
    of the simulation grid.
    """
    t, theta = float(t), float(theta)
    if theta < t or theta > model.T * (1 + 1e-12):
        raise ValueError("need t <= theta <= T")
    cloud0 = _resolve_cloud(mu0, N, seed)
    w_t = value(qv, t, cloud0)
    w_theta = qv.at(theta)
    gap, stderr = _mean_stderr(
        "the dpp check", M, stream_scenarios(model, control, t, cloud0, theta, dt, seed, M),
        lambda running, ends: running + w_theta.values(ends) - w_t)
    return DppResult(gap=gap, stderr=stderr, theta=theta, t=t, M=M)


def expected_dpp_gap(qv: QuadraticValue, model, t, mu0: EmpiricalMeasure, theta, control, dt):
    """The exact expectation of dpp_check's gap at mu0's N and at dt, t <= theta <= T: each
    expected running cost and the expected value at theta is lifted_cost or at_moments
    averaged over lqmodel.expected_moments' clouds."""
    grid = control.grid_gains(t, dt, step_count(model, t, mu0, theta, dt))
    mbar, second = expected_moments(model.dyn, *grid, *moments(mu0.points), dt, mu0.n)
    fhat = lifted_cost(model.cost, mbar[:-1], second[:-1], tuple(a[:, None] for a in grid))
    end = qv.at(theta).at_moments(mbar[-1], second[-1])
    return float(np.sum(np.mean(fhat, axis=1)) * dt + np.mean(end)) - value(qv, t, mu0)


@dataclass(frozen=True)
class ItoCheckResult:
    lhs: float
    rhs: float
    stderr: float
    delta: float


def ito_generator_check(model, control, t, mu0, phi: QuadraticFunctional,
                        delta, N, M, dt, seed) -> ItoCheckResult:
    """Flow derivative of a quadratic functional vs its generator value.

    lhs: Monte Carlo difference quotient (E[phi(rho_{t+delta})] - phi(mu))/delta.
    rhs: mu(L^a phi) + (mu x mu)(M^a phi) at the initial cloud, deterministic.
    delta must be a multiple of dt, and t + delta at most T.
    """
    delta = float(delta)
    steps = whole_steps(delta, dt, 1, f"dt={dt} divides delta = {delta}",
                        "delta must be a positive multiple of dt")
    if t + delta - model.T > GRID_TOL * max(1.0, model.T):
        raise ValueError(f"t0 + delta = {t + delta!r} exceeds T = {model.T!r}")
    cloud0 = _resolve_cloud(mu0, N, seed)
    phi0 = phi(cloud0)
    end, stderr = _mean_stderr(
        "the ito check", M,
        stream_scenarios(model, control, t, cloud0, t + delta, dt, seed, M, with_cost=False),
        lambda _, clouds: phi.values(clouds))
    lhs, stderr = (end - phi0) / delta, stderr / delta

    # every path starts from cloud0 at t, so the step loop's first controls
    # are the control's at the initial cloud
    K1, K2, kk = control.grid_gains(t, dt, steps)
    rhs = generator_apply(phi, cloud0, model.dyn, (K1[0], K2[0], kk[0]))
    return ItoCheckResult(lhs=lhs, rhs=rhs, stderr=stderr, delta=delta)


def grad_check(qv: QuadraticValue, t, mu, epsilon) -> float:
    """Max relative gap between lifted finite differences and d_mu w / N.

    Central differences of the value under single-particle perturbations
    against the closed-form measure derivative, normalized by the largest
    derivative magnitude over the cloud.  Every perturbed cloud is
    re-evaluated in full: the 2 N d of them form one (2, N d, N, d) stack,
    2 (N d)^2 coordinates.  A difference that is not finite raises
    NumericalBlowup naming epsilon, t, the particle and the coordinate.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    phi = qv.at(t)
    n, d = mu.n, mu.dim
    analytic = np.atleast_2d(phi.d_mu(mu, mu.points)) / n
    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    # cloud k = i d + j of each half moves particle i's coordinate j up, then down
    k = np.arange(n * d)
    moved = np.broadcast_to(mu.points, (2, n * d, n, d)).copy()
    moved[0, k, k // d, k % d] += epsilon
    moved[1, k, k // d, k % d] -= epsilon
    if not np.all(np.isfinite(moved)):
        raise ValueError("particle cloud contains non-finite coordinates")
    up, down = phi.values(moved)
    fd = ((up - down) / (2.0 * epsilon)).reshape(n, d)
    if not np.all(np.isfinite(fd)):
        i, j = np.argwhere(~np.isfinite(fd))[0]
        raise NumericalBlowup(f"t={float(t):.6g}, particle {i}, coordinate {j}", f"finite "
                              f"difference at epsilon={float(epsilon)!r} is {float(fd[i, j])!r}")
    return float(np.max(np.abs(fd - analytic) / scale))


def chaos_convergence(model, control, t0, mu0spec, Ns, M, dt, seed):
    """Cost estimates across particle counts, same common-noise scenarios.

    The common increments are drawn before the idiosyncratic block in each
    step, so every N sees identical common-noise paths and the N-trend is
    not confounded by scenario noise.
    """
    Ns = list(Ns)
    if len(Ns) < 2 or any(b <= a for a, b in zip(Ns, Ns[1:])):
        raise ValueError("Ns must be >= 2 ascending particle counts")
    rows = []
    for n in Ns:
        est = estimate_cost(model, control, t0, mu0spec, n, M, dt, seed)
        rows.append({"N": int(n), "mean": est.mean, "stderr": est.stderr})
    return rows


# the arrays a restart must replay bit for bit, in the order a failure names the first that differs
FLOW_ARRAYS = ("states", "means", "dw0", "times")


class _Digests:
    """One SHA-256 digest per FLOW_ARRAYS array, fed one node at a time.

    Feeding nodes j, j + 1, ... digests the bytes of the array's suffix
    from node j, as if that suffix were held whole.
    """

    def __init__(self):
        self.hashes = [hashlib.sha256() for _ in FLOW_ARRAYS]

    def feed(self, x, mean, dw0, t):
        states, means, increments, times = self.hashes
        states.update(np.ascontiguousarray(x))
        means.update(mean)
        if dw0 is not None:
            increments.update(dw0)
        times.update(np.float64(t).tobytes())

    def digests(self):
        return tuple(h.digest() for h in self.hashes)


def flow_restarts(model, control, t0, mu0: EmpiricalMeasure, T, dt, seed, restarts):
    """Restarts of scenarios from stored nodes, each with its reference, as digests.

    restarts holds (path, node) pairs.  The reference scenarios, every
    path from the lowest to the highest named, are stepped in one
    stream_scenarios call from mu0 at t0 to T; from each restart's node on,
    a per-node hook feeds its path's states, means, common increments and
    times into digests (FLOW_ARRAYS) and keeps its cloud at the node.  Each
    continuation then runs from that cloud at that node to T, digested the
    same way.  No trajectory is held.  Yields (path, node, reference
    digests, continuation digests) per restart, in order, for flow_rule.
    """
    n_steps = step_count(model, t0, mu0, T, dt)
    t0, dt = float(t0), float(dt)
    restarts = [(int(p), int(j)) for p, j in restarts]
    if not restarts:
        return
    by_path = {}
    for i, (p, j) in enumerate(restarts):
        if not 0 <= j <= n_steps:
            raise ValueError(f"restart node {j} of path {p} is not a node 0..{n_steps}")
        by_path.setdefault(p, []).append(i)
    refs = [_Digests() for _ in restarts]
    starts = [None] * len(restarts)

    def reference(paths, k, x, mean, dw0):
        for q, p in enumerate(paths):
            for i in by_path.get(p, ()):
                j = restarts[i][1]
                if k == j:
                    starts[i] = x[q].copy()
                if k >= j:
                    refs[i].feed(x[q], mean[q], None if dw0 is None else dw0[q], t0 + dt * k)

    drain(stream_scenarios(model, control, t0, mu0, T, dt, seed,
                           range(min(by_path), max(by_path) + 1), with_cost=False,
                           on_node=reference))
    for (p, j), ref, start in zip(restarts, refs, starts):
        cont = _Digests()

        def follow(paths, k, x, mean, dw0, j=j, cont=cont):
            cont.feed(x[0], mean[0], None if dw0 is None else dw0[0], t0 + dt * (j + k))

        drain(stream_scenarios(model, control, t0, EmpiricalMeasure._wrap(start), T, dt, seed,
                               range(p, p + 1), with_cost=False, step_offset=j, on_node=follow))
        yield p, j, ref.digests(), cont.digests()


def random_clouds(qv, count, n_particles, seed):
    """Seeded random (t, cloud) draws for residual and gradient sweeps.

    Times are uniform on [0, T); clouds are standard Gaussian around a
    random center.
    """
    gen = np.random.Generator(np.random.Philox(key=int(seed)))
    d = qv.dyn.d
    out = []
    for _ in range(count):
        t = float(gen.uniform(0.0, qv.T * (1.0 - 1e-6)))
        center = gen.uniform(-2.0, 2.0, size=d)
        pts = center + gen.standard_normal((n_particles, d))
        out.append((t, EmpiricalMeasure(pts)))
    return out


# ---------------------------------------------------------------------------
# pass rules and reports

BELLMAN_TOL = 1e-8
GRAD_TOL = 1e-6


@dataclass(frozen=True)
class CheckResult:
    """A check's decision, the numbers it compared and what they are made of."""

    check: str
    passed: bool
    statistic: float
    tolerance: float
    stderr: float | None
    constituents: dict

    def report(self, config):
        """The JSON report of the check under the run's config."""
        return {"check": self.check, "pass": bool(self.passed),
                "statistic": float(self.statistic), "tolerance": float(self.tolerance),
                "stderr": None if self.stderr is None else float(self.stderr),
                "constituents": self.constituents, "config": config}


def statistical_tolerance(stderr, bias):
    """Three standard errors of a Monte Carlo mean plus a deterministic bias bound."""
    return 3.0 * stderr + bias


def bellman_rule(draws):
    """Worst |residual| / max(1, largest |term|) over (t, residual, terms) draws at a*."""
    ratios = [abs(r) / max(max(abs(v) for v in terms.values()), 1.0) for _, r, terms in draws]
    i = int(np.argmax(ratios))
    t, r, terms = draws[i]
    worst = {"draw": i, "t": float(t), "residual": float(r),
             **{k: float(v) for k, v in terms.items()}}
    return CheckResult("bellman", ratios[i] <= BELLMAN_TOL, ratios[i], BELLMAN_TOL, None, worst)


def grad_rule(draws):
    """Worst relative gradient error over (t, error) draws; passes at <= GRAD_TOL."""
    i = int(np.argmax([e for _, e in draws]))
    t, error = draws[i]
    return CheckResult("grad", error <= GRAD_TOL, error, GRAD_TOL, None, {"draw": i, "t": float(t)})


def dpp_rule(fine: DppResult, dt, c_dt, two_sided, expected=None):
    """DPP gap within 3 stderr + c_dt dt: two-sided for the optimal feedback, else from below.

    expected, the exact expected gaps at dt and 2 dt that the caller took
    c_dt from (expected_dpp_gap), is only reported.
    """
    tol = statistical_tolerance(fine.stderr, c_dt * dt)
    passed = abs(fine.gap) <= tol if two_sided else fine.gap >= -tol
    return CheckResult("dpp", passed, fine.gap, tol, fine.stderr, {
        "fine_gap": fine.gap, "expected_gaps": None if expected is None else list(expected),
        "c_dt": float(c_dt), "dt": float(dt), "two_sided": bool(two_sided)})


def ito_rule(res: ItoCheckResult, dt, bias_factor):
    """|lhs - rhs| against 3 stderr + bias_factor max(1, |rhs|) (delta + dt)."""
    bias = bias_factor * max(1.0, abs(res.rhs)) * (res.delta + dt)
    tol = statistical_tolerance(res.stderr, bias)
    stat = abs(res.lhs - res.rhs)
    return CheckResult("ito", stat <= tol, stat, tol, res.stderr,
                       {"lhs": float(res.lhs), "rhs": float(res.rhs), "bias": float(bias)})


def chaos_rule(rows, values):
    """Deviations of chaos_convergence rows from the values at their own initial clouds.

    Passes with at most one rise from one N to the next, none above 2 (se_i + se_{i+1}); the
    statistic is the change with the largest excess over its slack, the tolerance that slack.
    """
    table = [dict(row, value=float(v), deviation=float(abs(row["mean"] - v)))
             for row, v in zip(rows, values)]
    changes = [(b["deviation"] - a["deviation"], 2.0 * (a["stderr"] + b["stderr"]))
               for a, b in zip(table, table[1:])]
    rises = sum(1 for change, _ in changes if change > 0.0)
    stat, tol = max(changes, key=lambda cs: cs[0] - cs[1])
    return CheckResult("chaos", rises <= 1 and stat <= tol, stat, tol, None,
                       {"rows": table, "rises": rises})


def flow_rule(restarts):
    """(path, node, reference, continuation) restarts, each side the digests of the
    FLOW_ARRAYS (flow_restarts): every array replays bitwise.

    A failure [path, node, array] names the first array whose digests differ.
    """
    count, failures = 0, []
    for path, j, ref, cont in restarts:
        count += 1
        differ = [name for name, a, b in zip(FLOW_ARRAYS, ref, cont) if a != b]
        if differ:
            failures.append([int(path), int(j), differ[0]])
    return CheckResult("flow", not failures, float(len(failures)), 0.0, None,
                       {"restarts": count, "failures": failures})


def save_report(path, report):
    """Write a JSON report: sorted keys, two-space indent, trailing newline."""
    with open(path, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")
