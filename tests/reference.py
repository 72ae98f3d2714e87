"""Reference implementations the tests compare the program against.

None of these has a caller in the package: each recomputes, the plain way,
something the program computes inside a faster or fused route.
"""

import numpy as np

from cmvlq import riccati
from cmvlq.lqmodel import affine_feedback, lifted_cost
from cmvlq.measure import EmpiricalMeasure, mean, moments, tree_mean
from cmvlq.policy import value
from cmvlq.simulator import _control_grid, _philox


def step_normals(seed, path_index, step, n_particles, n_idio, m0):
    """Standard normals for one step from a fresh Philox keyed at that step.

    The common block comes first, then the idiosyncratic one; the noise
    routes of the simulator draw these, scaled by sqrt(dt).
    """
    gen = _philox(seed, path_index, step)
    z0 = gen.standard_normal(m0)
    zb = gen.standard_normal((n_particles, n_idio))
    return z0, zb


def control_values_on_grid(control, traj, k):
    """Control values at node k < n_steps of a stored trajectory, as the step loop used them."""
    K1, K2, kk = _control_grid(control, traj.base_t0, traj.dt, traj.n_steps,
                               traj.step_offset, traj.model.d, traj.model.m)
    return affine_feedback(K1[k], K2[k], kk[k], traj.states[k], traj.means[k])


def coefficient_values(dyn, x, mbar, a):
    """lqmodel.coefficient_values one coefficient matrix at a time.

    Each coefficient is summed as ((c0 + x M') + mbar Mbar') + a N', the
    sums of the stacked loadings taken apart.
    """
    b = dyn.b0 + x @ dyn.B.T + mbar @ dyn.Bbar.T + a @ dyn.C.T
    s = dyn.theta + x @ dyn.D.T + mbar @ dyn.Dbar.T + a @ dyn.F.T
    s0 = dyn.theta0 + x @ dyn.D0.T + mbar @ dyn.D0bar.T + a @ dyn.F0.T
    return b, s, s0


def forms(x, L, y):
    """x_n' L y_n at each particle, as one three-operand einsum at every size."""
    return np.einsum("...ni,ij,...nj->...n", x, L, y)


def mean_form(mbar, L):
    return np.einsum("...i,ij,...j->...", mbar, L, mbar)[..., None]


def running_cost(cost, x, mbar, a):
    """Running cost x'Q2 x + mbar'Q2bar mbar + a'R2 a + 2 x'M2 a at each particle.

    Its particle mean under an affine feedback is lqmodel.lifted_cost.
    """
    vals = forms(x, cost.Q2, x) + mean_form(mbar, cost.Q2bar) + forms(a, cost.R2, a)
    if np.any(cost.M2):
        vals = vals + 2.0 * forms(x, cost.M2, a)
    return vals


def terminal_cost(cost, x, mbar):
    """Terminal cost x'P2 x + mbar'P2bar mbar at each particle; lqmodel.lifted_cost's particle mean."""
    return forms(x, cost.P2, x) + mean_form(mbar, cost.P2bar)


def _check_form(mu, L):
    L = np.atleast_2d(np.asarray(L, dtype=np.float64))
    if L.shape != (mu.dim, mu.dim):
        raise ValueError(f"form has shape {L.shape}, expected ({mu.dim}, {mu.dim})")
    return L


def quad_moment(mu, L):
    """Mean of x^T L x over the cloud."""
    L = _check_form(mu, L)
    vals = np.einsum("ni,ij,nj->n", mu.points, L, mu.points)
    return float(tree_mean(vals))


def variance_form(mu, L):
    """quad_moment(mu, L) minus the same form at the mean."""
    L = _check_form(mu, L)
    m = mean(mu)
    return quad_moment(mu, L) - float(m @ L @ m)


def quadratic_functional(phi, mu):
    """QuadraticFunctional phi at one cloud, from variance_form and per-cloud products."""
    mbar = mean(mu)
    return (variance_form(mu, phi.L) + float(mbar @ phi.G @ mbar)
            + float(phi.g @ mbar) + phi.c)


def grad_check_loop(qv, t, mu, epsilon):
    """verify.grad_check one perturbed cloud at a time, each by quadratic_functional."""
    phi = qv.at(t)
    analytic = np.atleast_2d(phi.d_mu(mu, mu.points)) / mu.n
    scale = max(float(np.max(np.abs(analytic))), 1e-12)
    worst = 0.0
    pts = mu.points
    for i in range(mu.n):
        for j in range(mu.dim):
            up = pts.copy()
            up[i, j] += epsilon
            dn = pts.copy()
            dn[i, j] -= epsilon
            fd = (quadratic_functional(phi, EmpiricalMeasure(up))
                  - quadratic_functional(phi, EmpiricalMeasure(dn))) / (2.0 * epsilon)
            worst = max(worst, abs(fd - analytic[i, j]) / scale)
    return worst


def pushforward(mu, a):
    """Image measure under an affine map: the cloud {a(x_i)}."""
    if a.dim_in != mu.dim:
        raise ValueError(f"map expects dimension {a.dim_in}, cloud has {mu.dim}")
    return EmpiricalMeasure(a(mu.points))


def l2_norm(mu):
    """Square root of the mean squared Euclidean norm of the points."""
    sq = np.einsum("ni,ni->n", mu.points, mu.points)
    return float(np.sqrt(tree_mean(sq)))


def save_csv(mu, path):
    """One row per particle, header x0,...,x{d-1}, full-precision floats.

    The format measure.load_csv and the csv initial condition read.
    """
    header = ",".join(f"x{j}" for j in range(mu.dim))
    lines = [header]
    for row in mu.points:
        lines.append(",".join(repr(float(v)) for v in row))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def terminal_consistency_gap(qv, mu):
    """|value(T, mu) - lifted terminal cost(mu)|, zero up to rounding."""
    return abs(value(qv, qv.T, mu) - lifted_terminal_cost(mu, qv.cost))


def generator_pair_sum(phi, s0vals):
    """(mu x mu)(M^a phi) as the double sum over particle pairs.

    The mean over all pairs (i, j) of s0_i' d2 s0_j / 2, built as the n x n
    matrix of pairs; verify.generator_apply factors it into means of s0.
    """
    n = s0vals.shape[0]
    d2 = phi.d2_mu()
    pair = np.zeros((n, n))
    for c in range(s0vals.shape[2]):
        block = s0vals[:, :, c]
        pair += block @ d2 @ block.T
    return float(tree_mean(tree_mean(0.5 * pair, axis=0)))


def array_sweep(dyn, cost, T, h):
    """solve_riccati on the direct array formulas (riccati._rhs) at any d and m.

    The route every model other than d = m = 1 took before the sweep went
    through the model's BackwardOperator; T and h as solve_riccati takes them.
    """
    K = int(round(T / h))
    return riccati._sweep(riccati._array_kit(dyn, cost), dyn, cost, float(T), K, float(h))


def lifted_terminal_cost(mu, cost):
    """Measure-level terminal cost at cloud mu (lqmodel.lifted_cost without gains)."""
    if cost.d != mu.dim:
        raise ValueError("cost dimension does not match the cloud")
    return float(lifted_cost(cost, *moments(mu.points)))


def value_derivatives(qv, t, mu, x):
    """(d_t, d_mu at x, dx_dmu, d2_mu) of the value at (t, mu); d_t as in QuadraticValue.dt_at."""
    t = float(t)
    if not 0.0 <= t <= qv.T * (1.0 + 1e-12):
        raise ValueError(f"t={t} outside [0, {qv.T}]")
    phi = qv.at(t)
    return qv.dt_at(t)(mu), phi.d_mu(mu, x), phi.dx_dmu(), phi.d2_mu()
