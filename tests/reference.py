"""Reference implementations the tests compare the program against.

None of these has a caller in the package: each recomputes, the plain way,
something the program computes inside a faster or fused route.
"""

import numpy as np

from cmvlq import riccati
from cmvlq.errors import NonPositiveGain, NumericalBlowup
from cmvlq.lqmodel import (
    backward_derivatives,
    gain_terms,
    gains,
    lapack,
    lifted_cost,
    require_pd,
)
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


def affine_feedback(K1, K2, k, x, mbar):
    """Controls K1 (x - mbar) + K2 mbar + k at each particle, (..., N, m), of gains K1, K2
    (..., m, d) and k (..., m), clouds x (..., N, d) and means mbar (..., d)."""
    mbar = mbar[..., None, :]
    # a contiguous K1': the product with the transposed view takes twice as long
    a = (x - mbar) @ np.swapaxes(K1, -1, -2).copy()
    a += mbar @ np.swapaxes(K2, -1, -2)
    a += k[..., None, :]
    return a


def control_values_on_grid(control, traj, k):
    """Control values at node k < n_steps of a stored trajectory, as the step loop used them."""
    K1, K2, kk = _control_grid(control, traj.base_t0, traj.dt, traj.n_steps,
                               traj.step_offset, traj.model.d, traj.model.m)
    return affine_feedback(K1[k], K2[k], kk[k], traj.states[k], traj.means[k])


def coefficient_values(dyn, x, mbar, a):
    """Drift, idiosyncratic and common volatility at each particle, one coefficient at a time.

    Each coefficient is summed as ((c0 + x M') + mbar Mbar') + a N', with
    the controls a (..., N, m) given at each particle.
    """
    b = dyn.b0 + x @ dyn.B.T + mbar @ dyn.Bbar.T + a @ dyn.C.T
    s = dyn.theta + x @ dyn.D.T + mbar @ dyn.Dbar.T + a @ dyn.F.T
    s0 = dyn.theta0 + x @ dyn.D0.T + mbar @ dyn.D0bar.T + a @ dyn.F0.T
    return b, s, s0


def euler_nodes(dyn, gains, x0, dt, dw0, db):
    """Every node (K + 1, N, d) of one scenario's Euler scheme, from the model's equations.

    gains (K1, K2, k) are the control's on the K steps, dw0 (K, 1) and db
    (K, N, 1) the steps' scaled common and idiosyncratic increments.  At
    each step: the cloud's mean mbar, each particle's control a = K1 (x -
    mbar) + K2 mbar + k, its coefficients (coefficient_values), and x + b dt
    + s db + s0 dw0.
    """
    K1, K2, kk = gains
    x = np.array(x0, dtype=np.float64)
    nodes = [x]
    for j in range(len(dw0)):
        mbar = tree_mean(x, axis=0)
        a = (x - mbar) @ K1[j].T + mbar @ K2[j].T + kk[j]
        b, s, s0 = coefficient_values(dyn, x, mbar, a)
        x = x + b * dt + s * db[j] + s0 * dw0[j]
        nodes.append(x)
    return np.stack(nodes)


def step_loadings(dyn, K1, K2, k):
    """lqmodel.step_loadings one coefficient matrix at a time.

    The loadings of x, mbar and 1 in the drift are B' + K1'C', Bbar' +
    (K2 - K1)'C' and b0 + k C', and likewise for the volatilities with
    (D, Dbar, F, theta) and (D0, D0bar, F0, theta0); each is put in its
    block of d columns.
    """
    K1t, dKt = np.swapaxes(K1, -1, -2), np.swapaxes(K2 - K1, -1, -2)
    k = k[..., None, :]
    blocks = [(dyn.B, dyn.Bbar, dyn.C, dyn.b0), (dyn.D, dyn.Dbar, dyn.F, dyn.theta),
              (dyn.D0, dyn.D0bar, dyn.F0, dyn.theta0)]
    return tuple(np.concatenate(parts, axis=-1) for parts in zip(*(
        (M.T + K1t @ N.T, Mbar.T + dKt @ N.T, c + k @ N.T) for M, Mbar, N, c in blocks)))


class AffineMap:
    """Affine map x -> A x + b from R^d to R^m: the map of pushforward and feedback_affine_map."""

    def __init__(self, A, b=None):
        self.A = np.atleast_2d(np.asarray(A, dtype=np.float64))
        self.b = np.zeros(self.A.shape[0]) if b is None else np.asarray(b, dtype=np.float64)

    @classmethod
    def constant(cls, c, d):
        c = np.atleast_1d(np.asarray(c, dtype=np.float64))
        return cls(np.zeros((c.shape[0], d)), c)

    def __call__(self, x):
        return np.asarray(x, dtype=np.float64) @ self.A.T + self.b


def feedback_affine_map(fb, mubar):
    """The feedback gains fb at a fixed mean, as a plain affine map of x."""
    mubar = np.asarray(mubar, dtype=np.float64).reshape(-1)
    return AffineMap(fb.K1, (fb.K2 - fb.K1) @ mubar + fb.k)


def dx_dmu(phi):
    """d_x d_mu phi(mu)(x) = 2 L of the quadratic functional phi."""
    return 2.0 * phi.L


def d2_mu(phi):
    """d2_mu phi(mu)(x, x') = 2 (G - L) of the quadratic functional phi."""
    return 2.0 * (phi.G - phi.L)


def generator_sums(phi, mu, bvals, svals, s0vals):
    """mu(L^a phi) + (mu x mu)(M^a phi) from the coefficients (N, d) at each particle, by sums.

    The first-order and trace parts are a single sum over particles; the
    common-noise part, the mean over particle pairs (i, j) of
    s0_i' d2 s0_j / 2, factors into mean(s0)' d2 mean(s0) / 2.
    """
    dmu = np.atleast_2d(phi.d_mu(mu, mu.points))
    dxdmu = dx_dmu(phi)
    first = np.einsum("nd,nd->n", dmu, bvals)
    trace = 0.5 * (np.einsum("nd,de,ne->n", svals, dxdmu, svals)
                   + np.einsum("nd,de,ne->n", s0vals, dxdmu, s0vals))
    s0bar = tree_mean(s0vals, axis=0)
    return float(tree_mean(first + trace)) + 0.5 * float(s0bar @ d2_mu(phi) @ s0bar)


def pointwise_generator(phi, mu, dyn, gains):
    """verify.generator_apply pointwise: each particle's control (affine_feedback) and
    coefficients (coefficient_values), then generator_sums."""
    mbar = mean(mu)
    a = affine_feedback(*gains, mu.points, mbar)
    return generator_sums(phi, mu, *coefficient_values(dyn, mu.points, mbar, a))


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


def moment_functional(phi, mu):
    """QuadraticFunctional phi at one cloud from its moments, one product at a time.

    <L, E xx'> is the cloud's second moment (measure.moments, in
    np.triu_indices order) as a (1, n) row times the column of weights,
    L_ii on the diagonal and L_ij + L_ji off it; then come mbar'(G - L) mbar,
    the (1, d) mean through two products, g times the mean as a (d, 1)
    column, and c, added in that order.
    """
    mbar, second = moments(mu.points)
    i, j = np.triu_indices(mu.dim)
    w = np.where(i < j, phi.L[i, j] + phi.L[j, i], phi.L[i, j])
    row, col = mbar[None, :], mbar[:, None]
    form = second[None, :] @ w[:, None] + (row @ (phi.G - phi.L)) @ col
    return float(form[0, 0] + (phi.g @ col)[0] + phi.c)


def grad_check_loop(qv, t, mu, epsilon, functional=moment_functional):
    """verify.grad_check one perturbed cloud at a time, each by `functional` (phi, cloud)."""
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
            fd = (functional(phi, EmpiricalMeasure(up))
                  - functional(phi, EmpiricalMeasure(dn))) / (2.0 * epsilon)
            worst = max(worst, abs(fd - analytic[i, j]) / scale)
    return worst


def pushforward(mu, a):
    """Image measure under an affine map: the cloud {a(x_i)}."""
    if a.A.shape[1] != mu.dim:
        raise ValueError(f"map expects dimension {a.A.shape[1]}, cloud has {mu.dim}")
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
    """(mu x mu)(M^a phi) as the double sum over particle pairs of the s0 values (N, d).

    The mean over all pairs (i, j) of s0_i' d2 s0_j / 2, built as the n x n
    matrix of pairs; generator_sums factors it into means of s0.
    """
    pair = s0vals @ d2_mu(phi) @ s0vals.T
    return float(tree_mean(tree_mean(0.5 * pair, axis=0)))


def _factor_pd(M, t, which):
    """Cholesky factor of the symmetric positive definite M, for _solve_factored.

    A 1x1 M is its own factor after a positivity check, since the scalar
    Cholesky solve is a division.  A larger M that is not finite is a
    numerical blowup at t and is never factored.
    """
    if M.shape == (1, 1):
        if not M[0, 0] > 0.0:
            raise NonPositiveGain(t, float(M[0, 0]), which)
        return M[0, 0]
    if not np.isfinite(M).all():
        raise NumericalBlowup(f"t={t:.6g}", f"gain matrix {which} is not finite")
    factor, info = lapack().dpotrf(M, lower=1, clean=0)
    if info > 0:
        raise NonPositiveGain(t, float(np.min(np.linalg.eigvalsh(M))), which)
    return factor


def _solve_factored(factor, rhs):
    """Solve M x = rhs given M's factor from _factor_pd (LAPACK dpotrs)."""
    if np.ndim(factor) == 0:
        return rhs / factor
    return lapack().dpotrs(factor, rhs, lower=1)[0]


def direct_rhs(Lam, Gam, gam, dyn, cost, t, at_node=False):
    """riccati.Kit.rhs by the direct array formulas, on 2-d Lam, Gam and 1-d gam.

    Returns the derivatives (dLam, dGam, dgam, dchi) of lqmodel.gain_terms
    and lqmodel.backward_derivatives and, when at_node, the minimum
    eigenvalues (of U, of V), tested before U or V is factored, and the
    gains (K1, K2, k) from separate Cholesky solves (else None, None).
    """
    Lam = (Lam + Lam.T) / 2.0
    Gam = (Gam + Gam.T) / 2.0
    (U, V, S, Z, Y), products = gain_terms(Lam, Gam, gam, dyn, cost)
    eigs = None
    if at_node:
        eigs = (float(np.min(np.linalg.eigvalsh(U))), float(np.min(np.linalg.eigvalsh(V))))
        require_pd(t, *eigs)
    U_factor = _factor_pd(U, t, "U")
    V_factor = _factor_pd(V, t, "V")
    solves = (_solve_factored(U_factor, S.T), _solve_factored(V_factor, Z.T),
              _solve_factored(V_factor, Y))
    derivatives = backward_derivatives(Lam, Gam, gam, (S, Z, Y), products, solves, dyn, cost)
    if not at_node:
        return derivatives, None, None
    return derivatives, eigs, (-solves[0], -solves[1], -0.5 * solves[2])


def array_kit(dyn, cost):
    """A riccati.Kit on the direct array formulas (direct_rhs) at any d and m.

    The state is the arrays (Lam, Gam, gam) and the float chi.  The route
    every model other than d = m = 1 took before the sweep went through
    the model's BackwardOperator; at d = m = 1 the float route gives its
    bits.
    """
    return riccati.Kit(
        dyn, cost, lambda state, t, at_node=False: direct_rhs(*state[:3], dyn, cost, t, at_node),
        terminal=(cost.P2, cost.P2 + cost.P2bar, np.zeros(dyn.d), 0.0),
        sym=lambda s: ((s[0] + s[0].T) / 2.0, (s[1] + s[1].T) / 2.0, s[2], s[3]),
        check_finite=riccati._check_finite,
        stack=lambda Lam, Gam, gam: (Lam, Gam, gam, 0.0),
        unstack=tuple)


def array_sweep(dyn, cost, T, h):
    """solve_riccati on array_kit; T and h as solve_riccati takes them."""
    K = int(round(T / h))
    return riccati._sweep(array_kit(dyn, cost), float(T), K, float(h))


def feedback_by_gains(qv, t):
    """policy.optimal_feedback from lqmodel.gains and separate Cholesky solves.

    (K1, K2, k) at t, from the gain matrices at the interpolated solution
    (the value's BackwardOperator, if any): the eigenvalue test first, then
    U^-1 S', V^-1 Z' and V^-1 Y each by its own dpotrs (a division at 1 x 1).
    """
    g = gains(t, *qv.sol.eval(t)[:3], qv.dyn, qv.cost, qv.kit.op)
    require_pd(t, g.min_eig_u, g.min_eig_v)
    U_factor, V_factor = _factor_pd(g.U, t, "U"), _factor_pd(g.V, t, "V")
    return (-_solve_factored(U_factor, g.S.T), -_solve_factored(V_factor, g.Z.T),
            -0.5 * _solve_factored(V_factor, g.Y))


def lifted_terminal_cost(mu, cost):
    """Measure-level terminal cost at cloud mu (lqmodel.lifted_cost without gains)."""
    if cost.Q2.shape[0] != mu.dim:
        raise ValueError("cost dimension does not match the cloud")
    return float(lifted_cost(cost, *moments(mu.points)))


def value_derivatives(qv, t, mu, x):
    """(d_t, d_mu at x, dx_dmu, d2_mu) of the value at (t, mu); d_t as in QuadraticValue.dt_at."""
    t = float(t)
    if not 0.0 <= t <= qv.T * (1.0 + 1e-12):
        raise ValueError(f"t={t} outside [0, {qv.T}]")
    phi = qv.at(t)
    return qv.dt_at(t)(mu), phi.d_mu(mu, x), dx_dmu(phi), d2_mu(phi)
