"""Quadratic value functions on measures and the optimal affine feedback.

The value of the LQ problem is a quadratic functional of the measure,
parametrized by the backward-system solution.  Its measure derivatives are
available in closed form, which is what the verification layer exploits:
no derivative here is ever approximated numerically.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from . import riccati as _riccati
from .lqmodel import affine_feedback, moment_form
from .measure import EmpiricalMeasure, mean, moments


@dataclass(frozen=True)
class QuadraticFunctional:
    """phi(mu) = Var(mu)(L) + mubar'G mubar + g'mubar + c.

    at_moments evaluates phi from clouds' moments, values on a stack of
    clouds (..., N, d) in one call, and __call__ is values on a stack of
    one.  Var(mu)(L) is the particle mean of x'Lx minus the same form at
    the mean.  d_mu is the measure derivative
    d_mu phi(mu)(x) = 2 L (x - mubar) + 2 G mubar + g.
    """

    L: np.ndarray
    G: np.ndarray
    g: np.ndarray
    c: float

    def __post_init__(self):
        for k in ("L", "G"):
            object.__setattr__(self, k, np.atleast_2d(np.asarray(getattr(self, k), float)))
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64).reshape(-1))
        object.__setattr__(self, "c", float(self.c))

    def at_moments(self, mbar, second):
        """phi = <L, E xx'> + mubar'(G - L) mubar + g'mubar + c at clouds' moments.

        mbar (..., d) and second (..., d(d+1)/2) as measure.moments gives
        them; the lqmodel.moment_form, then g @ m with each mean m a (d, 1)
        column: a cloud's value is the same bits in any stack.
        """
        form = moment_form(self.L, self.G - self.L, mbar, second)[..., 0, 0]
        return form + (self.g @ mbar[..., :, None])[..., 0] + self.c

    def values(self, x):
        """phi at each cloud of x (..., N, d): at_moments of measure.moments(x)."""
        return self.at_moments(*moments(np.asarray(x, dtype=np.float64)))

    def __call__(self, mu: EmpiricalMeasure):
        return float(self.values(mu.points[None])[0])

    def d_mu(self, mu, x):
        mbar = mean(mu)
        x = np.asarray(x, dtype=np.float64)
        return 2.0 * (x - mbar) @ self.L.T + 2.0 * mbar @ self.G.T + self.g


@dataclass(frozen=True)
class QuadraticValue:
    """The value function defined by a backward-system solution.

    When sol is solve_riccati's solution for this very (dyn, cost), its
    node gains are this value's optimal feedback at the solver nodes.  kit
    is the model's route through the backward system (riccati.Kit): the
    solution's own for that model, else one built here, once.  dt_at and
    optimal_feedback both evaluate its rhs.
    """

    sol: _riccati.RiccatiSolution
    dyn: object
    cost: object
    kit: _riccati.Kit = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        kit = self.sol.kit if self.node_gains() is not None else None
        if kit is None:
            kit = _riccati.backward_kit(self.dyn, self.cost)
        object.__setattr__(self, "kit", kit)

    @property
    def T(self):
        return self.sol.T

    def at(self, t):
        Lam, Gam, gam, chi = self.sol.eval(t)
        return QuadraticFunctional(Lam, Gam, gam, chi)

    def dt_at(self, t):
        """Time derivative of the value functional at t.

        Built from the exact ODE right-hand sides at the interpolated
        coefficients, not from differencing the interpolant, so
        dynamic-programming residuals are exact up to solver error.
        """
        Lam, Gam, gam, _ = self.sol.eval(t)
        derivatives = _riccati.ode_rhs(Lam, Gam, gam, self.dyn, self.cost, t, self.kit)
        return QuadraticFunctional(*derivatives)

    def node_gains(self):
        """(K1, K2, k) at every solver node, or None unless sol was solved for (dyn, cost)."""
        sol = self.sol
        if sol.dyn is self.dyn and sol.cost is self.cost:
            return sol.K1, sol.K2, sol.k
        return None


def value(qv: QuadraticValue, t, mu):
    """Value at (t, mu); at t = T this equals the lifted terminal cost."""
    return qv.at(t)(mu)


@dataclass(frozen=True)
class FeedbackGains:
    """Feedback triple at one time: a(x, mubar) = K1 (x - mubar) + K2 mubar + k."""

    t: float
    K1: np.ndarray
    K2: np.ndarray
    k: np.ndarray

    def control(self, x, mubar):
        """Control at one point x (d,) or a particle block (N, d).

        A 1-d x of length d is one state; for scalar models (d = 1) a 1-d x
        of any other length is a batch of scalar states.
        """
        x = np.atleast_1d(np.asarray(x, dtype=np.float64))
        mubar = np.asarray(mubar, dtype=np.float64).reshape(-1)
        d = self.K1.shape[1]
        if x.ndim == 1 and x.shape[0] != d:
            if d != 1:
                raise ValueError(f"state has length {x.shape[0]}, expected {d}")
            x = x[:, None]
        if x.ndim == 1:
            return affine_feedback(self.K1, self.K2, self.k, x[None, :], mubar)[0]
        return affine_feedback(self.K1, self.K2, self.k, x, mubar)


def optimal_feedback(qv: QuadraticValue, t) -> FeedbackGains:
    """Minimizing feedback at time t: K1 = -U^{-1} S', K2 = -V^{-1} Z', k = -V^{-1} Y / 2.

    The gains are those of the value's kit evaluated as at a solver node,
    at the interpolated solution: linear systems are solved through
    Cholesky factors of U and V, and a factor failure (or an eigenvalue at
    or below the threshold) raises NonPositiveGain.  At a solver node this
    is the same evaluation the solve made there, so it equals the node's
    gains in the solution (RiccatiSolution.K1, K2, k) bit for bit.
    """
    kit = qv.kit
    Lam, Gam, gam, _ = qv.sol.eval(t)
    K1, K2, k = kit.rhs(kit.stack(Lam, Gam, gam), t, True)[2]
    d, m = qv.dyn.d, qv.dyn.m
    return FeedbackGains(t=float(t), K1=np.reshape(K1, (m, d)), K2=np.reshape(K2, (m, d)),
                         k=np.reshape(k, m))


class FeedbackPolicy:
    """Time-indexed optimal feedback a(t, x, mu) = K1(t)(x - mubar) + K2(t) mubar + k(t).

    Affine in (x, mubar) with Lipschitz constant ||K1(t)|| in x.  Gain grids
    whose times are all solver nodes are read from the value's node gains
    (QuadraticValue.node_gains); other grids are built from
    optimal_feedback and cached, so repeated simulations do not re-solve
    the same linear systems.
    """

    def __init__(self, qv: QuadraticValue):
        self.qv = qv
        self._grid_cache = {}

    def gains_at(self, t) -> FeedbackGains:
        return optimal_feedback(self.qv, t)

    def grid_gains(self, t0, dt, n_steps, offset=0):
        """(K1, K2, k) stacked over the nodes t0 + (offset + k) dt.

        Node times are always computed from the base origin t0 and an
        integer step index, so a continuation started mid-grid sees
        bit-identical gains to the original run.  When every such time
        equals a solver node exactly and the value has node gains, the
        gains are those nodes' (equal bit for bit to optimal_feedback
        there); otherwise each is computed.
        """
        node_gains = self.qv.node_gains()
        if node_gains is not None:
            grid = self.qv.sol.grid
            times = t0 + np.arange(offset, offset + n_steps) * dt
            nodes = np.minimum(np.searchsorted(grid, times), grid.shape[0] - 1)
            if np.array_equal(grid[nodes], times):
                return tuple(a[nodes] for a in node_gains)
        key = (float(t0), float(dt), int(n_steps), int(offset))
        if key not in self._grid_cache:
            d, m = self.qv.dyn.d, self.qv.dyn.m
            K1 = np.empty((n_steps, m, d))
            K2 = np.empty((n_steps, m, d))
            kk = np.empty((n_steps, m))
            for j in range(n_steps):
                fb = self.gains_at(t0 + (offset + j) * dt)
                K1[j], K2[j], kk[j] = fb.K1, fb.K2, fb.k
            self._grid_cache[key] = (K1, K2, kk)
        return self._grid_cache[key]


def recover_original(feedback, p: _riccati.SystemicRiskParams, t, x, mubar):
    """Borrowing/lending control of the interbank model.

    Nothing in the package calls this: it is the paper's interbank control
    in its original variable, the form in which acceptance criterion 2
    states it, and it stays for that check and for users of the model.

    The model is solved in the shifted variable a_tilde = a - q(mubar - x);
    inverting the shift gives a = a_tilde - q(x - mubar), i.e.
    -(2 Lam(t) + q)(x - mubar) - 2 Gam(t) mubar - gam(t).  x may be a scalar
    state or a vector of particle states; the result matches its shape.
    """
    fb = feedback.gains_at(t) if isinstance(feedback, FeedbackPolicy) else feedback
    x = np.asarray(x, dtype=np.float64)
    scalar_in = x.ndim == 0
    xs = x.reshape(-1, 1)
    mubar = np.asarray(mubar, dtype=np.float64).reshape(-1)
    orig = fb.control(xs, mubar)[:, 0] - p.q * (xs[:, 0] - mubar[0])
    return float(orig[0]) if scalar_in else orig


def save_policy_csv(qv: QuadraticValue, path):
    """Feedback gains on the solver grid: t, K1 entries, K2 entries, k.

    The gains are the node gains, so qv.sol must be solve_riccati's
    solution for qv's own model.
    """
    node_gains = qv.node_gains()
    if node_gains is None:
        raise ValueError("policy.csv needs the solution solve_riccati found for this model")
    K1, K2, kk = node_gains
    d, m = qv.dyn.d, qv.dyn.m
    pairs = [f"{i}{j}" for i in range(m) for j in range(d)]
    cols = ["t", *(f"K1_{p}" for p in pairs), *(f"K2_{p}" for p in pairs),
            *(f"k_{i}" for i in range(m))]
    _riccati.write_columns(path, cols, (qv.sol.grid, K1, K2, kk))
