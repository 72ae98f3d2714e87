"""Backward integration of the coupled quadratic-value ODE system.

The quadratic value ansatz Var(mu)(Lam(t)) + mubar'Gam(t) mubar +
mubar'gam(t) + chi(t) solves the dynamic-programming equation iff
(Lam, Gam, gam, chi) satisfy a terminal-value ODE system: two matrix
Riccati equations coupled one-way, a linear vector equation, and a scalar
quadrature.  This module integrates that system with fixed-step classical
RK4 (order 4, bit-reproducible) and provides the closed-form solution of
the scalar interbank-lending example for cross-checking.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np
from scipy.linalg import cho_factor, cho_solve

from .errors import DomainError, NonPositiveGain, NumericalBlowup
from .lqmodel import (
    BLOWUP_LIMIT,
    GRID_TOL,
    PD_THRESHOLD,
    LqCost,
    LqDynamics,
    check_standing_condition,
    gain_blocks,
    gains,
)


def _solve_pd(M, rhs, t, which):
    """Solve M x = rhs with M symmetric positive definite (Cholesky).

    Cholesky failure is the runtime signal that a gain matrix lost
    positive definiteness.  1x1 systems short-circuit to a positivity
    check plus division, which is the scalar Cholesky.
    """
    if M.shape == (1, 1):
        if not M[0, 0] > 0.0:
            raise NonPositiveGain(t, float(M[0, 0]), which)
        return rhs / M[0, 0]
    try:
        factor = cho_factor((M + M.T) / 2.0, lower=True)
    except np.linalg.LinAlgError:
        min_eig = float(np.min(np.linalg.eigvalsh(M)))
        raise NonPositiveGain(t, min_eig, which) from None
    return cho_solve(factor, rhs)


def ode_rhs(Lam, Gam, gam, dyn, cost, t=float("nan")):
    """Time derivatives (dLam, dGam, dgam, dchi) of the backward system.

    The system is autonomous; t only labels error reports.  Lam and Gam
    inputs are symmetrized so every RK4 stage stays on the symmetric cone.
    """
    Lam = (Lam + Lam.T) / 2.0
    Gam = (Gam + Gam.T) / 2.0
    U, V, S, Z, Y = gain_blocks(Lam, Gam, gam, dyn, cost)
    U_inv_St = _solve_pd(U, S.T, t, "U")
    V_inv_Zt = _solve_pd(V, Z.T, t, "V")
    V_inv_Y = _solve_pd(V, Y, t, "V")

    B, Bbar = dyn.B, dyn.Bbar
    D, Dbar, D0, D0bar = dyn.D, dyn.Dbar, dyn.D0, dyn.D0bar
    th, th0, b0 = dyn.theta, dyn.theta0, dyn.b0

    dLam = -(cost.Q2 + D.T @ Lam @ D + D0.T @ Lam @ D0 + Lam @ B + B.T @ Lam - S @ U_inv_St)
    Bs = B + Bbar
    Ds = D + Dbar
    D0s = D0 + D0bar
    dGam = -(cost.Q2 + cost.Q2bar + Ds.T @ Lam @ Ds + D0s.T @ Gam @ D0s
             + Gam @ Bs + Bs.T @ Gam - Z @ V_inv_Zt)
    dgam = -(Bs.T @ gam - Z @ V_inv_Y + 2.0 * Ds.T @ (Lam @ th)
             + 2.0 * D0s.T @ (Gam @ th0) + 2.0 * Gam @ b0)
    dchi = -(-0.25 * float(Y @ V_inv_Y) + float(gam @ b0)
             + float(th @ Lam @ th) + float(th0 @ Gam @ th0))
    return dLam, dGam, dgam, dchi


@dataclass(frozen=True)
class RiccatiSolution:
    """Grid solution of the backward system, ascending in time.

    Terminal node holds (P2, P2+P2bar, 0, 0) exactly.  pd_history records
    the minimum eigenvalues of the control weights U, V at every node; an
    accepted solution has all of them above the positivity threshold.
    """

    grid: np.ndarray
    Lam: np.ndarray
    Gam: np.ndarray
    gam: np.ndarray
    chi: np.ndarray
    pd_history: np.ndarray
    h: float
    T: float

    @property
    def d(self):
        return self.Lam.shape[1]

    @property
    def n_nodes(self):
        return self.grid.shape[0]

    def eval(self, t):
        """Piecewise-linear interpolation; exact (bitwise) at grid nodes."""
        t = float(t)
        if t < -GRID_TOL * max(1.0, self.T) or t > self.T * (1.0 + GRID_TOL) + GRID_TOL:
            raise ValueError(f"t={t} outside [0, {self.T}]")
        t = min(max(t, 0.0), self.T)
        k = int(np.searchsorted(self.grid, t, side="right")) - 1
        if k >= self.n_nodes - 1:
            k = self.n_nodes - 1
        if t == self.grid[k]:
            return self.Lam[k], self.Gam[k], self.gam[k], self.chi[k]
        w = (t - self.grid[k]) / (self.grid[k + 1] - self.grid[k])
        wl = 1.0 - w
        return (
            wl * self.Lam[k] + w * self.Lam[k + 1],
            wl * self.Gam[k] + w * self.Gam[k + 1],
            wl * self.gam[k] + w * self.gam[k + 1],
            wl * self.chi[k] + w * self.chi[k + 1],
        )


def _check_finite(t, arrays):
    for a in arrays:
        a = np.asarray(a)
        if not np.all(np.isfinite(a)) or np.max(np.abs(a)) > BLOWUP_LIMIT:
            raise NumericalBlowup(f"t={t:.6g}", "Riccati state exceeded 1e12 or is NaN")


def solve_riccati(dyn: LqDynamics, cost: LqCost, T, h):
    """Integrate the backward system from T to 0 with classical RK4.

    h must divide T into at least two steps.  Lam and Gam are symmetrized
    after every stage; at each accepted node the gain matrices are
    recomputed and their minimum eigenvalues recorded, failing fast with
    NonPositiveGain below the positive-definiteness threshold.
    """
    T = float(T)
    h = float(h)
    if h <= 0 or T <= 0:
        raise ValueError("T and h must be positive")
    K = int(round(T / h))
    if K < 2 or abs(K * h - T) > GRID_TOL * max(1.0, T):
        raise ValueError(f"h={h} must divide T={T} into >= 2 steps")

    report = check_standing_condition(cost, delta=1e-8)
    if not report["ok"]:
        warnings.warn(
            "cost data fails the positivity condition; the Riccati system "
            f"may lose positive definiteness (checks: {report['checks']})",
            RuntimeWarning,
            stacklevel=2,
        )

    d = dyn.d
    grid = np.linspace(0.0, T, K + 1)
    Lam = np.empty((K + 1, d, d))
    Gam = np.empty((K + 1, d, d))
    gam = np.empty((K + 1, d))
    chi = np.empty(K + 1)
    pd_hist = np.empty((K + 1, 2))

    Lam[K] = cost.P2
    Gam[K] = cost.P2 + cost.P2bar
    gam[K] = 0.0
    chi[K] = 0.0

    def record(k):
        g = gains(grid[k], Lam[k], Gam[k], gam[k], dyn, cost)
        pd_hist[k, 0] = g.min_eig_u
        pd_hist[k, 1] = g.min_eig_v
        if not g.pd_ok:
            which = "U" if g.min_eig_u <= PD_THRESHOLD else "V"
            raise NonPositiveGain(grid[k], min(g.min_eig_u, g.min_eig_v), which)

    record(K)
    y = (Lam[K].copy(), Gam[K].copy(), gam[K].copy(), float(chi[K]))
    for k in range(K, 0, -1):
        t = grid[k]
        L0, G0, g0, c0 = y
        k1 = ode_rhs(L0, G0, g0, dyn, cost, t)
        k2 = ode_rhs(L0 - 0.5 * h * k1[0], G0 - 0.5 * h * k1[1], g0 - 0.5 * h * k1[2], dyn, cost, t - 0.5 * h)
        k3 = ode_rhs(L0 - 0.5 * h * k2[0], G0 - 0.5 * h * k2[1], g0 - 0.5 * h * k2[2], dyn, cost, t - 0.5 * h)
        k4 = ode_rhs(L0 - h * k3[0], G0 - h * k3[1], g0 - h * k3[2], dyn, cost, t - h)
        L1 = L0 - (h / 6.0) * (k1[0] + 2.0 * k2[0] + 2.0 * k3[0] + k4[0])
        G1 = G0 - (h / 6.0) * (k1[1] + 2.0 * k2[1] + 2.0 * k3[1] + k4[1])
        g1 = g0 - (h / 6.0) * (k1[2] + 2.0 * k2[2] + 2.0 * k3[2] + k4[2])
        c1 = c0 - (h / 6.0) * (k1[3] + 2.0 * k2[3] + 2.0 * k3[3] + k4[3])
        L1 = (L1 + L1.T) / 2.0
        G1 = (G1 + G1.T) / 2.0
        _check_finite(grid[k - 1], (L1, G1, g1, np.asarray(c1)))
        Lam[k - 1], Gam[k - 1], gam[k - 1], chi[k - 1] = L1, G1, g1, c1
        record(k - 1)
        y = (L1, G1, g1, c1)

    for arr in (grid, Lam, Gam, gam, chi, pd_hist):
        arr.setflags(write=False)
    return RiccatiSolution(grid=grid, Lam=Lam, Gam=Gam, gam=gam, chi=chi,
                           pd_history=pd_hist, h=T / K, T=T)


def save_riccati_csv(sol: RiccatiSolution, path):
    """One row per node: t, Lam entries, Gam entries, gam, chi, min eigs."""
    d = sol.d
    cols = ["t"]
    cols += [f"Lam_{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"Gam_{i}{j}" for i in range(d) for j in range(d)]
    cols += [f"gam_{i}" for i in range(d)]
    cols += ["chi", "minEigU", "minEigV"]
    with open(path, "w") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(sol.n_nodes):
            row = [sol.grid[k]]
            row += list(sol.Lam[k].reshape(-1))
            row += list(sol.Gam[k].reshape(-1))
            row += list(sol.gam[k])
            row += [sol.chi[k], sol.pd_history[k, 0], sol.pd_history[k, 1]]
            fh.write(",".join(repr(float(v)) for v in row) + "\n")


# ---------------------------------------------------------------------------
# interbank systemic-risk example (scalar state, scalar control)

@dataclass(frozen=True)
class SystemicRiskParams:
    """Parameters of the interbank borrowing/lending model.

    kappa is the mean-reversion rate, q the incentive weight, eta and c the
    running/terminal penalties on departure from the average reserve,
    (sigma0, sigma1) the affine volatility, rho the common-noise loading.
    The closed-form Riccati solution additionally requires q^2 <= eta.
    """

    kappa: float
    q: float
    eta: float
    c: float
    sigma0: float
    sigma1: float
    rho: float
    T: float
    x0: float

    def __post_init__(self):
        if self.kappa < 0:
            raise ValueError("kappa must be >= 0")
        if self.q < 0:
            raise ValueError("q must be >= 0")
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.c < 0:
            raise ValueError("c must be >= 0")
        if self.sigma0 <= 0:
            raise ValueError("sigma0 must be positive")
        if not -1.0 <= self.rho <= 1.0:
            raise ValueError("rho must lie in [-1, 1]")
        if self.T <= 0:
            raise ValueError("T must be positive")
        for name in ("kappa", "q", "eta", "c", "sigma0", "sigma1", "rho", "T", "x0"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def delta_pm(p: SystemicRiskParams):
    """Characteristic roots of the scalar Riccati equation."""
    if p.q ** 2 > p.eta:
        raise DomainError(f"closed form requires q^2 <= eta (q={p.q}, eta={p.eta})")
    a = p.kappa + p.q - 0.5 * p.sigma1 ** 2
    r = math.sqrt(a * a + p.eta - p.q ** 2)
    return -a + r, -a - r


def closed_form_lambda(p: SystemicRiskParams, t):
    """Explicit solution of the scalar Riccati equation at time t.

    Terminal value c/2; strictly positive on [0, T] whenever c > 0.
    Requires q^2 <= eta.
    """
    t = float(t)
    if t < -GRID_TOL or t > p.T + GRID_TOL:
        raise ValueError(f"t={t} outside [0, {p.T}]")
    t = min(max(t, 0.0), p.T)
    dp, dm = delta_pm(p)
    width = dp - dm
    if width == 0.0:
        # double root: eta = q^2 and kappa + q = sigma1^2/2
        return 0.5 * p.c / (1.0 + p.c * (p.T - t))
    e = math.exp(width * (p.T - t))
    num = (p.eta - p.q ** 2) * (e - 1.0) + p.c * (dp * e - dm)
    den = p.c * (e - 1.0) + dp - dm * e
    return 0.5 * num / den


def systemic_risk_model(p: SystemicRiskParams):
    """LQ data of the interbank model, in the shifted control variable.

    The cost is written after square completion, i.e. in the control
    a_tilde = a - q(mubar - x); with that variable the cross weight M2
    vanishes and the generic backward system reduces exactly to the scalar
    equations with closed-form solution.  The borrowing/lending control is
    recovered by the policy layer.
    """
    root = math.sqrt(1.0 - p.rho ** 2)
    dyn = LqDynamics(
        b0=0.0, B=-(p.kappa + p.q), Bbar=p.kappa + p.q, C=1.0,
        theta=p.sigma0 * root, D=p.sigma1 * root, Dbar=0.0, F=0.0,
        theta0=p.sigma0 * p.rho, D0=p.sigma1 * p.rho, D0bar=0.0, F0=0.0,
    )
    half_spread = 0.5 * (p.eta - p.q ** 2)
    cost = LqCost(Q2=half_spread, Q2bar=-half_spread, R2=0.5, P2=0.5 * p.c, P2bar=-0.5 * p.c)
    return dyn, cost
