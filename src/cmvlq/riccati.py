"""Backward integration of the coupled quadratic-value ODE system.

The quadratic value ansatz Var(mu)(Lam(t)) + mubar'Gam(t) mubar +
mubar'gam(t) + chi(t) solves the dynamic-programming equation iff
(Lam, Gam, gam, chi) satisfy a terminal-value ODE system: two matrix
Riccati equations coupled one-way, a linear vector equation, and a scalar
quadrature.  This module integrates that system with fixed-step classical
RK4 (order 4, bit-reproducible) and provides the closed-form solution of
the scalar interbank-lending example for cross-checking.

One backward sweep (_sweep) yields the solution and its feedback gains.
The first RK4 stage of each step evaluates the right-hand side at the
node itself, and that evaluation already factors U and V and solves for
U^-1 S', V^-1 Z' and V^-1 Y.  The sweep keeps them as the node's gains
K1 = -U^-1 S', K2 = -V^-1 Z', k = -V^-1 Y / 2, and the minimum eigenvalues
of U and V as the node's pd_history; node 0 costs the one extra
evaluation.

The right-hand side takes one of two routes, each a Kit that backward_kit
builds once per model, and the one sweep runs either.  Scalar models
(d = m = 1) are evaluated on Python floats, operation for operation as the
direct array formulas (lqmodel.gain_terms and lqmodel.backward_derivatives)
run on 1x1 arrays, so both give the same bits.  Every other shape is
evaluated on the model's lqmodel.BackwardOperator: the unknowns are
stacked into one vector, the right-hand side's affine part is one matrix
product, what remains is the Cholesky solves with U and V (LAPACK dposv,
from lqmodel.lapack, which imports scipy on first use) and two small
products, and each RK4 stage is one vector operation.  ode_rhs (hence the
value's time derivative) and policy.optimal_feedback evaluate the same
kit's rhs, so a node's gains are optimal_feedback's there by construction.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import DomainError, NonPositiveGain, NumericalBlowup
from .lqmodel import (
    BLOWUP_LIMIT,
    GRID_TOL,
    BackwardOperator,
    LqCost,
    LqDynamics,
    backward_operator,
    check_standing_condition,
    lapack,
    min_eigenvalue,
    require_pd,
    whole_steps,
)


def _require_finite(M, t, which):
    # a finite sum of squares has only finite terms; the elementwise test runs when it is not
    flat = M.ravel()
    if not math.isfinite(flat.dot(flat)) and not np.isfinite(M).all():
        raise NumericalBlowup(f"t={t:.6g}", f"gain matrix {which} is not finite")


def _solve_pd(M, rhs, t, which):
    """M^-1 rhs for the symmetric positive definite M.

    Failure of the Cholesky factorization is the runtime signal that a gain
    matrix lost positive definiteness (NonPositiveGain).  A 1 x 1 M is its
    own factor after a positivity check, and the solve is a division.
    Larger, a non-finite M is a numerical blowup at t and is never
    factored, and the factorization and the solve are one LAPACK call
    (dposv, which is dpotrf then dpotrs).
    """
    if M.shape == (1, 1):
        if not M[0, 0] > 0.0:
            raise NonPositiveGain(t, float(M[0, 0]), which)
        return rhs / M[0, 0]
    _require_finite(M, t, which)
    _, x, info = lapack().dposv(M, rhs, lower=1)
    if info > 0:
        raise NonPositiveGain(t, float(np.min(np.linalg.eigvalsh(M))), which)
    return x


@dataclass(frozen=True)
class Kit:
    """One route of the backward system for one model, built by backward_kit.

    A state is a tuple of components that RK4 combines one by one: the
    floats (Lam, Gam, gam, chi) of a d = m = 1 model, or (z,), the stacked
    unknowns of the model's BackwardOperator op.

    - rhs(state, t, at_node=False) returns the derivatives (a state); with
      at_node also the minimum eigenvalues (of U, of V), tested against the
      positivity threshold before U or V is factored, and the gains
      (K1, K2, k), floats or arrays (both None otherwise).
    - terminal is the state at T; sym(state) is applied after every RK4
      step; check_finite(t, state) raises NumericalBlowup.
    - stack(Lam, Gam, gam) is the state with chi = 0; unstack(columns) is
      (Lam, Gam, gam, chi) of states whose components are stacked, each
      along a first axis.
    """

    dyn: LqDynamics
    cost: LqCost
    rhs: Callable
    terminal: tuple
    sym: Callable
    check_finite: Callable
    stack: Callable
    unstack: Callable
    op: BackwardOperator = None


def _float_kit(dyn, cost):
    """The Kit of a d = m = 1 model, on Python floats.

    Each 1x1 matrix product of the direct formulas is written `a * b + 0.0`,
    because numpy accumulates the single product onto +0.0: a -0.0 product
    becomes +0.0, and every other value is unchanged.  The minimum
    eigenvalue of a 1x1 matrix is its entry; a U or V that is not finite is
    a numerical blowup, as _solve_pd reports it for the larger shapes.
    """
    b0, th, th0 = (float(v[0]) for v in (dyn.b0, dyn.theta, dyn.theta0))
    B, C, D, F, D0, F0, Bs, Ds, D0s = (float(a[0, 0]) for a in (
        dyn.B, dyn.C, dyn.D, dyn.F, dyn.D0, dyn.F0, dyn.Bs, dyn.Ds, dyn.D0s))
    Q2, Q2s, R2, M2 = (float(a[0, 0]) for a in (cost.Q2, cost.Q2s, cost.R2, cost.M2))
    F2, F02, Ds2, D0s2 = 2.0 * F, 2.0 * F0, 2.0 * Ds, 2.0 * D0s

    def rhs(state, t, at_node=False):
        Lam, Gam, gam = state[0], state[1], state[2]
        L = (Lam + Lam) / 2.0
        G = (Gam + Gam) / 2.0
        # gain_blocks
        FLF = (F * L + 0.0) * F + 0.0
        U = FLF + ((F0 * L + 0.0) * F0 + 0.0) + R2
        V = FLF + ((F0 * G + 0.0) * F0 + 0.0) + R2
        U = (U + U) / 2.0
        V = (V + V) / 2.0
        S = ((D * L + 0.0) * F + 0.0) + ((D0 * L + 0.0) * F0 + 0.0) + (L * C + 0.0) + M2
        Z = ((Ds * L + 0.0) * F + 0.0) + ((D0s * G + 0.0) * F0 + 0.0) + (G * C + 0.0) + M2
        Y = (C * gam + 0.0) + (F2 * (L * th + 0.0) + 0.0) + (F02 * (G * th0 + 0.0) + 0.0)
        if not (math.isfinite(U) and math.isfinite(V)):
            which = "V" if math.isfinite(U) else "U"
            raise NumericalBlowup(f"t={t:.6g}", f"gain matrix {which} is not finite")
        if at_node:
            require_pd(t, U, V)
        if not U > 0.0:
            raise NonPositiveGain(t, U, "U")
        if not V > 0.0:
            raise NonPositiveGain(t, V, "V")
        U_inv_St, V_inv_Zt, V_inv_Y = S / U, Z / V, Y / V

        dLam = -(Q2 + ((D * L + 0.0) * D + 0.0) + ((D0 * L + 0.0) * D0 + 0.0)
                 + (L * B + 0.0) + (B * L + 0.0) - (S * U_inv_St + 0.0))
        dGam = -(Q2s + ((Ds * L + 0.0) * Ds + 0.0) + ((D0s * G + 0.0) * D0s + 0.0)
                 + (G * Bs + 0.0) + (Bs * G + 0.0) - (Z * V_inv_Zt + 0.0))
        dgam = -((Bs * gam + 0.0) - (Z * V_inv_Y + 0.0) + (Ds2 * (L * th + 0.0) + 0.0)
                 + (D0s2 * (G * th0 + 0.0) + 0.0) + (2.0 * G * b0 + 0.0))
        dchi = -(-0.25 * (Y * V_inv_Y + 0.0) + (gam * b0 + 0.0)
                 + ((th * L + 0.0) * th + 0.0) + ((th0 * G + 0.0) * th0 + 0.0))
        if not at_node:
            return (dLam, dGam, dgam, dchi), None, None
        return (dLam, dGam, dgam, dchi), (U, V), (-U_inv_St, -V_inv_Zt, -0.5 * V_inv_Y)

    def unstack(columns):
        Lam, Gam, gam, chi = columns
        return Lam.reshape(-1, 1, 1), Gam.reshape(-1, 1, 1), gam.reshape(-1, 1), chi

    return Kit(dyn, cost, rhs,
               terminal=(float(cost.P2[0, 0]), float(cost.P2[0, 0] + cost.P2bar[0, 0]), 0.0, 0.0),
               sym=lambda s: ((s[0] + s[0]) / 2.0, (s[1] + s[1]) / 2.0, s[2], s[3]),
               check_finite=_check_finite_floats,
               stack=lambda Lam, Gam, gam: (float(Lam[0, 0]), float(Gam[0, 0]), float(gam[0]), 0.0),
               unstack=unstack)


def _operator_kit(dyn, cost, op):
    """The Kit of a model on its BackwardOperator op; the state is (z,).

    The affine part of dz is one product with op.A; the rest is the two
    Cholesky solves and two products.  Lam and Gam are symmetric by
    construction, so sym is the identity.
    """
    d = op.d

    def rhs(state, t, at_node=False):
        U, V, St, W, affine = op.affine(state[0])
        eigs = None
        if at_node:
            eigs = (min_eigenvalue(U), min_eigenvalue(V))
            require_pd(t, *eigs)
        U_inv_St = _solve_pd(U, St, t, "U")
        V_inv_W = _solve_pd(V, W, t, "V")
        quadratic = np.concatenate((St.T.dot(U_inv_St).ravel(), W.T.dot(V_inv_W).ravel()))
        dz = (affine + op.weights * quadratic[op.gather],)
        if not at_node:
            return dz, None, None
        return dz, eigs, (-U_inv_St, -V_inv_W[:, :d], -0.5 * V_inv_W[:, d])

    return Kit(dyn, cost, rhs,
               terminal=(op.stack(cost.P2, cost.P2 + cost.P2bar, np.zeros(d)),),
               sym=lambda s: s,
               check_finite=_check_finite,
               stack=lambda Lam, Gam, gam: (op.stack(Lam, Gam, gam),),
               unstack=lambda columns: op.unstack(columns[0]),
               op=op)


def backward_kit(dyn, cost):
    """The Kit of a model: on floats at d = m = 1, else on its BackwardOperator.

    The route is chosen here, from whether the model has an operator
    (lqmodel.backward_operator, None at d = m = 1); a solve, ode_rhs and
    the policy layer all take their route from here.
    """
    op = backward_operator(dyn, cost)
    return _float_kit(dyn, cost) if op is None else _operator_kit(dyn, cost, op)


def ode_rhs(Lam, Gam, gam, dyn, cost, t=float("nan"), kit=None):
    """Time derivatives (dLam, dGam, dgam, dchi) of the backward system.

    The system is autonomous; t only labels error reports.  Lam and Gam
    inputs are symmetrized so every RK4 stage stays on the symmetric cone.
    kit is the model's route (backward_kit), built here when not given.
    """
    kit = kit if kit is not None else backward_kit(dyn, cost)
    derivatives = kit.rhs(kit.stack(Lam, Gam, gam), t)[0]
    Lam, Gam, gam, chi = kit.unstack([np.array([c]) for c in derivatives])
    return Lam[0], Gam[0], gam[0], float(chi[0])


@dataclass(frozen=True)
class RiccatiSolution:
    """Grid solution of the backward system, ascending in time.

    Terminal node holds (P2, P2+P2bar, 0, 0) exactly.  pd_history records
    the minimum eigenvalues of the control weights U, V at every node; an
    accepted solution has all of them above the positivity threshold.
    K1 (n, m, d), K2 (n, m, d) and k (n, m) are the optimal feedback gains
    at every node.  dyn and cost name the model whose gains these are:
    solve_riccati records the model it solved, and a solution built by
    hand without one leaves them None.  kit is the route the solve took
    (None on a hand-built solution); its op is the BackwardOperator the
    solve used (None at d = m = 1).
    """

    grid: np.ndarray
    Lam: np.ndarray
    Gam: np.ndarray
    gam: np.ndarray
    chi: np.ndarray
    pd_history: np.ndarray
    h: float
    T: float
    K1: np.ndarray
    K2: np.ndarray
    k: np.ndarray
    dyn: LqDynamics = field(default=None, repr=False, compare=False)
    cost: LqCost = field(default=None, repr=False, compare=False)
    kit: Kit = field(default=None, repr=False, compare=False)

    @property
    def d(self):
        return self.Lam.shape[1]

    @property
    def n_nodes(self):
        return self.grid.shape[0]

    def eval(self, t):
        """Piecewise-linear interpolation; exact (bitwise) at grid nodes."""
        t = float(t)
        if not math.isfinite(t):
            raise ValueError(f"t={t} is not finite")
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
        # the maximum is NaN when any entry is
        if not np.abs(a).max() <= BLOWUP_LIMIT:
            raise NumericalBlowup(f"t={t:.6g}", "Riccati state exceeded 1e12 or is NaN")


def _check_finite_floats(t, values):
    if not all(abs(v) <= BLOWUP_LIMIT for v in values):
        raise NumericalBlowup(f"t={t:.6g}", "Riccati state exceeded 1e12 or is NaN")


def _sweep(kit, T, K, h):
    """Integrate kit's model from T to 0 in K classical RK4 steps of h; see solve_riccati."""
    rhs, sym, check_finite = kit.rhs, kit.sym, kit.check_finite
    d, m = kit.dyn.d, kit.dyn.m
    grid = np.linspace(0.0, T, K + 1)
    half, sixth = 0.5 * h, h / 6.0
    state = kit.terminal
    columns = [np.empty((K + 1,) + np.shape(c)) for c in state]
    pd_hist = np.empty((K + 1, 2))
    K1 = np.empty((K + 1, m, d))
    K2 = np.empty((K + 1, m, d))
    kk = np.empty((K + 1, m))

    for k in range(K, -1, -1):
        for column, c in zip(columns, state):
            column[k] = c
        t = grid[k]
        k1, pd_hist[k], (K1[k], K2[k], kk[k]) = rhs(state, t, True)
        if k == 0:
            break
        k2 = rhs([s - half * a for s, a in zip(state, k1)], t - half)[0]
        k3 = rhs([s - half * a for s, a in zip(state, k2)], t - half)[0]
        k4 = rhs([s - h * a for s, a in zip(state, k3)], t - h)[0]
        state = sym([s - sixth * (a + 2.0 * b + 2.0 * c + e)
                     for s, a, b, c, e in zip(state, k1, k2, k3, k4)])
        check_finite(grid[k - 1], state)

    Lam, Gam, gam, chi = kit.unstack(columns)
    for arr in (grid, Lam, Gam, gam, chi, pd_hist, K1, K2, kk):
        arr.setflags(write=False)
    return RiccatiSolution(grid=grid, Lam=Lam, Gam=Gam, gam=gam, chi=chi, pd_history=pd_hist,
                           h=T / K, T=T, K1=K1, K2=K2, k=kk, dyn=kit.dyn, cost=kit.cost, kit=kit)


def solve_riccati(dyn: LqDynamics, cost: LqCost, T, h):
    """Integrate the backward system from T to 0 with classical RK4.

    h must divide T into at least two steps.  Lam and Gam are symmetrized
    after every stage.  At each accepted node the minimum eigenvalues of
    the gain matrices U, V are recorded, failing fast with NonPositiveGain
    at or below the positive-definiteness threshold, and the node's
    feedback gains are kept from the same evaluation (see the module
    docstring).  The route is the model's backward_kit, kept as the
    solution's kit.
    """
    T = float(T)
    h = float(h)
    if h <= 0 or T <= 0:
        raise ValueError("T and h must be positive")
    K = whole_steps(T, h, 2, f"h={h} divides T={T}", f"h={h} must divide T={T} into >= 2 steps")

    report = check_standing_condition(cost, delta=1e-8)
    if not report["ok"]:
        warnings.warn(
            "cost data fails the positivity condition; the Riccati system "
            f"may lose positive definiteness (checks: {report['checks']})",
            RuntimeWarning,
            stacklevel=2,
        )
    return _sweep(backward_kit(dyn, cost), T, K, h)


def save_riccati_csv(sol: RiccatiSolution, path):
    """One row per node: t, Lam entries, Gam entries, gam, chi, min eigs."""
    pairs = [f"{i}{j}" for i in range(sol.d) for j in range(sol.d)]
    cols = ["t", *(f"Lam_{p}" for p in pairs), *(f"Gam_{p}" for p in pairs),
            *(f"gam_{i}" for i in range(sol.d)), "chi", "minEigU", "minEigV"]
    write_columns(path, cols, (sol.grid, sol.Lam, sol.Gam, sol.gam, sol.chi, sol.pd_history))


def write_columns(path, names, columns):
    """A CSV row per node of the arrays `columns`, each value its repr, eight rows at a time."""
    with open(path, "w") as fh:
        fh.write(",".join(names) + "\n")
        for a in range(0, len(columns[0]), 8):
            blocks = [c[a:a + 8] for c in columns]
            rows = np.column_stack([b.reshape(len(b), -1) for b in blocks]).tolist()
            fh.writelines(",".join(map(repr, row)) + "\n" for row in rows)


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
