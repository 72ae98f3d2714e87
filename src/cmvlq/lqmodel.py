"""Linear-quadratic problem data.

Holds the affine dynamics coefficients and quadratic cost matrices of the
controlled mean-field model, the affine feedback and the coefficients'
loadings of (x, mbar, 1) under it (step_loadings), the exact expected
moments of the Euler particle scheme's cloud (expected_moments), the lifted
(measure-level) running and terminal cost as one quadratic form in a
cloud's mean and second moment, the gain matrices entering the optimal
feedback, and the standing positivity condition on the cost data.

Conventions: the state lives in R^d, controls in R^m, and the model has one
idiosyncratic and one common Brownian motion, so the volatility coefficients
are R^d-valued.  All cost matrices are symmetrized on construction.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field, fields, replace
from functools import cache

import numpy as np

from .errors import NonPositiveGain, NumericalBlowup
from .measure import triu

SYM_TOL = 1e-12
PD_THRESHOLD = 1e-10
BLOWUP_LIMIT = 1e12
GRID_TOL = 1e-9


def whole_steps(span, step, least, what, wrong):
    """round(span / step) if that many steps, at least `least`, make up span within GRID_TOL.

    Else ValueError(wrong); a count past sys.maxsize, tested before the round,
    is a ValueError led by `what`, as in "dt=0.1 divides T - t0 = 1.0"."""
    if not span / step <= sys.maxsize:
        raise ValueError(f"{what} into more than {sys.maxsize} steps")
    n = int(round(span / step))
    if n < least or abs(n * step - span) > GRID_TOL * max(1.0, span):
        raise ValueError(wrong)
    return n


# every model coefficient, in model-file order, with its shape in the state
# dimension d and the control dimension m: one letter for a vector, two for a matrix
SHAPES = {
    "b0": "d", "B": "dd", "Bbar": "dd", "C": "dm", "theta": "d", "D": "dd", "Dbar": "dd",
    "F": "dm", "theta0": "d", "D0": "dd", "D0bar": "dd", "F0": "dm",
    "Q2": "dd", "Q2bar": "dd", "R2": "mm", "P2": "dd", "P2bar": "dd", "M2": "dm",
}
MODEL_KEYS = ["d", "m", "T", *SHAPES]


def _coefficients(pairs, d, m, symmetric=False):
    """The coefficients (name, value) of `pairs` as arrays of their SHAPES at d and m, in turn.

    A vector is flattened; a scalar or a flat list fills a matrix row-major
    when its size fits, else a column.  Each must then have its shape and
    be finite and, with `symmetric`, square weights (dd, mm) are
    symmetrized after a check that they are symmetric within SYM_TOL.
    """
    size = {"d": d, "m": m}
    out = {}
    for name, value in pairs:
        shape = tuple(size[c] for c in SHAPES[name])
        a = np.asarray(value, dtype=np.float64)
        if len(shape) == 1:
            a = a.reshape(-1)
            if a.size == 1 and shape[0] > 1:
                raise ValueError(f"{name} has size 1, expected {shape[0]}")
        elif a.ndim < 2:
            a = a.reshape(shape if a.size == shape[0] * shape[1] else (-1, 1))
        if a.shape != shape:
            raise ValueError(f"{name} has shape {a.shape}, expected {shape}")
        if not np.all(np.isfinite(a)):
            raise ValueError(f"{name} contains non-finite entries")
        if symmetric and SHAPES[name] in ("dd", "mm"):
            gap = float(np.max(np.abs(a - a.T))) if shape[0] > 1 else 0.0
            if gap > SYM_TOL * max(1.0, float(np.max(np.abs(a)))):
                raise ValueError(f"{name} is not symmetric (max asymmetry {gap:.3e})")
            a = (a + a.T) / 2.0
        out[name] = a
    return out


@dataclass(frozen=True)
class LqDynamics:
    """Affine coefficients of the controlled dynamics.

    drift      b0 + B x + Bbar mubar + C a(x)
    idio vol   theta + D x + Dbar mubar + F a(x)
    common vol theta0 + D0 x + D0bar mubar + F0 a(x)

    Bs, Ds and D0s hold the sums B + Bbar, D + Dbar and D0 + D0bar, which
    load the mean in the backward system.  Gx = [B' D' D0'], Gm = [Bbar'
    Dbar' D0bar'] and Ga = [C' F' F0'], 3d columns each, with g0 = [b0,
    theta, theta0], stack the three coefficients' loadings of the state,
    the mean and the control, so step_loadings makes one product per
    operand.  All are computed once here.
    """

    b0: np.ndarray
    B: np.ndarray
    Bbar: np.ndarray
    C: np.ndarray
    theta: np.ndarray
    D: np.ndarray
    Dbar: np.ndarray
    F: np.ndarray
    theta0: np.ndarray
    D0: np.ndarray
    D0bar: np.ndarray
    F0: np.ndarray
    Bs: np.ndarray = field(init=False, repr=False, compare=False)
    Ds: np.ndarray = field(init=False, repr=False, compare=False)
    D0s: np.ndarray = field(init=False, repr=False, compare=False)
    Gx: np.ndarray = field(init=False, repr=False, compare=False)
    Gm: np.ndarray = field(init=False, repr=False, compare=False)
    Ga: np.ndarray = field(init=False, repr=False, compare=False)
    g0: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        B = np.atleast_2d(np.asarray(self.B, dtype=np.float64))
        d = B.shape[0]
        C = np.asarray(self.C, dtype=np.float64)
        if C.ndim == 0:
            C = C.reshape(1, 1)
        elif C.ndim == 1:
            C = C.reshape(d, -1)
        m = C.shape[1]
        # until norm is set, vars(self) holds the constructor's arguments alone
        norm = _coefficients({**vars(self), "B": B, "C": C}.items(), d, m)
        for k in ("B", "D", "D0"):
            norm[k + "s"] = norm[k] + norm[k + "bar"]
        for stacked, names in (("Gx", ("B", "D", "D0")), ("Gm", ("Bbar", "Dbar", "D0bar")),
                               ("Ga", ("C", "F", "F0"))):
            norm[stacked] = np.concatenate([norm[k].T for k in names], axis=1)
        norm["g0"] = np.concatenate((norm["b0"], norm["theta"], norm["theta0"]))
        for k, v in norm.items():
            v.setflags(write=False)
            object.__setattr__(self, k, v)

    @property
    def d(self):
        return self.B.shape[0]

    @property
    def m(self):
        return self.C.shape[1]


@dataclass(frozen=True)
class LqCost:
    """Quadratic cost matrices; M2 is the state-control cross weight.

    Pointwise running cost x'Q2 x + mubar'Q2bar mubar + a'R2 a + 2 x'M2 a,
    terminal cost x'P2 x + mubar'P2bar mubar.  M2 defaults to zero, which
    recovers the cross-term-free form.  Q2s = Q2 + Q2bar and triu_diag, the
    diagonal's positions in a second moment (measure.triu), are made once.
    """

    Q2: np.ndarray
    Q2bar: np.ndarray
    R2: np.ndarray
    P2: np.ndarray
    P2bar: np.ndarray
    M2: np.ndarray = None
    Q2s: np.ndarray = field(init=False, repr=False, compare=False)
    triu_diag: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        Q2 = np.atleast_2d(np.asarray(self.Q2, dtype=np.float64))
        d = Q2.shape[0]
        R2 = np.atleast_2d(np.asarray(self.R2, dtype=np.float64))
        m = R2.shape[0]
        M2 = np.zeros((d, m)) if self.M2 is None else self.M2
        norm = _coefficients({**vars(self), "Q2": Q2, "R2": R2, "M2": M2}.items(), d, m, True)
        norm["Q2s"] = norm["Q2"] + norm["Q2bar"]
        norm["triu_diag"] = np.flatnonzero(np.equal(*triu(d)))
        for k, v in norm.items():
            v.setflags(write=False)
            object.__setattr__(self, k, v)


@dataclass(frozen=True)
class GainMatrices:
    """Control-weight and coupling matrices at one time.

    U, V weight the centered and mean parts of the control; S, Z couple the
    control to the centered state and to the mean; Y is the affine term.
    Positive definiteness of U and V is checked, never assumed.
    """

    t: float
    U: np.ndarray
    V: np.ndarray
    S: np.ndarray
    Z: np.ndarray
    Y: np.ndarray
    min_eig_u: float
    min_eig_v: float
    pd_ok: bool = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "pd_ok", pd_holds(self.min_eig_u, self.min_eig_v))


@cache
def lapack():
    """scipy.linalg.lapack, imported on the first call and the same module after it.

    Only models larger than 1 x 1 factor a matrix or take its eigenvalues
    (dsyev here, dposv in riccati), so a d = m = 1 command never pays
    scipy's import, which costs more than numpy's.
    """
    import scipy.linalg.lapack

    return scipy.linalg.lapack


def min_eigenvalue(M):
    """Smallest eigenvalue of the symmetric matrix M (LAPACK dsyev; the entry itself at 1 x 1).

    dsyev returns A(1, 1) at order 1, so the shortcut gives its bits.
    """
    if M.shape == (1, 1):
        return float(M[0, 0])
    return float(lapack().dsyev(M, compute_v=0)[0][0])


def pd_holds(min_eig_u, min_eig_v):
    """Whether both minimum eigenvalues exceed PD_THRESHOLD (False on NaN)."""
    return bool(min_eig_u > PD_THRESHOLD and min_eig_v > PD_THRESHOLD)


def require_pd(t, min_eig_u, min_eig_v):
    """NonPositiveGain at t unless pd_holds.

    The error carries the smaller eigenvalue and names U whenever U fails.
    """
    if not pd_holds(min_eig_u, min_eig_v):
        which = "U" if min_eig_u <= PD_THRESHOLD else "V"
        raise NonPositiveGain(t, min(min_eig_u, min_eig_v), which)


def gain_terms(Lam, Gam, gam, dyn, cost):
    """gain_blocks of 2-d Lam, Gam and 1-d gam, with the products the backward system reuses.

    Returns ((U, V, S, Z, Y), (D'Lam, D0'Lam, Ds'Lam, D0s'Gam, Lam theta,
    Gam theta0)); each product is computed once for both of its uses.
    """
    F, F0, C = dyn.F, dyn.F0, dyn.C
    FtLF = F.T @ Lam @ F
    DtL, D0tL, DstL, D0stG = dyn.D.T @ Lam, dyn.D0.T @ Lam, dyn.Ds.T @ Lam, dyn.D0s.T @ Gam
    L_th, G_th0 = Lam @ dyn.theta, Gam @ dyn.theta0
    U = FtLF + F0.T @ Lam @ F0 + cost.R2
    V = FtLF + F0.T @ Gam @ F0 + cost.R2
    U = (U + U.T) / 2.0
    V = (V + V.T) / 2.0
    S = DtL @ F + D0tL @ F0 + Lam @ C + cost.M2
    Z = DstL @ F + D0stG @ F0 + Gam @ C + cost.M2
    Y = C.T @ gam + 2.0 * F.T @ L_th + 2.0 * F0.T @ G_th0
    return (U, V, S, Z, Y), (DtL, D0tL, DstL, D0stG, L_th, G_th0)


def backward_derivatives(Lam, Gam, gam, blocks, products, solves, dyn, cost):
    """Right-hand side (dLam, dGam, dgam, dchi) of the backward system.

    blocks are (S, Z, Y) and products the reused products of gain_terms at
    (Lam, Gam, gam); solves are (U^-1 S', V^-1 Z', V^-1 Y).  With zero
    solves this is the right-hand side's affine part.
    """
    S, Z, Y = blocks
    DtL, D0tL, DstL, D0stG, L_th, G_th0 = products
    U_inv_St, V_inv_Zt, V_inv_Y = solves
    B, D, D0 = dyn.B, dyn.D, dyn.D0
    Bs, Ds, D0s = dyn.Bs, dyn.Ds, dyn.D0s
    th, th0, b0 = dyn.theta, dyn.theta0, dyn.b0

    dLam = -(cost.Q2 + DtL @ D + D0tL @ D0 + Lam @ B + B.T @ Lam - S @ U_inv_St)
    dGam = -(cost.Q2s + DstL @ Ds + D0stG @ D0s + Gam @ Bs + Bs.T @ Gam - Z @ V_inv_Zt)
    dgam = -(Bs.T @ gam - Z @ V_inv_Y + 2.0 * Ds.T @ L_th
             + 2.0 * D0s.T @ G_th0 + 2.0 * Gam @ b0)
    dchi = -(-0.25 * float(Y @ V_inv_Y) + float(gam @ b0)
             + float(th @ Lam @ th) + float(th0 @ Gam @ th0))
    return dLam, dGam, dgam, dchi


class BackwardOperator:
    """The affine part of the backward system's right-hand side as one matrix.

    The unknowns are stacked as z = (Lam[iu], Gam[iu], gam, chi), with iu
    the upper triangle, so Lam and Gam are symmetric by construction.  Every
    term of the right-hand side that is affine in z, namely U, V, S', [Z' | Y]
    and the affine parts of (dLam, dGam, dgam, dchi), is y = A z + c: by
    vec(P X Q) = (Q' kron P) vec(X), each is a fixed linear map of z.  A
    holds the direct formulas (gain_terms, backward_derivatives with zero
    solves) evaluated on the basis of z, c their value at z = 0.  Rows for
    the (i, j) and (j, i) entries of the symmetric outputs U, V, dLam and
    dGam are averaged into one, so those come out exactly symmetric.  The
    one term left out of A is S's Lam C, added as that product: S is then
    exactly Lam C, as the direct formula gives it, for a model whose
    volatilities carry no control and which has no cross weight.

    What is left of the right-hand side is nonlinear: the Cholesky solves
    U^-1 S' and V^-1 [Z' | Y] and the products S U^-1 S' and
    [Z' | Y]' V^-1 [Z' | Y], whose entries gather (quadratic, weights) adds
    to the affine part.  Built once per model, for every model other than
    d = m = 1 (see backward_operator).
    """

    def __init__(self, dyn, cost):
        d, m = dyn.d, dyn.m
        self.d, self.m = d, m
        iu, ium = np.triu_indices(d), np.triu_indices(m)
        nu, mu = iu[0].size, ium[0].size
        self.n = n = 2 * nu + d
        self.size = n + 1
        # unique index of every entry of a symmetric d x d (m x m) matrix, row-major
        full = _symmetric_index(d, iu)
        full_m = _symmetric_index(m, ium)
        self._iu, self._full, self._nu = iu, full, nu
        self._gam = slice(2 * nu, 2 * nu + d)
        self._C = dyn.C
        zeros = (np.zeros((m, d)), np.zeros((m, d)), np.zeros(m))
        no_drift_loading = replace(dyn, C=np.zeros((d, m)))

        def affine_part(z, cost):
            Lam, Gam, gam = z[full].reshape(d, d), z[nu + full].reshape(d, d), z[self._gam]
            (U, V, _, Z, Y), products = gain_terms(Lam, Gam, gam, dyn, cost)
            S = gain_terms(Lam, Gam, gam, no_drift_loading, cost)[0][2]
            dLam, dGam, dgam, dchi = backward_derivatives(Lam, Gam, gam, (S, Z, Y), products,
                                                          zeros, dyn, cost)
            return np.concatenate((
                U[ium], V[ium], S.T.ravel(), np.column_stack((Z.T, Y)).ravel(),
                ((dLam + dLam.T) / 2.0)[iu], ((dGam + dGam.T) / 2.0)[iu], dgam, [dchi]))

        linear = LqCost(Q2=np.zeros((d, d)), Q2bar=np.zeros((d, d)), R2=np.zeros((m, m)),
                        P2=np.zeros((d, d)), P2bar=np.zeros((d, d)))
        self.A = np.column_stack([affine_part(np.eye(1, n + 1, j)[0], linear) for j in range(n)])
        self.c = affine_part(np.zeros(n + 1), cost)
        # y = (A z + c)[expand] is U and V (m x m), S' (m x d), [Z' | Y] (m x (d+1)) and
        # the affine part of dz (n + 1), each C-ordered
        self.expand = np.concatenate((full_m, mu + full_m, np.arange(2 * mu, self.c.size)))
        bounds = np.cumsum([0, m * m, m * m, m * d, m * (d + 1)])
        self._u, self._v, self._st, self._w = map(slice, bounds[:-1], bounds[1:])
        self._lin = slice(bounds[-1], None)
        # dz adds these entries of (S U^-1 S').ravel() followed by ([Z'|Y]' V^-1 [Z'|Y]).ravel():
        # S U^-1 S' at Lam's, Z V^-1 Z' at Gam's, Z V^-1 Y at gam's and Y' V^-1 Y / 4 at chi
        e = d * d
        self.gather = np.concatenate((iu[0] * d + iu[1], e + iu[0] * (d + 1) + iu[1],
                                      e + np.arange(d) * (d + 1) + d, [e + (d + 1) ** 2 - 1]))
        self.weights = np.ones(n + 1)
        self.weights[-1] = 0.25
        for a in (self.A, self.c, self.expand, self.gather, self.weights):
            a.setflags(write=False)

    def stack(self, Lam, Gam, gam):
        """z of 2-d Lam, Gam (their symmetric parts) and 1-d gam, with chi = 0."""
        Lam = np.atleast_2d(np.asarray(Lam, dtype=np.float64))
        Gam = np.atleast_2d(np.asarray(Gam, dtype=np.float64))
        return np.concatenate((((Lam + Lam.T) / 2.0)[self._iu], ((Gam + Gam.T) / 2.0)[self._iu],
                               np.asarray(gam, dtype=np.float64).reshape(-1), [0.0]))

    def unstack(self, z):
        """(Lam, Gam, gam, chi) of z, or of a stack of them along the first axis."""
        nu, d, lead = self._nu, self.d, z.shape[:-1]
        return (z[..., self._full].reshape(lead + (d, d)),
                z[..., nu + self._full].reshape(lead + (d, d)),
                z[..., self._gam].copy(), z[..., -1].copy())

    def affine(self, z):
        """(U, V, S', [Z' | Y], affine part of dz) at z."""
        y = (self.A.dot(z[:self.n]) + self.c)[self.expand]
        m, d = self.m, self.d
        St = y[self._st].reshape(m, d)
        St += (z[self._full].reshape(d, d) @ self._C).T
        return (y[self._u].reshape(m, m), y[self._v].reshape(m, m), St,
                y[self._w].reshape(m, d + 1), y[self._lin])

    def gain_blocks(self, Lam, Gam, gam):
        """(U, V, S, Z, Y) at Lam, Gam, gam; see lqmodel.gain_blocks."""
        U, V, St, W, _ = self.affine(self.stack(Lam, Gam, gam))
        return U, V, St.T, W[:, :self.d].T, W[:, self.d]


def _symmetric_index(d, iu):
    """For each entry of a d x d matrix, row-major, its position in the upper triangle iu."""
    full = np.empty((d, d), dtype=np.intp)
    full[iu] = full[iu[1], iu[0]] = np.arange(iu[0].size)
    return full.ravel()


def backward_operator(dyn, cost):
    """The model's BackwardOperator, or None at d = m = 1.

    Without one, gain_blocks keeps the direct formulas and
    riccati.backward_kit the route on Python floats.
    """
    return None if dyn.d == 1 and dyn.m == 1 else BackwardOperator(dyn, cost)


def gain_blocks(Lam, Gam, gam, dyn, cost, op=None):
    """Raw (U, V, S, Z, Y) without eigenvalue diagnostics.

    Note the mean-coupling Z pairs Gam with F0 (the common-noise control
    loading), mirroring how V pairs Gam with F0; this is what makes the
    square-completion identity exact for all coefficient choices.

    A d = m = 1 model evaluates gain_terms; every other model goes through
    its BackwardOperator op, which reads the symmetric parts of Lam and Gam
    and is built here when not given.  A caller that evaluates one model
    many times passes the operator it holds (the op of RiccatiSolution.kit
    or QuadraticValue.kit), so the blocks are those the solver used.
    """
    op = op if op is not None else backward_operator(dyn, cost)
    if op is not None:
        return op.gain_blocks(Lam, Gam, gam)
    Lam = np.atleast_2d(np.asarray(Lam, dtype=np.float64))
    Gam = np.atleast_2d(np.asarray(Gam, dtype=np.float64))
    gam = np.asarray(gam, dtype=np.float64).reshape(-1)
    return gain_terms(Lam, Gam, gam, dyn, cost)[0]


def gains(t, Lam, Gam, gam, dyn, cost, op=None):
    """Gain matrices at time t, with positive-definiteness diagnostics; op as in gain_blocks.

    No solve or feedback goes through here: those take U and V from the
    model's riccati.Kit.  This stays as the public diagnostic view of U, V,
    S, Z and Y at any (Lam, Gam, gam), which RiccatiSolution.pd_history
    and the node gains are tested against.
    """
    U, V, S, Z, Y = gain_blocks(Lam, Gam, gam, dyn, cost, op)
    return GainMatrices(t=float(t), U=U, V=V, S=S, Z=Z, Y=Y, min_eig_u=min_eigenvalue(U),
                        min_eig_v=min_eigenvalue(V))


@dataclass(frozen=True)
class LqModel:
    """An LQ problem on [0, T]: affine dynamics and quadratic costs."""

    dyn: LqDynamics
    cost: LqCost
    T: float

    @property
    def d(self):
        return self.dyn.d

    @property
    def m(self):
        return self.dyn.m


# ---------------------------------------------------------------------------
# the coefficients' loadings under the affine feedback K1 (x - mbar) + K2 mbar
# + k; gains K1, K2 (..., m, d) and k (..., m)

def step_loadings(dyn, K1, K2, k):
    """Loadings (L, G, g) of x, mbar and 1 in the coefficients under K1 (x - mbar) + K2 mbar + k.

    The drift and both volatilities of a particle at x in a cloud of mean
    mbar are the d-column blocks of x L + mbar G + g: L = Gx + K1' Ga and
    G = Gm + (K2 - K1)' Ga (..., d, 3d), g = g0 + k Ga (..., 1, 3d).
    """
    L = dyn.Gx + matprod(np.swapaxes(K1, -1, -2), dyn.Ga)
    G = dyn.Gm + matprod(np.swapaxes(K2 - K1, -1, -2), dyn.Ga)
    g = dyn.g0 + matprod(k[..., None, :], dyn.Ga)
    return L, G, g


def expected_moments(dyn, K1, K2, k, mbar, second, dt, n):
    """Exact expected moments of the Euler scheme's n-particle cloud at the K + 1 nodes of K steps.

    Gains K1, K2 (K, m, d), k (K, m); the start cloud's moments mbar (d,), second (d(d+1)/2,).
    With u = (x, mbar, 1), x+ = u (P0 + P1 dW0 + P2 dB), P0 = [I; 0; 0] + P_b dt, where P_b,
    P2 and P1 are the drift, idiosyncratic and common blocks of step_loadings' [L; G; g]:
    E[E2+] = P0'Sigma P0 + dt P1'Sigma P1 + dt P2'Sigma P2, E[mbar+'mbar+] = P0'Ubar P0 +
    dt P1'Ubar P1 + (dt/n) P2'Sigma P2 and E[mbar+] = ubar P0, with Sigma = E_i u'u, ubar =
    (mbar, mbar, 1) and Ubar = ubar'ubar.  Returns means (K + 1, 2d, d) and second moments
    (K + 1, 2d, d(d+1)/2) of the 2d clouds E mbar +- sqrt(d) c_j (c_j the columns of a factor
    of Cov(mbar)) of second moment E[E2]: their average of anything quadratic in the mean and
    linear in the second moment is its expectation.  A trace of E[E2] past BLOWUP_LIMIT^2, or
    NaN, raises NumericalBlowup naming dt and the step.
    """
    d = dyn.d
    P = np.concatenate(step_loadings(dyn, K1, K2, k), axis=-2)
    P[..., :d] *= dt
    P[..., :d, :d] += np.eye(d)
    b, s, s0 = (slice(i * d, (i + 1) * d) for i in range(3))
    means, mm, e2 = np.empty((len(P) + 1, d)), *np.empty((2, len(P) + 1, d, d))
    i, j = triu(d)
    means[0], mm[0] = mbar, np.outer(mbar, mbar)
    e2[0][i, j] = e2[0][j, i] = second
    S = np.ones((2, 2 * d + 1, 2 * d + 1))  # (Sigma, Ubar)
    for step, p in enumerate(P, 1):
        S[:, :2 * d, :2 * d] = np.tile(mm[step - 1], (2, 2))
        S[0, :d, :d] = e2[step - 1]
        S[:, :2 * d, 2 * d] = S[:, 2 * d, :2 * d] = np.tile(means[step - 1], 2)
        T = p.T @ S @ p
        e2[step] = T[0, b, b] + dt * (T[0, s, s] + T[0, s0, s0])
        mm[step] = T[1, b, b] + dt * T[1, s0, s0] + dt / n * T[0, s, s]
        means[step] = S[1, 2 * d] @ p[:, b]
        if not e2[step].trace() <= BLOWUP_LIMIT ** 2:
            raise NumericalBlowup(f"step {step} of the expected moments at dt={dt!r}", f"E|x|^2 "
                                  f"{float(e2[step].trace())!r} exceeded 1e24 or is NaN")
    w, v = np.linalg.eigh(mm - means[:, :, None] * means[:, None, :])
    c = np.swapaxes(v * np.sqrt(d * np.clip(w, 0.0, None))[:, None, :], 1, 2)
    points = means[:, None, :] + np.concatenate((c, -c), axis=1)
    return points, np.broadcast_to(e2[:, None, i, j], points.shape[:2] + (i.size,))


# ---------------------------------------------------------------------------
# lifted costs from cloud moments; mbar (..., d), second (..., d(d+1)/2)

def matprod(a, b):
    """a @ b; a broadcast multiply, 3-4 times faster than BLAS, when the inner dimension is 1."""
    return a * b if b.shape[-2] == 1 else a @ b


def moment_form(W, V, mbar, second):
    """<W, E xx'> + mbar'V mbar, shape (..., 1, 1), of clouds from their moments (measure.moments).

    W and V are (..., d, d); <W, E xx'> is summed on the upper triangle
    (measure.triu), weights W_ij + W_ji off the diagonal.  Each moment is a
    (1, n) row times an operand: a cloud's form is the same bits in any stack.
    """
    i, j = triu(mbar.shape[-1])
    # contiguous: the product's bits follow its strides
    w = np.ascontiguousarray(W[..., i, j] + np.where(i < j, W[..., j, i], 0.0))
    return (matprod(second[..., None, :], w[..., :, None])
            + matprod(matprod(mbar[..., None, :], V), mbar[..., :, None]))


def lifted_cost(cost, mbar, second, gains=None):
    """Lifted running cost under an affine feedback, or lifted terminal cost, from cloud moments.

    mbar (..., d) and second (..., d(d+1)/2) are clouds' means and
    uncentred second moments.  With the gains (K1, K2, k) of a = K1 (x -
    mbar) + K2 mbar + k, K1 and K2 (..., m, d), this is the particle mean of
    the running cost, the moment_form <Q2 + W, E xx'> + mbar'(Q2bar - W)
    mbar plus abar'(R2 abar + 2 M2'mbar), W = K1'R2 K1 + 2 M2 K1 and abar =
    K2 mbar + k; without gains, that of the terminal cost (W, V = P2, P2bar).
    """
    W, V, tail = cost.P2, cost.P2bar, 0.0
    if gains is not None:
        K1, K2, k = gains
        mrow = mbar[..., None, :]
        W = matprod(np.swapaxes(K1, -1, -2), matprod(cost.R2, K1)) + 2.0 * matprod(cost.M2, K1)
        W, V = cost.Q2 + W, cost.Q2bar - W
        abar = matprod(mrow, np.swapaxes(K2, -1, -2)) + k[..., None, :]
        tail = matprod(matprod(abar, cost.R2) + 2.0 * matprod(mrow, cost.M2),
                       np.swapaxes(abar, -1, -2))
    return (moment_form(W, V, mbar, second) + tail)[..., 0, 0]


def check_standing_condition(cost, delta):
    """Eigenvalue tests for the positivity condition on the cost data.

    Requires P2 >= 0, P2+P2bar >= 0, Q2 >= 0, Q2+Q2bar >= 0 and R2 >= delta I.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")

    def min_eig(mat):
        return float(np.min(np.linalg.eigvalsh(mat)))

    eigs = {
        "P2": min_eig(cost.P2),
        "P2_plus_P2bar": min_eig(cost.P2 + cost.P2bar),
        "Q2": min_eig(cost.Q2),
        "Q2_plus_Q2bar": min_eig(cost.Q2s),
        "R2": min_eig(cost.R2),
    }
    checks = {k: bool(v >= 0.0) for k, v in eigs.items() if k != "R2"}
    checks["R2_geq_delta"] = bool(eigs["R2"] >= delta)
    return {
        "ok": all(checks.values()),
        "checks": checks,
        "min_eigenvalues": eigs,
        "delta": float(delta),
    }


# ---------------------------------------------------------------------------
# model files: flat "key = value" text, d, m and T first, then every SHAPES
# entry in its order (M2 may be left out: zero); blocks are row-major with ';'
# between rows and ',' between entries, each checked against the file's d and m

def _format_block(a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    return ";".join(",".join(repr(float(v)) for v in row) for row in a)


def _parse_block(text, name):
    try:
        rows = [[float(v) for v in row.split(",")] for row in text.split(";")]
    except ValueError as exc:
        raise ValueError(f"cannot parse matrix for key {name!r}: {exc}") from None
    widths = {len(r) for r in rows}
    if len(widths) != 1:
        raise ValueError(f"ragged matrix for key {name!r}")
    return np.asarray(rows, dtype=np.float64)


def save_model(path, dyn, cost, T):
    with open(path, "w") as fh:
        fh.write(f"d = {dyn.d}\nm = {dyn.m}\nT = {float(T)!r}\n")
        for key in SHAPES:
            fh.write(f"{key} = {_format_block(getattr(dyn if hasattr(dyn, key) else cost, key))}\n")


def parse_kv_file(path):
    """Read a flat key=value file, ignoring blank lines and '#' comments; a key may appear once."""
    out, lines = {}, {}
    with open(path) as fh:
        for ln_no, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln_no}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            if key in lines:
                raise ValueError(f"{path}: key {key!r} is given twice, on lines "
                                 f"{lines[key]} and {ln_no}")
            out[key], lines[key] = val, ln_no
    return out


def parse_value(where, key, text, kind):
    """kind(text), the value of `key` in the file `where`; a ValueError names both."""
    try:
        return kind(text)
    except ValueError:
        raise ValueError(f"{where}: cannot parse {key} = {text!r} as {kind.__name__}") from None


def load_model(path):
    """Parse a model file into (LqDynamics, LqCost, T)."""
    kv = parse_kv_file(path)
    unknown = [k for k in kv if k not in MODEL_KEYS]
    if unknown:
        raise ValueError(f"model file {path} has unknown keys: {', '.join(unknown)}")
    missing = [k for k in MODEL_KEYS if k not in kv and k != "M2"]
    if missing:
        raise ValueError(f"model file {path} missing keys: {', '.join(missing)}")
    d, m, T = (parse_value(f"model file {path}", k, kv[k], kind)
               for k, kind in (("d", int), ("m", int), ("T", float)))
    if d < 1 or m < 1:
        raise ValueError("model file requires d >= 1, m >= 1")
    if not 0 < T < math.inf:
        raise ValueError(f"model file {path}: T must be positive and finite, got {T!r}")
    # each block parsed and checked against the file's d and m in turn
    coef = _coefficients(((k, _parse_block(kv[k], k)) for k in SHAPES if k in kv), d, m)
    dyn, cost = (cls(**{f.name: coef.get(f.name) for f in fields(cls) if f.init})
                 for cls in (LqDynamics, LqCost))
    return dyn, cost, T
