"""Output checks, computed apart from the program.

Every formula here is the benchmark's own transcription of the paper's
linear-quadratic solution; none of them calls into ``cmvlq``.  A check
returns None when the artifact is right and raises CheckFailure with the
constituents of the failed comparison when it is not.

Tolerances and constants (see README.md for how each was obtained):

- RICCATI_TOL: closed-form and solve_ivp agreement of the RK4 solution;
- GAIN_TOL: gains recomputed from riccati.csv against policy.csv;
- MEANS_TOL: means.csv against the particle averages of trajectory.csv;
- C_INTERBANK, C_LQ3: time-step constants of |cost - value| <= 3 se + C dt;
- C_ITO: constant of the difference-quotient bias of the ito check;
- EXCESS_REL: relative band of the shift:eps cost excess around eps^2 T / 2.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import os

import numpy as np
from scipy.integrate import solve_ivp

RICCATI_TOL = 1e-8
GAIN_TOL = 1e-9
VALUE_TOL = 1e-12
MEANS_TOL = 1e-12
EXCESS_REL = 0.2
BELLMAN_TOL = 1e-8
GRAD_TOL = 1e-6
C_INTERBANK = 8.544
C_LQ3 = 3.970
C_ITO = 1.0


class CheckFailure(Exception):
    """An artifact disagrees with the benchmark's own computation."""


def _fail_if(cond, msg):
    if cond:
        raise CheckFailure(msg)


# ---------------------------------------------------------------------------
# artifact readers

def read_csv(path):
    """(column names, float rows) of a header-plus-numbers CSV."""
    with open(path) as fh:
        names = fh.readline().strip().split(",")
        rows = np.loadtxt(fh, delimiter=",", ndmin=2)
    _fail_if(rows.shape[1] != len(names), f"{path}: {rows.shape[1]} columns, header has {len(names)}")
    return names, rows


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def _cols(names, rows, prefix, shape):
    idx = [i for i, n in enumerate(names) if n.startswith(prefix)]
    _fail_if(len(idx) != int(np.prod(shape)), f"expected {int(np.prod(shape))} {prefix}* columns")
    return rows[:, idx].reshape((rows.shape[0],) + tuple(shape))


def riccati_arrays(path, d):
    """t, Lam, Gam, gam, chi from riccati.csv."""
    names, rows = read_csv(path)
    t = rows[:, names.index("t")]
    return (t, _cols(names, rows, "Lam_", (d, d)), _cols(names, rows, "Gam_", (d, d)),
            _cols(names, rows, "gam_", (d,)), rows[:, names.index("chi")])


# ---------------------------------------------------------------------------
# the paper's formulas, transcribed

def delta_pm(p):
    """Roots delta+- = -a +- sqrt(a^2 + eta - q^2), a = kappa + q - sigma1^2 / 2."""
    a = p["kappa"] + p["q"] - 0.5 * p["sigma1"] ** 2
    r = math.sqrt(a * a + p["eta"] - p["q"] ** 2)
    return -a + r, -a - r


def interbank_lambda(p, t):
    """Closed-form Lambda(t) of the interbank model.

    Lambda' = 2 (Lambda - delta+/2)(Lambda - delta-/2), Lambda(T) = c/2, so
    (Lambda - delta+/2) / (Lambda - delta-/2) decays like
    exp(-(delta+ - delta-)(T - t)) from its terminal value.
    """
    dp, dm = delta_pm(p)
    lp, lm = dp / 2.0, dm / 2.0
    lt = p["c"] / 2.0
    u = (lt - lp) / (lt - lm) * np.exp(-(dp - dm) * (p["T"] - np.asarray(t, dtype=np.float64)))
    return (lp - lm * u) / (1.0 - u)


def gain_blocks(model, Lam, Gam, gam):
    """U, V, S, Z, Y of the square completion of the Hamiltonian."""
    C, D, F = model["C"], model["D"], model["F"]
    D0, F0 = model["D0"], model["F0"]
    Ds, D0s = D + model["Dbar"], D0 + model["D0bar"]
    U = F.T @ Lam @ F + F0.T @ Lam @ F0 + model["R2"]
    V = F.T @ Lam @ F + F0.T @ Gam @ F0 + model["R2"]
    S = D.T @ Lam @ F + D0.T @ Lam @ F0 + Lam @ C + model["M2"]
    Z = Ds.T @ Lam @ F + D0s.T @ Gam @ F0 + Gam @ C + model["M2"]
    Y = C.T @ gam + 2.0 * F.T @ Lam @ model["theta"] + 2.0 * F0.T @ Gam @ model["theta0"]
    return U, V, S, Z, Y


def feedback(model, Lam, Gam, gam):
    """K1 = -U^-1 S', K2 = -V^-1 Z', k = -V^-1 Y / 2."""
    U, V, S, Z, Y = gain_blocks(model, Lam, Gam, gam)
    return (-np.linalg.solve(U, S.T), -np.linalg.solve(V, Z.T),
            -0.5 * np.linalg.solve(V, Y))


def backward_rhs(model, Lam, Gam, gam):
    """d/dt of (Lam, Gam, gam, chi) in the backward system of the paper."""
    B, Bs = model["B"], model["B"] + model["Bbar"]
    D, D0 = model["D"], model["D0"]
    Ds, D0s = D + model["Dbar"], D0 + model["D0bar"]
    th, th0, b0 = model["theta"], model["theta0"], model["b0"]
    U, V, S, Z, Y = gain_blocks(model, Lam, Gam, gam)
    Q, Qs = model["Q2"], model["Q2"] + model["Q2bar"]
    dLam = -(Q + D.T @ Lam @ D + D0.T @ Lam @ D0 + Lam @ B + B.T @ Lam
             - S @ np.linalg.solve(U, S.T))
    dGam = -(Qs + Ds.T @ Lam @ Ds + D0s.T @ Gam @ D0s + Gam @ Bs + Bs.T @ Gam
             - Z @ np.linalg.solve(V, Z.T))
    dgam = -(Bs.T @ gam + 2.0 * Ds.T @ Lam @ th + 2.0 * D0s.T @ Gam @ th0 + 2.0 * Gam @ b0
             - Z @ np.linalg.solve(V, Y))
    dchi = -(gam @ b0 + th @ Lam @ th + th0 @ Gam @ th0 - 0.25 * Y @ np.linalg.solve(V, Y))
    return dLam, dGam, dgam, dchi


def integrate_backward(model):
    """(Lam, Gam, gam, chi) at t = 0 by scipy's DOP853 from the terminal data."""
    d = int(model["d"])
    n2 = d * d

    def unpack(y):
        Lam = y[:n2].reshape(d, d)
        Gam = y[n2:2 * n2].reshape(d, d)
        return (Lam + Lam.T) / 2.0, (Gam + Gam.T) / 2.0, y[2 * n2:2 * n2 + d]

    def rhs(_t, y):
        dLam, dGam, dgam, dchi = backward_rhs(model, *unpack(y))
        return np.concatenate([dLam.ravel(), dGam.ravel(), dgam, [dchi]])

    P2 = model["P2"]
    yT = np.concatenate([P2.ravel(), (P2 + model["P2bar"]).ravel(), np.zeros(d), [0.0]])
    sol = solve_ivp(rhs, (model["T"], 0.0), yT, method="DOP853", rtol=1e-12, atol=1e-13)
    _fail_if(not sol.success, f"solve_ivp did not reach t=0: {sol.message}")
    y0 = sol.y[:, -1]
    Lam, Gam, gam = unpack(y0)
    return Lam, Gam, gam, float(y0[-1])


def point_value(Gam, gam, chi, x0):
    """Value at a point mass: its variance is zero, so only the mean terms remain."""
    x0 = np.asarray(x0, dtype=np.float64)
    return float(x0 @ Gam @ x0 + gam @ x0 + chi)


# ---------------------------------------------------------------------------
# checks

def _close(a, b, tol):
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    err = float(np.max(np.abs(a - b)))
    scale = max(1.0, float(np.max(np.abs(b))))
    return err <= tol * scale, err


def check_closed_form(riccati_csv, sr_json, p):
    """Lambda(t) on every node and delta+- against the closed form."""
    t, Lam, _, _, _ = riccati_arrays(riccati_csv, 1)
    ok, err = _close(Lam[:, 0, 0], interbank_lambda(p, t), RICCATI_TOL)
    _fail_if(not ok, f"Lambda(t) differs from the closed form by {err:.3e} > {RICCATI_TOL:.0e}")
    rep = read_json(sr_json)
    dp, dm = delta_pm(p)
    for key, want in (("delta_plus", dp), ("delta_minus", dm)):
        ok, err = _close(rep[key], want, RICCATI_TOL)
        _fail_if(not ok, f"{key} = {rep[key]!r}, closed form {want!r} (err {err:.3e})")


def check_backward(riccati_csv, model):
    """The t = 0 row of riccati.csv against an independent solve_ivp integration."""
    d = int(model["d"])
    t, Lam, Gam, gam, chi = riccati_arrays(riccati_csv, d)
    _fail_if(t[0] != 0.0 or abs(t[-1] - model["T"]) > 1e-12, "riccati.csv does not span [0, T]")
    ref = integrate_backward(model)
    for name, got, want in zip(("Lam(0)", "Gam(0)", "gam(0)", "chi(0)"),
                               (Lam[0], Gam[0], gam[0], chi[0]), ref):
        ok, err = _close(got, want, RICCATI_TOL)
        _fail_if(not ok, f"{name} differs from solve_ivp by {err:.3e} > {RICCATI_TOL:.0e}")


def check_policy(riccati_csv, policy_csv, model):
    """policy.csv gains against K1, K2, k recomputed from riccati.csv on every node."""
    d, m = int(model["d"]), int(model["m"])
    t, Lam, Gam, gam, _ = riccati_arrays(riccati_csv, d)
    names, rows = read_csv(policy_csv)
    _fail_if(rows.shape[0] != t.shape[0] or not np.array_equal(rows[:, 0], t),
             "policy.csv nodes differ from riccati.csv nodes")
    K1 = _cols(names, rows, "K1_", (m, d))
    K2 = _cols(names, rows, "K2_", (m, d))
    k = _cols(names, rows, "k_", (m,))
    for j in range(t.shape[0]):
        want = feedback(model, Lam[j], Gam[j], gam[j])
        for name, got, ref in zip(("K1", "K2", "k"), (K1[j], K2[j], k[j]), want):
            ok, err = _close(got, ref, GAIN_TOL)
            _fail_if(not ok, f"{name}(t={t[j]!r}) differs from the recomputed gain by {err:.3e}")


def check_cost_value(mean, stderr, reported_value, riccati_csv, model, x0, C, dt):
    """|cost - value(0)| <= 3 stderr + C dt, with value(0) computed from riccati.csv."""
    d = int(model["d"])
    _, _, Gam, gam, chi = riccati_arrays(riccati_csv, d)
    w0 = point_value(Gam[0], gam[0], chi[0], x0)
    ok, err = _close(reported_value, w0, VALUE_TOL)
    _fail_if(not ok, f"reported value {reported_value!r} differs from Gam, gam, chi at 0 "
                     f"({w0!r}) by {err:.3e}")
    tol = 3.0 * stderr + C * dt
    gap = abs(mean - w0)
    _fail_if(not (stderr >= 0.0 and gap <= tol),
             f"|cost - value| = {gap:.6f} > 3 * {stderr:.6f} + {C} * {dt} = {tol:.6f}")


def check_excess(shift_mean, base_mean, eps, T):
    """Shifting the optimal control by eps costs eps^2 T / 2 more (R2 = 1/2)."""
    want = eps * eps * T / 2.0
    excess = shift_mean - base_mean
    _fail_if(abs(excess - want) > EXCESS_REL * want,
             f"shift excess {excess:.6f} outside {want:.6f} +- {EXCESS_REL:.0%}")


def check_means(trajectory_csv, means_csv, n_particles, chunk_nodes=50):
    """means.csv equals the particle averages of trajectory.csv node by node.

    The trajectory file is read chunk_nodes nodes at a time, so the check
    holds O(chunk_nodes * N) numbers however long the file is.
    """
    _, means = read_csv(means_csv)
    d = means.shape[1] - 3
    row = 0
    with open(trajectory_csv) as fh:
        fh.readline()
        while True:
            lines = list(itertools.islice(fh, chunk_nodes * n_particles))
            if not lines:
                break
            block = np.loadtxt(lines, delimiter=",", ndmin=2)
            _fail_if(block.shape[0] % n_particles or block.shape[1] != 3 + d,
                     "trajectory.csv is not whole clouds of N particles")
            nodes = block.reshape(-1, n_particles, 3 + d)
            for cloud in nodes:
                _fail_if(row >= means.shape[0], "trajectory.csv has more nodes than means.csv")
                path, t = means[row, 0], means[row, 1]
                _fail_if(np.any(cloud[:, 0] != path) or np.any(cloud[:, 1] != t)
                         or not np.array_equal(cloud[:, 2], np.arange(n_particles)),
                         f"trajectory.csv node {row} is not (path {path:g}, t {t!r})")
                avg = np.sum(cloud[:, 3:], axis=0) / n_particles
                err = float(np.max(np.abs(avg - means[row, 2:2 + d])))
                _fail_if(err > MEANS_TOL,
                         f"means.csv row {row} (path {path:g}, t {t!r}) differs from the "
                         f"particle average by {err:.3e}")
                row += 1
    _fail_if(row != means.shape[0], f"trajectory.csv has {row} nodes, means.csv {means.shape[0]}")


def check_model_file(path, model):
    """A model file holds exactly the model's keys and values."""
    kv = {}
    with open(path) as fh:
        for line in fh:
            key, _, val = line.partition("=")
            kv[key.strip()] = val.strip()
    for key, want in model.items():
        _fail_if(key not in kv, f"{path} lacks key {key}")
        got = np.array([[float(v) for v in r.split(",")] for r in kv[key].split(";")])
        _fail_if(not np.array_equal(got.ravel(), np.ravel(want)),
                 f"{path}: {key} = {kv[key]} differs from the model")


def decide_report(report_path, check, dt=None, delta=None):
    """Decide a verify report from its statistic and stderr; its pass flag is ignored."""
    rep = read_json(report_path)
    _fail_if(rep.get("check") != check, f"{report_path} reports check {rep.get('check')!r}")
    stat = float(rep["statistic"])
    _fail_if(not math.isfinite(stat), f"{check}: statistic {stat!r} is not finite")
    if check == "bellman":
        tol = BELLMAN_TOL
    elif check == "grad":
        tol = GRAD_TOL
    elif check == "flow":
        tol = 0.0
    elif check == "dpp":
        tol = 3.0 * float(rep["stderr"]) + C_INTERBANK * dt
    elif check == "ito":
        tol = 3.0 * float(rep["stderr"]) + C_ITO * (delta + dt)
    else:
        raise ValueError(f"no decision rule for check {check!r}")
    _fail_if(abs(stat) > tol, f"{check}: |statistic| = {abs(stat):.6e} > {tol:.6e}")


def artifact_hashes(out_dir):
    """sha256 of every file under out_dir, keyed by its relative path."""
    hashes = {}
    for base, _, files in os.walk(out_dir):
        for name in sorted(files):
            path = os.path.join(base, name)
            h = hashlib.sha256()
            with open(path, "rb") as fh:
                for piece in iter(lambda: fh.read(1 << 20), b""):
                    h.update(piece)
            hashes[os.path.relpath(path, out_dir)] = h.hexdigest()
    return hashes


def check_rerun(first, now):
    """Artifacts of a rerun are byte-identical to the first round's."""
    _fail_if(set(first) != set(now), f"artifact set changed: {sorted(set(first) ^ set(now))}")
    diff = sorted(k for k in first if first[k] != now[k])
    _fail_if(diff, f"artifacts differ from the first round: {', '.join(diff)}")
