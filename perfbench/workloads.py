"""Workload inputs and the commands of one round.

Every input is a function of the benchmark seed.  The model files are
written by the benchmark itself in the documented ``key = value`` format,
so a change to the program's own model writer cannot change what the
program is asked to solve.  A round is a fixed list of ``cmvlq`` commands;
every round of a run repeats the same commands on the same inputs.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field

import numpy as np

WORKLOADS = ("interbank", "lq3", "verify")

# interbank systemic-risk model at the acceptance parameters
ACCEPT = dict(kappa=1.0, q=0.5, eta=1.0, c=1.0, sigma0=1.0, sigma1=0.3,
              rho=0.5, T=1.0, x0=1.0)
DT = 1e-3
IB_PARTICLES = 2000
IB_PATHS = 32
SHIFT = 0.5

# d=3, m=2 model with a state-control cross weight
LQ3_D, LQ3_M = 3, 2
LQ3_PARTICLES = 250
LQ3_PATHS = 8
# Loading of every noise coefficient.  It keeps the per-path spread of the
# cost well below the discretisation term of the cost-value check, so the
# check is decided by the program's accuracy, not by the draw of the seed.
LQ3_NOISE = 5e-4

# verify workload sizes
DPP_PARTICLES = 2000
DPP_PATHS = 48
ITO_PATHS = 2000
ITO_DELTA = 0.01
FLOW_PARTICLES = 500
FLOW_COUNT = 4

MODEL_KEYS = ["d", "m", "T", "b0", "B", "Bbar", "C", "theta", "D", "Dbar", "F",
              "theta0", "D0", "D0bar", "F0", "Q2", "Q2bar", "R2", "P2", "P2bar", "M2"]


def interbank_model(p=None):
    """LQ data of the interbank model in the shifted control b = a - q(mean - x).

    The paper's running cost a^2/2 - q a (mean - x) + eta/2 (mean - x)^2
    becomes b^2/2 + (eta - q^2)/2 (x - mean)^2 with no cross term, the drift
    kappa (mean - x) + a becomes (kappa + q)(mean - x) + b, and both noises
    load (sigma0 + sigma1 x), split sqrt(1 - rho^2) : rho between the
    idiosyncratic and the common Brownian motion.
    """
    p = dict(ACCEPT if p is None else p)
    root = math.sqrt(1.0 - p["rho"] ** 2)
    k = p["kappa"] + p["q"]
    half = 0.5 * (p["eta"] - p["q"] ** 2)
    arr = lambda v: np.array([[float(v)]])  # noqa: E731
    return {
        "d": 1, "m": 1, "T": p["T"],
        "b0": np.zeros(1), "B": arr(-k), "Bbar": arr(k), "C": arr(1.0),
        "theta": np.array([p["sigma0"] * root]), "D": arr(p["sigma1"] * root),
        "Dbar": arr(0.0), "F": arr(0.0),
        "theta0": np.array([p["sigma0"] * p["rho"]]), "D0": arr(p["sigma1"] * p["rho"]),
        "D0bar": arr(0.0), "F0": arr(0.0),
        "Q2": arr(half), "Q2bar": arr(-half), "R2": arr(0.5),
        "P2": arr(0.5 * p["c"]), "P2bar": arr(-0.5 * p["c"]), "M2": arr(0.0),
    }


def _psd(rng, n, scale):
    a = rng.standard_normal((n, n))
    return scale * (a @ a.T) / n


def lq3_model(seed):
    """Random d=3, m=2 model whose costs are jointly convex in (x, a).

    Q2 and Q2 + Q2bar dominate M2 R2^-1 M2', P2 and P2 + P2bar are positive
    semidefinite and R2 >= 0.3 I, so both Riccati solutions stay positive
    semidefinite and the gain matrices U, V stay positive definite.
    """
    rng = np.random.default_rng([int(seed), 3])
    d, m, s = LQ3_D, LQ3_M, LQ3_NOISE

    def g(shape, scale):
        return scale * rng.standard_normal(shape)

    R2 = _psd(rng, m, 0.6) + 0.3 * np.eye(m)
    M2 = g((d, m), 0.1)
    mrm = M2 @ np.linalg.solve(R2, M2.T)
    mrm = (mrm + mrm.T) / 2.0
    Q2 = mrm + _psd(rng, d, 0.6)
    Q2bar = mrm + _psd(rng, d, 0.6) - Q2
    P2 = _psd(rng, d, 0.6)
    P2bar = _psd(rng, d, 0.6) - P2
    model = {
        "d": d, "m": m, "T": 1.0,
        "b0": g(d, 0.3), "B": g((d, d), 0.3) - 0.5 * np.eye(d), "Bbar": g((d, d), 0.2),
        "C": g((d, m), 0.7),
        "theta": g(d, s), "D": g((d, d), s), "Dbar": g((d, d), s), "F": g((d, m), s),
        "theta0": g(d, s), "D0": g((d, d), s), "D0bar": g((d, d), s), "F0": g((d, m), s),
        "Q2": Q2, "Q2bar": Q2bar, "R2": R2, "P2": P2, "P2bar": P2bar, "M2": M2,
    }
    x0 = rng.uniform(-1.0, 1.0, d)
    return model, x0


def _block(a):
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    return ";".join(",".join(repr(float(v)) for v in row) for row in a)


def write_model(path, model):
    with open(path, "w") as fh:
        for key in MODEL_KEYS:
            val = model[key]
            text = repr(float(val)) if key == "T" else (
                str(val) if key in ("d", "m") else _block(val))
            fh.write(f"{key} = {text}\n")


def _csv(v):
    return ",".join(repr(float(x)) for x in np.atleast_1d(v))


@dataclass
class Op:
    """One cmvlq command and the directory its artifacts go to."""

    name: str
    argv: list
    out: str


@dataclass
class Workload:
    name: str
    ops: list = field(default_factory=list)
    models: dict = field(default_factory=dict)
    x0: dict = field(default_factory=dict)


def make_inputs(name, seed, root):
    """Generate the inputs of one workload under root; return its round."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose from {', '.join(WORKLOADS)}")
    if not 0 <= seed < 2 ** 63:
        raise ValueError("seed must lie in [0, 2^63)")
    inputs = os.path.join(root, "inputs")
    os.makedirs(inputs, exist_ok=True)
    wl = Workload(name=name)
    s = str(seed)
    if name == "interbank":
        mc = ["--particles", str(IB_PARTICLES), "--dt", repr(DT), "--paths", str(IB_PATHS)]
        sr = os.path.join(root, "sr")
        params = []
        for key in ("kappa", "q", "eta", "c", "sigma0", "sigma1", "rho", "T", "x0"):
            params += [f"--{key}", repr(ACCEPT[key])]
        wl.ops.append(Op("systemic-risk", ["systemic-risk", "--out", sr, "--seed", s]
                         + params + mc, sr))
        shift = os.path.join(root, "shift")
        wl.ops.append(Op("cost", ["cost", "--model", os.path.join(sr, "model.txt"),
                                  "--out", shift, "--seed", s] + mc
                         + ["--control", f"shift:{SHIFT!r}", "--init", f"point:{ACCEPT['x0']!r}"],
                         shift))
        wl.models["interbank"] = interbank_model()
        wl.x0["interbank"] = np.array([ACCEPT["x0"]])
        return wl

    lq3, x0 = lq3_model(seed)
    lq3_path = os.path.join(inputs, "lq3_model.txt")
    write_model(lq3_path, lq3)
    wl.models["lq3"], wl.x0["lq3"] = lq3, x0
    if name == "lq3":
        out = os.path.join(root, "solve")
        wl.ops.append(Op("solve", ["solve", "--model", lq3_path, "--out", out], out))
        out = os.path.join(root, "cost")
        wl.ops.append(Op("cost", ["cost", "--model", lq3_path, "--out", out, "--seed", s,
                                  "--particles", str(LQ3_PARTICLES), "--paths", str(LQ3_PATHS),
                                  "--dt", repr(DT), "--init", f"point:{_csv(x0)}"], out))
        return wl

    ib = interbank_model()
    ib_path = os.path.join(inputs, "interbank_model.txt")
    write_model(ib_path, ib)
    wl.models["interbank"] = ib
    wl.x0["interbank"] = np.array([ACCEPT["x0"]])
    for label, path in (("interbank", ib_path), ("lq3", lq3_path)):
        for check in ("bellman", "grad"):
            out = os.path.join(root, f"{check}_{label}")
            wl.ops.append(Op(f"verify {check} {label}",
                             ["verify", check, "--model", path, "--out", out, "--seed", s], out))
    point = f"point:{ACCEPT['x0']!r}"
    extra = {
        "dpp": ["--particles", str(DPP_PARTICLES), "--paths", str(DPP_PATHS), "--init", point],
        "ito": ["--particles", str(IB_PARTICLES), "--paths", str(ITO_PATHS),
                "--delta", repr(ITO_DELTA), "--init", "point:0.0"],
        "flow": ["--particles", str(FLOW_PARTICLES), "--count", str(FLOW_COUNT), "--init", point],
    }
    for check, flags in extra.items():
        out = os.path.join(root, check)
        wl.ops.append(Op(f"verify {check} interbank",
                         ["verify", check, "--model", ib_path, "--out", out, "--seed", s,
                          "--dt", repr(DT)] + flags, out))
    return wl
