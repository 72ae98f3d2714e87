"""Regenerate the discretisation constants C of the cost-value checks.

C bounds the time-step bias of the Monte Carlo cost, |E cost - value| <= C dt.
It is calibrated as the acceptance suite does it: cost estimates at
dt in {4e-3, 2e-3, 1e-3} on common seeds, c = max of the two Richardson
differences divided by their dt gap, and C = 2 c + 1.

    python3 perfbench/calibrate.py interbank   # N=2000, M=200, seed 2024
    python3 perfbench/calibrate.py lq3         # N=250, M=8, worst case over lq3 seeds 0..23

Each line printed is one calibration; the README records the figures and
checks.py holds the constants.  Takes a few minutes per line.
"""

from __future__ import annotations

import argparse
import os
import sys

os.environ["OPENBLAS_NUM_THREADS"] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from cmvlq import (  # noqa: E402
    FeedbackControl,
    FeedbackPolicy,
    LqCost,
    LqDynamics,
    QuadraticValue,
    estimate_cost,
    lq_dynamics_spec,
    sample_initial,
    solve_riccati,
    value,
)

DTS = (4e-3, 2e-3, 1e-3)
IB_PATHS, IB_SEED = 200, 2024
LQ3_PATHS, LQ3_SEEDS = 8, 24


def _lq(model):
    dyn = LqDynamics(**{k: model[k] for k in ("b0", "B", "Bbar", "C", "theta", "D", "Dbar",
                                               "F", "theta0", "D0", "D0bar", "F0")})
    cost = LqCost(**{k: model[k] for k in ("Q2", "Q2bar", "R2", "P2", "P2bar", "M2")})
    return dyn, cost


def calibrate(model, x0, n_particles, n_paths, seed):
    dyn, cost = _lq(model)
    T = model["T"]
    qv = QuadraticValue(solve_riccati(dyn, cost, T, T / 1000.0), dyn, cost)
    spec = lq_dynamics_spec(dyn, cost, T)
    control = FeedbackControl(FeedbackPolicy(qv))
    init = {"kind": "point", "x0": x0}
    est = {dt: estimate_cost(spec, control, 0.0, init, n_particles, n_paths, dt, seed)
           for dt in DTS}
    c = max(abs(est[4e-3].mean - est[2e-3].mean) / 2e-3,
            abs(est[2e-3].mean - est[1e-3].mean) / 1e-3)
    w0 = value(qv, 0.0, sample_initial(init, n_particles, seed))
    return 2.0 * c + 1.0, est[1e-3], w0


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("workload", choices=["interbank", "lq3"])
    args = ap.parse_args(argv)
    if args.workload == "interbank":
        cases = [(workloads.interbank_model(), np.array([workloads.ACCEPT["x0"]]), IB_SEED)]
        n, m = workloads.IB_PARTICLES, IB_PATHS
    else:
        cases = [workloads.lq3_model(s) + (s,) for s in range(LQ3_SEEDS)]
        n, m = workloads.LQ3_PARTICLES, LQ3_PATHS
    worst = 0.0
    for model, x0, seed in cases:
        C, est, w0 = calibrate(model, x0, n, m, seed)
        worst = max(worst, C)
        print(f"{args.workload} seed {seed}: C = {C:.3f}; dt=1e-3 cost {est.mean:.6f} "
              f"+- {est.stderr:.6f} vs value {w0:.6f} (N={n}, M={m})", flush=True)
    print(f"{args.workload}: max C = {worst:.3f}")


if __name__ == "__main__":
    main()
