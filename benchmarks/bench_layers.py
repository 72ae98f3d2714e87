"""Per-layer timings of the solver and simulation stack, written to BENCH_layers.json.

Times, on the interbank model at the acceptance parameters (N = 2000
particles, dt = 1e-3 so K = 1000 steps, M = 32 scenarios) unless noted:

- cold_import_cli: a fresh interpreter running ``import cmvlq.cli``, the
  start-up every command pays, with scipy_loaded recording whether that
  import loaded any scipy module;
- riccati_solve_d1: ``solve_riccati`` at h = 1e-3 (d = m = 1), which
  sweeps on Python floats;
- riccati_solve_d3: the same on a seeded d = 3, m = 2 model with a cross
  weight M2, and riccati_solve_grid_d3 that solve plus the gain grid of
  its 1000 steps;
- gain_grid_1000: ``FeedbackPolicy.grid_gains`` over the 1000 steps, on a
  fresh policy each time (the first use per policy);
- noise: ``_gen_noise`` for one path (2M unit normals, per-step Philox re-key);
- step_cost: ``estimate_cost`` with every path's noise served from a cache,
  i.e. the step loop plus the cost reduction and the drivers around them
  (where the engine draws noise in a forked process, the copies out of
  the cache run there);
- step_cost_d3: the same on the d = 3, m = 2 model (N = 250, M = 8,
  K = 1000, one batch of 8 scenarios);
- noise_mapping_mib: the size of the shared mapping that holds the two
  noise-chunk buffers of the interbank cost's stream, the d = 3 cost's
  and the dpp check's (M = 48 to theta = 0.5), read while each steps its
  first batch;
- tree_sum on (32, 2000) and (1000, 2000) along axis 1, and on (2000,);
- moments: ``measure.moments`` on stacks of clouds of the step loop's
  batch shapes, (8, 2000, 1) (interbank), (8, 250, 3) (the d = 3 model)
  and (1, 500, 1) (one scenario, as the flow check steps it);
- values: ``QuadraticFunctional.values``, the value at t = 0.3 of the
  interbank or the d = 3 model, on the end clouds of a cost batch, (8,
  2000, 1) and (8, 250, 3), on grad's stack of perturbed d = 3 clouds, (2,
  60, 20, 3), and on one 50-particle Bellman cloud, (1, 50, 1);
- writer: ``cli._write_trajectories`` formatting the nodes of 4 paths
  recorded at stride 10 into trajectory.csv and means.csv (the recording
  itself is stepped once, untimed: systemic-risk records these paths from
  its cost estimate's own batches);
- estimate_cost: the whole Monte Carlo estimate, and
  estimate_cost_recorded the same estimate as systemic-risk runs it: its
  Recorder keeps paths 0-3 at stride 10 and hands them to the CLI's file
  sink (``cli._trajectory_files``), which writes trajectory.csv and
  means.csv (in a forked writer process, where the checkout has one);
- bellman_residual_<model>_50: one draw of ``verify bellman`` (the optimal
  feedback at a random time, then ``bellman_residual`` on a 50-particle
  cloud), generator_<model>_50 the generator of that draw's value under
  that feedback alone (``generator_apply``; the feedback and the value at
  the draw's time are made untimed), and grad_check_<model>_20 one draw of
  ``verify grad`` (``grad_check`` on a 20-particle cloud, epsilon 0.1), on
  the interbank and the d = 3 model; each row is the mean over 20 seeded
  draws, and the six rows take 10 times --repeats runs in turn, so that a
  slow phase of the machine slows a few runs of every row rather than one
  row's every run;
- ito_check_interbank: ``ito_generator_check`` at the sizes of the verify
  benchmark's ito command (phi = mean^2, N = 2000 particles from the point
  0, M = 2000 scenarios, delta = 10 steps of dt = 1e-3, optimal feedback);
- dpp_check_interbank: what ``verify dpp`` computes at the verify
  benchmark's sizes (N = 2000 from the point 1, M = 48, theta = 0.5,
  optimal feedback): the Monte Carlo run at dt (``dpp_check``) and the
  exact expected gaps at dt and 2 dt (``expected_dpp_gap``);
- expected_gap_interbank_500 and _250: ``expected_dpp_gap`` alone, the
  moment recursion and the expected costs on it, at those sizes at dt
  (K = 500 steps) and 2 dt (K = 250), and expected_gap_lq3_1000 on the
  d = 3 model from the d = 3 cost's cloud (N = 250, theta = T, K = 1000);
- flow_check_interbank: ``verify flow``'s restarts (``flow_restarts``) and
  rule at count 4, N = 500 from the point 1, K = 1000.  These two rows also record traced_peak_mib, the tracemalloc peak of one
  more untimed run.

Each row is the minimum (min_s) and the median (median_s) wall time and
the minimum CPU time (cpu_s: this process's, plus that of the noise
drawing and trajectory writer processes it forked and reaped) of
--repeats runs after one warm-up run; where a second process draws the
noise or writes the files, CPU time exceeds wall time by the overlap.
Rows the change under test does not reach can move by a third between
back-to-back runs on a shared VM, which the median shows and the minimum
hides.  Outside their own rows, the Riccati solve and
the gain grid are built before any timing.  Results
go under --label ("before" or "after") in the output file, next to the git
SHA (marked -dirty for uncommitted changes), the backend (``cmvlq.backend()``),
the Python and numpy versions and the CPU count; other labels already in the
file are kept.  The rows need a checkout whose ``_gen_noise`` draws unit
normals and which has ``simulator.Recorder`` and ``verify.expected_dpp_gap``:

    PYTHONPATH=src python benchmarks/bench_layers.py --label after
"""

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import tracemalloc
import types

os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
os.environ.setdefault("OMP_NUM_THREADS", "1")
os.environ.setdefault("MKL_NUM_THREADS", "1")

import numpy as np  # noqa: E402

import cmvlq  # noqa: E402
from cmvlq import cli, measure, simulator, verify  # noqa: E402
from cmvlq.lqmodel import LqCost, LqDynamics  # noqa: E402
from cmvlq.policy import (  # noqa: E402
    FeedbackPolicy,
    QuadraticFunctional,
    QuadraticValue,
    optimal_feedback,
)
from cmvlq.riccati import SystemicRiskParams, solve_riccati, systemic_risk_model  # noqa: E402

N, DT, M, SEED = 2000, 1e-3, 32, 1
N3, M3 = 250, 8
ITO_M, ITO_DELTA = 2000, 0.01
DPP_M, DPP_THETA = 48, 0.5
FLOW_N, FLOW_COUNT = 500, 4


def cpu_seconds():
    """CPU seconds of this process and of its reaped child processes."""
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def in_turn(fns, repeats, per=1):
    """best_of of each of fns, whose runs take turns: a warm-up of each, then repeats rounds
    that run each fn once."""
    for fn in fns:
        fn()
    wall, cpu = [[] for _ in fns], [[] for _ in fns]
    for _ in range(repeats):
        for fn, w, c in zip(fns, wall, cpu):
            t0, c0 = time.perf_counter(), cpu_seconds()
            fn()
            w.append(time.perf_counter() - t0)
            c.append(cpu_seconds() - c0)
    return [(min(w) / per, statistics.median(w) / per, min(c) / per) for w, c in zip(wall, cpu)]


def best_of(fn, repeats, per=1):
    """(minimum wall, median wall, minimum CPU) seconds of fn over repeats runs after a warm-up,
    each divided by per."""
    return in_turn([fn], repeats, per)[0]


def traced_peak_mib(fn):
    """Peak MiB that tracemalloc traces over one run of fn."""
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()


def git_sha():
    """HEAD's SHA, with a -dirty suffix when tracked files differ from it."""
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             check=True).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain", "--untracked-files=no"],
                               capture_output=True, text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        return None
    return sha + "-dirty" if dirty else sha


def lq3_model(seed=3, d=3, m=2):
    """A random d = 3, m = 2 model with a cross weight that meets the positivity condition."""
    rng = np.random.default_rng(seed)

    def g(shape, scale):
        return scale * rng.standard_normal(shape)

    def psd(n):
        a = rng.standard_normal((n, n))
        return 0.6 * (a @ a.T) / n

    dyn = LqDynamics(b0=g(d, 0.3), B=g((d, d), 0.4), Bbar=g((d, d), 0.3), C=g((d, m), 0.7),
                     theta=g(d, 0.25), D=g((d, d), 0.3), Dbar=g((d, d), 0.15), F=g((d, m), 0.25),
                     theta0=g(d, 0.25), D0=g((d, d), 0.25), D0bar=g((d, d), 0.15),
                     F0=g((d, m), 0.25))
    Q2, P2 = psd(d), psd(d)
    cost = LqCost(Q2=Q2, Q2bar=psd(d) - Q2, R2=psd(m) + 0.3 * np.eye(m), P2=P2,
                  P2bar=psd(d) - P2, M2=g((d, m), 0.1))
    return dyn, cost


def cached_noise(k_max, n):
    """A _gen_noise stand-in serving one pre-drawn path's unit normals to every request.

    It copies the steps into `out`, the caller's views, as _gen_noise draws
    into them (else into new arrays).
    """
    dw0, db = simulator._gen_noise(SEED, 0, 0, k_max, n, 1, 1)

    def gen(seed, path_index, step_offset, n_steps, n_particles, n_idio, m0, out=None):
        g = slice(step_offset, step_offset + n_steps)
        if out is None:
            out = np.empty_like(dw0[g]), np.empty_like(db[g])
        np.copyto(out[0], dw0[g])
        np.copyto(out[1], db[g])
        return out

    return gen


def noise_mapping_mib(model, control, mu0, T, paths):
    """MiB of the shared mapping that holds a stream's two noise-chunk buffers.

    Steps the stream's first batch and reads the size of every anonymous
    mapping the simulator opens meanwhile.
    """
    sizes, real = [], simulator.mmap

    def mapping(fileno, length, *args, **kwargs):
        sizes.append(length)
        return real.mmap(fileno, length, *args, **kwargs)

    simulator.mmap = types.SimpleNamespace(mmap=mapping)
    try:
        stream = simulator.stream_scenarios(model, control, 0.0, mu0, T, DT, SEED, paths,
                                            with_cost=False)
        next(stream)
        stream.close()
    finally:
        simulator.mmap = real
    return sum(sizes) / 2**20


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", default="after", help="key to store the figures under")
    ap.add_argument("--out", default="BENCH_layers.json")
    ap.add_argument("--repeats", type=int, default=5)
    args = ap.parse_args()

    p = SystemicRiskParams(kappa=1.0, q=0.5, eta=1.0, c=1.0, sigma0=1.0,
                           sigma1=0.3, rho=0.5, T=1.0, x0=1.0)
    dyn, cost = systemic_risk_model(p)
    model = simulator.lq_dynamics_spec(dyn, cost, p.T)
    qv = QuadraticValue(solve_riccati(dyn, cost, p.T, DT), dyn, cost)
    control = simulator.FeedbackControl(FeedbackPolicy(qv))
    mu0 = simulator.sample_initial({"kind": "point", "x0": p.x0}, N, SEED)
    K = int(round(p.T / DT))
    steps = K * N * M
    rows = {}

    def row(name, timing, work=None, unit=None):
        seconds, median, cpu = timing
        rows[name] = {"min_s": seconds, "median_s": median, "cpu_s": cpu}
        if work is not None:
            rows[name][unit] = work / seconds
        print(f"{name:28s} {seconds * 1e3:10.2f} ms  median {median * 1e3:10.2f} ms  "
              f"cpu {cpu * 1e3:10.2f} ms"
              + (f"   {work / seconds:.3e} {unit}" if work is not None else ""))

    def estimate():
        verify.estimate_cost(model, control, 0.0, mu0, N, M, DT, SEED)

    # the checkout's own package, however this process found it
    src = os.path.dirname(os.path.dirname(os.path.abspath(cmvlq.__file__)))
    probe = [sys.executable, "-c", "import sys, cmvlq.cli; "
             "print(any(m.partition('.')[0] == 'scipy' for m in sys.modules))"]
    scipy_loaded = []

    def cold_import():
        out = subprocess.run(probe, env=dict(os.environ, PYTHONPATH=src), capture_output=True,
                             text=True, check=True).stdout
        scipy_loaded.append(out.strip() == "True")

    row("cold_import_cli", best_of(cold_import, args.repeats))
    rows["cold_import_cli"]["scipy_loaded"] = any(scipy_loaded)

    row("riccati_solve_d1", best_of(lambda: solve_riccati(dyn, cost, p.T, DT), args.repeats),
        K, "rk4_steps_per_s")
    dyn3, cost3 = lq3_model()
    row("riccati_solve_d3", best_of(lambda: solve_riccati(dyn3, cost3, 1.0, DT), args.repeats),
        K, "rk4_steps_per_s")

    def solve_and_grid_d3():
        qv3 = QuadraticValue(solve_riccati(dyn3, cost3, 1.0, DT), dyn3, cost3)
        FeedbackPolicy(qv3).grid_gains(0.0, DT, K)

    row("riccati_solve_grid_d3", best_of(solve_and_grid_d3, args.repeats))
    row("gain_grid_1000", best_of(lambda: FeedbackPolicy(qv).grid_gains(0.0, DT, K), args.repeats),
        K, "nodes_per_s")

    row("noise_path", best_of(lambda: simulator._gen_noise(SEED, 0, 0, K, N, 1, 1),
                              args.repeats), K * N, "normals_per_s")

    qv3 = QuadraticValue(solve_riccati(dyn3, cost3, 1.0, DT), dyn3, cost3)
    model3 = simulator.lq_dynamics_spec(dyn3, cost3, 1.0)
    control3 = simulator.FeedbackControl(FeedbackPolicy(qv3))
    mu3 = simulator.sample_initial({"kind": "point", "x0": [0.5, -0.25, 0.75]}, N3, SEED)

    def estimate_d3():
        verify.estimate_cost(model3, control3, 0.0, mu3, N3, M3, DT, SEED)

    real_noise = simulator._gen_noise
    noise, noise3 = cached_noise(K, N), cached_noise(K, N3)
    try:
        simulator._gen_noise = noise
        row("step_cost_estimate", best_of(estimate, args.repeats), steps, "particle_steps_per_s")
        simulator._gen_noise = noise3
        row("step_cost_d3", best_of(estimate_d3, args.repeats), K * N3 * M3,
            "particle_steps_per_s")
    finally:
        simulator._gen_noise = real_noise

    # the streams of the interbank cost (M = 32), the lq3 cost and the dpp check (M = 48, to theta)
    mapped = {"interbank_cost": noise_mapping_mib(model, control, mu0, p.T, M),
              "lq3_cost": noise_mapping_mib(model3, control3, mu3, 1.0, M3),
              "dpp_check": noise_mapping_mib(model, control, mu0, DPP_THETA, DPP_M)}
    rows["noise_mapping_mib"] = mapped
    print("noise mapping MiB  " + "  ".join(f"{k} {v:.3f}" for k, v in mapped.items()))

    rng = np.random.default_rng(0)
    for shape, axis in (((32, N), 1), ((K, N), 1), ((N,), 0)):
        a = rng.standard_normal(shape)
        reps = 200
        row("tree_sum_" + "x".join(map(str, shape)),
            best_of(lambda: [measure.tree_sum(a, axis) for _ in range(reps)], args.repeats, reps))
    for shape in ((8, N, 1), (M3, N3, 3), (1, FLOW_N, 1)):
        x = rng.standard_normal(shape)
        reps = 200
        row("moments_" + "x".join(map(str, shape)),
            best_of(lambda: [measure.moments(x) for _ in range(reps)], args.repeats, reps))
    for shape in ((8, N, 1), (M3, N3, 3), (2, 60, 20, 3), (1, 50, 1)):
        phi_t = (qv if shape[-1] == 1 else qv3).at(0.3)
        x = rng.standard_normal(shape)
        reps = 200
        row("values_" + "x".join(map(str, shape)),
            best_of(lambda: [phi_t.values(x) for _ in range(reps)], args.repeats, reps))

    recs = []
    for _ in simulator.stream_scenarios(model, control, 0.0, mu0, p.T, DT, SEED, 4,
                                        with_cost=False,
                                        record=simulator.Recorder(4, 10, recs.append)):
        pass
    with tempfile.TemporaryDirectory() as out_dir:
        def write():
            with cli._trajectory_files(out_dir, 1) as sink:
                for rec in recs:
                    sink(rec)

        timing = best_of(write, args.repeats)
        mb = sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir)) / 1e6
        row("writer_4_paths_stride_10", timing, mb, "mb_per_s")

        def estimate_recorded():
            with cli._trajectory_files(out_dir, 1) as sink:
                verify.estimate_cost(model, control, 0.0, mu0, N, M, DT, SEED,
                                     record=simulator.Recorder(4, 10, sink))

        row("estimate_cost_recorded", best_of(estimate_recorded, args.repeats), steps,
            "particle_steps_per_s")

    row("estimate_cost", best_of(estimate, args.repeats), steps, "particle_steps_per_s")

    draws, quick = 20, {}
    for name, value_fn in (("interbank", qv), ("lq3", qv3)):
        bellman_draws = verify.random_clouds(value_fn, draws, 50, SEED)
        grad_draws = verify.random_clouds(value_fn, draws, 20, SEED)

        def bellman(value_fn=value_fn, bellman_draws=bellman_draws):
            for t, cloud in bellman_draws:
                fb = optimal_feedback(value_fn, t)
                verify.bellman_residual(value_fn, t, cloud, (fb.K1, fb.K2, fb.k),
                                        with_terms=True)

        generator_draws = [(value_fn.at(t), cloud, optimal_feedback(value_fn, t))
                           for t, cloud in bellman_draws]

        def generate(value_fn=value_fn, generator_draws=generator_draws):
            for phi, cloud, fb in generator_draws:
                verify.generator_apply(phi, cloud, value_fn.dyn, (fb.K1, fb.K2, fb.k))

        def grad(value_fn=value_fn, grad_draws=grad_draws):
            for t, cloud in grad_draws:
                verify.grad_check(value_fn, t, cloud, 0.1)

        quick.update({f"bellman_residual_{name}_50": bellman, f"generator_{name}_50": generate,
                      f"grad_check_{name}_20": grad})
    # about 4 ms a run: 10 times the repeats, in turns, so that no slow phase covers a row
    for label, timing in zip(quick, in_turn(list(quick.values()), 10 * args.repeats, draws)):
        row(label, timing)

    phi = QuadraticFunctional(np.zeros((1, 1)), np.eye(1), np.zeros(1), 0.0)
    mu_ito = simulator.sample_initial({"kind": "point", "x0": 0.0}, N, SEED)
    row("ito_check_interbank",
        best_of(lambda: verify.ito_generator_check(model, control, 0.0, mu_ito, phi, ITO_DELTA, N,
                                                   ITO_M, DT, SEED), args.repeats))

    mu_dpp = simulator.sample_initial({"kind": "point", "x0": p.x0}, N, SEED)

    def dpp():
        verify.dpp_check(qv, model, 0.0, mu_dpp, DPP_THETA, control, N, DPP_M, DT, SEED)
        for h in (DT, 2 * DT):
            verify.expected_dpp_gap(qv, model, 0.0, mu_dpp, DPP_THETA, control, h)

    for name, gap in (("interbank_500", (qv, model, 0.0, mu_dpp, DPP_THETA, control, DT)),
                      ("interbank_250", (qv, model, 0.0, mu_dpp, DPP_THETA, control, 2 * DT)),
                      ("lq3_1000", (qv3, model3, 0.0, mu3, 1.0, control3, DT))):
        row("expected_gap_" + name,
            best_of(lambda gap=gap: verify.expected_dpp_gap(*gap), args.repeats))

    mu_flow = simulator.sample_initial({"kind": "point", "x0": p.x0}, FLOW_N, SEED)
    rng = np.random.Generator(np.random.Philox(key=SEED))
    nodes = [(i, int(rng.integers(0, K + 1))) for i in range(FLOW_COUNT)]

    def flow():
        verify.flow_rule(verify.flow_restarts(model, control, 0.0, mu_flow, p.T, DT, SEED, nodes))

    for name, fn in (("dpp_check_interbank", dpp), ("flow_check_interbank", flow)):
        row(name, best_of(fn, args.repeats))
        rows[name]["traced_peak_mib"] = traced_peak_mib(fn)

    report = {}
    if os.path.exists(args.out):
        with open(args.out) as fh:
            report = json.load(fh)
    report["workload"] = {"model": "interbank, acceptance parameters", "N": N, "dt": DT,
                          "K": K, "M": M, "seed": SEED, "repeats": args.repeats,
                          "d3_rows": {"d": 3, "m": 2, "N": N3, "M": M3},
                          "ito_rows": {"N": N, "M": ITO_M, "delta": ITO_DELTA},
                          "dpp_rows": {"N": N, "M": DPP_M, "theta": DPP_THETA},
                          "expected_gap_rows": {"interbank": {"N": N, "theta": DPP_THETA},
                                                "lq3": {"N": N3, "theta": 1.0}},
                          "flow_rows": {"N": FLOW_N, "count": FLOW_COUNT, "K": K},
                          "statistic": "minimum (min_s) and median (median_s) wall time and "
                                       "minimum CPU time, children included (cpu_s), of the "
                                       "repeats after one warm-up run"}
    report[args.label] = {
        "git_sha": git_sha(),
        "backend": cmvlq.backend(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "rows": rows,
    }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=2, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
