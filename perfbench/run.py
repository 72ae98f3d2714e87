#!/usr/bin/env python3
"""End-to-end benchmark of the cmvlq commands.

    python3 perfbench/run.py --workload interbank|lq3|verify --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  One process, one client, closed
loop: the workload's commands run one after another through
``cmvlq.cli.main`` in this process, in whole rounds, until the next round
would end after S seconds (at least one round).  Every round repeats the
same commands on the same seed-generated inputs, and every output is
checked after its round, outside the timed region.

--trace 0 prints the end-to-end metrics wall_s, setup_s and peak_rss_mb.
--trace 1 alternates untraced and traced rounds and prints the per-layer
metrics of the traced ones plus trace.overhead_s.  The last line of
standard output is the JSON result; perfbench_out/<workload>/ holds the
artifacts, manifest.json and, when traced, trace.json.
"""

from __future__ import annotations

import os

# one BLAS thread, set before numpy loads
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402

import numpy  # noqa: E402
import scipy  # noqa: E402

import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = "perfbench_out"
SETUP_PROBES = 5
PROBE_TIMEOUT = 60


def _args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["interbank", "lq3", "verify"])
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=float)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return ap.parse_args(argv)


def _git_sha(root):
    """HEAD of the checkout's git directory, read without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(git, ref)
        if os.path.exists(path):
            with open(path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                sha, _, name = line.strip().partition(" ")
                if name == ref:
                    return sha
    except OSError:
        pass
    return None


def _measure_setup(workload, seed, out):
    """Median wall time of SETUP_PROBES fresh set-up processes."""
    probe = os.path.join(HERE, "setup_probe.py")
    samples = []
    for i in range(SETUP_PROBES):
        target = os.path.join(out, f"probe{i}")
        t0 = time.perf_counter()
        proc = subprocess.run([sys.executable, probe, workload, str(seed), target],
                              capture_output=True, text=True, timeout=PROBE_TIMEOUT)
        samples.append(time.perf_counter() - t0)
        shutil.rmtree(target, ignore_errors=True)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed (exit {proc.returncode}):\n{proc.stderr}")
    return samples


def _op_checks(wl, op):
    """(label, thunk) pairs that decide the outputs of one operation."""
    j = os.path.join
    if wl.name == "interbank":
        model, x0 = wl.models["interbank"], wl.x0["interbank"]
        sr = wl.ops[0].out
        ric, rep = j(sr, "riccati.csv"), j(sr, "systemic_risk.json")
        if op.name == "systemic-risk":
            def cost_value():
                r = checks.read_json(rep)
                checks.check_cost_value(r["cost_mean"], r["cost_stderr"], r["value_at_0"], ric,
                                        model, x0, checks.C_INTERBANK, workloads.DT)
            return [
                ("model.txt", lambda: checks.check_model_file(j(sr, "model.txt"), model)),
                ("closed form", lambda: checks.check_closed_form(ric, rep, workloads.ACCEPT)),
                ("solve_ivp", lambda: checks.check_backward(ric, model)),
                ("gains", lambda: checks.check_policy(ric, j(sr, "policy.csv"), model)),
                ("cost-value", cost_value),
                ("means", lambda: checks.check_means(j(sr, "trajectory.csv"), j(sr, "means.csv"),
                                                     workloads.IB_PARTICLES)),
            ]
        return [("shift excess", lambda: checks.check_excess(
            checks.read_json(j(op.out, "cost.json"))["mean"], checks.read_json(rep)["cost_mean"],
            workloads.SHIFT, workloads.ACCEPT["T"]))]
    if wl.name == "lq3":
        model, x0 = wl.models["lq3"], wl.x0["lq3"]
        ric = j(wl.ops[0].out, "riccati.csv")
        if op.name == "solve":
            return [("solve_ivp", lambda: checks.check_backward(ric, model)),
                    ("gains", lambda: checks.check_policy(ric, j(op.out, "policy.csv"), model))]

        def cost_value():
            r = checks.read_json(j(op.out, "cost.json"))
            checks.check_cost_value(r["mean"], r["stderr"], r["value"], ric, model, x0,
                                    checks.C_LQ3, workloads.DT)
        return [("cost-value", cost_value)]
    check = op.argv[1]
    return [(check, lambda: checks.decide_report(j(op.out, f"verify_{check}.json"), check,
                                                 dt=workloads.DT, delta=workloads.ITO_DELTA))]


def _invoke(main, argv, tracer):
    """Run one command; (exit code or None, error text)."""
    sink = io.StringIO()
    try:
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            rc = tracer.span(spans.COMMAND, main, argv) if tracer else main(argv)
        return rc, None if rc == 0 else sink.getvalue()[-2000:]
    except SystemExit as exc:
        return (exc.code if isinstance(exc.code, int) else 1), sink.getvalue()[-2000:]
    except Exception:  # a crash of the program is a failed operation, not a benchmark error
        return None, traceback.format_exc()[-2000:]


def _dir_mb(path):
    size = 0
    for base, _, files in os.walk(path):
        size += sum(os.path.getsize(os.path.join(base, f)) for f in files)
    return size / 1e6


def _run_round(wl, main, tracer, first_hashes):
    for op in wl.ops:
        shutil.rmtree(op.out, ignore_errors=True)
    results = []
    t0 = time.perf_counter()
    for op in wl.ops:
        ts = time.perf_counter()
        rc, err = _invoke(main, op.argv, tracer)
        results.append({"op": op.name, "exit": rc, "seconds": time.perf_counter() - ts,
                        "error": err, "check_failures": []})
    wall = time.perf_counter() - t0

    for op, res in zip(wl.ops, results):
        if res["exit"] != 0:
            continue
        todo = _op_checks(wl, op)
        hashes = checks.artifact_hashes(op.out)
        if op.name in first_hashes:
            todo.append(("rerun", lambda a=first_hashes[op.name], b=hashes: checks.check_rerun(a, b)))
        else:
            first_hashes[op.name] = hashes
        for label, thunk in todo:
            try:
                thunk()
            except Exception as exc:  # noqa: BLE001 - a check that cannot run is a failed check
                res["check_failures"].append(f"{label}: {type(exc).__name__}: {exc}")
    artifact_mb = sum(_dir_mb(op.out) for op in wl.ops)
    return {"wall_s": wall, "traced": tracer is not None, "artifact_mb": artifact_mb,
            "ops": results}


def main(argv=None):
    args = _args(argv)
    if args.seconds <= 0:
        sys.exit("--seconds must be positive")
    os.chdir(ROOT)
    if not os.path.isdir(os.path.join(SRC, "cmvlq")):
        sys.exit(f"no cmvlq sources under {SRC}; run from a source checkout")
    out = os.path.join(OUT, args.workload)
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)

    try:
        setup_samples = _measure_setup(args.workload, args.seed, out)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        sys.exit(str(exc))

    sys.path.insert(0, SRC)
    import cmvlq
    import cmvlq.cli

    if os.path.dirname(os.path.abspath(cmvlq.__file__)) != os.path.join(SRC, "cmvlq"):
        sys.exit(f"imported cmvlq from {cmvlq.__file__}, not from {SRC}")
    wl = workloads.make_inputs(args.workload, args.seed, out)

    tracer = spans.Tracer() if args.trace else None
    rounds, first_hashes, layer = [], {}, []
    start = time.perf_counter()
    while True:
        traced = bool(args.trace) and len(rounds) % 2 == 1
        r0 = time.perf_counter()
        if traced:
            tracer.reset()
            tracer.install()
        try:
            rnd = _run_round(wl, cmvlq.cli.main, tracer if traced else None, first_hashes)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            layer.append(tracer.metrics(rnd["wall_s"], rnd["artifact_mb"]))
        rnd["round_s"] = time.perf_counter() - r0
        rounds.append(rnd)
        print(f"round {len(rounds)}{' (traced)' if traced else ''}: "
              f"{rnd['wall_s']:.3f} s, {sum(1 for o in rnd['ops'] if o['exit'] != 0 or o['check_failures'])}"
              f" of {len(rnd['ops'])} operations failed", flush=True)
        elapsed = time.perf_counter() - start
        typical = statistics.median(r["round_s"] for r in rounds)
        enough = not args.trace or layer
        if enough and elapsed + typical > args.seconds:
            break

    attempted = sum(len(r["ops"]) for r in rounds)
    failed = sum(1 for r in rounds for o in r["ops"] if o["exit"] != 0 or o["check_failures"])
    correct = not any(o["check_failures"] for r in rounds for o in r["ops"] if o["exit"] == 0)
    plain = [r["wall_s"] for r in rounds if not r["traced"]]
    if args.trace:
        metrics = {}
        for key in layer[0]:
            vals = [m[key][0] for m in layer if key in m]
            metrics[key] = {"value": statistics.median(vals), "unit": layer[0][key][1]}
        metrics["trace.overhead_s"] = {
            "value": statistics.median(r["wall_s"] for r in rounds if r["traced"])
            - statistics.median(plain), "unit": "s"}
        with open(os.path.join(out, "trace.json"), "w") as fh:
            json.dump(tracer.table(), fh, indent=2, sort_keys=True)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(plain), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }

    manifest = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": _git_sha(ROOT), "backend": cmvlq.backend(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(),
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "attempted": attempted, "failed": failed, "correct": correct,
        "setup_s_samples": setup_samples, "rounds": rounds, "metrics": metrics,
        "artifact_sha256": first_hashes,
    }
    with open(os.path.join(out, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
