"""Command-line front end.

Subcommands: solve (backward ODE system to CSV), simulate (particle
trajectories and conditional means), cost (Monte Carlo estimate vs the
quadratic value), verify (bellman / dpp / ito / grad / chaos / flow
checks emitting JSON reports), and systemic-risk (end-to-end interbank
example).  Every command is a pure function of (model file, config, seed);
seeds are mandatory wherever randomness is consumed.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager, suppress

import numpy as np

from . import policy as policy_mod
from . import riccati as riccati_mod
from . import verify as verify_mod
from .errors import NonPositiveGain, NumericalBlowup
from .lqmodel import load_model, parse_kv_file, parse_value, save_model, whole_steps
from .policy import FeedbackPolicy, QuadraticValue, optimal_feedback, value
from .simulator import (
    ConstantControl,
    FeedbackControl,
    Recorder,
    ShiftedControl,
    horizon,
    lq_dynamics_spec,
    may_fork,
    sample_initial,
    step_count,
    stream_scenarios,
)

CONFIG_KEYS = {
    "model": str, "out": str, "seed": int, "particles": int, "paths": int,
    "dt": float, "riccati-step": float, "t0": float, "theta": float,
    "epsilon": float, "init": str, "control": str, "stride": int,
    "count": int, "delta": float, "chaos-ns": str,
}
SYSTEMIC_RISK_DEFAULTS = {"kappa": 1.0, "q": 0.5, "eta": 1.0, "c": 1.0, "sigma0": 1.0,
                          "sigma1": 0.0, "rho": 0.5, "T": 1.0, "x0": 1.0}


class _Parser(argparse.ArgumentParser):
    """An argument parser whose errors are configuration errors, not a usage block and an exit."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


def _build_parser():
    top = _Parser(prog="cmvlq", description=__doc__.split("\n\n")[0])
    sub = top.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="key = value file; flags override it")
        p.add_argument("--model", required=False, help="model file path")
        p.add_argument("--out", required=False, help="output directory")
        p.add_argument("--seed", type=lambda s: int(s, 10), help="64-bit seed (mandatory)")
        p.add_argument("--particles", type=int, help="particles per cloud (default 2000)")
        p.add_argument("--paths", type=int, help="Monte Carlo scenarios (default 100)")
        p.add_argument("--dt", type=float, help="simulation step (default 1e-3)")
        p.add_argument("--riccati-step", dest="riccati_step", type=float,
                       help="backward-ODE step (default T/1000)")
        p.add_argument("--t0", type=float, help="initial time (default 0)")
        p.add_argument("--theta", type=float, help="intermediate time (default T/2)")
        p.add_argument("--epsilon", type=float, help="finite-difference step of verify grad (default 0.1)")
        p.add_argument("--init", help="point:<v,..> | gaussian:<mean,..>[:<var,..>] (one v, "
                       "mean or var: every coordinate; var 1 by default) | csv:<path>")
        p.add_argument("--control", help="optimal | zero | const:<v,..> | shift:<eps>")

    p = sub.add_parser("solve", help="integrate the backward ODE system")
    add_common(p)

    p = sub.add_parser("simulate", help="simulate controlled particle paths")
    add_common(p)
    p.add_argument("--stride", type=int, help="trajectory downsampling stride (default 1)")

    p = sub.add_parser("cost", help="Monte Carlo cost estimate")
    add_common(p)

    p = sub.add_parser("verify", help="dynamic-programming checks")
    p.add_argument("check", choices=["bellman", "dpp", "ito", "grad", "chaos", "flow"])
    add_common(p)
    p.add_argument("--count", type=int, help="random draws for bellman/grad/flow")
    p.add_argument("--delta", type=float, help="window for the ito check (default 0.01)")
    p.add_argument("--chaos-ns", dest="chaos_ns", help="comma list of particle counts")

    p = sub.add_parser("systemic-risk", help="end-to-end interbank example")
    add_common(p)
    for name, default in SYSTEMIC_RISK_DEFAULTS.items():
        p.add_argument(f"--{name}", type=float, default=None,
                       help=f"model parameter (default {default})")
    return top


def _merge_config(args):
    """Config-file values fill in flags the user did not pass."""
    cfg = vars(args)
    if cfg.get("config"):
        raw = parse_kv_file(cfg["config"])
        for key, text in raw.items():
            norm = key.replace("_", "-")
            if norm not in CONFIG_KEYS:
                raise ValueError(f"unknown config key {key!r}")
            attr = norm.replace("-", "_")
            if cfg.get(attr) is None:
                cfg[attr] = parse_value(f"config file {cfg['config']}", key, text, CONFIG_KEYS[norm])
    return cfg


def _defaults(cfg, T):
    # count and delta have per-check defaults, set where the check runs
    for knob, default in (("particles", 2000), ("paths", 100), ("dt", 1e-3),
                          ("riccati_step", T / 1000.0), ("t0", 0.0), ("theta", T / 2.0),
                          ("epsilon", 0.1), ("init", "point:0.0"), ("control", "optimal"),
                          ("stride", 1)):
        if cfg.get(knob) is None:
            cfg[knob] = default
    for knob in ("particles", "paths", "stride", "count"):
        if cfg.get(knob) is not None and cfg[knob] < 1:
            raise ValueError(f"{knob} must be >= 1")
    for knob in ("dt", "riccati_step", "delta"):
        if cfg.get(knob) is not None and not 0 < cfg[knob] < math.inf:
            raise ValueError(f"{knob} must be positive and finite")
    for knob in ("t0", "theta", "epsilon"):
        if not math.isfinite(cfg[knob]):
            raise ValueError(f"{knob} must be finite")
    if cfg["t0"] < 0.0:
        raise ValueError(f"--t0 {cfg['t0']!r} is negative: the horizon starts at 0")
    return cfg


def _spec_values(text, rest, n, noun):
    """The finite comma-separated numbers of a spec; one value fills all n."""
    try:
        vals = [float(v) for v in rest.split(",")]
    except ValueError:
        raise ValueError(f"cannot parse {text!r}: {rest!r} is not a list of numbers") from None
    if len(vals) not in (1, n):
        expected = "1" if n == 1 else f"1 or {n}"
        raise ValueError(f"{text} has {len(vals)} {noun}, expected {expected}")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"{text}: values must be finite")
    return np.asarray(vals * (n // len(vals)))


def _parse_init(text, d):
    kind, _, rest = text.partition(":")
    if kind == "point":
        return {"kind": "point", "x0": _spec_values(text, rest or "0.0", d, "coordinates")}
    if kind == "gaussian":
        mean_txt, with_var, var_txt = rest.partition(":")
        mean = _spec_values(text, mean_txt, d, "means")
        var = _spec_values(text, var_txt, d, "variances") if with_var else np.ones(d)
        if not np.all(var >= 0.0):
            raise ValueError(f"{text}: variances must be >= 0")
        return {"kind": "gaussian", "mean": mean, "cov": np.diag(var)}
    if kind == "csv":
        if not rest:
            raise ValueError(f"--init {text!r} names no file: use csv:<path>")
        return {"kind": "csv", "path": rest}
    raise ValueError(f"cannot parse initial condition {text!r}")


def _initial(cfg, init, n, **flag):
    """sample_initial(init, n) at cfg's seed; an error names `flag`, by default --init."""
    with _flagged(cfg, **(flag or {"init": cfg["init"]})):
        return sample_initial(init, n, cfg["seed"])


def _build_control(text, qv):
    if text == "optimal":
        return FeedbackControl(FeedbackPolicy(qv))
    zeros = np.zeros((qv.dyn.m, qv.dyn.d))
    if text == "zero":
        return ConstantControl(zeros, zeros, np.zeros(qv.dyn.m))
    kind, _, rest = text.partition(":")
    if kind == "const":
        return ConstantControl(zeros, zeros, _spec_values(text, rest, qv.dyn.m, "values"))
    if kind == "shift":
        eps = _spec_values(text, rest, qv.dyn.m, "values")
        return ShiftedControl(FeedbackControl(FeedbackPolicy(qv)), eps)
    raise ValueError(f"cannot parse control {text!r}")


def _prepare(cfg, need_model=True):
    if need_model:
        if not cfg.get("model"):
            raise ValueError("--model is required")
        dyn, cost, T = load_model(cfg["model"])
    else:
        dyn = cost = T = None
    if not cfg.get("out"):
        raise ValueError("--out is required")
    os.makedirs(cfg["out"], exist_ok=True)
    return dyn, cost, T


def _require_seed(cfg):
    seed = cfg.get("seed")
    if seed is None:
        raise ValueError("--seed is mandatory (reproducibility contract)")
    if not 0 <= seed < 2**64:
        raise ValueError(f"seed must be in [0, 2**64); got {seed}")


@contextmanager
def _flagged(cfg, **given):
    """Names the command and the flags `given`, with their values, in a driver's ValueError.

    The drivers check their own arguments (scenario count, theta's range,
    the step grid); this only says which flags fed them.
    """
    try:
        yield
    except ValueError as exc:
        command = " ".join(filter(None, (cfg["command"], cfg.get("check"))))
        flags = " ".join(f"--{k.replace('_', '-')} {v!r}" for k, v in given.items())
        raise ValueError(f"{command} {flags}: {exc}") from None


def _solved(dyn, cost, T, cfg):
    h = cfg["riccati_step"]
    try:
        sol = riccati_mod.solve_riccati(dyn, cost, T, h)
    except MemoryError:
        with _flagged(cfg, riccati_step=h):
            raise ValueError(f"not enough memory for {T / h:.6g} backward steps") from None
    return sol, QuadraticValue(sol, dyn, cost)


def _controlled(cfg):
    """The model file's value, model and --control, after the defaults and the seed are checked."""
    dyn, cost, T = _prepare(cfg)
    _defaults(cfg, T)
    _require_seed(cfg)
    sol, qv = _solved(dyn, cost, T, cfg)
    return qv, lq_dynamics_spec(dyn, cost, T), _build_control(cfg["control"], qv)


def _public_config(cfg):
    drop = {"command", "config"}
    return {k: v for k, v in sorted(cfg.items())
            if k not in drop and v is not None and not k.startswith("_")}


# ---------------------------------------------------------------------------
# commands

def cmd_solve(cfg):
    dyn, cost, T = _prepare(cfg)
    _defaults(cfg, T)
    sol, qv = _solved(dyn, cost, T, cfg)
    riccati_mod.save_riccati_csv(sol, os.path.join(cfg["out"], "riccati.csv"))
    policy_mod.save_policy_csv(qv, os.path.join(cfg["out"], "policy.csv"))
    print(f"solved on {sol.n_nodes} nodes; Lam(0) diag = "
          f"{np.diag(sol.Lam[0])}; wrote riccati.csv, policy.csv")
    return 0


@contextmanager
def _trajectory_files(out_dir, d):
    """Opens trajectory.csv and means.csv under out_dir; yields a Recorder sink that fills them.

    Each Recording is formatted by a forked writer process, so the caller
    steps later batches meanwhile: the sink first reaps the previous
    writer, so the files grow in order, flushes both files and forks.  The
    writer leaves through os._exit, flushing nothing it inherited but the
    two files.  A writer that fails raises OSError when it is reaped, at the
    next Recording or when the block ends.  Where the process may not fork
    (simulator.may_fork), the sink writes inline.
    """
    writer = None

    def reap():
        nonlocal writer
        if writer is not None:
            pid, err_r = writer
            writer = None
            with os.fdopen(err_r, "rb") as fh:
                reason = fh.read().decode(errors="replace")
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            if status:
                raise OSError(f"writing trajectory.csv and means.csv failed: "
                              f"{reason or f'the writer process exited with status {status}'}")

    with open(os.path.join(out_dir, "trajectory.csv"), "w") as ft, \
            open(os.path.join(out_dir, "means.csv"), "w") as fm:
        ft.write("path,t,particle," + ",".join(f"x{j}" for j in range(d)) + "\n")
        fm.write("path,t," + ",".join(f"mean_{j}" for j in range(d)) + ",W0_cum\n")

        def sink(rec):
            nonlocal writer
            reap()
            pid = -1
            if may_fork():
                ft.flush()
                fm.flush()
                err_r, err_w = os.pipe()
                try:
                    pid = os.fork()
                except OSError:
                    os.close(err_r)
                    os.close(err_w)
            if pid < 0:
                _write_trajectories(ft, fm, rec)
                return
            if pid == 0:
                status = 1
                try:
                    os.close(err_r)
                    _write_trajectories(ft, fm, rec)
                    ft.flush()
                    fm.flush()
                    status = 0
                except BaseException as exc:  # noqa: BLE001 - reported by the parent
                    os.write(err_w, f"{type(exc).__name__}: {exc}".encode())
                finally:
                    os._exit(status)
            os.close(err_w)
            writer = pid, err_r

        try:
            yield sink
        except BaseException:
            with suppress(OSError):  # the exception under way is the one to report
                reap()
            raise
        reap()


def _write_trajectories(ft, fm, rec):
    """Appends the recorded nodes of one batch (a Recording) to the trajectory and means files."""
    _, P, n, d = rec.states.shape
    fields = [f",{i}," for i in range(n)]
    w0 = np.zeros((rec.dw0.shape[0] + 1, P))
    np.cumsum(rec.dw0[:, :, 0], axis=0, out=w0[1:])
    for j, p in enumerate(rec.paths):
        for i, (k, t) in enumerate(zip(rec.nodes.tolist(), rec.times.tolist())):
            head = f"{p},{t!r}"
            # repr of every coordinate, grouped d at a time into particle rows
            vals = map(repr, rec.states[i, j].ravel().tolist())
            rows = map(",".join, zip(*[vals] * d))
            ft.write("".join([head + field + row + "\n" for field, row in zip(fields, rows)]))
            fm.write(f"{head}," + ",".join(map(repr, rec.means[i, j].tolist())) +
                     f",{float(w0[k, j])!r}\n")


def cmd_simulate(cfg):
    qv, model, control = _controlled(cfg)
    mu0 = _initial(cfg, _parse_init(cfg["init"], model.d), cfg["particles"])
    with _trajectory_files(cfg["out"], model.d) as sink:
        for _ in stream_scenarios(model, control, cfg["t0"], mu0, model.T, cfg["dt"], cfg["seed"],
                                  cfg["paths"], with_cost=False,
                                  record=Recorder(cfg["paths"], cfg["stride"], sink)):
            pass
    print(f"simulated {cfg['paths']} path(s); wrote trajectory.csv, means.csv")
    return 0


def cmd_cost(cfg):
    qv, model, control = _controlled(cfg)
    cloud0 = _initial(cfg, _parse_init(cfg["init"], model.d), cfg["particles"])
    with _flagged(cfg, paths=cfg["paths"], t0=cfg["t0"], dt=cfg["dt"]):
        est = verify_mod.estimate_cost(model, control, cfg["t0"], cloud0,
                                       cfg["particles"], cfg["paths"], cfg["dt"], cfg["seed"])
    out = {
        "command": "cost",
        "mean": est.mean,
        "stderr": est.stderr,
        "value": value(qv, cfg["t0"], cloud0),
        "config": _public_config(cfg),
    }
    verify_mod.save_report(os.path.join(cfg["out"], "cost.json"), out)
    print(f"cost mean = {est.mean!r} (stderr {est.stderr:.3e}); wrote cost.json")
    return 0


def cmd_verify(cfg):
    qv, model, control = _controlled(cfg)
    check, seed, dt, t0 = cfg["check"], cfg["seed"], cfg["dt"], cfg["t0"]
    n, m = cfg["particles"], cfg["paths"]
    count = cfg.get("count") or (10 if check == "flow" else 100)
    if check in ("bellman", "grad"):
        # these draw their own times, but a --t0 past T is an error in every command
        init = None
        with _flagged(cfg, t0=t0):
            horizon(t0, model.T)
    else:
        init = _parse_init(cfg["init"], model.d)
        mu0 = None if check == "chaos" else _initial(cfg, init, n)
    if check == "bellman":
        draws = []
        for i in range(count):
            t, cloud = verify_mod.random_clouds(qv, 1, 50, seed + i)[0]
            fb = optimal_feedback(qv, t)
            draws.append((t, *verify_mod.bellman_residual(qv, t, cloud, (fb.K1, fb.K2, fb.k),
                                                          with_terms=True)))
        result = verify_mod.bellman_rule(draws)
    elif check == "grad":
        clouds = (verify_mod.random_clouds(qv, 1, 20, seed + i)[0] for i in range(count))
        result = verify_mod.grad_rule([(t, verify_mod.grad_check(qv, t, cloud, cfg["epsilon"]))
                                       for t, cloud in clouds])
    elif check == "dpp":
        # the step constant from the expected gaps at dt and at 2 dt, so theta - t0 must be
        # whole steps of both, of either sign (theta < t0 is dpp_check's range error)
        span = cfg["theta"] - t0
        whole_steps(abs(span), 2 * dt, 0,
                    f"2 dt = {2 * dt!r} (dt={dt!r}) divides theta - t0 = {span!r}",
                    f"theta - t0 = {span!r} (theta = {cfg['theta']!r}, t0 = {t0!r}) must be a "
                    f"whole number of steps 2 dt = {2 * dt!r}: verify dpp compares runs at "
                    f"dt = {dt!r} and at 2 dt")
        with _flagged(cfg, paths=m, theta=cfg["theta"]):
            fine = verify_mod.dpp_check(qv, model, t0, mu0, cfg["theta"], control, n, m, dt, seed)
        expected = [verify_mod.expected_dpp_gap(qv, model, t0, mu0, cfg["theta"], control, h)
                    for h in (dt, 2 * dt)]
        c_dt = max(1.0, abs(expected[1] - expected[0]) / dt)
        result = verify_mod.dpp_rule(fine, dt, c_dt, cfg["control"] == "optimal", expected)
    elif check == "ito":
        d = model.d
        phi = policy_mod.QuadraticFunctional(np.zeros((d, d)), np.eye(d), np.zeros(d), 0.0)
        delta = cfg.get("delta") or 0.01
        with _flagged(cfg, paths=m, t0=t0, dt=dt, delta=delta):
            res = verify_mod.ito_generator_check(model, control, t0, mu0, phi, delta, n, m, dt,
                                                 seed)
        result = verify_mod.ito_rule(res, dt, bias_factor=1.0)
    elif check == "chaos":
        # only along the optimal feedback is the value the cost's large-N limit
        if cfg["control"] != "optimal":
            raise ValueError(f"verify chaos needs --control optimal, not {cfg['control']!r}: "
                             "no closed-form limit to converge to")
        ns_txt = cfg.get("chaos_ns")
        if ns_txt is None:
            ns_txt = "250,1000,4000"
        try:
            ns = [int(v) for v in ns_txt.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse --chaos-ns {ns_txt!r} as particle counts") from None
        if min(ns) < 1:
            raise ValueError(f"--chaos-ns {ns_txt!r}: particle counts must be >= 1")
        with _flagged(cfg, init=cfg["init"], chaos_ns=ns_txt, paths=m, t0=t0, dt=dt):
            rows = verify_mod.chaos_convergence(model, control, t0, init, ns, m, dt, seed)
        values = [value(qv, t0, sample_initial(init, r["N"], seed)) for r in rows]
        result = verify_mod.chaos_rule(rows, values)
    else:
        with _flagged(cfg, t0=t0, dt=dt):
            n_steps = step_count(model, t0, mu0, model.T, dt)
        # restart nodes never depend on the paths: draw them all first
        rng = np.random.Generator(np.random.Philox(key=seed))
        nodes = [(i, int(rng.integers(0, n_steps + 1))) for i in range(count)]
        result = verify_mod.flow_rule(verify_mod.flow_restarts(model, control, t0, mu0, model.T,
                                                               dt, seed, nodes))
    verify_mod.save_report(os.path.join(cfg["out"], f"verify_{check}.json"),
                           result.report(_public_config(cfg)))
    print(f"verify {check}: {'PASS' if result.passed else 'FAIL'} "
          f"(statistic {result.statistic:.6e}, tolerance {result.tolerance:.6e})")
    return 0 if result.passed else 1


def cmd_systemic_risk(cfg):
    _prepare(cfg, need_model=False)
    params = riccati_mod.SystemicRiskParams(**{
        k: default if cfg.get(k) is None else cfg[k]
        for k, default in SYSTEMIC_RISK_DEFAULTS.items()})
    _defaults(cfg, params.T)
    _require_seed(cfg)
    # the trajectories are recorded from the cost estimate's own scenarios,
    # which start at 0
    if cfg["t0"] != 0.0:
        raise ValueError("systemic-risk runs from t0 = 0")
    cfg["init"] = f"point:{params.x0!r}"
    mu0 = _initial(cfg, _parse_init(cfg["init"], 1), cfg["particles"], x0=params.x0)
    dyn, cost = riccati_mod.systemic_risk_model(params)
    out = cfg["out"]
    # solved before any file is written: a bad --riccati-step leaves the directory empty
    sol, qv = _solved(dyn, cost, params.T, cfg)
    save_model(os.path.join(out, "model.txt"), dyn, cost, params.T)
    riccati_mod.save_riccati_csv(sol, os.path.join(out, "riccati.csv"))
    policy_mod.save_policy_csv(qv, os.path.join(out, "policy.csv"))

    lam_cf = np.array([riccati_mod.closed_form_lambda(params, t) for t in sol.grid])
    lam_num = sol.Lam[:, 0, 0]
    err = np.abs(lam_num - lam_cf)
    riccati_mod.write_columns(os.path.join(out, "lambda_compare.csv"),
                              ["t", "lambda_numeric", "lambda_closed_form", "abs_err"],
                              (sol.grid, lam_num, lam_cf, err))
    max_err = float(np.max(err))

    model = lq_dynamics_spec(dyn, cost, params.T)
    control = FeedbackControl(FeedbackPolicy(qv))
    with _trajectory_files(out, 1) as sink:
        record = Recorder(min(cfg["paths"], 4), max(cfg["stride"], 10), sink)
        with _flagged(cfg, paths=cfg["paths"], dt=cfg["dt"]):
            est = verify_mod.estimate_cost(model, control, 0.0, mu0, cfg["particles"],
                                           cfg["paths"], cfg["dt"], cfg["seed"], record=record)
    w0 = value(qv, 0.0, mu0)
    dp, dm = riccati_mod.delta_pm(params)
    report = {
        "command": "systemic-risk",
        "delta_plus": dp,
        "delta_minus": dm,
        "lambda0": float(lam_num[0]),
        "lambda_terminal": float(lam_num[-1]),
        "max_lambda_abs_err": max_err,
        "cost_mean": est.mean,
        "cost_stderr": est.stderr,
        "value_at_0": w0,
        "cost_value_gap": est.mean - w0,
        "config": _public_config(cfg),
    }
    verify_mod.save_report(os.path.join(out, "systemic_risk.json"), report)
    print(f"delta+ = {dp!r}, delta- = {dm!r}")
    print(f"Lambda(0) = {float(lam_num[0])!r} (closed form {float(lam_cf[0])!r}, "
          f"max abs err {max_err:.3e})")
    print(f"cost {est.mean:.6f} +- {est.stderr:.6f} vs value {w0:.6f}")
    return 0


def main(argv=None):
    parser = _build_parser()
    cfg = {}
    try:
        args = parser.parse_args(argv)
        cfg = _merge_config(args)
        command = {"solve": cmd_solve, "simulate": cmd_simulate, "cost": cmd_cost,
                   "verify": cmd_verify}.get(cfg["command"], cmd_systemic_risk)
        # every non-finite value already exits 3; numpy's FP warnings would only repeat it
        with np.errstate(all="ignore"):
            return command(cfg)
    except (NonPositiveGain, NumericalBlowup) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except (ValueError, KeyError, OSError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        sizes = ", ".join(f"{k} = {cfg.get(k)}" for k in ("particles", "paths", "dt"))
        print(f"configuration error: not enough memory for {sizes}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
