"""Layer spans recorded from outside the program.

``Tracer.install()`` replaces each layer-boundary function of ``cmvlq``
with a wrapper in every ``cmvlq`` module namespace (and on the class, for
methods) that holds it, so calls made through imported names are caught
too.  ``uninstall()`` puts the originals back.  Functions are looked up by
name at install time: one that a later version of the program no longer
has is skipped, and the metrics that need it are left out of the report.

Spans are aggregated in memory as they close: per span name the call
count, the total (inclusive) time and the self time, which is the span
minus the time its child spans cover.
"""

from __future__ import annotations

import functools
import sys
import time

# span name -> (module, attribute) pairs it wraps; "Class.method" wraps a method
SPANS = {
    "riccati.solve": [("riccati", "solve_riccati")],
    "riccati.rhs": [("riccati", "ode_rhs")],
    "lqmodel.gains": [("lqmodel", "gains")],
    "lqmodel.gain_blocks": [("lqmodel", "gain_blocks")],
    "policy.grid": [("policy", "FeedbackPolicy.grid_gains")],
    "policy.feedback": [("policy", "optimal_feedback")],
    "policy.value": [("policy", "QuadraticFunctional.__call__")],
    "simulator.path": [("simulator", "_simulate")],
    "simulator.noise": [("simulator", "_gen_noise")],
    "simulator.step": [("simulator", "_run_fast_scalar"), ("simulator", "_run_generic")],
    "simulator.cost": [("simulator", "pathwise_cost")],
    "verify.mc": [("verify", "estimate_cost"), ("verify", "dpp_check"),
                  ("verify", "ito_generator_check"), ("verify", "chaos_convergence")],
    "verify.generator": [("verify", "generator_apply")],
    "verify.bellman": [("verify", "bellman_residual")],
    "verify.grad": [("verify", "grad_check")],
    "measure.tree_sum": [("measure", "tree_sum")],
    "cli.write": [("cli", "_write_trajectories"), ("cli", "_json_dump"),
                  ("riccati", "save_riccati_csv"), ("policy", "save_policy_csv"),
                  ("verify", "save_report"), ("lqmodel", "save_model")],
}
# the benchmark's own span around each cmvlq command
COMMAND = "cli.command"
PACKAGE = "cmvlq"


def _arg(args, kwargs, index, name):
    return kwargs[name] if name in kwargs else args[index]


class Tracer:
    def __init__(self):
        self._patches = []
        self.installed = set()
        self.reset()

    def reset(self):
        self.stats = {}
        self.work = {"rk4_steps": 0, "normals": 0, "particle_steps": 0,
                     "generator_pairs": 0, "grid_hits": 0, "state_mb_per_path": 0.0}
        self._stack = []

    # -- span bookkeeping --------------------------------------------------

    def _enter(self):
        frame = [0.0]
        self._stack.append(frame)
        return frame

    def _exit(self, name, frame, dur):
        self._stack.pop()
        st = self.stats.setdefault(name, [0, 0.0, 0.0])
        st[0] += 1
        st[1] += dur
        st[2] += dur - frame[0]
        if self._stack:
            self._stack[-1][0] += dur

    def span(self, name, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as a span called name."""
        frame = self._enter()
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._exit(name, frame, time.perf_counter() - t0)

    def _wrap(self, name, fn):
        count = self._work_counter(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            before = count(args, kwargs) if count else None
            frame = self._enter()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(name, frame, time.perf_counter() - t0)
                if before is not None and self.stats.get("policy.feedback", [0])[0] == before:
                    self.work["grid_hits"] += 1

        return wrapper

    def _work_counter(self, name):
        """Records the work of one call from its arguments, before it runs.

        Only the grid counter returns a value: the optimal_feedback count
        before the call, so that a call that made none counts as a hit.
        """
        w = self.work

        def rk4(args, kwargs):
            T, h = float(_arg(args, kwargs, 2, "T")), float(_arg(args, kwargs, 3, "h"))
            w["rk4_steps"] += int(round(T / h))

        def noise(args, kwargs):
            n_steps, n, n_idio, m0 = (int(_arg(args, kwargs, i, k)) for i, k in
                                      ((3, "n_steps"), (4, "n_particles"), (5, "n_idio"), (6, "m0")))
            w["normals"] += n_steps * (n * n_idio + m0)

        def path(args, kwargs):
            x0 = _arg(args, kwargs, 3, "x0")
            n_steps = int(_arg(args, kwargs, 4, "n_steps"))
            n, d = x0.shape
            w["particle_steps"] += n_steps * n
            # states (K+1, N, d) plus idiosyncratic increments (K, N, n=1), in doubles
            mb = 8.0 * ((n_steps + 1) * n * d + n_steps * n) / 1e6
            w["state_mb_per_path"] = max(w["state_mb_per_path"], mb)

        def pairs(args, kwargs):
            w["generator_pairs"] += _arg(args, kwargs, 1, "mu").n ** 2

        def feedback_count(args, kwargs):
            return self.stats.get("policy.feedback", [0])[0]

        return {"riccati.solve": rk4, "simulator.noise": noise, "simulator.path": path,
                "verify.generator": pairs, "policy.grid": feedback_count}.get(name)

    # -- patching ------------------------------------------------------------

    def install(self):
        mods = {k[len(PACKAGE) + 1:]: m for k, m in list(sys.modules.items())
                if m is not None and k.startswith(PACKAGE + ".")}
        pkg = sys.modules[PACKAGE]
        for name, targets in SPANS.items():
            for mod_name, attr in targets:
                mod = mods.get(mod_name)
                if mod is None:
                    continue
                owner, _, meth = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                orig = getattr(holder, meth, None) if holder is not None else None
                if orig is None:
                    continue
                wrapper = self._wrap(name, orig)
                if owner:
                    self._patch(holder, meth, orig, wrapper)
                else:
                    for m in list(mods.values()) + [pkg]:
                        for key, val in list(vars(m).items()):
                            if val is orig:
                                self._patch(m, key, orig, wrapper)
                self.installed.add(name)

    def _patch(self, obj, key, orig, wrapper):
        setattr(obj, key, wrapper)
        self._patches.append((obj, key, orig))

    def uninstall(self):
        for obj, key, orig in reversed(self._patches):
            setattr(obj, key, orig)
        self._patches = []

    # -- metrics -------------------------------------------------------------

    def metrics(self, wall, artifact_mb):
        """Per-layer metrics of one traced round; absent layers are left out."""
        stats, w, have = self.stats, self.work, self.installed

        def count(n):
            return self.stats.get(n, [0, 0.0, 0.0])[0]

        def total(n):
            return self.stats.get(n, [0, 0.0, 0.0])[1]

        def own(*names):
            return sum(stats.get(n, [0, 0.0, 0.0])[2] for n in names)

        def rate(work, seconds):
            return work / seconds if seconds > 0 else 0.0

        out = {}

        def put(key, value, unit, needs):
            if all(n in have or n == COMMAND for n in needs):
                out[key] = (float(value), unit)

        put("riccati.solve_s", own("riccati.solve", "riccati.rhs"), "s", ["riccati.solve", "riccati.rhs"])
        put("riccati.solves", count("riccati.solve"), "count", ["riccati.solve"])
        put("riccati.rk4_steps_per_s", rate(w["rk4_steps"], total("riccati.solve")), "1/s",
            ["riccati.solve"])
        put("riccati.rhs_calls", count("riccati.rhs"), "count", ["riccati.rhs"])
        put("policy.grid_s", own("policy.grid"), "s", ["policy.grid"])
        put("policy.grid_calls", count("policy.grid"), "count", ["policy.grid"])
        put("policy.grid_hit_ratio", rate(w["grid_hits"], count("policy.grid")), "ratio",
            ["policy.grid", "policy.feedback"])
        put("policy.feedback_evals", count("policy.feedback"), "count", ["policy.feedback"])
        put("policy.feedback_s", own("policy.feedback"), "s", ["policy.feedback"])
        put("policy.value_evals", count("policy.value"), "count", ["policy.value"])
        put("policy.value_s", own("policy.value"), "s", ["policy.value"])
        put("simulator.paths", count("simulator.path"), "count", ["simulator.path"])
        put("simulator.path_s", own("simulator.path"), "s", ["simulator.path"])
        put("simulator.noise_s", own("simulator.noise"), "s", ["simulator.noise"])
        put("simulator.normals_per_s", rate(w["normals"], total("simulator.noise")), "1/s",
            ["simulator.noise"])
        put("simulator.step_s", own("simulator.step"), "s", ["simulator.step"])
        put("simulator.particle_steps_per_s", rate(w["particle_steps"], total("simulator.step")),
            "1/s", ["simulator.step", "simulator.path"])
        put("simulator.cost_s", own("simulator.cost"), "s", ["simulator.cost"])
        put("simulator.state_mb_per_path", w["state_mb_per_path"], "MB", ["simulator.path"])
        put("verify.mc_s", own("verify.mc"), "s", ["verify.mc"])
        put("verify.generator_s", own("verify.generator"), "s", ["verify.generator"])
        put("verify.generator_pairs_per_s", rate(w["generator_pairs"], total("verify.generator")),
            "1/s", ["verify.generator"])
        put("verify.bellman_s", own("verify.bellman"), "s", ["verify.bellman"])
        put("verify.grad_s", own("verify.grad"), "s", ["verify.grad"])
        put("lqmodel.gain_blocks_calls", count("lqmodel.gain_blocks"), "count", ["lqmodel.gain_blocks"])
        put("lqmodel.gains_s", own("lqmodel.gains", "lqmodel.gain_blocks"), "s",
            ["lqmodel.gains", "lqmodel.gain_blocks"])
        put("measure.tree_sum_calls", count("measure.tree_sum"), "count", ["measure.tree_sum"])
        put("measure.tree_sum_s", own("measure.tree_sum"), "s", ["measure.tree_sum"])
        put("cli.commands", count(COMMAND), "count", [COMMAND])
        put("cli.self_s", own(COMMAND), "s", [COMMAND])
        put("cli.write_s", own("cli.write"), "s", ["cli.write"])
        put("cli.artifact_mb", artifact_mb, "MB", [COMMAND])
        put("cli.write_mb_per_s", rate(artifact_mb, own("cli.write")), "MB/s", ["cli.write"])
        put("trace.wall_s", wall, "s", [COMMAND])
        put("trace.unaccounted_s", wall - sum(st[2] for st in stats.values()), "s", [COMMAND])
        return out

    def table(self):
        """Per-span count, total and self seconds, for the run directory."""
        return {name: {"calls": st[0], "total_s": st[1], "self_s": st[2]}
                for name, st in sorted(self.stats.items())}
