import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

from cmvlq import cli, riccati, simulator, verify
from cmvlq.lqmodel import save_model

from conftest import forked_pids, inline_noise, make_interbank, random_lq, reaped


@pytest.fixture(scope="module")
def model_file(tmp_path_factory):
    _, dyn, cost, _, _ = make_interbank(h=0.25)
    path = tmp_path_factory.mktemp("model") / "interbank.txt"
    save_model(path, dyn, cost, 1.0)
    return str(path)


def run_cli(*args):
    return cli.main(list(args))


def child_env(**extra):
    """The environment for a child interpreter that imports this checkout's cmvlq.

    Without PYTHONUNBUFFERED: with unbuffered stdout a forked process
    inherits no buffer to flush, so a test could not see output it repeats.
    """
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__))),
                **extra)


class TestSolve:
    def test_writes_artifacts(self, model_file, tmp_path):
        out = tmp_path / "out"
        assert run_cli("solve", "--model", model_file, "--out", str(out),
                       "--riccati-step", "0.01") == 0
        lines = (out / "riccati.csv").read_text().strip().split("\n")
        assert len(lines) == 102
        assert (out / "policy.csv").exists()

    def test_missing_model_is_config_error(self, tmp_path):
        assert run_cli("solve", "--out", str(tmp_path)) == 2

    def test_bad_model_path(self, tmp_path):
        assert run_cli("solve", "--model", str(tmp_path / "nope.txt"),
                       "--out", str(tmp_path)) == 2


class TestSystemicRisk:
    def test_terminal_lambda_half(self, tmp_path, capsys):
        out = tmp_path / "sr"
        code = run_cli("systemic-risk", "--out", str(out), "--seed", "11",
                       "--kappa", "1", "--q", "0", "--eta", "1", "--c", "1",
                       "--sigma0", "1", "--sigma1", "0", "--rho", "0.5", "--T", "1",
                       "--particles", "200", "--paths", "8", "--dt", "0.01")
        assert code == 0
        printed = capsys.readouterr().out
        assert "delta+" in printed and "Lambda(0)" in printed
        rows = (out / "riccati.csv").read_text().strip().split("\n")
        last = rows[-1].split(",")
        header = rows[0].split(",")
        assert float(last[header.index("Lam_00")]) == 0.5
        assert float(last[header.index("t")]) == 1.0
        report = json.loads((out / "systemic_risk.json").read_text())
        assert report["lambda_terminal"] == 0.5
        assert report["max_lambda_abs_err"] <= 1e-8
        assert (out / "model.txt").exists()
        assert (out / "lambda_compare.csv").exists()
        assert (out / "means.csv").exists()


    MC = ["--seed", "5", "--particles", "50", "--paths", "6", "--dt", "0.01"]

    def test_trajectories_are_simulate_output(self, tmp_path):
        # paths 0-3 at stride 10, recorded from the cost estimate's scenarios
        sr, sim = tmp_path / "sr", tmp_path / "sim"
        assert run_cli("systemic-risk", "--out", str(sr), "--sigma1", "0.3", *self.MC) == 0
        assert run_cli("simulate", "--model", str(sr / "model.txt"), "--out", str(sim),
                       "--init", "point:1.0", *self.MC, "--paths", "4", "--stride", "10") == 0
        for name in ("trajectory.csv", "means.csv"):
            assert (sr / name).read_bytes() == (sim / name).read_bytes()

    def test_steps_each_scenario_once(self, tmp_path, monkeypatch):
        steps = []
        loop = simulator._run_generic

        def counting(model, bufs, mom, K1, K2, kk, dt, dw0, db, **kw):
            steps.append(dw0.shape[1] * dw0.shape[0])
            return loop(model, bufs, mom, K1, K2, kk, dt, dw0, db, **kw)

        monkeypatch.setattr(simulator, "_run_generic", counting)
        assert run_cli("systemic-risk", "--out", str(tmp_path), *self.MC) == 0
        # M = 6 scenarios of K = 100 steps, the 4 recorded ones among them
        assert sum(steps) == 6 * 100


class TestTrajectoryWriter:
    """Each recorded batch is formatted by a forked writer process while later batches step."""

    MC = ["--seed", "5", "--particles", "50", "--dt", "0.01"]

    def outputs(self, out):
        return [(out / name).read_bytes() for name in ("trajectory.csv", "means.csv")]

    @pytest.mark.parametrize("command", ["systemic-risk", "simulate"])
    def test_forked_and_inline_routes_agree(self, model_file, tmp_path, monkeypatch, command):
        # systemic-risk records paths 0-3 of its first batch; simulate, with a
        # budget for two recorded scenarios per batch, records 5 paths in
        # batches of 2, 2 and 1, so three writers append in turn; the noise
        # of a batch of 6 (systemic-risk) or 2 (simulate) is drawn in chunks of
        # 4 or 13 steps
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES",
                            {"systemic-risk": 6 * 50, "simulate": 2 * 50}[command])
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2600)
        argv = {"systemic-risk": ["systemic-risk", "--sigma1", "0.3", "--paths", "6"],
                "simulate": ["simulate", "--model", model_file, "--init", "point:1.0",
                             "--paths", "5"]}[command]
        pids = forked_pids(monkeypatch)
        runs = []
        for route in ("forked", "inline"):
            if route == "inline":
                inline_noise(monkeypatch)
            out = tmp_path / route
            assert run_cli(*argv, *self.MC, "--out", str(out)) == 0
            runs.append(self.outputs(out))
        assert runs[0] == runs[1]
        # the noise drawing process, then one writer per recorded batch
        assert len(pids) == {"systemic-risk": 2, "simulate": 4}[command]
        assert all(reaped(pid) for pid in pids)

    def test_blowup_after_the_recorded_batch(self, tmp_path, monkeypatch, capsys):
        # batches of 4 paths: the first is recorded, and once its writer is
        # forked, the next batch's first step fails
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 4 * 50)
        # each batch's 100 steps in one chunk, and the call's noise past one buffer's
        # budget, so a drawing process is forked first
        monkeypatch.setattr(simulator, "_CHUNK_DOUBLES", 2 * 100 * 4 * 50)
        pids = forked_pids(monkeypatch)
        loop = simulator._run_generic

        def failing(model, bufs, *args, **kwargs):
            bad, bufs, mom = loop(model, bufs, *args, **kwargs)
            if len(pids) >= 2:
                rows, c = bufs[0].copy(), bufs[1]
                rows[c, 0, 0] = np.nan
                return 0, (rows, c), mom
            return bad, bufs, mom

        monkeypatch.setattr(simulator, "_run_generic", failing)
        assert run_cli("systemic-risk", "--out", str(tmp_path), "--paths", "8", *self.MC) == 3
        assert capsys.readouterr().err == ("numerical failure: numerical blowup at t=0.01, "
                                           "path 4, step 1, particle 0: value nan exceeded "
                                           "1e12 or is NaN\n")
        # the writer was reaped, and had written every recorded node
        assert len(pids) == 2 and all(reaped(pid) for pid in pids)
        assert len((tmp_path / "means.csv").read_text().splitlines()) == 1 + 4 * 11

    def test_writer_failure_exits_two(self, tmp_path, monkeypatch, capsys):
        parent, write = os.getpid(), cli._write_trajectories

        def failing(ft, fm, rec):
            if os.getpid() != parent:
                raise OSError("No space left on device")
            write(ft, fm, rec)

        monkeypatch.setattr(cli, "_write_trajectories", failing)
        pids = forked_pids(monkeypatch)
        assert run_cli("systemic-risk", "--out", str(tmp_path), "--paths", "6", *self.MC) == 2
        assert capsys.readouterr().err == ("configuration error: writing trajectory.csv and "
                                           "means.csv failed: OSError: No space left on "
                                           "device\n")
        assert pids and all(reaped(pid) for pid in pids)

    def test_forked_processes_leave_stdout_alone(self, tmp_path):
        # stdout is a pipe, so block-buffered: a forked process that flushed
        # the buffer it inherited would repeat "start", and one that returned
        # into the caller would repeat the lines after it.  The sizes give
        # the noise drawing process several chunks and the writer 4 paths
        mc = ["--seed", "3", "--particles", "2000", "--paths", "16", "--dt", "0.01"]
        sr = ["systemic-risk", "--out", str(tmp_path / "sr"), *mc]
        cost = ["cost", "--model", str(tmp_path / "sr" / "model.txt"),
                "--out", str(tmp_path / "cost"), "--init", "point:1.0", *mc]
        script = ("from cmvlq.cli import main\n"
                  "print('start')\n"
                  f"print('systemic-risk exit', main({sr!r}))\n"
                  f"print('cost exit', main({cost!r}))\n")
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                              env=child_env(), timeout=300)
        assert proc.returncode == 0 and proc.stderr == "", proc.stderr
        lines = proc.stdout.split("\n")
        prefixes = ["start", "delta+ = ", "Lambda(0) = ", "cost ", "systemic-risk exit 0",
                    "cost mean = ", "cost exit 0", ""]
        assert len(lines) == len(prefixes), proc.stdout
        assert all(line.startswith(p) for line, p in zip(lines, prefixes)), proc.stdout
        assert (tmp_path / "sr" / "trajectory.csv").stat().st_size > 0


class TestCost:
    def test_reruns_byte_identical(self, model_file, tmp_path):
        out1, out2 = tmp_path / "a", tmp_path / "b"
        common = ["cost", "--model", model_file, "--seed", "42",
                  "--particles", "100", "--paths", "6", "--dt", "0.02",
                  "--init", "point:1.0"]
        assert run_cli(*common, "--out", str(out1)) == 0
        assert run_cli(*common, "--out", str(out2)) == 0
        a = (out1 / "cost.json").read_bytes()
        b = (out2 / "cost.json").read_bytes()
        assert a.replace(str(out1).encode(), b"") == b.replace(str(out2).encode(), b"")

    def test_requires_seed(self, model_file, tmp_path):
        assert run_cli("cost", "--model", model_file, "--out", str(tmp_path)) == 2


class TestSimulate:
    def test_writes_csvs(self, model_file, tmp_path):
        out = tmp_path / "sim"
        assert run_cli("simulate", "--model", model_file, "--out", str(out),
                       "--seed", "3", "--particles", "20", "--paths", "2",
                       "--dt", "0.05", "--stride", "5", "--init", "point:1.0") == 0
        traj = (out / "trajectory.csv").read_text().strip().split("\n")
        assert traj[0] == "path,t,particle,x0"
        means = (out / "means.csv").read_text().strip().split("\n")
        assert means[0] == "path,t,mean_0,W0_cum"
        # stride 5 on 20 steps -> 5 sampled nodes per path
        assert len(means) == 1 + 2 * 5
        # every cell parses as a plain number
        for line in means[1:] + traj[1:]:
            for cell in line.split(","):
                float(cell)

    def test_control_variants(self, model_file, tmp_path):
        for ctrl in ("zero", "const:0.3", "shift:0.1"):
            out = tmp_path / ctrl.replace(":", "_")
            assert run_cli("simulate", "--model", model_file, "--out", str(out),
                           "--seed", "3", "--particles", "10", "--paths", "1",
                           "--dt", "0.1", "--control", ctrl) == 0


class TestVerify:
    def test_flow_passes(self, model_file, tmp_path):
        out = tmp_path / "flow"
        assert run_cli("verify", "flow", "--model", model_file, "--out", str(out),
                       "--seed", "5", "--particles", "30", "--dt", "0.05",
                       "--count", "4") == 0
        report = json.loads((out / "verify_flow.json").read_text())
        assert report["pass"] is True and report["check"] == "flow"

    @pytest.mark.parametrize("target, named", [("dw0", "dw0"), ("db", "states")])
    def test_flow_failure_names_the_array(self, tmp_path, monkeypatch, target, named):
        # no common-noise loading (rho = 0), so a moved common draw moves no
        # state; every run that starts past node 0 (a continuation: each
        # reference path is drawn in one chunk, which a budget of 4 scenarios
        # of 30 particles sizes past 20 steps) has its first draw moved
        monkeypatch.setattr(simulator, "_BATCH_DOUBLES", 4 * 30)
        _, dyn, cost, _, _ = make_interbank(h=0.25, rho=0.0)
        model = tmp_path / "rho0.txt"
        save_model(model, dyn, cost, 1.0)
        real = simulator._gen_noise

        def gen(seed, path_index, step_offset, n_steps, *args, out=None):
            dw0, db = real(seed, path_index, step_offset, n_steps, *args, out=out)
            if step_offset > 0:
                (dw0 if target == "dw0" else db).flat[0] += 0.5
            return dw0, db

        monkeypatch.setattr(simulator, "_gen_noise", gen)
        out = tmp_path / "flow"
        assert run_cli("verify", "flow", "--model", str(model), "--out", str(out),
                       "--seed", "5", "--particles", "30", "--dt", "0.05", "--count", "4") == 1
        report = json.loads((out / "verify_flow.json").read_text())
        rng = np.random.Generator(np.random.Philox(key=5))
        nodes = [int(rng.integers(0, 21)) for _ in range(4)]
        assert report["pass"] is False and report["constituents"] == {
            "restarts": 4, "failures": [[i, j, named] for i, j in enumerate(nodes) if 0 < j < 20]}
        assert report["constituents"]["failures"]

    def test_bellman_passes(self, model_file, tmp_path):
        out = tmp_path / "bellman"
        assert run_cli("verify", "bellman", "--model", model_file, "--out", str(out),
                       "--seed", "6", "--count", "20", "--riccati-step", "0.005") == 0
        report = json.loads((out / "verify_bellman.json").read_text())
        assert report["pass"] is True
        assert report["statistic"] <= 1e-8

    def test_grad_passes(self, model_file, tmp_path):
        out = tmp_path / "grad"
        assert run_cli("verify", "grad", "--model", model_file, "--out", str(out),
                       "--seed", "7", "--count", "10", "--riccati-step", "0.01") == 0
        report = json.loads((out / "verify_grad.json").read_text())
        assert report["pass"] is True

    def test_dpp_passes(self, model_file, tmp_path):
        out = tmp_path / "dpp"
        assert run_cli("verify", "dpp", "--model", model_file, "--out", str(out),
                       "--seed", "8", "--particles", "300", "--paths", "24",
                       "--dt", "0.005", "--theta", "0.5", "--init", "point:1.0") == 0

    def test_ito_passes(self, model_file, tmp_path):
        out = tmp_path / "ito"
        assert run_cli("verify", "ito", "--model", model_file, "--out", str(out),
                       "--seed", "9", "--particles", "300", "--paths", "48",
                       "--dt", "0.002", "--delta", "0.01", "--init", "point:0.0") == 0

    def test_failure_exits_one(self, model_file, tmp_path, monkeypatch):
        monkeypatch.setattr(verify, "bellman_rule",
                            lambda draws: verify.CheckResult("bellman", False, 1.0, 1e-8, None, {}))
        assert run_cli("verify", "bellman", "--model", model_file,
                       "--out", str(tmp_path), "--seed", "1") == 1

    @pytest.mark.parametrize("seed, passed", [(2, False), (3, True)])
    def test_chaos_report_decides_from_its_json(self, model_file, tmp_path, seed, passed):
        code = run_cli("verify", "chaos", "--model", model_file, "--out", str(tmp_path),
                       "--seed", str(seed), "--chaos-ns", "100,200,400,800", "--paths", "2",
                       "--dt", "0.05", "--init", "point:1.0")
        report = json.loads((tmp_path / "verify_chaos.json").read_text())
        assert code == (0 if passed else 1) and report["pass"] is passed
        # the decision again, from the report's rows alone
        rows = report["constituents"]["rows"]
        devs = [abs(r["mean"] - r["value"]) for r in rows]
        assert devs == [r["deviation"] for r in rows]
        changes = [(b - a, 2.0 * (ra["stderr"] + rb["stderr"]))
                   for a, b, ra, rb in zip(devs, devs[1:], rows, rows[1:])]
        rises = sum(change > 0 for change, _ in changes)
        assert rises == report["constituents"]["rises"]
        assert (report["statistic"], report["tolerance"]) in changes
        assert max(change - slack for change, slack in changes) == \
            report["statistic"] - report["tolerance"]
        assert (rises <= 1 and report["statistic"] <= report["tolerance"]) is passed


class TestConfigFile:
    def test_file_fills_and_flags_override(self, model_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"model = {model_file}\nseed = 4\nparticles = 10\n"
                       "paths = 2\ndt = 0.1\ninit = point:1.0\n")
        out = tmp_path / "out"
        assert run_cli("cost", "--config", str(cfg), "--out", str(out)) == 0
        report = json.loads((out / "cost.json").read_text())
        assert report["config"]["particles"] == 10
        out2 = tmp_path / "out2"
        assert run_cli("cost", "--config", str(cfg), "--out", str(out2),
                       "--particles", "14") == 0
        report2 = json.loads((out2 / "cost.json").read_text())
        assert report2["config"]["particles"] == 14

    def test_unknown_key_rejected(self, model_file, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("bogus = 1\n")
        assert run_cli("cost", "--config", str(cfg), "--model", model_file,
                       "--out", str(tmp_path), "--seed", "1") == 2


class TestModelKeys:
    @pytest.mark.parametrize("line, key", [
        ("F0bar = 0.0\n", "F0bar"),       # a misspelt coefficient
        ("q2 = 1.0\n", "q2"),             # keys are case-sensitive
        ("seed = 3\n", "seed"),           # a run setting, not model data
    ])
    def test_unknown_model_key_is_config_error(self, model_file, tmp_path, capsys,
                                                line, key):
        path = tmp_path / "model.txt"
        path.write_text(pathlib.Path(model_file).read_text() + line)
        code = run_cli("cost", "--model", str(path), "--out", str(tmp_path / "out"),
                       "--seed", "1", "--particles", "4", "--paths", "2")
        err = capsys.readouterr().err
        assert code == 2
        assert f"unknown keys: {key}" in err
        assert "Traceback" not in err


    @pytest.mark.parametrize("edit, message", [
        pytest.param(lambda text: text.replace("T = 1.0", "T = nan"),
                     "T must be positive and finite, got nan", id="T=nan"),
        pytest.param(lambda text: text.replace("T = 1.0", "T = inf"),
                     "T must be positive and finite, got inf", id="T=inf"),
        pytest.param(lambda text: text + "B = 2.0\n",
                     "key 'B' is given twice, on lines 5 and 22", id="B-twice"),
        pytest.param(lambda text: text.replace("d = 1", "d = 1.5"),
                     "model.txt: cannot parse d = '1.5' as int\n", id="d=1.5"),
        pytest.param(lambda text: text.replace("m = 1", "m = two"),
                     "model.txt: cannot parse m = 'two' as int\n", id="m=two"),
        pytest.param(lambda text: text.replace("T = 1.0", "T = abc"),
                     "model.txt: cannot parse T = 'abc' as float\n", id="T=abc"),
    ])
    def test_bad_model_value_is_config_error(self, model_file, tmp_path, capsys, edit, message):
        path = tmp_path / "model.txt"
        path.write_text(edit(pathlib.Path(model_file).read_text()))
        code = run_cli("cost", "--model", str(path), "--out", str(tmp_path / "out"),
                       "--seed", "1", "--particles", "4", "--paths", "2")
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ") and message in err
        assert "Traceback" not in err


class TestBadNumbers:
    """An out-of-range value of any numeric flag is a configuration error.

    Each row exits 2 with its message and no traceback, and writes no
    report; systemic-risk takes no model file.
    """

    @pytest.mark.parametrize("argv, config, message", [
        pytest.param(["cost", "--seed", "-1"], None, "seed must be in [0, 2**64)", id="seed=-1"),
        pytest.param(["cost", "--seed", str(2**64)], None,
                     "seed must be in [0, 2**64)", id="seed=2^64"),
        pytest.param(["cost"], "seed = -5\n", "seed must be in [0, 2**64)", id="config-seed=-5"),
        pytest.param(["cost", "--seed", "1", "--particles", "0"], None,
                     "particles must be >= 1", id="particles=0"),
        pytest.param(["cost", "--seed", "1", "--paths", "0"], None,
                     "paths must be >= 1", id="paths=0"),
        pytest.param(["cost", "--seed", "1", "--dt", "0"], None, "dt must be positive", id="dt=0"),
        pytest.param(["cost", "--seed", "1", "--dt", "0.3"], None,
                     "must divide T - t0", id="dt=0.3"),
        pytest.param(["cost", "--seed", "1", "--dt", "1e-300"], None,
                     f"dt=1e-300 divides T - t0 = 1.0 into more than {sys.maxsize} steps",
                     id="dt=1e-300"),
        pytest.param(["cost", "--seed", "1"], "paths = 2\ndt = 0.1\npaths = 3\n",
                     "key 'paths' is given twice, on lines 1 and 3", id="config-paths-twice"),
        pytest.param(["cost", "--seed", "1", "--t0", "2.0"], None, "T must be >= t0", id="t0=2"),
        pytest.param(["verify", "bellman", "--seed", "1", "--t0", "5"], None,
                     "verify bellman --t0 5.0: T must be >= t0\n", id="bellman-t0=5"),
        pytest.param(["verify", "grad", "--seed", "1", "--t0", "5"], None,
                     "verify grad --t0 5.0: T must be >= t0\n", id="grad-t0=5"),
        pytest.param(["solve", "--riccati-step", "-0.01"], None,
                     "riccati_step must be positive", id="riccati-step=-0.01"),
        pytest.param(["simulate", "--seed", "1", "--stride", "0"], None,
                     "stride must be >= 1", id="stride=0"),
        pytest.param(["verify", "bellman", "--seed", "1", "--count", "0"], None,
                     "count must be >= 1", id="bellman-count=0"),
        pytest.param(["verify", "grad", "--seed", "1", "--count", "-1"], None,
                     "count must be >= 1", id="grad-count=-1"),
        pytest.param(["verify", "flow", "--seed", "1", "--count", "-1"], None,
                     "count must be >= 1", id="flow-count=-1"),
        pytest.param(["verify", "flow"], "seed = 1\ncount = 0\n",
                     "count must be >= 1", id="config-count=0"),
        pytest.param(["verify", "ito", "--seed", "1", "--delta", "0"], None,
                     "delta must be positive", id="delta=0"),
        pytest.param(["verify", "ito", "--seed", "1", "--delta", "-0.01"], None,
                     "delta must be positive", id="delta=-0.01"),
        pytest.param(["verify", "grad", "--seed", "1", "--epsilon", "0"], None,
                     "epsilon must be positive", id="epsilon=0"),
        pytest.param(["verify", "dpp", "--seed", "1", "--theta", "2.0"], None,
                     "need t <= theta <= T", id="theta=2"),
        pytest.param(["verify", "dpp", "--seed", "1", "--theta", "0.003", "--dt", "0.001"], None,
                     "theta - t0 = 0.003 (theta = 0.003, t0 = 0.0) must be a whole number of "
                     "steps 2 dt = 0.002: verify dpp compares runs at dt = 0.001 and at 2 dt",
                     id="dpp-theta=0.003-dt=0.001"),
        pytest.param(["verify", "dpp", "--seed", "1", "--theta", "0.00025"], None,
                     "theta - t0 = 0.00025 (theta = 0.00025, t0 = 0.0) must be a whole number of "
                     "steps 2 dt = 0.002", id="dpp-theta=0.00025"),
        pytest.param(["verify", "dpp", "--seed", "1", "--t0", "0.5", "--theta", "0.2"], None,
                     "verify dpp --paths 2 --theta 0.2: need t <= theta <= T\n",
                     id="dpp-t0=0.5-theta=0.2"),
        pytest.param(["verify", "dpp", "--seed", "1", "--dt", "1e-300"], None,
                     "dt=1e-300", id="dpp-dt=1e-300"),
        pytest.param(["verify", "chaos", "--seed", "1", "--chaos-ns", "40,20"], None,
                     "Ns must be >= 2 ascending", id="chaos-ns=40,20"),
        pytest.param(["systemic-risk", "--seed", "1", "--eta", "-1"], None, "eta", id="eta=-1"),
        pytest.param(["cost", "--seed", "1", "--dt", "inf"], None,
                     "dt must be positive and finite", id="dt=inf"),
        pytest.param(["cost", "--seed", "1", "--dt", "nan"], None,
                     "dt must be positive and finite", id="dt=nan"),
        pytest.param(["verify", "dpp", "--seed", "1", "--dt", "inf"], None,
                     "dt must be positive and finite", id="dpp-dt=inf"),
        pytest.param(["solve", "--riccati-step", "inf"], None,
                     "riccati_step must be positive and finite", id="riccati-step=inf"),
        pytest.param(["verify", "ito", "--seed", "1", "--delta", "inf"], None,
                     "delta must be positive and finite", id="delta=inf"),
        pytest.param(["verify", "dpp", "--seed", "1", "--paths", "1"], None,
                     "the dpp check needs M >= 2 scenarios", id="dpp-paths=1"),
        pytest.param(["verify", "ito", "--seed", "1", "--paths", "1"], None,
                     "the ito check needs M >= 2 scenarios", id="ito-paths=1"),
        pytest.param(["cost", "--seed", "1", "--paths", "1"], None,
                     "cost estimation needs M >= 2 scenarios", id="cost-paths=1"),
        pytest.param(["verify", "dpp", "--seed", "1", "--paths", "1"], None,
                     "verify dpp --paths 1 --theta 0.5: the dpp check needs M >= 2 scenarios\n",
                     id="dpp-paths=1-flag"),
        pytest.param(["verify", "ito", "--seed", "1", "--paths", "1"], None,
                     "verify ito --paths 1 --t0 0.0 --dt 0.001 --delta 0.01: the ito check needs M >= 2 "
                     "scenarios\n", id="ito-paths=1-flag"),
        pytest.param(["cost", "--seed", "1", "--paths", "1"], None,
                     "cost --paths 1 --t0 0.0 --dt 0.001: cost estimation needs M >= 2 scenarios\n",
                     id="cost-paths=1-flag"),
        pytest.param(["verify", "dpp", "--seed", "1", "--theta", "2.0"], None,
                     "verify dpp --paths 2 --theta 2.0: need t <= theta <= T\n", id="theta=2-flag"),
        pytest.param(["verify", "flow", "--seed", "1", "--t0", "0.0005", "--dt", "1e-3"], None,
                     "verify flow --t0 0.0005 --dt 0.001: dt=0.001 must divide T - t0 = 0.9995 "
                     "into whole steps", id="flow-t0=0.0005-dt=1e-3"),
        pytest.param(["cost", "--seed", "1", "--stride", "0"], None,
                     "cmvlq: unrecognized arguments: --stride 0\n", id="cost-stride=0"),
        pytest.param(["verify", "nope", "--seed", "1"], None,
                     "cmvlq verify: argument check: invalid choice: 'nope'", id="verify-nope"),
        pytest.param(["cost", "--seed", "1", "--paths", "x"], None,
                     "cmvlq cost: argument --paths: invalid int value: 'x'\n", id="paths=x"),
        pytest.param(["systemic-risk", "--seed", "1", "--t0", "0.5"], None,
                     "systemic-risk runs from t0 = 0", id="systemic-risk-t0=0.5"),
        pytest.param(["verify", "dpp", "--seed", "1", "--t0", "nan"], None,
                     "t0 must be finite", id="dpp-t0=nan"),
        pytest.param(["cost", "--seed", "1", "--t0", "nan"], None,
                     "t0 must be finite", id="cost-t0=nan"),
        pytest.param(["verify", "dpp", "--seed", "1", "--theta", "nan"], None,
                     "theta must be finite", id="dpp-theta=nan"),
        pytest.param(["verify", "grad", "--seed", "1", "--epsilon", "nan"], None,
                     "epsilon must be finite", id="grad-epsilon=nan"),
        pytest.param(["verify", "grad", "--seed", "1", "--epsilon", "inf"], None,
                     "epsilon must be finite", id="grad-epsilon=inf"),
        pytest.param(["cost", "--seed", "1", "--control", "shift:nan"], None,
                     "shift:nan: values must be finite", id="shift=nan"),
        pytest.param(["cost", "--seed", "1", "--control", "shift:inf"], None,
                     "shift:inf: values must be finite", id="shift=inf"),
        pytest.param(["cost", "--seed", "1", "--control", "const:-inf"], None,
                     "const:-inf: values must be finite", id="const=-inf"),
        pytest.param(["cost", "--seed", "1", "--control", "const:1,2"], None,
                     "const:1,2 has 2 values, expected 1\n", id="const=1,2"),
        pytest.param(["cost", "--seed", "1", "--control", "shift:1,2,3"], None,
                     "shift:1,2,3 has 3 values, expected 1\n", id="shift=1,2,3"),
        pytest.param(["cost", "--seed", "1", "--init", "point:nan"], None,
                     "point:nan: values must be finite", id="point=nan"),
        pytest.param(["cost", "--seed", "1", "--init", "point:1,"], None,
                     "cannot parse 'point:1,': '1,' is not a list of numbers", id="point=1,"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:nan"], None,
                     "gaussian:nan: values must be finite", id="gaussian=nan"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:0:inf"], None,
                     "gaussian:0:inf: values must be finite", id="gaussian=0:inf"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:"], None,
                     "cannot parse 'gaussian:': '' is not a list of numbers", id="gaussian="),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:0:"], None,
                     "cannot parse 'gaussian:0:': '' is not a list of numbers", id="gaussian=0:"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:0,0"], None,
                     "gaussian:0,0 has 2 means, expected 1\n", id="gaussian=0,0"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:0:1,1"], None,
                     "gaussian:0:1,1 has 2 variances, expected 1\n", id="gaussian=0:1,1"),
        pytest.param(["cost", "--seed", "1", "--init", "gaussian:0:-1"], None,
                     "gaussian:0:-1: variances must be >= 0", id="gaussian=0:-1"),
        pytest.param(["verify", "chaos", "--seed", "1", "--chaos-ns", "10,abc"], None,
                     "cannot parse --chaos-ns '10,abc' as particle counts", id="chaos-ns=10,abc"),
        pytest.param(["verify", "chaos", "--seed", "1", "--chaos-ns", ""], None,
                     "cannot parse --chaos-ns '' as particle counts", id="chaos-ns=''"),
        pytest.param(["verify", "chaos", "--seed", "1", "--chaos-ns", "0,4"], None,
                     "--chaos-ns '0,4': particle counts must be >= 1", id="chaos-ns=0,4"),
        pytest.param(["cost", "--seed", "1", "--init", "csv:"], None,
                     "--init 'csv:' names no file", id="csv="),
        pytest.param(["cost", "--seed", "1", "--t0", "-1"], None,
                     "--t0 -1.0 is negative", id="t0=-1"),
        pytest.param(["verify", "chaos", "--seed", "1", "--control", "zero"], None,
                     "verify chaos needs --control optimal", id="chaos-control=zero"),
        pytest.param(["verify", "ito", "--seed", "1", "--delta", "1.5"], None,
                     "t0 + delta = 1.5 exceeds T = 1.0", id="ito-delta=1.5"),
        pytest.param(["verify", "ito", "--seed", "1", "--t0", "0.995", "--delta", "0.01"], None,
                     "t0 + delta = 1.005 exceeds T = 1.0", id="ito-t0=0.995-delta=0.01"),
        # step counts past sys.maxsize, refused before any count is rounded or allocated
        pytest.param(["solve", "--riccati-step", "1e-320"], None,
                     f"h=1e-320 divides T=1.0 into more than {sys.maxsize} steps\n",
                     id="riccati-step=1e-320"),
        pytest.param(["cost", "--seed", "1", "--riccati-step", "5e-324"], None,
                     f"h=5e-324 divides T=1.0 into more than {sys.maxsize} steps\n",
                     id="cost-riccati-step=5e-324"),
        pytest.param(["systemic-risk", "--seed", "1", "--riccati-step", "1e-320"], None,
                     f"h=1e-320 divides T=1.0 into more than {sys.maxsize} steps\n",
                     id="systemic-risk-riccati-step=1e-320"),
        pytest.param(["verify", "ito", "--seed", "1", "--delta", "0.5", "--dt", "1e-310"], None,
                     "verify ito --paths 2 --t0 0.0 --dt 1e-310 --delta 0.5: dt=1e-310 divides "
                     f"delta = 0.5 into more than {sys.maxsize} steps\n", id="ito-dt=1e-310"),
        # an initial cloud past the blowup bound, which the step loop would
        # report as a blowup at its first step
        pytest.param(["cost", "--seed", "1", "--init", "point:1e13"], None,
                     "cost --init 'point:1e13': initial states must be at most 1e+12 in absolute "
                     "value\n", id="point=1e13"),
        pytest.param(["cost", "--seed", "1", "--init", "point:1e308"], None,
                     "cost --init 'point:1e308': initial states must be at most 1e+12",
                     id="point=1e308"),
        pytest.param(["verify", "dpp", "--seed", "1", "--init", "gaussian:-1e13"], None,
                     "verify dpp --init 'gaussian:-1e13': initial states must be at most 1e+12",
                     id="dpp-gaussian=-1e13"),
        pytest.param(["verify", "chaos", "--seed", "1", "--init", "point:1e13"], None,
                     "verify chaos --init 'point:1e13' --chaos-ns '250,1000,4000' --paths 2 "
                     "--t0 0.0 --dt 0.001: initial states must be at most 1e+12",
                     id="chaos-point=1e13"),
        pytest.param(["systemic-risk", "--seed", "1", "--x0", "1e13"], None,
                     "systemic-risk --x0 10000000000000.0: initial states must be at most 1e+12",
                     id="systemic-risk-x0=1e13"),
        # a value that is not a number names its file and key
        pytest.param(["verify", "flow", "--seed", "1"], "count = two\n",
                     "run.cfg: cannot parse count = 'two' as int\n", id="config-count=two"),
        pytest.param(["cost", "--seed", "1"], "dt = abc\n",
                     "run.cfg: cannot parse dt = 'abc' as float\n", id="config-dt=abc"),
    ])
    def test_exits_two(self, model_file, tmp_path, capsys, argv, config, message):
        out = tmp_path / "out"
        # small sizes first, so that a row's own flag overrides them
        cut = 2 if argv[0] == "verify" else 1
        argv = argv[:cut] + ["--particles", "4", "--paths", "2", "--out", str(out)] + argv[cut:]
        if argv[0] != "systemic-risk":
            argv += ["--model", model_file]
        if config is not None:
            cfg = tmp_path / "run.cfg"
            cfg.write_text(config)
            argv += ["--config", str(cfg)]
        code = run_cli(*argv)
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("configuration error: ") and message in err
        assert err.count("\n") == 1
        assert "Traceback" not in err
        assert not out.exists() or not any(out.iterdir())

    def test_csv_cloud_past_the_bound_exits_two(self, model_file, tmp_path, capsys):
        cloud = tmp_path / "cloud.csv"
        cloud.write_text("x0\n0.5\n1e300\n")
        out = tmp_path / "out"
        code = run_cli("cost", "--model", model_file, "--out", str(out), "--seed", "1",
                       "--particles", "2", "--paths", "2", "--init", f"csv:{cloud}")
        err = capsys.readouterr().err
        assert code == 2
        assert err == (f"configuration error: cost --init 'csv:{cloud}': initial states must be "
                       "at most 1e+12 in absolute value\n")
        assert not any(out.iterdir())

    def test_out_of_memory_exits_two(self, model_file, tmp_path, capsys, monkeypatch):
        # the cloud's allocation fails as numpy's would; nothing is allocated
        def no_memory(*args):
            raise MemoryError("cannot allocate 745. GiB")

        monkeypatch.setattr(verify, "sample_initial", no_memory)
        code = run_cli("cost", "--model", model_file, "--out", str(tmp_path), "--seed", "1",
                       "--particles", "100000000000", "--paths", "4", "--dt", "0.01")
        assert code == 2
        assert capsys.readouterr().err == ("configuration error: not enough memory for "
                                           "particles = 100000000000, paths = 4, dt = 0.01\n")


    def test_riccati_out_of_memory_names_the_step(self, model_file, tmp_path, capsys,
                                                  monkeypatch):
        # the sweep's arrays fail to allocate as numpy's would; nothing is allocated
        def no_memory(*args):
            raise MemoryError("cannot allocate 7.28 PiB")

        monkeypatch.setattr(riccati, "_sweep", no_memory)
        code = run_cli("solve", "--model", model_file, "--out", str(tmp_path),
                       "--riccati-step", "1e-15")
        assert code == 2
        assert capsys.readouterr().err == ("configuration error: solve --riccati-step 1e-15: not "
                                           "enough memory for 1e+15 backward steps\n")


class TestPointInit:
    """A one-value point:, gaussian:, const: or shift: spec fills every coordinate.

    The default initial condition, point:0.0, is one such spec.
    """

    @pytest.fixture(scope="class")
    def model3(self, tmp_path_factory):
        dyn, cost = random_lq(61, d=3, m=2, with_m2=True)
        path = tmp_path_factory.mktemp("model3") / "lq3.txt"
        save_model(path, dyn, cost, 1.0)
        return str(path)

    SMALL = ["--seed", "1", "--particles", "4", "--paths", "2", "--dt", "0.05",
             "--riccati-step", "0.01"]

    @pytest.mark.parametrize("command", [["cost"], ["simulate"], ["verify", "dpp"],
                                         ["verify", "ito"], ["verify", "flow"],
                                         ["verify", "chaos"]])
    def test_default_init_on_d3(self, model3, tmp_path, capsys, command):
        extra = {"chaos": ["--chaos-ns", "2,4"], "ito": ["--delta", "0.1"]}.get(command[-1], [])
        code = run_cli(*command, "--model", model3, "--out", str(tmp_path), *self.SMALL, *extra)
        err = capsys.readouterr().err
        assert code in (0, 1) and "configuration error" not in err, err

    def test_one_value_fills_every_coordinate(self, model3, tmp_path):
        assert run_cli("simulate", "--model", model3, "--out", str(tmp_path), *self.SMALL,
                       "--init", "point:0.5") == 0
        rows = (tmp_path / "trajectory.csv").read_text().split("\n")
        assert rows[0] == "path,t,particle,x0,x1,x2"
        assert rows[1] == "0,0.0,0,0.5,0.5,0.5"

    def test_other_counts_exit_two(self, model3, tmp_path, capsys):
        assert run_cli("cost", "--model", model3, "--out", str(tmp_path), *self.SMALL,
                       "--init", "point:1.0,2.0") == 2
        assert "has 2 coordinates, expected 1 or 3" in capsys.readouterr().err

    @pytest.mark.parametrize("one, both", [("const:0.5", "const:0.5,0.5"),
                                           ("shift:0.5", "shift:0.5,0.5")])
    def test_one_control_value_fills_every_coordinate(self, model3, tmp_path, one, both):
        for spec in (one, both):
            assert run_cli("simulate", "--model", model3, "--out", str(tmp_path / spec),
                           *self.SMALL, "--control", spec) == 0
        a, b = ((tmp_path / spec / "trajectory.csv").read_bytes() for spec in (one, both))
        assert a == b

    @pytest.mark.parametrize("one, each", [("gaussian:0", "gaussian:0,0,0"),
                                           ("gaussian:0.5:2", "gaussian:0.5,0.5,0.5:2,2,2")])
    def test_one_gaussian_value_fills_every_coordinate(self, model3, tmp_path, one, each):
        for spec in (one, each):
            assert run_cli("simulate", "--model", model3, "--out", str(tmp_path / spec),
                           *self.SMALL, "--init", spec) == 0
        a, b = ((tmp_path / spec / "trajectory.csv").read_bytes() for spec in (one, each))
        assert a == b

    @pytest.mark.parametrize("spec", ["const:1,2,3", "shift:1,2,3"])
    def test_other_control_counts_exit_two(self, model3, tmp_path, capsys, spec):
        assert run_cli("cost", "--model", model3, "--out", str(tmp_path), *self.SMALL,
                       "--control", spec) == 2
        err = capsys.readouterr().err
        assert f"{spec} has 3 values, expected 1 or 2" in err and "Traceback" not in err


class TestNumericalFailure:
    def test_blowup_exits_three(self, tmp_path):
        from cmvlq.lqmodel import LqCost, LqDynamics

        dyn = LqDynamics(b0=0.0, B=40.0, Bbar=0.0, C=0.0, theta=0.0, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=1.0, Q2bar=0.0, R2=1.0, P2=1.0, P2bar=0.0)
        path = tmp_path / "explosive.txt"
        save_model(path, dyn, cost, 1.0)
        assert run_cli("cost", "--model", str(path), "--out", str(tmp_path),
                       "--seed", "1", "--particles", "8", "--paths", "2",
                       "--dt", "0.01", "--init", "point:10.0",
                       "--control", "zero") == 3

    OVERFLOW_ERR = "numerical failure: numerical blowup at t=0.99: gain matrix U is not finite\n"

    @staticmethod
    def overflow_model(tmp_path):
        from cmvlq.lqmodel import LqCost, LqDynamics

        # d = m = 2, B = 1e150 I: an RK4 stage of the first step overflows to inf
        I, Z, z = np.eye(2), np.zeros((2, 2)), np.zeros(2)
        dyn = LqDynamics(b0=z, B=1e150 * I, Bbar=Z, C=I, theta=z, D=Z, Dbar=Z,
                         F=0.1 * I, theta0=z, D0=Z, D0bar=Z, F0=Z)
        cost = LqCost(Q2=I, Q2bar=Z, R2=I, P2=I, P2bar=Z)
        path = tmp_path / "overflow.txt"
        save_model(path, dyn, cost, 1.0)
        return str(path)

    def test_riccati_stage_overflow_exits_three(self, tmp_path, capsys):
        assert run_cli("solve", "--model", self.overflow_model(tmp_path), "--out", str(tmp_path),
                       "--riccati-step", "0.01") == 3
        assert capsys.readouterr().err == self.OVERFLOW_ERR

    def test_riccati_stage_overflow_exits_three_d1(self, tmp_path, capsys):
        from cmvlq.lqmodel import LqCost, LqDynamics

        # the d = m = 1 twin: B = 1e300 overflows U to inf within the first step
        dyn = LqDynamics(b0=0.0, B=1e300, Bbar=0.0, C=1.0, theta=0.0, D=0.0, Dbar=0.0, F=0.1,
                         theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=1.0, Q2bar=0.0, R2=1.0, P2=1.0, P2bar=0.0)
        path = tmp_path / "overflow1.txt"
        save_model(path, dyn, cost, 1.0)
        assert run_cli("solve", "--model", str(path), "--out", str(tmp_path),
                       "--riccati-step", "0.01") == 3
        assert capsys.readouterr().err == ("numerical failure: numerical blowup at t=0.995: "
                                           "gain matrix U is not finite\n")

    def test_one_stderr_line_in_a_fresh_process(self, tmp_path):
        # outside pytest's capture a numpy RuntimeWarning would reach stderr
        proc = subprocess.run([sys.executable, "-m", "cmvlq.cli", "solve", "--model",
                               self.overflow_model(tmp_path), "--out", str(tmp_path),
                               "--riccati-step", "0.01"], capture_output=True, text=True,
                              env=child_env(PYTHONWARNINGS="default"))
        assert proc.returncode == 3
        assert proc.stderr == self.OVERFLOW_ERR

    def test_grad_overflow_names_where(self, model_file, tmp_path, capsys):
        # phi of a cloud moved by 1e300 overflows, so the difference is inf - inf
        assert run_cli("verify", "grad", "--model", model_file, "--out", str(tmp_path),
                       "--seed", "1", "--count", "3", "--epsilon", "1e300") == 3
        _, _, _, _, qv = make_interbank(h=0.25)
        t = verify.random_clouds(qv, 1, 20, 1)[0][0]
        assert capsys.readouterr().err == (
            f"numerical failure: numerical blowup at t={t:.6g}, particle 0, coordinate 0: "
            "finite difference at epsilon=1e+300 is nan\n")
        assert not (tmp_path / "verify_grad.json").exists()

    @pytest.mark.parametrize("command", [["cost"], ["simulate"], ["verify", "dpp"]])
    def test_particle_blowup_names_where(self, tmp_path, capsys, command):
        from cmvlq.lqmodel import LqCost, LqDynamics

        # zero state costs keep the Riccati solution at zero; the state explodes
        dyn = LqDynamics(b0=0.0, B=40.0, Bbar=0.0, C=0.0, theta=0.0, D=0.0,
                         Dbar=0.0, F=0.0, theta0=0.0, D0=0.0, D0bar=0.0, F0=0.0)
        cost = LqCost(Q2=0.0, Q2bar=0.0, R2=1.0, P2=0.0, P2bar=0.0)
        path = tmp_path / "explosive.txt"
        save_model(path, dyn, cost, 1.0)
        assert run_cli(*command, "--model", str(path), "--out", str(tmp_path),
                       "--seed", "1", "--particles", "8", "--paths", "2",
                       "--dt", "0.01", "--init", "point:10.0", "--theta", "1.0",
                       "--control", "zero") == 3
        err = capsys.readouterr().err
        # 10 * 1.4^76 is the first state past 1e12; every particle and path is alike
        assert err == ("numerical failure: numerical blowup at t=0.76, path 0, step 76, "
                       "particle 0: value 1275647586028.0315 exceeded 1e12 or is NaN\n")


def test_d1_commands_never_load_scipy(model_file, tmp_path):
    # a fresh interpreter: scipy's LAPACK is loaded by the first model larger than 1 x 1
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    path3 = tmp_path / "lq3.txt"
    save_model(path3, *random_lq(61, d=3, m=2, with_m2=True), 1.0)
    small = ["--seed", "1", "--particles", "4", "--paths", "2", "--dt", "0.05",
             "--riccati-step", "0.01"]
    d1 = [["solve", "--model", model_file, "--riccati-step", "0.01"],
          ["simulate", "--model", model_file, *small],
          ["cost", "--model", model_file, *small],
          ["systemic-risk", *small],
          *[["verify", check, "--model", model_file, "--count", "2", *small]
            for check in ("bellman", "grad", "flow")],
          ["verify", "dpp", "--model", model_file, "--theta", "0.5", *small],
          ["verify", "ito", "--model", model_file, "--delta", "0.1", *small],
          ["verify", "chaos", "--model", model_file, "--chaos-ns", "2,4", *small]]
    d1 = [argv + ["--out", str(tmp_path / str(i))] for i, argv in enumerate(d1)]
    d3 = ["solve", "--model", str(path3), "--out", str(tmp_path / "d3"), "--riccati-step", "0.01"]
    script = ("import json, sys\n"
              "def scipy_modules():\n"
              "    return sorted(m for m in sys.modules if m.partition('.')[0] == 'scipy')\n"
              "from cmvlq.cli import main\n"
              "at_import = scipy_modules()\n"
              f"codes = [main(argv) for argv in {d1!r}]\n"
              "after_d1 = scipy_modules()\n"
              f"code_d3 = main({d3!r})\n"
              "print(json.dumps([at_import, codes, after_d1, code_d3,\n"
              "                  'scipy.linalg.lapack' in sys.modules]))\n")
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=src), timeout=300)
    assert proc.returncode == 0 and proc.stderr == "", proc.stderr
    at_import, codes, after_d1, code_d3, lapack_loaded = json.loads(proc.stdout.split("\n")[-2])
    assert at_import == [] and after_d1 == []
    assert all(code in (0, 1) for code in codes), codes
    assert codes[:4] == [0, 0, 0, 0] and code_d3 == 0 and lapack_loaded


def test_help_exits_zero_in_process(capsys):
    with pytest.raises(SystemExit) as exit_:
        run_cli("cost", "--help")
    assert exit_.value.code == 0 and "--paths" in capsys.readouterr().out


def test_console_script_help():
    out = subprocess.run([sys.executable, "-m", "cmvlq.cli", "--help"],
                         capture_output=True, text=True, env=child_env())
    assert out.returncode == 0
    assert "systemic-risk" in out.stdout
