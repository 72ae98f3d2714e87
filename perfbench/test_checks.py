"""Each output check accepts the program's output and rejects a wrong one.

    python3 -m pytest perfbench/test_checks.py -q

The artifacts come from the real cmvlq commands at small sizes; each test
then damages one artifact the way a wrong program would.
"""

import json
import os
import struct
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import checks  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from cmvlq.cli import main as cmvlq_main  # noqa: E402

N_SMALL = 20


@pytest.fixture(scope="module")
def interbank(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("sr"))
    argv = ["systemic-risk", "--out", out, "--seed", "3", "--particles", str(N_SMALL),
            "--paths", "2", "--dt", "0.01", "--riccati-step", "0.002"]
    for key, val in workloads.ACCEPT.items():
        argv += [f"--{key}", repr(val)]
    assert cmvlq_main(argv) == 0
    return out


@pytest.fixture(scope="module")
def lq3(tmp_path_factory):
    out = str(tmp_path_factory.mktemp("lq3"))
    model, _ = workloads.lq3_model(5)
    path = os.path.join(out, "model.txt")
    workloads.write_model(path, model)
    assert cmvlq_main(["solve", "--model", path, "--out", out, "--riccati-step", "0.002"]) == 0
    return out, model


def _rewrite_csv(src, dst, row, col, change):
    with open(src) as fh:
        lines = fh.read().splitlines()
    cells = lines[row + 1].split(",")
    cells[col] = change(cells[col])
    lines[row + 1] = ",".join(cells)
    with open(dst, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def _flip_bit(text, bit):
    (raw,) = struct.unpack("<Q", struct.pack("<d", float(text)))
    return repr(struct.unpack("<d", struct.pack("<Q", raw ^ (1 << bit)))[0])


def test_interbank_artifacts_pass(interbank):
    j = os.path.join
    model = workloads.interbank_model()
    ric = j(interbank, "riccati.csv")
    checks.check_closed_form(ric, j(interbank, "systemic_risk.json"), workloads.ACCEPT)
    checks.check_backward(ric, model)
    checks.check_policy(ric, j(interbank, "policy.csv"), model)
    checks.check_means(j(interbank, "trajectory.csv"), j(interbank, "means.csv"), N_SMALL)
    checks.check_model_file(j(interbank, "model.txt"), model)


@pytest.mark.parametrize("row", [0, 250, 500])
def test_lambda_off_by_1e6_is_rejected(interbank, tmp_path, row):
    bad = str(tmp_path / "riccati.csv")
    _rewrite_csv(os.path.join(interbank, "riccati.csv"), bad, row, 1,
                 lambda v: repr(float(v) + 1e-6))
    with pytest.raises(checks.CheckFailure, match="closed form"):
        checks.check_closed_form(bad, os.path.join(interbank, "systemic_risk.json"),
                                 workloads.ACCEPT)
    if row == 0:
        with pytest.raises(checks.CheckFailure, match="solve_ivp"):
            checks.check_backward(bad, workloads.interbank_model())


def test_lq3_gains_pass_and_flipped_sign_is_rejected(lq3, tmp_path):
    out, model = lq3
    ric, pol = os.path.join(out, "riccati.csv"), os.path.join(out, "policy.csv")
    checks.check_backward(ric, model)
    checks.check_policy(ric, pol, model)
    with open(pol) as fh:
        header = fh.readline().strip().split(",")
    for name in ("K1_10", "K2_02", "k_1"):
        bad = str(tmp_path / f"policy_{name}.csv")
        _rewrite_csv(pol, bad, 123, header.index(name), lambda v: repr(-float(v)))
        with pytest.raises(checks.CheckFailure, match=name.split("_")[0]):
            checks.check_policy(ric, bad, model)


def test_trajectory_one_bit_off_is_rejected(interbank, tmp_path):
    src = os.path.join(interbank, "trajectory.csv")
    first = checks.artifact_hashes(interbank)
    for bit in (0, 52):
        copy = tmp_path / f"bit{bit}"
        copy.mkdir()
        for name in os.listdir(interbank):
            if name != "trajectory.csv":
                (copy / name).write_bytes(open(os.path.join(interbank, name), "rb").read())
        _rewrite_csv(src, str(copy / "trajectory.csv"), 7, 3, lambda v: _flip_bit(v, bit))
        with pytest.raises(checks.CheckFailure, match="trajectory.csv"):
            checks.check_rerun(first, checks.artifact_hashes(str(copy)))
        if bit == 52:  # the lowest exponent bit: the value doubles or halves
            with pytest.raises(checks.CheckFailure, match="particle average"):
                checks.check_means(str(copy / "trajectory.csv"),
                                   os.path.join(interbank, "means.csv"), N_SMALL)


def test_cost_value_bound_rejects_a_wrong_value(interbank):
    ric = os.path.join(interbank, "riccati.csv")
    rep = checks.read_json(os.path.join(interbank, "systemic_risk.json"))
    model, x0 = workloads.interbank_model(), np.array([1.0])
    checks.check_cost_value(rep["value_at_0"], 0.0, rep["value_at_0"], ric, model, x0, 0.0, 1e-3)
    with pytest.raises(checks.CheckFailure, match="reported value"):
        checks.check_cost_value(rep["value_at_0"], 0.0, rep["value_at_0"] + 1e-9, ric, model,
                                x0, 0.0, 1e-3)
    with pytest.raises(checks.CheckFailure, match="cost - value"):
        checks.check_cost_value(rep["value_at_0"] + 0.1, 0.01, rep["value_at_0"], ric, model,
                                x0, 8.5, 1e-3)


@pytest.mark.parametrize("check, stat, stderr", [
    ("bellman", 2e-8, None), ("grad", 2e-6, None), ("flow", 1.0, None),
    ("dpp", 0.05, 0.01), ("ito", -0.1, 0.02)])
def test_report_rules_ignore_the_pass_flag(tmp_path, check, stat, stderr):
    path = tmp_path / f"verify_{check}.json"
    path.write_text(json.dumps({"check": check, "pass": True, "statistic": stat,
                                "stderr": stderr, "tolerance": 1.0}))
    with pytest.raises(checks.CheckFailure, match=check):
        checks.decide_report(str(path), check, dt=1e-3, delta=0.01)
    path.write_text(json.dumps({"check": check, "pass": False, "statistic": 0.0,
                                "stderr": stderr, "tolerance": 0.0}))
    checks.decide_report(str(path), check, dt=1e-3, delta=0.01)


def test_excess_band():
    checks.check_excess(0.35, 0.225, 0.5, 1.0)
    with pytest.raises(checks.CheckFailure, match="excess"):
        checks.check_excess(0.30, 0.225, 0.5, 1.0)


def test_nonzero_exit_is_a_failed_operation(tmp_path):
    out = str(tmp_path / "cost")
    wl = workloads.Workload(name="lq3")
    wl.ops.append(workloads.Op("cost", ["cost", "--model", str(tmp_path / "missing.txt"),
                                        "--out", out, "--seed", "0"], out))
    rnd = run._run_round(wl, cmvlq_main, None, {})
    (res,) = rnd["ops"]
    assert res["exit"] == 2
    assert "configuration error" in res["error"]
    assert res["check_failures"] == []
