"""The tracer's self times account for the traced time, and uninstall restores the program.

    python3 -m pytest perfbench/test_spans.py -q
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))
sys.path.insert(0, HERE)

import cmvlq.cli  # noqa: E402
import cmvlq.policy  # noqa: E402
import cmvlq.riccati  # noqa: E402
import cmvlq.simulator  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_times_sum_to_the_command(tmp_path):
    path = str(tmp_path / "model.txt")
    workloads.write_model(path, workloads.lq3_model(0)[0])
    originals = (cmvlq.cli.optimal_feedback, cmvlq.riccati.solve_riccati,
                 cmvlq.policy.FeedbackPolicy.grid_gains, cmvlq.simulator.tree_sum)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert cmvlq.cli.optimal_feedback is not originals[0]
        rc = tracer.span(spans.COMMAND, cmvlq.cli.main,
                         ["cost", "--model", path, "--out", str(tmp_path / "c"), "--seed", "1",
                          "--particles", "10", "--paths", "2", "--dt", "0.05",
                          "--riccati-step", "0.01", "--init", "point:0.1,0.2,0.3"])
    finally:
        tracer.uninstall()
    assert rc == 0
    assert (cmvlq.cli.optimal_feedback, cmvlq.riccati.solve_riccati,
            cmvlq.policy.FeedbackPolicy.grid_gains, cmvlq.simulator.tree_sum) == originals

    table = tracer.table()
    command = table[spans.COMMAND]["total_s"]
    assert abs(sum(row["self_s"] for row in table.values()) - command) < 1e-9 * max(1.0, command)
    assert table["riccati.solve"]["calls"] == 1
    assert table["simulator.path"]["calls"] == 2
    m = tracer.metrics(command, 0.0)
    assert m["riccati.rhs_calls"][0] == 400
    assert m["policy.grid_calls"][0] == 2 and m["policy.grid_hit_ratio"][0] == 0.5
    assert abs(m["trace.unaccounted_s"][0]) < 1e-9
