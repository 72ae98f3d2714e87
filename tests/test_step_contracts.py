"""The step loop's contracts on drawn models, controls, sizes and budgets.

Each example draws a random_lq model (d in 1..3, m in 1..2, with or without
M2, with or without its idiosyncratic and its common noise loadings), one
of the command line's controls (optimal, zero, const: or shift:), N
particles, M scenarios and K steps, the simulator's two memory budgets and
a restart node.  It asserts that

- every node, common increment, running cost and end cloud of each
  scenario is the same bytes at the drawn budgets as at the defaults, on
  the forked and on the inline noise route;
- a restart from the drawn node of a scenario replays the rest of it
  bitwise;
- the states agree with a pointwise Euler loop from the model's equations
  (reference.euler_nodes) to a relative 1e-12.
"""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from cmvlq import cli, simulator
from cmvlq.measure import EmpiricalMeasure
from cmvlq.policy import QuadraticValue
from cmvlq.riccati import solve_riccati
from cmvlq.simulator import _control_grid, _gen_noise, lq_dynamics_spec, stream_scenarios

from conftest import random_lq
from reference import euler_nodes

DT = 2.0 ** -5
SEED = 11
IDIO = ("theta", "D", "Dbar", "F")
COMMON = ("theta0", "D0", "D0bar", "F0")


@st.composite
def cases(draw):
    """(model, control, cloud, M, batch budget, chunk budget, restart path, restart node)."""
    d, m = draw(st.integers(1, 3)), draw(st.integers(1, 2))
    dyn, cost = random_lq(draw(st.integers(0, 2**32 - 1)), d=d, m=m, with_m2=draw(st.booleans()))
    zeroed = draw(st.sampled_from([(), IDIO, COMMON, IDIO + COMMON]))
    dyn = replace(dyn, **{name: np.zeros_like(getattr(dyn, name)) for name in zeroed})
    n, paths, steps = draw(st.integers(1, 12)), draw(st.integers(1, 6)), draw(st.integers(1, 12))
    model = lq_dynamics_spec(dyn, cost, steps * DT)
    text = draw(st.sampled_from(["optimal", "zero", "const", "shift"]))
    if text in ("const", "shift"):
        count = draw(st.sampled_from([1, m]))
        values = draw(st.lists(st.floats(-1.0, 1.0), min_size=count, max_size=count))
        text += ":" + ",".join(map(repr, values))
    qv = QuadraticValue(solve_riccati(dyn, cost, model.T, DT / 2), dyn, cost)
    control = cli._build_control(text, qv)
    cloud = EmpiricalMeasure(
        np.random.default_rng(draw(st.integers(0, 2**32 - 1))).standard_normal((n, d)))
    batch_doubles = draw(st.integers(1, paths * n * d + 1))
    chunk_doubles = draw(st.integers(1, 4 * paths * n * steps))
    path, node = draw(st.integers(0, paths - 1)), draw(st.integers(0, steps))
    return model, control, cloud, paths, batch_doubles, chunk_doubles, path, node


def stream(model, control, cloud, paths, step_offset=0):
    """Path -> (states, means, common increments, running cost, end cloud) of each scenario
    stepped from node step_offset, every node as the on_node hook sees it."""
    seen = {}

    def on_node(batch, k, x, mean, dw0):
        for j, p in enumerate(batch):
            states, means, incs = seen.setdefault(p, ([], [], []))
            states.append(x[j].copy())
            means.append(mean[j].copy())
            if dw0 is not None:
                incs.append(dw0[j].copy())

    out = {}
    for batch, running, ends in stream_scenarios(model, control, 0.0, cloud, model.T, DT, SEED,
                                                 paths, step_offset=step_offset, on_node=on_node):
        for j, p in enumerate(batch):
            out[p] = (*map(np.array, seen[p]), running[j], ends[j])
    return out


def as_bytes(arrays):
    return [np.asarray(a).tobytes() for a in arrays]


@settings(derandomize=True, max_examples=100, deadline=None)
@given(case=cases())
def test_step_loop_contracts(case):
    model, control, cloud, paths, batch_doubles, chunk_doubles, path, node = case
    want = stream(model, control, cloud, paths)
    assert sorted(want) == list(range(paths))
    states = want[path][0]
    for may_fork in (simulator.may_fork, lambda: False):
        with mock.patch.object(simulator, "_BATCH_DOUBLES", batch_doubles), \
                mock.patch.object(simulator, "_CHUNK_DOUBLES", chunk_doubles), \
                mock.patch.object(simulator, "may_fork", may_fork):
            got = stream(model, control, cloud, paths)
            assert {p: as_bytes(v) for p, v in got.items()} == \
                {p: as_bytes(v) for p, v in want.items()}
            rest = stream(model, control, EmpiricalMeasure(states[node]), range(path, path + 1),
                          step_offset=node)[path]
            # all but the running cost, which sums only the restart's own steps
            assert as_bytes(rest[:3] + rest[4:]) == as_bytes(
                (states[node:], want[path][1][node:], want[path][2][node:], want[path][4]))
    # the pointwise reference, on the step's own increments fl(z sqrt(dt))
    steps, (n, d) = len(states) - 1, cloud.points.shape
    gains = _control_grid(control, 0.0, DT, steps, 0, d, model.m)
    for p, (nodes, *_) in want.items():
        dw0, db = _gen_noise(SEED, p, 0, steps, n, 1, 1)
        ref = euler_nodes(model.dyn, gains, cloud.points, DT, dw0 * math.sqrt(DT),
                          db * math.sqrt(DT))
        assert np.max(np.abs(nodes - ref)) <= 1e-12 * max(1.0, np.max(np.abs(ref)))
