"""The package's surface: no exported name, no top-level function or class, and
no method without a use or a reason; the layer benchmark's stand-ins still fit the package."""

import ast
import collections
import importlib.util
import json
import math
import os
import pathlib
import time

import cmvlq
from cmvlq import cli, simulator
from cmvlq.policy import FeedbackPolicy
from cmvlq.simulator import (
    FeedbackControl,
    lq_dynamics_spec,
    pathwise_cost,
    sample_initial,
    simulate_path,
)
from cmvlq.verify import estimate_cost

from conftest import make_interbank, zero_control

SRC = pathlib.Path(cmvlq.__file__).parent

# names that no module of the package uses, each with why it stays
UNUSED_EXPORTS = {
    "backend": "perfbench/run.py records the resolved backend in its manifest",
    "gains": "the public diagnostic view of the gain blocks at any (Lam, Gam, gam), which "
             "RiccatiSolution.pd_history and the node gains are tested against",
    "pathwise_cost": "the public per-path cost, which the Monte Carlo drivers' fused costs "
                     "equal bit for bit (tests/test_verify.py); perfbench/spans.py times it",
    "recover_original": "the paper's interbank control in its original variable, which "
                        "acceptance criterion 2 checks",
    "restart_continuation": "the flow property on a held trajectory: the reference that "
                            "verify.flow_restarts' digests equal (tests/test_verify.py)",
    "simulate_path": "one scenario with every node held, the per-path reference of the "
                     "streamed drivers (tests/test_verify.py); perfbench/spans.py times it",
}


# methods and properties that nothing in the package reads as an attribute, each with why it stays
UNUSED_METHODS = {
    "_Parser.error": "argparse.ArgumentParser calls it on every argument it rejects",
    "ParticleTrajectory.cloud": "the node clouds of a held trajectory, which the tests of the "
                                "held-trajectory reference read",
}


def exported_names():
    """Names __init__.py imports from the package's modules or defines itself."""
    names = set()
    for node in ast.parse((SRC / "__init__.py").read_text()).body:
        if isinstance(node, ast.ImportFrom):
            names |= {alias.asname or alias.name for alias in node.names}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
    return names


def defined_names():
    """Names of the top-level functions and classes of the package's modules."""
    return {node.name for path in SRC.glob("*.py") for node in ast.parse(path.read_text()).body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def used_names():
    """Every name some module of the package uses (references)."""
    return set().union(*(references(ast.parse(path.read_text())) for path in SRC.glob("*.py")))


def references(tree):
    """Names a module uses, bare or as an attribute of a package module it imports.

    A use inside the top-level function or class that defines the name
    (a recursive call, a method that builds its own class) does not count,
    nor does a bare name that an enclosing function or lambda binds as a
    parameter.
    """
    modules = {alias.asname or alias.name for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and node.level and node.module is None
               for alias in node.names}
    used = set()

    def visit(node, owner, params):
        for child in ast.iter_child_nodes(node):
            name = None
            if isinstance(child, ast.Name) and child.id not in params:
                name = child.id
            elif (isinstance(child, ast.Attribute) and isinstance(child.value, ast.Name)
                  and child.value.id in modules):
                name = child.attr
            if name is not None and name != owner:
                used.add(name)
            top = owner is None and isinstance(child, (ast.FunctionDef, ast.ClassDef))
            bound = params
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                bound = params | {a.arg for a in ast.walk(child.args) if isinstance(a, ast.arg)}
            visit(child, child.name if top else owner, bound)

    visit(tree, None, frozenset())
    return used


def method_uses(trees=None):
    """Class.method -> how often the package reads the method's name as an attribute
    outside the method's own body, for each non-dunder method and property of a
    top-level class.

    A read counts for the classes its receiver can be: the enclosing class
    for `self`, else the package classes that the receiver's name (`mu` in
    `mu.dim`, `dyn` in `qv.dyn.d`) is annotated with as a parameter or a
    field anywhere in the package, else every class.  So `mu.dim`, with `mu:
    EmpiricalMeasure` somewhere, is no read of a `dim` of another class.
    """
    if trees is None:
        trees = [ast.parse(path.read_text()) for path in SRC.glob("*.py")]
    classes = {cls.name: cls for tree in trees for cls in tree.body
               if isinstance(cls, ast.ClassDef)}
    methods = {name: {fn.name for fn in cls.body if isinstance(fn, ast.FunctionDef)
                      and not fn.name.startswith("__")} for name, cls in classes.items()}
    annotated = collections.defaultdict(set)
    for node in (node for tree in trees for node in ast.walk(tree)):
        ann = getattr(node, "annotation", None)
        kind = getattr(ann, "id", getattr(ann, "attr", None))
        name = node.arg if isinstance(node, ast.arg) else getattr(
            getattr(node, "target", None), "id", None)
        if name is not None and kind in classes:
            annotated[name].add(kind)
    uses = {f"{cls}.{fn}": 0 for cls, names in methods.items() for fn in names}

    def visit(node, cls, fn):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Attribute):
                name = getattr(child.value, "id", getattr(child.value, "attr", None))
                owners = {cls} if name == "self" and cls else annotated.get(name, classes)
                for owner in owners:
                    if child.attr in methods.get(owner, ()) and (owner, child.attr) != (cls, fn):
                        uses[f"{owner}.{child.attr}"] += 1
            if cls is None and isinstance(child, ast.ClassDef):
                visit(child, child.name, None)
            elif cls is not None and fn is None and isinstance(child, ast.FunctionDef):
                visit(child, cls, child.name)
            else:
                visit(child, cls, fn)

    for tree in trees:
        visit(tree, None, None)
    return uses


def test_every_export_has_a_use_or_a_reason():
    exported = exported_names()
    used = used_names()
    assert sorted(exported - used - set(UNUSED_EXPORTS)) == []
    # the table names only exports that still need a reason
    assert sorted(set(UNUSED_EXPORTS) - exported) == []
    assert sorted(set(UNUSED_EXPORTS) & used) == []


def test_every_definition_has_a_use_or_a_reason():
    # private helpers too: a top-level function or class that nothing in the
    # package calls is dead code unless the table says why it stays
    assert sorted(defined_names() - used_names() - set(UNUSED_EXPORTS)) == []


def test_every_method_has_a_use_or_a_reason():
    # a method or property that the package never reads is dead code, unless
    # something outside the package calls it and the table says what
    uses = method_uses()
    assert sorted(name for name, n in uses.items() if not n and name not in UNUSED_METHODS) == []
    assert sorted(name for name in UNUSED_METHODS if uses.get(name, 1)) == []


def test_method_uses_credit_the_receivers_class():
    # `a: A` makes every `a.size` read A's alone; an unannotated receiver
    # could be either class, and a method's read of itself is no use
    tree = ast.parse("class A:\n    def size(self):\n        return self.size()\n"
                     "class B:\n    def size(self):\n        return 1\n"
                     "    def twice(self):\n        return 2 * self.size()\n"
                     "def f(a: A, b):\n    return a.size(), b.size()\n")
    assert method_uses([tree]) == {"A.size": 2, "B.size": 2, "B.twice": 0}


def test_references_skip_the_own_definition():
    tree = ast.parse("from . import riccati as r\n"
                     "def f(n):\n    return f(n - 1)\n"
                     "class C:\n    def make(self):\n        return C()\n"
                     "def g():\n    return r.solve(), r.h.k\n"
                     "def h(gains, *more, **opts):\n    return gains, more, opts, lambda k: k\n")
    assert references(tree) == {"r", "solve", "h"}


ROOT = pathlib.Path(__file__).resolve().parents[1]


def load(relpath, name):
    """A script of the repository, imported as a module from its file."""
    spec = importlib.util.spec_from_file_location(name, ROOT / relpath)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def bench_layers(monkeypatch):
    """benchmarks/bench_layers.py, imported as a module; the thread settings it
    sets in the environment are undone after the test."""
    for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.setenv(name, os.environ.get(name, "1"))
    return load("benchmarks/bench_layers.py", "bench_layers")


def test_bench_cached_noise_drives_a_cost_estimate(monkeypatch):
    # every scenario steps the one cached path, path 0's normals at the
    # benchmark's seed: the estimate has no spread, and its mean is path 0's cost
    bench = bench_layers(monkeypatch)
    _, dyn, cost, _, qv = make_interbank(h=0.01)
    model = lq_dynamics_spec(dyn, cost, 1.0)
    control = FeedbackControl(FeedbackPolicy(qv))
    mu0 = sample_initial({"kind": "point", "x0": 1.0}, 20, 0)
    want = pathwise_cost(simulate_path(model, control, 0.0, mu0, 1.0, 0.01, bench.SEED),
                         model, control)
    monkeypatch.setattr(simulator, "_gen_noise", bench.cached_noise(100, 20))
    est = estimate_cost(model, control, 0.0, mu0, 20, 4, 0.01, 7)
    assert est.stderr == 0.0 and est.mean == want


def test_bench_reads_the_noise_mapping(monkeypatch):
    # a batch of 4 scenarios of 20 particles over 1000 steps: two buffers of
    # 16 steps of 4 x (20 + 1) normals
    bench = bench_layers(monkeypatch)
    _, dyn, cost, _, _ = make_interbank(h=0.01)
    mu0 = sample_initial({"kind": "point", "x0": 1.0}, 20, 0)
    mib = bench.noise_mapping_mib(lq_dynamics_spec(dyn, cost, 1.0),
                                  zero_control(), mu0, 1.0, 4)
    assert mib == 2 * 16 * 4 * 21 * 8 / 2**20


def test_traced_commands_report_finite_metrics(tmp_path, capfd):
    # the end-to-end benchmark's traced round: its Tracer wraps the layer
    # functions, each command runs in a span, and the metrics are its JSON line
    spans = load("perfbench/spans.py", "spans")
    mc = ["--seed", "3", "--particles", "200", "--paths", "8", "--dt", "0.01"]
    commands = [["systemic-risk", "--out", str(tmp_path / "sr"), *mc],
                ["cost", "--model", str(tmp_path / "sr" / "model.txt"), "--out",
                 str(tmp_path / "cost"), "--init", "point:1.0", "--control", "shift:0.5", *mc]]
    tracer = spans.Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        codes = [tracer.span(spans.COMMAND, cli.main, argv) for argv in commands]
        wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    assert codes == [0, 0]
    for name in ("simulator.step", "measure.tree_sum", "simulator.noise"):
        assert name in tracer.installed and tracer.stats[name][0] > 0, name
    mb = sum(f.stat().st_size for f in tmp_path.rglob("*") if f.is_file()) / 1e6
    metrics = tracer.metrics(wall, mb)
    assert metrics and all(math.isfinite(value) for value, _ in metrics.values()), metrics
    json.dumps(metrics, allow_nan=False)
    lines = capfd.readouterr().out.split("\n")
    prefixes = ["delta+ = ", "Lambda(0) = ", "cost ", "cost mean = ", ""]
    assert len(lines) == len(prefixes) and all(map(str.startswith, lines, prefixes)), lines
