"""The names the benchmark reaches into, the lane forms it runs, and which
modules import which.

bench/tracing.py rebinds package functions by name and bench/workloads.py
calls them through their modules, so a rename in the package breaks the
benchmark without failing any other test. A lane form is a second code path
for its method's points, kept only where a workload runs it. The layering
keeps the optimizers, problems and checkers free of the harness and the
command line. The steppers and the harness square by multiplying.
"""

import ast
import importlib.util
import inspect
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dadapt
from dadapt import core
from dadapt.baselines import LANES, start
from dadapt.harness import BASELINE_ALGORITHMS, DADAPT_ALGORITHMS, ExperimentConfig, build_problem
from dadapt.problems import piecewise_start

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = Path(dadapt.__file__).parent


def _load_bench(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    spec.loader.exec_module(module)
    return module


def test_traced_functions_and_methods_exist():
    tracing = _load_bench("tracing")
    assert tracing.FUNCTIONS and tracing.METHODS
    for module, attr, _, _ in tracing.FUNCTIONS:
        assert callable(getattr(module, attr, None)), f"{module.__name__}.{attr}"
    for cls, attr, _ in tracing.METHODS:
        assert callable(getattr(cls, attr, None)), f"{cls.__name__}.{attr}"
    traced = {attr for module, attr, _, _ in tracing.FUNCTIONS if module is dadapt.analysis}
    assert {"check_d_lower_bound", "check_telescoping", "check_snorm_bound"} <= traced


def test_workload_attributes_exist():
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text())
    read = {
        (node.value.id, node.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id in ("harness", "convex", "analysis", "problems")
    }
    assert ("harness", "grid_search") in read and ("convex", "run_convex") in read
    for module, attr in sorted(read):
        assert hasattr(getattr(dadapt, module), attr), f"{module}.{attr}"


def test_convex_pass_reads_what_runs_give(tmp_path):
    # one problem of convex_sweep: its steps are counted off traj.records and
    # its checks read x_final and d_final, so a result without them fails here
    workloads = _load_bench("workloads")
    res = workloads.convex_pass(workloads.convex_setup(0, tmp_path)[:1], tmp_path)
    assert res.failures == [] and res.attempted > 0
    assert res.steps == 4000


def test_convex_setup_draws_the_battery_problems(tmp_path):
    # convex_sweep runs the problems and starts of analysis.run_convex_sweep
    # at seed0 = 100 * seed, so it can call that generator in their place
    workloads = _load_bench("workloads")
    points = np.linspace(-1.0, 1.0, 30).reshape(5, 6)
    for i, (prob, x0) in enumerate(workloads.convex_setup(0, tmp_path)):
        want, want_x0 = piecewise_start(i, 6, 6, 1.0)
        assert x0.tobytes() == want_x0.tobytes()
        assert prob.known_minimizer.tobytes() == want.known_minimizer.tobytes()
        assert (prob.lipschitz, prob.lipschitz_inf) == (want.lipschitz, want.lipschitz_inf)
        assert prob.values(points).tobytes() == want.values(points).tobytes()
    assert i == 99


def test_every_lane_form_runs_in_a_workload(tmp_path, monkeypatch):
    # each workload's pass on shrunken inputs, in this process: one convex
    # problem, a small logistic run and a one-epoch grid and d0 sweep
    workloads = _load_bench("workloads")
    built = set()
    init = core.Lanes.__init__

    def recorded(self, states):
        built.add(type(self))
        init(self, states)

    monkeypatch.setattr(core.Lanes, "__init__", recorded)
    monkeypatch.setenv("DADAPT_WORKERS", "1")
    workloads.convex_pass(workloads.convex_setup(0, tmp_path)[:1], tmp_path)
    logistic = workloads.logistic_setup(0, tmp_path / "logistic")
    workloads.logistic_pass(replace(logistic, synth_n=200, synth_dim=5), tmp_path / "logistic")
    grid = workloads.grid_setup(0, tmp_path / "grid")
    workloads.grid_pass(replace(grid, epochs=1), tmp_path / "grid")
    assert set(LANES.values()) - built == set()


_TRACED = """
import importlib.util, sys
spec = importlib.util.spec_from_file_location("bench_tracing", sys.argv[1])
tracing = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracing)
from dadapt import convex
from dadapt.harness import ExperimentConfig, build_problem, run_single
tracer = tracing.Tracer()
tracing.install(tracer)
"""


def _traced_counts(script: str) -> list[str]:
    """What script prints after it runs with bench/tracing.py's tracer
    installed. install() rebinds for the rest of its process, so it runs in
    a child."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(PACKAGE.parent), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", _TRACED + script, str(ROOT / "bench" / "tracing.py")],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return done.stdout.split()


def test_tracer_counts_the_logistic_oracle_calls():
    # the tracer wraps each Problem's value and subgradient as it is built; a
    # lone 20-step run asks for 20 gradients and no value: its final_f comes
    # from the summary's one values call
    assert _traced_counts("""
config = ExperimentConfig(
    problem="synth_logistic", algorithm="sgd_da", synth_n=64, synth_dim=4, n_steps=20
)
run_single(config, 0)
metrics = tracer.metrics()
print(metrics["problems.subgradient.calls"], metrics["problems.value.calls"])
""") == ["20", "0"]


def test_tracer_reaches_value_as_a_method():
    # value is a method of Problem, wrapped on each instance as it is built: a
    # piecewise polyak run of 6 steps takes f at each step through it
    assert _traced_counts("""
run_single(ExperimentConfig(problem="piecewise", algorithm="polyak", n_steps=6), 0)
print(tracer.metrics()["problems.value.calls"])
""") == ["6"]


def test_tracer_counts_the_convex_steps():
    # convex.start looks the steppers up when it is called, so the rebound
    # ones step both the harness's runs and run_convex's
    assert _traced_counts("""
for algorithm, n in (("adagrad_da", 7), ("da_II", 5)):
    run_single(ExperimentConfig(problem="piecewise", algorithm=algorithm, n_steps=n), 0)
bundle = build_problem(ExperimentConfig(problem="piecewise", n_steps=3), 0)
convex.run_convex(bundle.problem, bundle.x0, "gd", 1e-6, n=3)
metrics = tracer.metrics()
names = ("adagrad_da_step", "da_step", "gd_step", "run_convex")
print(*(metrics[f"convex.{name}.calls"] for name in names))
""") == ["7", "5", "3", "1"]


def _imported(module: str) -> set[str]:
    """The dadapt modules a package module imports, anywhere in its code."""
    names = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text())):
        if isinstance(node, ast.ImportFrom):
            # inside the package, "from . import x" and "from .x import y" have level 1
            source = ("dadapt." if node.level else "") + (node.module or "")
            if source.rstrip(".") == "dadapt":
                names.update(alias.name for alias in node.names)
            elif source.startswith("dadapt."):
                names.add(source.split(".")[1])
        elif isinstance(node, ast.Import):
            names.update(a.name.split(".")[1] for a in node.names if a.name.startswith("dadapt."))
    return names


def test_imported_reads_relative_and_absolute_imports():
    assert _imported("analysis") >= {"convex", "core", "problems", "ml"}
    assert _imported("cli") >= {"analysis", "harness", "problems"}


def test_harness_does_not_import_analysis():
    assert "analysis" not in _imported("harness")


def test_harness_reaches_the_model_through_problem():
    # lone and laned runs alike take gradients and losses through the run's
    # Problem; only build_problem, which makes it, names LogisticProblem
    tree = ast.parse((PACKAGE / "harness.py").read_text())
    read = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    model = {"batch_grads", "full_values", "full_grad", "next_batch", "model"}
    assert not read & model


def test_harness_reaches_the_steppers_through_baselines():
    # every run starts in baselines.start, so the harness needs no convex name
    assert "convex" not in _imported("harness")


_CONVEX_INITS = {"da_init", "gd_init", "adagrad_da_init"}
_CONVEX_STEPS = {"da_step", "gd_step", "adagrad_da_step"}


def _init_callers(node, caller="<module>"):
    """(module-level caller, callee) of each convex init called under node."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Call):
            func = child.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _CONVEX_INITS:
                yield caller, name
        inner = caller
        if caller == "<module>" and isinstance(child, (ast.FunctionDef, ast.ClassDef)):
            inner = child.name
        yield from _init_callers(child, inner)


def test_the_convex_map_is_written_once():
    # convex.start alone maps (algorithm, option, g_mode, bounds) to an init
    # and a stepper; baselines reaches the steppers only through it, so a
    # rebound stepper is the one its runs get
    calls = {
        (path.stem, caller, callee)
        for path in sorted(PACKAGE.glob("*.py"))
        for caller, callee in _init_callers(ast.parse(path.read_text()))
    }
    assert calls == {("convex", "start", name) for name in _CONVEX_INITS}
    tree = ast.parse((PACKAGE / "baselines.py").read_text())
    nodes = list(ast.walk(tree))
    bound = {a.asname or a.name for n in nodes if isinstance(n, ast.ImportFrom) for a in n.names}
    bound |= {n.id for n in nodes if isinstance(n, ast.Name)}
    assert not bound & _CONVEX_STEPS


@pytest.mark.parametrize("module", ["analysis", "baselines", "core", "convex", "ml", "problems"])
def test_library_does_not_import_harness_or_cli(module):
    assert not _imported(module) & {"harness", "cli"}


@pytest.mark.parametrize("algorithm", DADAPT_ALGORITHMS + BASELINE_ALGORITHMS)
def test_steppers_take_state_g_and_sched(algorithm):
    # core.drive writes the f column; a stepper never takes f
    cfg = ExperimentConfig(problem="piecewise", algorithm=algorithm, n_steps=5)
    _, step = start(cfg, build_problem(cfg, seed=0))
    assert list(inspect.signature(step).parameters) == ["state", "g", "sched"]


@pytest.mark.parametrize("module", ["baselines", "convex", "harness", "ml"])
def test_squares_are_products(module):
    # Python's x ** 2 calls libm's pow, whose bits differ from x * x's for
    # about 1 value in 1200 on glibc 2.36 and may change with the host; a
    # lane kernel's numpy square gives x * x's bits
    tree = ast.parse((PACKAGE / f"{module}.py").read_text())
    powers = [
        (node.lineno, node.right if isinstance(node, ast.BinOp) else node.value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow)
    ]
    squares = [line for line, exp in powers if isinstance(exp, ast.Constant) and exp.value == 2]
    assert not squares, f"{module}.py squares with ** on lines {squares}"
