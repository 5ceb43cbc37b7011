"""The benchmark's workloads: inputs built from a seed, then one pass.

Each workload has a set-up step, which builds the inputs from the workload
seed, and a pass, which runs those inputs through the package's public
functions and reports what it did: optimizer steps taken, operations
attempted and failed, and the result scalars that run.py compares against
the stored reference. Calls go through the module
attribute (``convex.run_convex``, not a name bound at import) so that the
traced run's rebinding reaches them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Callable

import numpy as np

from dadapt import analysis, convex, harness, problems
from dadapt.core import Rng

# The acceptance gate's relative tolerance on the telescoping identity.
TELESCOPING_RTOL = 1e-8

CONVEX_VARIANTS = (("da", "I"), ("da", "II"), ("gd", "I"), ("adagrad_da", "I"))
GRID_LRS = tuple(10.0**e for e in range(-4, 3))
SWEEP_D0S = (1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2)


@dataclass
class PassResult:
    steps: int = 0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    scalars: dict[str, float] = field(default_factory=dict)

    def op(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)


@dataclass(frozen=True)
class Workload:
    setup: Callable[[int, Path], object]
    run: Callable[[object, Path], PassResult]


# --------------------------------------------------------------------------
# convex_sweep: the acceptance gate's criterion 1/2/5 fixture


def convex_setup(seed: int, out_dir: Path):
    inputs = []
    for i in range(100):
        rng = Rng(seed * 100 + i, stream_id=1)
        prob = problems.random_piecewise_max(rng, dim=6, pieces=6)
        direction = rng.normals(6)
        direction /= math.sqrt(float(direction @ direction))
        inputs.append((prob, prob.known_minimizer + direction))
    return inputs


def _report_ok(rep) -> bool:
    if rep.name != "telescoping":
        return rep.satisfied
    scale = max(abs(rep.lhs), abs(rep.rhs), 1e-300)
    return rep.satisfied and abs(rep.lhs - rep.rhs) / scale <= TELESCOPING_RTOL


def convex_pass(inputs, out_dir: Path) -> PassResult:
    res = PassResult()
    runs = []  # every result is kept until the checks, as the gate keeps them
    for i, (prob, x0) in enumerate(inputs):
        d_inf = float(np.abs(x0 - prob.known_minimizer).max())
        problem_runs = []
        for algo, option in CONVEX_VARIANTS:
            tag = f"p{i}.{algo}_{option}"
            try:
                result = convex.run_convex(
                    prob, x0, algorithm=algo, d0=1e-3, n=1000, option=option,
                    g_value=prob.lipschitz, g_inf=prob.lipschitz_inf,
                )
            except ValueError as err:
                res.op(False, f"{tag}: {err}")
                continue
            res.steps += len(result.traj.records)
            res.op(bool(np.isfinite(result.x_final).all()), f"{tag}: diverged")
            res.scalars[f"{tag}.d_final"] = result.d_final
            problem_runs.append((tag, result.traj, d_inf if algo == "adagrad_da" else 1.0))
        runs.append(problem_runs)
    for problem_runs in runs:
        for tag, traj, bound in problem_runs:
            reports = [analysis.check_d_lower_bound(traj, bound)]
            if traj.kind in ("da", "gd"):
                reports.append(analysis.check_telescoping(traj))
            reports.append(analysis.check_snorm_bound(traj))
            if traj.kind == "da":
                reports.append(analysis.check_option_dominance(traj))
            for rep in reports:
                res.op(_report_ok(rep), f"{tag}: {rep.name} {rep.context}")
                res.scalars[f"{tag}.{rep.name}.lhs"] = rep.lhs
    return res


# --------------------------------------------------------------------------
# logistic_run and grid_sweep: the harness on synth_logistic


def _steps_in_csvs(out_dir: Path) -> int:
    """Optimizer steps written to disk: one data row per step."""
    total = 0
    for path in out_dir.rglob("steps_seed*.csv"):
        with path.open("rb") as fh:
            total += sum(1 for _ in fh) - 1
    return total


def logistic_setup(seed: int, out_dir: Path):
    config = harness.ExperimentConfig(
        problem="synth_logistic",
        algorithm="sgd_da",
        epochs=2,
        schedule="stagewise",
        synth_n=10000,
        synth_dim=50,
        synth_flip=0.05,
        seeds=(seed, seed + 1),
        problem_seed=seed,
        out_dir=str(out_dir),
    )
    # run_experiment builds its own problem per seed inside the pass; this
    # build is the input the first step would need, timed as set-up.
    harness.build_problem(config, config.seeds[0])
    return config


def logistic_pass(config, out_dir: Path) -> PassResult:
    res = PassResult()
    for algo in ("sgd_da", "adam_da"):
        try:
            result = harness.run_experiment(replace(config, algorithm=algo))
        except ValueError as err:
            for seed in config.seeds:
                res.op(False, f"{algo} seed {seed}: {err}")
            continue
        for out in result.outputs:
            res.op(not out.summary["diverged"], f"{algo} seed {out.seed}: diverged")
        for metric in ("final_f", "final_d"):
            res.scalars[f"{algo}.{metric}"] = result.aggregate.get(metric, (math.nan,))[0]
    res.steps = _steps_in_csvs(out_dir)
    return res


def grid_setup(seed: int, out_dir: Path):
    config = harness.ExperimentConfig(
        problem="synth_logistic",
        algorithm="sgd_da",
        epochs=100,
        schedule="stagewise",
        batch_size=16,
        synth_n=1000,
        synth_dim=20,
        synth_flip=0.05,
        record_f_every=500,
        seeds=(seed,),
        problem_seed=seed,
        out_dir=str(out_dir),
    )
    harness.build_problem(config, seed)
    return config


def grid_pass(config, out_dir: Path) -> PassResult:
    res = PassResult()
    try:
        grid = harness.grid_search(
            replace(config, algorithm="adagrad"), GRID_LRS, compare_algorithm="adagrad_da"
        )
    except ValueError as err:
        for lr in GRID_LRS + ("adagrad_da",):
            res.op(False, f"grid {lr}: {err}")
    else:
        for lr, mean_f, _, diverged in grid.rows:
            res.op(not diverged and math.isfinite(mean_f), f"adagrad lr={lr}: diverged")
        res.op(math.isfinite(grid.compare_f), "adagrad_da comparison: diverged")
        res.scalars["best_f"] = grid.best_f
        res.scalars["compare_f"] = grid.compare_f
    sweep = harness.d0_sweep(config, SWEEP_D0S)
    for d0, mean_f, _, _ in sweep.rows:
        res.op(math.isfinite(mean_f), f"sgd_da d0={d0}: diverged")
    res.scalars["relative_spread"] = sweep.relative_spread
    res.steps = _steps_in_csvs(out_dir)
    return res


WORKLOADS = {
    "convex_sweep": Workload(convex_setup, convex_pass),
    "logistic_run": Workload(logistic_setup, logistic_pass),
    "grid_sweep": Workload(grid_setup, grid_pass),
}

