"""Benchmark harness: experiment configs, runners, CSV output.

Runs are keyed by (config hash, seed) and are byte-identical across
invocations: per-step CSVs record a fixed schema, per-seed summaries feed
a mean / two-standard-error aggregate, and all randomness flows through
the seeded in-repo generator. No wall-clock time is written, so outputs
depend only on the config and the seed.
"""

from __future__ import annotations

import codecs
import dataclasses
import hashlib
import math
import os
from dataclasses import dataclass, replace
from functools import partial
from itertools import groupby
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .baselines import LANES, start
from .core import (
    STEP_COLUMNS, AtStart, ConfigError, Diverged, Problem, Schedule, Vector, _sum, csv_text,
    drive, drive_lanes,
)
from .problems import (
    Dataset,
    LogisticProblem,
    ParseError,
    abs_value_problem,
    parse_libsvm,
    piecewise_start,
    synth_dataset,
)

__all__ = [
    "ExperimentConfig",
    "parse_config_text",
    "load_config",
    "apply_overrides",
    "config_hash",
    "CSV_HEADER",
    "RunOutput",
    "load_dataset",
    "run_single",
    "run_experiment",
    "GridDiverged",
    "grid_search",
    "d0_sweep",
]

CSV_HEADER = list(STEP_COLUMNS)

DADAPT_ALGORITHMS = ("da_I", "da_II", "gd", "adagrad_da", "sgd_da", "adam_da")
BASELINE_ALGORITHMS = ("adagrad", "adagrad_norm", "polyak", "fixed")
PROBLEMS = ("abs", "piecewise", "synth_logistic", "libsvm")
GRID_BASELINES = ("adagrad", "adagrad_norm", "fixed")

_NAN = float("nan")


# --------------------------------------------------------------------------
# Experiment configuration
#
# Flat key = value text files; CLI overrides win. The config hash plus the
# seed is the identity of a run.


@dataclass(frozen=True)
class ExperimentConfig:
    problem: str = "abs"  # one of PROBLEMS
    algorithm: str = "da_I"  # one of DADAPT_ALGORITHMS + BASELINE_ALGORITHMS
    d0: float = 1e-6
    x0: float = 1.0  # starting scalar for abs
    n_steps: int = 0  # 0 means derive from epochs for dataset problems
    epochs: int = 0
    g_mode: str = "none"  # none | fixed, read by the dual-averaging runs only
    lr: float = 1.0  # baseline multiplier
    beta: float = 0.9
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay: float = 0.0
    schedule: str = "flat"
    stage_fractions: tuple[float, ...] = (0.6, 0.8, 0.95)
    stage_factor: float = 0.1
    warmup_steps: int = 0
    seeds: tuple[int, ...] = (0,)
    problem_seed: int = 0
    piecewise_dim: int = 8
    piecewise_pieces: int = 8
    x0_distance: float = 1.0  # distance from the constructed minimizer
    synth_n: int = 1000
    synth_dim: int = 20
    synth_margin: float = 0.0
    synth_flip: float = 0.0
    batch_size: int = 16
    full_batch: bool = False
    libsvm_path: str = ""
    record_f_every: int = 1
    out_dir: str = "runs"

    def __post_init__(self) -> None:
        # the checks that hold for every problem and algorithm, however the
        # config was built.
        # numpy scalars become the Python values they hold, so that the hash,
        # which reads repr, and the CSVs see 0.1 and never np.float64(0.1)
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            value = tuple(map(_plain, value)) if kind.startswith("tuple") else _plain(value)
            object.__setattr__(self, name, value)
            if kind in ("float", "tuple[float, ...]") and not np.isfinite(value).all():
                raise ConfigError(f"{name} must be finite, got {value!r}")
        for name, known in (
            ("problem", PROBLEMS),
            ("algorithm", DADAPT_ALGORITHMS + BASELINE_ALGORITHMS),
            ("g_mode", ("none", "fixed")),
        ):
            if getattr(self, name) not in known:
                raise ConfigError(f"unknown {name} {getattr(self, name)!r}")
        if self.algorithm in ("polyak", "fixed") and self.problem in ("synth_logistic", "libsvm"):
            # their step sizes need the optimal value (polyak) or D and G (fixed)
            raise ConfigError(
                f"{self.algorithm} baseline needs a problem with a known optimum "
                f"(abs or piecewise), got {self.problem!r}"
            )
        if not self.seeds or len(set(self.seeds)) < len(self.seeds):
            raise ConfigError(f"seeds must list one or more distinct seeds, got {self.seeds!r}")
        # then the ranges; the problem shapes and the optimizer and schedule
        # settings are checked as the generators, sgd_da_init, adam_da_init and
        # Schedule check them, whatever the problem and algorithm
        for name, ok, rule in (
            ("record_f_every", self.record_f_every >= 1, "be positive"),
            ("n_steps", self.n_steps >= 0, "be non-negative"),
            ("epochs", self.epochs >= 0, "be non-negative"),
            ("d0", self.d0 > 0.0, "be positive"),
            ("x0_distance", self.x0_distance >= 0.0, "be non-negative"),
            ("lr", self.lr >= 0.0, "be non-negative"),
            ("batch_size", self.batch_size >= 1, "be at least 1"),
            ("piecewise_dim", self.piecewise_dim >= 1, "be at least 1"),
            ("piecewise_pieces", self.piecewise_pieces >= 2, "be at least 2"),
            ("synth_n", self.synth_n >= 1, "be at least 1"),
            ("synth_dim", self.synth_dim >= 1, "be at least 1"),
            ("synth_flip", 0.0 <= self.synth_flip < 1.0, "lie in [0, 1)"),
            ("beta", 0.0 <= self.beta < 1.0, "lie in [0, 1)"),
            ("beta1", 0.0 <= self.beta1 < 1.0, "lie in [0, 1)"),
            ("beta2", 0.0 < self.beta2 < 1.0, "lie in (0, 1)"),
            ("eps", self.eps > 0.0, "be positive"),
            ("decay", self.decay >= 0.0, "be non-negative"),
        ):
            if not ok:
                raise ConfigError(f"{name} must {rule}, got {getattr(self, name)!r}")
        _schedule_from_config(self)


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(ExperimentConfig)}


def _plain(value):
    """The Python value a numpy scalar holds; any other value as it is."""
    return value.item() if isinstance(value, np.generic) else value


def _parse_value(key: str, raw: str):
    if key not in _FIELD_TYPES:
        raise ConfigError(f"unknown config key {key!r}")
    kind = _FIELD_TYPES[key]
    raw = raw.strip()
    try:
        if kind == "bool":
            if raw.lower() in ("true", "1", "yes"):
                return True
            if raw.lower() in ("false", "0", "no"):
                return False
            raise ValueError(raw)
        if kind == "int":
            return int(raw)
        if kind == "float":
            return float(raw)
        if kind == "tuple[int, ...]":
            return tuple(int(tok) for tok in raw.split(",") if tok.strip())
        if kind == "tuple[float, ...]":
            return tuple(float(tok) for tok in raw.split(",") if tok.strip())
        return raw
    except ValueError:
        raise ConfigError(f"bad value {raw!r} for config key {key!r}") from None


def parse_config_text(text: str) -> ExperimentConfig:
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"config line {lineno}: expected key = value")
        key, _, val = line.partition("=")
        key = key.strip()
        values[key] = _parse_value(key, val)
    return ExperimentConfig(**values)


def load_config(path: str | Path) -> ExperimentConfig:
    p = Path(path)
    if not p.is_file():
        raise ConfigError(f"config file {p} not found")
    text = _read_utf8(p, lambda line: ConfigError(f"config line {line}: not UTF-8 text"))
    return parse_config_text(text)


def _read_utf8(path: Path, error: Callable[[int], Exception]) -> str:
    """The text of the file at path, or error(line) raised for the 1-based
    line, as str.splitlines counts them, of its first byte that is not UTF-8.
    A leading byte-order mark is dropped first, where utf-8-sig would count
    the error's offset from after it."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as err:
        raise error(len((data[: err.start].decode("utf-8") + "x").splitlines())) from None


def apply_overrides(config: ExperimentConfig, overrides: dict[str, str]) -> ExperimentConfig:
    changes = {key: _parse_value(key, val) for key, val in overrides.items()}
    return replace(config, **changes)


def config_hash(config: ExperimentConfig) -> str:
    payload = "\n".join(
        f"{f.name}={getattr(config, f.name)!r}"
        for f in dataclasses.fields(ExperimentConfig)
        if f.name != "out_dir"  # identity excludes output plumbing
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:12]


def _schedule_from_config(config: ExperimentConfig) -> Schedule:
    return Schedule(
        config.schedule, tuple(config.stage_fractions), config.stage_factor, config.warmup_steps
    )


# --------------------------------------------------------------------------
# Problem construction


@dataclass
class ProblemBundle:
    """A run's problem, start and length; D is the start's distance to the
    known minimizer. The oracle's constants stay on the problem."""

    problem: Problem
    x0: Vector
    n_steps: int
    D: Optional[float] = None


def load_dataset(config: ExperimentConfig) -> Optional[Dataset]:
    """The data a dataset problem trains on; None for abs and piecewise.

    It depends on the config alone, never on the run seed, so one load can
    serve every seed and every run of a grid or sweep.
    """
    if config.problem == "synth_logistic":
        return synth_dataset(
            config.problem_seed, config.synth_n, config.synth_dim,
            margin=config.synth_margin, flip=config.synth_flip,
        )
    if config.problem == "libsvm":
        path = Path(config.libsvm_path)
        if not path.is_file():
            raise ConfigError(f"dataset file {path} not found")
        dataset = parse_libsvm(_read_utf8(path, partial(ParseError, "not UTF-8 text")))
        if len(dataset) == 0:
            raise ConfigError(f"dataset file {path} holds no examples")
        return dataset
    return None


def build_problem(
    config: ExperimentConfig, seed: int, dataset: Optional[Dataset] = None
) -> ProblemBundle:
    """The problem of one (config, seed) run; a dataset problem loads its
    data unless it is passed in."""
    if config.problem in ("abs", "piecewise") and config.n_steps <= 0:
        raise ConfigError(f"{config.problem} problem needs n_steps > 0")
    if config.problem == "abs":
        x0 = np.array([config.x0], dtype=np.float64)
        return ProblemBundle(abs_value_problem(), x0, config.n_steps, D=abs(config.x0))
    if config.problem == "piecewise":
        prob, x0 = piecewise_start(
            config.problem_seed, config.piecewise_dim, config.piecewise_pieces, config.x0_distance
        )
        return ProblemBundle(prob, x0, config.n_steps, D=config.x0_distance)
    if dataset is None:  # synth_logistic or libsvm, the problems left
        dataset = load_dataset(config)
    batch = len(dataset) if config.full_batch else config.batch_size
    n = config.n_steps
    if n <= 0:
        if config.epochs <= 0:
            raise ConfigError("dataset problems need n_steps or epochs")
        # the model's batches_per_epoch, ceil(examples / batch): 1 on the full batch
        n = config.epochs * -(-len(dataset) // batch)
    model = LogisticProblem(dataset, batch_size=batch, seed=seed, steps=n)
    problem = model.problem(stochastic=not config.full_batch)
    return ProblemBundle(problem, np.zeros(model.dim, dtype=np.float64), n)


# --------------------------------------------------------------------------
# Single runs


@dataclass
class RunOutput:
    config_hash: str
    seed: int
    rows: np.ndarray  # CSV_HEADER schema: the run's Trajectory.records table
    summary: dict


def _new_summary(config: ExperimentConfig, seed: int) -> dict:
    """A run's summary before it runs; its keys are the summary.csv columns."""
    return {
        "algorithm": config.algorithm, "seed": seed, "d0": config.d0, "lr": config.lr,
        "steps": 0, "final_f": _NAN, "avg_f": _NAN, "f_at_t": _NAN, "t_index": -1,
        "final_d": _NAN, "heuristic_G": False, "out_of_theory": False, "diverged": False,
        "exited_at_start": False,
    }


SUMMARY_HEADER = list(_new_summary(ExperimentConfig(), 0))


def run_single(
    config: ExperimentConfig, seed: int, dataset: Optional[Dataset] = None
) -> RunOutput:
    """Execute one (config, seed) run and return rows plus a summary.

    Every algorithm starts in baselines.start and runs through core.drive;
    the summary reads the run's state (a dual-averaging one carries its
    return prefix). A run that diverges stops at the failing step, keeps
    its rows up to and including that step, and reports final_f as NaN.
    """
    bundle = build_problem(config, seed, dataset)
    state, step = start(config, bundle)
    sched = _schedule_from_config(config)
    stop = None
    try:
        drive(bundle.problem, state, step, bundle.n_steps, sched, config.record_f_every)
    except (AtStart, Diverged) as exc:
        stop = type(exc)
    return _output(config, seed, bundle, state, stop)


def _output(
    config: ExperimentConfig, seed: int, bundle: ProblemBundle, state, stop: Optional[type]
) -> RunOutput:
    """The output of config's run on bundle, which ended in state, cut short
    by stop (AtStart or Diverged) or None when it ran to the end."""
    prob = bundle.problem
    algo = config.algorithm
    summary = _new_summary(config, seed)
    if bundle.D is not None and config.d0 > bundle.D and algo in DADAPT_ALGORITHMS:
        summary["out_of_theory"] = True
    summary["exited_at_start"] = stop is AtStart
    summary["diverged"] = stop is Diverged
    if stop is not Diverged:
        if state.traj.avg_den > 0.0:  # the run folds points into an average
            summary["avg_f"] = prob.value(state.traj.average())
        summary["final_f"] = summary["avg_f"] if algo == "fixed" else prob.value(state.x)
        if getattr(state, "t_index", None) is not None:
            summary["t_index"] = state.t_index
            summary["f_at_t"] = prob.value(state.x_avg_t)
    summary["heuristic_G"] = bool(state.traj.meta.get("heuristic_g", False))
    rows = state.traj.records
    summary["steps"] = len(rows)
    if algo in DADAPT_ALGORITHMS:
        # the estimate in force after the last recorded step, as Trajectory.d_series ends
        summary["final_d"] = max(*rows[-1, 1:3].tolist()) if len(rows) else config.d0
    return RunOutput(config_hash=config_hash(config), seed=seed, rows=rows, summary=summary)


def _run_points(
    points: Sequence[ExperimentConfig], seed: int, dataset: Optional[Dataset]
) -> list[RunOutput]:
    """run_single(point, seed, dataset) of each point, the points differing
    in algorithm, lr or d0, each method's points next to each other. Two or
    more points of a method in baselines.LANES on minibatch data run in
    lanes, with one batch gather a step; every other point runs alone. The
    seed's shared epoch orders are let go once its runs are done."""
    outputs = []
    for algo, group in groupby(points, lambda point: point.algorithm):
        config, *rest = group = list(group)
        if not rest or algo not in LANES or dataset is None or config.full_batch:
            outputs += [run_single(point, seed, dataset) for point in group]
            continue
        bundle = build_problem(config, seed, dataset)
        lanes = LANES[algo]([start(point, bundle)[0] for point in group])
        sched = _schedule_from_config(config)
        diverged = drive_lanes(bundle.problem, lanes, bundle.n_steps, sched, config.record_f_every)
        outputs += [
            _output(point, seed, bundle, state, Diverged if stopped else None)
            for point, state, stopped in zip(group, lanes.states, diverged.tolist())
        ]
    if dataset is not None and dataset.shared_orders is not None:
        dataset.shared_orders.pop(seed, None)
    return outputs


# --------------------------------------------------------------------------
# Experiments, grids, sweeps


def _check_out(path: Path) -> Path:
    if path.is_dir():
        raise ConfigError(f"output path {str(path)!r} is a directory")
    return path


def _write_atomic(path: Path, text: str) -> None:
    _check_out(path).parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(path.name + ".tmp")
    tmp.write_text(text)
    os.replace(tmp, path)


def mean_2se(values: Sequence[float]) -> tuple[float, float]:
    vals = [float(v) for v in values]
    m = _sum(vals) / len(vals)
    if len(vals) < 2:
        return m, 0.0
    var = _sum((v - m) ** 2 for v in vals) / (len(vals) - 1)
    return m, 2.0 * math.sqrt(var / len(vals))


def _worker_count() -> int:
    raw = os.environ.get("DADAPT_WORKERS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        raise ConfigError(f"DADAPT_WORKERS={raw!r} is not an integer") from None


def _map_seeds(run: Callable, seeds: Sequence[int]) -> list:
    """[run(seed) for seed in seeds], each seed's call whole in one of the
    DADAPT_WORKERS processes."""
    workers = _worker_count()
    if workers == 1 or len(seeds) == 1:
        return [run(seed) for seed in seeds]
    # imported here: a serial run, the default, loads no multiprocessing
    from concurrent.futures import ProcessPoolExecutor

    # a fork pool starts all its workers at the first submit, so no more than the seeds
    with ProcessPoolExecutor(max_workers=min(workers, len(seeds))) as pool:
        return list(pool.map(run, seeds))


@dataclass
class ExperimentResult:
    config_hash: str
    out_dir: Path
    outputs: list[RunOutput]
    aggregate: dict[str, tuple[float, float]]


def run_experiment(config: ExperimentConfig) -> ExperimentResult:
    """Run every seed, write per-seed CSVs, a summary, and an aggregate.

    The dataset is loaded once for all the seeds.
    """
    return _run_experiments([config])[0]


def _run_experiments(points: Sequence[ExperimentConfig]) -> list[ExperimentResult]:
    """run_experiment of each point, the points differing in algorithm, lr or
    d0, in one pass on one load of the data; each seed's points run whole in
    one process, sharing the seed's epoch orders when there are several."""
    _worker_count()  # a bad setting fails before the data is built
    dataset = load_dataset(points[0])
    if dataset is not None and len(points) > 1:
        dataset = replace(dataset, shared_orders={})
    # the seeds share the data; each builds its own batch order from its seed
    by_seed = _map_seeds(partial(_run_points, points, dataset=dataset), points[0].seeds)
    return list(map(_write_experiment, points, map(list, zip(*by_seed))))


def _write_experiment(config: ExperimentConfig, outputs: list[RunOutput]) -> ExperimentResult:
    """Write the runs of config's seeds, in seed order, as run_experiment does."""
    chash = outputs[0].config_hash
    out_dir = Path(config.out_dir) / chash
    for out in outputs:
        _write_atomic(out_dir / f"steps_seed{out.seed}.csv", csv_text(CSV_HEADER, out.rows))
    summary_rows = [[out.summary[k] for k in SUMMARY_HEADER] for out in outputs]
    _write_atomic(out_dir / "summary.csv", csv_text(SUMMARY_HEADER, summary_rows))

    aggregate: dict[str, tuple[float, float]] = {}
    agg_rows = []
    for metric in ("final_f", "avg_f", "f_at_t", "final_d"):
        vals = [out.summary[metric] for out in outputs]
        if all(isinstance(v, float) and math.isnan(v) for v in vals):
            continue
        m, se2 = mean_2se(vals)
        aggregate[metric] = (m, se2)
        agg_rows.append([metric, m, se2, len(vals)])
    _write_atomic(
        out_dir / "aggregate.csv", csv_text(["metric", "mean", "two_se", "count"], agg_rows)
    )
    return ExperimentResult(chash, out_dir, outputs, aggregate)


class GridDiverged(ValueError):
    """Every point of a step-size grid diverged, so there is no best lr."""


def _sweep(
    config: ExperimentConfig, key: str, values: list, flag: str, name: str, summarise: Callable,
    extra: Sequence[ExperimentConfig] = (),
):
    """One experiment per value of config.<key>, and one per config in extra,
    all in one _run_experiments pass. Writes <name>_<hash>.csv with rows
    (value, mean final_f, 2se, any seed's summary[flag]) once summarise(rows)
    has passed them; returns the rows, what summarise returned, the path and
    extra's results. A repeated value would run one config twice into one
    directory, so it is refused."""
    if len(set(values)) < len(values):
        raise ConfigError(f"{key} values must be distinct, got {values!r}")
    points = [replace(config, **{key: value}) for value in values]  # bad values fail here
    results = _run_experiments(points + list(extra))
    rows = []
    for value, result in zip(values, results):
        m, se2 = result.aggregate.get("final_f", (_NAN, _NAN))
        rows.append((value, m, se2, any(out.summary[flag] for out in result.outputs)))
    summary = summarise(rows)
    out_path = Path(config.out_dir) / f"{name}_{config_hash(config)}.csv"
    _write_atomic(out_path, csv_text([key, "mean_final_f", "two_se", flag], rows))
    return rows, summary, out_path, results[len(points):]


@dataclass
class GridResult:
    rows: list[tuple[float, float, float, bool]]  # lr, mean final_f, 2se, diverged
    best_lr: float
    best_f: float
    out_path: Optional[Path] = None
    compare_algorithm: Optional[str] = None
    compare_f: float = _NAN


def _best_point(rows) -> tuple[float, float]:
    """(mean final_f, lr) of the best finite point that did not diverge."""
    finite = [(m, lr) for lr, m, _, diverged in rows if not diverged and m < math.inf]
    if not finite:
        raise GridDiverged("every grid point diverged")
    return min(finite)  # ties go to the smaller lr


def grid_search(
    config: ExperimentConfig, lrs: Sequence[float], compare_algorithm: Optional[str] = None
) -> GridResult:
    """Sweep a baseline's step-size multiplier; adaptive runs never appear
    as grid points, but one can be run alongside for comparison."""
    if config.algorithm not in GRID_BASELINES:
        raise ConfigError(
            f"grid search covers baselines {GRID_BASELINES}; "
            f"{config.algorithm!r} adapts its own scale"
        )
    if not lrs:
        raise ConfigError("empty lr grid")
    if compare_algorithm is not None and compare_algorithm not in DADAPT_ALGORITHMS:
        raise ConfigError(f"comparison run must be one of {DADAPT_ALGORITHMS}")
    compare = [] if compare_algorithm is None else [replace(config, algorithm=compare_algorithm)]
    rows, (best_f, best_lr), out_path, compared = _sweep(
        config, "lr", sorted(float(lr) for lr in lrs), "diverged", "grid", _best_point, compare
    )
    compare_f = _NAN
    if compare_algorithm is not None:
        compare_f = compared[0].aggregate.get("final_f", (_NAN, _NAN))[0]
        table = csv_text(
            ["algorithm", "mean_final_f"], [["best_grid", best_f], [compare_algorithm, compare_f]]
        )
        _write_atomic(out_path.with_name(out_path.stem + "_compare.csv"), table)
    return GridResult(rows, best_lr, best_f, out_path, compare_algorithm, compare_f)


@dataclass
class SweepResult:
    rows: list[tuple[float, float, float, bool]]  # d0, mean final_f, 2se, out_of_theory
    relative_spread: float
    out_path: Optional[Path] = None


def _relative_spread(rows) -> float:
    """(max - min) / max |.| of the points' mean final_f; NaN if one is NaN."""
    finals = [m for _, m, _, _ in rows]
    if any(math.isnan(m) for m in finals):  # min and max would pass a NaN over
        return _NAN
    lo, hi = min(finals), max(finals)
    scale = max(abs(lo), abs(hi))
    return (hi - lo) / scale if scale > 0.0 else 0.0


def d0_sweep(config: ExperimentConfig, d0s: Sequence[float]) -> SweepResult:
    """Run the same adaptive config across initial estimates d0."""
    if config.algorithm not in DADAPT_ALGORITHMS:
        raise ConfigError("d0 sweep applies to the adaptive algorithms only")
    if not d0s:
        raise ConfigError("empty d0 list")
    rows, spread, out_path, _ = _sweep(
        config, "d0", [float(d0) for d0 in d0s], "out_of_theory", "sweep_d0", _relative_spread
    )
    return SweepResult(rows=rows, relative_spread=spread, out_path=out_path)
