"""Baselines, config plumbing, experiment output layout, CLI exit codes."""

import codecs
import csv
import math
import os
import subprocess
import sys
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import dadapt
from dadapt import cli
from dadapt.analysis import BoundReport
from dadapt.baselines import (
    AdaGradNormState,
    _AdaGradState,
    _adagrad_step,
    _FixedState,
    _fixed_step,
    _PolyakState,
    _polyak_move,
    _polyak_state_step,
    adagrad_norm_init,
    adagrad_norm_step,
    start,
)
from dadapt.convex import (
    AdaGradDAState,
    DAState,
    GDState,
    adagrad_da_step,
    da_step,
    gd_step,
    run_convex,
)
from dadapt.core import ConfigError, Problem, Rng, Schedule, Trajectory, drive
from dadapt.harness import (
    BASELINE_ALGORITHMS,
    CSV_HEADER,
    DADAPT_ALGORITHMS,
    SUMMARY_HEADER,
    ExperimentConfig,
    GridDiverged,
    apply_overrides,
    build_problem,
    config_hash,
    d0_sweep,
    grid_search,
    load_config,
    mean_2se,
    parse_config_text,
    run_experiment,
    run_single,
)
from dadapt.ml import AdamDAState, SGDDAState, adam_da_step, sgd_da_step
from dadapt.problems import abs_value_problem, piecewise_max_problem, synth_dataset
from test_problems import serialize_libsvm


class TestAdaGradNorm:
    def test_first_abs_step_lands_at_zero(self):
        # gamma = D/|g| = 1 on the first step, so x0=1 maps to exactly 0
        st = adagrad_norm_init(np.array([1.0]), radius=1.0)
        adagrad_norm_step(st, np.array([1.0]))
        assert st.x[0] == 0.0

    def test_projection_clips_to_radius(self):
        st = adagrad_norm_init(np.array([0.0]), radius=1.0)
        adagrad_norm_step(st, np.array([0.1]))
        # accumulator 0.01, gamma = 1/0.1 = 10, raw step to -1, inside;
        # next tiny gradient pushes past the ball and must be clipped
        adagrad_norm_step(st, np.array([0.05]))
        dist = abs(st.x[0] - st.x0[0])
        assert dist <= 1.0 + 1e-15
        assert dist == pytest.approx(1.0)

    def test_zero_gradients_skipped(self):
        st = adagrad_norm_init(np.array([2.0]), radius=1.0)
        for _ in range(3):
            adagrad_norm_step(st, np.array([0.0]))
            assert st.x[0] == 2.0
        # first real gradient then moves the point
        adagrad_norm_step(st, np.array([1.0]))
        assert st.x[0] == 1.0

    def test_zero_gradient_after_start_keeps_point(self):
        st = adagrad_norm_init(np.array([1.0]), radius=1.0)
        adagrad_norm_step(st, np.array([1.0]))
        before = st.x.copy()
        adagrad_norm_step(st, np.array([0.0]))
        assert np.array_equal(st.x, before)

    def test_radius_validation(self):
        with pytest.raises(ConfigError):
            adagrad_norm_init(np.array([1.0]), radius=-1.0)
        with pytest.raises(ConfigError):
            adagrad_norm_init(np.array([1.0]), radius=float("nan"))

    def test_zero_radius_run(self, tmp_path, capsys):
        # on abs the radius is lr * |x0|; from x0 = 0 the ball is {0}
        code = cli.main(
            [
                "run",
                "--set", "algorithm=adagrad_norm",
                "--set", "x0=0",
                "--set", "n_steps=100",
                "--set", f"out_dir={tmp_path}",
            ]
        )
        assert code == 0
        (out_dir,) = tmp_path.iterdir()
        (summary,) = read_csv(out_dir / "summary.csv")
        assert float(summary["final_f"]) == 0.0
        assert len(read_csv(out_dir / "steps_seed0.csv")) == 100


class TestPolyak:
    def test_abs_one_step_exact(self):
        # gamma = f/||g||^2 = 1, lands exactly on the minimizer
        x = _polyak_move(np.array([1.0]), np.array([1.0]), 1.0, 1.0)
        assert x[0] == 0.0

    def test_at_optimum_no_op(self):
        x = _polyak_move(np.array([0.0]), np.array([0.0]), 0.0, 0.0)
        assert x[0] == 0.0

    def test_monotone_on_piecewise(self):
        prob = piecewise_max_problem(
            np.array([[1.0], [-2.0]]), np.zeros(2), known_fstar=0.0
        )
        x = np.array([1.0])
        f_prev = prob.value(x)
        for _ in range(10):
            g = prob.subgradient(x)
            x = _polyak_move(x, g, prob.value(x), float(g @ g))
            f_now = prob.value(x)
            assert f_now <= f_prev + 1e-15
            f_prev = f_now

    def test_value_rounded_below_fstar_is_optimal(self, tmp_path, capsys):
        # step 201 of this run reads f = -5.55e-17 below fstar = 0: the point
        # is optimal to working precision, so the step takes no move
        settings = [
            "problem=piecewise", "algorithm=polyak", "n_steps=500", "problem_seed=13",
            "piecewise_dim=4", "piecewise_pieces=3", f"out_dir={tmp_path}",
        ]
        code = cli.main(["run"] + [arg for s in settings for arg in ("--set", s)])
        assert code == 0, capsys.readouterr().err
        (run_dir,) = tmp_path.iterdir()
        assert len(read_csv(run_dir / "steps_seed0.csv")) == 500
        (summary,) = read_csv(run_dir / "summary.csv")
        assert math.isfinite(float(summary["final_f"]))

    def test_value_below_fstar_takes_no_step(self):
        state = _PolyakState(
            x=np.array([1.0]), value=lambda x: -1e-17, fstar=0.0, traj=Trajectory("polyak", 1)
        )
        _polyak_state_step(state, np.array([2.0]))
        assert state.x.tolist() == [1.0]
        assert state.traj.records[0, 3] == 0.0  # gamma

    def test_zero_gradient_suboptimal_errors(self):
        with pytest.raises(ValueError):
            _polyak_move(np.array([1.0]), np.array([0.0]), 1.0, 0.0)


class TestFixedStep:
    @staticmethod
    def run(**kwargs):
        return run_single(ExperimentConfig(problem="abs", algorithm="fixed", **kwargs), 0)

    def test_abs_average_within_rate(self):
        out = self.run(n_steps=100)
        # classic averaged-subgradient guarantee: DG/sqrt(n) scale
        assert out.summary["avg_f"] <= 1.0

    def test_single_step_size(self):
        out = self.run(n_steps=1, lr=0.5)
        # one step of size lr*D/G then the average of the two points
        assert out.summary["avg_f"] == (1.0 + 0.5) / 2.0

    def test_validation(self):
        with pytest.raises(ConfigError):
            self.run(n_steps=0)


def _adagrad_out_of_place(x, acc, g, mult):
    """One AdaGrad step as written before acc was updated in place."""
    acc = np.sqrt(acc * acc + g * g)
    step = np.divide(g, acc, out=np.zeros_like(g), where=acc > 0.0)
    return x - mult * step, acc


class TestAdaGradStep:
    @staticmethod
    def drive_scripted(grads, lr=0.7):
        """Drive _adagrad_step through grads; the iterate after each step."""
        x0 = np.array([1.0, -2.0, 0.5, 3.0])
        state = _AdaGradState(x=x0.copy(), acc=np.zeros(4), lr=lr, traj=Trajectory("adagrad", 4))
        script = iter(grads)
        problem = Problem(subgradient=lambda x: next(script), values=lambda X: np.zeros(len(X)))
        seen = []

        def step(st, g, sched):
            _adagrad_step(st, g, sched)
            seen.append(st.x)

        with warnings.catch_warnings():
            warnings.simplefilter("error")  # no RuntimeWarning escapes drive
            drive(problem, state, step, len(grads), Schedule(), 1)
        return x0, seen

    def check_against_reference(self, grads, lr=0.7):
        x0, seen = self.drive_scripted(grads, lr)
        x, acc = x0, np.zeros(4)
        for g, got in zip(grads, seen):
            x, acc = _adagrad_out_of_place(x, acc, g, lr)
            assert got.tobytes() == x.tobytes()
        return seen

    def test_all_zero_coordinate_takes_no_step(self):
        gen = np.random.default_rng(0)
        grads = [gen.standard_normal(4) * [1.0, 0.0, 1.0, 1.0] for _ in range(12)]
        grads[3][2] = 0.0  # a zero after nonzero gradients steps with acc > 0
        seen = self.check_against_reference(grads)
        assert all(x[1] == -2.0 for x in seen)

    def test_coordinate_that_starts_late(self):
        # acc is 0 in coordinate 3 until step 5, then the fast path takes over
        gen = np.random.default_rng(1)
        grads = [gen.standard_normal(4) * [1.0, 1.0, 1.0, float(k >= 5)] for k in range(10)]
        self.check_against_reference(grads)

    def test_nan_gradient_freezes_its_coordinate(self):
        # a NaN accumulator takes no step, as with the where= mask
        gen = np.random.default_rng(2)
        grads = [gen.standard_normal(4) for _ in range(8)]
        grads[2][0] = np.nan
        seen = self.check_against_reference(grads)
        assert len({x[0] for x in seen[2:]}) == 1 and np.isfinite(seen[-1]).all()

    def test_all_nonzero_is_plain_division(self):
        gen = np.random.default_rng(3)
        self.check_against_reference([gen.standard_normal(4) for _ in range(20)], lr=1e-3)


class TestDivergence:
    """A diverging run stops at the failing step and keeps the rows before it."""

    @staticmethod
    def check(out):
        s = out.summary
        assert s["diverged"] is True
        assert s["steps"] == len(out.rows) > 0
        assert math.isnan(s["final_f"])
        assert math.isfinite(s["final_d"])

    @pytest.mark.parametrize("algo", ["da_I", "da_II", "gd", "adagrad_da"])
    def test_huge_features_keep_rows(self, algo, tmp_path):
        path = tmp_path / "big.svm"
        path.write_text(
            "+1 1:1e10 2:-1e10\n-1 1:-1e10 2:1e10\n+1 1:2e10 2:1e10\n-1 1:-1e10 2:-2e10\n"
        )
        cfg = ExperimentConfig(
            problem="libsvm", libsvm_path=str(path), algorithm=algo, d0=1e300, n_steps=100
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the run reports it, numpy stays quiet
            self.check(run_single(cfg, 0))

    @pytest.mark.parametrize("algo", ["da_I", "da_II", "gd", "adagrad_da", "sgd_da", "adam_da"])
    def test_huge_d0_stops_at_first_bad_iterate(self, algo):
        cfg = ExperimentConfig(problem="piecewise", algorithm=algo, d0=1e300, n_steps=200)
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # the run reports it, numpy stays quiet
            out = run_single(cfg, 0)
        self.check(out)
        assert out.summary["steps"] < 200


class TestConfig:
    @pytest.mark.parametrize(
        "field, value",
        [("piecewise_dim", 0), ("piecewise_pieces", 1), ("synth_n", 0), ("synth_dim", 0),
         ("synth_flip", 1.0), ("synth_flip", -0.1)],
    )
    def test_problem_shape_checked_at_construction(self, field, value):
        with pytest.raises(ConfigError, match=f"^{field} must "):
            ExperimentConfig(**{field: value})

    @pytest.mark.parametrize(
        "settings, key",
        [({"n_steps": -5, "epochs": 1}, "n_steps"), ({"n_steps": 3, "epochs": -2}, "epochs")],
    )
    def test_negative_step_counts_rejected(self, settings, key, tmp_path, capsys):
        with pytest.raises(ConfigError, match=f"^{key} must be non-negative"):
            ExperimentConfig(problem="synth_logistic", **settings)
        argv = ["run", "--set", "problem=synth_logistic", "--set", f"out_dir={tmp_path}"]
        for name, value in settings.items():
            argv += ["--set", f"{name}={value}"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith(f"config error: {key} must be non-negative")
        assert not list(tmp_path.iterdir())

    def test_parse_round_trip(self):
        text = """
        # experiment
        problem = piecewise
        algorithm = da_II
        d0 = 1e-3
        n_steps = 50
        seeds = 0, 1, 2
        stage_fractions = 0.5, 0.9
        full_batch = true
        """
        cfg = parse_config_text(text)
        assert cfg.problem == "piecewise"
        assert cfg.algorithm == "da_II"
        assert cfg.d0 == 1e-3
        assert cfg.seeds == (0, 1, 2)
        assert cfg.stage_fractions == (0.5, 0.9)
        assert cfg.full_batch is True

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("learning_rate = 3\n")

    def test_bad_value_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("n_steps = soon\n")
        with pytest.raises(ConfigError):
            parse_config_text("full_batch = maybe\n")

    def test_missing_equals_rejected(self):
        with pytest.raises(ConfigError):
            parse_config_text("problem abs\n")

    @pytest.mark.parametrize("text, value", [("false", False), ("true", True)])
    def test_bool_override(self, text, value):
        cfg = apply_overrides(ExperimentConfig(full_batch=not value), {"full_batch": text})
        assert cfg.full_batch is value

    def test_overrides(self):
        cfg = apply_overrides(ExperimentConfig(), {"d0": "0.5", "seeds": "3,4"})
        assert cfg.d0 == 0.5
        assert cfg.seeds == (3, 4)
        with pytest.raises(ConfigError):
            apply_overrides(ExperimentConfig(), {"nope": "1"})

    @pytest.mark.parametrize(
        "text", ["lr = nan", "x0 = -inf", "x0_distance = inf", "stage_fractions = 0.5,nan"]
    )
    def test_non_finite_setting_rejected(self, text):
        with pytest.raises(ConfigError, match="must be finite"):
            parse_config_text(text)
        key, _, value = text.partition(" = ")
        with pytest.raises(ConfigError, match="must be finite"):
            apply_overrides(ExperimentConfig(), {key: value})

    @pytest.mark.parametrize("seeds", [(), (0, 0)])
    def test_seeds_present_and_distinct(self, seeds):
        with pytest.raises(ConfigError, match="distinct seeds"):
            ExperimentConfig(seeds=seeds)
        with pytest.raises(ConfigError, match="distinct seeds"):
            apply_overrides(ExperimentConfig(), {"seeds": ",".join(map(str, seeds))})

    @pytest.mark.parametrize("algo", DADAPT_ALGORITHMS + BASELINE_ALGORITHMS)
    def test_record_f_every_must_be_positive(self, algo):
        with pytest.raises(ConfigError):
            cfg = ExperimentConfig(algorithm=algo, n_steps=5, record_f_every=0)
            run_single(cfg, 0)

    @pytest.mark.parametrize(
        "setting", [{"algorithm": "bogus"}, {"problem": "rosenbrock"}, {"g_mode": "auto"}]
    )
    def test_unknown_choice_rejected_when_built(self, setting):
        (key, value), = setting.items()
        with pytest.raises(ConfigError, match=f"unknown {key} '{value}'"):
            ExperimentConfig(**setting)
        with pytest.raises(ConfigError, match=f"unknown {key} '{value}'"):
            apply_overrides(ExperimentConfig(), {key: value})

    def test_numpy_scalars_stored_as_python_values(self, tmp_path):
        a = ExperimentConfig(n_steps=3, lr=np.float64(0.1))
        b = ExperimentConfig(n_steps=3, lr=0.1)
        assert a == b and config_hash(a) == config_hash(b)
        c = ExperimentConfig(
            n_steps=np.int64(3), seeds=(np.int64(0), 1), stage_fractions=(np.float64(0.5),),
            full_batch=np.bool_(False),
        )
        assert config_hash(c) == config_hash(
            ExperimentConfig(n_steps=3, seeds=(0, 1), stage_fractions=(0.5,))
        )
        assert [type(v) for v in (c.n_steps, *c.seeds, *c.stage_fractions, c.full_batch)] == [
            int, int, int, float, bool
        ]
        written = []
        for d0 in (np.float64(0.1), 0.1):
            cfg = ExperimentConfig(n_steps=20, d0=d0, out_dir=str(tmp_path / type(d0).__name__))
            out_dir = run_experiment(cfg).out_dir
            written.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert written[0] == written[1]
        summary = written[0]["summary.csv"].decode().splitlines()
        assert float(summary[1].split(",")[SUMMARY_HEADER.index("d0")]) == 0.1

    def test_hash_stable_and_ignores_output_plumbing(self):
        a = ExperimentConfig(n_steps=10)
        b = ExperimentConfig(n_steps=10, out_dir="elsewhere")
        c = ExperimentConfig(n_steps=11)
        assert config_hash(a) == config_hash(b)
        assert config_hash(a) != config_hash(c)
        assert len(config_hash(a)) == 12


class TestBuildProblem:
    def test_abs_bundle(self):
        bundle = build_problem(ExperimentConfig(n_steps=5, x0=-2.0), seed=0)
        assert bundle.D == 2.0
        assert bundle.problem.lipschitz == 1.0
        assert bundle.x0[0] == -2.0

    def test_piecewise_distance_exact(self):
        cfg = ExperimentConfig(problem="piecewise", n_steps=5, x0_distance=3.0)
        bundle = build_problem(cfg, seed=0)
        delta = bundle.x0 - bundle.problem.known_minimizer
        assert math.sqrt(float(delta @ delta)) == pytest.approx(3.0, rel=1e-12)
        assert bundle.D == 3.0

    def test_problem_seed_owns_geometry(self):
        cfg = ExperimentConfig(problem="piecewise", n_steps=5, problem_seed=7)
        a = build_problem(cfg, seed=0)
        b = build_problem(cfg, seed=99)
        assert np.array_equal(a.x0, b.x0)  # run seed does not move the problem

    def test_synth_steps_from_epochs(self):
        cfg = ExperimentConfig(
            problem="synth_logistic", epochs=2, synth_n=37, batch_size=16
        )
        bundle = build_problem(cfg, seed=0)
        assert bundle.n_steps == 2 * 3

    def test_missing_steps_rejected(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig(n_steps=0), seed=0)
        with pytest.raises(ConfigError):
            build_problem(
                ExperimentConfig(problem="synth_logistic", n_steps=0, epochs=0), seed=0
            )

    def test_unknown_problem_rejected(self):
        with pytest.raises(ConfigError):
            build_problem(ExperimentConfig(problem="rosenbrock"), seed=0)

    def test_missing_libsvm_file_rejected(self):
        cfg = ExperimentConfig(problem="libsvm", libsvm_path="/nonexistent", epochs=1)
        with pytest.raises(ConfigError):
            build_problem(cfg, seed=0)


_STARTS = {
    "da_I": (DAState, da_step),
    "da_II": (DAState, da_step),
    "gd": (GDState, gd_step),
    "adagrad_da": (AdaGradDAState, adagrad_da_step),
    "sgd_da": (SGDDAState, sgd_da_step),
    "adam_da": (AdamDAState, adam_da_step),
    "adagrad": (_AdaGradState, _adagrad_step),
    "adagrad_norm": (AdaGradNormState, adagrad_norm_step),
    "polyak": (_PolyakState, _polyak_state_step),
    "fixed": (_FixedState, _fixed_step),
}


@pytest.mark.parametrize("algorithm", DADAPT_ALGORITHMS + BASELINE_ALGORITHMS)
def test_start_sets_up_the_configs_algorithm(algorithm):
    cfg = ExperimentConfig(problem="piecewise", algorithm=algorithm, n_steps=5, g_mode="fixed")
    bundle = build_problem(cfg, seed=0)
    state, step = start(cfg, bundle)
    assert (type(state), step) == _STARTS[algorithm]
    if algorithm.startswith("da_"):
        assert state.option == algorithm[3:]
        assert state.g_fixed == bundle.problem.lipschitz
    step(state, bundle.problem.subgradient(state.x))
    assert len(state.traj.records) == 1


@pytest.mark.parametrize("g_mode", ["none", "fixed"])
@pytest.mark.parametrize("algorithm", ["da_I", "da_II", "gd", "adagrad_da"])
def test_run_single_and_run_convex_make_the_same_run(algorithm, g_mode):
    # both entry points take the run from convex.start, run_single with the
    # problem's known bounds
    cfg = ExperimentConfig(problem="piecewise", algorithm=algorithm, n_steps=300, g_mode=g_mode)
    bundle = build_problem(cfg, seed=0)
    prob = bundle.problem
    name, option = ("da", algorithm[3:]) if algorithm.startswith("da_") else (algorithm, "I")
    res = run_convex(
        prob, bundle.x0, name, cfg.d0, bundle.n_steps, option=option, g_mode=g_mode,
        g_value=prob.lipschitz, g_inf=prob.lipschitz_inf,
    )
    out = run_single(cfg, 0)
    assert out.rows.tobytes() == res.traj.records.tobytes()
    assert out.summary["final_d"] == res.d_final
    assert out.summary["t_index"] == (-1 if res.t_index is None else res.t_index)


@pytest.mark.parametrize("every", [1, 3])
@pytest.mark.parametrize("problem", ["piecewise", "abs"])
@pytest.mark.parametrize("algorithm", DADAPT_ALGORITHMS + BASELINE_ALGORITHMS)
def test_drive_alone_writes_f(algorithm, problem, every):
    cfg = ExperimentConfig(problem=problem, algorithm=algorithm, n_steps=10)
    bundle = build_problem(cfg, seed=0)
    prob = bundle.problem
    state, stepper = start(cfg, bundle)
    stepper(state, prob.subgradient(state.x))
    assert math.isnan(state.traj.records[0, 4])  # a stepper records no f
    state, stepper = start(cfg, bundle)
    visited = []

    def step(st, g, sched=1.0):
        visited.append(st.x.copy())
        stepper(st, g, sched)

    drive(prob, state, step, 10, Schedule(), every)
    want = [prob.value(x) if k % every == 0 else math.nan for k, x in enumerate(visited)]
    assert state.traj.records[:, 4].tobytes() == np.array(want).tobytes()


def read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestRunExperiment:
    def test_output_layout_and_schema(self, tmp_path):
        cfg = ExperimentConfig(
            problem="abs", algorithm="da_I", d0=0.1, n_steps=20,
            seeds=(0, 1), out_dir=str(tmp_path),
        )
        result = run_experiment(cfg)
        assert result.out_dir == tmp_path / result.config_hash
        for seed in (0, 1):
            rows = read_csv(result.out_dir / f"steps_seed{seed}.csv")
            assert list(rows[0].keys()) == CSV_HEADER
            assert len(rows) == 20
        summary = read_csv(result.out_dir / "summary.csv")
        assert list(summary[0].keys()) == SUMMARY_HEADER
        assert len(summary) == 2
        agg = read_csv(result.out_dir / "aggregate.csv")
        assert {r["metric"] for r in agg} >= {"final_f", "final_d"}

    def test_byte_identical_reruns(self, tmp_path):
        cfg = ExperimentConfig(
            problem="piecewise", algorithm="da_II", d0=1e-3, n_steps=50,
            seeds=(0, 1), out_dir=str(tmp_path / "a"),
        )
        r1 = run_experiment(cfg)
        first = {
            p.name: p.read_bytes() for p in sorted(r1.out_dir.iterdir())
        }
        r2 = run_experiment(ExperimentConfig(**{**cfg.__dict__, "out_dir": str(tmp_path / "b")}))
        second = {
            p.name: p.read_bytes() for p in sorted(r2.out_dir.iterdir())
        }
        assert first == second

    def test_aggregate_matches_brute_force(self, tmp_path):
        cfg = ExperimentConfig(
            problem="piecewise", algorithm="gd", d0=1e-2, n_steps=40,
            seeds=(0, 1, 2), out_dir=str(tmp_path),
        )
        result = run_experiment(cfg)
        summary = read_csv(result.out_dir / "summary.csv")
        finals = [float(row["final_f"]) for row in summary]
        m, se2 = mean_2se(finals)
        agg = {r["metric"]: r for r in read_csv(result.out_dir / "aggregate.csv")}
        assert float(agg["final_f"]["mean"]) == pytest.approx(m, rel=1e-15)
        assert float(agg["final_f"]["two_se"]) == pytest.approx(se2, rel=1e-12)
        assert int(agg["final_f"]["count"]) == 3

    def test_seeds_differ_for_stochastic_problem(self, tmp_path):
        cfg = ExperimentConfig(
            problem="synth_logistic", algorithm="sgd_da", epochs=1,
            synth_n=64, synth_dim=4, seeds=(0, 1), out_dir=str(tmp_path),
        )
        result = run_experiment(cfg)
        a = (result.out_dir / "steps_seed0.csv").read_text()
        b = (result.out_dir / "steps_seed1.csv").read_text()
        assert a != b  # different batch orders
        assert a.splitlines()[0] == b.splitlines()[0]

    def test_out_of_theory_flagged_and_run_completes(self):
        # d0 above the true distance: outside the guarantee, still runs
        out = run_single(
            ExperimentConfig(problem="abs", algorithm="da_I", d0=10.0, n_steps=50),
            seed=0,
        )
        assert out.summary["out_of_theory"] is True
        assert out.summary["steps"] == 50
        assert out.summary["final_d"] == 10.0  # no larger estimate ever certified

    def test_divergence_flagged(self):
        # fixed step with a huge multiplier on |x| oscillates within bounds,
        # so use adagrad with an absurd lr on piecewise to overflow
        out = run_single(
            ExperimentConfig(
                problem="abs", algorithm="fixed", lr=1e300, n_steps=30, d0=0.1
            ),
            seed=0,
        )
        assert out.summary["diverged"] is True

    def test_worker_processes_keep_bytes(self, tmp_path, monkeypatch):
        written = {}
        for workers in ("1", "2"):
            monkeypatch.setenv("DADAPT_WORKERS", workers)
            cfg = ExperimentConfig(
                problem="synth_logistic", algorithm="sgd_da", epochs=1,
                synth_n=64, synth_dim=4, seeds=(0, 1, 2), out_dir=str(tmp_path / workers),
            )
            out_dir = run_experiment(cfg).out_dir
            written[workers] = {p.name: p.read_bytes() for p in sorted(out_dir.iterdir())}
        assert len(written["1"]) == 5
        assert written["2"] == written["1"]

    @pytest.mark.parametrize("workers, seeds, pool", [("32", (0, 1), 2), ("2", (0, 1, 2), 2)])
    def test_pool_capped_at_seed_count(self, workers, seeds, pool, tmp_path, monkeypatch):
        import concurrent.futures

        sizes = []

        class SerialPool:  # records the pool size and starts no process
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, *iterables):
                return map(fn, *iterables)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setenv("DADAPT_WORKERS", workers)
        cfg = ExperimentConfig(n_steps=5, seeds=seeds, out_dir=str(tmp_path))
        outputs = run_experiment(cfg).outputs
        assert sizes == [pool]
        assert [out.seed for out in outputs] == list(seeds)

    def test_bad_worker_count_rejected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("DADAPT_WORKERS", "abc")
        cfg = ExperimentConfig(n_steps=5, seeds=(0, 1), out_dir=str(tmp_path))
        with pytest.raises(ConfigError):
            run_experiment(cfg)

    def test_import_loads_no_process_pool(self):
        # the pool's modules load only when a run asks for worker processes
        code = "import sys, dadapt; print(sorted({'concurrent.futures', 'multiprocessing'} & set(sys.modules)))"
        src = str(Path(dadapt.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
        assert out.returncode == 0, out.stderr
        assert out.stdout.strip() == "[]"

    def test_no_seeds_rejected(self):
        with pytest.raises(ConfigError):
            run_experiment(ExperimentConfig(n_steps=5, seeds=()))

    @pytest.mark.parametrize("algo", ["da_I", "sgd_da"])
    def test_libsvm_file_matches_synth_bytes(self, algo, tmp_path):
        data = tmp_path / "synth.svm"
        data.write_text(serialize_libsvm(synth_dataset(3, 200, 5, flip=0.1)))
        common = dict(algorithm=algo, epochs=2, seeds=(0, 1))
        synth = ExperimentConfig(
            problem="synth_logistic", problem_seed=3, synth_n=200, synth_dim=5,
            synth_flip=0.1, out_dir=str(tmp_path / "synth"), **common,
        )
        libsvm = ExperimentConfig(
            problem="libsvm", libsvm_path=str(data), out_dir=str(tmp_path / "libsvm"),
            **common,
        )
        written = []
        for cfg in (synth, libsvm):
            out_dir = run_experiment(cfg).out_dir
            written.append({p.name: p.read_bytes() for p in sorted(out_dir.iterdir())})
        assert len(written[0]) == 4
        assert written[1] == written[0]


class TestDatasetLoads:
    """An experiment, grid or sweep builds or reads its dataset once."""

    @pytest.fixture
    def loads(self, monkeypatch):
        import dadapt.harness as hz

        calls = []
        for name in ("synth_dataset", "parse_libsvm"):
            real = getattr(hz, name)

            def counted(*args, _real=real, _name=name, **kwargs):
                calls.append(_name)
                return _real(*args, **kwargs)

            monkeypatch.setattr(hz, name, counted)
        return calls

    def make_cfg(self, tmp_path, **kw):
        base = dict(
            problem="synth_logistic", algorithm="sgd_da", epochs=1, synth_n=64,
            synth_dim=4, seeds=(0, 1, 2), out_dir=str(tmp_path),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_experiment_seeds_share_one_build(self, tmp_path, loads):
        result = run_experiment(self.make_cfg(tmp_path))
        assert loads == ["synth_dataset"]
        assert len(result.outputs) == 3

    def test_grid_and_comparison_share_one_build(self, tmp_path, loads):
        result = grid_search(
            self.make_cfg(tmp_path, algorithm="adagrad"), [0.1, 1.0, 10.0],
            compare_algorithm="adagrad_da",
        )
        assert loads == ["synth_dataset"]
        assert len(result.rows) == 3 and math.isfinite(result.compare_f)

    def test_sweep_shares_one_build(self, tmp_path, loads):
        result = d0_sweep(self.make_cfg(tmp_path), [1e-6, 1e-4, 1e-2])
        assert loads == ["synth_dataset"]
        assert len(result.rows) == 3

    def test_repeated_values_rejected_before_the_build(self, tmp_path, loads):
        # one config twice would run into one directory and list it twice
        with pytest.raises(ConfigError, match="distinct"):
            grid_search(self.make_cfg(tmp_path, algorithm="adagrad"), [0.1, 1.0, 0.1])
        with pytest.raises(ConfigError, match="distinct"):
            d0_sweep(self.make_cfg(tmp_path), [1e-6, 1e-6])
        assert loads == [] and list(tmp_path.iterdir()) == []

    def test_libsvm_file_read_once(self, tmp_path, loads):
        data = tmp_path / "data.svm"
        data.write_text(serialize_libsvm(synth_dataset(1, 40, 3)))
        cfg = self.make_cfg(tmp_path, problem="libsvm", libsvm_path=str(data))
        run_experiment(cfg)
        assert loads == ["parse_libsvm"]


class TestSharedEpochOrders:
    """Grid and sweep points share each seed's epoch orders and write the
    bytes of the same runs made alone."""

    def make_cfg(self, out_dir, **kw):
        base = dict(
            problem="synth_logistic", algorithm="sgd_da", epochs=3, synth_n=64,
            synth_dim=4, seeds=(0, 1), out_dir=str(out_dir),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    @staticmethod
    def written(out_dir):
        return {p.relative_to(out_dir): p.read_bytes() for p in sorted(out_dir.glob("*/*.csv"))}

    def test_sweep_points_match_lone_runs(self, tmp_path):
        # the first point diverges in epoch 0; the second reads every epoch after it
        cfg = self.make_cfg(tmp_path / "sweep")
        d0_sweep(cfg, [1e15, 1e-6])
        lone = [run_experiment(replace(cfg, d0=d0, out_dir=str(tmp_path / "lone")))
                for d0 in (1e15, 1e-6)]
        assert [out.summary["steps"] for out in lone[0].outputs] == [1, 1]
        assert [out.summary["steps"] for out in lone[1].outputs] == [12, 12]
        assert len(self.written(tmp_path / "sweep")) == 8
        assert self.written(tmp_path / "sweep") == self.written(tmp_path / "lone")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_grid_points_match_lone_runs(self, tmp_path, monkeypatch, workers):
        # with two workers the shared orders travel to the pool by pickle; an
        # sgd_da comparison is a lone point of a laned method, outside the grid's lanes
        cfg = self.make_cfg(tmp_path / "grid", algorithm="adagrad")
        for compare in ("adagrad_da", "sgd_da"):
            monkeypatch.setenv("DADAPT_WORKERS", workers)
            grid_search(cfg, [0.1, 10.0], compare_algorithm=compare)
            monkeypatch.setenv("DADAPT_WORKERS", "1")
            run_experiment(replace(cfg, algorithm=compare, out_dir=str(tmp_path / "lone")))
        for lr in (0.1, 10.0):
            run_experiment(replace(cfg, lr=lr, out_dir=str(tmp_path / "lone")))
        assert len(self.written(tmp_path / "grid")) == 16
        assert self.written(tmp_path / "grid") == self.written(tmp_path / "lone")

    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize(
        "algo, key, values", [("adagrad", "lr", [0.1, 1e15]), ("sgd_da", "d0", [1e15, 1e-6])]
    )
    def test_lane_points_match_lone_runs(self, tmp_path, monkeypatch, workers, algo, key, values):
        # the points run in lanes, each seed's in one process; one leaves the ball at once
        cfg = self.make_cfg(tmp_path / "points", algorithm=algo)
        monkeypatch.setenv("DADAPT_WORKERS", workers)
        (grid_search if key == "lr" else d0_sweep)(cfg, values)
        monkeypatch.setenv("DADAPT_WORKERS", "1")
        for value in values:
            run_experiment(replace(cfg, **{key: value}, out_dir=str(tmp_path / "lone")))
        assert len(self.written(tmp_path / "points")) == 8
        assert self.written(tmp_path / "points") == self.written(tmp_path / "lone")


class TestDegenerateDatasets:
    """libsvm files with no features, one class or no examples, from the CLI."""

    # the algorithms that run on dataset problems: all but those needing a known D or f*
    ALGORITHMS = [
        a for a in DADAPT_ALGORITHMS + BASELINE_ALGORITHMS if a not in ("polyak", "fixed")
    ]

    def run_file(self, tmp_path, text, algo):
        data = tmp_path / "data.svm"
        data.write_text(text)
        code = cli.main(
            [
                "run",
                "--set", "problem=libsvm",
                "--set", f"libsvm_path={data}",
                "--set", f"algorithm={algo}",
                "--set", "epochs=5",
                "--set", "seeds=0,1",
                "--set", f"out_dir={tmp_path / 'out'}",
            ]
        )
        return code, list((tmp_path / "out").glob("*"))

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_featureless_file_fits_the_bias_alone(self, tmp_path, algo):
        # dim 0: the model is the bias, and one example of each label has a
        # zero full-batch gradient at the zero start, so the loss stays log 2
        code, (out_dir,) = self.run_file(tmp_path, "+1\n-1\n", algo)
        assert code == 0
        for row in read_csv(out_dir / "summary.csv"):
            assert float(row["final_f"]) == math.log(2.0)
            assert row["diverged"] == "False"

    @pytest.mark.parametrize("algo", ALGORITHMS)
    def test_one_class_file_runs_with_finite_rows(self, tmp_path, algo):
        code, (out_dir,) = self.run_file(tmp_path, "+1 1:0.5\n+1 1:1.5 2:-1\n+1 2:2\n", algo)
        assert code == 0
        for seed in (0, 1):
            rows = read_csv(out_dir / f"steps_seed{seed}.csv")
            assert len(rows) == 5  # 5 epochs of one batch
            # d and dhat are NaN by design in the baselines' rows
            assert all(
                math.isfinite(float(row[key]))
                for row in rows for key in ("gamma_or_lambda", "f", "gnorm2")
            )

    def test_empty_file_is_a_config_error(self, tmp_path, capsys):
        code, written = self.run_file(tmp_path, "# no examples\n\n", "sgd_da")
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "holds no examples" in err
        assert not written


class TestGridSearch:
    def make_cfg(self, tmp_path, **kw):
        base = dict(
            problem="abs", algorithm="fixed", d0=0.1, n_steps=30,
            seeds=(0,), out_dir=str(tmp_path),
        )
        base.update(kw)
        return ExperimentConfig(**base)

    def test_three_point_grid(self, tmp_path):
        result = grid_search(self.make_cfg(tmp_path), [0.1, 1.0, 10.0])
        assert len(result.rows) == 3
        assert [r[0] for r in result.rows] == [0.1, 1.0, 10.0]
        assert result.best_lr in (0.1, 1.0, 10.0)
        assert result.out_path.is_file()

    def test_single_point(self, tmp_path):
        result = grid_search(self.make_cfg(tmp_path), [1.0])
        assert result.best_lr == 1.0

    def test_tie_takes_smaller_lr(self, tmp_path, monkeypatch):
        import dadapt.harness as hz

        # force identical means so the tie-break is observable
        real = hz._write_experiment

        def fake(config, outputs):
            res = real(config, outputs)
            res.aggregate["final_f"] = (0.5, 0.0)
            return res

        monkeypatch.setattr(hz, "_write_experiment", fake)
        result = grid_search(self.make_cfg(tmp_path), [10.0, 0.1, 1.0])
        assert result.best_lr == 0.1

    def test_adaptive_algorithm_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            grid_search(self.make_cfg(tmp_path, algorithm="da_I"), [1.0])

    def test_empty_grid_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            grid_search(self.make_cfg(tmp_path), [])

    def test_compare_run(self, tmp_path):
        result = grid_search(
            self.make_cfg(tmp_path), [1.0], compare_algorithm="da_I"
        )
        assert result.compare_algorithm == "da_I"
        assert math.isfinite(result.compare_f)
        compare_path = result.out_path.with_name(result.out_path.stem + "_compare.csv")
        assert compare_path.is_file()

    def test_compare_must_be_adaptive(self, tmp_path):
        with pytest.raises(ConfigError):
            grid_search(self.make_cfg(tmp_path), [1.0], compare_algorithm="polyak")

    def test_all_diverged_writes_no_table(self, tmp_path, capsys):
        cfg = self.make_cfg(tmp_path / "api")
        with pytest.raises(GridDiverged):
            grid_search(cfg, [1e15, 1e16], compare_algorithm="da_I")
        assert not list((tmp_path / "api").glob("grid_*.csv"))
        assert not list((tmp_path / "api").glob("grid_*_compare.csv"))
        # the comparison runs in the points' pass, so the points' runs and
        # its own are written before the grid finds no best point
        assert len(list((tmp_path / "api").iterdir())) == 3
        argv = ["grid", "--lrs", "1e15,1e16", "--compare", "da_I", "--set", "algorithm=fixed",
                "--set", "n_steps=30", "--set", f"out_dir={tmp_path / 'cli'}"]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("grid failed: every grid point diverged")
        assert not list((tmp_path / "cli").glob("grid_*.csv"))

    def test_cli_prints_the_table_it_wrote(self, tmp_path, capsys):
        argv = ["grid", "--lrs", "1,0.1", "--set", "algorithm=fixed", "--set", "n_steps=30"]
        assert cli.main(argv + ["--set", f"out_dir={tmp_path}"]) == 0
        out = capsys.readouterr().out
        (table,) = tmp_path.glob("grid_*.csv")
        assert out.startswith(table.read_text())
        assert out.count("\n") == table.read_text().count("\n") + 2


class TestD0Sweep:
    def test_single_point_spread_zero(self, tmp_path):
        cfg = ExperimentConfig(
            problem="abs", algorithm="da_I", n_steps=30, seeds=(0,),
            out_dir=str(tmp_path),
        )
        result = d0_sweep(cfg, [0.1])
        assert result.relative_spread == 0.0
        assert result.out_path.is_file()

    def test_out_of_theory_column(self, tmp_path):
        cfg = ExperimentConfig(
            problem="abs", algorithm="da_I", n_steps=30, seeds=(0,),
            out_dir=str(tmp_path),
        )
        result = d0_sweep(cfg, [0.1, 10.0])
        flags = {d0: flag for d0, _, _, flag in result.rows}
        assert flags[0.1] is False
        assert flags[10.0] is True

    def test_baseline_rejected(self, tmp_path):
        cfg = ExperimentConfig(
            problem="abs", algorithm="fixed", n_steps=30, out_dir=str(tmp_path)
        )
        with pytest.raises(ConfigError):
            d0_sweep(cfg, [0.1])

    @pytest.mark.parametrize("d0s", [(1e15, 1e-6, 1e-3), (1e-6, 1e15, 1e-3)])
    def test_diverged_point_makes_spread_nan(self, tmp_path, capsys, d0s):
        # min and max return a NaN in the first place and skip one elsewhere
        cfg = ExperimentConfig(
            problem="synth_logistic", algorithm="sgd_da", epochs=1, synth_n=64,
            synth_dim=4, out_dir=str(tmp_path),
        )
        result = d0_sweep(cfg, d0s)
        assert [math.isnan(m) for _, m, _, _ in result.rows] == [d0 == 1e15 for d0 in d0s]
        assert math.isnan(result.relative_spread)
        argv = ["sweep-d0", "--d0s", ",".join(map(repr, d0s))]
        for key in ("problem", "algorithm", "epochs", "synth_n", "synth_dim", "out_dir"):
            argv += ["--set", f"{key}={getattr(cfg, key)}"]
        capsys.readouterr()
        assert cli.main(argv) == 0
        assert "relative spread of mean final loss: nan\n" in capsys.readouterr().out

    def test_nonpositive_d0_rejected(self, tmp_path):
        cfg = ExperimentConfig(
            problem="abs", algorithm="da_I", n_steps=30, out_dir=str(tmp_path)
        )
        for bad in (0.0, math.nan):
            with pytest.raises(ConfigError):
                d0_sweep(cfg, [bad])


class TestCli:
    def test_run_exit_zero(self, tmp_path, capsys):
        code = cli.main(
            ["run", "--set", "n_steps=10", "--set", f"out_dir={tmp_path}"]
        )
        assert code == 0
        assert "config " in capsys.readouterr().out

    def test_config_error_exit_two(self, tmp_path, capsys):
        code = cli.main(["run", "--set", "bogus_key=1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_bad_record_cadence_exit_two(self, tmp_path, capsys):
        code = cli.main(
            [
                "run",
                "--set", "algorithm=sgd_da",
                "--set", "record_f_every=0",
                "--set", "n_steps=5",
                "--set", f"out_dir={tmp_path}",
            ]
        )
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_verify_failure_exit_one(self, monkeypatch, capsys):
        failing = BoundReport("doctored", 1.0, 0.0, -1.0, False, "lhs above rhs")
        monkeypatch.setattr(cli, "verify_suite", lambda suite, quick: [failing])
        code = cli.main(["verify", "--suite", "lemmas"])
        assert code == 1
        out = capsys.readouterr()
        assert "doctored" in out.out
        assert "1 failed" in out.err

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "--set", "d0=nan"],
            ["sweep-d0", "--d0s", "nan,1e-3"],
            ["run", "--set", "problem=piecewise", "--set", "piecewise_dim=0"],
            ["run", "--set", "problem=piecewise", "--set", "piecewise_pieces=1"],
            ["run", "--set", "problem=piecewise", "--set", "x0_distance=-1",
             "--set", "algorithm=fixed"],
            ["run", "--set", "problem=piecewise", "--set", "x0_distance=nan"],
            ["run", "--set", "problem=synth_logistic", "--set", "synth_n=0"],
            ["run", "--set", "problem=synth_logistic", "--set", "synth_flip=1"],
            ["run", "--set", "algorithm=fixed", "--set", "lr=nan"],
            ["run", "--set", "x0=nan"],
            ["run", "--set", "problem=piecewise", "--set", "x0_distance=inf"],
            ["run", "--set", "x0=0", "--set", "d0=-1"],
            ["run", "--set", "batch_size=0"],
            ["run", "--set", "batch_size=-5"],
            ["run", "--set", "seeds=0,0"],
            ["run", "--set", "algorithm=adagrad", "--set", "lr=-1"],
            ["run", "--set", "seeds="],
        ],
    )
    def test_bad_setting_exit_two(self, argv, tmp_path, capsys):
        code = cli.main(argv + ["--set", "n_steps=5", "--set", f"out_dir={tmp_path}"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert not list(tmp_path.iterdir())  # nothing written

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["run", "--config", "missing.cfg"], "config file missing.cfg not found"),
            (["run", "--set", "foo"], "--set expects key=value, got 'foo'"),
            (["sweep-d0", "--d0s", ","], "empty d0 list"),
        ],
        ids=["missing_config", "set_without_equals", "no_d0s"],
    )
    def test_refused_argument_exit_two(self, argv, message, tmp_path, capsys, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert cli.main(argv + ["--set", f"out_dir={tmp_path / 'out'}"]) == 2
        assert capsys.readouterr().err == f"config error: {message}\n"
        assert list(tmp_path.iterdir()) == []

    def test_run_counts_diverged_runs(self, tmp_path, capsys):
        argv = ["run", "--set", "algorithm=fixed", "--set", "lr=1e15", "--set", "n_steps=10"]
        assert cli.main(argv + ["--set", f"out_dir={tmp_path}"]) == 0
        assert "\n  diverged runs: 1\n" in capsys.readouterr().out

    def test_grid_prints_the_comparison(self, tmp_path, capsys, monkeypatch):
        results = []

        def recorded(*args, **kwargs):
            results.append(grid_search(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(cli, "grid_search", recorded)
        argv = ["grid", "--set", "problem=piecewise", "--set", "algorithm=fixed",
                "--set", "n_steps=30", "--lrs", "0.5,1", "--compare", "da_I"]
        assert cli.main(argv + ["--set", f"out_dir={tmp_path}"]) == 0
        (result,) = results
        assert f"\nda_I (no tuning): {result.compare_f!r}\n" in capsys.readouterr().out

    def test_bad_compare_writes_nothing(self, tmp_path, capsys):
        argv = ["grid", "--set", "algorithm=adagrad", "--set", "n_steps=50",
                "--lrs", "0.1,1,10", "--compare", "polyak", "--set", f"out_dir={tmp_path}"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: comparison run")
        assert not list(tmp_path.iterdir())

    def test_bad_sweep_value_fails_before_any_run(self, tmp_path, capsys):
        argv = ["sweep-d0", "--d0s", "1e-3,nan", "--set", "n_steps=5"]
        assert cli.main(argv + ["--set", f"out_dir={tmp_path}"]) == 2
        assert capsys.readouterr().err.startswith("config error: d0 must be finite")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("setting", ["algorithm=bogus", "record_f_every=0", "g_mode=auto"])
    def test_bad_setting_fails_before_the_data_is_built(self, setting, tmp_path, monkeypatch):
        import dadapt.harness as hz

        def no_build(*args, **kwargs):
            raise AssertionError("dataset built for a config that cannot run")

        monkeypatch.setattr(hz, "synth_dataset", no_build)
        argv = ["run", "--set", "problem=synth_logistic", "--set", "epochs=1",
                "--set", setting, "--set", f"out_dir={tmp_path}"]
        assert cli.main(argv) == 2
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize(
        "settings",
        [
            ["schedule=bogus"],
            ["schedule=inverse_sqrt_warmup", "warmup_steps=0"],
            ["beta=1.0"],
            ["beta2=1.5"],
            ["eps=0"],
            ["beta1=-0.1"],
            ["decay=-1"],
            ["schedule=stagewise", "stage_factor=2"],
        ],
    )
    def test_bad_schedule_or_optimizer_fails_before_the_data_is_loaded(
        self, settings, tmp_path, monkeypatch, capsys
    ):
        import dadapt.harness as hz

        def no_load(*args, **kwargs):
            raise AssertionError("dataset loaded for a config that cannot run")

        monkeypatch.setattr(hz, "load_dataset", no_load)
        argv = ["run", "--set", "problem=synth_logistic", "--set", "epochs=1",
                "--set", f"out_dir={tmp_path}"]
        for setting in settings:
            argv += ["--set", setting]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("problem", ["synth_logistic", "libsvm"])
    @pytest.mark.parametrize("algo", ["polyak", "fixed"])
    def test_geometry_baselines_refused_before_the_data_is_loaded(
        self, algo, problem, tmp_path, monkeypatch, capsys
    ):
        import dadapt.harness as hz

        with pytest.raises(ConfigError, match=f"{algo} baseline needs a problem with a known optimum"):
            ExperimentConfig(problem=problem, algorithm=algo, epochs=1)

        def no_load(*args, **kwargs):
            raise AssertionError("dataset loaded for a config that cannot run")

        monkeypatch.setattr(hz, "load_dataset", no_load)
        data = tmp_path / "data.svm"
        data.write_text("+1 1:1\n-1 1:2\n")
        argv = ["run", "--set", f"problem={problem}", "--set", f"algorithm={algo}",
                "--set", "epochs=1", "--set", f"libsvm_path={data}",
                "--set", f"out_dir={tmp_path / 'out'}"]
        assert cli.main(argv) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not (tmp_path / "out").exists()

    def test_verify_lemmas_clean(self, capsys):
        code = cli.main(["verify", "--suite", "lemmas"])
        assert code == 0
        err = capsys.readouterr().err
        assert "0 failed" in err

    def test_trace_toy(self, tmp_path, capsys):
        code = cli.main(["trace-toy", "--steps", "50"])
        assert code == 0
        text = capsys.readouterr().out
        # byte-equal to the steps CSV of the matching `run`
        cli.main(["run", "--set", "d0=0.1", "--set", "n_steps=50", "--set", f"out_dir={tmp_path}"])
        (steps_csv,) = tmp_path.glob("*/steps_seed0.csv")
        assert steps_csv.read_bytes() == text.encode()
        lines = text.strip().splitlines()
        assert lines[0] == ",".join(CSV_HEADER)
        assert len(lines) == 51
        ds = [float(line.split(",")[1]) for line in lines[1:]]
        assert ds[0] == 0.1
        assert all(b >= a for a, b in zip(ds, ds[1:]))
        assert ds[-1] <= 1.0 + 1e-9

    @pytest.mark.parametrize(
        "argv", [["trace-toy", "--steps", "5"], ["verify", "--suite", "lemmas"]],
        ids=["trace-toy", "verify"],
    )
    def test_out_creates_missing_parents(self, argv, tmp_path, capsys):
        assert cli.main(argv) == 0
        shown = capsys.readouterr().out
        target = tmp_path / "new" / "x.csv"
        assert cli.main(argv + ["--out", str(target)]) == 0
        assert target.read_bytes() == shown.encode()
        assert [p.name for p in target.parent.iterdir()] == ["x.csv"]  # no .tmp left

    @pytest.mark.parametrize(
        "argv", [["trace-toy", "--steps", "3"], ["verify", "--suite", "lemmas"]],
        ids=["trace-toy", "verify"],
    )
    def test_out_naming_a_directory_exit_two(self, argv, tmp_path, capsys, monkeypatch):
        # the target is refused before the battery or the run starts
        calls = []
        for name in ("verify_suite", "run_single"):
            monkeypatch.setattr(cli, name, lambda *args, **kwargs: calls.append(args))
        target = tmp_path / "target"
        target.mkdir()
        assert cli.main(argv + ["--out", str(target)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and "is a directory" in err
        assert [p.name for p in tmp_path.iterdir()] == ["target"]  # no .tmp left
        assert not list(target.iterdir())
        assert calls == []

    def test_config_with_byte_order_mark(self, tmp_path, capsys):
        text = "d0 = 0.25\nn_steps = 5\n"
        plain, marked = tmp_path / "plain.cfg", tmp_path / "marked.cfg"
        plain.write_text(text)
        marked.write_bytes(codecs.BOM_UTF8 + text.encode())
        assert load_config(marked) == load_config(plain)
        out_dir = tmp_path / "out"
        assert cli.main(["run", "--config", str(marked), "--set", f"out_dir={out_dir}"]) == 0
        assert "config error" not in capsys.readouterr().err
        (summary,) = out_dir.glob("*/summary.csv")
        assert summary.read_text().splitlines()[1].split(",")[2] == "0.25"

    @pytest.mark.parametrize(
        "kind, text, prefix",
        [
            ("config", b"n_steps = 5\nd0 = \xff\n", "config error: config line 2: "),
            ("libsvm", b"+1 1:1.0\n-1 1:\xff2\n", "data error: line 2: "),
            ("config", b"\xef\xbb\xbfn_steps = 5\nd0 = \xff\n", "config error: config line 2: "),
            ("libsvm", b"\xef\xbb\xbf+1 1:1.0\n-1 1:\xff2\n", "data error: line 2: "),
        ],
        ids=["config", "libsvm", "config_bom", "libsvm_bom"],
    )
    def test_file_not_utf8_exit_two(self, kind, text, prefix, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_bytes(text)
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        argv = ["run", "--set", f"out_dir={out_dir}"]
        if kind == "config":
            argv += ["--config", str(path)]
        else:
            argv += ["--set", "problem=libsvm", "--set", f"libsvm_path={path}",
                     "--set", "epochs=1"]
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and "Traceback" not in err
        assert not list(out_dir.iterdir())

    def test_grid_cli(self, tmp_path, capsys):
        code = cli.main(
            [
                "grid",
                "--set", "n_steps=20",
                "--set", "algorithm=fixed",
                "--set", f"out_dir={tmp_path}",
                "--lrs", "0.5,1.0",
            ]
        )
        assert code == 0
        assert "best lr" in capsys.readouterr().out

    @staticmethod
    def _run_on_libsvm(text, tmp_path):
        data = tmp_path / "bad.svm"
        data.write_text(text)
        return cli.main(
            [
                "run",
                "--set", "problem=libsvm",
                "--set", f"libsvm_path={data}",
                "--set", "epochs=1",
                "--set", f"out_dir={tmp_path}",
            ]
        )

    def test_malformed_dataset_exit_two(self, tmp_path, capsys):
        code = self._run_on_libsvm("+1 2:1.0\n+1 1:0.5 1:2\n", tmp_path)
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("data error: line 2: ")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "text, message",
        [("abc 1:1.0\n", "label 'abc' is not numeric"), ("+1 1:x\n", "malformed feature '1:x'")],
        ids=["label", "feature"],
    )
    def test_malformed_first_line_exit_two(self, text, message, tmp_path, capsys):
        assert self._run_on_libsvm(text, tmp_path) == 2
        assert capsys.readouterr().err == f"data error: line 1: {message}\n"

    def test_grid_all_diverged_exit_one(self, tmp_path, capsys):
        code = cli.main(
            [
                "grid",
                "--set", "algorithm=fixed",
                "--set", "n_steps=10",
                "--set", f"out_dir={tmp_path}",
                "--lrs", "1e30",
            ]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert "every grid point diverged" in err

    def test_repeated_lrs_exit_two(self, tmp_path, capsys):
        argv = ["grid", "--lrs", "0.1,0.1", "--set", "algorithm=fixed", "--set", "n_steps=5"]
        assert cli.main(argv + ["--set", f"out_dir={tmp_path}"]) == 2
        assert "lr values must be distinct" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    def test_bad_lrs_exit_two(self, capsys):
        code = cli.main(
            ["grid", "--set", "algorithm=fixed", "--set", "n_steps=5", "--lrs", "a,b"]
        )
        assert code == 2


class TestMean2SE:
    def test_single_value(self):
        assert mean_2se([3.0]) == (3.0, 0.0)

    def test_known_case(self):
        m, se2 = mean_2se([1.0, 2.0, 3.0])
        assert m == 2.0
        assert se2 == pytest.approx(2.0 * math.sqrt(1.0 / 3.0))
