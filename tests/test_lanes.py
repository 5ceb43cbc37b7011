"""Lockstep lanes: the points of a grid or d0 sweep on minibatch data run side
by side, and each lane gives the bits of the same run made alone."""

import math
import os
import weakref
from collections import Counter
from dataclasses import replace
from functools import partial
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dadapt import problems
from dadapt.baselines import LANES, start
from dadapt.core import (
    ConfigError, Diverged, Lanes, Problem, Rng, Schedule, Trajectory, _dot, _rowdot, drive,
    drive_lanes,
)
from dadapt.harness import (
    ExperimentConfig,
    _run_points,
    _schedule_from_config,
    build_problem,
    d0_sweep,
    grid_search,
    run_single,
)
from dadapt.problems import Dataset, _grads, synth_dataset

DATA = synth_dataset(3, 40, 3, flip=0.1)

# per-lane settings: ordinary ones, ones that leave the 1e12 ball at the
# first step or a few steps in, and a d0 so small that the first steps
# underflow to 0 and leave s at 0
LRS = [1e-3, 0.1, 1.0, 10.0, 5e11, 6e11, 8e11, 1.3e12, 1.4e12, 1e15]
D0S = [5e-324, 1e-8, 1e-3, 1.0, 1e4, 1e10, 5e11, 1e12, 2e12, 1e15]


def _data(huge_row):
    """DATA, or DATA with a feature that is 0 but in one row, where it is
    1e160: its weight stays 0 until that row's first batch, whose gradient
    then has an infinite squared norm."""
    if huge_row is None:
        return DATA
    X = np.hstack([DATA.X, np.zeros((len(DATA), 1))])
    X[huge_row, -1] = 1e160
    return Dataset(X=X, y=DATA.y)


@st.composite
def sweeps(draw, algorithm, key, values):
    lanes = draw(st.integers(1, 8))
    config = ExperimentConfig(
        problem="synth_logistic",
        algorithm=algorithm,
        n_steps=draw(st.integers(1, 30)),
        batch_size=draw(st.integers(1, 39)),
        schedule=draw(st.sampled_from(["flat", "stagewise", "cosine"])),
        record_f_every=draw(st.sampled_from([1, 7])),
        decay=draw(st.sampled_from([0.0, 0.01])),
    )
    points = [replace(config, **{key: draw(st.sampled_from(values))}) for _ in range(lanes)]
    huge_row = draw(st.none() | st.integers(0, len(DATA) - 1))
    return points, draw(st.integers(0, 3)), _data(huge_row)


def _bytes(a):
    return np.ascontiguousarray(a).tobytes()


def _alone(point, seed, dataset):
    """The rows, final iterate and divergence of point's run made alone."""
    bundle = build_problem(point, seed, dataset)
    state, step = start(point, bundle)
    sched = _schedule_from_config(point)
    try:
        drive(bundle.problem, state, step, bundle.n_steps, sched, point.record_f_every)
    except Diverged:
        return state.traj.pack(), None, True
    return state.traj.pack(), state.x, False


def check_lanes_match_lone_runs(points, seed, dataset):
    # each lane's state, its rows and a survivor's iterate, and each point's
    # output against the point's run made alone
    bundle = build_problem(points[0], seed, dataset)
    lanes = LANES[points[0].algorithm]([start(point, bundle)[0] for point in points])
    with np.errstate(all="ignore"):
        diverged = drive_lanes(
            bundle.problem, lanes, bundle.n_steps, _schedule_from_config(points[0]),
            points[0].record_f_every,
        )
        outputs = _run_points(points, seed, dataset)
        for b, (point, state) in enumerate(zip(points, lanes.states)):
            rows, x, stopped = _alone(point, seed, dataset)
            assert _bytes(state.traj.pack()) == _bytes(rows)
            assert diverged[b] == stopped
            if not stopped:
                assert _bytes(state.x) == _bytes(x)
            single = run_single(point, seed, dataset)
            assert _bytes(outputs[b].rows) == _bytes(single.rows)
            assert {k: repr(v) for k, v in outputs[b].summary.items()} == {
                k: repr(v) for k, v in single.summary.items()
            }


PROPERTY = settings(max_examples=30, deadline=None)


@PROPERTY
@given(sweeps("adagrad", "lr", LRS))
def test_adagrad_lanes_match_lone_runs(case):
    check_lanes_match_lone_runs(*case)


@PROPERTY
@given(sweeps("adagrad_norm", "lr", LRS))
def test_adagrad_norm_lanes_match_lone_runs(case):
    check_lanes_match_lone_runs(*case)


@PROPERTY
@given(sweeps("sgd_da", "d0", D0S))
def test_sgd_da_lanes_match_lone_runs(case):
    check_lanes_match_lone_runs(*case)


@PROPERTY
@given(sweeps("adam_da", "d0", D0S))
def test_adam_da_lanes_match_lone_runs(case):
    check_lanes_match_lone_runs(*case)


def test_lanes_cover_each_stop():
    # a lane that refuses its gradient, one that leaves the ball a few steps
    # in, one that leaves it at once and one that runs on, in one batch
    points = [ExperimentConfig(problem="synth_logistic", algorithm="sgd_da", n_steps=30,
                               batch_size=4, d0=d0) for d0 in (1e-3, 1e12, 1e15)]
    check_lanes_match_lone_runs(points, 0, DATA)
    outs = _run_points(points, 0, DATA)
    assert [o.summary["diverged"] for o in outs] == [False, True, True]
    assert [o.summary["steps"] for o in outs] == [30, 18, 1]
    check_lanes_match_lone_runs(points, 0, _data(0))
    refused = _run_points(points, 0, _data(0))
    # row 0 is in the sixth batch: the first lane refuses that gradient and
    # stops before its row; the second, whose margins are huge by then,
    # weighs the row by 0 and leaves the ball as before
    assert [o.summary["diverged"] for o in refused] == [True, True, True]
    assert [o.summary["steps"] for o in refused] == [5, 18, 1]


@pytest.mark.parametrize("algo, key", [("sgd_da", "d0"), ("adagrad_norm", "lr")])
def test_zero_gradients_skip(algo, key):
    # one example of each label at the same point: every batch of both is a
    # zero gradient at the zero start, so sgd_da never sets G and
    # adagrad_norm never has a step size; a batch of one is never zero
    data = Dataset(X=np.array([[1.0], [1.0]]), y=np.array([1.0, -1.0]))
    points = [ExperimentConfig(problem="libsvm", algorithm=algo, n_steps=5, batch_size=2,
                               **{key: value}) for value in (1e-6, 1.0)]
    check_lanes_match_lone_runs(points, 0, data)
    mixed = [replace(p, batch_size=1) for p in points]
    check_lanes_match_lone_runs(mixed, 0, data)


def test_points_of_mixed_methods_match_lone_runs():
    # each method's points form a group: the sgd_da pair runs in lanes and
    # adagrad_da alone, all on the seed's one set of shared orders
    sgd = ExperimentConfig(problem="synth_logistic", algorithm="sgd_da", n_steps=30, batch_size=4)
    points = [replace(sgd, d0=1e-3), replace(sgd, d0=1.0), replace(sgd, algorithm="adagrad_da")]
    outputs = _run_points(points, 2, replace(DATA, shared_orders={}))
    for point, out in zip(points, outputs, strict=True):
        single = run_single(point, 2, DATA)
        assert _bytes(out.rows) == _bytes(single.rows)
        assert {k: repr(v) for k, v in out.summary.items()} == {
            k: repr(v) for k, v in single.summary.items()
        }


def test_a_seeds_shared_orders_go_when_its_runs_end(tmp_path, monkeypatch):
    # one worker runs the seeds in turn: seed 0's orders, laned and lone
    # runs' alike, are gone before seed 1 builds its first problem
    built = {}  # seed -> a weak reference to each EpochOrders built for it
    alive = []  # at each of seed 1's builds, whether any of seed 0's is alive

    class Watched(problems.EpochOrders):
        def __init__(self, n, seed, **kw):
            if seed == 1:
                alive.append(any(ref() is not None for ref in built[0]))
            super().__init__(n, seed, **kw)
            built.setdefault(seed, []).append(weakref.ref(self))

    monkeypatch.setattr(problems, "EpochOrders", Watched)
    monkeypatch.setenv("DADAPT_WORKERS", "1")
    cfg = ExperimentConfig(problem="synth_logistic", algorithm="adagrad", epochs=2, synth_n=64,
                           synth_dim=4, seeds=(0, 1), out_dir=str(tmp_path))
    grid_search(cfg, [0.1, 1.0], compare_algorithm="adagrad_da")
    assert alive and not any(alive)


class _ScaledLanes(Lanes):
    """Toy lanes whose estimate d is multiplied by factor every step."""

    _arrays = ("x", "d")
    _shared = ("factor",)

    def step(self, g, sched, out):
        out[:, 0] = self.d
        self.d = self.d * self.factor
        return None


def _scaled_lanes(factor):
    return _ScaledLanes(
        [SimpleNamespace(x=np.zeros(2), d=1.0, factor=factor, traj=Trajectory("toy", 2))
         for _ in range(3)]
    )


def _toy_problem(values=lambda X: np.zeros(len(X))):
    """A problem whose gradients are 0 and whose f is 0, or values."""
    return Problem(subgradient=np.zeros_like, values=values)


def test_drive_lanes_needs_a_positive_cadence():
    with pytest.raises(ConfigError, match="record_f_every"):
        drive_lanes(_toy_problem(), _scaled_lanes(1.0), 4, Schedule(), 0)


def test_drive_lanes_refuses_a_falling_d():
    lanes = _scaled_lanes(2.0)
    assert not drive_lanes(_toy_problem(), lanes, 4, Schedule(), 1).any()
    for state in lanes.states:
        assert state.traj.pack()[:, 1].tolist() == [1.0, 2.0, 4.0, 8.0]
        assert np.shares_memory(state.x, lanes.x)  # a lane that ran to the end writes x back
    with pytest.raises(ValueError, match="d decreased"):
        drive_lanes(_toy_problem(), _scaled_lanes(0.5), 4, Schedule(), 1)


def test_drive_lanes_takes_every_live_lanes_f_in_one_call():
    sizes = []

    def values(X):
        sizes.append(X.shape[0])
        return X[:, 0] + 1.0

    lanes = _scaled_lanes(2.0)
    drive_lanes(_toy_problem(values), lanes, 10, Schedule(), 3)
    assert sizes == [3] * 4  # steps 0, 3, 6 and 9
    for state in lanes.states:
        f = state.traj.pack()[:, 4]
        assert (f[::3] == 1.0).all() and np.isnan(np.delete(f, np.s_[::3])).all()


def test_primitives_match_scalar_forms():
    rng = np.random.default_rng(5)
    X = np.hstack([DATA.X, np.ones((len(DATA), 1))])
    for _ in range(200):
        lanes, m = rng.integers(1, 14), rng.integers(1, 40)
        batch = rng.permutation(len(DATA))[:m]
        W = rng.normal(size=(lanes, X.shape[1])) * 10.0 ** rng.uniform(-3, 2)
        G = _grads(X[batch], DATA.y[batch], W)
        dots = _rowdot(G, W)
        for b in range(lanes):
            g = _grads(X[batch], DATA.y[batch], W[b])
            assert g.tobytes() == G[b].tobytes()
            assert repr(_dot(g, W[b])) == repr(float(dots[b]))


class TestWorkerPool:
    """With worker processes, each seed's points stay in one process, in
    lanes or one by one, and draw the seed's epoch orders once."""

    @staticmethod
    def permutation_pids(tmp_path, monkeypatch, algo, workers, sweep, epochs=3):
        # one line for each order drawn
        log = tmp_path / f"pids{workers}.txt"
        real = Rng.permutations

        def logged(self, n, count):
            with open(log, "a") as fh:
                fh.write(f"{os.getpid()}\n" * count)
            return real(self, n, count)

        monkeypatch.setattr(Rng, "permutations", logged)
        monkeypatch.setenv("DADAPT_WORKERS", workers)
        cfg = ExperimentConfig(
            problem="synth_logistic", algorithm=algo, epochs=epochs, synth_n=64, synth_dim=4,
            seeds=(0, 1), out_dir=str(tmp_path / workers),
        )
        result = sweep(cfg)
        assert all(math.isfinite(m) for _, m, _, _ in result.rows)
        return log.read_text().split()

    def check_drawn_once_per_seed(self, tmp_path, monkeypatch, algo, sweep):
        alone = self.permutation_pids(tmp_path, monkeypatch, algo, "1", sweep)
        pooled = self.permutation_pids(tmp_path, monkeypatch, algo, "2", sweep)
        assert len(alone) == 2 * 3  # two seeds, three epochs, whatever the points
        assert len(pooled) == len(alone)
        assert len(set(pooled)) == 2 and os.getpid() not in map(int, pooled)
        written = [sorted(p.relative_to(tmp_path / w) for p in (tmp_path / w).rglob("*.csv"))
                   for w in ("1", "2")]
        assert written[0] == written[1]
        for path in written[0]:
            assert (tmp_path / "1" / path).read_bytes() == (tmp_path / "2" / path).read_bytes()

    @pytest.mark.parametrize("algo", ["sgd_da", "adagrad_da"])  # in lanes, point by point
    def test_orders_drawn_once_per_seed_with_any_worker_count(self, tmp_path, monkeypatch, algo):
        sweep = partial(d0_sweep, d0s=[1e-6, 1e-4, 1e-2])
        self.check_drawn_once_per_seed(tmp_path, monkeypatch, algo, sweep)

    def test_a_grid_and_its_comparison_draw_orders_once_per_seed(self, tmp_path, monkeypatch):
        # the comparison is one more point of the grid's pass, not a second pool
        def grid(cfg):
            result = grid_search(cfg, [0.01, 0.1, 1.0], compare_algorithm="adagrad_da")
            assert math.isfinite(result.compare_f)
            return result

        self.check_drawn_once_per_seed(tmp_path, monkeypatch, "adagrad", grid)

    def test_orders_drawn_no_further_than_the_epochs_read(self, tmp_path, monkeypatch):
        # 63 draws an order: bulk draws of 1, 2, 4, ... orders would reach
        # 127 by epoch 100; the draws stop at the 100 the runs read
        sweep = partial(d0_sweep, d0s=[1e-6, 1e-2])
        pids = self.permutation_pids(tmp_path, monkeypatch, "sgd_da", "2", sweep, 100)
        assert sorted(Counter(pids).values()) == [100, 100]
