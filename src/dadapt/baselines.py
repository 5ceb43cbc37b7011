"""Step-size baselines the adaptive methods are measured against, and the
start of every stepper that the harness runs, the adaptive ones included.

The baselines are steppers like the adaptive methods and run through the
same core.drive; their records carry NaN for d and dhat and the step size
as the scale. AdaGrad and AdaGrad-norm also come as lanes (core.Lanes), as
sgd_da and adam_da do in dadapt.ml, for core.drive_lanes to run the points
of a grid or d0 sweep in lockstep with the bits of the scalar steppers;
start_lanes builds them from the states start sets up, so that start alone
maps a config to a stepper's settings.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .convex import adagrad_da_init, adagrad_da_step, da_init, da_step, gd_init, gd_step
from .core import ConfigError, Lanes, Trajectory, Vector, _dot, _rowdot
from .ml import AdamDALanes, SGDDALanes, adam_da_init, adam_da_step, sgd_da_init, sgd_da_step

__all__ = [
    "AdaGradNormState",
    "adagrad_norm_init",
    "adagrad_norm_step",
    "AdaGradNormLanes",
    "AdaGradLanes",
    "polyak_step",
    "LANES",
    "start",
    "start_lanes",
]

_NAN = float("nan")


def _record(state, gamma: float, gnorm2: float) -> None:
    state.traj.append((state.k, _NAN, _NAN, gamma, _NAN, gnorm2))
    state.k += 1


@dataclass
class AdaGradNormState:
    """Scalar-step-size baseline that knows the distance to the solution."""

    x0: Vector
    x: Vector
    radius: float
    sum_gsq: float
    traj: Trajectory
    k: int = 0


def adagrad_norm_init(x0: Vector, radius: float) -> AdaGradNormState:
    """Radius 0 is allowed: its ball is {x0}, so the run stays at x0."""
    if not radius >= 0.0:  # negative or NaN
        raise ConfigError(f"ball radius must be non-negative, got {radius!r}")
    x0 = np.asarray(x0, dtype=np.float64)
    traj = Trajectory("adagrad_norm", x0.shape[0])
    return AdaGradNormState(x0=x0.copy(), x=x0.copy(), radius=radius, sum_gsq=0.0, traj=traj)


def adagrad_norm_step(state: AdaGradNormState, g: Vector, sched: float = 1.0) -> None:
    """x <- project(x - radius/sqrt(sum ||g||^2) * g) onto the x0-ball.

    Skipped while every gradient seen so far is zero (the step size is
    undefined until the accumulator is positive).
    """
    gnorm2 = _dot(g, g)
    state.sum_gsq += gnorm2
    if state.sum_gsq == 0.0:
        _record(state, _NAN, gnorm2)
        return
    gamma = state.radius / math.sqrt(state.sum_gsq)
    x = state.x - gamma * g
    delta = x - state.x0
    dist = math.sqrt(_dot(delta, delta))
    if dist > state.radius:
        x = state.x0 + delta * (state.radius / dist)
    state.x = x
    _record(state, gamma, gnorm2)


class AdaGradNormLanes(Lanes):
    """adagrad_norm_step on lanes that share x0, one ball radius each, from
    their adagrad_norm_init states."""

    _arrays = ("x", "radius", "sum_gsq")
    _shared = ("x0",)

    def step(self, g: np.ndarray, sched: float, out: np.ndarray) -> None:
        gnorm2 = _rowdot(g, g)
        self.sum_gsq = self.sum_gsq + gnorm2
        gamma = self.radius / np.sqrt(self.sum_gsq)
        x = self.x - gamma[:, None] * g
        delta = x - self.x0
        dist = np.sqrt(_rowdot(delta, delta))
        far = dist > self.radius
        if np.count_nonzero(far):
            x = np.where(far[:, None], self.x0 + delta * (self.radius / dist)[:, None], x)
        idle = self.sum_gsq == 0.0  # the lanes that skip
        if np.count_nonzero(idle):
            x = np.where(idle[:, None], self.x, x)
            gamma = np.where(idle, _NAN, gamma)
        self.x = x
        out[:, 2] = gamma
        out[:, 4] = gnorm2


def polyak_step(x: Vector, g: Vector, fx: float, fstar: float) -> Vector:
    """x - (fx - fstar)/||g||^2 * g; a no-op exactly at the optimal value."""
    if fx < fstar:
        raise ValueError("fx below the optimal value")
    excess = fx - fstar
    if excess == 0.0:
        return np.asarray(x, dtype=np.float64).copy()
    gg = float(g @ g)
    if gg == 0.0:
        raise ValueError("zero subgradient at a suboptimal point")
    return x - (excess / gg) * g


@dataclass
class _PolyakState:
    x: Vector
    value: Callable[[Vector], float]  # the step needs f at every point
    fstar: float
    traj: Trajectory
    k: int = 0


def _polyak_state_step(state: _PolyakState, g: Vector, sched: float = 1.0) -> None:
    # a value below fstar is rounding at an optimal point: there is no move
    fx = max(state.value(state.x), state.fstar)
    gg = _dot(g, g)
    gamma = (fx - state.fstar) / gg if gg > 0.0 else 0.0
    state.x = polyak_step(state.x, g, fx, state.fstar)
    _record(state, gamma, gg)


@dataclass
class _FixedState:
    """Subgradient steps of one size; traj averages x_0 .. x_k uniformly."""

    x: Vector
    gamma: float
    traj: Trajectory
    k: int = 0


def _fixed_step(state: _FixedState, g: Vector, sched: float = 1.0) -> None:
    state.x = state.x - state.gamma * g
    state.traj.update_average(state.x, 1.0)
    _record(state, state.gamma, _dot(g, g))


@dataclass
class _AdaGradState:
    x: Vector
    acc: Vector  # per-coordinate root sum of squared gradients
    lr: float
    traj: Trajectory
    k: int = 0


def _adagrad_step(state: _AdaGradState, g: Vector, sched: float = 1.0) -> None:
    # plain coordinate-wise accumulation, lr times schedule on top; acc is
    # the state's own, so it is updated in place (out by position)
    acc = state.acc
    np.multiply(acc, acc, acc)
    acc += g * g
    np.sqrt(acc, acc)
    if np.minimum.reduce(acc, initial=math.inf) > 0.0:
        step = g / acc
    else:  # a coordinate with no gradient yet (acc 0) or a NaN one takes no step
        step = np.divide(g, acc, out=np.zeros_like(g), where=acc > 0.0)
    mult = state.lr * sched
    state.x = state.x - mult * step
    _record(state, mult, _dot(g, g))


class AdaGradLanes(Lanes):
    """_adagrad_step on lanes from their _AdaGradState states, one lr each."""

    _arrays = ("x", "acc", "lr")

    def step(self, g: np.ndarray, sched: float, out: np.ndarray) -> None:
        acc = self.acc
        np.multiply(acc, acc, acc)
        acc += g * g
        np.sqrt(acc, acc)
        if np.minimum.reduce(acc, axis=None, initial=math.inf) > 0.0:
            step = g / acc
        else:  # as in _adagrad_step, per coordinate of every lane
            step = np.divide(g, acc, out=np.zeros_like(g), where=acc > 0.0)
        mult = self.lr * sched
        self.x = self.x - mult[:, None] * step
        out[:, 2] = mult
        out[:, 4] = _rowdot(g, g)


def start(config, bundle):
    """Initial state and stepper of config.algorithm for a harness.ExperimentConfig
    and its harness.ProblemBundle; the problem's known gradient bounds go where
    run_convex takes g_value (for da only under g_mode="fixed") and g_inf."""
    algo = config.algorithm
    x0, prob = bundle.x0, bundle.problem
    if algo in ("da_I", "da_II"):
        g_fixed = prob.lipschitz if config.g_mode == "fixed" else None
        return da_init(x0, config.d0, algo[3:], g_fixed, config.g_mode), da_step
    if algo == "gd":
        return gd_init(x0, config.d0, G=prob.lipschitz), gd_step
    if algo == "adagrad_da":
        return adagrad_da_init(x0, config.d0, g_inf=prob.lipschitz_inf), adagrad_da_step
    if algo == "sgd_da":
        return sgd_da_init(x0, d0=config.d0, beta=config.beta, G=prob.lipschitz), sgd_da_step
    if algo == "adam_da":
        state = adam_da_init(
            x0, d0=config.d0, beta1=config.beta1, beta2=config.beta2, eps=config.eps,
            decay=config.decay,
        )
        return state, adam_da_step
    if algo == "adagrad_norm":
        radius = config.lr * (bundle.D if bundle.D is not None else 1.0)
        return adagrad_norm_init(x0, radius), adagrad_norm_step
    traj = Trajectory(algo, x0.shape[0])
    if algo == "fixed":  # ExperimentConfig keeps it to problems with known D and G
        gamma = config.lr * bundle.D / (prob.lipschitz * math.sqrt(bundle.n_steps))
        traj.update_average(x0, 1.0)
        return _FixedState(x=x0.copy(), gamma=gamma, traj=traj), _fixed_step
    if algo == "polyak":  # and this one to problems with a known optimal value
        state = _PolyakState(x=x0.copy(), value=prob.value, fstar=prob.known_fstar, traj=traj)
        return state, _polyak_state_step
    state = _AdaGradState(x=x0.copy(), acc=np.zeros_like(x0), lr=config.lr, traj=traj)
    return state, _adagrad_step  # adagrad, the one algorithm left


# the lane form of each algorithm that has one
LANES = {
    "adagrad": AdaGradLanes,
    "adagrad_norm": AdaGradNormLanes,
    "sgd_da": SGDDALanes,
    "adam_da": AdamDALanes,
}


def start_lanes(points, bundle):
    """The lanes of the configs of points, which differ in lr or d0 alone,
    on bundle, with the states that start sets up for them, one a lane."""
    states = [start(point, bundle)[0] for point in points]
    return LANES[points[0].algorithm](states), states
