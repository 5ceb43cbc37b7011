"""Learning-rate-free convex optimizers built on a distance lower bound.

Each method maintains d, a running lower bound on the distance from the
starting point to a minimizer, grown from observable quantities only:
per step a candidate dhat is computed, and d <- max(d, dhat). The step
size is then proportional to d over an accumulated gradient-norm scale,
so no learning rate is supplied by the caller.

Three variants live here:

  * DAState       weighted dual averaging, Euclidean norm. Two candidate
                  formulas are supported: option "I" derives dhat from the
                  dual-average norm minus a weighted gradient sum, option
                  "II" from accumulated hypergradient inner products. With
                  g_mode "fixed" (implied by a given g_fixed), the step-size
                  denominator starts from G^2 instead of zero, which the
                  asymptotic theory needs. The stepper also picks the
                  return prefix as it goes (t_index, x_avg_t).
  * GDState       plain subgradient descent scaled by d / sqrt(G^2 + sum
                  of squared gradient norms), candidate from the same
                  algebra with flat weights.
  * AdaGradDAState coordinate-wise dual averaging against the max-norm
                  geometry; the per-coordinate denominators start at the
                  max-norm gradient bound.

A per-step schedule multiplier folds into the accumulation weight
(lam_k = sched_k * d_k); with a flat schedule the updates reduce to the
plain listings. Steppers mutate their state and append one row to a
Trajectory, its f NaN; run_convex and baselines.start hand them to
core.drive, which writes the f column. At step 0 a stepper raises
core.AtStart on a zero gradient, since the start is then a minimizer;
otherwise a gradient bound left unset (None) at init is taken from that
gradient's norm, and meta["heuristic_g"] says so.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import (
    AtStart,
    ConfigError,
    Diverged,
    Problem,
    Schedule,
    Trajectory,
    Vector,
    _dot,
    _weighted_average,
    drive,
)

__all__ = [
    "DAState",
    "GDState",
    "AdaGradDAState",
    "da_init",
    "da_step",
    "gd_init",
    "gd_step",
    "adagrad_da_init",
    "adagrad_da_step",
    "select_return_index",
    "ConvexRunResult",
    "run_convex",
]

_NAN = float("nan")


def _start(traj: Trajectory, gnorm2: float, unset: bool) -> None:
    """Step 0's check: raise AtStart on a zero gradient, else record whether
    the run's gradient bound is unset and so taken from this gradient."""
    if gnorm2 == 0.0:
        raise AtStart("zero first gradient: the start is a minimizer")
    traj.meta["heuristic_g"] = unset


# --------------------------------------------------------------------------
# Dual averaging


@dataclass
class DAState:
    x0: Vector
    x: Vector
    s: Vector
    k: int
    d: float
    option: str  # "I" or "II"
    g_fixed: Optional[float]  # G of the G^2-seeded denominator; None without one, or till step 0
    gamma: Optional[float]  # step size entering the next accumulation
    sum_gsq: float  # sum of ||g_i||^2
    sum_weighted: float  # sum of gamma_i * lam_i^2 * ||g_i||^2
    hypergrad_sum: float  # sum of lam_i * gamma_i * <g_i, s_i>
    traj: Trajectory
    best: float = math.inf  # select_return_index's least d_{k+1} / d_sum so far
    d_sum: float = 0.0  # d_0 + .. + d_k after step k
    t_index: Optional[int] = None  # the picked return prefix ends at this step
    picked_avg: Optional[tuple[Vector, float]] = None  # its (avg_num copy, avg_den)

    @property
    def x_avg_t(self) -> Optional[Vector]:
        """The weighted average over the picked prefix; None before a step."""
        return None if self.picked_avg is None else _weighted_average(*self.picked_avg)


def da_init(
    x0: Vector,
    d0: float,
    option: str = "I",
    g_fixed: Optional[float] = None,
    g_mode: str = "none",
) -> DAState:
    if not d0 > 0.0:  # also rejects NaN
        raise ConfigError("d0 must be positive")
    if option not in ("I", "II"):
        raise ConfigError(f"unknown option {option!r}")
    if g_mode not in ("none", "fixed"):
        raise ConfigError(f"unknown g_mode {g_mode!r}")
    if g_fixed is not None and not g_fixed > 0.0:
        raise ConfigError("gradient bound must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    traj = Trajectory(
        "da", x0.shape[0], ("gamma", "wg_term", "hyper_term", "snorm2_after", "lam")
    )
    traj.meta["g_mode"] = "fixed" if g_fixed is not None else g_mode
    return DAState(
        x0=x0.copy(),
        x=x0.copy(),
        s=np.zeros_like(x0),
        k=0,
        d=d0,
        option=option,
        g_fixed=g_fixed,
        gamma=None if g_fixed is None else 1.0 / g_fixed,
        sum_gsq=0.0,
        sum_weighted=0.0,
        hypergrad_sum=0.0,
        traj=traj,
    )


def da_step(state: DAState, g: Vector, sched: float = 1.0) -> None:
    gnorm2 = _dot(g, g)
    if not math.isfinite(gnorm2):
        raise Diverged(state.k, state.traj, "non-finite gradient")
    if state.k == 0:
        unset = state.g_fixed is None and state.traj.meta["g_mode"] == "fixed"
        _start(state.traj, gnorm2, unset)
        if unset:
            state.g_fixed = math.sqrt(gnorm2)
        if state.gamma is None:
            state.gamma = 1.0 / math.sqrt(gnorm2)
    gamma_old = state.gamma
    lam = sched * state.d

    # accumulators consume the pre-update gamma, d, and s
    ip_gs = _dot(g, state.s)
    hyper_term = lam * gamma_old * ip_gs
    wg_term = gamma_old * lam * lam * gnorm2
    state.hypergrad_sum += hyper_term
    state.sum_weighted += wg_term

    state.s += lam * g
    state.sum_gsq += gnorm2
    if state.g_fixed is None:
        gamma_new = 1.0 / math.sqrt(state.sum_gsq)
    else:
        gamma_new = 1.0 / math.sqrt(state.g_fixed**2 + state.sum_gsq)

    snorm2 = _dot(state.s, state.s)
    snorm = math.sqrt(snorm2)
    if snorm == 0.0:
        d_hat = 0.0
    elif state.option == "I":
        d_hat = (gamma_new * snorm2 - state.sum_weighted) / (2.0 * snorm)
    else:
        d_hat = state.hypergrad_sum / snorm

    state.traj.update_average(state.x, lam)
    state.traj.append((
        state.k, state.d, d_hat, gamma_new, _NAN, gnorm2,
        gamma_old, wg_term, hyper_term, snorm2, lam,
    ))

    d_k, state.d = state.d, max(state.d, d_hat)
    state.best, state.d_sum, picked = _prefix_step(state.best, state.d_sum, d_k, state.d)
    if picked:  # keep the average's numerator and weight, divided when read
        state.t_index = state.k
        state.picked_avg = (state.traj.avg_num.copy(), state.traj.avg_den)
    state.x = state.x0 - gamma_new * state.s
    state.gamma = gamma_new
    state.k += 1


# --------------------------------------------------------------------------
# Subgradient descent


@dataclass
class GDState:
    x: Vector
    s: Vector
    k: int
    d: float
    G: Optional[float]  # set from the first gradient when absent
    sum_gsq: float
    sum_lambda_sq: float  # sum of lam_i^2 * ||g_i||^2
    traj: Trajectory


def gd_init(x0: Vector, d0: float, G: Optional[float] = None) -> GDState:
    if not d0 > 0.0:
        raise ConfigError("d0 must be positive")
    if G is not None and not G > 0.0:
        raise ConfigError("gradient bound must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    traj = Trajectory("gd", x0.shape[0], ("wg_term", "hyper_term", "snorm2_after"))
    return GDState(
        x=x0.copy(),
        s=np.zeros_like(x0),
        k=0,
        d=d0,
        G=G,
        sum_gsq=0.0,
        sum_lambda_sq=0.0,
        traj=traj,
    )


def gd_step(state: GDState, g: Vector, sched: float = 1.0) -> None:
    gnorm2 = _dot(g, g)
    if not math.isfinite(gnorm2):
        raise Diverged(state.k, state.traj, "non-finite gradient")
    if state.k == 0:
        _start(state.traj, gnorm2, state.G is None)
        if state.G is None:
            state.G = math.sqrt(gnorm2)
    # the step size denominator includes the current gradient
    state.sum_gsq += gnorm2
    lam = sched * state.d / math.sqrt(state.G**2 + state.sum_gsq)

    ip_gs = _dot(g, state.s)
    hyper_term = lam * ip_gs
    wg_term = lam * lam * gnorm2
    state.sum_lambda_sq += wg_term
    state.s += lam * g

    snorm2 = _dot(state.s, state.s)
    snorm = math.sqrt(snorm2)
    if snorm == 0.0:
        d_hat = 0.0
    else:
        d_hat = (snorm2 - state.sum_lambda_sq) / (2.0 * snorm)

    state.traj.update_average(state.x, lam)
    state.traj.append(
        (state.k, state.d, d_hat, lam, _NAN, gnorm2, wg_term, hyper_term, snorm2)
    )

    state.d = max(state.d, d_hat)
    state.x = state.x - lam * g
    state.k += 1


# --------------------------------------------------------------------------
# Coordinate-wise dual averaging (max-norm geometry)


@dataclass
class AdaGradDAState:
    x0: Vector
    x: Vector
    s: Vector
    a: Optional[Vector]  # per-coordinate denominators from g_inf, None while it is unset
    k: int
    d: float
    sum_weighted: float  # sum of lam_i^2 * ||g_i||^2 in the old A_i^-1 norm
    traj: Trajectory


def adagrad_da_init(x0: Vector, d0: float, g_inf: Optional[float] = None) -> AdaGradDAState:
    if not d0 > 0.0:
        raise ConfigError("d0 must be positive")
    if g_inf is not None and not g_inf > 0.0:
        raise ConfigError("max-norm gradient bound must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    traj = Trajectory("adagrad_da", x0.shape[0], ("s_l1_after", "a_l1_after"))
    return AdaGradDAState(
        x0=x0.copy(),
        x=x0.copy(),
        s=np.zeros_like(x0),
        a=None if g_inf is None else np.full_like(x0, g_inf),
        k=0,
        d=d0,
        sum_weighted=0.0,
        traj=traj,
    )


def adagrad_da_step(state: AdaGradDAState, g: Vector, sched: float = 1.0) -> None:
    gnorm2 = _dot(g, g)
    if not math.isfinite(gnorm2):
        raise Diverged(state.k, state.traj, "non-finite gradient")
    if state.k == 0:
        _start(state.traj, gnorm2, state.a is None)
        if state.a is None:
            state.a = np.full_like(state.x0, np.abs(g).max())
    lam = sched * state.d

    # weighted gradient-norm term uses the denominators before this gradient
    g2 = g * g
    wg_term = lam * lam * float(np.add.reduce(g2 / state.a))
    state.sum_weighted += wg_term

    state.s += lam * g
    np.sqrt(state.a * state.a + g2, out=state.a)

    s_l1 = float(np.add.reduce(np.abs(state.s)))
    s_wnorm2 = float(np.add.reduce(state.s * state.s / state.a))
    if s_l1 == 0.0:
        d_hat = 0.0
    else:
        d_hat = (s_wnorm2 - state.sum_weighted) / (2.0 * s_l1)

    state.traj.update_average(state.x, lam)
    state.traj.append((
        state.k, state.d, d_hat, 1.0 / float(np.maximum.reduce(state.a)), _NAN, gnorm2,
        s_l1, float(np.add.reduce(state.a)),
    ))

    state.d = max(state.d, d_hat)
    state.x = state.x0 - state.s / state.a
    state.k += 1


# --------------------------------------------------------------------------
# Return-point selection and the run driver


def _prefix_step(
    best: float, d_sum: float, d_k: float, d_next: float
) -> tuple[float, float, bool]:
    """One step of select_return_index's rule, for k = 0, 1, ... in turn.

    Folds d_k into d_sum = d_0 + .. + d_k and returns the best ratio
    d_{k+1} / d_sum so far, the new d_sum, and whether the prefix ending at
    k is now the pick. A tie goes to the later k.
    """
    d_sum += d_k
    ratio = d_next / d_sum
    if ratio <= best:
        return ratio, d_sum, True
    return best, d_sum, False


def select_return_index(d_seq: list[float]) -> int:
    """Index t minimizing d_{k+1} / sum_{i<=k} d_i, ties going to the largest k.

    d_seq is the full estimate sequence d_0 .. d_{n+1}; the average of the
    first t+1 visited points carries the strongest guarantee.
    """
    if len(d_seq) < 2:
        raise ValueError("need at least d_0 and d_1")
    prev = 0.0
    for d in d_seq:
        if d <= 0.0:
            raise ValueError("d values must be positive")
        if d < prev:
            raise ValueError("d sequence must be non-decreasing")
        prev = d
    best_t, best, d_sum = 0, math.inf, 0.0
    for k in range(len(d_seq) - 1):
        best, d_sum, picked = _prefix_step(best, d_sum, d_seq[k], d_seq[k + 1])
        if picked:
            best_t = k
    return best_t


@dataclass
class ConvexRunResult:
    traj: Trajectory
    x_avg: Vector  # weight-averaged point over the whole run
    x_final: Vector
    d_final: float
    t_index: Optional[int] = None  # selected prefix, dual-averaging runs only
    x_avg_t: Optional[Vector] = None  # average over the selected prefix
    exited_at_start: bool = False  # zero first gradient


def run_convex(
    problem: Problem,
    x0: Vector,
    algorithm: str,
    d0: float,
    n: int,
    option: str = "I",
    g_mode: str = "none",
    g_value: Optional[float] = None,
    g_inf: Optional[float] = None,
    schedule: Schedule = Schedule(),
    record_f_every: int = 1,
) -> ConvexRunResult:
    """Run one of the convex methods for n steps, one oracle call a step.

    algorithm is "da", "gd", or "adagrad_da". A zero first gradient means x0
    is already optimal: the run returns there, exited_at_start, after the
    init has checked the settings as for any other run. A gradient bound
    left None (g_value for gd and for da with g_mode="fixed", g_inf for
    adagrad_da) is taken by the stepper from the first gradient, and the
    run is marked heuristic_g in the trajectory meta. For dual-averaging
    runs the result carries the state's picked prefix too: t_index, as
    select_return_index picks it from the run's d sequence, and x_avg_t; the
    guarantee is proved for the G-seeded denominator (g_mode="fixed"), and
    the index is reported for the plain mode too.
    """
    if n <= 0:
        raise ConfigError("n must be positive")
    if g_mode not in ("none", "fixed"):
        raise ConfigError(f"unknown g_mode {g_mode!r}")
    if algorithm == "da":
        state = da_init(x0, d0, option, g_value if g_mode == "fixed" else None, g_mode)
        step = da_step
    elif algorithm == "gd":
        state, step = gd_init(x0, d0, G=g_value), gd_step
    elif algorithm == "adagrad_da":
        state, step = adagrad_da_init(x0, d0, g_inf=g_inf), adagrad_da_step
    else:
        raise ConfigError(f"unknown algorithm {algorithm!r}")
    try:
        drive(problem, state, step, n, schedule, record_f_every)
    except AtStart:
        x = state.x
        return ConvexRunResult(state.traj, x.copy(), x.copy(), state.d, exited_at_start=True)
    return ConvexRunResult(
        traj=state.traj, x_avg=state.traj.average(), x_final=state.x.copy(), d_final=state.d,
        t_index=getattr(state, "t_index", None), x_avg_t=getattr(state, "x_avg_t", None),
    )
