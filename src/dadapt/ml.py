"""Stochastic optimizers with the same distance lower-bound adaptation.

SGD and Adam shaped steppers for minibatch training. Both take the base
step size from the current estimate d times a schedule multiplier in
(0, 1], and grow d from hypergradient inner products. The Adam variant
keeps exponential moving averages throughout; EmaPair is the two-track
recursion that ties an exponential moving average to an equivalent
weighted dual-average sum, which is what justifies the Adam bookkeeping.
SGDDALanes steps the points of an sgd_da d0 sweep in lockstep; adam_da has
no lane form, so its points run one at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ConfigError, Diverged, Lanes, Trajectory, Vector, _dot, _rowdot

__all__ = [
    "SGDDAState",
    "AdamDAState",
    "EmaPair",
    "sgd_da_init",
    "sgd_da_step",
    "SGDDALanes",
    "adam_da_init",
    "adam_da_step",
    "ema_pair",
    "ema_pair_step",
]

_NAN = float("nan")


def _check_sched(sched: float) -> None:
    if not (0.0 < sched <= 1.0):
        raise ConfigError("schedule multiplier must lie in (0, 1]")


def _refused(gnorm2: np.ndarray) -> Optional[np.ndarray]:
    """The lanes whose gradient has a non-finite squared norm, or None."""
    bad = ~np.isfinite(gnorm2)
    return bad if np.count_nonzero(bad) else None


def _check_step_inputs(state, gnorm2: float, sched: float) -> None:
    _check_sched(sched)
    if not math.isfinite(gnorm2):
        raise Diverged(state.k, state.traj, "non-finite gradient")


# --------------------------------------------------------------------------
# SGD with momentum via primal averaging


@dataclass
class SGDDAState:
    x: Vector  # averaged point (what the caller reads out)
    z: Vector  # underlying gradient-step point
    s: Vector
    k: int
    d: float
    beta: float
    G: Optional[float]  # set from the first nonzero gradient when absent
    hypergrad_sum: float
    traj: Trajectory


def sgd_da_init(
    x0: Vector, d0: float = 1e-6, beta: float = 0.9, G: Optional[float] = None
) -> SGDDAState:
    if not d0 > 0.0:  # also rejects NaN
        raise ConfigError("d0 must be positive")
    if not (0.0 <= beta < 1.0):
        raise ConfigError("beta must lie in [0, 1)")
    if G is not None and not G > 0.0:
        raise ConfigError("gradient bound must be positive")
    x0 = np.asarray(x0, dtype=np.float64)
    traj = Trajectory("sgd_da", x0.shape[0])
    traj.meta["heuristic_g"] = G is None
    return SGDDAState(
        x=x0.copy(),
        z=x0.copy(),
        s=np.zeros_like(x0),
        k=0,
        d=d0,
        beta=beta,
        G=G,
        hypergrad_sum=0.0,
        traj=traj,
    )


def sgd_da_step(state: SGDDAState, g: Vector, sched: float = 1.0) -> None:
    gnorm2 = _dot(g, g)
    _check_step_inputs(state, gnorm2, sched)
    if state.G is None:
        if gnorm2 == 0.0:
            # nothing observable yet; skip, only the counter advances. G is
            # unset only before the first non-skip step, so no candidate
            # exists yet and the row's dhat is 0.0
            state.traj.append((state.k, state.d, 0.0, 0.0, _NAN, 0.0))
            state.k += 1
            return
        state.G = math.sqrt(gnorm2)

    lam = state.d * sched / state.G
    state.hypergrad_sum += lam * _dot(g, state.s)  # pre-update s
    lam_g = lam * g
    state.s += lam_g
    state.z -= lam_g
    state.x = state.beta * state.x + (1.0 - state.beta) * state.z

    snorm = math.sqrt(_dot(state.s, state.s))
    d_hat = 0.0 if snorm == 0.0 else 2.0 * state.hypergrad_sum / snorm

    state.traj.append((state.k, state.d, d_hat, lam, _NAN, gnorm2))
    state.d = max(state.d, d_hat)
    state.k += 1


class SGDDALanes(Lanes):
    """sgd_da_step on lanes from their sgd_da_init states, one beta each: a
    lane with no known gradient bound takes its G from its first nonzero
    gradient (NaN until then). A lane with a non-finite gradient is refused;
    np.where(d_hat > d, d_hat, d) is max(d, d_hat), which keeps d when d_hat
    is NaN."""

    _arrays = ("beta", "x", "z", "s", "d", "G", "hypergrad_sum")

    def __init__(self, states):
        super().__init__(states)
        self.pending = bool(np.count_nonzero(np.isnan(self.G)))  # a lane has no G yet

    def step(self, g: np.ndarray, sched: float, out: np.ndarray) -> Optional[np.ndarray]:
        gnorm2 = _rowdot(g, g)
        _check_sched(sched)
        skip = None
        if self.pending:
            unset = np.isnan(self.G)
            skip = unset & (gnorm2 == 0.0)  # nothing observable yet: only the counter advances
            self.G = np.where(unset & ~skip, np.sqrt(gnorm2), self.G)
            self.pending = bool(np.count_nonzero(np.isnan(self.G)))
        lam = self.d * sched / self.G
        hyp = self.hypergrad_sum + lam * _rowdot(g, self.s)  # pre-update s
        lam_g = lam[:, None] * g
        s = self.s + lam_g
        z = self.z - lam_g
        x = self.beta[:, None] * self.x + (1.0 - self.beta[:, None]) * z
        snorm = np.sqrt(_rowdot(s, s))
        d_hat = 2.0 * hyp / snorm
        if np.count_nonzero(snorm) < snorm.shape[0]:
            d_hat[snorm == 0.0] = 0.0
        if skip is not None and np.count_nonzero(skip):
            old = skip[:, None]
            s, z, x = np.where(old, self.s, s), np.where(old, self.z, z), np.where(old, self.x, x)
            hyp = np.where(skip, self.hypergrad_sum, hyp)
            d_hat = np.where(skip, 0.0, d_hat)  # G unset: no candidate exists yet
            lam = np.where(skip, 0.0, lam)
        self.s, self.z, self.x, self.hypergrad_sum = s, z, x, hyp
        out[:, 0] = self.d
        out[:, 1] = d_hat
        out[:, 2] = lam
        out[:, 4] = gnorm2
        self.d = np.where(d_hat > self.d, d_hat, self.d)
        return _refused(gnorm2)


# --------------------------------------------------------------------------
# Adam-shaped variant


@dataclass
class AdamDAState:
    x: Vector
    s: Vector  # moving average of d*gamma weighted gradients
    m: Vector  # first-moment average
    v: Vector  # second-moment average
    r: float  # moving average of the hypergradient inner product
    k: int
    d: float
    beta1: float
    beta2: float
    eps: float
    decay: float
    traj: Trajectory


def adam_da_init(
    x0: Vector,
    d0: float = 1e-6,
    beta1: float = 0.9,
    beta2: float = 0.999,
    eps: float = 1e-8,
    decay: float = 0.0,
) -> AdamDAState:
    if not d0 > 0.0:
        raise ConfigError("d0 must be positive")
    if not 0.0 <= beta1 < 1.0:
        raise ConfigError("beta1 must lie in [0, 1)")
    if not 0.0 < beta2 < 1.0:
        raise ConfigError("beta2 must lie in (0, 1)")
    if not eps > 0.0:
        raise ConfigError("eps must be positive")
    if not decay >= 0.0:
        raise ConfigError("decay must be >= 0")
    x0 = np.asarray(x0, dtype=np.float64)
    return AdamDAState(
        x=x0.copy(),
        s=np.zeros_like(x0),
        m=np.zeros_like(x0),
        v=np.zeros_like(x0),
        r=0.0,
        k=0,
        d=d0,
        beta1=beta1,
        beta2=beta2,
        eps=eps,
        decay=decay,
        traj=Trajectory("adam_da", x0.shape[0]),
    )


def adam_da_step(state: AdamDAState, g: Vector, sched: float = 1.0) -> None:
    gnorm2 = _dot(g, g)
    _check_step_inputs(state, gnorm2, sched)
    dg = state.d * sched
    sb2 = math.sqrt(state.beta2)

    state.m = state.beta1 * state.m + (1.0 - state.beta1) * dg * g
    state.v = state.beta2 * state.v + (1.0 - state.beta2) * g * g
    denom = np.sqrt(state.v) + state.eps
    state.x = state.x - state.m / denom
    if state.decay > 0.0:
        # decoupled multiplicative decay, scaled like the step
        state.x = state.x * (1.0 - state.decay * dg)

    # hypergradient average consumes the pre-update s in the A^-1 inner product
    ip_w = float(np.add.reduce(g * state.s / denom))
    state.r = sb2 * state.r + (1.0 - sb2) * dg * ip_w
    state.s = sb2 * state.s + (1.0 - sb2) * dg * g

    s_l1 = float(np.add.reduce(np.abs(state.s)))
    d_hat = 0.0 if s_l1 == 0.0 else state.r / ((1.0 - sb2) * s_l1)

    state.traj.append((state.k, state.d, d_hat, dg, _NAN, gnorm2))
    state.d = max(state.d, d_hat)
    state.k += 1


# --------------------------------------------------------------------------
# Weighted-sum / moving-average equivalence


@dataclass(frozen=True)
class EmaPair:
    """Parallel tracks u (dual-average sum with weights c^-k) and u_hat (EMA).

    Starting from u_hat = (1 - c) * u, after any number of paired updates
    u_hat == c^k * (1 - c) * u holds identically, so EMA-based bookkeeping
    inherits the dual-averaging analysis.
    """

    c: float
    u: float
    u_hat: float
    k: int


def ema_pair(c: float, u0: float = 0.0) -> EmaPair:
    if not (0.0 < c < 1.0):
        raise ConfigError("c must lie in (0, 1)")
    return EmaPair(c=c, u=u0, u_hat=(1.0 - c) * u0, k=0)


def ema_pair_step(p: EmaPair, g: float) -> EmaPair:
    u_next = p.u + g / (p.c**p.k)
    u_hat_next = p.c * p.u_hat + (1.0 - p.c) * g
    return EmaPair(c=p.c, u=u_next, u_hat=u_hat_next, k=p.k + 1)
