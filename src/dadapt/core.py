"""Shared primitives: problem oracles, step-size schedules, run trajectories,
RNG, the one loop that drives a stepper against an oracle, and CSV text.

Everything downstream (the optimizers, the bound checkers, the benchmark
harness) builds on the types here. A run's steps are one float64 table,
read whole or a column by name; its six step columns are named once, in
STEP_COLUMNS, and the steps CSV is headed by them. All vectors are float64
numpy arrays and all randomness flows through the in-repo generator below,
so repeated runs on one machine and interpreter give identical results.
Across machines that holds only as far as the arithmetic underneath does:
the dot products go through OpenBLAS, whose kernel and so whose order of
additions depends on the CPU core type it picks; numpy's exp and log1p take
the SIMD targets the CPU offers; and the builtin sum() of floats adds left
to right before CPython 3.12 and compensates from 3.12 on (the package adds
with _sum below, which does not). The stored digests hold for one such
setting.

The generator's scalar draw Rng.u64 is the reference. Its bulk draws
(normal_rows, permutations) run many steps at once in numpy uint64,
and return the same bits and leave the same state as the scalar calls they
stand for.
"""

from __future__ import annotations

import csv
import functools
import io
import math
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from itertools import chain
from typing import Callable, Optional

import numpy as np

Vector = np.ndarray

__all__ = [
    "Vector",
    "ConfigError",
    "Diverged",
    "AtStart",
    "DIVERGENCE_NORM",
    "Rng",
    "Schedule",
    "schedule_eval",
    "Problem",
    "STEP_COLUMNS",
    "Trajectory",
    "drive",
    "Lanes",
    "drive_lanes",
    "csv_text",
]

_NAN = float("nan")

# an iterate with a coordinate beyond this magnitude (or NaN) ends the run
DIVERGENCE_NORM = 1e12


def _dot(a: Vector, b: Vector) -> float:
    """float(a @ b) for 1-D float64 a and b, bit for bit, with less call
    overhead. The + 0.0 matters: at dim 1, [1.0].dot([-0.0]) is -0.0 where
    [1.0] @ [-0.0] is 0.0; adding 0.0 turns -0.0 into 0.0 and keeps the rest."""
    return float(a.dot(b)) + 0.0


def _rowdot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """_dot of each row of a with the same row of b, for (B, dim) float64
    arrays: np.vecdot runs the same dot kernel on each row, and + 0.0 does
    what it does in _dot."""
    return np.vecdot(a, b) + 0.0


def _sum(values) -> float:
    """The floats of values added left to right from 0.0. The builtin sum()
    gives these bits before CPython 3.12 and compensates from 3.12 on."""
    total = 0.0
    for v in values:
        total += v
    return total


class ConfigError(ValueError):
    """Invalid configuration: bad schedule parameters, d0 <= 0, unknown keys."""


class Diverged(ValueError):
    """A run diverged at step k; traj holds the steps recorded up to the failure."""

    def __init__(self, k: int, traj: "Trajectory", what: str):
        super().__init__(f"{what} at step {k}")
        self.k = k
        self.traj = traj


class AtStart(Exception):
    """A convex stepper's first gradient is zero: the start is a minimizer,
    and the run ends there without a step."""


# --------------------------------------------------------------------------
# Deterministic RNG
#
# xoshiro256** with splitmix64 seeding, in pure integer arithmetic. Sequences
# depend only on (master_seed, stream_id), never on numpy version or platform.

_MASK64 = (1 << 64) - 1


def _splitmix64(state: int) -> tuple[int, int]:
    state = (state + 0x9E3779B97F4A7C15) & _MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return state, z ^ (z >> 31)


def _rotl(x: int, k: int) -> int:
    return ((x << k) | (x >> (64 - k))) & _MASK64


# Bulk draws run 256 lanes of the generator side by side in numpy uint64.
# xoshiro256's state transition T is linear over GF(2), and _CHARPOLY (bit i
# is the coefficient of x^i) is its characteristic polynomial P. So T^B s is
# the XOR of T^i s over the set bits i of x^B mod P: the construction behind
# xoshiro's jump() (Blackman & Vigna, arXiv 1805.01407). Lane j starts at
# T^(256 j) s and yields draws 256 j .. 256 j + 255 of a block. The lanes cost
# a few milliseconds per block whatever its length, so below _BULK_MIN draws
# a loop over local variables is faster; the crossover was measured on a
# 2-vCPU Xeon with Python 3.11 and numpy 2.4.
_CHARPOLY = 0x1_0003C03C_3F3ECB19_04B4EDCF_26259F85_0280002B_CEFD1A5E_9D116F2B_B0F0F001
_LANES = 256
_BLOCK = _LANES * _LANES
_BULK_MIN = 4096

_TWO_PI = 2.0 * math.pi
_U64 = np.uint64


@functools.cache
def _lane_jumps() -> np.ndarray:
    """Row j holds x^(256 j) mod P for j = 0 .. 256, 4 bits to an entry,
    from bit 0 up."""
    rows = []
    a = 1
    for _ in range(_LANES + 1):
        rows.append(a.to_bytes(32, "little"))
        for _ in range(_LANES):
            a <<= 1
            if a >> 256:
                a ^= _CHARPOLY
    octets = np.frombuffer(b"".join(rows), dtype=np.uint8).reshape(_LANES + 1, 32)
    return np.stack([octets & 15, octets >> 4], axis=2).reshape(_LANES + 1, 64)


def _scramble(s1: np.ndarray) -> np.ndarray:
    """xoshiro256**'s output rotl(s1 * 5, 7) * 9 of each s1, in place."""
    s1 *= _U64(5)
    high = s1 >> _U64(57)
    s1 <<= _U64(7)
    s1 |= high
    s1 *= _U64(9)
    return s1


def _unit(draws: np.ndarray) -> np.ndarray:
    """Rng.uniform of each draw: its top 53 bits over 2^53, exactly."""
    u = (draws >> _U64(11)).astype(np.float64)
    u *= 2.0**-53
    return u


def _map(f: Callable[[float], float], a: np.ndarray) -> np.ndarray:
    return np.fromiter(map(f, a.tolist()), dtype=np.float64, count=a.shape[0])


def _box_muller(u: np.ndarray) -> np.ndarray:
    """The normals Rng.normal makes from these uniforms, taken in pairs
    (u1, u2), written over them.

    log, cos and sin stay in math, element by element: numpy's versions are
    not bit-equal to them. The products and the correctly rounded sqrt are
    the same in numpy.
    """
    u1, u2 = u[0::2], u[1::2]
    u1[u1 == 0.0] = 2.0**-53
    r = _map(math.log, u1)
    r *= -2.0
    np.sqrt(r, out=r)
    u2 *= _TWO_PI
    cos, sin = _map(math.cos, u2), _map(math.sin, u2)
    np.multiply(r, cos, out=u1)
    np.multiply(r, sin, out=u2)
    return u


class Rng:
    """Seeded random stream. Distinct stream_ids give unrelated sequences."""

    def __init__(self, master_seed: int, stream_id: int = 0):
        sm = master_seed & _MASK64
        sm, _ = _splitmix64(sm)
        sm = (sm ^ ((stream_id & _MASK64) * 0xDA942042E4DD58B5)) & _MASK64
        sm, s0 = _splitmix64(sm)
        sm, s1 = _splitmix64(sm)
        sm, s2 = _splitmix64(sm)
        sm, s3 = _splitmix64(sm)
        if s0 == 0 and s1 == 0 and s2 == 0 and s3 == 0:
            s0 = 1  # all-zero state is a fixed point of xoshiro
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        self._spare_normal: Optional[float] = None

    def u64(self) -> int:
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        result = (_rotl((s1 * 5) & _MASK64, 7) * 9) & _MASK64
        t = (s1 << 17) & _MASK64
        s2 ^= s0
        s3 ^= s1
        s1 ^= s2
        s0 ^= s3
        s2 ^= t
        s3 = _rotl(s3, 45)
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return result

    def uniform(self) -> float:
        """One double in [0, 1) with 53 random bits."""
        return (self.u64() >> 11) * 2.0**-53

    def normal(self) -> float:
        if self._spare_normal is not None:
            z = self._spare_normal
            self._spare_normal = None
            return z
        u1 = self.uniform()
        if u1 == 0.0:
            u1 = 2.0**-53
        u2 = self.uniform()
        r = math.sqrt(-2.0 * math.log(u1))
        self._spare_normal = r * math.sin(2.0 * math.pi * u2)
        return r * math.cos(2.0 * math.pi * u2)

    def integer(self, n: int) -> int:
        """Uniform integer in [0, n) without modulo bias."""
        if not 0 < n <= 1 << 64:  # above 2^64 every draw would be rejected
            raise ValueError("integer() needs 0 < n <= 2**64")
        threshold = (1 << 64) - ((1 << 64) % n)
        while True:
            v = self.u64()
            if v < threshold:
                return v % n

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates with integer(i + 1) for i = n - 1 .. 1."""
        return self.permutations(n, 1)[0]

    def permutations(self, n: int, count: int) -> list[np.ndarray]:
        """count calls of permutation(n), their draws taken in one bulk call.

        Each order's n - 1 draws are reduced in numpy, and its swaps run on a
        list. integer(b) redraws only values of at least
        2^64 - (2^64 mod b) > 2^64 - n; a draw that high (odds below
        count n^2 in 2^64) sends the call back to the saved state, to draw
        the orders one at a time, and a lone order to the scalar draws.
        """
        if n < 2 or count < 1:
            return [np.arange(n) for _ in range(count)]
        saved = self._s0, self._s1, self._s2, self._s3
        draws = self._u64s(count * (n - 1))
        if int(draws.max()) >= (1 << 64) - n:
            self._s0, self._s1, self._s2, self._s3 = saved
            if count > 1:
                return [self.permutation(n) for _ in range(count)]
            order = np.arange(n)
            for i in range(n - 1, 0, -1):
                j = self.integer(i + 1)
                order[i], order[j] = order[j], order[i]
            return [order]
        draws = draws.reshape(count, n - 1)
        draws %= np.arange(n, 1, -1, dtype=_U64)
        orders = []
        for row in draws:
            order = list(range(n))
            for i, j in zip(range(n - 1, 0, -1), memoryview(row)):
                order[i], order[j] = order[j], order[i]
            orders.append(np.array(order, dtype=int))
        return orders

    def normals(self, n: int) -> Vector:
        """n calls of normal()."""
        return np.array([self.normal() for _ in range(n)], dtype=np.float64)

    def normal_rows(self, out: np.ndarray, uniforms: Optional[np.ndarray] = None) -> None:
        """Fill the rows of out, a C-contiguous (rows, dim) float64 array,
        with normals, and uniforms[i] after row i when uniforms is given.

        The draws are those of `self.normals(dim)` and then `self.uniform()`
        for each row in turn, made in bulk a block of rows at a time.
        """
        rows, dim = out.shape
        if dim < 1 or not out.flags.c_contiguous:
            raise ValueError("normal_rows needs a C-contiguous out with dim >= 1")
        step = max(1, _BLOCK // (dim + 2))  # a row takes at most dim + 2 draws
        for start in range(0, rows, step):
            end = start + step
            self._fill_normals(out[start:end], None if uniforms is None else uniforms[start:end])

    def _fill_normals(self, out: np.ndarray, uniforms: Optional[np.ndarray]) -> None:
        """Fill the rows of out, C-contiguous and not empty, and uniforms
        after each row."""
        rows, dim = out.shape
        flat = out.reshape(-1)
        spare = self._spare_normal
        have = 0 if spare is None else 1
        # Box-Muller pairs drawn by the end of each row; the spare covers one
        pairs = (np.arange(1, rows + 1) * dim - have + 1) // 2
        u = _unit(self._u64s(2 * int(pairs[-1]) + (0 if uniforms is None else rows)))
        if uniforms is not None:
            at = 2 * pairs + np.arange(rows)  # each row's uniform comes after its pairs
            uniforms[:] = u[at]
            u = np.delete(u, at)
        z = _box_muller(u)
        if have:
            flat[0] = spare
        flat[have:] = z[: flat.shape[0] - have]
        self._spare_normal = float(z[-1]) if have + z.shape[0] > flat.shape[0] else None

    def _u64s(self, n: int) -> np.ndarray:
        """The next n u64() values."""
        if n < _BULK_MIN:
            return _scramble(np.array(self._walk(n), dtype=_U64))
        out = np.empty(n, dtype=_U64)
        for i in range(0, n, _BLOCK):
            self._lane_block(out[i : i + _BLOCK])
        return out

    def _walk(self, n: int, states: bool = False) -> list:
        """s1 of the state before each of the next n steps, or the whole
        (s0, s1, s2, s3) when states is set; the generator takes the steps."""
        s0, s1, s2, s3 = self._s0, self._s1, self._s2, self._s3
        seen = []
        for _ in range(n):
            seen.append((s0, s1, s2, s3) if states else s1)
            t = (s1 << 17) & _MASK64
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            s3 = ((s3 << 45) | (s3 >> 19)) & _MASK64
        self._s0, self._s1, self._s2, self._s3 = s0, s1, s2, s3
        return seen

    def _lane_block(self, out: np.ndarray) -> None:
        """Fill out, at most _BLOCK long, with the next draws."""
        m = out.shape[0]
        full, rem = divmod(m, _LANES)
        lanes = full + 1  # the last lane makes the rem leftover draws
        # lane starts: the XOR of T^i s over the set bits i of x^(256 j) mod P,
        # 4 bits at a time from tables of the XORs of 4 consecutive T^i s
        walk = np.array(self._walk(_LANES, states=True), dtype=_U64).reshape(64, 4, 4)
        tables = np.zeros((64, 16, 4), dtype=_U64)
        for b in range(4):
            tables[:, 1 << b : 2 << b] = tables[:, : 1 << b] ^ walk[:, b, None, :]
        jumps = _lane_jumps()[:lanes]
        starts = np.zeros((lanes, 4), dtype=_U64)
        for g in range(64):
            starts ^= tables[g, jumps[:, g]]
        s0, s1, s2, s3 = (starts[:, w].copy() for w in range(4))
        by_lane = out[: full * _LANES].reshape(full, _LANES)
        t = np.empty(lanes, dtype=_U64)
        end = None
        for r in range(_LANES if full else rem):
            if r == rem:
                end = s0[-1], s1[-1], s2[-1], s3[-1]
            by_lane[:, r] = s1[:full]
            if r < rem:
                out[full * _LANES + r] = s1[full]
            np.left_shift(s1, _U64(17), out=t)
            s2 ^= s0
            s3 ^= s1
            s1 ^= s2
            s0 ^= s3
            s2 ^= t
            np.left_shift(s3, _U64(45), out=t)
            s3 >>= _U64(19)
            s3 |= t
        if end is None:
            end = s0[-1], s1[-1], s2[-1], s3[-1]
        _scramble(out)
        self._s0, self._s1, self._s2, self._s3 = (int(v) for v in end)


# --------------------------------------------------------------------------
# Step-size schedules
#
# A schedule is a multiplier applied on top of the adaptive step size; the
# optimizers themselves never see wall-clock epochs, only the step index k
# out of n_total.


@dataclass(frozen=True)
class Schedule:
    kind: str = "flat"  # flat | stagewise | inverse_sqrt_warmup | cosine
    stage_fractions: tuple[float, ...] = (0.6, 0.8, 0.95)
    stage_factor: float = 0.1
    warmup_steps: int = 0

    def __post_init__(self) -> None:
        self.validate()

    def validate(self) -> None:
        if self.kind not in ("flat", "stagewise", "inverse_sqrt_warmup", "cosine"):
            raise ConfigError(f"unknown schedule kind {self.kind!r}")
        if self.kind == "stagewise":
            fr = self.stage_fractions
            if any(not (0.0 < f <= 1.0) for f in fr):
                raise ConfigError("stage fractions must lie in (0, 1]")
            if any(b <= a for a, b in zip(fr, fr[1:])):
                raise ConfigError("stage fractions must be strictly increasing")
            if not (0.0 < self.stage_factor <= 1.0):
                raise ConfigError("stage factor must lie in (0, 1]")
        if self.kind == "inverse_sqrt_warmup" and self.warmup_steps <= 0:
            raise ConfigError("inverse_sqrt_warmup needs warmup_steps > 0")


def schedule_eval(schedule: Schedule, k: int, n_total: int) -> float:
    """Multiplier for step k of a run of n_total steps.

    Stays in (0, 1] for every step a run actually takes (k < n_total).
    The warmup formula is evaluated at max(k, 1) so step 0 gets the same
    multiplier as step 1 instead of a degenerate zero.
    """
    if k < 0:
        raise ConfigError("step index must be >= 0")
    if n_total <= 0:
        raise ConfigError("n_total must be positive")
    if schedule.kind == "flat":
        return 1.0
    if schedule.kind == "stagewise":
        passed = 0
        for f in schedule.stage_fractions:
            if k >= f * n_total:
                passed += 1
        return schedule.stage_factor**passed
    if schedule.kind == "inverse_sqrt_warmup":
        kk = max(k, 1)
        w = schedule.warmup_steps
        return min(kk / w, 1.0) * min(1.0, math.sqrt(w / kk))
    # cosine, clamped to the last in-run step so the multiplier stays positive
    kk = min(k, n_total - 1)
    return 0.5 * (1.0 + math.cos(math.pi * kk / n_total))


# --------------------------------------------------------------------------
# Problem oracles


@dataclass
class Problem:
    """First-order oracle for a convex objective.

    subgradient(x) returns an element of the subdifferential at x, or an
    unbiased estimate of one for minibatch losses; a stochastic oracle draws
    from a stream of its own, as LogisticProblem does. drive_lanes calls it
    on a (B, dim) stack of points and needs a row for each from one draw, as
    LogisticProblem's minibatch gradients give. values(X) is the one
    function-value oracle: f at each row of a C-contiguous (K, dim) array,
    from one call, a row's f not depending on the rows beside it; value(x)
    is its row. lipschitz / lipschitz_inf bound the subgradient in the
    Euclidean / max norm when known.
    """

    subgradient: Callable[[Vector], Vector]
    values: Callable[[np.ndarray], np.ndarray]
    known_minimizer: Optional[Vector] = None
    known_fstar: Optional[float] = None
    lipschitz: Optional[float] = None
    lipschitz_inf: Optional[float] = None

    def value(self, x: Vector) -> float:
        """f at the one point x: the row values gives it."""
        return float(self.values(x[None])[0])


# --------------------------------------------------------------------------
# Trajectories
#
# A step appends one flat row (step, d, dhat, gamma_or_lambda, f, gnorm2,
# *extras), the extras being the series its kind names at init that a bound
# checker reads and no step column holds. Reads pack the rows into one
# (n, 6 + K) float64 table.

# the six columns every step records, in table order:
#   step            the step's index k
#   d               estimate in force when the step was taken
#   dhat            candidate produced by the step
#   gamma_or_lambda gamma or lambda actually applied
#   f               objective at the visited point, nan when not recorded
#   gnorm2          squared norm of the step's gradient
STEP_COLUMNS = ("step", "d", "dhat", "gamma_or_lambda", "f", "gnorm2")


def _weighted_average(num: Vector, den: float) -> Vector:
    """num / den, the average of points folded in with total weight den."""
    if den <= 0.0:
        raise ValueError("no positive-weight points recorded")
    return num / den


class Trajectory:
    """Per-step log of a run plus the weighted-average accumulator.

    extras names the per-step series, none a step column again, that the
    bound checkers read after the STEP_COLUMNS; columns names every column,
    and a name given twice is refused.
    A run is read as that table (pack, or records for its STEP_COLUMNS) or
    one column at a time by name (extra). d is checked to be non-decreasing
    on append; dim sizes the running average.
    """

    def __init__(self, kind: str, dim: int, extras: Sequence[str] = ()):
        self.kind = kind
        self.columns = STEP_COLUMNS + tuple(extras)
        twice = [name for i, name in enumerate(self.columns) if name in self.columns[:i]]
        if twice:
            raise ValueError(f"trajectory of kind {kind!r} names column {twice[0]!r} twice")
        self._rows: list[tuple] = []
        self._table = np.empty((0, len(self.columns)), dtype=np.float64)
        self._last_d = -math.inf
        self.meta: dict[str, object] = {}
        self.avg_num: Vector = np.zeros(dim, dtype=np.float64)
        self.avg_den: float = 0.0

    def append(self, row: tuple) -> None:
        """Log one step: (step, d, dhat, gamma_or_lambda, f, gnorm2, *extras)."""
        if row[1] < self._last_d:
            raise ValueError("d decreased between steps; trajectory corrupt")
        self._last_d = row[1]
        self._rows.append(row)

    def pack(self) -> np.ndarray:
        """The (n, 6 + K) table of every row appended so far; rows appended
        after a read are packed onto it at the next read."""
        if self._rows:
            rows, self._rows = self._rows, []
            width = self._table.shape[1]
            if set(map(len, rows)) != {width}:
                raise ValueError(f"rows of kind {self.kind!r} need {width} fields")
            new = np.fromiter(chain.from_iterable(rows), np.float64, len(rows) * width)
            new = new.reshape(len(rows), width)
            self._table = np.concatenate([self._table, new]) if self._table.shape[0] else new
        return self._table

    def extend(self, table: np.ndarray) -> None:
        """Log the rows of an (m, width) table, as append would one by one. An
        empty trajectory keeps table itself, so a view stays a view."""
        if table.shape[1:] != (len(self.columns),):
            raise ValueError(f"rows of kind {self.kind!r} need {len(self.columns)} fields")
        d = np.append(self._last_d, table[:, 1])
        if (d[1:] < d[:-1]).any():
            raise ValueError("d decreased between steps; trajectory corrupt")
        self._last_d = d[-1].item()
        old = self.pack()
        self._table = np.concatenate([old, table]) if old.shape[0] else table

    @property
    def records(self) -> np.ndarray:
        """The (n, 6) STEP_COLUMNS view of the table."""
        return self.pack()[:, :6]

    def update_average(self, x: Vector, w: float) -> None:
        """Fold the point x with weight w >= 0 into the running average."""
        if w < 0.0:
            raise ValueError("average weight must be >= 0")
        if w > 0.0:
            self.avg_num += w * x
            self.avg_den += w

    def average(self) -> Vector:
        return _weighted_average(self.avg_num, self.avg_den)

    def d_series(self) -> list[float]:
        """d_0 .. d_{n+1} for a run of n+1 recorded steps."""
        table = self.pack()
        if not table.shape[0]:
            raise ValueError("empty trajectory")
        ds = table[:, 1].tolist()
        ds.append(max(ds[-1], table[-1, 2].item()))
        return ds

    def extra(self, key: str) -> list[float]:
        """The column named key, as Python floats."""
        if key not in self.columns:
            raise ValueError(f"trajectory of kind {self.kind!r} has no {key!r} series")
        return self.pack()[:, self.columns.index(key)].tolist()


# --------------------------------------------------------------------------
# The step loop
#
# Every optimizer is a pair init(x0, ...) -> state and
# step(state, g, sched=1.0) -> None, where the stepper reads state.x,
# moves it, and appends one row to state.traj with NaN for f: the driver
# writes the f column.


# drive takes the recorded f this many visited points a call
_F_ROWS = 16


def drive(
    problem: Problem,
    state,
    step: Callable,
    n: int,
    schedule: Schedule,
    record_f_every: int,
) -> None:
    """Take n steps of step from state.x against problem's oracle, one
    subgradient call a step. Every record_f_every steps, from step 0 on, f is
    taken at the visited point; it is NaN otherwise. The stepper never sees
    f: drive alone writes the f column, once the loop ends. The point is
    copied aside: each time _F_ROWS points are held, and once when the loop
    ends, one call of problem.values takes their f, so a full-data
    objective reads its data once for many points.
    A step its stepper refuses keeps no row and so no f. Raises
    Diverged at the first step whose new iterate has a NaN or a coordinate
    beyond DIVERGENCE_NORM; that step's record, f included, is kept, and the
    trajectory is packed however the loop ends. numpy's overflow and
    invalid-value warnings are silenced in the loop, its last values call
    included. The exact max-abs test runs only when x.dot(x) exceeds 0.999
    times DIVERGENCE_NORM**2, with the same outcome: that sum of n squares
    is within a relative n * 2^-53 of the true one (n < 10^12), so below the
    prefilter every x_i^2 is within the bound. NaN, inf and norms near it
    test exactly.
    """
    if record_f_every <= 0:
        raise ConfigError("record_f_every must be positive")
    subgradient = problem.subgradient
    values = problem.values
    points = np.empty((_F_ROWS, state.x.shape[0]))  # visited points whose f is due
    fs = np.empty(len(range(0, n, record_f_every)))  # f at each cadence step
    held = taken = 0  # points in the buffer, f values in fs
    first = state.traj.pack().shape[0]  # the row of step 0
    bound_sq = 0.999 * DIVERGENCE_NORM**2
    flat = schedule.kind == "flat"
    sched = 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        try:
            for k in range(n):
                if not k % record_f_every:
                    points[held] = state.x
                    held += 1
                g = subgradient(state.x)
                if not flat:
                    sched = schedule_eval(schedule, k, n)
                step(state, np.asarray(g, dtype=np.float64), sched=sched)
                if not state.x.dot(state.x) <= bound_sq and not (
                    np.maximum.reduce(np.abs(state.x), initial=0.0) <= DIVERGENCE_NORM
                ):
                    raise Diverged(k, state.traj, f"iterate NaN or beyond {DIVERGENCE_NORM:g}")
                if held == _F_ROWS:
                    fs[taken : taken + held] = values(points)
                    taken += held
                    held = 0
        finally:
            table = state.traj.pack()
            # a step refused by its stepper left no row, and its point no f
            kept = len(range(first, table.shape[0], record_f_every))
            if kept > taken:
                fs[taken:kept] = values(points[: kept - taken])
            table[first::record_f_every, 4] = fs[:kept]


class Lanes:
    """B runs of one method side by side, each a lane: row i of every array
    named in _arrays, x (the (B, dim) iterates) among them, belongs to lane
    ids[i]. step(g, sched, out) takes one step on every lane from the (B, dim)
    gradients g, writes d, dhat, scale and gnorm2 into columns 0, 1, 2 and 4
    of the (B, 5) out (column 3, f, is the driver's; a column it leaves
    holds NaN), and returns a mask of the lanes that refused their gradient,
    or None. The lanes are built from the runs' scalar states, as
    baselines.start sets them up, and keep them in states, lane b's at b:
    each field named in _arrays stacked as float64, None as NaN, and each
    named in _shared, common to the runs, taken from the first."""

    _arrays: tuple[str, ...] = ("x",)
    _shared: tuple[str, ...] = ()

    def __init__(self, states: Sequence):
        self.states = list(states)
        self.ids = np.arange(len(states))
        for name in self._arrays:
            values = [getattr(state, name) for state in states]
            setattr(self, name, np.array([_NAN if v is None else v for v in values], np.float64))
        for name in self._shared:
            setattr(self, name, getattr(states[0], name))

    def keep(self, mask: np.ndarray) -> None:
        """Drop the lanes where mask is False."""
        self.ids = self.ids[mask]
        for name in self._arrays:
            setattr(self, name, getattr(self, name)[mask])


def drive_lanes(
    problem: Problem, lanes: Lanes, n: int, schedule: Schedule, record_f_every: int
) -> np.ndarray:
    """drive for the lanes of runs that differ in their settings alone, on
    their one problem: subgradient takes the (B, dim) stack of the live
    lanes' iterates, one draw for all, and values every live lane's f on
    the cadence, in one call. Lane b gets what drive gives run b alone: a
    lane whose iterate leaves the ball keeps that step's row, one whose
    stepper refuses its gradient stops before it, and either leaves the
    batch. Each lane's rows then go to its state's trajectory, as views of
    one (n, B, 6) table, and a lane that ran to the end leaves its iterate
    in its state's x. Returns which lanes diverged.
    """
    if record_f_every <= 0:
        raise ConfigError("record_f_every must be positive")
    subgradient = problem.subgradient
    values = problem.values
    B = lanes.ids.shape[0]
    table = np.full((n, B, 6), _NAN)
    table[:, :, 0] = np.arange(n)[:, None]
    steps = np.full(B, n)
    diverged = np.zeros(B, dtype=bool)
    bound_sq = 0.999 * DIVERGENCE_NORM**2
    flat = schedule.kind == "flat"
    sched = 1.0
    out = np.full((B, 5), _NAN)  # a step's d, dhat, scale, f and gnorm2 columns
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for k in range(n):
            ids = lanes.ids
            g = subgradient(lanes.x)
            cadence = not k % record_f_every
            if cadence:
                out[:, 3] = values(lanes.x)
            if not flat:
                sched = schedule_eval(schedule, k, n)
            refused = lanes.step(g, sched, out)
            ok = None if refused is None else ~refused
            if ok is not None:
                table[k, ids[ok], 1:] = out[ok]
            elif ids.shape[0] < B:
                table[k, ids, 1:] = out
            else:
                table[k, :, 1:] = out
            if cadence:
                out[:, 3] = _NAN
            x = lanes.x
            if not np.maximum.reduce(np.vecdot(x, x)) <= bound_sq:  # drive's prefilter
                inside = np.maximum.reduce(np.abs(x), axis=1, initial=0.0) <= DIVERGENCE_NORM
                ok = inside if ok is None else ok & inside
            if ok is not None and np.count_nonzero(ok) < ok.shape[0]:
                steps[ids[~ok]] = k + 1  # the failing step's row is kept
                if refused is not None:
                    steps[ids[refused]] = k
                diverged[ids[~ok]] = True
                lanes.keep(ok)
                out = out[ok]
                if not lanes.ids.shape[0]:
                    break
    for b, state in enumerate(lanes.states):
        state.traj.extend(table[: steps[b], b])
    for b, x in zip(lanes.ids.tolist(), lanes.x):
        lanes.states[b].x = x
    return diverged


# --------------------------------------------------------------------------
# CSV text
#
# The one byte format of every CSV the package writes: floats as repr, so
# they read back to the same bits, and everything else as str.

# a trajectory table is turned into Python floats this many rows at a time;
# the whole table as lists would cost its size again in memory
_TABLE_BLOCK = 512


def _column_text(values: list[float], bits: np.ndarray) -> Iterator[str]:
    """repr of each of values, whose float64 bit patterns are bits, with one
    repr call for each distinct pattern. Keyed on bits, 0.0 and -0.0 (equal
    as floats) stay apart. A column in which no value repeats the one before
    it seldom repeats at all, and skips the memo."""
    if not (bits[1:] == bits[:-1]).any():
        return map(repr, values)
    keys = bits.tolist()
    memo = dict(zip(keys, values))
    memo = dict(zip(memo, map(repr, memo.values())))
    return map(memo.__getitem__, keys)


def csv_text(header: Sequence[str], rows: Sequence[Sequence] | np.ndarray) -> str:
    """The CSV text of header and rows.

    rows is a sequence of rows, or a trajectory table: an (n, 6) float64
    array in STEP_COLUMNS order (Trajectory.records), whose step column is
    written as an int. A table is written _TABLE_BLOCK rows at a time, with
    the bytes csv.writer gives the rows [int(step), *floats].
    """
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    if isinstance(rows, np.ndarray):
        width = len(STEP_COLUMNS)
        if rows.ndim != 2 or rows.shape[1] != width or rows.dtype != np.float64:
            raise ValueError(
                f"a trajectory table is float64 of shape (n, {width}), got {rows.dtype} {rows.shape}"
            )
        for start in range(0, rows.shape[0], _TABLE_BLOCK):
            block = rows[start : start + _TABLE_BLOCK]
            steps, *floats = block.T.tolist()
            bits = block.view(np.uint64)
            columns = [_column_text(v, bits[:, c]) for c, v in enumerate(floats, 1)]
            buf.write("".join(
                f"{k},{d},{dhat},{scale},{f},{gnorm2}\n"
                for k, d, dhat, scale, f, gnorm2 in zip(map(int, steps), *columns)
            ))
        return buf.getvalue()
    for row in rows:
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in row])
    return buf.getvalue()
