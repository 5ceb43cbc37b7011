"""Benchmark objectives and dataset handling.

Deterministic convex test problems (absolute value, piecewise-linear max
with a constructed minimizer) plus binary logistic regression over dense
datasets (a feature matrix and a label vector), with a text
parser/serializer for the standard `label idx:val ...` format, a
synthetic linearly-structured generator, and epoch-shuffled minibatching.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional

import numpy as np

from .core import _BLOCK, _BULK_MIN, _F_ROWS, Problem, Rng, Vector

__all__ = [
    "ParseError",
    "Dataset",
    "parse_libsvm",
    "serialize_libsvm",
    "synth_dataset",
    "abs_value_problem",
    "piecewise_max_problem",
    "random_piecewise_max",
    "piecewise_start",
    "LogisticProblem",
    "logistic_value_grad",
]

_MAX_CELLS = 2**28  # the largest X parse_libsvm makes: 2 GiB of float64


class ParseError(ValueError):
    """Malformed dataset text; carries the 1-based line number."""

    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


# --------------------------------------------------------------------------
# Deterministic convex problems


def abs_value_problem() -> Problem:
    """f(x) = |x| in one dimension; the subgradient at 0 is taken as 0."""

    def subgradient(x: Vector) -> Vector:
        v = float(x[0])
        return np.array([math.copysign(1.0, v) if v != 0.0 else 0.0])

    def values(X: np.ndarray) -> np.ndarray:
        return np.abs(X[:, 0])

    return Problem(
        subgradient=subgradient,
        values=values,
        known_minimizer=np.zeros(1),
        known_fstar=0.0,
        lipschitz=1.0,
        lipschitz_inf=1.0,
    )


def piecewise_max_problem(
    slopes: Vector,
    offsets: Vector,
    known_minimizer: Optional[Vector] = None,
    known_fstar: Optional[float] = None,
) -> Problem:
    """f(x) = max_i (<slopes_i, x> + offsets_i); ties take the lowest index."""
    slopes = np.asarray(slopes, dtype=np.float64)
    offsets = np.asarray(offsets, dtype=np.float64)
    if slopes.ndim != 2 or offsets.shape != (slopes.shape[0],):
        raise ValueError("need an m x dim slope matrix and m offsets")

    def subgradient(x: Vector) -> Vector:
        return slopes[(slopes @ x + offsets).argmax()].copy()

    def values(X: np.ndarray) -> np.ndarray:
        # the stacked product runs the gemv of slopes @ x once per row, so a row's f does not
        # depend on the rows beside it; the gemm X @ slopes.T is not bit-equal to it
        return (np.matmul(slopes, X[:, :, None])[:, :, 0] + offsets).max(axis=1)

    norms = np.sqrt((slopes * slopes).sum(axis=1))
    return Problem(
        subgradient=subgradient,
        values=values,
        known_minimizer=known_minimizer,
        known_fstar=known_fstar,
        lipschitz=float(norms.max()),
        lipschitz_inf=float(np.abs(slopes).max()),
    )


def random_piecewise_max(
    rng: Rng, dim: int = 8, pieces: int = 8, fstar: float = 0.0
) -> Problem:
    """Random piecewise-linear problem with a known minimizer.

    All pieces are active at x_star and the slopes sum to zero, so zero is
    in the convex hull of the active slopes and f >= fstar everywhere with
    equality at x_star.
    """
    if pieces < 2 or dim < 1:
        raise ValueError("need at least 2 pieces and dim >= 1")
    x_star = rng.normals(dim)
    slopes = np.stack([rng.normals(dim) for _ in range(pieces - 1)])
    slopes = np.vstack([slopes, -slopes.sum(axis=0)])
    offsets = fstar - slopes @ x_star
    return piecewise_max_problem(
        slopes, offsets, known_minimizer=x_star, known_fstar=fstar
    )


def piecewise_start(seed: int, dim: int, pieces: int, distance: float) -> tuple[Problem, Vector]:
    """A random piecewise problem and a start `distance` from its minimizer,
    both drawn from Rng(seed, stream_id=1): the problem, then the direction."""
    rng = Rng(seed, stream_id=1)
    prob = random_piecewise_max(rng, dim=dim, pieces=pieces)
    direction = rng.normals(dim)
    direction /= math.sqrt(float(direction @ direction))
    return prob, prob.known_minimizer + distance * direction


# --------------------------------------------------------------------------
# Datasets


@dataclass(frozen=True)
class Dataset:
    """Binary examples as the rows of X, shape (n, dim), where absent
    features are 0, with their labels y, shape (n,), each +1.0 or -1.0."""

    X: np.ndarray
    y: np.ndarray
    # seed -> the EpochOrders every run over this data reads, as grid points do
    shared_orders: Optional[dict] = field(default=None, repr=False)

    @property
    def dim(self) -> int:
        return self.X.shape[1]

    @cached_property
    def with_bias(self) -> np.ndarray:
        """X with a column of ones appended, built once and shared read-only
        by every run over this data: a copy per run left the heap's layout,
        and so peak memory, to chance (+3.3 MB on 10000 x 50)."""
        X = np.hstack([self.X, np.ones((len(self), 1))])
        X.flags.writeable = False
        return X

    def __len__(self) -> int:
        return self.y.shape[0]


class EpochOrders:
    """A seed's epoch orders of n examples, epoch e's being the (e+1)-th
    Rng(seed, 2).permutation(n), drawn when first asked for. keep=True keeps
    every order drawn; else each is let go once a later one is asked for,
    for one reader going in turn.

    Short orders, whose n - 1 draws would come one at a time (n - 1 below
    _BULK_MIN), are drawn in bulk: 1, then 2, 4, 8, ... orders at a time,
    up to one lane block of draws, and, when epochs names how many epochs
    the readers read, not past it. The orders drawn ahead of a reader going
    in turn never outnumber those it has asked for."""

    def __init__(self, n: int, seed: int, keep: bool = False, epochs: Optional[int] = None):
        self.n, self._keep = n, keep
        self._rng = Rng(seed, stream_id=2)  # runs differing in settings alone see the same data
        self._orders: dict[int, np.ndarray] = {}  # epoch -> order
        self._drawn = 0
        self._most = _BLOCK // (n - 1) if 1 < n <= _BULK_MIN else 1  # orders a draw
        self._epochs = epochs

    def __call__(self, epoch: int) -> np.ndarray:
        while self._drawn <= epoch:
            # draw, then let the last orders go: freed first, their slot takes the draw's
            # temporaries and the new orders land above them, pinning the heap (+7% RSS)
            count = min(self._drawn + 1, self._most)
            if self._epochs is not None:  # a reader past the epochs named gets one at a time
                count = max(1, min(count, self._epochs - self._drawn))
            orders = self._rng.permutations(self.n, count)
            if not self._keep:
                self._orders.clear()
            self._orders.update(zip(range(self._drawn, self._drawn + count), orders))
            self._drawn += count
        if not self._keep:
            self._orders.pop(epoch - 1, None)
        return self._orders[epoch]


def _parse_label(token: str, line: int) -> float:
    try:
        v = float(token)
    except ValueError:
        raise ParseError(f"label {token!r} is not numeric", line) from None
    if v == 1.0:
        return 1.0
    if v == -1.0 or v == 0.0:
        return -1.0
    raise ParseError(f"label {token!r} is not binary; multiclass data is rejected", line)


def parse_libsvm(text: str) -> Dataset:
    """Parse `label idx:val ...` lines into a Dataset.

    Labels 1/+1 map to +1 and 0/-1 map to -1; anything else is rejected.
    Indices are 1-based and must be strictly ascending within a line.
    `#` starts a comment; blank lines are skipped. The dimension is the
    largest index seen; a dense X of over _MAX_CELLS cells is refused.
    """
    rows: list[int] = []
    cols: list[int] = []
    values: list[float] = []
    labels: list[float] = []
    dim = 0
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        label = _parse_label(tokens[0], lineno)
        prev = 0
        for tok in tokens[1:]:
            head, sep, tail = tok.partition(":")
            if not sep or not head or not tail:
                raise ParseError(f"malformed feature {tok!r}", lineno)
            try:
                idx = int(head)
                val = float(tail)
            except ValueError:
                raise ParseError(f"malformed feature {tok!r}", lineno) from None
            if idx < 1:
                raise ParseError(f"index {idx} is not 1-based", lineno)
            if idx <= prev:
                raise ParseError(
                    f"index {idx} not strictly ascending after {prev}", lineno
                )
            if not math.isfinite(val):
                raise ParseError(f"non-finite value in {tok!r}", lineno)
            rows.append(len(labels))
            cols.append(idx - 1)
            values.append(val)
            prev = idx
        dim = max(dim, prev)
        if (len(labels) + 1) * dim > _MAX_CELLS:
            raise ParseError(f"X of {len(labels) + 1} x {dim} is over {_MAX_CELLS} cells", lineno)
        labels.append(label)
    X = np.zeros((len(labels), dim), dtype=np.float64)
    X[rows, cols] = values
    return Dataset(X=X, y=np.array(labels, dtype=np.float64))


def serialize_libsvm(dataset: Dataset) -> str:
    """Inverse of parse_libsvm: each row's nonzero entries, with values in
    full round-trip precision. A trailing all-zero column is not written,
    so it does not come back."""
    lines = []
    for x, label in zip(dataset.X.tolist(), dataset.y.tolist()):
        parts = ["+1" if label > 0 else "-1"]
        parts.extend(f"{i}:{v!r}" for i, v in enumerate(x, start=1) if v != 0.0)
        lines.append(" ".join(parts))
    return "\n".join(lines) + ("\n" if lines else "")


def synth_dataset(
    seed: int, n_examples: int, dim: int, margin: float = 0.0, flip: float = 0.0
) -> Dataset:
    """Linearly structured binary data with controllable separation.

    Features are standard normals labeled by a random unit direction;
    each point is then pushed margin further from the boundary along that
    direction, and each label flipped with probability flip.
    """
    if n_examples < 1 or dim < 1:
        raise ValueError("need n_examples >= 1 and dim >= 1")
    if not (0.0 <= flip < 1.0):
        raise ValueError("flip must lie in [0, 1)")
    rng = Rng(seed, stream_id=0)
    w = rng.normals(dim)
    w /= math.sqrt(float(w @ w))
    X = np.empty((n_examples, dim), dtype=np.float64)
    u = np.empty(n_examples, dtype=np.float64) if flip > 0.0 else None
    # per example: rng.normals(dim), then rng.uniform() when labels flip
    rng.normal_rows(X, u)
    # each row's own dot product, as w @ x gives it: the gemv X @ w is not bit-equal to it
    y = np.where(np.vecdot(X, w) >= 0.0, 1.0, -1.0)
    if margin != 0.0:  # a column at a time, with no (n, dim) temporary
        for j in range(dim):
            X[:, j] += (margin * y) * w[j]
    if u is not None:
        y[u < flip] *= -1.0
    return Dataset(X=X, y=y)


# --------------------------------------------------------------------------
# Logistic regression


def _mean_logistic_loss(t: np.ndarray) -> float:
    """Mean of log(1 + exp(-t)) over the margins t = y * Xw.

    Each term is the stable softplus of z = -t, max(z, 0) + log1p(exp(-|z|)),
    computed as log1p(exp(-|t|)) - min(t, 0) in place on two arrays made
    here, so numpy's vectorized exp and log1p do the work (np.logaddexp
    calls libm's scalar exp and log1p once per element). Each term is within
    2 ulp of logaddexp(0, -t), and equal to it at 0, at +-inf and where
    exp(-|t|) underflows; NaN stays NaN. t is not modified.
    """
    loss = np.abs(t)
    np.negative(loss, out=loss)
    np.exp(loss, out=loss)
    np.log1p(loss, out=loss)
    np.subtract(loss, np.minimum(t, 0.0), out=loss)
    return float(loss.mean())


def _grads(X: np.ndarray, y: np.ndarray, W: np.ndarray) -> np.ndarray:
    """The mean logistic gradient over the rows of X at the point W, or at
    each row of the stack W. The stacked products run the gemv of X @ w and
    of X.T @ coeff once per row, so row b has the bits of the gradient at
    W[b], and a point has those of its stack of one; the gemm X @ W.T would
    not."""
    t = np.matmul(X, np.atleast_2d(W)[:, :, None])[:, :, 0]
    t *= y
    coeff = np.logaddexp(0.0, t)
    np.negative(coeff, coeff)  # in place; out by position costs less than out=
    np.exp(coeff, coeff)
    coeff *= -y  # -y * sigma(-t)
    G = np.matmul(X.T, coeff[:, :, None])[:, :, 0] / X.shape[0]
    return G if W.ndim == 2 else G[0]


def logistic_value_grad(
    X: np.ndarray, y: np.ndarray, w: Vector
) -> tuple[float, Vector]:
    """Mean logistic loss and gradient over the rows of X.

    Stable for any margin, with t = y * Xw: the loss is the softplus
    log1p(exp(-|t|)) - min(t, 0) of -t (see _mean_logistic_loss), and the
    gradient coefficient sigma(-t) is exp(-logaddexp(0, t)). The loss took
    this form in place of logaddexp(0, -t); the recorded values moved by a
    few ulp, while gradients, and so iterates, kept their bits.
    """
    return _mean_logistic_loss(y * (X @ w)), _grads(X, y, w)


class LogisticProblem:
    """Binary logistic regression with an always-1 bias feature.

    The weight vector has dataset.dim + 1 entries; the trailing entry
    multiplies the bias, a column of ones appended to the dataset's X
    (Dataset.with_bias, one array for all the runs over the data).
    Minibatches are consecutive slices of the seed's epoch orders, short
    final batch kept; the oracle's gradients compute no loss. steps, when
    given, is how many batches a run draws: no order past the epochs those
    read is drawn ahead.
    """

    def __init__(
        self, dataset: Dataset, batch_size: int = 16, seed: int = 0, steps: Optional[int] = None
    ):
        n = len(dataset)
        if n == 0:
            raise ValueError("empty dataset")
        if batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {batch_size!r}")
        self.n = n
        self.batch_size = min(batch_size, n)
        epochs = None if steps is None else -(-steps // self.batches_per_epoch())
        shared = dataset.shared_orders  # None for a lone run, which keeps one order
        orders = EpochOrders(n, seed, keep=shared is not None, epochs=epochs)
        self.orders = orders if shared is None else shared.setdefault(seed, orders)
        self.X = dataset.with_bias
        self.y = dataset.y
        self.dim = self.X.shape[1]  # bias included
        self._batches = 0  # drawn so far

    def next_batch(self) -> np.ndarray:
        epoch, i = divmod(self._batches, self.batches_per_epoch())
        self._batches += 1
        start = i * self.batch_size
        return self.orders(epoch)[start : start + self.batch_size]

    def batches_per_epoch(self) -> int:
        return (self.n + self.batch_size - 1) // self.batch_size

    def full_values(self, W: np.ndarray) -> np.ndarray:
        """The mean loss over all the data at each row of W, with the margins
        of _F_ROWS rows at a time from one gemm X @ P.T, the rows in P and
        zeros below them. OpenBLAS gives a column of a gemm bits that depend
        on the product's shape but not on the column's place or the other
        columns, and numpy runs a product with one row or one column as a
        gemv: so P has one shape, X has at least two rows, and a row of W
        gets the same f however W is split."""
        X = self.X if self.n > 1 else np.vstack([self.X, self.X])
        f = np.empty(len(W))
        for a in range(0, len(W), _F_ROWS):
            rows = W[a : a + _F_ROWS]
            P = np.zeros((_F_ROWS, self.dim))
            P[: len(rows)] = rows
            T = (X @ P.T)[: self.n]
            T *= self.y[:, None]
            f[a : a + len(rows)] = [_mean_logistic_loss(T[:, j]) for j in range(len(rows))]
        return f

    def full_grad(self, w: Vector) -> Vector:
        return _grads(self.X, self.y, w)

    def batch_grads(self, W: np.ndarray) -> np.ndarray:
        """The minibatch gradient at the point W, or at each row of the stack W,
        on the next batch: row b is what the oracle gives a lone run at W[b]."""
        batch = self.next_batch()
        return _grads(self.X.take(batch, axis=0), self.y[batch], W)

    def problem(self, stochastic: bool = True) -> Problem:
        """Oracle view: full-loss values, batch (or full) gradients."""
        grads = self.batch_grads if stochastic else self.full_grad
        return Problem(subgradient=grads, values=self.full_values)
