"""Problem constructions, dataset parsing, logistic oracle correctness."""

import gc
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
import weakref
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dadapt.baselines import adagrad_norm_init, adagrad_norm_step
from dadapt.core import _BULK_MIN, _F_ROWS, Rng, Schedule, drive
from dadapt.problems import (
    Dataset,
    EpochOrders,
    LogisticProblem,
    ParseError,
    _grads,
    _mean_logistic_loss,
    abs_value_problem,
    logistic_value_grad,
    parse_libsvm,
    piecewise_max_problem,
    piecewise_start,
    random_piecewise_max,
    serialize_libsvm,
    synth_dataset,
)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def _datasets(draw) -> Dataset:
    n = draw(st.integers(0, 6))
    dim = draw(st.integers(0, 5)) if n else 0
    entries = st.lists(st.one_of(st.just(0.0), _FINITE), min_size=n * dim, max_size=n * dim)
    X = np.array(draw(entries), dtype=np.float64).reshape(n, dim)
    if dim:
        # the format has no way to write a trailing all-zero column
        X[draw(st.integers(0, n - 1)), -1] = draw(_FINITE.filter(lambda v: v != 0.0))
    y = np.array(draw(st.lists(st.sampled_from([1.0, -1.0]), min_size=n, max_size=n)))
    return Dataset(X=X, y=y)


class TestParser:
    def test_basic_line(self):
        ds = parse_libsvm("1 1:0.5 3:-2\n")
        assert ds.dim == 3
        assert len(ds) == 1
        assert ds.y.tolist() == [1.0]
        assert ds.X.tolist() == [[0.5, 0.0, -2.0]]

    def test_empty_text(self):
        ds = parse_libsvm("")
        assert len(ds) == 0
        assert ds.dim == 0
        assert ds.X.shape == (0, 0)

    def test_two_examples(self):
        ds = parse_libsvm("+1 2:1\n-1 1:1\n")
        assert len(ds) == 2
        assert ds.dim == 2
        assert ds.y.tolist() == [1.0, -1.0]
        assert ds.X.tolist() == [[0.0, 1.0], [1.0, 0.0]]

    def test_zero_label_maps_to_negative(self):
        ds = parse_libsvm("0 1:1\n")
        assert ds.y.tolist() == [-1.0]

    def test_crlf_and_comments(self):
        ds = parse_libsvm("# header\r\n+1 1:2.5 # trailing\r\n\r\n-1 2:1\r\n")
        assert len(ds) == 2
        assert ds.dim == 2
        assert ds.X[0, 0] == 2.5

    def test_error_carries_line_number(self):
        with pytest.raises(ParseError) as exc:
            parse_libsvm("+1 1:1\n-1 junk\n")
        assert exc.value.line == 2
        assert "line 2" in str(exc.value)

    def test_multiclass_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("3 1:1\n")

    def test_nonascending_indices_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 2:1 2:2\n")
        with pytest.raises(ParseError):
            parse_libsvm("+1 3:1 1:2\n")

    def test_zero_index_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 0:1\n")

    @pytest.mark.parametrize(
        "text, line",
        [("+1 268435457:1\n", 1), ("+1 134217729:1\n-1 1:1\n", 2)],
    )
    def test_dense_size_capped(self, text, line):
        # rows x dim past 2**28 cells is refused before X is allocated
        tracemalloc.start()
        try:
            with pytest.raises(ParseError) as exc:
                parse_libsvm(text)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert exc.value.line == line
        assert peak < 1 << 20

    def test_nonfinite_value_rejected(self):
        with pytest.raises(ParseError):
            parse_libsvm("+1 1:nan\n")

    def test_round_trip(self):
        ds = synth_dataset(seed=5, n_examples=20, dim=7, margin=0.25, flip=0.1)
        text = serialize_libsvm(ds)
        ds2 = parse_libsvm(text)
        assert ds2.dim == ds.dim
        assert len(ds2) == len(ds)
        assert np.array_equal(ds2.y, ds.y)
        assert np.array_equal(ds2.X, ds.X)  # repr round-trips exactly

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(ds=_datasets())
    def test_round_trip_random(self, ds):
        back = parse_libsvm(serialize_libsvm(ds))
        assert back.X.shape == ds.X.shape
        assert np.array_equal(back.X, ds.X)
        assert np.array_equal(back.y, ds.y)

    def test_serialize_empty(self):
        assert serialize_libsvm(Dataset(X=np.zeros((0, 0)), y=np.zeros(0))) == ""

    def test_serialize_writes_nonzero_entries(self):
        X = np.array([[0.0, 1.5, 0.0, -2.0], [0.0, 0.0, 0.0, 0.0]])
        ds = Dataset(X=X, y=np.array([1.0, -1.0]))
        assert serialize_libsvm(ds) == "+1 2:1.5 4:-2.0\n-1\n"


class TestSynthDataset:
    def test_deterministic(self):
        a = synth_dataset(seed=1, n_examples=30, dim=5)
        b = synth_dataset(seed=1, n_examples=30, dim=5)
        assert np.array_equal(a.y, b.y)
        assert np.array_equal(a.X, b.X)

    def test_seed_changes_data(self):
        a = synth_dataset(seed=1, n_examples=30, dim=5)
        b = synth_dataset(seed=2, n_examples=30, dim=5)
        assert not np.array_equal(a.X[0], b.X[0])

    @pytest.mark.parametrize(
        "seed, n, dim, margin, flip",
        [(0, 40, 7, 0.3, 0.2), (17, 25, 4, 0.0, 0.0), (2, 1400, 51, 0.5, 0.05), (3, 3, 1, 1.0, 0.5)],
    )
    def test_equals_scalar_draws(self, seed, n, dim, margin, flip):
        # the example-by-example loop on scalar draws is the reference; the
        # 1400 x 51 case spans two bulk blocks and carries a spare normal
        rng = Rng(seed, stream_id=0)
        w = np.array([rng.normal() for _ in range(dim)])
        w /= math.sqrt(float(w @ w))
        ds = synth_dataset(seed, n, dim, margin=margin, flip=flip)
        assert len(ds) == n and ds.dim == dim
        for row, got in zip(ds.X, ds.y):
            x = np.array([rng.normal() for _ in range(dim)])
            label = 1 if float(w @ x) >= 0.0 else -1
            x = x + margin * label * w
            if flip > 0.0 and rng.uniform() < flip:
                label = -label
            assert row.tobytes() == x.tobytes()
            assert got == label

    @pytest.mark.parametrize("n, dim", [(300, 1), (200, 2), (100, 20), (60, 51)])
    def test_labels_match_per_row_dots(self, n, dim):
        # the row-by-row float(w @ x) labels, against the one np.vecdot pass
        for seed in range(30):
            rng = Rng(seed, stream_id=0)
            w = rng.normals(dim)
            w /= math.sqrt(float(w @ w))
            ds = synth_dataset(seed, n, dim)
            want = [1.0 if float(w @ x) >= 0.0 else -1.0 for x in ds.X]
            assert ds.y.tolist() == want

    def test_validation(self):
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_examples=0, dim=5)
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_examples=5, dim=0)
        with pytest.raises(ValueError):
            synth_dataset(seed=0, n_examples=5, dim=5, flip=1.0)

    def test_huge_margin_is_nearly_separable(self):
        # with a wide margin and no flips a linear model drives the loss
        # far below the w=0 value of log 2
        ds = synth_dataset(seed=3, n_examples=100, dim=4, margin=10.0)
        lp = LogisticProblem(ds, batch_size=100)
        w = np.zeros(lp.dim)
        for _ in range(200):
            g = lp.full_grad(w)
            w -= 5.0 * g
        assert lp.problem().value(w) < 0.05


class TestLogisticOracle:
    def test_zero_weights_give_log2(self):
        ds = synth_dataset(seed=7, n_examples=50, dim=6)
        lp = LogisticProblem(ds, batch_size=50)
        w = np.zeros(lp.dim)
        assert lp.problem().value(w) == pytest.approx(math.log(2.0), rel=1e-15)

    def test_zero_weights_gradient(self):
        # at w=0 the per-example gradient is -y*x/2; the batch gradient is
        # the mean of those
        ds = parse_libsvm("+1 1:2\n-1 2:4\n")
        lp = LogisticProblem(ds, batch_size=2)
        g = lp.full_grad(np.zeros(lp.dim))
        # features gain a bias column of ones at the end
        expected = -(
            1.0 * np.array([2.0, 0.0, 1.0]) + (-1.0) * np.array([0.0, 4.0, 1.0])
        ) / (2.0 * 2.0)
        np.testing.assert_allclose(g, expected, rtol=0, atol=1e-16)

    def test_extreme_margin_stability(self):
        X = np.array([[1.0], [1.0]])
        y = np.array([1.0, -1.0])
        for w0 in (50.0, -50.0):
            loss, grad = logistic_value_grad(X, y, np.array([w0]))
            assert math.isfinite(loss)
            assert np.all(np.isfinite(grad))
        # the saturated side contributes ~0, the violated side ~|t|
        loss, _ = logistic_value_grad(X, y, np.array([50.0]))
        assert loss == pytest.approx(25.0, rel=1e-10)

    def test_batch_mean_consistency(self):
        # mean over a batch equals the average of single-example losses
        ds = synth_dataset(seed=11, n_examples=16, dim=3)
        lp = LogisticProblem(ds, batch_size=16)
        w = Rng(0, 5).normals(lp.dim)
        batch = np.arange(16)
        loss, grad = logistic_value_grad(lp.X[batch], lp.y[batch], w)
        singles = [logistic_value_grad(lp.X[[i]], lp.y[[i]], w) for i in range(16)]
        assert loss == pytest.approx(
            sum(s[0] for s in singles) / 16.0, rel=1e-15
        )
        np.testing.assert_allclose(
            grad, sum(s[1] for s in singles) / 16.0, rtol=1e-15
        )

    def test_full_grad_matches_brute_force(self):
        ds = synth_dataset(seed=7, n_examples=100, dim=10)
        lp = LogisticProblem(ds, batch_size=16)
        w = Rng(7, 6).normals(lp.dim)
        # per-example summation straight from the loss definition
        acc = np.zeros(lp.dim)
        for i in range(100):
            t = lp.y[i] * float(lp.X[i] @ w)
            sigma_neg = 1.0 / (1.0 + math.exp(t))
            acc += -lp.y[i] * sigma_neg * lp.X[i]
        np.testing.assert_allclose(lp.full_grad(w), acc / 100.0, rtol=1e-12)

    def test_full_value_is_the_loss_of_value_grad(self):
        # over random weights, w = 0 (every margin t = 0) and weights large
        # enough to saturate both tails of the loss: the oracle's value is
        # full_values at one point and the loss of the point's own gemm, bit for bit.
        # logistic_value_grad takes its margins from the gemv X @ w, so its
        # loss agrees within the margins' dot product bound (check_full_values),
        # each term being 1-Lipschitz in its margin, plus the rounding of the
        # terms and their mean on each side, under 32 units of 2^-53 each
        ds = synth_dataset(seed=5, n_examples=200, dim=6, flip=0.2)
        lp = LogisticProblem(ds, batch_size=16)
        rng = Rng(5, 7)
        large = 1e3 * rng.normals(lp.dim)
        t = lp.y * (lp.X @ large)
        assert t.min() < -800.0 and t.max() > 800.0  # exp(-t) over- and underflows
        W = np.vstack([rng.normals(lp.dim), np.zeros(lp.dim), large, -large])
        _, want = own_gemm_losses(lp, W)
        bound = 2 * lp.dim * 2.0**-53 * (np.abs(lp.X) @ np.abs(W).T)
        for w, f, margin_bound in zip(W, want.tolist(), bound.T):
            assert lp.problem().value(w) == lp.full_values(w[None])[0] == f
            loss, _ = logistic_value_grad(lp.X, lp.y, w)
            assert math.isfinite(loss)
            assert abs(loss - f) <= margin_bound.mean() + 64 * 2.0**-53 * loss

    def test_oracle_gradients_are_those_of_value_grad(self):
        # bit for bit: 16-row and 1-row minibatches and the full batch, with
        # margins past +-800, where exp(-t) over- and underflows
        ds = synth_dataset(seed=5, n_examples=200, dim=6, flip=0.2)
        rng = Rng(5, 7)
        large = 1e3 * rng.normals(ds.dim + 1)
        weights = [rng.normals(ds.dim + 1), np.zeros(ds.dim + 1), large, -large]
        for batch_size in (16, 1):
            oracle = LogisticProblem(ds, batch_size=batch_size, seed=3)
            twin = LogisticProblem(ds, batch_size=batch_size, seed=3)  # same batches
            subgradient = oracle.problem().subgradient
            for w in weights:
                batch = twin.next_batch()
                _, grad = logistic_value_grad(oracle.X[batch], oracle.y[batch], w)
                assert np.array_equal(subgradient(w), grad)
        lp = LogisticProblem(ds, batch_size=16)
        t = lp.y * (lp.X @ large)
        assert t.min() < -800.0 and t.max() > 800.0
        full = lp.problem(stochastic=False).subgradient
        for w in weights:
            _, grad = logistic_value_grad(lp.X, lp.y, w)
            assert np.array_equal(full(w), grad)
            assert np.array_equal(lp.full_grad(w), grad)

    @pytest.mark.parametrize("scale", [0.1, 1.0, 10.0, 100.0, 300.0])
    def test_mean_loss_matches_exact_sum(self, scale):
        # the terms' exact sum over max(z, 0) + log1p(exp(-|z|)), z = -t, from libm
        t = np.random.default_rng(int(scale * 10)).standard_normal(10000) * scale
        terms = (max(z, 0.0) + math.log1p(math.exp(-abs(z))) for z in (-t).tolist())
        ref = math.fsum(terms) / t.size
        saved = t.copy()
        assert abs(_mean_logistic_loss(t) - ref) <= 4 * np.spacing(ref)
        assert np.array_equal(t, saved)

    def test_loss_terms_at_the_edges(self):
        # each one-margin mean is the term for z = -t, against logaddexp(0, z)
        exact = [0.0, -0.0, 800.0, -800.0, math.inf, -math.inf]
        close = [36.0, -36.0, 745.0, -745.0, 1e308, -1e308]
        for z in exact + close:
            got = _mean_logistic_loss(np.array([-z]))
            want = float(np.logaddexp(0.0, z))
            if z in exact:
                assert got == want, z
            else:
                assert abs(got - want) <= 2 * np.spacing(want), z
        assert math.isnan(_mean_logistic_loss(np.array([math.nan])))

    def test_huge_infinite_and_nan_margins_raise_no_warning(self):
        # the margins y * (X @ w) are w[0] times (1, -1, 0.5): huge, infinite or NaN
        lp = LogisticProblem(Dataset(X=np.array([[1.0], [-1.0], [0.5]]), y=np.ones(3)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert math.isfinite(lp.problem().value(np.array([1e308, 0.0])))
            assert lp.problem().value(np.array([math.inf, 0.0])) == math.inf
            assert math.isnan(lp.problem().value(np.array([math.nan, 0.0])))
            margins = np.array([1e308, -1e308, math.inf, -math.inf, math.nan])
            assert math.isnan(_mean_logistic_loss(margins))
            assert _mean_logistic_loss(margins[:4]) == math.inf

    def test_full_value_leaves_its_inputs_unchanged(self):
        ds = synth_dataset(seed=3, n_examples=64, dim=4, flip=0.2)
        lp = LogisticProblem(ds, batch_size=8)
        w = Rng(3, 7).normals(lp.dim)
        saved = lp.X.copy(), lp.y.copy(), w.copy()
        first = lp.problem().value(w)
        assert all(np.array_equal(a, b) for a, b in zip((lp.X, lp.y, w), saved))
        assert lp.problem().value(w) == first

    def test_bias_column(self):
        ds = parse_libsvm("+1 1:3\n")
        lp = LogisticProblem(ds, batch_size=1)
        assert lp.dim == 2
        assert lp.X[0, -1] == 1.0

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            LogisticProblem(Dataset(X=np.zeros((0, 0)), y=np.zeros(0)))

    @pytest.mark.parametrize("batch_size", [0, -5])
    def test_batch_size_below_one_rejected(self, batch_size):
        ds = synth_dataset(seed=7, n_examples=5, dim=2)
        with pytest.raises(ValueError, match="batch_size"):
            LogisticProblem(ds, batch_size=batch_size)

    def test_over_large_batch_is_the_whole_dataset(self):
        ds = synth_dataset(seed=7, n_examples=5, dim=2)
        assert LogisticProblem(ds, batch_size=100).batch_size == 5


def _margins_grad_out_of_place(X, y, w):
    """The margins and the gradient as written before _grads worked in place
    on its own arrays, one gemv at a time."""
    t = y * (X @ w)
    coeff = -y * np.exp(-np.logaddexp(0.0, t))
    return t, X.T @ coeff / X.shape[0]


def _read_only(*arrays):
    for a in arrays:
        a.flags.writeable = False
    return arrays


def _assert_grads_are_the_reference(X, y, W):
    """_grads at each row of W alone, and at the stack W, against the
    reference at each row: every bit."""
    stacked = _grads(X, y, W)
    assert stacked.shape == W.shape
    for w, row in zip(W, stacked):
        want = _margins_grad_out_of_place(X, y, w)[1].tobytes()
        assert _grads(X, y, w).tobytes() == want
        assert row.tobytes() == want


class TestMarginsGradInPlace:
    """The in-place _grads, at a point and on a stack, and the take() gather keep every bit."""

    @pytest.mark.parametrize("scale", [1e-3, 1.0, 30.0, 800.0, 1e150])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_margins(self, seed, scale):
        gen = np.random.default_rng(seed)
        n, dim, k = gen.integers(1, 40), gen.integers(1, 12), gen.integers(1, 9)
        X, y, W = _read_only(
            gen.standard_normal((n, dim)),
            gen.choice([-1.0, 1.0], n),
            scale * gen.standard_normal((k, dim)),
        )
        with np.errstate(over="ignore"):
            _assert_grads_are_the_reference(X, y, W)
            _assert_grads_are_the_reference(X[:1], y[:1], W)  # a one-row batch

    def test_extreme_margins(self):
        # margins of 0, +-0, +-huge, +-inf and NaN, one row each
        col = np.array([0.0, -0.0, 1.0, -1.0, 1e-310, 700.0, -750.0, 1e300, -1e300,
                        np.inf, -np.inf, np.nan])
        X = np.column_stack([col, np.ones_like(col)])
        y = np.where(np.arange(col.size) % 2, 1.0, -1.0)
        W = np.array([[w0, 0.0] for w0 in (1.0, -1.0, 0.0, 1e10)])
        _read_only(X, y, W)
        with np.errstate(over="ignore", invalid="ignore"):
            _assert_grads_are_the_reference(X, y, W)
            for i in range(col.size):  # a NaN row alone, not summed away
                _assert_grads_are_the_reference(X[i : i + 1], y[i : i + 1], W)

    def test_inputs_unwritten(self):
        ds = synth_dataset(seed=3, n_examples=40, dim=5)
        lp = LogisticProblem(ds, batch_size=7)
        W = Rng(0, 5).normals(3 * lp.dim).reshape(3, lp.dim)
        copies = [a.copy() for a in (lp.X, lp.y, W)]
        grads = [_grads(lp.X, lp.y, W[0]), _grads(lp.X, lp.y, W)]
        for a, before in zip((lp.X, lp.y, W), copies):
            assert a.tobytes() == before.tobytes()
        for out in grads:  # fresh arrays, not views of the inputs
            assert not any(np.shares_memory(out, a) for a in (lp.X, lp.y, W))

    def test_take_gathers_the_same_rows(self):
        ds = synth_dataset(seed=3, n_examples=37, dim=4)
        lp = LogisticProblem(ds, batch_size=16)
        batches = [lp.next_batch() for _ in range(7)] + [np.array([5, 5, 0, 36]), np.array([], int)]
        for batch in batches:
            taken = lp.X.take(batch, axis=0)
            assert taken.flags.c_contiguous and taken.tobytes() == lp.X[batch].tobytes()

    def test_oracle_gradients_unchanged(self):
        # the minibatch oracle against the fancy-indexed, out-of-place reference
        ds = synth_dataset(seed=5, n_examples=50, dim=6, flip=0.1)
        oracle = LogisticProblem(ds, batch_size=8, seed=2).problem()
        ref = LogisticProblem(ds, batch_size=8, seed=2)
        w = Rng(1, 5).normals(ref.dim)
        for _ in range(15):
            batch = ref.next_batch()
            want = _margins_grad_out_of_place(ref.X[batch], ref.y[batch], w)[1]
            assert oracle.subgradient(w).tobytes() == want.tobytes()


def own_gemm_losses(lp: LogisticProblem, W: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The (N, K) margins X @ w of the rows w of W, each from a gemm that
    holds the row alone in an _F_ROWS-row block of zeros, X doubled when it
    has one row; and the mean loss at each row."""
    X = np.vstack([lp.X, lp.X]) if lp.n == 1 else lp.X
    T = np.empty((lp.n, len(W)))
    for j, w in enumerate(W):
        P = np.zeros((_F_ROWS, lp.dim))
        P[0] = w
        T[:, j] = (X @ P.T)[: lp.n, 0]
    return T, np.array([_mean_logistic_loss(lp.y * T[:, j]) for j in range(len(W))])


def check_full_values(lp: LogisticProblem, W: np.ndarray) -> None:
    """full_values bit for bit against own_gemm_losses, for every chunking
    of W into runs of c rows; and each of those margins against the gemv
    X @ w within the dot product's error bound, 2 * dim * 2**-53 * (|X| @ |w|),
    and NaN or inf where the gemv is."""
    T, want = own_gemm_losses(lp, W)
    for c in range(1, len(W) + 1):
        got = [lp.full_values(W[i : i + c]) for i in range(0, len(W), c)]
        assert all(v.dtype == np.float64 for v in got)
        assert np.concatenate(got).tobytes() == want.tobytes(), f"in chunks of {c} of {len(W)}"
    gemv = np.array([lp.X @ w for w in W]).reshape(len(W), lp.n).T
    bound = 2 * lp.dim * 2.0**-53 * (np.abs(lp.X) @ np.abs(W).T)
    finite = np.isfinite(gemv)
    assert (np.abs(T - gemv)[finite] <= bound[finite]).all()
    assert np.array_equal(T[~finite], gemv[~finite], equal_nan=True)


# check_full_values in a child process, on small data and at 10001 x 50
_FULL_VALUES_SWEEP = """
import numpy as np
from dadapt.problems import Dataset, LogisticProblem
from test_problems import check_full_values
rng = np.random.default_rng(11)
for n, dim in [(1, 3), (511, 8), (1100, 17), (4999, 60), (10001, 50)]:
    X = rng.standard_normal((n, dim))
    lp = LogisticProblem(Dataset(X=X, y=np.where(rng.random(n) < 0.5, 1.0, -1.0)))
    for k in (1 + dim % 17, 17):
        check_full_values(lp, rng.standard_normal((k, dim + 1)) * 10.0 ** rng.uniform(-3, 3, (k, 1)))
"""


@st.composite
def _full_values_cases(draw):
    """A dataset of N rows, from 1 to past the gemm's blocks, and K weight
    rows, some huge, some -0.0 and some NaN."""
    n = draw(st.sampled_from([1, 2, 7, 511, 512, 513, 1024, 1025, 1100, 1537]))
    dim = draw(st.integers(1, 60))
    k = draw(st.integers(1, 17))
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    X = rng.standard_normal((n, dim))
    y = np.where(rng.random(n) < 0.5, 1.0, -1.0)
    W = rng.standard_normal((k, dim + 1)) * 10.0 ** rng.uniform(-3, 3, (k, 1))
    for row in draw(st.lists(st.integers(0, k - 1), max_size=3)):
        kind = draw(st.sampled_from(["huge", "-0.0", "nan"]))
        if kind == "huge":  # margins past 1e300, some overflowing to inf
            with np.errstate(over="ignore"):
                W[row] *= 1e300
        elif kind == "-0.0":
            W[row] = -0.0
        else:
            W[row, draw(st.integers(0, dim))] = math.nan
    return Dataset(X=X, y=y), W


class TestFullValues:
    @settings(max_examples=200, deadline=None)
    @given(_full_values_cases())
    def test_bit_equal_to_each_rows_own_gemm_in_any_chunks(self, case):
        dataset, W = case
        with np.errstate(over="ignore", invalid="ignore"):  # a huge row overflows X @ w
            check_full_values(LogisticProblem(dataset), W)

    def test_bit_equal_under_a_second_blas_kernel(self):
        # check_full_values under OpenBLAS's Haswell kernel and on two of its
        # threads, each set in a child's environment alone
        paths = [str(Path(__file__).resolve().parents[1] / "src"), str(Path(__file__).parent)]
        for setting in ({"OPENBLAS_CORETYPE": "Haswell"}, {"OPENBLAS_NUM_THREADS": "2"}):
            env = {**os.environ, **setting}
            env["PYTHONPATH"] = os.pathsep.join(filter(None, [*paths, env.get("PYTHONPATH")]))
            done = subprocess.run(
                [sys.executable, "-c", _FULL_VALUES_SWEEP], env=env, capture_output=True,
                text=True,
            )
            assert done.returncode == 0, f"{setting}: {done.stderr}"

    def test_no_warning_and_inputs_unwritten(self):
        lp = LogisticProblem(synth_dataset(seed=3, n_examples=1100, dim=4, flip=0.2))
        W = np.vstack([Rng(3, 7).normals(lp.dim), np.full(lp.dim, -0.0), np.zeros(lp.dim)])
        W = np.vstack([W, [[1e300, 0.0, 0.0, 0.0, 0.0], [math.nan, 0.0, 0.0, 0.0, 0.0]]])
        saved = lp.X.copy(), lp.y.copy(), W.copy()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = lp.full_values(W)
        assert got[:3].tolist() == lp.full_values(W[:3]).tolist()
        assert got[2] == math.log(2.0) and math.isnan(got[4])
        assert all(a.tobytes() == b.tobytes() for a, b in zip((lp.X, lp.y, W), saved))

    def test_no_rows(self):
        lp = LogisticProblem(synth_dataset(seed=3, n_examples=10, dim=2))
        assert lp.full_values(np.empty((0, 3))).shape == (0,)


class TestBatching:
    def test_epoch_covers_every_example(self):
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        lp = LogisticProblem(ds, batch_size=16, seed=1)
        seen = np.concatenate([lp.next_batch() for _ in range(lp.batches_per_epoch())])
        assert sorted(seen.tolist()) == list(range(37))
        assert lp.batches_per_epoch() == 3  # 16 + 16 + 5

    def test_short_final_batch_kept(self):
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        lp = LogisticProblem(ds, batch_size=16, seed=1)
        sizes = [len(lp.next_batch()) for _ in range(3)]
        assert sizes == [16, 16, 5]

    def test_fresh_permutation_each_epoch(self):
        ds = synth_dataset(seed=9, n_examples=8, dim=2)
        lp = LogisticProblem(ds, batch_size=8, seed=1)
        first = lp.next_batch().copy()
        second = lp.next_batch().copy()
        assert sorted(first.tolist()) == sorted(second.tolist())
        assert not np.array_equal(first, second)  # reshuffled

    def test_batches_are_slices_of_seeded_permutations(self):
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        lp = LogisticProblem(ds, batch_size=16, seed=4)
        rng = Rng(4, 2)
        for _ in range(3):
            order = rng.permutation(37)
            for start in (0, 16, 32):
                assert np.array_equal(lp.next_batch(), order[start : start + 16])

    def test_lone_problem_keeps_one_epoch_order(self):
        # a lone run holds only the order it reads; a shared source, as a
        # grid's, keeps every order it has drawn for the runs after it
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        for shared, kept in ((None, 1), ({}, 3)):
            lp = LogisticProblem(replace(ds, shared_orders=shared), batch_size=16, seed=4)
            orders = []
            for _ in range(3):
                orders.append(weakref.ref(lp.next_batch().base))  # a batch views its order
                lp.next_batch()
                lp.next_batch()
            gc.collect()
            assert sum(ref() is not None for ref in orders) == kept

    def test_shared_orders_match_lone_ones(self):
        # a run that stops in epoch 0 and one that reads on see the orders of lone runs
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        shared = replace(ds, shared_orders={})
        lone = LogisticProblem(ds, batch_size=16, seed=4)
        LogisticProblem(shared, batch_size=16, seed=4).next_batch()
        later = LogisticProblem(shared, batch_size=16, seed=4)
        for _ in range(9):
            assert np.array_equal(later.next_batch(), lone.next_batch())
        assert list(shared.shared_orders) == [4]

    @pytest.mark.parametrize("keep", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 37, _BULK_MIN, _BULK_MIN + 1, _BULK_MIN + 2])
    def test_epoch_orders_are_successive_permutations(self, n, keep, monkeypatch):
        # short orders come several to a draw, long ones one at a time; either
        # way epoch e's order is the (e+1)-th permutation of the seed's stream
        ref = Rng(6, 2)
        want = [ref.permutation(n) for _ in range(19)]
        drawn = []
        real = Rng.permutations

        def counted(self, n, count):
            drawn.append(count)
            return real(self, n, count)

        monkeypatch.setattr(Rng, "permutations", counted)
        orders = EpochOrders(n, seed=6, keep=keep)
        for epoch, order in enumerate(want):
            got = orders(epoch)
            assert got.dtype == order.dtype and np.array_equal(got, order)
            # drawn ahead: never more than the orders already read
            assert epoch + 1 <= sum(drawn) <= 2 * epoch + 1
            if n - 1 >= _BULK_MIN:
                assert drawn == [1] * (epoch + 1)
        if keep:  # every order drawn stays readable, in any order
            for epoch in (3, 0, 18, 7):
                assert np.array_equal(orders(epoch), want[epoch])
        else:
            assert orders(18) is orders(18)
            with pytest.raises(KeyError):  # let go once a later one was read
                orders(17)

    @pytest.mark.parametrize("steps, epochs", [(1, 1), (10, 1), (11, 2), (35, 4), (70, 7)])
    def test_orders_drawn_no_further_than_the_epochs_a_run_reads(self, steps, epochs, monkeypatch):
        # 37 examples in batches of 4 make 10 batches an epoch; bulk draws of
        # 1, 2, 4, ... orders stop at the epochs the run's steps read, and a
        # reader past them draws one order at a time
        ref = Rng(4, 2)
        want = [ref.permutation(37) for _ in range(epochs + 2)]
        drawn = []
        real = Rng.permutations
        monkeypatch.setattr(
            Rng, "permutations", lambda rng, n, count: drawn.append(count) or real(rng, n, count)
        )
        ds = replace(synth_dataset(seed=9, n_examples=37, dim=2), shared_orders={})
        lp = LogisticProblem(ds, batch_size=4, seed=4, steps=steps)
        for k in range(10 * (epochs + 2)):
            if k == steps:
                assert sum(drawn) == epochs
                within = len(drawn)
            epoch, i = divmod(k, 10)
            assert np.array_equal(lp.next_batch(), want[epoch][4 * i : 4 * i + 4])
        assert drawn[within:] == [1, 1]

    def test_runs_over_one_dataset_share_one_bias_matrix(self):
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        a = LogisticProblem(ds, batch_size=16, seed=4)
        b = LogisticProblem(ds, batch_size=8, seed=5)
        assert a.X is b.X is ds.with_bias
        want = np.hstack([ds.X, np.ones((37, 1))])
        assert a.X.tobytes() == want.tobytes() and a.X.shape == (37, 3)
        with pytest.raises(ValueError):
            a.X[0, 0] = 1.0  # shared, so read-only
        assert LogisticProblem(replace(ds, shared_orders={})).X is not a.X

    def test_batch_order_reproducible(self):
        ds = synth_dataset(seed=9, n_examples=37, dim=2)
        a = LogisticProblem(ds, batch_size=16, seed=4)
        b = LogisticProblem(ds, batch_size=16, seed=4)
        for _ in range(7):
            assert np.array_equal(a.next_batch(), b.next_batch())


class TestSubgradientValidity:
    """f(y) >= f(x) + <g, y - x> for every returned g."""

    def _check(self, problem, dim, rng, pairs=1000, scale=2.0):
        worst = 0.0
        for _ in range(pairs):
            x = rng.normals(dim) * scale
            y = rng.normals(dim) * scale
            g = problem.subgradient(x)
            gap = problem.value(y) - problem.value(x) - float(g @ (y - x))
            worst = min(worst, gap)
        assert worst >= -1e-9, f"subgradient inequality violated by {worst}"

    def test_abs(self):
        self._check(abs_value_problem(), 1, Rng(0, 7))

    def test_random_piecewise(self):
        rng = Rng(1, 7)
        prob = random_piecewise_max(rng, dim=6, pieces=9)
        self._check(prob, 6, rng)

    def test_full_batch_logistic(self):
        ds = synth_dataset(seed=13, n_examples=40, dim=4)
        model = LogisticProblem(ds, batch_size=40)
        self._check(model.problem(stochastic=False), model.dim, Rng(2, 7), pairs=300)


class TestPiecewiseConstruction:
    def test_minimizer_is_argmin(self):
        for seed in range(20):
            rng = Rng(seed, 8)
            prob = random_piecewise_max(rng, dim=5, pieces=7)
            fstar = prob.value(prob.known_minimizer)
            assert fstar == pytest.approx(prob.known_fstar, abs=1e-9)
            for _ in range(50):
                x = prob.known_minimizer + rng.normals(5)
                assert prob.value(x) >= fstar - 1e-9

    def test_all_pieces_active_at_minimizer(self):
        rng = Rng(3, 8)
        prob = random_piecewise_max(rng, dim=4, pieces=6)
        # reconstruct the scores via small probes: at x_star every piece
        # attains the max, which forces the slopes to sum against offsets
        # exactly; value(x_star) == fstar already checks the max, so probe
        # each direction to confirm multiple pieces trade activations
        x = prob.known_minimizer
        seen = set()
        for _ in range(200):
            d = rng.normals(4)
            g = prob.subgradient(x + 1e-6 * d)
            seen.add(tuple(np.round(g, 6)))
        assert len(seen) > 1

    def test_lipschitz_constants_exact(self):
        slopes = np.array([[3.0, 4.0], [-3.0, -4.0]])
        offsets = np.zeros(2)
        prob = piecewise_max_problem(slopes, offsets)
        assert prob.lipschitz == 5.0
        assert prob.lipschitz_inf == 4.0

    def test_validation(self):
        with pytest.raises(ValueError):
            piecewise_max_problem(np.zeros(3), np.zeros(3))
        with pytest.raises(ValueError):
            random_piecewise_max(Rng(0, 8), dim=0)
        with pytest.raises(ValueError):
            random_piecewise_max(Rng(0, 8), pieces=1)

    def test_start_draws_problem_then_direction(self):
        prob, x0 = piecewise_start(5, dim=4, pieces=3, distance=2.5)
        rng = Rng(5, stream_id=1)
        same = random_piecewise_max(rng, dim=4, pieces=3)
        assert np.array_equal(prob.known_minimizer, same.known_minimizer)
        direction = rng.normals(4)
        assert np.allclose(x0 - prob.known_minimizer, 2.5 * direction / np.linalg.norm(direction))
        assert np.linalg.norm(x0 - prob.known_minimizer) == pytest.approx(2.5, rel=1e-12)


_TIE_PRONE = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5])
_SLOPE = st.one_of(_TIE_PRONE, st.floats(-1e3, 1e3))
_POINT = st.one_of(_SLOPE, st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def _piecewise_cases(draw):
    """Slopes whose rows repeat (tied pieces), offsets and a stack of 1 to
    17 points that may hold NaN, infinities and signed zeros."""
    dim = draw(st.integers(1, 4))
    pool = draw(st.lists(st.lists(_SLOPE, min_size=dim, max_size=dim), min_size=1, max_size=3))
    rows = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=6))
    offsets = draw(st.lists(_SLOPE, min_size=len(rows), max_size=len(rows)))
    point = st.lists(_POINT, min_size=dim, max_size=dim)
    X = draw(st.lists(point, min_size=1, max_size=17))
    return np.array(rows), np.array(offsets), np.array(X)


class TestPiecewiseValues:
    @settings(max_examples=400, deadline=None)
    @given(_piecewise_cases())
    @example((np.array([[1.0], [1.0]]), np.array([-0.0, 0.0]), np.array([[0.0]])))
    @example((np.array([[-1.0], [1.0]]), np.array([-0.0, -0.0]), np.array([[0.0]])))
    @example((np.array([[1.0], [2.0]]), np.array([0.0, 0.0]), np.array([[math.nan]])))
    @example((np.array([[1.0], [-1.0]]), np.array([0.0, 0.0]), np.array([[math.inf]])))
    def test_bit_equal_to_value_row_by_row(self, case):
        # the reference is each row's own gemv slopes @ x; a row's f is the same
        # in the stack as alone
        slopes, offsets, X = case
        prob = piecewise_max_problem(slopes, offsets)
        with np.errstate(invalid="ignore", over="ignore"):  # inf * 0 in the scores
            F = prob.values(X)
            want = np.array([float((slopes @ x + offsets).max()) for x in X])
            alone = np.array([prob.value(x) for x in X])
        assert F.shape == (X.shape[0],) and F.dtype == np.float64
        assert F.tobytes() == want.tobytes() == alone.tobytes()

    def test_subgradient_ties_take_the_lowest_index(self):
        slopes = np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 0.0]])
        prob = piecewise_max_problem(slopes, np.zeros(3))
        g = prob.subgradient(np.array([1.0, 1.0]))
        assert g.tolist() == [0.0, 1.0]
        g[0] = 5.0  # a copy, not a view of the slopes
        assert prob.subgradient(np.array([1.0, 1.0])).tolist() == [0.0, 1.0]


class TestAbsProblem:
    def test_contract(self):
        prob = abs_value_problem()
        assert prob.value(np.array([-2.5])) == 2.5
        assert prob.subgradient(np.array([-2.5]))[0] == -1.0
        assert prob.subgradient(np.array([0.0]))[0] == 0.0
        assert prob.known_fstar == 0.0
        assert prob.lipschitz == 1.0

    def test_values_is_abs_bit_for_bit(self):
        v = [0.0, -0.0, math.inf, -math.inf, math.nan, -5e-324, 2.5e-310, 1e308, -1e308]
        prob = abs_value_problem()
        F = prob.values(np.array(v)[:, None])
        want = np.array([abs(float(x)) for x in v])
        assert F.dtype == np.float64 and F.tobytes() == want.tobytes()
        assert np.array([prob.value(np.array([x])) for x in v]).tobytes() == want.tobytes()

    def test_drive_takes_f_through_values_as_bound_at_call(self):
        # drive looks up subgradient and values once a run and calls values
        # once a buffer: here one call for the two cadence points
        prob = abs_value_problem()
        calls = []
        values, subgradient = prob.values, prob.subgradient
        prob.values = lambda X: calls.append(("values", len(X))) or values(X)
        prob.subgradient = lambda x: calls.append("subgradient") or subgradient(x)
        state = adagrad_norm_init(np.array([-2.0]), radius=1.0)
        drive(prob, state, adagrad_norm_step, 3, Schedule(), 2)
        assert calls == ["subgradient"] * 3 + [("values", 2)]
        assert repr(state.traj.extra("f")) == repr([2.0, math.nan, 1.0])
