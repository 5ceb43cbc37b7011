"""Core primitives: RNG streams, schedules, trajectories, averaging."""

import csv
import io
import math
import struct
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from dadapt.convex import da_init, da_step
from dadapt.core import (
    _BLOCK,
    _BULK_MIN,
    _CHARPOLY,
    _F_ROWS,
    DIVERGENCE_NORM,
    STEP_COLUMNS,
    AtStart,
    ConfigError,
    Diverged,
    Problem,
    Rng,
    Schedule,
    Trajectory,
    _dot,
    csv_text,
    drive,
    schedule_eval,
)
from dadapt.ml import sgd_da_init, sgd_da_step
from dadapt.problems import LogisticProblem, synth_dataset
from test_problems import own_gemm_losses


class TestRng:
    def test_same_seed_same_stream_identical(self):
        a = Rng(42, 0)
        b = Rng(42, 0)
        assert [a.u64() for _ in range(100)] == [b.u64() for _ in range(100)]

    def test_stream_separation(self):
        a = Rng(42, 0)
        b = Rng(42, 1)
        assert [a.u64() for _ in range(100)] != [b.u64() for _ in range(100)]

    def test_uniform_range(self):
        rng = Rng(42, 0)
        draws = [rng.uniform() for _ in range(1000)]
        assert all(0.0 <= u < 1.0 for u in draws)

    def test_normal_moments(self):
        rng = Rng(7, 0)
        xs = rng.normals(20000)
        assert abs(float(xs.mean())) < 0.05
        assert abs(float(xs.std()) - 1.0) < 0.05

    def test_integer_range_and_determinism(self):
        rng = Rng(3, 5)
        draws = [rng.integer(7) for _ in range(500)]
        assert all(0 <= v < 7 for v in draws)
        assert set(draws) == set(range(7))
        rng2 = Rng(3, 5)
        assert draws == [rng2.integer(7) for _ in range(500)]

    def test_integer_bound_above_two_to_64_rejected(self):
        # there 2^64 mod n is 2^64, so the rejection threshold would be 0
        with pytest.raises(ValueError):
            Rng(3, 5).integer(2**64 + 1)

    def test_integer_two_to_64_is_one_draw(self):
        # nothing is rejected at n = 2^64: integer() returns u64() itself
        rng, twin = Rng(3, 5), Rng(3, 5)
        assert [rng.integer(2**64) for _ in range(4)] == [twin.u64() for _ in range(4)]

    def test_permutation_is_permutation(self):
        rng = Rng(11, 0)
        perm = rng.permutation(50)
        assert sorted(perm) == list(range(50))
        rng2 = Rng(11, 0)
        assert np.array_equal(perm, rng2.permutation(50))

    def test_cross_seed_difference(self):
        assert Rng(1, 0).u64() != Rng(2, 0).u64()

    def test_known_answer(self):
        # recorded from the scalar generator before it had bulk draws
        rng = Rng(0, 0)
        assert [rng.u64() for _ in range(4)] == [
            0x422EA740D0977210,
            0xE062B061B42E2928,
            0x5A071FC5930841B6,
            0x01334EF8ED3CC2BD,
        ]
        rng = Rng(0, 0)
        assert [rng.normal() for _ in range(3)] == [
            1.1740369082005633,
            -1.1520277521805258,
            1.4450963333431925,
        ]


def _scalar_permutation(rng: Rng, n: int) -> np.ndarray:
    order = np.arange(n)
    for i in range(n - 1, 0, -1):
        j = rng.integer(i + 1)
        order[i], order[j] = order[j], order[i]
    return order


_MASK = 2**64 - 1


def _max_draw_s1() -> int:
    """The s1 whose draw rotl(s1 * 5, 7) * 9 is 2^64 - 1, inverted."""
    x = (_MASK * pow(9, -1, 2**64)) & _MASK
    x = ((x >> 7) | (x << 57)) & _MASK
    return (x * pow(5, -1, 2**64)) & _MASK


def _state_before_max_draw(rng: Rng) -> tuple[int, int, int, int]:
    return rng._s0, _max_draw_s1(), rng._s2, rng._s3


def _step_back(a0: int, a1: int, a2: int, a3: int) -> tuple[int, int, int, int]:
    """The state one u64() step before (a0, a1, a2, a3)."""
    s3_s1 = ((a3 >> 45) | (a3 << 19)) & _MASK  # rotl(s3 ^ s1, 45) inverted
    s0 = a0 ^ s3_s1
    v, s1 = a1 ^ a2, a1 ^ a2  # s1 ^ (s1 << 17), solved for s1
    for _ in range(4):
        s1 = v ^ ((s1 << 17) & _MASK)
    s2 = a1 ^ s1 ^ s0
    return s0, s1, s2, s3_s1 ^ s1


def _same_stream(bulk: Rng, ref: Rng) -> None:
    # the spare normal and the next scalar draw agree
    assert bulk.normal() == ref.normal()
    assert bulk.u64() == ref.u64()


# lengths of a bulk call: short ones, and those either side of the crossover
# to the lanes and of a lane block
_EDGES = [_BULK_MIN - 1, _BULK_MIN, _BULK_MIN + 1, _BLOCK - 1, _BLOCK, _BLOCK + 1]
_CALLS = st.lists(
    st.tuples(
        st.sampled_from(["normals", "permutation", "permutations", "normal_rows"]),
        st.one_of(st.integers(0, 300), st.sampled_from(_EDGES)),
        st.integers(1, 60),  # dim of normal_rows; sets the count of permutations
        st.booleans(),  # normal_rows draws a uniform after each row
    ),
    min_size=1,
    max_size=3,
)


class TestRngBulk:
    """The bulk draws against u64(), normal(), uniform() and integer()."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**64 - 1), stream=st.integers(0, 2**64 - 1), calls=_CALLS)
    @example(seed=17, stream=2, calls=[("permutation", _BLOCK + 2, 1, False)])
    @example(seed=5, stream=0, calls=[("normal_rows", 3 * _BLOCK, 41, True)])
    @example(seed=3, stream=2, calls=[("permutations", 300, 20, False)])  # lanes, 20 orders
    @example(seed=4, stream=2, calls=[("permutations", _BULK_MIN - 1, 17, False)])  # 2 blocks
    def test_bulk_matches_scalar(self, seed, stream, calls):
        bulk, ref = Rng(seed, stream), Rng(seed, stream)
        for kind, n, dim, uniforms in calls:
            if kind == "normals":
                # scalar; an odd n leaves a spare normal for the next bulk call
                want = np.array([ref.normal() for _ in range(n)])
                assert bulk.normals(n).tobytes() == want.tobytes()
            elif kind == "permutation":
                want = _scalar_permutation(ref, n)
                got = bulk.permutation(n)
                assert got.dtype == want.dtype
                assert np.array_equal(got, want)
            elif kind == "permutations":
                count = dim if n <= 300 else 1 + dim % 3
                got = bulk.permutations(n, count)
                assert len(got) == count
                for order in got:
                    want = _scalar_permutation(ref, n)
                    assert order.dtype == want.dtype
                    assert np.array_equal(order, want)
            else:
                X = np.empty((n // dim, dim))
                u = np.empty(n // dim) if uniforms else None
                bulk.normal_rows(X, u)
                for i, x in enumerate(X):
                    want = np.array([ref.normal() for _ in range(dim)])
                    assert x.tobytes() == want.tobytes()
                    if uniforms:
                        assert u[i] == ref.uniform()
            _same_stream(bulk, ref)

    def test_normal_rows_need_a_column(self):
        with pytest.raises(ValueError):
            Rng(0, 0).normal_rows(np.empty((3, 0)))
        with pytest.raises(ValueError):  # a fill through a copy would be lost
            Rng(0, 0).normal_rows(np.empty((3, 4)).T)

    def test_permutation_redraw_falls_back_to_scalar(self):
        # choose s1 so that the first draw is 2^64 - 1, which integer(3)
        # rejects (2^64 mod 3 = 1)
        bulk, ref, skip = Rng(3, 0), Rng(3, 0), Rng(3, 0)
        for rng in (bulk, ref, skip):
            rng._s1 = _max_draw_s1()
        assert skip.u64() == _MASK
        assert np.array_equal(bulk.permutation(3), _scalar_permutation(ref, 3))
        skip.u64()
        skip.u64()  # the redraw: three draws for two swaps
        assert bulk.u64() == ref.u64() == skip.u64()

    def test_permutations_redraw_in_a_later_order_falls_back(self):
        # the first draw of the second of five orders is 2^64 - 1, which
        # integer(1001) rejects: craft that state, then step back 1000 draws
        n, count = 1001, 5
        state = list(_state_before_max_draw(Rng(3, 0)))
        for _ in range(n - 1):
            state = _step_back(*state)
        bulk, ref, skip = Rng(3, 0), Rng(3, 0), Rng(3, 0)
        for rng in (bulk, ref, skip):
            rng._s0, rng._s1, rng._s2, rng._s3 = state
        draws = [skip.u64() for _ in range(n)]
        assert draws[n - 1] == _MASK and max(draws[: n - 1]) < _MASK - n
        got = bulk.permutations(n, count)
        for order in got:
            assert np.array_equal(order, _scalar_permutation(ref, n))
        assert bulk.u64() == ref.u64()

    def test_permutations_with_nothing_to_draw(self):
        rng, ref = Rng(8, 1), Rng(8, 1)
        assert rng.permutations(50, 0) == [] and rng.permutations(-1, 0) == []
        assert [p.tolist() for p in rng.permutations(1, 3)] == [[0]] * 3
        assert rng.u64() == ref.u64()  # no draw taken

    def test_charpoly_gives_the_published_jump(self):
        # x^(2^128) mod P is the polynomial of xoshiro256's jump(), whose
        # coefficients the reference implementation lists as four words
        def mulmod(a: int, b: int) -> int:
            out = 0
            while b:
                if b & 1:
                    out ^= a
                b >>= 1
                a <<= 1
                if a >> 256:
                    a ^= _CHARPOLY
            return out

        x = 2  # the polynomial x
        for _ in range(128):
            x = mulmod(x, x)
        assert [(x >> (64 * i)) & (2**64 - 1) for i in range(4)] == [
            0x180EC6D33CFD0ABA,
            0xD5A61266F0C9392C,
            0xA9582618E03FC9AA,
            0x39ABDC4529B1661C,
        ]


class TestSchedule:
    def test_flat_is_identity(self):
        assert schedule_eval(Schedule(), 17, 100) == 1.0

    def test_stagewise_tenthing(self):
        sched = Schedule(kind="stagewise", stage_fractions=(0.6, 0.8, 0.95), stage_factor=0.1)
        assert schedule_eval(sched, 70, 100) == pytest.approx(0.1)
        assert schedule_eval(sched, 59, 100) == 1.0
        assert schedule_eval(sched, 60, 100) == pytest.approx(0.1)
        assert schedule_eval(sched, 80, 100) == pytest.approx(0.01)
        assert schedule_eval(sched, 95, 100) == pytest.approx(0.001)

    def test_cosine_starts_at_one(self):
        assert schedule_eval(Schedule(kind="cosine"), 0, 100) == 1.0

    def test_cosine_positive_through_run(self):
        sched = Schedule(kind="cosine")
        vals = [schedule_eval(sched, k, 100) for k in range(100)]
        assert all(0.0 < v <= 1.0 for v in vals)
        assert vals == sorted(vals, reverse=True)

    def test_warmup_profile(self):
        sched = Schedule(kind="inverse_sqrt_warmup", warmup_steps=4)
        # ramp: k/w while k <= w, then sqrt(w/k) decay
        assert schedule_eval(sched, 2, 100) == pytest.approx(0.5)
        assert schedule_eval(sched, 4, 100) == pytest.approx(1.0)
        assert schedule_eval(sched, 16, 100) == pytest.approx(0.5)
        # step 0 evaluates like step 1 rather than collapsing to zero
        assert schedule_eval(sched, 0, 100) == schedule_eval(sched, 1, 100)

    def test_all_kinds_stay_in_unit_interval(self):
        for sched in (
            Schedule(),
            Schedule(kind="stagewise"),
            Schedule(kind="inverse_sqrt_warmup", warmup_steps=10),
            Schedule(kind="cosine"),
        ):
            for k in range(200):
                v = schedule_eval(sched, k, 200)
                assert 0.0 < v <= 1.0

    @pytest.mark.parametrize("fractions", [(0.6, 0.8, 0.95), (0.1, 1 / 3, 0.7, 1.0), (0.29,)])
    @pytest.mark.parametrize("n_total", [1, 3, 7, 100, 1000, 88200, 10**9 + 7])
    def test_stagewise_stage_edges(self, fractions, n_total):
        # at and either side of each stage start, against the sum the loop replaced
        sched = Schedule(kind="stagewise", stage_fractions=fractions, stage_factor=0.3)
        for f in fractions:
            for k in {math.ceil(f * n_total) - 1, math.ceil(f * n_total), math.floor(f * n_total)}:
                if k < 0:
                    continue
                passed = sum(1 for g in fractions if k >= g * n_total)
                assert schedule_eval(sched, k, n_total) == 0.3**passed

    def test_bad_fractions_rejected(self):
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(kind="stagewise", stage_fractions=(0.8, 0.6)), 0, 10)
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(kind="stagewise", stage_fractions=(0.0, 0.5)), 0, 10)

    def test_bad_warmup_rejected(self):
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(kind="inverse_sqrt_warmup", warmup_steps=0), 0, 10)

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(kind="linear"), 0, 10)
        with pytest.raises(ConfigError):
            Schedule(kind="linear")

    def test_bad_indices_rejected(self):
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(), -1, 10)
        with pytest.raises(ConfigError):
            schedule_eval(Schedule(), 0, 0)


class TestWeightedAverage:
    def test_single_point(self):
        traj = Trajectory("da", 2)
        traj.update_average(np.array([1.0, 1.0]), 2.0)
        assert np.allclose(traj.average(), [1.0, 1.0])

    def test_equal_weights_midpoint(self):
        traj = Trajectory("da", 2)
        traj.update_average(np.array([0.0, 0.0]), 1.0)
        traj.update_average(np.array([2.0, 0.0]), 1.0)
        assert np.allclose(traj.average(), [1.0, 0.0])

    def test_unequal_weights(self):
        # (1*1 + 3*4) / 4 = 3.25
        traj = Trajectory("da", 1)
        traj.update_average(np.array([1.0]), 1.0)
        traj.update_average(np.array([4.0]), 3.0)
        assert np.allclose(traj.average(), [3.25])

    def test_zero_weight_is_noop(self):
        traj = Trajectory("da", 1)
        traj.update_average(np.array([1.0]), 1.0)
        traj.update_average(np.array([100.0]), 0.0)
        assert np.allclose(traj.average(), [1.0])

    def test_negative_weight_rejected(self):
        traj = Trajectory("da", 1)
        with pytest.raises(ValueError):
            traj.update_average(np.array([1.0]), -0.5)

    def test_average_before_any_weight_fails(self):
        traj = Trajectory("da", 1)
        with pytest.raises(ValueError):
            traj.average()


class TestTrajectory:
    def test_d_monotonicity_enforced(self):
        traj = Trajectory("da", 1)
        traj.append((0, 1.0, 0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError):
            traj.append((1, 0.5, 0.0, 1.0, 0.0, 1.0))

    def test_d_series_includes_final_estimate(self):
        traj = Trajectory("da", 1, ("wg_term",))
        traj.append((0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5))
        traj.append((1, 1.0, 3.0, 1.0, 0.0, 1.0, 0.25))
        # the in-force series plus the estimate the last step produced
        assert traj.d_series() == [1.0, 1.0, 3.0]
        assert traj.extra("wg_term") == [0.5, 0.25]

    @pytest.mark.parametrize("extras, name", [(("d",), "d"), (("lam", "lam"), "lam")])
    def test_column_named_twice_refused(self, extras, name):
        with pytest.raises(ValueError, match=f"column '{name}' twice"):
            Trajectory("da", 1, extras)

    def test_missing_extra_key_errors(self):
        traj = Trajectory("da", 1)
        with pytest.raises(ValueError):
            traj.extra("nope")

    def test_records_and_extras_are_python_scalars(self):
        traj = Trajectory("da", 1, ("wg_term",))
        for k in range(3):
            traj.append((k, 1.0, 0.5, 0.25, math.nan, np.float64(2.0), np.float64(k / 3)))
        records = traj.records
        assert type(records) is np.ndarray and records.dtype == np.float64
        assert records.shape == (3, 6) and np.shares_memory(records, traj.pack())
        np.testing.assert_array_equal(records, traj.pack()[:, :6])
        np.testing.assert_array_equal(records[1], [1.0, 1.0, 0.5, 0.25, math.nan, 2.0])
        assert all(type(v) is float for row in records.tolist() for v in row)
        assert traj.extra("step") == [0.0, 1.0, 2.0]
        assert all(type(v) is float for v in traj.extra("wg_term"))
        assert traj.extra("wg_term") == [0.0, 1 / 3, 2 / 3]
        assert traj.extra("gnorm2") == [2.0, 2.0, 2.0]  # every column has a name
        assert repr(traj.extra("wg_term")[1]) == repr(1 / 3)  # no np.float64(...) in CSVs

    def test_append_after_read(self):
        traj = Trajectory("da", 1, ("wg_term",))
        traj.append((0, 1.0, 0.0, 1.0, 0.0, 1.0, 0.5))
        assert traj.records[0].tolist() == [0.0, 1.0, 0.0, 1.0, 0.0, 1.0]
        traj.append((1, 2.0, 0.0, 1.0, 0.0, 1.0, 0.25))
        assert len(traj.records) == 2  # the new row is packed on this read
        with pytest.raises(ValueError):
            traj.append((2, 1.5, 0.0, 1.0, 0.0, 1.0, 0.0))  # d fell after a read
        traj.append((2, 2.0, 4.0, 1.0, 0.0, 1.0, 0.125))
        assert traj.d_series() == [1.0, 2.0, 2.0, 4.0]
        assert traj.extra("wg_term") == [0.5, 0.25, 0.125]
        assert traj.pack().shape == (3, 7)

    def test_extend_logs_a_table_as_appends_would(self):
        table = np.array([[0, 1.0, 0.0, 1.0, 0.0, 1.0], [1, 2.0, 3.0, 1.0, 0.0, 1.0]])
        traj = Trajectory("toy", 1)
        traj.extend(table[:, :])
        assert traj.pack().base is table  # the first table is kept as a view
        traj.append((2, 3.0, 0.0, 1.0, 0.0, 1.0))
        traj.extend(table[:0])
        assert traj.d_series() == [1.0, 2.0, 3.0, 3.0]
        for bad in (table[:1], table[::-1] + [0, 2, 0, 0, 0, 0]):  # d 1 after 3; d 4, then 3
            with pytest.raises(ValueError, match="d decreased"):
                traj.extend(bad)
        with pytest.raises(ValueError, match="6 fields"):
            traj.extend(table[:, :5])
        assert traj.pack().shape == (3, 6)

    def test_empty_trajectory(self):
        traj = Trajectory("da", 1, ("wg_term",))
        assert traj.records.shape == (0, 6) and traj.records.tolist() == []
        assert traj.extra("wg_term") == []
        with pytest.raises(IndexError):
            traj.records[0]
        with pytest.raises(ValueError, match="empty trajectory"):
            traj.d_series()

    def test_row_width_checked(self):
        traj = Trajectory("da", 1, ("wg_term",))
        traj.append((0, 1.0, 0.0, 1.0, 0.0, 1.0))
        with pytest.raises(ValueError, match="7 fields"):
            traj.pack()


def test_schedule_eval_pure():
    sched = Schedule(kind="stagewise")
    assert schedule_eval(sched, 70, 100) == schedule_eval(sched, 70, 100)


def test_normal_spare_determinism():
    # Box-Muller caches a spare; interleaving must not break determinism
    a = Rng(5, 0)
    b = Rng(5, 0)
    xs = [a.normal() for _ in range(7)]
    ys = [b.normal() for _ in range(7)]
    assert xs == ys
    assert all(math.isfinite(v) for v in xs)


class _ScaleState:
    """Toy stepper state: each step multiplies x by a fixed factor."""

    def __init__(self, x0, factor):
        self.x = np.array(x0, dtype=np.float64)
        self.factor = factor
        self.traj = Trajectory("toy", self.x.shape[0])
        self.seen = []

    def step(self, state, g, sched=1.0):
        assert state is self
        self.seen.append((g.copy(), sched))
        self.traj.append((len(self.traj.records), 1.0, 0.0, sched, math.nan, 0.0))
        self.x = self.x * self.factor


def _counting_problem(calls):
    """f(x) = x[0]; calls counts the subgradient calls and, under "value",
    the rows passed to values."""

    def values(X):
        calls["value"] += X.shape[0]
        return X[:, 0].copy()

    def subgradient(x):
        calls["subgradient"] += 1
        return np.ones_like(x)

    return Problem(subgradient=subgradient, values=values)


class TestDrive:
    def test_one_call_a_step_and_f_on_cadence(self):
        calls = {"value": 0, "subgradient": 0}
        st = _ScaleState([1.0], 1.0)
        shapes = []

        def step(*args, **kwargs):  # the stepper gets the state, g and sched alone
            shapes.append((len(args), sorted(kwargs)))
            st.step(*args, **kwargs)

        drive(_counting_problem(calls), st, step, 10, Schedule(), 3)
        assert shapes == [(2, ["sched"])] * 10
        # f is taken at the f-steps 0, 3, 6 and 9 alone, by drive, after the
        # stepper has logged them
        assert calls == {"subgradient": 10, "value": 4}
        assert all(g[0] == 1.0 for g, _ in st.seen)
        fs = st.traj.extra("f")
        assert [k for k, f in enumerate(fs) if not math.isnan(f)] == [0, 3, 6, 9]

    def test_record_cadence_must_be_positive(self):
        calls = {"value": 0, "subgradient": 0}
        st = _ScaleState([1.0], 1.0)
        with pytest.raises(ConfigError, match="record_f_every must be positive"):
            drive(_counting_problem(calls), st, st.step, 5, Schedule(), 0)
        assert calls == {"value": 0, "subgradient": 0}

    def test_schedule_multiplier_passed(self):
        calls = {"value": 0, "subgradient": 0}
        st = _ScaleState([1.0], 1.0)
        sched = Schedule(kind="stagewise", stage_fractions=(0.5,), stage_factor=0.1)
        drive(_counting_problem(calls), st, st.step, 4, sched, 1)
        assert [s for _, s in st.seen] == [schedule_eval(sched, k, 4) for k in range(4)]

    def test_stops_at_first_iterate_past_norm(self):
        st = _ScaleState([1.0], 1e4)
        problem = _counting_problem({"value": 0, "subgradient": 0})
        with pytest.raises(Diverged) as info:
            drive(problem, st, st.step, 10, Schedule(), 1)
        # 1e4, 1e8, 1e12 stay inside the closed ball; 1e16 does not
        assert info.value.k == 3
        assert info.value.traj is st.traj
        assert len(st.traj.records) == 4
        assert abs(st.x[0]) > DIVERGENCE_NORM

    def test_diverged_rows_are_packed_and_readable(self):
        st = _ScaleState([1.0], 1e4)
        problem = _counting_problem({"value": 0, "subgradient": 0})
        with pytest.raises(Diverged) as info:
            drive(problem, st, st.step, 10, Schedule(), 1)
        traj = info.value.traj
        assert traj._rows == []  # packed when drive raised
        assert traj.pack().shape == (4, 6)
        assert traj.extra("step") == [0.0, 1.0, 2.0, 3.0]
        assert traj.records[-1].tolist() == [3.0, 1.0, 0.0, 1.0, 1e12, 0.0]

    def test_stepper_divergence_is_packed_too(self):
        def subgradient(x):
            return np.array([math.inf]) if abs(x[0]) < 0.5 else np.ones(1)

        problem = Problem(subgradient=subgradient, values=lambda X: X[:, 0].copy())
        st = da_init(np.array([1.0]), 0.3)
        with pytest.raises(Diverged, match="non-finite gradient") as info:
            drive(problem, st, da_step, 10, Schedule(), 1)
        traj = info.value.traj
        assert traj._rows == [] and len(traj.records) == info.value.k >= 1
        assert len(traj.extra("lam")) == len(traj.records)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_iterate_diverges(self, bad):
        st = _ScaleState([1.0, bad], 1.0)
        problem = _counting_problem({"value": 0, "subgradient": 0})
        with pytest.raises(Diverged) as info:
            drive(problem, st, st.step, 5, Schedule(), 1)
        assert info.value.k == 0
        assert isinstance(info.value, ValueError)

    @pytest.mark.parametrize(
        "x",
        [
            [DIVERGENCE_NORM],  # on the bound: inside the closed ball
            [0.0, -DIVERGENCE_NORM],
            [np.nextafter(DIVERGENCE_NORM, math.inf)],
            [math.nan],
            [math.inf],
            [1e200],  # its square overflows to inf
            [0.9e12] * 4,  # ||x||_2 is 1.8e12, past the prefilter; max|x_i| is inside
        ],
    )
    def test_prefilter_keeps_exact_outcome(self, x):
        # drive skips the exact max-abs test below 0.999 DIVERGENCE_NORM**2;
        # the run must still end exactly where that test alone ends it
        x = np.array(x)
        exact = not np.maximum.reduce(np.abs(x), initial=0.0) <= DIVERGENCE_NORM
        toy = _ScaleState(np.ones_like(x), 1.0)

        def step(state, g, sched=1.0):
            toy.step(state, g, sched)
            if len(toy.seen) == 3:
                state.x = x.copy()

        problem = _counting_problem({"value": 0, "subgradient": 0})
        if exact:
            with pytest.raises(Diverged) as info:
                drive(problem, toy, step, 5, Schedule(), 1)
            assert info.value.k == 2
            assert str(info.value) == f"iterate NaN or beyond {DIVERGENCE_NORM:g} at step 2"
        else:
            drive(problem, toy, step, 5, Schedule(), 1)
            assert len(toy.traj.records) == 5


class TestDeferredF:
    """drive alone writes the f column: it takes f after the steps,
    _F_ROWS visited points to a call of values."""

    @staticmethod
    def check_f_column(dataset, d0, n, every):
        lp = LogisticProblem(dataset, 8, 1)
        problem = lp.problem()
        visited, subgradient = [], problem.subgradient
        problem.subgradient = lambda x: visited.append(x.copy()) or subgradient(x)
        state = sgd_da_init(np.zeros(lp.dim), d0=d0)
        drive(problem, state, sgd_da_step, n, Schedule(), every)
        # the stacked visited points' losses, each from its own gemm, not
        # from full_values, which takes the product under test
        loss = own_gemm_losses(lp, np.array(visited))[1]
        want = [f if k % every == 0 else math.nan for k, f in enumerate(loss)]
        assert state.traj.pack()[:, 4].tobytes() == np.array(want).tobytes()

    @pytest.mark.parametrize("every", [1, 3, 7])
    def test_f_column_is_value_at_each_visited_point(self, every):
        data = synth_dataset(seed=2, n_examples=600, dim=3, flip=0.1)
        self.check_f_column(data, 1e-3, 37, every)  # 37: no multiple of 16

    @pytest.mark.parametrize("seed", [1, 9, 11, 13])
    def test_f_of_a_lone_last_point(self, seed):
        # 17 points: the last values call takes one, whose margins still come
        # from a gemm, where a one-column product would be a gemv
        self.check_f_column(synth_dataset(seed, 10000, 50, flip=0.1), 1.0, 17, 1)

    @pytest.mark.parametrize("every", [1, 3])
    def test_divergence_mid_buffer_keeps_f_on_every_kept_row(self, every):
        calls = {"value": 0, "subgradient": 0}
        st = _ScaleState([1.0], 4.0)
        with pytest.raises(Diverged) as info:
            drive(_counting_problem(calls), st, st.step, 40, Schedule(), every)
        assert info.value.k == 19  # 4**20 is past DIVERGENCE_NORM; 4**19 is not
        want = [4.0**k if k % every == 0 else math.nan for k in range(20)]
        assert repr(st.traj.extra("f")) == repr(want)

    @staticmethod
    def refuse_step_18(problem):
        """Drive a doubling toy on problem until its stepper refuses step 18."""
        st = _ScaleState([1.0], 2.0)

        def step(state, g, sched=1.0):
            if len(st.seen) == 18:
                raise Diverged(18, state.traj, "non-finite gradient")
            st.step(state, g, sched)

        with pytest.raises(Diverged):
            drive(problem, st, step, 40, Schedule(), 1)
        return st.traj.extra("f")

    def test_refused_gradient_mid_buffer_keeps_f_up_to_the_row_before(self):
        calls = {"value": 0, "subgradient": 0}
        assert self.refuse_step_18(_counting_problem(calls)) == [2.0**k for k in range(18)]
        assert calls == {"subgradient": 19, "value": 18}  # none for the refused step's point

    def test_at_start_leaves_an_empty_table(self):
        calls = {"value": 0}
        problem = Problem(
            subgradient=np.zeros_like, values=lambda X: calls.update(value=1) or np.zeros(len(X))
        )
        state = da_init(np.array([1.0]), 0.1)
        with pytest.raises(AtStart):
            drive(problem, state, da_step, 10, Schedule(), 1)
        assert state.traj.pack().shape == (0, len(state.traj.columns))
        assert calls == {"value": 0}

    @pytest.mark.parametrize("n, every", [(100, 3), (16, 1), (17, 1), (33, 2), (5, 7), (0, 1)])
    def test_one_values_call_a_full_buffer(self, n, every):
        sizes = []

        def values(X):
            sizes.append(X.shape[0])
            return X[:, 0] + 1.0

        problem = Problem(subgradient=np.ones_like, values=values)
        st = _ScaleState([1.0], 1.0)
        drive(problem, st, st.step, n, Schedule(), every)
        cadence = len(range(0, n, every))
        assert len(sizes) == -(-cadence // _F_ROWS) and sum(sizes) == cadence
        assert set(sizes[:-1]) <= {_F_ROWS}
        assert st.traj.extra("f")[::every] == [2.0] * cadence

    def test_values_run_inside_the_loops_errstate(self):
        # 20 points: one call of values in the loop, one after it
        problem = Problem(subgradient=np.ones_like, values=lambda X: X[:, 0] * 1e308)
        st = _ScaleState([10.0], 1.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            drive(problem, st, st.step, 20, Schedule(), 1)
        assert st.traj.extra("f") == [math.inf] * 20


def _bits(v: float) -> bytes:
    return struct.pack("<d", v)


_DOT_ENTRIES = st.one_of(
    st.sampled_from([0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -1.0]),
    st.floats(min_value=-2.3e-308, max_value=2.3e-308),  # subnormals and their edge
    st.floats(allow_nan=False, allow_infinity=False),  # the full exponent range
)


@st.composite
def _dot_pairs(draw):
    n = draw(st.one_of(st.integers(0, 70), st.just(1000)))
    return (
        draw(arrays(np.float64, n, elements=_DOT_ENTRIES)),
        draw(arrays(np.float64, n, elements=_DOT_ENTRIES)),
    )


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(pair=_dot_pairs())
@example(pair=(np.array([1.0]), np.array([-0.0])))  # a bare .dot gives -0.0 here
@example(pair=(np.array([-0.0, 0.0]), np.array([1.0, -1.0])))
def test_dot_is_matmul_bit_for_bit(pair):
    a, b = pair
    with np.errstate(over="ignore", invalid="ignore"):
        assert _bits(_dot(a, b)) == _bits(float(a @ b))


# --------------------------------------------------------------------------
# CSV text of a trajectory table


def _csv_via_records(header, table: np.ndarray) -> str:
    """The steps CSV as written before tables: csv.writer over [int(step), *floats] rows."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in table.tolist():
        record = [int(row[0]), *row[1:6]]
        writer.writerow([repr(v) if isinstance(v, float) else str(v) for v in record])
    return buf.getvalue()


_CSV_SPECIALS = [math.nan, -math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -5e-324, 1e300,
                 -1e300, 1e-310, 1.0, 0.1, 2.0**53]
_CSV_ENTRIES = st.one_of(st.sampled_from(_CSV_SPECIALS), st.floats(width=64))


@st.composite
def _step_tables(draw):
    n = draw(st.one_of(st.sampled_from([0, 1, 511, 512, 513, 1025]), st.integers(0, 40)))
    steps = draw(arrays(np.int64, n, elements=st.integers(0, 2**53)))
    values = draw(arrays(np.float64, (n, 5), elements=_CSV_ENTRIES))
    return np.column_stack([steps.astype(np.float64), values])


class TestCsvTable:
    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(table=_step_tables())
    def test_table_matches_record_rows(self, table):
        header = list(STEP_COLUMNS)
        assert csv_text(header, table) == _csv_via_records(header, table)

    def test_block_edges_and_views(self):
        # the (n, 6) view of a wider table, across every block boundary
        n = 2 * 512 + 3
        wide = np.arange(n * 8, dtype=np.float64).reshape(n, 8) / 7.0
        wide[:, 0] = np.arange(n)
        view = wide[:, :6]
        text = csv_text(["a", "b", "c", "d", "e", "f"], view)
        assert text == _csv_via_records(["a", "b", "c", "d", "e", "f"], view)
        assert text.count("\n") == n + 1

    def test_repeats_and_specials_across_a_block_edge(self):
        # columns 2 to 4 hold runs of each value and repeat it later in the
        # block, so they go through the memo of distinct bit patterns: 0.0
        # and -0.0 (equal as floats), NaNs of several payloads, infinities,
        # subnormals and 17-digit values; columns 1 and 5 never repeat the
        # value before, and skip it
        nans = [struct.unpack("<d", struct.pack("<Q", b))[0]
                for b in (0x7FF8000000000000, 0xFFF8000000000000, 0x7FF0000000000001)]
        values = [0.0, -0.0, *nans, math.inf, -math.inf, 5e-324, -5e-324, 2.2250738585072014e-308,
                  1e-310, 0.1 + 0.2, 1 / 3, -2 / 3, 123456789.12345679, 1e300, 2.0**53 + 2]
        n = 512 + 40
        table = np.empty((n, 6))
        table[:, 0] = np.arange(n)
        for c in range(1, 5):
            table[:, c] = [values[(i // c) % len(values)] for i in range(n)]
        table[:, 5] = np.random.default_rng(3).standard_normal(n)
        block = table[:512]
        assert len({math.copysign(1.0, v) for v in block[block[:, 2] == 0.0, 2]}) == 2
        text = csv_text(list(STEP_COLUMNS), table)
        assert text == _csv_via_records(list(STEP_COLUMNS), table)
        assert "-0.0" in text and ",0.0," in text and "nan" in text and "-inf" in text
        assert "5e-324" in text and "0.30000000000000004" in text

    def test_table_needs_float64(self):
        for dtype in (np.float32, np.int64):
            with pytest.raises(ValueError, match="float64"):
                csv_text(["k"], np.zeros((3, 6), dtype=dtype))

    def test_table_needs_six_columns(self):
        for shape in ((3, 7), (3,), (3, 5)):
            with pytest.raises(ValueError, match="shape"):
                csv_text(["k"], np.zeros(shape))

    def test_rows_keep_their_format(self):
        rows = [["x", 1, 0.1, True, -0.0], ["a,b", 2**60, math.nan, None, 1e300]]
        assert csv_text(["s", "i", "f", "b", "z"], rows) == (
            's,i,f,b,z\nx,1,0.1,True,-0.0\n"a,b",1152921504606846976,nan,None,1e+300\n'
        )
