"""Convex solvers: hand-traced steps, fixpoints, stacking, run driver."""

import itertools
import math

import numpy as np
import pytest

from dadapt.convex import (
    _prefix_step,
    adagrad_da_init,
    adagrad_da_step,
    da_init,
    da_step,
    gd_init,
    gd_step,
    run_convex,
    select_return_index,
)
from dadapt.baselines import adagrad_norm_init, adagrad_norm_step
from dadapt.core import (
    _F_ROWS,
    STEP_COLUMNS,
    AtStart,
    ConfigError,
    Diverged,
    Problem,
    Rng,
    Schedule,
    drive,
    schedule_eval,
)
from dadapt.problems import abs_value_problem, piecewise_max_problem, random_piecewise_max
from dadapt.ml import adam_da_init, adam_da_step, sgd_da_init, sgd_da_step

TRACE_TOL = 1e-9


def abs_grad(x):
    return np.array([math.copysign(1.0, x[0]) if x[0] != 0.0 else 0.0])


class TestDualAveragingTrace:
    """f=|x|, x0=1, d0=0.1: the worked first two steps, both options."""

    def test_step0(self):
        st = da_init(np.array([1.0]), 0.1, option="I")
        da_step(st, np.array([1.0]))
        assert st.s[0] == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.gamma == pytest.approx(1.0, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.0, abs=TRACE_TOL)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.9, abs=TRACE_TOL)

    def test_step1_option_I(self):
        st = da_init(np.array([1.0]), 0.1, option="I")
        da_step(st, np.array([1.0]))
        da_step(st, np.array([1.0]))
        assert st.s[0] == pytest.approx(0.2, abs=TRACE_TOL)
        assert st.gamma == pytest.approx(1.0 / math.sqrt(2.0), abs=TRACE_TOL)
        expected_dhat = (0.04 / math.sqrt(2.0) - 0.02) / 0.4
        assert st.traj.extra("dhat")[-1] == pytest.approx(expected_dhat, abs=TRACE_TOL)
        assert expected_dhat == pytest.approx(0.0207107, abs=1e-7)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)  # candidate below d0
        assert st.x[0] == pytest.approx(1.0 - 0.2 / math.sqrt(2.0), abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.858579, abs=1e-6)

    def test_step1_option_II(self):
        st = da_init(np.array([1.0]), 0.1, option="II")
        da_step(st, np.array([1.0]))
        da_step(st, np.array([1.0]))
        # (0 + 0.1*1*0.1) / 0.2
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.05, abs=TRACE_TOL)
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)

    def test_option_II_at_least_option_I(self):
        for seed in range(5):
            rng = Rng(seed, 1)
            prob = random_piecewise_max(rng, dim=4, pieces=5)
            x0 = prob.known_minimizer + rng.normals(4)
            sI = da_init(x0, 1e-3, option="I")
            sII = da_init(x0, 1e-3, option="II")
            for _ in range(50):
                g = prob.subgradient(sI.x)
                da_step(sI, np.asarray(g))
                da_step(sII, np.asarray(prob.subgradient(sII.x)))
            # same gradient stream only while iterates agree; compare from
            # the recorded run instead for the strict per-step property
            assert sI.d > 0 and sII.d > 0

    def test_bad_inits_rejected(self):
        with pytest.raises(ConfigError):
            da_init(np.array([1.0]), 0.0)
        with pytest.raises(ConfigError):
            da_init(np.array([1.0]), -1.0)
        with pytest.raises(ConfigError):
            da_init(np.array([1.0]), 0.1, option="III")
        with pytest.raises(ConfigError):
            da_init(np.array([1.0]), 0.1, g_fixed=0.0)

    def test_zero_first_gradient_rejected_at_step(self):
        st = da_init(np.array([0.0]), 0.1)
        with pytest.raises(AtStart):
            da_step(st, np.array([0.0]))
        assert len(st.traj.records) == 0

    def test_g_fixed_mode_first_gamma(self):
        st = da_init(np.array([1.0]), 0.1, g_fixed=2.0)
        da_step(st, np.array([1.0]))
        # gamma_1 = 1/sqrt(G^2 + |g0|^2) = 1/sqrt(5)
        assert st.gamma == pytest.approx(1.0 / math.sqrt(5.0), abs=TRACE_TOL)

    def test_gamma_non_increasing(self):
        st = da_init(np.array([1.0]), 0.1)
        gammas = []
        x = np.array([1.0])
        for _ in range(30):
            da_step(st, abs_grad(st.x))
            gammas.append(st.gamma)
        assert all(b <= a + 1e-15 for a, b in zip(gammas, gammas[1:]))


class TestGradientDescentTrace:
    def test_step0(self):
        st = gd_init(np.array([1.0]), 0.1, G=1.0)
        gd_step(st, np.array([1.0]))
        lam0 = 0.1 / math.sqrt(2.0)
        assert lam0 == pytest.approx(0.0707107, abs=1e-7)
        assert st.traj.extra("gamma_or_lambda")[0] == pytest.approx(lam0, abs=TRACE_TOL)
        assert st.s[0] == pytest.approx(lam0, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] == pytest.approx(0.0, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(1.0 - lam0, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.9292893, abs=1e-7)

    def test_two_steps_dhat_formula(self):
        st = gd_init(np.array([1.0]), 0.1, G=1.0)
        gd_step(st, np.array([1.0]))
        gd_step(st, np.array([1.0]))
        lam0 = 0.1 / math.sqrt(2.0)
        lam1 = 0.1 / math.sqrt(3.0)
        s = lam0 + lam1
        expected = (s * s - (lam0 * lam0 + lam1 * lam1)) / (2.0 * s)
        assert st.traj.extra("dhat")[-1] == pytest.approx(expected, abs=TRACE_TOL)

    def test_zero_gradient_keeps_state(self):
        st = gd_init(np.array([1.0]), 0.1, G=1.0)
        gd_step(st, np.array([1.0]))
        x_before, s_before, d_before = st.x.copy(), st.s.copy(), st.d
        gd_step(st, np.array([0.0]))
        assert np.array_equal(st.x, x_before)
        assert np.array_equal(st.s, s_before)
        assert st.d == d_before
        assert st.k == 2

    def test_requires_positive_G(self):
        with pytest.raises(ConfigError):
            gd_init(np.array([1.0]), 0.1, G=0.0)


class TestAdaGradDATrace:
    def test_step0(self):
        st = adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0)
        adagrad_da_step(st, np.array([1.0]))
        assert st.s[0] == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.a[0] == pytest.approx(math.sqrt(2.0), abs=TRACE_TOL)
        expected_dhat = (0.01 / math.sqrt(2.0) - 0.01) / 0.2
        assert expected_dhat == pytest.approx(-0.0146447, abs=1e-7)
        assert st.traj.extra("dhat")[-1] == pytest.approx(expected_dhat, abs=TRACE_TOL)
        assert st.traj.extra("dhat")[-1] < 0.0  # candidate bounds can be negative
        assert st.d == pytest.approx(0.1, abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(1.0 - 0.1 / math.sqrt(2.0), abs=TRACE_TOL)
        assert st.x[0] == pytest.approx(0.9292893, abs=1e-7)

    def test_zero_gradient_fixpoint(self):
        st = adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0)
        adagrad_da_step(st, np.array([1.0]))
        a_before, s_before, x_before = st.a.copy(), st.s.copy(), st.x.copy()
        adagrad_da_step(st, np.array([0.0]))
        assert np.array_equal(st.a, a_before)
        assert np.array_equal(st.s, s_before)
        assert np.array_equal(st.x, x_before)

    def test_stacked_problems_match_coordinatewise(self):
        # two independent copies of |x| stacked; with identical per-copy
        # gradients the d-updates agree, so the 2-d run must equal two 1-d runs
        st2 = adagrad_da_init(np.array([1.0, 1.0]), 0.1, g_inf=1.0)
        st1 = adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0)
        for _ in range(40):
            g1 = abs_grad(st1.x)
            g2 = np.concatenate([g1, g1])
            adagrad_da_step(st1, g1)
            adagrad_da_step(st2, g2)
            assert st2.x[0] == pytest.approx(st2.x[1], abs=1e-15)
            assert st1.x[0] == pytest.approx(st2.x[0], rel=1e-12, abs=1e-12)

    def test_a_floor_and_monotone(self):
        st = adagrad_da_init(np.array([1.0, 1.0]), 0.1, g_inf=0.5)
        prev = st.a.copy()
        assert np.all(st.a == 0.5)
        for g in ([1.0, 0.0], [0.0, 0.25], [0.3, 0.3]):
            adagrad_da_step(st, np.array(g))
            assert np.all(st.a >= prev)
            assert np.all(st.a >= 0.5)
            prev = st.a.copy()


class TestSelectReturnIndex:
    def test_enumerated_example(self):
        # ratios: 1/1, 1/2, 8/3 -> argmin at k=1
        assert select_return_index([1.0, 1.0, 1.0, 8.0]) == 1

    def test_constant_sequence_prefers_last(self):
        assert select_return_index([2.0, 2.0, 2.0, 2.0]) == 2

    def test_single_candidate(self):
        assert select_return_index([0.5, 3.0]) == 0

    def test_tied_ratios_pick_the_later_k(self):
        # d = [1, 1, 2]: the ratios d_{k+1} / sum_{i<=k} d_i are 1/1 and 2/2
        d_seq = [1.0, 1.0, 2.0]
        best, d_sum, picks = math.inf, 0.0, []
        for k in range(len(d_seq) - 1):
            best, d_sum, picked = _prefix_step(best, d_sum, d_seq[k], d_seq[k + 1])
            picks.append(picked)
        assert picks == [True, True]
        assert (best, d_sum) == (1.0, 2.0)
        assert select_return_index(d_seq) == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            select_return_index([1.0])
        with pytest.raises(ValueError):
            select_return_index([])
        with pytest.raises(ValueError):
            select_return_index([1.0, 0.5])  # decreasing
        with pytest.raises(ValueError):
            select_return_index([0.0, 1.0])  # nonpositive


class TestRunConvex:
    def test_abs_rate_bound(self):
        prob = abs_value_problem()
        n = 10000
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=n)
        f_avg = prob.value(res.x_avg)
        assert f_avg <= 16.0 / math.sqrt(n + 1)

    def test_start_at_minimizer_exits(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([0.0]), algorithm="da", d0=0.1, n=100)
        assert res.exited_at_start
        assert res.x_avg[0] == 0.0
        assert res.x_final[0] == 0.0
        assert len(res.traj.records) == 0
        assert res.d_final == 0.1

    @pytest.mark.parametrize("algorithm", ["da", "gd", "adagrad_da"])
    def test_start_at_minimizer_still_checks_settings(self, algorithm):
        prob = abs_value_problem()
        for d0 in (math.nan, 0.0, -1.0):
            with pytest.raises(ConfigError):
                run_convex(prob, np.array([0.0]), algorithm=algorithm, d0=d0, n=5)
        with pytest.raises(ConfigError):
            run_convex(prob, np.array([0.0]), algorithm="da", d0=0.1, n=5, option="III")
        # without a supplied bound there is no first-gradient fallback, and
        # the run still exits at the start
        res = run_convex(prob, np.array([0.0]), algorithm=algorithm, d0=0.1, n=5, g_mode="fixed")
        assert res.exited_at_start
        assert len(res.traj.records) == 0
        assert "heuristic_g" not in res.traj.meta

    def test_deterministic_reruns(self):
        rng_a = Rng(5, 1)
        prob = random_piecewise_max(rng_a, dim=6, pieces=6)
        x0 = prob.known_minimizer + Rng(5, 2).normals(6)
        r1 = run_convex(prob, x0, algorithm="da", d0=1e-3, n=200)
        r2 = run_convex(prob, x0, algorithm="da", d0=1e-3, n=200)
        assert r1.traj.extra("dhat") == r2.traj.extra("dhat")
        assert np.array_equal(r1.x_avg, r2.x_avg)

    def test_t_index_and_weighted_prefix_average(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="da", d0=0.1, n=50, g_mode="fixed", g_value=1.0
        )
        assert res.t_index is not None
        assert 0 <= res.t_index < 50
        assert res.x_avg_t is not None
        d_seq = res.traj.d_series()
        assert res.t_index == select_return_index(d_seq)

    def test_online_prefix_matches_replay(self):
        # run_convex picks the prefix as the run goes; replaying the visited
        # points after the run must give the same index and the same bits
        n = 150
        schedules = (Schedule(), Schedule(kind="stagewise"))
        short_prefixes = 0
        for seed in range(4):
            rng = Rng(seed, 1)
            prob = random_piecewise_max(rng, dim=6, pieces=6)
            x0 = prob.known_minimizer + rng.normals(6)
            for option, g_mode, sched, d0 in itertools.product(
                ("I", "II"), ("none", "fixed"), schedules, (1e-3, 1e-2)
            ):
                res = run_convex(
                    prob, x0, algorithm="da", d0=d0, n=n, option=option,
                    g_mode=g_mode, g_value=prob.lipschitz, schedule=sched,
                )
                g_fixed = prob.lipschitz if g_mode == "fixed" else None
                st = da_init(x0, d0, option=option, g_fixed=g_fixed)
                xs = []
                for k in range(n):
                    xs.append(st.x.copy())
                    da_step(st, prob.subgradient(st.x), sched=schedule_eval(sched, k, n))
                d_seq = st.traj.d_series()
                assert res.traj.d_series() == d_seq
                t = select_return_index(d_seq)
                lams = st.traj.extra("lam")
                num, den = np.zeros_like(x0), 0.0
                for k in range(t + 1):
                    num += lams[k] * xs[k]
                    den += lams[k]
                assert res.t_index == t
                assert np.array_equal(res.x_avg_t, num / den)
                # the stepper picks the prefix itself, so the hand-stepped
                # state carries the run's pick, bit for bit
                assert st.t_index == res.t_index
                assert st.x_avg_t.tobytes() == res.x_avg_t.tobytes()
                short_prefixes += t < n - 1
        assert short_prefixes > 0  # the sweep reaches prefixes short of the run

    def test_exit_at_start_picks_no_prefix(self):
        prob = abs_value_problem()
        st = da_init(np.array([0.0]), 0.1)
        with pytest.raises(AtStart):
            da_step(st, prob.subgradient(st.x))
        assert st.t_index is None and st.x_avg_t is None
        res = run_convex(prob, np.array([0.0]), algorithm="da", d0=0.1, n=5)
        assert res.exited_at_start and res.t_index is None and res.x_avg_t is None

    def test_heuristic_g_flagged(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="gd", d0=0.1, n=5)
        assert res.traj.meta.get("heuristic_g") is True
        res2 = run_convex(prob, np.array([1.0]), algorithm="gd", d0=0.1, n=5, g_value=1.0)
        assert res2.traj.meta.get("heuristic_g") is False

    def test_schedule_folds_into_weights(self):
        prob = abs_value_problem()
        sched = Schedule(kind="stagewise", stage_fractions=(0.5,), stage_factor=0.1)
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=20, schedule=sched)
        lams = res.traj.extra("lam")
        ds = res.traj.extra("d")
        for k, (lam, d) in enumerate(zip(lams, ds)):
            mult = 1.0 if k < 10 else 0.1
            assert lam == pytest.approx(mult * d, rel=1e-12)

    def test_unknown_algorithm_rejected(self):
        prob = abs_value_problem()
        with pytest.raises(ConfigError):
            run_convex(prob, np.array([1.0]), algorithm="sgd", d0=0.1, n=5)
        with pytest.raises(ConfigError):
            run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=5, g_mode="auto")

    @pytest.mark.parametrize("algorithm", ["gd", "adagrad_da"])
    def test_unknown_option_rejected(self, algorithm):
        # option picks da's candidate formula; every convex method refuses one it lacks
        with pytest.raises(ConfigError, match="unknown option 'III'"):
            run_convex(abs_value_problem(), np.array([1.0]), algorithm, 0.1, 5, option="III")

    def test_no_steps_rejected(self):
        with pytest.raises(ConfigError, match="n must be positive"):
            run_convex(abs_value_problem(), np.array([1.0]), algorithm="da", d0=0.1, n=0)

    def test_init_refuses_unknown_g_mode(self):
        with pytest.raises(ConfigError, match="unknown g_mode 'x'"):
            da_init(np.array([1.0]), 0.1, g_mode="x")

    def test_d_monotone_and_bounded_on_piecewise(self):
        rng = Rng(3, 1)
        prob = random_piecewise_max(rng, dim=5, pieces=6)
        x0 = prob.known_minimizer + rng.normals(5)
        D = float(np.linalg.norm(x0 - prob.known_minimizer))
        res = run_convex(prob, x0, algorithm="da", d0=1e-4, n=500)
        ds = res.traj.d_series()
        assert all(b >= a for a, b in zip(ds, ds[1:]))
        assert ds[-1] <= D + 1e-9

    def test_gd_average_uses_lambda_weights(self):
        prob = piecewise_max_problem(
            np.array([[1.0], [-2.0]]),
            np.array([0.0, 0.0]),
            known_minimizer=np.array([0.0]),
            known_fstar=0.0,
        )
        res = run_convex(prob, np.array([1.0]), algorithm="gd", d0=0.1, n=100, g_value=2.0)
        lams = res.traj.extra("gamma_or_lambda")
        assert res.traj.avg_den == pytest.approx(sum(lams), rel=1e-12)


@pytest.mark.parametrize(
    "algorithm, option", [("da", "I"), ("da", "II"), ("gd", "I"), ("adagrad_da", "I")]
)
def test_outputs_share_no_memory_and_rerun_equal(algorithm, option):
    # the prefix average is taken from a snapshot of the running sums: it may
    # not write the caller's x0 or tie the outputs together
    prob = random_piecewise_max(Rng(7, 1), dim=5, pieces=4)
    x0 = prob.known_minimizer + Rng(7, 2).normals(5)
    x0_bytes = x0.tobytes()

    def run():
        res = run_convex(prob, x0, algorithm=algorithm, d0=1e-3, n=300, option=option)
        outs = [res.x_final, res.x_avg] + ([res.x_avg_t] if algorithm == "da" else [])
        return res, outs

    res, outs = run()
    assert x0.tobytes() == x0_bytes
    for a, b in itertools.combinations(outs + [x0], 2):
        assert not np.shares_memory(a, b)
    again, outs_again = run()
    assert x0.tobytes() == x0_bytes
    assert again.traj.pack().tobytes() == res.traj.pack().tobytes()
    assert [a.tobytes() for a in outs_again] == [a.tobytes() for a in outs]
    assert (again.t_index, again.d_final) == (res.t_index, res.d_final)


@pytest.mark.parametrize("algorithm", ["da", "gd", "adagrad_da"])
@pytest.mark.parametrize("every", [1, 7])
def test_piecewise_f_comes_from_values(algorithm, every):
    # one subgradient call a step, step 0 included, and the cadence steps'
    # f from values, _F_ROWS points a call; the run makes no call of its own
    prob = random_piecewise_max(Rng(4, 1), dim=4, pieces=5)
    calls = []
    for name in ("value", "subgradient", "values"):
        fn = getattr(prob, name)
        setattr(prob, name, lambda *a, fn=fn, name=name: calls.append(name) or fn(*a))
    n = 50
    res = run_convex(
        prob, prob.known_minimizer + 1.0, algorithm=algorithm, d0=1e-3, n=n,
        record_f_every=every,
    )
    cadence = len(range(0, n, every))
    assert calls.count("subgradient") == n and "value" not in calls
    assert calls.count("values") == -(-cadence // _F_ROWS)
    recorded = [k for k, f in zip(res.traj.extra("step"), res.traj.extra("f")) if not math.isnan(f)]
    assert recorded == list(range(0, n, every))


@pytest.mark.parametrize("algorithm", ["da", "gd", "adagrad_da"])
def test_unset_bound_comes_from_the_first_gradient(algorithm):
    # a stepper left without its bound by its init, driven on its own, runs
    # bit for bit as run_convex with the bound omitted, and as run_convex
    # with the bound given as the first gradient's norm, bar the flag
    prob = random_piecewise_max(Rng(6, 1), dim=6, pieces=6)
    x0 = prob.known_minimizer + Rng(6, 2).normals(6)
    n, d0 = 100, 1e-3
    init, step = {
        "da": (lambda: da_init(x0, d0, g_mode="fixed"), da_step),
        "gd": (lambda: gd_init(x0, d0), gd_step),
        "adagrad_da": (lambda: adagrad_da_init(x0, d0), adagrad_da_step),
    }[algorithm]
    st = init()
    drive(prob, st, step, n, Schedule(), 1)
    assert st.traj.meta["heuristic_g"] is True
    g0 = prob.subgradient(x0)
    g_norm, g_max = math.sqrt(float(g0 @ g0)), float(np.abs(g0).max())
    omitted = run_convex(prob, x0, algorithm=algorithm, d0=d0, n=n, g_mode="fixed")
    given = run_convex(
        prob, x0, algorithm=algorithm, d0=d0, n=n, g_mode="fixed", g_value=g_norm, g_inf=g_max
    )
    assert omitted.traj.meta["heuristic_g"] is True
    assert given.traj.meta["heuristic_g"] is False
    for res in (omitted, given):
        assert res.traj.pack().tobytes() == st.traj.pack().tobytes()
        assert res.x_final.tobytes() == st.x.tobytes()
        assert np.float64(res.d_final).tobytes() == np.float64(st.d).tobytes()


@pytest.mark.parametrize(
    "init, step",
    [
        (lambda x0: da_init(x0, 0.1), da_step),
        (lambda x0: da_init(x0, 0.1, g_mode="fixed"), da_step),
        (lambda x0: da_init(x0, 0.1, g_fixed=1.0), da_step),
        (lambda x0: gd_init(x0, 0.1), gd_step),
        (lambda x0: gd_init(x0, 0.1, G=1.0), gd_step),
        (lambda x0: adagrad_da_init(x0, 0.1), adagrad_da_step),
        (lambda x0: adagrad_da_init(x0, 0.1, g_inf=1.0), adagrad_da_step),
    ],
    ids=["da", "da_fixed_unset", "da_fixed", "gd_unset", "gd", "adagrad_da_unset", "adagrad_da"],
)
@pytest.mark.parametrize("dim", [1, 0])
def test_zero_first_gradient_raises_at_start(init, step, dim):
    # whether or not the bound is given; AtStart is no ValueError, so no
    # failure handler takes it for one
    prob = Problem(subgradient=np.zeros_like, values=lambda X: np.zeros(len(X)))
    st = init(np.zeros(dim))
    with pytest.raises(AtStart):
        drive(prob, st, step, 5, Schedule(), 1)
    assert st.traj.records.shape == (0, len(STEP_COLUMNS))
    assert "heuristic_g" not in st.traj.meta
    assert st.k == 0
    assert not issubclass(AtStart, ValueError)


@pytest.mark.parametrize("algorithm", ["da", "gd", "adagrad_da"])
@pytest.mark.parametrize("bounds", [{}, {"g_mode": "fixed", "g_value": 1.0, "g_inf": 1.0}])
def test_dim_zero_start_exits_at_start(algorithm, bounds):
    prob = Problem(subgradient=np.zeros_like, values=lambda X: np.zeros(len(X)))
    res = run_convex(prob, np.zeros(0), algorithm=algorithm, d0=0.1, n=5, **bounds)
    assert res.exited_at_start
    assert len(res.traj.records) == 0
    assert res.x_final.shape == res.x_avg.shape == (0,)
    assert res.d_final == 0.1
    assert res.t_index is None and res.x_avg_t is None


@pytest.mark.parametrize(
    "init, step",
    [
        (lambda: da_init(np.array([1.0]), 0.1), da_step),
        (lambda: gd_init(np.array([1.0]), 0.1, G=1.0), gd_step),
        (lambda: adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0), adagrad_da_step),
    ],
)
def test_non_finite_gradient_raises_diverged(init, step):
    st = init()
    step(st, np.array([1.0]))
    with pytest.raises(Diverged) as info:
        step(st, np.array([math.inf]))
    assert info.value.k == 1
    assert info.value.traj is st.traj
    assert len(st.traj.records) == 1


@pytest.mark.parametrize(
    "init, step, extras",
    [
        (lambda: da_init(np.array([1.0]), 0.1), da_step,
         ("gamma", "wg_term", "hyper_term", "snorm2_after", "lam")),
        (lambda: da_init(np.array([1.0]), 0.1, option="II"), da_step,
         ("gamma", "wg_term", "hyper_term", "snorm2_after", "lam")),
        (lambda: gd_init(np.array([1.0]), 0.1, G=1.0), gd_step,
         ("wg_term", "hyper_term", "snorm2_after")),
        (lambda: adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0), adagrad_da_step,
         ("s_l1_after", "a_l1_after")),
        (lambda: sgd_da_init(np.array([1.0]), 0.1), sgd_da_step, ()),
        (lambda: adam_da_init(np.array([1.0]), 0.1), adam_da_step, ()),
        (lambda: adagrad_norm_init(np.array([1.0]), 1.0), adagrad_norm_step, ()),
    ],
    ids=["da_I", "da_II", "gd", "adagrad_da", "sgd_da", "adam_da", "adagrad_norm"],
)
def test_each_quantity_has_one_column(init, step, extras):
    # a step records the six step columns and then only the extras a checker
    # reads; sgd_da's first step is the skip row of a zero gradient
    st = init()
    assert st.traj.columns == STEP_COLUMNS + extras
    step(st, np.array([0.0 if step is sgd_da_step else 1.0]))
    step(st, np.array([1.0]))
    assert st.traj.pack().shape == (2, len(STEP_COLUMNS + extras))


@pytest.mark.parametrize(
    "init, kwargs",
    [
        (da_init, dict(d0=math.nan)),
        (da_init, dict(d0=0.1, g_fixed=math.nan)),
        (gd_init, dict(d0=math.nan, G=1.0)),
        (gd_init, dict(d0=0.1, G=math.nan)),
        (adagrad_da_init, dict(d0=math.nan, g_inf=1.0)),
        (adagrad_da_init, dict(d0=0.1, g_inf=math.nan)),
        (sgd_da_init, dict(d0=math.nan)),
        (sgd_da_init, dict(G=math.nan)),
        (adam_da_init, dict(d0=math.nan)),
        (adam_da_init, dict(eps=math.nan)),
        (adam_da_init, dict(decay=math.nan)),
    ],
)
def test_nan_setting_rejected(init, kwargs):
    # NaN fails every comparison, so each guard is written as not (x > 0)
    with pytest.raises(ConfigError):
        init(np.array([1.0]), **kwargs)
