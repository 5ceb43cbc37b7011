"""Bound checkers: hand cases, randomized sweeps, precondition gating."""

import math
from dataclasses import is_dataclass, replace

import numpy as np
import pytest

from dadapt import analysis
from dadapt.analysis import (
    BoundReport,
    check_d_lower_bound,
    check_dasym,
    check_ema_equivalence,
    check_mindk,
    check_option_dominance,
    check_rate_asymptotic,
    check_rate_theorem2,
    check_snorm_bound,
    check_streeter_mcmahan,
    check_telescoping,
    log2p,
    reports_to_csv,
    run_convex_sweep,
    verify_suite,
)
from dadapt.convex import run_convex
from dadapt.core import STEP_COLUMNS, ConfigError, Rng, Trajectory
from dadapt.ml import sgd_da_init, sgd_da_step
from dadapt.problems import abs_value_problem, piecewise_start, random_piecewise_max


def make_run(seed=0, algo="da", option="I", n=200, dim=6, pieces=6, d0=1e-3, **kw):
    rng = Rng(seed, 1)
    prob = random_piecewise_max(rng, dim=dim, pieces=pieces)
    x0 = prob.known_minimizer + rng.normals(dim)
    return prob, x0, run_convex(
        prob, x0, algorithm=algo, d0=d0, n=n, option=option,
        g_value=prob.lipschitz, g_inf=prob.lipschitz_inf, **kw
    )


def test_log2p():
    assert log2p(1.0) == 1.0
    assert log2p(2.0) == 1.0
    assert log2p(8.0) == 3.0
    assert log2p(0.5) == 1.0  # clamped from below
    assert math.isnan(log2p(math.nan))  # max(1.0, nan) would give 1.0
    with pytest.raises(ValueError):
        log2p(0.0)


class TestDLowerBound:
    def test_abs_run_stays_below_one(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=500)
        rep = check_d_lower_bound(res.traj, 1.0)
        assert rep.satisfied
        assert rep.lhs <= 1.0 + 1e-9

    def test_single_step_slack_is_D(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=1)
        rep = check_d_lower_bound(res.traj, 1.0)
        assert rep.satisfied
        assert rep.lhs == 0.0  # first candidate is always zero here
        assert rep.slack == pytest.approx(1.0)

    def test_empty_trajectory_errors(self):
        with pytest.raises(ValueError):
            check_d_lower_bound(Trajectory("da", 1), 1.0)

    def test_violation_detected(self):
        traj = Trajectory("da", 1)
        traj.append((0, 1.0, 5.0, 1.0, 0.0, 1.0))
        rep = check_d_lower_bound(traj, 1.0)
        assert not rep.satisfied

    @pytest.mark.parametrize("dhat", [[0.3, math.nan], [math.nan, 0.3]])
    def test_nan_candidate_fails(self, dhat):
        # a NaN dhat after step 0 no longer hides behind max
        traj = Trajectory("da", 1)
        for k, v in enumerate(dhat):
            traj.append((k, 1.0, v, 1.0, 0.0, 1.0))
        rep = check_d_lower_bound(traj, 1.0)
        assert not rep.satisfied and math.isnan(rep.lhs)


class TestTelescoping:
    def test_abs_run_residual_tiny(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=200)
        rep = check_telescoping(res.traj)
        assert rep.satisfied
        scale = max(abs(rep.lhs), abs(rep.rhs), 1.0)
        assert abs(rep.lhs - rep.rhs) / scale < 1e-10

    def test_empty_run_both_sides_zero(self):
        rep = check_telescoping(Trajectory("da", 1))
        assert rep.satisfied
        assert rep.lhs == 0.0 and rep.rhs == 0.0

    def test_gd_identity_exact(self):
        _, _, res = make_run(seed=2, algo="gd")
        rep = check_telescoping(res.traj)
        assert rep.satisfied

    def test_random_da_runs_both_options(self):
        for seed in range(5):
            for option in ("I", "II"):
                _, _, res = make_run(seed=seed, option=option)
                assert check_telescoping(res.traj).satisfied

    def test_wrong_kind_errors(self):
        _, _, res = make_run(seed=1, algo="adagrad_da")
        with pytest.raises(ValueError):
            check_telescoping(res.traj)


class TestStreeterMcMahan:
    def test_hand_case(self):
        rep = check_streeter_mcmahan([1.0, 1.0], 1.0)
        assert rep.lhs == pytest.approx(1.0 + 1.0 / math.sqrt(2.0))
        assert rep.rhs == pytest.approx(2.0 * math.sqrt(2.0))
        assert rep.satisfied

    def test_all_zero_gradients(self):
        rep = check_streeter_mcmahan([0.0, 0.0, 0.0], 1.0)
        assert rep.satisfied
        assert rep.lhs == 0.0

    def test_randomized_sweep(self):
        rng = Rng(0, 3)
        for i in range(1000):
            G = 0.5 + rng.uniform() * 2.0
            n = 1 + rng.integer(64)
            gn = [G * rng.uniform() for _ in range(n)]
            assert check_streeter_mcmahan(gn, G).satisfied, f"case {i}"

    def test_log_variant(self):
        rep = check_streeter_mcmahan([1.0, 1.0], 1.0, variant="log")
        # 1/2 + 1/3 <= log(4) with n=1
        assert rep.lhs == pytest.approx(1.0 / 2.0 + 1.0 / 3.0)
        assert rep.rhs == pytest.approx(math.log(3.0))
        assert rep.satisfied

    def test_log_variant_sweep(self):
        rng = Rng(1, 3)
        for _ in range(300):
            G = 0.5 + rng.uniform()
            n = 1 + rng.integer(64)
            gn = [G * rng.uniform() for _ in range(n)]
            assert check_streeter_mcmahan(gn, G, variant="log").satisfied

    def test_precondition_errors(self):
        with pytest.raises(ValueError):
            check_streeter_mcmahan([2.0], 1.0)  # g above G
        with pytest.raises(ValueError):
            check_streeter_mcmahan([], 1.0)
        with pytest.raises(ValueError):
            check_streeter_mcmahan([1.0], 0.0)
        with pytest.raises(ValueError):
            check_streeter_mcmahan([-1.0], 1.0)


class TestMinDk:
    def test_constant_sequence(self):
        rep = check_mindk([1.0, 1.0, 1.0, 1.0])
        assert not rep.skipped
        assert rep.lhs == pytest.approx(1.0 / 3.0)
        assert rep.rhs == pytest.approx(4.0 / 3.0)
        assert rep.satisfied

    def test_geometric_doubling(self):
        # growth 2^8 over N+1=16 steps satisfies the length precondition
        seq = [2.0**i for i in range(9)] + [256.0] * 8
        rep = check_mindk(seq)
        assert not rep.skipped
        assert rep.satisfied

    def test_short_sequence_skipped(self):
        # growth 2^6 but only 3 steps: gated
        rep = check_mindk([1.0, 64.0, 64.0, 64.0])
        assert rep.skipped
        assert rep.satisfied  # skipped reports never count as failures

    def test_nonmonotone_skipped(self):
        assert check_mindk([1.0, 0.5, 2.0]).skipped
        assert check_mindk([0.0, 1.0]).skipped
        assert check_mindk([1.0]).skipped

    def test_nan_skipped(self):
        # a NaN d is not positive; min over the ratios would pass over it
        rep = check_mindk([1.0, 1.0, math.nan, 1.0])
        assert rep.skipped and "must be positive" in rep.context

    def test_randomized_sweep(self):
        rng = Rng(2, 3)
        checked = 0
        for _ in range(1000):
            n = 2 + rng.integer(40)
            seq = [1e-4 * (1.0 + rng.uniform())]
            for _ in range(n):
                seq.append(seq[-1] * (1.0 + rng.uniform() * 0.2))
            rep = check_mindk(seq)
            assert rep.satisfied
            checked += not rep.skipped
        assert checked > 500  # most instances must actually run


class TestRateTheorem2:
    def test_abs_run_positive_slack(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="da", d0=0.1, n=2000,
            g_mode="fixed", g_value=1.0,
        )
        rep = check_rate_theorem2(res, prob, D=1.0, G=1.0)
        assert not rep.skipped
        assert rep.satisfied
        assert rep.slack > 0.0

    def test_d0_equal_D_clamps_log(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="da", d0=1.0, n=500,
            g_mode="fixed", g_value=1.0,
        )
        rep = check_rate_theorem2(res, prob, D=1.0, G=1.0)
        assert not rep.skipped
        assert rep.satisfied

    def test_short_run_gated(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="da", d0=1e-9, n=10,
            g_mode="fixed", g_value=1.0,
        )
        # n=10 < 2 log2(1/1e-9) ~ 59.8: precondition unmet
        rep = check_rate_theorem2(res, prob, D=1.0, G=1.0)
        assert rep.skipped

    def test_wrong_mode_errors(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=50)
        with pytest.raises(ValueError):
            check_rate_theorem2(res, prob, D=1.0, G=1.0)

    def test_asymptotic_form(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=2000)
        rep = check_rate_asymptotic(res, prob, D=1.0, G=1.0)
        assert rep.satisfied
        # steps are indexed 0..n, so n+1 equals the record count
        n_plus_1 = len(res.traj.records)
        expected_rhs = 16.0 / math.sqrt(n_plus_1) + 8.0 / (n_plus_1 * 1.0)
        assert rep.rhs == pytest.approx(expected_rhs, rel=1e-12)


class TestDasym:
    def test_threshold_value(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="da", d0=0.1, n=20000,
            g_mode="fixed", g_value=1.0,
        )
        rep = check_dasym(res, prob.known_minimizer, D=1.0)
        assert not rep.skipped
        assert rep.satisfied
        assert rep.lhs == pytest.approx(1.0 / (1.0 + math.sqrt(3.0)) - 0.05)

    def test_unconverged_run_skipped(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=2)
        rep = check_dasym(res, prob.known_minimizer, D=1.0)
        assert rep.skipped
        assert rep.satisfied


class TestOptionDominance:
    def test_hand_values(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=2)
        rep = check_option_dominance(res.traj)
        assert rep.satisfied
        # prefix after two steps: II numerator 0.01, I numerator ~0.0041421
        hyper = res.traj.extra("hyper_term")
        assert sum(hyper) == pytest.approx(0.01, abs=1e-12)
        gam_next = res.traj.extra("gamma_or_lambda")
        s2 = res.traj.extra("snorm2_after")
        wg = res.traj.extra("wg_term")
        num_I = 0.5 * gam_next[-1] * s2[-1] - 0.5 * sum(wg)
        assert num_I == pytest.approx((0.04 / math.sqrt(2.0) - 0.02) / 2.0, abs=1e-12)
        assert sum(hyper) >= num_I

    def test_random_runs_no_violation(self):
        for seed in range(10):
            _, _, res = make_run(seed=seed, n=1000)
            assert check_option_dominance(res.traj).satisfied

    def test_wrong_kind_errors(self):
        _, _, res = make_run(seed=0, algo="gd")
        with pytest.raises(ValueError):
            check_option_dominance(res.traj)

    def test_nan_gap_fails(self):
        # a NaN hypergradient term makes a NaN gap at every prefix from its own
        traj = Trajectory("da", 1, ("gamma", "wg_term", "hyper_term", "snorm2_after", "lam"))
        traj.append((0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, 0.0, 1.0, 1.0))
        traj.append((1, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0, 1.0, math.nan, 1.0, 1.0))
        rep = check_option_dominance(traj)
        assert not rep.satisfied and math.isnan(rep.lhs)
        assert rep.context == "worst prefix k=1 of 2"


class TestSnormBound:
    def test_da_one_step_hand_value(self):
        prob = abs_value_problem()
        res = run_convex(prob, np.array([1.0]), algorithm="da", d0=0.1, n=1)
        rep = check_snorm_bound(res.traj)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(0.1)
        assert rep.rhs == pytest.approx(0.25)

    def test_adagrad_one_step_hand_value(self):
        prob = abs_value_problem()
        res = run_convex(
            prob, np.array([1.0]), algorithm="adagrad_da", d0=0.1, n=1, g_inf=1.0
        )
        rep = check_snorm_bound(res.traj)
        assert rep.satisfied
        assert rep.lhs == pytest.approx(0.1)
        assert rep.rhs == pytest.approx(3.0 * 0.1 * math.sqrt(2.0))

    def test_gd_bound(self):
        _, _, res = make_run(seed=4, algo="gd", n=500)
        rep = check_snorm_bound(res.traj)
        assert rep.satisfied

    def test_all_kinds_random_sweep(self):
        for seed in range(5):
            for algo, option in (("da", "I"), ("da", "II"), ("gd", "I"), ("adagrad_da", "I")):
                _, _, res = make_run(seed=seed, algo=algo, option=option, n=300)
                assert check_snorm_bound(res.traj).satisfied

    def test_unknown_kind_errors(self):
        # one recorded step, so the kind is what the checker refuses
        state = sgd_da_init(np.array([1.0]))
        sgd_da_step(state, np.array([1.0]))
        with pytest.raises(ValueError, match="no dual-average norm bound for kind 'sgd_da'"):
            check_snorm_bound(state.traj)


def _abs_da(n=50, **kw):
    return run_convex(abs_value_problem(), np.array([1.0]), algorithm="da", d0=0.1, n=n, **kw)


def _column(traj, name):
    """The named column of traj's table, writable in place."""
    return traj.pack()[:, traj.columns.index(name)]


class TestCheckersCanFail:
    """Each checker reports a violation on a run doctored to break what it checks."""

    @pytest.mark.parametrize("algo", ["da", "gd"])
    def test_telescoping(self, algo):
        res = run_convex(abs_value_problem(), np.array([1.0]), algorithm=algo, d0=0.1, n=20)
        _column(res.traj, "hyper_term")[3] += 1.0
        assert not check_telescoping(res.traj).satisfied

    @pytest.mark.parametrize(
        "algo, name", [("da", "snorm2_after"), ("gd", "snorm2_after"), ("adagrad_da", "s_l1_after")]
    )
    def test_snorm_bound(self, algo, name):
        _, _, res = make_run(seed=0, algo=algo, n=50)
        _column(res.traj, name)[-1] *= 1e6
        assert not check_snorm_bound(res.traj).satisfied

    def test_option_dominance(self):
        res = _abs_da(n=20)
        _column(res.traj, "hyper_term")[1] = -1.0
        rep = check_option_dominance(res.traj)
        assert not rep.satisfied
        assert "k=1 " in rep.context

    def test_rate_theorem2(self):
        res = _abs_da(n=2000, g_mode="fixed", g_value=1.0)
        rep = check_rate_theorem2(replace(res, x_avg_t=np.array([5.0])), abs_value_problem(), 1.0, 1.0)
        assert not rep.skipped and not rep.satisfied

    def test_rate_asymptotic(self):
        res = _abs_da(n=2000)
        rep = check_rate_asymptotic(replace(res, x_avg=np.array([5.0])), abs_value_problem(), 1.0, 1.0)
        assert not rep.satisfied

    def test_dasym(self):
        res = replace(_abs_da(), x_final=np.array([0.0]), d_final=0.1)
        rep = check_dasym(res, np.array([0.0]), D=1.0)
        assert not rep.skipped and not rep.satisfied


_NO_FSTAR = replace(abs_value_problem(), known_fstar=None)


@pytest.mark.parametrize(
    "call, error, message",
    [
        (lambda: verify_suite("x"), ConfigError, "unknown suite 'x'"),
        (lambda: check_streeter_mcmahan([1.0], 1.0, variant="x"), ValueError, "unknown variant 'x'"),
        (
            lambda: check_rate_theorem2(_abs_da(g_mode="fixed", g_value=1.0), _NO_FSTAR, 1.0, 1.0),
            ValueError,
            "rate check needs the optimal value",
        ),
        (
            lambda: check_rate_theorem2(
                replace(_abs_da(g_mode="fixed", g_value=1.0), t_index=None),
                abs_value_problem(), 1.0, 1.0,
            ),
            ValueError,
            "run result carries no selected prefix",
        ),
        (
            lambda: check_rate_asymptotic(
                run_convex(abs_value_problem(), np.array([1.0]), algorithm="gd", d0=0.1, n=5),
                abs_value_problem(), 1.0, 1.0,
            ),
            ValueError,
            "rate check needs a dual-averaging run$",
        ),
        (
            lambda: check_rate_asymptotic(_abs_da(), _NO_FSTAR, 1.0, 1.0),
            ValueError,
            "rate check needs the optimal value",
        ),
        (
            lambda: check_rate_asymptotic(
                replace(_abs_da(), traj=Trajectory("da", 1)), abs_value_problem(), 1.0, 1.0
            ),
            ValueError,
            "trajectory has no recorded steps",
        ),
        (
            lambda: check_dasym(_abs_da(), np.array([0.0]), D=0.0),
            ValueError,
            "D must be positive",
        ),
    ],
    ids=[
        "verify_suite", "streeter_variant", "theorem2_fstar", "theorem2_prefix",
        "asymptotic_kind", "asymptotic_fstar", "asymptotic_empty", "dasym_D",
    ],
)
def test_bad_input_refused(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestRunConvexSweep:
    """The battery's decisions, each checked against run_convex called directly."""

    def test_runs_equal_direct_calls_in_variant_order(self):
        items = list(run_convex_sweep(2, 30, seed0=5))
        order = [("da", "I"), ("da", "II"), ("gd", "I"), ("adagrad_da", "I")]
        assert [item[0] for item in items] == [5] * 4 + [6] * 4
        assert [item[3:5] for item in items] == order * 2
        for seed, problem, x0, algo, option, result in items:
            want_problem, want_x0 = piecewise_start(seed, dim=6, pieces=6, distance=1.0)
            assert x0.tobytes() == want_x0.tobytes()
            assert problem.known_minimizer.tobytes() == want_problem.known_minimizer.tobytes()
            want = run_convex(
                want_problem, want_x0, algo, 1e-3, 30, option,
                g_value=want_problem.lipschitz, g_inf=want_problem.lipschitz_inf,
            )
            assert result.traj.pack().tobytes() == want.traj.pack().tobytes()
            assert result.traj.meta == want.traj.meta
            assert result.x_final.tobytes() == want.x_final.tobytes()
            assert result.x_avg.tobytes() == want.x_avg.tobytes()
            assert result.d_final.hex() == want.d_final.hex()
            assert result.t_index == want.t_index
            if algo == "da":
                assert result.x_avg_t.tobytes() == want.x_avg_t.tobytes()
            else:
                assert result.x_avg_t is None and want.x_avg_t is None

    def test_lazy(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(kwargs["algorithm"])
            return run_convex(*args, **kwargs)

        monkeypatch.setattr(analysis, "run_convex", counted)
        sweep = run_convex_sweep(3, 5)
        assert calls == []
        next(sweep)
        assert calls == ["da"]


class TestVerifySuite:
    def test_adagrad_da_dhat_is_bounded_by_its_own_distance(self, monkeypatch):
        # a run whose largest dhat lies between |x0 - x*|_inf and D = 1
        run = list(run_convex_sweep(1, 20, seed0=100))[-1]
        _, prob, x0, algo, _, result = run
        distance = float(np.abs(x0 - prob.known_minimizer).max())
        assert algo == "adagrad_da" and max(result.traj.extra("dhat")) < distance < 1.0
        _column(result.traj, "dhat")[-1] = (distance + 1.0) / 2.0
        monkeypatch.setattr(analysis, "run_convex_sweep", lambda *args, **kwargs: iter([run]))
        rows = [r for r in verify_suite("bounds") if r.name == "d_lower_bound"]
        assert len(rows) == 1 and rows[0].rhs == distance and not rows[0].satisfied

    def test_a_tag_names_the_seed_of_its_problem(self, monkeypatch):
        # each tagged row is made right after its run is drawn from the sweep
        sweep, tagged = analysis.run_convex_sweep, analysis._tagged
        drawn, named = [], {}

        def watched(*args, **kwargs):
            for item in sweep(*args, **kwargs):
                drawn.append(item[1].known_minimizer.tobytes())
                yield item

        def recorded(report, tag):
            named.setdefault(tag, set()).add(drawn[-1])
            return tagged(report, tag)

        monkeypatch.setattr(analysis, "run_convex_sweep", watched)
        monkeypatch.setattr(analysis, "_tagged", recorded)
        verify_suite("all")
        assert len(named) == 35  # adagrad_da has no lemma rows
        for tag, minimizers in named.items():
            seed = int(tag.rpartition("_seed")[2])
            want = piecewise_start(seed, dim=6, pieces=6, distance=1.0)[0].known_minimizer
            assert minimizers == {want.tobytes()}, tag


class TestEmaEquivalence:
    def test_three_decay_rates(self):
        rng = Rng(3, 3)
        for c in (0.5, 0.9, 0.999):
            gs = [rng.normal() for _ in range(100)]
            rep = check_ema_equivalence(c, gs)
            assert rep.satisfied, rep.context


class TestReportSerialization:
    def test_csv_layout(self):
        reports = [
            BoundReport("a", 1.0, 2.0, 1.0, True, "ctx"),
            BoundReport("b", 0.5, 0.25, -0.25, False, "has,comma"),
        ]
        text = reports_to_csv(reports)
        lines = text.strip().split("\n")
        assert lines[0] == "name,lhs,rhs,slack,satisfied,context"
        assert lines[1].startswith("a,1.0,2.0,1.0,True")
        assert '"has,comma"' in lines[2]

    def test_repr_floats_round_trip(self):
        rep = BoundReport("x", 1.0 / 3.0, 2.0 / 3.0, 1.0 / 3.0, True, "")
        row = reports_to_csv([rep]).splitlines()[1].split(",")
        assert float(row[1]) == 1.0 / 3.0


# --------------------------------------------------------------------------
# A NaN in any input a checker reads never makes a satisfied report


class _Column(list):
    """A sequence handed to a checker that records path + (step,) for each of
    its positions the checker reads, where position j holds step steps[j];
    only the steps 0, 1, n/2 and n-1 are recorded."""

    def __init__(self, values, read, path, steps=None):
        super().__init__(values)
        self.read, self.path = read, path
        self.steps = range(len(self)) if steps is None else steps
        n = self.steps[-1] + 1
        self.spots = {0, 1, n // 2, n - 1}

    def __getitem__(self, i):
        at = range(len(self))[i]
        for j in at if isinstance(i, slice) else (at,):
            if self.steps[j] in self.spots:
                self.read.add(self.path + (self.steps[j],))
        return super().__getitem__(i)

    def __iter__(self):
        return iter(self[:])


class _SpyTrajectory(Trajectory):
    """A copy of traj whose extra and d_series hand out _Columns, so the
    reads record path + (column, step)."""

    def __init__(self, traj, read, path=()):
        super().__init__(traj.kind, traj.avg_num.shape[0], traj.columns[len(STEP_COLUMNS):])
        self.meta = dict(traj.meta)
        self.extend(traj.pack().copy())
        self.read, self.path = read, path

    def extra(self, key):
        return _Column(super().extra(key), self.read, self.path + (key,))

    def d_series(self):
        # d_{n+1} is the d kept at the last step: a NaN candidate leaves it
        n = len(self.records)
        return _Column(super().d_series(), self.read, self.path + ("d",), [*range(n), n - 1])


class _SpyFields:
    """A dataclass instance whose fields, as a checker reads them, go through
    _spy under path + (name,)."""

    def __init__(self, inner, read, path):
        self._inner, self._read, self._path = inner, read, path

    def __getattr__(self, name):
        return _spy(getattr(self._inner, name), self._read, self._path + (name,))


def _spy(value, read, path):
    """value as a checker should see it, recording into read the path of
    each float it reads: a float or an array counts as one."""
    if isinstance(value, Trajectory):
        return _SpyTrajectory(value, read, path)
    if isinstance(value, list):
        return _Column(value, read, path)
    if is_dataclass(value):
        return _SpyFields(value, read, path)
    if isinstance(value, (float, np.ndarray)):
        read.add(path)
    return value


def _with_nan(value, path):
    """A copy of value with a NaN where _spy recorded path."""
    if isinstance(value, Trajectory):
        name, step = path
        copy = _SpyTrajectory(value, set())
        copy.pack()[step, copy.columns.index(name)] = math.nan
        return copy
    if isinstance(value, list):
        return [math.nan if i == path[0] else v for i, v in enumerate(value)]
    if is_dataclass(value):
        return replace(value, **{path[0]: _with_nan(getattr(value, path[0]), path[1:])})
    if isinstance(value, np.ndarray):
        copy = value.astype(np.float64)
        copy[0] = math.nan
        return copy
    return math.nan


def nan_cases():
    """(checker, inputs) pairs that each pass clean, with every checker and
    every trajectory kind that each checker takes."""
    cases = []
    for _, problem, x0, algo, _, result in run_convex_sweep(1, 40):
        D = float(np.abs(x0 - problem.known_minimizer).max()) if algo == "adagrad_da" else 1.0
        cases += [(check_d_lower_bound, (result.traj, D)), (check_snorm_bound, (result.traj,))]
        if algo != "adagrad_da":
            cases.append((check_telescoping, (result.traj,)))
        if algo == "da":
            cases.append((check_option_dominance, (result.traj,)))
    prob = abs_value_problem()
    fixed = _abs_da(n=500, g_mode="fixed", g_value=1.0)  # ends within 0.01 of x* = 0
    gnorms = [0.5, 1.0, 0.25, 0.75, 0.5]
    return cases + [
        (check_rate_theorem2, (fixed, prob, 1.0, 1.0)),
        (check_rate_asymptotic, (_abs_da(n=500), prob, 1.0, 1.0)),
        (check_dasym, (fixed, prob.known_minimizer, 1.0)),
        (check_streeter_mcmahan, (gnorms, 1.0, "sqrt")),
        (check_streeter_mcmahan, (gnorms, 1.0, "log")),
        (check_mindk, ([1.0, 1.5, 2.0, 2.0, 2.0, 2.0],)),
        (check_ema_equivalence, (0.5, [1.0, -0.5, 2.0, 0.25, 1.5])),
    ]


def check_nan_inputs_fail_or_skip(cases) -> None:
    """Each case's clean report is satisfied; a NaN put into any float its
    checker read there gives a failed or skipped report, or a refusal."""
    for check, args in cases:
        read = set()
        clean = check(*[_spy(arg, read, (i,)) for i, arg in enumerate(args)])
        assert clean.satisfied and not clean.skipped and read, clean
        for path in sorted(read, key=repr):
            bad = list(args)
            bad[path[0]] = _with_nan(args[path[0]], path[1:])
            try:
                rep = check(*bad)
            except ValueError:  # ema_pair refuses c = NaN
                continue
            assert rep.skipped or not rep.satisfied, (path, rep)


CHECKERS = sorted(name for name in analysis.__all__ if name.startswith("check_"))


@pytest.mark.parametrize("name", CHECKERS)
def test_a_nan_input_never_satisfies(name):
    cases = [case for case in nan_cases() if case[0].__name__ == name]
    assert cases
    check_nan_inputs_fail_or_skip(cases)
