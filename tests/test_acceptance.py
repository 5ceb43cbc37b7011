"""Acceptance gate: eleven criteria, one printed PASS/FAIL line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; each criterion states its tolerance and runtime budget inline.
"""

import math
import time

import numpy as np
import pytest

from dadapt import cli
from dadapt.analysis import (
    check_dasym,
    check_ema_equivalence,
    check_mindk,
    check_option_dominance,
    check_rate_asymptotic,
    check_rate_theorem2,
    check_snorm_bound,
    check_streeter_mcmahan,
    check_telescoping,
    run_convex_sweep,
)
from dadapt.convex import (
    adagrad_da_init,
    adagrad_da_step,
    da_init,
    da_step,
    gd_init,
    gd_step,
    run_convex,
)
from dadapt.core import Rng
from dadapt.harness import ExperimentConfig, d0_sweep, grid_search
from dadapt.ml import adam_da_init, adam_da_step, sgd_da_init, sgd_da_step
from dadapt.problems import abs_value_problem

ATOL = 1e-9


def _report(num: int, desc: str, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" [{detail}]" if detail else ""
    print(f"CRITERION {num:02d} {status}: {desc}{suffix}")
    assert ok, f"criterion {num}: {desc}{suffix}"


@pytest.fixture(scope="module")
def soundness_runs():
    """100 random piecewise problems x 1000 steps x 4 algorithm variants."""
    t0 = time.perf_counter()
    runs = []
    for _, prob, x0, algo, _, result in run_convex_sweep(100, 1000):
        # D = 1; adagrad_da's bound is the start's max-norm distance
        bound = float(np.abs(x0 - prob.known_minimizer).max()) if algo == "adagrad_da" else 1.0
        runs.append((result, bound))
    return runs, time.perf_counter() - t0


def test_criterion_01_d_lower_bound_soundness(soundness_runs):
    runs, elapsed = soundness_runs
    violations = 0
    worst_gap = -math.inf
    for result, bound in runs:
        d_cap = max(1e-3, bound) + ATOL
        records = result.traj.records
        d, dhat = records[:, 1], records[:, 2]
        violations += np.count_nonzero(dhat > bound + ATOL) + np.count_nonzero(d > d_cap)
        worst_gap = max(worst_gap, np.max(dhat - bound, initial=-math.inf).item())
        if result.d_final > d_cap:
            violations += 1
    ok = violations == 0 and elapsed < 30.0
    _report(
        1,
        "every d-hat candidate stays below the true distance and d below "
        "max(d0, D), 400 runs x 1000 steps",
        ok,
        f"violations={violations} worst_gap={worst_gap:.3e} elapsed={elapsed:.2f}s",
    )


def test_criterion_02_identity_suite(soundness_runs):
    runs, _ = soundness_runs
    n_tel, n_snorm, failed = 0, 0, 0
    for result, _ in runs:
        traj = result.traj
        if traj.kind in ("da", "gd"):
            rep = check_telescoping(traj)
            n_tel += 1
            scale = max(abs(rep.lhs), abs(rep.rhs), 1e-300)
            if not rep.satisfied or abs(rep.lhs - rep.rhs) / scale > 1e-8:
                failed += 1
        rep = check_snorm_bound(traj)
        n_snorm += 1
        if not rep.satisfied:
            failed += 1
    ok = failed == 0 and n_tel == 300 and n_snorm == 400
    _report(
        2,
        "telescoping identity (1e-8 relative) and gradient-sum norm bounds "
        "hold on every criterion-1 run",
        ok,
        f"telescoping={n_tel} snorm={n_snorm} failed={failed}",
    )


def test_criterion_03_nonasymptotic_rate():
    # CPU time of this process: time spent descheduled on a loaded host does not count
    t0 = time.process_time()
    prob = abs_value_problem()
    x0 = np.array([1.0])
    seeded = run_convex(
        prob, x0, algorithm="da", d0=0.1, n=10_000, g_mode="fixed", g_value=1.0
    )
    rep_t2 = check_rate_theorem2(seeded, prob, D=1.0, G=1.0)
    plain = run_convex(prob, x0, algorithm="da", d0=0.1, n=10_000)
    rep_asym = check_rate_asymptotic(plain, prob, D=1.0, G=1.0)
    elapsed = time.process_time() - t0
    ok = (
        not rep_t2.skipped
        and rep_t2.satisfied
        and rep_t2.slack > 0.0
        and rep_asym.satisfied
        and elapsed < 1.0
    )
    _report(
        3,
        "|x| run at n=1e4 meets the selected-prefix rate with positive slack "
        "and the whole-run 16DG/sqrt(n+1) + 8DG^2/((n+1)|g0|) bound",
        ok,
        f"slack={rep_t2.slack:.4f} whole_run={rep_asym.lhs:.5f}<="
        f"{rep_asym.rhs:.5f} elapsed={elapsed:.2f}s",
    )


def test_criterion_04_asymptotic_d_level():
    t0 = time.perf_counter()
    prob = abs_value_problem()
    result = run_convex(
        prob, np.array([1.0]), algorithm="da", d0=0.1, n=100_000,
        g_mode="fixed", g_value=1.0,
    )
    rep = check_dasym(result, prob.known_minimizer, D=1.0)
    elapsed = time.perf_counter() - t0
    threshold = 1.0 / (1.0 + math.sqrt(3.0)) - 0.05
    ok = (
        not rep.skipped
        and rep.satisfied
        and result.d_final >= threshold
        and abs(float(result.x_final[0])) <= 0.01
        and elapsed < 5.0
    )
    _report(
        4,
        "after 1e5 converged steps the final d reaches D/(1+sqrt(3)) - 0.05",
        ok,
        f"final_d={result.d_final:.4f} >= {threshold:.4f} "
        f"|x_n|={abs(float(result.x_final[0])):.2e} elapsed={elapsed:.2f}s",
    )


def test_criterion_05_option_dominance(soundness_runs):
    runs, _ = soundness_runs
    n_checked, failed = 0, 0
    for result, _ in runs:
        if result.traj.kind != "da":
            continue
        rep = check_option_dominance(result.traj)
        n_checked += 1
        if not rep.satisfied:
            failed += 1
    ok = failed == 0 and n_checked == 200
    _report(
        5,
        "hypergradient numerator dominates the default numerator at every "
        "step (1e-12 relative) on all dual-averaging runs",
        ok,
        f"runs={n_checked} failed={failed}",
    )


def _synth_config(tmp_path, **kw):
    base = dict(
        problem="synth_logistic",
        algorithm="sgd_da",
        epochs=100,
        schedule="stagewise",
        batch_size=16,
        synth_n=1000,
        synth_dim=20,
        synth_flip=0.05,
        record_f_every=500,
        seeds=(0,),
        problem_seed=3,
        out_dir=str(tmp_path),
    )
    base.update(kw)
    return ExperimentConfig(**base)


def test_criterion_06_d0_insensitivity(tmp_path):
    t0 = time.perf_counter()
    cfg = _synth_config(tmp_path)
    result = d0_sweep(cfg, (1e-16, 1e-12, 1e-8, 1e-6, 1e-4, 1e-2))
    elapsed = time.perf_counter() - t0
    ok = result.relative_spread < 0.01 and elapsed < 60.0
    _report(
        6,
        "final logistic training loss spreads < 1% across initial d "
        "estimates from 1e-16 to 1e-2",
        ok,
        f"spread={result.relative_spread:.2e} elapsed={elapsed:.1f}s",
    )


def test_criterion_07_grid_match(tmp_path):
    t0 = time.perf_counter()
    cfg = _synth_config(tmp_path, algorithm="adagrad", d0=1e-6)
    lrs = [10.0**e for e in range(-4, 3)]
    result = grid_search(cfg, lrs, compare_algorithm="adagrad_da")
    elapsed = time.perf_counter() - t0
    rel_gap = (result.compare_f - result.best_f) / result.best_f
    ok = rel_gap <= 0.05
    _report(
        7,
        "untuned coordinate-wise adaptive run lands within 5% of the best "
        "7-point step-size grid of plain coordinate-wise descent",
        ok,
        f"best_grid={result.best_f:.6f}@lr={result.best_lr} "
        f"adaptive={result.compare_f:.6f} gap={rel_gap:+.2%} elapsed={elapsed:.1f}s",
    )


def test_criterion_08_ema_equivalence():
    failed = 0
    rng = Rng(42, stream_id=5)
    for c in (0.5, 0.9, 0.999):
        for _ in range(100):
            gs = [rng.normal() for _ in range(100)]
            if not check_ema_equivalence(c, gs).satisfied:
                failed += 1
    ok = failed == 0
    _report(
        8,
        "scaled-accumulator / moving-average equivalence holds to 1e-10 "
        "relative over 100 steps, 100 sequences, three decay rates",
        ok,
        f"sequences=300 failed={failed}",
    )


def test_criterion_09_randomized_lemma_sweeps():
    rng = Rng(7, stream_id=6)
    streeter_failed = 0
    for _ in range(1000):
        G = 0.5 + rng.uniform() * 2.0
        n = 1 + rng.integer(64)
        gn = [G * rng.uniform() for _ in range(n)]
        if not check_streeter_mcmahan(gn, G).satisfied:
            streeter_failed += 1

    mindk_failed, mindk_ran, gate_errors = 0, 0, 0
    for _ in range(1000):
        n = 2 + rng.integer(40)
        seq = [1e-4 * (1.0 + rng.uniform())]
        for _ in range(n):
            seq.append(seq[-1] * (1.0 + rng.uniform() * 0.3))
        rep = check_mindk(seq)
        if rep.skipped:
            # gate must be the length precondition, recomputed independently
            growth = seq[-1] / seq[0]
            if len(seq) - 1 >= 2.0 * math.log2(max(growth, 1.0)):
                gate_errors += 1
        else:
            mindk_ran += 1
            if not rep.satisfied:
                mindk_failed += 1
    ok = (
        streeter_failed == 0
        and mindk_failed == 0
        and gate_errors == 0
        and mindk_ran >= 500
    )
    _report(
        9,
        "1000 random gradient-sum instances and 1000 random monotone d "
        "sequences pass (skips only where the stated gate applies)",
        ok,
        f"streeter_failed={streeter_failed} mindk_ran={mindk_ran} "
        f"mindk_failed={mindk_failed} gate_errors={gate_errors}",
    )


def test_criterion_10_hand_trace_oracles():
    tol = 1e-9
    failures = []

    def expect(label, got, want):
        if got != pytest.approx(want, abs=tol):
            failures.append(f"{label}: {got!r} != {want!r}")

    # dual averaging, default numerator: steps 0 and 1 on |x|, x0=1, d0=0.1
    st = da_init(np.array([1.0]), 0.1, option="I")
    da_step(st, np.array([1.0]))
    expect("da0.s", st.s[0], 0.1)
    expect("da0.gamma", st.gamma, 1.0)
    expect("da0.dhat", st.traj.extra("dhat")[-1], 0.0)
    expect("da0.x", st.x[0], 0.9)
    da_step(st, np.array([1.0]))
    expect("da1.gamma", st.gamma, 1.0 / math.sqrt(2.0))
    expect("da1.dhat", st.traj.extra("dhat")[-1], (0.04 / math.sqrt(2.0) - 0.02) / 0.4)
    expect("da1.x", st.x[0], 1.0 - 0.2 / math.sqrt(2.0))

    # hypergradient numerator after the same two steps
    st2 = da_init(np.array([1.0]), 0.1, option="II")
    da_step(st2, np.array([1.0]))
    da_step(st2, np.array([1.0]))
    expect("daII.dhat", st2.traj.extra("dhat")[-1], 0.05)

    # gradient descent form, step 0 (G known)
    st3 = gd_init(np.array([1.0]), 0.1, G=1.0)
    gd_step(st3, np.array([1.0]))
    expect("gd0.lam", st3.traj.extra("gamma_or_lambda")[0], 0.1 / math.sqrt(2.0))
    expect("gd0.x", st3.x[0], 1.0 - 0.1 / math.sqrt(2.0))

    # coordinate-wise form, step 0
    st4 = adagrad_da_init(np.array([1.0]), 0.1, g_inf=1.0)
    adagrad_da_step(st4, np.array([1.0]))
    expect("ada0.a", st4.a[0], math.sqrt(2.0))
    expect("ada0.dhat", st4.traj.extra("dhat")[-1], (0.01 / math.sqrt(2.0) - 0.01) / 0.2)
    expect("ada0.x", st4.x[0], 1.0 - 0.1 / math.sqrt(2.0))

    # stochastic form with primal averaging, steps 0 and 1
    st5 = sgd_da_init(np.array([1.0]), d0=0.1, beta=0.9, G=1.0)
    sgd_da_step(st5, np.array([1.0]), sched=1.0)
    expect("sgd0.z", st5.z[0], 0.9)
    expect("sgd0.x", st5.x[0], 0.99)
    expect("sgd0.dhat", st5.traj.extra("dhat")[-1], 0.0)
    sgd_da_step(st5, np.array([1.0]), sched=1.0)
    expect("sgd1.hyper", st5.hypergrad_sum, 0.01)
    expect("sgd1.s", st5.s[0], 0.2)
    expect("sgd1.z", st5.z[0], 0.8)
    expect("sgd1.x", st5.x[0], 0.971)
    expect("sgd1.dhat", st5.traj.extra("dhat")[-1], 0.1)

    # moving-average form, step 0
    st6 = adam_da_init(np.array([1.0]), d0=0.1)
    adam_da_step(st6, np.array([1.0]), sched=1.0)
    expect("adam0.m", st6.m[0], 0.01)
    expect("adam0.v", st6.v[0], 0.001)
    expect("adam0.x", st6.x[0], 1.0 - 0.01 / (math.sqrt(0.001) + 1e-8))
    expect("adam0.s", st6.s[0], (1.0 - math.sqrt(0.999)) * 0.1)
    expect("adam0.r", st6.r, 0.0)
    expect("adam0.dhat", st6.traj.extra("dhat")[-1], 0.0)

    ok = not failures
    _report(
        10,
        "all worked first-step values (five algorithms) reproduce to 1e-9",
        ok,
        "; ".join(failures) if failures else "30 values checked",
    )


def test_criterion_11_run_determinism(tmp_path):
    def invoke(out_dir):
        code = cli.main(
            [
                "run",
                "--set", "problem=piecewise",
                "--set", "algorithm=da_II",
                "--set", "n_steps=300",
                "--set", "d0=0.001",
                "--set", "seeds=0,1",
                "--set", f"out_dir={out_dir}",
            ]
        )
        assert code == 0
        (run_dir,) = list((tmp_path / out_dir).iterdir())
        return {p.name: p.read_bytes() for p in sorted(run_dir.iterdir())}

    import os

    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        first = invoke("first")
        second = invoke("second")
    finally:
        os.chdir(cwd)
    ok = first == second and set(first) == {
        "steps_seed0.csv", "steps_seed1.csv", "summary.csv", "aggregate.csv"
    }
    _report(
        11,
        "repeated `run` with fixed config and seeds is byte-identical",
        ok,
        f"files={sorted(first)}",
    )
