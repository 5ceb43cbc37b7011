"""Numerical verification of the convergence-theory claims.

Each checker recomputes both sides of one lemma, identity, or rate bound
from a recorded trajectory (or raw sequences) and returns a BoundReport.
Identities are compared at 1e-8 relative tolerance, inequalities at 1e-9
absolute slack, and the option-dominance comparison at 1e-12 relative;
those defaults are pinned by the acceptance tests. Checks whose
preconditions do not hold on the given data come back skipped with the
reason in the context field, never as failures. verify_suite runs the
battery behind `dadapt verify` over small runs made here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import partial
from typing import Optional, Sequence

import numpy as np

from .convex import ConvexRunResult, run_convex
from .core import ConfigError, Problem, Rng, Trajectory, Vector, _sum, csv_text
from .ml import ema_pair, ema_pair_step
from .problems import abs_value_problem, piecewise_start

__all__ = [
    "BoundReport",
    "IDENTITY_RTOL",
    "INEQUALITY_ATOL",
    "DOMINANCE_RTOL",
    "EMA_RTOL",
    "log2p",
    "check_d_lower_bound",
    "check_telescoping",
    "check_streeter_mcmahan",
    "check_mindk",
    "check_rate_theorem2",
    "check_rate_asymptotic",
    "check_dasym",
    "check_option_dominance",
    "check_snorm_bound",
    "check_ema_equivalence",
    "reports_to_csv",
    "run_convex_sweep",
    "verify_suite",
]

IDENTITY_RTOL = 1e-8
INEQUALITY_ATOL = 1e-9
DOMINANCE_RTOL = 1e-12
EMA_RTOL = 1e-10

CSV_HEADER = ["name", "lhs", "rhs", "slack", "satisfied", "context"]


@dataclass(frozen=True)
class BoundReport:
    """Outcome of one check: satisfied iff lhs <= rhs + tolerance.

    Identity checks are two-sided (|lhs - rhs| small relative to scale);
    their tolerance handling is noted in context. Skipped reports carry
    nan bounds, satisfied=True, and the gating reason in context.
    """

    name: str
    lhs: float
    rhs: float
    slack: float
    satisfied: bool
    context: str = ""
    skipped: bool = False


def reports_to_csv(reports: Sequence[BoundReport]) -> str:
    return csv_text(
        CSV_HEADER, [(r.name, r.lhs, r.rhs, r.slack, r.satisfied, r.context) for r in reports]
    )


def _skipped(name: str, reason: str) -> BoundReport:
    nan = float("nan")
    return BoundReport(name, nan, nan, nan, True, f"skipped: {reason}", skipped=True)


def _report(
    name: str, lhs: float, rhs: float, context: str, satisfied: Optional[bool] = None
) -> BoundReport:
    """A report with slack rhs - lhs, satisfied by default iff
    lhs <= rhs + INEQUALITY_ATOL."""
    if satisfied is None:
        satisfied = lhs <= rhs + INEQUALITY_ATOL
    return BoundReport(name, lhs, rhs, rhs - lhs, satisfied, context)


def log2p(x: float) -> float:
    """max(1, log2(x)); the clamped log that appears in the rate bounds."""
    if x <= 0.0:
        raise ValueError("log2p needs a positive argument")
    return max(1.0, math.log2(x))


# --------------------------------------------------------------------------
# Estimate-never-exceeds-distance


def check_d_lower_bound(traj: Trajectory, D: float) -> BoundReport:
    """Every candidate dhat stays below the true initial distance D."""
    if not len(traj.records):
        raise ValueError("trajectory has no recorded steps")
    lhs = max(traj.extra("dhat"))
    return _report("d_lower_bound", lhs, D, f"kind={traj.kind} steps={len(traj.records)}")


# --------------------------------------------------------------------------
# Telescoping identity for the weighted hypergradient sum


def check_telescoping(traj: Trajectory) -> BoundReport:
    """Hypergradient sum equals its closed telescoped form.

    Dual-averaging runs: -sum gamma_k lam_k <g_k, s_k> =
      -(gamma_{n+1}/2)||s_{n+1}||^2 + sum (gamma_k/2) lam_k^2 ||g_k||^2
      + (1/2) sum (gamma_{k+1} - gamma_k) ||s_{k+1}||^2.
    Descent runs drop the gamma factors and the correction sum.
    """
    if traj.kind not in ("da", "gd"):
        raise ValueError(f"no telescoping form for trajectory kind {traj.kind!r}")
    if not len(traj.records):
        # zero steps: every sum is empty and s_0 = 0
        return _report("telescoping", 0.0, 0.0, f"kind={traj.kind} empty run")
    wg = traj.extra("wg_term")
    s2 = traj.extra("snorm2_after")
    lhs = -_sum(traj.extra("hyper_term"))
    if traj.kind == "da":
        gam = traj.extra("gamma")
        gam_next = traj.extra("gamma_or_lambda")
        rhs = (
            -0.5 * gam_next[-1] * s2[-1]
            + 0.5 * _sum(wg)
            + 0.5 * _sum((gn - go) * s for go, gn, s in zip(gam, gam_next, s2))
        )
    else:
        rhs = -0.5 * s2[-1] + 0.5 * _sum(wg)
    scale = max(abs(lhs), abs(rhs), 1.0)
    resid = abs(lhs - rhs)
    context = f"kind={traj.kind} residual={resid:.3e} (two-sided, relative)"
    return _report("telescoping", lhs, rhs, context, resid <= IDENTITY_RTOL * scale)


# --------------------------------------------------------------------------
# Gradient-sum inequalities behind the step-size analysis


def check_streeter_mcmahan(
    gnorms: Sequence[float], G: float, variant: str = "sqrt"
) -> BoundReport:
    """Classic adaptive step-size sums.

    variant="sqrt": sum ||g_k||^2 / sqrt(G^2 + sum_{i<k} ||g_i||^2)
      <= 2 sqrt(sum ||g_k||^2), and the half-weighted version is bounded
      by gamma_{n+1} (G^2 + sum ||g_k||^2); the binding side is reported.
    variant="log": sum ||g_k||^2 / (G^2 + sum_{i<=k} ||g_i||^2) <= log(n+2).
    """
    if G <= 0.0:
        raise ValueError("G must be positive")
    gn = [float(g) for g in gnorms]
    if not gn:
        raise ValueError("empty gradient sequence")
    if any(g < 0.0 for g in gn):
        raise ValueError("gradient norms must be >= 0")
    if any(g > G + 1e-12 for g in gn):
        raise ValueError("gradient norm exceeds the stated bound G")

    if variant == "log":
        total = G * G
        lhs = 0.0
        for g in gn:
            total += g * g
            lhs += g * g / total
        rhs = math.log(len(gn) + 1)
        return _report("streeter_mcmahan_log", lhs, rhs, f"n={len(gn) - 1}")
    if variant != "sqrt":
        raise ValueError(f"unknown variant {variant!r}")

    prefix = 0.0
    lhs1 = 0.0
    lhs2 = 0.0
    for g in gn:
        gamma_k = 1.0 / math.sqrt(G * G + prefix)
        lhs1 += g * g / math.sqrt(G * G + prefix)
        lhs2 += 0.5 * gamma_k * g * g
        prefix += g * g
    rhs1 = 2.0 * math.sqrt(prefix)
    rhs2 = math.sqrt(G * G + prefix)  # gamma_{n+1} * (G^2 + sum)
    ok1 = lhs1 <= rhs1 + INEQUALITY_ATOL
    ok2 = lhs2 <= rhs2 + INEQUALITY_ATOL
    # the unweighted display is the report's face; both must hold
    context = f"n={len(gn) - 1} half_weighted={lhs2:.6e}<={rhs2:.6e} ok={ok2}"
    return _report("streeter_mcmahan", lhs1, rhs1, context, ok1 and ok2)


# --------------------------------------------------------------------------
# The estimate sequence grows fast enough for prefix selection


def check_mindk(d_seq: Sequence[float]) -> BoundReport:
    """min_{n<=N} d_{n+1} / sum_{k<=n} d_k <= 4 log2p(d_{N+1}/d_0) / (N+1).

    Holds for non-decreasing positive sequences once N+1 >= 2 log2 of the
    total growth; shorter sequences come back skipped.
    """
    ds = [float(d) for d in d_seq]
    if len(ds) < 2:
        return _skipped("mindk", "need at least d_0 and d_1")
    if any(d <= 0.0 for d in ds):
        return _skipped("mindk", "d values must be positive")
    if any(b < a for a, b in zip(ds, ds[1:])):
        return _skipped("mindk", "d sequence must be non-decreasing")
    N = len(ds) - 2
    growth = ds[-1] / ds[0]
    if N + 1 < 2.0 * math.log2(max(growth, 1.0)):
        return _skipped("mindk", f"N+1={N + 1} < 2*log2(growth={growth:.3e})")
    running = 0.0
    lhs = math.inf
    for n in range(N + 1):
        running += ds[n]
        lhs = min(lhs, ds[n + 1] / running)
    rhs = 4.0 * log2p(growth) / (N + 1)
    return _report("mindk", lhs, rhs, f"N={N} growth={growth:.3e}")


# --------------------------------------------------------------------------
# Rate bounds at the selected prefix


def check_rate_theorem2(
    result: ConvexRunResult, problem: Problem, D: float, G: float
) -> BoundReport:
    """Suboptimality of the selected-prefix average meets the stated rate.

    Requires a dual-averaging run with the G-seeded denominator and a
    problem with known optimal value. Both the gradient-sum form and the
    DG/sqrt(n+1) form are evaluated; the reported rhs is the tighter one
    and both must hold.
    """
    traj = result.traj
    if traj.kind != "da" or traj.meta.get("g_mode") != "fixed":
        raise ValueError("rate check needs a dual-averaging run with the G-seeded denominator")
    if problem.known_fstar is None:
        raise ValueError("rate check needs the optimal value")
    if result.t_index is None or result.x_avg_t is None:
        raise ValueError("run result carries no selected prefix")
    n = len(traj.records) - 1
    d0 = traj.extra("d")[0]
    d_final = traj.d_series()[-1]
    if n < 2.0 * math.log2(max(D / d0, 1.0)):
        return _skipped("rate_theorem2", f"n={n} < 2*log2(D/d_0={D / d0:.3e})")
    t = result.t_index
    gsum_t = _sum(traj.extra("gnorm2")[: t + 1])
    lhs = problem.value(result.x_avg_t) - problem.known_fstar
    rhs_gradsum = 16.0 * log2p(d_final / d0) / (n + 1) * D * math.sqrt(gsum_t)
    rhs_dg = 16.0 * D * G * log2p(D / d0) / math.sqrt(n + 1)
    rhs = min(rhs_gradsum, rhs_dg)
    ok = lhs <= rhs_gradsum + INEQUALITY_ATOL and lhs <= rhs_dg + INEQUALITY_ATOL
    context = f"t={t} n={n} gradsum_form={rhs_gradsum:.6e} dg_form={rhs_dg:.6e}"
    return _report("rate_theorem2", lhs, rhs, context, ok)


def check_rate_asymptotic(
    result: ConvexRunResult, problem: Problem, D: float, G: float
) -> BoundReport:
    """Whole-run average meets 16DG/sqrt(n+1) + 8DG^2/((n+1)||g_0||).

    This is the rate for the plain denominator (no G seeding), evaluated
    at the weighted average of all visited points.
    """
    traj = result.traj
    if traj.kind != "da":
        raise ValueError("rate check needs a dual-averaging run")
    if problem.known_fstar is None:
        raise ValueError("rate check needs the optimal value")
    if not len(traj.records):
        raise ValueError("trajectory has no recorded steps")
    n = len(traj.records) - 1
    g0 = math.sqrt(traj.extra("gnorm2")[0])
    lhs = problem.value(result.x_avg) - problem.known_fstar
    rhs = 16.0 * D * G / math.sqrt(n + 1) + 8.0 * D * G * G / ((n + 1) * g0)
    return _report("rate_asymptotic", lhs, rhs, f"n={n} g0={g0:.6e}")


# --------------------------------------------------------------------------
# Asymptotic level of the estimate


def check_dasym(result: ConvexRunResult, x_star: Vector, D: float) -> BoundReport:
    """Once the iterates have essentially converged, d reaches D/(1+sqrt(3)).

    The asymptotic statement is checked at finite horizon with a 0.05*D
    slack; if the final point is not yet within 0.01*D of the minimizer
    the premise is unmet and the check is skipped.
    """
    if D <= 0.0:
        raise ValueError("D must be positive")
    dist = float(np.linalg.norm(result.x_final - np.asarray(x_star, dtype=np.float64)))
    if dist > 0.01 * D:
        return _skipped("dasym", f"final distance {dist:.3e} > 0.01*D, not converged")
    lhs = D / (1.0 + math.sqrt(3.0)) - 0.05 * D
    rhs = result.d_final
    return _report("dasym", lhs, rhs, f"finite-horizon slack 0.05*D, final distance {dist:.3e}")


# --------------------------------------------------------------------------
# The hypergradient candidate dominates the norm-based candidate


def check_option_dominance(traj: Trajectory) -> BoundReport:
    """Option II numerator >= option I numerator at every prefix.

    Both numerators are reconstructed from the same recorded (d, gamma, g)
    stream, so the comparison is valid whichever option drove d.
    """
    if traj.kind != "da":
        raise ValueError("dominance check needs a dual-averaging trajectory")
    hyper = traj.extra("hyper_term")
    wg = traj.extra("wg_term")
    s2 = traj.extra("snorm2_after")
    gam_next = traj.extra("gamma_or_lambda")
    num_ii = 0.0
    sum_wg = 0.0
    worst = -math.inf
    worst_k = -1
    ok = True
    for k in range(len(hyper)):
        num_ii += hyper[k]
        sum_wg += wg[k]
        num_i = 0.5 * gam_next[k] * s2[k] - 0.5 * sum_wg
        gap = num_i - num_ii
        if gap > worst:
            worst = gap
            worst_k = k
        tol = DOMINANCE_RTOL * max(1.0, abs(num_i), abs(num_ii))
        if gap > tol:
            ok = False
    return BoundReport(
        name="option_dominance",
        lhs=worst,
        rhs=0.0,
        slack=-worst,
        satisfied=ok,
        context=f"worst prefix k={worst_k} of {len(hyper)}",
    )


# --------------------------------------------------------------------------
# Dual-average norm stays controlled


def check_snorm_bound(traj: Trajectory) -> BoundReport:
    """The final dual average obeys the geometry-matched norm bound.

    da:         ||s|| <= 2 d/gamma + (sum gamma_k lam_k^2 ||g_k||^2) / (2d)
    gd:         ||s|| <= 2 d + (sum lam_k^2 ||g_k||^2) / (2d)
    adagrad_da: ||s||_1 <= 3 d ||a||_1
    with d the final estimate.
    """
    if not len(traj.records):
        raise ValueError("trajectory has no recorded steps")
    d_final = traj.d_series()[-1]
    if traj.kind == "da":
        lhs = math.sqrt(traj.extra("snorm2_after")[-1])
        gamma_final = traj.extra("gamma_or_lambda")[-1]
        rhs = 2.0 * d_final / gamma_final + _sum(traj.extra("wg_term")) / (2.0 * d_final)
    elif traj.kind == "gd":
        lhs = math.sqrt(traj.extra("snorm2_after")[-1])
        rhs = 2.0 * d_final + _sum(traj.extra("wg_term")) / (2.0 * d_final)
    elif traj.kind == "adagrad_da":
        lhs = traj.extra("s_l1_after")[-1]
        rhs = 3.0 * d_final * traj.extra("a_l1_after")[-1]
    else:
        raise ValueError(f"no dual-average norm bound for kind {traj.kind!r}")
    return _report("snorm_bound", lhs, rhs, f"kind={traj.kind} d_final={d_final:.6e}")


# --------------------------------------------------------------------------
# Moving-average / weighted-sum equivalence


def check_ema_equivalence(c: float, gs: Sequence[float]) -> BoundReport:
    """After each update, u_hat == c^k (1-c) u for the paired recursions."""
    pair = ema_pair(c)
    worst = 0.0
    for g in gs:
        pair = ema_pair_step(pair, float(g))
        # after update number k (counting from zero) the exponent is k, and
        # pair.k has already been advanced past it
        expected = (pair.c ** (pair.k - 1)) * (1.0 - pair.c) * pair.u
        scale = max(abs(expected), abs(pair.u_hat), 1e-300)
        worst = max(worst, abs(pair.u_hat - expected) / scale)
    return _report("ema_equivalence", worst, EMA_RTOL, f"c={c} steps={len(gs)}", worst <= EMA_RTOL)


# --------------------------------------------------------------------------
# The battery behind `dadapt verify`


def _tagged(report: BoundReport, tag: str) -> BoundReport:
    return replace(report, context=f"{report.context} [{tag}]")


def run_convex_sweep(n_problems: int, n_steps: int, seed0: int = 0):
    """Yield (seed, problem, x0, algorithm, option, result) for the convex battery:
    the variants (da, I), (da, II), (gd, I) and (adagrad_da, I), in that order,
    from d0 = 1e-3 on each problem piecewise_start(seed, dim=6, pieces=6,
    distance=1.0), seed = seed0, ..., seed0 + n_problems - 1, bounded by
    g_value=problem.lipschitz, g_inf=problem.lipschitz_inf."""
    for seed in range(seed0, seed0 + n_problems):
        problem, x0 = piecewise_start(seed, dim=6, pieces=6, distance=1.0)
        for algorithm, option in (("da", "I"), ("da", "II"), ("gd", "I"), ("adagrad_da", "I")):
            yield seed, problem, x0, algorithm, option, run_convex(
                problem, x0, algorithm=algorithm, d0=1e-3, n=n_steps, option=option,
                g_value=problem.lipschitz, g_inf=problem.lipschitz_inf,
            )


def verify_suite(suite: str = "all", quick: bool = True) -> list[BoundReport]:
    """Battery behind `verify`: lemma identities and/or rate bounds."""
    if suite not in ("lemmas", "bounds", "all"):
        raise ConfigError(f"unknown suite {suite!r}")
    reports: list[BoundReport] = []
    n_problems = 5 if quick else 20
    n_steps = 200 if quick else 1000

    if suite in ("lemmas", "all"):
        for seed, _, _, algo, option, result in run_convex_sweep(n_problems, n_steps, seed0=0):
            traj, tag = result.traj, f"{algo}_{option}_seed{seed}"
            if traj.kind in ("da", "gd"):
                reports.append(_tagged(check_telescoping(traj), tag))
            if traj.kind == "da":
                reports.append(_tagged(check_option_dominance(traj), tag))
        rng = Rng(7, stream_id=2)
        for i in range(n_problems):
            G = 1.0 + rng.uniform()
            gnorms = [G * rng.uniform() for _ in range(n_steps)]
            reports.append(check_streeter_mcmahan(gnorms, G, variant="sqrt"))
            reports.append(check_streeter_mcmahan(gnorms, G, variant="log"))
            ds = [1e-4]
            for _ in range(n_steps):
                ds.append(ds[-1] * (1.0 + rng.uniform() * 0.05))
            reports.append(check_mindk(ds))
        for c in (0.5, 0.9, 0.999):
            gs = [rng.normal() for _ in range(100)]
            reports.append(check_ema_equivalence(c, gs))

    if suite in ("bounds", "all"):
        for seed, prob, x0, algo, option, result in run_convex_sweep(n_problems, n_steps, seed0=100):
            traj, tag = result.traj, f"{algo}_{option}_seed{seed}"
            # D = 1; adagrad_da's bound is the start's max-norm distance, as in the gate
            D = float(np.abs(x0 - prob.known_minimizer).max()) if algo == "adagrad_da" else 1.0
            reports.append(_tagged(check_d_lower_bound(traj, D), tag))
            reports.append(_tagged(check_snorm_bound(traj), tag))
        abs_prob = abs_value_problem()
        da_on_abs = partial(run_convex, abs_prob, np.array([1.0]), algorithm="da", d0=0.1)
        n_rate = 2000 if quick else 10000
        result = da_on_abs(n=n_rate, g_mode="fixed", g_value=1.0)
        reports.append(check_rate_theorem2(result, abs_prob, D=1.0, G=1.0))
        reports.append(check_rate_asymptotic(da_on_abs(n=n_rate), abs_prob, D=1.0, G=1.0))
        result_long = da_on_abs(n=20000 if quick else 100000, g_mode="fixed", g_value=1.0)
        reports.append(check_dasym(result_long, abs_prob.known_minimizer, D=1.0))
    return reports
