"""One-line mutants of the steppers and of the bit-keeping paths around
them that the fast non-golden tests must catch.

A declared re-record rewrites the golden digests, and then only the other
tests stand between a stepper bug and the new digests. Each entry below
changes one line of a stepper (a scalar stepper function or a lane class's
step method), of core.drive_lanes or Lanes.write_back, which hand each
lane's rows and every state field to its state, of Trajectory.extend,
which logs those rows, of Trajectory.update_average, whose fold makes a new
numerator, of Rng's bulk draws, of the piecewise oracle, which hands out
rows of its read-only, finite slopes, of the logistic oracle's gradient on
signed rows and its fixed-shape value gemm, of the return prefix's tie rule,
or of the bound checkers' NaN rule. It is built from that source
by one str.replace that must match exactly once, so a refactor that moves
the text fails here until the list is updated. A mutant function is bound in
place of the original in every loaded module that holds it, test modules
included; a mutant method is set on its class. A fixed battery must then
report a failure: criterion 10's hand traces, the sgd_da and adam_da hand
traces, adagrad_norm's projection, an append after an extend, the two
crafted Rng states, a stopped lane riding along, the signed-row gradient
against its two-array form, full_values in every chunking, the online
prefix pick against its replay, tied prefix ratios, the piecewise oracle's
read-only row and its refusal of non-finite slopes, a NaN in each input of
each bound checker, the quick verify
lemmas and one seeded lanes-match-lone-runs case for each lane form. The
identity control must pass that battery.
"""

import inspect
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest

import test_acceptance as acceptance
import test_analysis
import test_convex
import test_core
import test_harness
import test_lanes as lanes
import test_ml
import test_problems
from dadapt import analysis, baselines, convex, core, ml, problems
from dadapt.analysis import verify_suite
from dadapt.harness import ExperimentConfig
from dadapt.problems import LogisticProblem, synth_dataset

# (name, owner, function, old text, new text): the owner is the module of a
# function or the class of a method. A mutant's test id is its name, so
# entries can be added, dropped or moved without renaming the others; the
# number in a name is only the next free one when the entry was added.
MUTANTS = [
    # the step-size denominator leaves out the current gradient
    (
        "gd_step-0", convex, "gd_step",
        "lam = sched * state.d / math.sqrt(state.G * state.G + state.sum_gsq)",
        "lam = sched * state.d / math.sqrt(state.G * state.G + state.sum_gsq - gnorm2)",
    ),
    # the iterate moves with the step size before this gradient
    (
        "da_step-1", convex, "da_step",
        "state.x = state.x0 - gamma_new * state.s",
        "state.x = state.x0 - gamma_old * state.s",
    ),
    # the weighted term reads the denominators after their update
    (
        "adagrad_da_step-2", convex, "adagrad_da_step",
        "g2 / state.a",
        "g2 / np.sqrt(state.a * state.a + g2)",
    ),
    # a perturbed hypergradient inner product
    (
        "da_step-3", convex, "da_step",
        "ip_gs = _dot(g, state.s)",
        "ip_gs = _dot(g, state.s) * (1.0 + 1e-6)",
    ),
    # the estimate without its factor of two
    (
        "sgd_da_step-4", ml, "sgd_da_step",
        "d_hat = 0.0 if snorm == 0.0 else 2.0 * state.hypergrad_sum / snorm",
        "d_hat = 0.0 if snorm == 0.0 else state.hypergrad_sum / snorm",
    ),
    # eps under the square root
    (
        "adam_da_step-5", ml, "adam_da_step",
        "denom = np.sqrt(state.v) + state.eps",
        "denom = np.sqrt(state.v + state.eps)",
    ),
    # the projection onto a ball about the current iterate, not about x0
    (
        "adagrad_norm_step-6", baselines, "adagrad_norm_step",
        "x = state.x0 + delta * (state.radius / dist)",
        "x = state.x + delta * (state.radius / dist)",
    ),
    # the schedule left out of the step
    (
        "_adagrad_step-7", baselines, "_adagrad_step",
        "state.x = state.x - mult * step",
        "state.x = state.x - state.lr * step",
    ),
    # the average takes the old gradient-step point
    (
        "SGDDALanes.step-8", ml.SGDDALanes, "step",
        "x = self.beta[:, None] * self.x + (1.0 - self.beta[:, None]) * z",
        "x = self.beta[:, None] * self.x + (1.0 - self.beta[:, None]) * self.z",
    ),
    # the schedule left out of the lanes' step
    (
        "AdaGradLanes.step-10", baselines.AdaGradLanes, "step",
        "mult = self.lr * sched",
        "mult = self.lr",
    ),
    # the lanes' rows go to the states in reverse
    (
        "drive_lanes-12", core, "drive_lanes",
        "enumerate(lanes.states)",
        "enumerate(lanes.states[::-1])",
    ),
    # a stopped lane's later exits and refusals move its stop
    ("drive_lanes-17", core, "drive_lanes", "stop = ~ok & live", "stop = ~ok"),
    # the first lane that ran to the end keeps its start state
    (
        "Lanes.write_back-13", core.Lanes, "write_back",
        "for b in np.flatnonzero(live).tolist():",
        "for b in np.flatnonzero(live).tolist()[1:]:",
    ),
    # the last field of each lane form is not written back
    (
        "Lanes.write_back-14", core.Lanes, "write_back",
        "for name in self._arrays:",
        "for name in self._arrays[:-1]:",
    ),
    # a lane's state keeps its start's step count
    ("Lanes.write_back-15", core.Lanes, "write_back", "state.k = n", "pass"),
    # an appended row's d is checked against the d before an extended table
    ("Trajectory.extend-16", core.Trajectory, "extend", "self._last_d = d[-1].item()", "pass"),
    # a bulk draw within n of 2^64 but below 2^64 - 1 is kept, where
    # integer(n) would redraw it
    ("Rng.permutations-9", core.Rng, "permutations", "(1 << 64) - n", "(1 << 64) - 1"),
    # a zero uniform goes to log unguarded, where normal() takes 2^-53
    ("_box_muller-11", core, "_box_muller", "u1[u1 == 0.0] = 2.0**-53", "pass"),
    # the label's sign folded into the divisor: a sum of signed zeros, as an
    # all-zero feature column gives, comes out with the other sign
    (
        "_grads-18", problems, "_grads",
        "coeff *= -1.0\n"
        "    G = np.matmul(Z.T, coeff[:, :, None])[:, :, 0] / Z.shape[0]",
        "G = np.matmul(Z.T, coeff[:, :, None])[:, :, 0] / -Z.shape[0]",
    ),
    # negative() flips a NaN coefficient's sign bit, where -y * coeff kept it
    ("_grads-19", problems, "_grads", "coeff *= -1.0", "np.negative(coeff, coeff)"),
    # the value gemm sized to its points: a column's bits follow the shape,
    # so a point's f would depend on how the points are split
    (
        "LogisticProblem.full_values-20", LogisticProblem, "full_values",
        "P = np.zeros((_F_ROWS, self.dim))",
        "P = np.zeros((len(rows), self.dim))",
    ),
    # the average folded in place: da_step's picked prefix holds the numerator
    # uncopied, so it would follow the whole run's average
    (
        "Trajectory.update_average-21", core.Trajectory, "update_average",
        "self.avg_num = self.avg_num + w * x",
        "self.avg_num += w * x",
    ),
    # the slopes left writable: a write into a returned subgradient would
    # change the problem
    (
        "piecewise_max_problem-22", problems, "piecewise_max_problem",
        "slopes.flags.writeable = False", "pass",
    ),
    # non-finite slopes let in: an infinite one breaks the dot's bits
    (
        "piecewise_max_problem-23", problems, "piecewise_max_problem",
        "np.isfinite(slopes).all() and np.isfinite(offsets).all()", "True",
    ),
    # a tie goes to the earlier prefix, where the rule takes the later one
    ("_prefix_step-24", convex, "_prefix_step", "if ratio <= best:", "if ratio < best:"),
    # a report keeps the satisfied its caller gave it over a NaN bound
    (
        "BoundReport.__post_init__-25", analysis.BoundReport, "__post_init__",
        'object.__setattr__(self, "satisfied", False)', "pass",
    ),
    # Python's max, which passes over a NaN that is not first
    ("_max-26", analysis, "_max", "values[int(np.argmax(values))]", "max(values)"),
    # a NaN distance passes the convergence premise, where it should skip
    ("check_dasym-27", analysis, "check_dasym", "if not dist <= 0.01 * D:", "if dist > 0.01 * D:"),
]
CONTROL = (convex, "da_step", "state.k += 1", "state.k += 1")

# (laned method, swept key, values): each run in lanes and alone
LANE_CASES = [
    ("adagrad", "lr", (0.01, 0.1, 1.0)),
    ("sgd_da", "d0", (1e-6, 1e-3, 1.0)),
]


def _bind_mutant(monkeypatch, owner, name: str, old: str, new: str):
    original = vars(owner)[name]
    source = textwrap.dedent(inspect.getsource(original))
    assert source.count(old) == 1, f"{name}: {old!r} matches {source.count(old)} times"
    module = sys.modules[original.__module__]
    namespace = dict(vars(module))  # the mutant sees its module's globals
    exec(compile(source.replace(old, new), module.__file__, "exec"), namespace)
    mutant = namespace[name]
    if isinstance(owner, type):
        monkeypatch.setattr(owner, name, mutant)
        return mutant
    for holder in list(sys.modules.values()):
        for key, value in list(vars(holder).items()):
            if value is original:
                monkeypatch.setattr(holder, key, mutant)
    return mutant


def _lanes_case(algorithm: str, key: str, values) -> None:
    config = ExperimentConfig(
        problem="synth_logistic", algorithm=algorithm, n_steps=30, batch_size=6,
        schedule="cosine",
    )
    lanes.check_lanes_match_lone_runs([replace(config, **{key: v}) for v in values], 1, lanes.DATA)


def _full_values_chunks() -> None:
    gen = np.random.default_rng(3)
    W = gen.standard_normal((17, 32)) * 10.0 ** gen.uniform(-3, 3, (17, 1))
    test_problems.check_full_values(LogisticProblem(synth_dataset(4, 100, 31, flip=0.1)), W)


def _non_finite_refused() -> None:
    for bad in (np.nan, np.inf, -np.inf):
        test_problems.TestPiecewiseConstruction().test_non_finite_slopes_or_offsets_refused(bad)


def _nan_inputs() -> None:
    test_analysis.check_nan_inputs_fail_or_skip(test_analysis.nan_cases())


def _battery() -> list[str]:
    """The parts of the battery that fail."""
    rng = test_core.TestRngBulk()
    grads = test_problems.TestMarginsGradInPlace()
    pieces = test_problems.TestPiecewiseValues()
    prefix = test_convex.TestSelectReturnIndex()
    checks = [
        ("criterion 10", acceptance.test_criterion_10_hand_trace_oracles),
        ("sgd_da step 0", test_ml.TestSgdDaTrace().test_step0),
        ("sgd_da step 1", test_ml.TestSgdDaTrace().test_step1),
        ("adam_da step 0", test_ml.TestAdamDaTrace().test_step0),
        ("adagrad_norm projection", test_harness.TestAdaGradNorm().test_projection_clips_to_radius),
        ("append after extend", test_core.TestTrajectory().test_append_after_extend_checks_d),
        ("permutation fallback", rng.test_permutation_falls_back_on_a_draw_below_the_largest),
        ("zero uniform", rng.test_box_muller_takes_a_zero_uniform_as_normal_does),
        ("stopped lane", lanes.test_a_stopped_lane_rides_along),
        ("signed-row gradient", grads.test_zero_column_and_zero_or_nan_weights),
        ("full_values chunks", _full_values_chunks),
        ("online prefix", test_convex.TestRunConvex().test_online_prefix_matches_replay),
        ("tied prefix ratios", prefix.test_tied_ratios_pick_the_later_k),
        ("read-only subgradient", pieces.test_subgradient_is_a_read_only_row),
        ("non-finite slopes", _non_finite_refused),
        ("NaN inputs", _nan_inputs),
    ]
    checks += [(f"lanes {case[0]}", lambda case=case: _lanes_case(*case)) for case in LANE_CASES]
    failed = []
    for label, check in checks:
        try:
            check()
        except (Exception, pytest.fail.Exception) as exc:  # pytest.raises fails with the latter
            failed.append(f"{label}: {exc!r}")
    try:
        rows = [r for r in verify_suite("lemmas", quick=True) if not r.satisfied]
    except Exception as exc:
        failed.append(f"verify lemmas: {exc!r}")
    else:
        failed += [f"{r.name} {r.context}" for r in rows]
    return failed


@pytest.mark.parametrize("mutant", MUTANTS, ids=[mutant[0] for mutant in MUTANTS])
def test_mutant_is_caught(monkeypatch, mutant):
    _bind_mutant(monkeypatch, *mutant[1:])
    assert _battery()


def test_identity_control_passes(monkeypatch):
    control = _bind_mutant(monkeypatch, *CONTROL)
    # the battery runs the rebound stepper, through convex and the gate alike
    assert convex.da_step is control and acceptance.da_step is control
    assert _battery() == []
