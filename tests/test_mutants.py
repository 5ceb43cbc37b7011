"""One-line stepper mutants that the fast non-golden tests must catch.

A declared re-record rewrites the golden digests, and then only the other
tests stand between a stepper bug and the new digests. Each entry below
changes one line of a stepper. It is built from the stepper's source by one
str.replace that must match exactly once, so a refactor that moves the text
fails here until the list is updated. The mutant is bound in place of the
stepper in every loaded module that holds it, test modules included, and a
fixed battery must then report a failure: criterion 10's hand traces and the
quick verify lemmas. The identity control must pass that battery.
"""

import inspect
import sys

import pytest

import test_acceptance as acceptance
from dadapt import convex
from dadapt.analysis import verify_suite

# (stepper, old text, new text)
MUTANTS = [
    # the step-size denominator leaves out the current gradient
    (
        "gd_step",
        "lam = sched * state.d / math.sqrt(state.G**2 + state.sum_gsq)",
        "lam = sched * state.d / math.sqrt(state.G**2 + state.sum_gsq - gnorm2)",
    ),
    # the iterate moves with the step size before this gradient
    (
        "da_step",
        "state.x = state.x0 - gamma_new * state.s",
        "state.x = state.x0 - gamma_old * state.s",
    ),
    # the weighted term reads the denominators after their update
    ("adagrad_da_step", "g2 / state.a", "g2 / np.sqrt(state.a * state.a + g2)"),
    # a perturbed hypergradient inner product
    ("da_step", "ip_gs = _dot(g, state.s)", "ip_gs = _dot(g, state.s) * (1.0 + 1e-6)"),
]
CONTROL = ("da_step", "state.k += 1", "state.k += 1")


def _bind_mutant(monkeypatch, name: str, old: str, new: str):
    original = getattr(convex, name)
    source = inspect.getsource(original)
    assert source.count(old) == 1, f"{name}: {old!r} matches {source.count(old)} times"
    namespace = dict(vars(convex))  # the mutant sees convex's globals
    exec(compile(source.replace(old, new), convex.__file__, "exec"), namespace)
    for module in list(sys.modules.values()):
        for key, value in list(vars(module).items()):
            if value is original:
                monkeypatch.setattr(module, key, namespace[name])
    return namespace[name]


def _battery() -> list[str]:
    """The parts of the battery that fail."""
    failed = []
    try:
        acceptance.test_criterion_10_hand_trace_oracles()
    except Exception as exc:
        failed.append(str(exc))
    try:
        rows = [r for r in verify_suite("lemmas", quick=True) if not r.satisfied]
    except Exception as exc:
        failed.append(f"verify lemmas: {exc!r}")
    else:
        failed += [f"{r.name} {r.context}" for r in rows]
    return failed


@pytest.mark.parametrize("mutant", MUTANTS, ids=[f"{m[0]}-{i}" for i, m in enumerate(MUTANTS)])
def test_mutant_is_caught(monkeypatch, mutant):
    _bind_mutant(monkeypatch, *mutant)
    assert _battery()


def test_identity_control_passes(monkeypatch):
    control = _bind_mutant(monkeypatch, *CONTROL)
    # the battery runs the rebound stepper, through convex and the gate alike
    assert convex.da_step is control and acceptance.da_step is control
    assert _battery() == []
