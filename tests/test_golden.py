"""Byte-level regression gate on the CSVs that run_experiment writes.

Every algorithm runs on abs, piecewise and a small synthetic logistic
problem with seeds (0, 1), plus schedule, cadence, G-mode, zero-gradient
and divergence variants; step-size grids and d0 sweeps, those whose points
run in lanes and those whose points run one by one, add the grid, sweep
and compare tables. The SHA-256 of each steps/summary/aggregate CSV, and of
the report CSV of `dadapt verify --suite all`, must equal the digest stored
in golden_sha256.json. The digests hold for one numpy SIMD dispatch and
OpenBLAS core type, which a failure names. A change that is meant
to alter output bytes re-records the file with

    PYTHONPATH=src python tests/test_golden.py

and says why in CHANGES.md.
"""

import builtins
import functools
import hashlib
import json
import math
import operator
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from dadapt import cli
from dadapt.core import ConfigError
from dadapt.harness import (
    BASELINE_ALGORITHMS,
    DADAPT_ALGORITHMS,
    ExperimentConfig,
    d0_sweep,
    grid_search,
    run_experiment,
)

GOLDEN_PATH = Path(__file__).with_name("golden_sha256.json")
SEEDS = (0, 1)
VERIFY_CASE = "verify-all"

PROBLEMS = {
    "abs": dict(problem="abs", n_steps=100),
    "piecewise": dict(problem="piecewise", n_steps=200),
    "logistic": dict(problem="synth_logistic", synth_n=200, synth_dim=5, epochs=3),
}
# baselines that need a known D, G or optimal value
NEEDS_KNOWN_GEOMETRY = ("fixed", "polyak")


def _cases() -> dict[str, dict]:
    cases = {}
    for pname, base in PROBLEMS.items():
        for algo in DADAPT_ALGORITHMS + BASELINE_ALGORITHMS:
            if pname == "logistic" and algo in NEEDS_KNOWN_GEOMETRY:
                continue
            cases[f"{pname}-{algo}"] = dict(base, algorithm=algo)
    for algo in DADAPT_ALGORITHMS:
        cases[f"piecewise-{algo}-stagewise"] = dict(
            PROBLEMS["piecewise"], algorithm=algo, schedule="stagewise"
        )
    for pname, algo in (("piecewise", "da_I"), ("piecewise", "polyak"), ("logistic", "adagrad")):
        cases[f"{pname}-{algo}-record7"] = dict(
            PROBLEMS[pname], algorithm=algo, record_f_every=7
        )
    for algo in ("da_I", "da_II"):
        cases[f"piecewise-{algo}-gfixed"] = dict(
            PROBLEMS["piecewise"], algorithm=algo, g_mode="fixed"
        )
    for algo in DADAPT_ALGORITHMS + BASELINE_ALGORITHMS:
        if algo == "adagrad_norm":
            continue  # test_harness.py::TestAdaGradNorm::test_zero_radius_run covers it
        cases[f"abs-{algo}-x0zero"] = dict(PROBLEMS["abs"], algorithm=algo, x0=0.0)
    # runs that leave the 1e12 ball and stop with the failing step's row kept
    cases["abs-fixed-diverge"] = dict(PROBLEMS["abs"], algorithm="fixed", lr=1e15)
    cases["abs-adagrad-diverge"] = dict(PROBLEMS["abs"], algorithm="adagrad", lr=1e15)
    cases["abs-sgd_da-diverge"] = dict(PROBLEMS["abs"], algorithm="sgd_da", d0=1e15)
    cases["logistic-adam_da-diverge"] = dict(
        PROBLEMS["logistic"], algorithm="adam_da", d0=1e15
    )
    return cases


CASES = _cases()

# name -> (swept key, config, values, grid compare run)
SWEEP_CASES = {
    # the points run in lanes
    "grid-logistic-adagrad-compare": (
        "lr", dict(PROBLEMS["logistic"], algorithm="adagrad"), (0.01, 0.1, 1.0), "adagrad_da"
    ),
    "grid-logistic-adagrad_norm": (
        "lr", dict(PROBLEMS["logistic"], algorithm="adagrad_norm"), (0.1, 1.0, 10.0), None
    ),
    "sweep-logistic-sgd_da-stagewise": (
        "d0", dict(PROBLEMS["logistic"], algorithm="sgd_da", schedule="stagewise"),
        (1e-6, 1e-3, 1.0), None,
    ),
    "sweep-logistic-adam_da-record7-diverge": (
        "d0", dict(PROBLEMS["logistic"], algorithm="adam_da", record_f_every=7),
        (1e-6, 1e-2, 1e15), None,
    ),
    # the points run one by one
    "sweep-logistic-adagrad_da": (
        "d0", dict(PROBLEMS["logistic"], algorithm="adagrad_da"), (1e-6, 1e-3, 1.0), None
    ),
    "sweep-logistic-sgd_da-fullbatch": (
        "d0", dict(PROBLEMS["logistic"], algorithm="sgd_da", full_batch=True),
        (1e-6, 1e-3, 1.0), None,
    ),
    "sweep-piecewise-da_I": (
        "d0", dict(PROBLEMS["piecewise"], algorithm="da_I"), (1e-6, 1e-2, 10.0), None
    ),
    "grid-piecewise-fixed-compare": (
        "lr", dict(PROBLEMS["piecewise"], algorithm="fixed"), (0.1, 1.0, 10.0), "da_I"
    ),
}


def _digests(out_dir: Path) -> dict[str, str]:
    return {
        path.name: hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.glob("*.csv"))
    }


def _run(name: str, out_dir: Path) -> dict[str, str]:
    config = ExperimentConfig(seeds=SEEDS, out_dir=str(out_dir), **CASES[name])
    return _digests(run_experiment(config).out_dir)


def _sweep(name: str, out_dir: Path) -> dict[str, str]:
    """The digest of every CSV the grid or sweep writes, by its path under out_dir."""
    key, base, values, compare = SWEEP_CASES[name]
    config = ExperimentConfig(seeds=SEEDS, out_dir=str(out_dir), **base)
    if key == "lr":
        grid_search(config, values, compare_algorithm=compare)
    else:
        d0_sweep(config, values)
    return {
        path.relative_to(out_dir).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out_dir.rglob("*.csv"))
    }


def _verify(out_dir: Path) -> dict[str, str]:
    assert cli.main(["verify", "--suite", "all", "--out", str(out_dir / "verify.csv")]) == 0
    return _digests(out_dir)


def _golden() -> dict[str, dict[str, str]]:
    return json.loads(GOLDEN_PATH.read_text())


def _dispatch() -> str:
    """The numpy SIMD extensions and OpenBLAS core type of this process,
    which pick the summation order of its dot products and exp/log1p."""
    simd = np.show_config(mode="dicts")["SIMD Extensions"]["found"]
    core = os.environ.get("OPENBLAS_CORETYPE", "default")
    return f"numpy SIMD extensions found {simd}, OPENBLAS_CORETYPE {core}"


def test_golden_covers_every_case():
    assert sorted(_golden()) == sorted([*CASES, *SWEEP_CASES, VERIFY_CASE])


def _check(name: str, got: dict[str, str]) -> None:
    expected = _golden()[name]
    assert sorted(got) == sorted(expected)
    changed = [fname for fname in expected if got[fname] != expected[fname]]
    assert not changed, f"{name}: bytes changed in {changed} under {_dispatch()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_csv_bytes_unchanged(name, tmp_path):
    _check(name, _run(name, tmp_path))


@pytest.mark.parametrize("name", sorted(SWEEP_CASES))
def test_sweep_bytes_unchanged(name, tmp_path):
    _check(name, _sweep(name, tmp_path))


def test_verify_report_bytes_unchanged(tmp_path):
    _check(VERIFY_CASE, _verify(tmp_path))


_BUILTIN_SUM = builtins.sum


def _compensated_sum(iterable, start=0):
    """sum() as CPython 3.12 and later compute it: floats with Neumaier's
    compensation, anything else as before."""
    items = list(iterable)
    if not all(type(v) is float for v in items):
        return _BUILTIN_SUM(items, start)
    total, c = float(start), 0.0
    for x in items:
        t = total + x
        c += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
        total = t
    return total + c if c and math.isfinite(c) else total


def test_bytes_do_not_depend_on_builtin_sum(tmp_path, monkeypatch):
    # the package adds floats left to right itself, so the report and the
    # aggregates keep their bytes under the compensated sum() of CPython 3.12+
    tenths = [0.1] * 10
    assert _compensated_sum(tenths) != functools.reduce(operator.add, tenths, 0.0)
    monkeypatch.setattr(builtins, "sum", _compensated_sum)
    assert _verify(tmp_path) == _golden()[VERIFY_CASE]
    name = "logistic-sgd_da"  # two seeds; its aggregate.csv averages them
    assert _run(name, tmp_path / name) == _golden()[name]


@pytest.mark.parametrize("algo", NEEDS_KNOWN_GEOMETRY)
def test_logistic_rejects_geometry_baselines(algo, tmp_path):
    # the config itself refuses the pair, before any data is built
    with pytest.raises(ConfigError, match="known optimum"):
        ExperimentConfig(
            seeds=SEEDS, out_dir=str(tmp_path), algorithm=algo, **PROBLEMS["logistic"]
        )


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        golden = {name: _run(name, Path(tmp) / name) for name in sorted(CASES)}
        golden.update({name: _sweep(name, Path(tmp) / name) for name in sorted(SWEEP_CASES)})
        golden[VERIFY_CASE] = _verify(Path(tmp))
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1, sort_keys=True) + "\n")
    print(f"{len(golden)} cases -> {GOLDEN_PATH}", file=sys.stderr)
