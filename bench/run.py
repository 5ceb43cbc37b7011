"""The dadapt benchmark: time to a verified answer, end to end and per layer.

    python3 bench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a source checkout; the package is imported from its
``src`` directory. Each sample runs in a fresh interpreter (bench/child.py)
with BLAS threads and DADAPT_WORKERS pinned to 1. With ``--trace 0`` the
command runs set-up samples and then whole passes while they fit in S
seconds (two at least), and reports the end-to-end metrics. With
``--trace 1`` it alternates untraced and traced passes, at least two of
each, and reports the per-layer metrics. Times are taken at the reference
machine speed of bench/calibrate.py. Both check every pass: no operation
may fail and no result scalar may drift from the reference. Metric names
and units come from BENCHMARK.json. The last line of standard output is one
JSON object; the exit code is 0 only when the outputs were correct. See
bench/README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from datetime import datetime, timezone
from pathlib import Path

import calibrate

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
REFERENCE = HERE / "reference.json"

WORKLOADS = ("convex_sweep", "logistic_run", "grid_sweep")
DEFAULT_SEED = 0
# Not used while the benchmark was written or tuned; re-check claims on it.
HELD_OUT_SEED = 17

# Set-up samples per untraced run: at least the first number, then more
# while their time stays under SETUP_SECONDS, up to the last number. One
# more runs first to fill the bytecode and file caches and is not counted.
SETUP_SAMPLES = (5, 15)
SETUP_SECONDS = 5.0
# Calibration samples the parent takes on each side of a set-up sample.
SETUP_CALIBRATIONS = 5
UNTRACED_PASSES = 2
TRACED_PASSES = 2
# Every process of one workload run ends within this many seconds.
RUN_BUDGET_S = 170.0

# A later change may move result scalars by a few ulps (ROADMAP item 3);
# anything larger is a change in numerics and fails the run.
RESULT_RTOL = 1e-9
# A rounding-level gap and a ratio: their deviation is taken against a scale
# of at least 1, the floor the checkers themselves use.
UNIT_FLOOR_SUFFIXES = (".option_dominance.lhs", "relative_spread")

CHILD_ENV = {
    **os.environ,
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "DADAPT_WORKERS": "1",
    "PYTHONPATH": str(ROOT / "src"),
}


class BenchError(RuntimeError):
    pass


# --------------------------------------------------------------------------
# Correctness


def rel_err(name: str, value: float, ref: float) -> float:
    """Deviation of one result scalar from its reference, as a share of scale."""
    if value == ref:
        return 0.0
    if not (math.isfinite(value) and math.isfinite(ref)):
        return math.inf
    floor = 1.0 if name.endswith(UNIT_FLOOR_SUFFIXES) else 0.0
    return abs(value - ref) / max(abs(ref), floor)


def max_rel_err(scalars: dict[str, float], ref: dict[str, float]) -> tuple[float, str]:
    """Largest deviation over all scalars, and the scalar it came from."""
    if scalars.keys() != ref.keys():
        differing = sorted(scalars.keys() ^ ref.keys())
        return math.inf, f"scalar sets differ at {differing[0]}"
    worst, worst_name = 0.0, ""
    for name, value in scalars.items():
        err = rel_err(name, value, ref[name])
        if err > worst:
            worst, worst_name = err, name
    return worst, worst_name


def load_reference(workload: str, seed: int) -> dict[str, float] | None:
    entry = json.loads(REFERENCE.read_text()).get(workload, {})
    values = entry.get("seeds", {}).get(str(seed))
    return None if values is None else dict(zip(entry["names"], values))


def record_reference(workload: str, seed: int, scalars: dict[str, float]) -> None:
    data = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
    entry = data.setdefault(workload, {"names": list(scalars), "seeds": {}})
    if entry["names"] != list(scalars):
        raise BenchError("scalar names changed; re-record every seed of the workload")
    entry["seeds"][str(seed)] = list(scalars.values())
    REFERENCE.write_text(json.dumps(data, indent=1) + "\n")


# --------------------------------------------------------------------------
# Provenance


def provenance() -> dict:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True,
            timeout=10, env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)},
        )
        rev = proc.stdout.strip() if proc.returncode == 0 else "unknown (not a git checkout)"
    except (OSError, subprocess.TimeoutExpired):
        rev = "unknown (git unavailable)"
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_revision": rev,
        "src_sha256": digest.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
    }


# --------------------------------------------------------------------------
# Samples


class Runner:
    """Starts one child at a time for one workload and seed."""

    def __init__(self, workload: str, seed: int, seconds: float):
        self.workload = workload
        self.seed = seed
        self.end = time.monotonic() + seconds
        self.deadline = time.monotonic() + RUN_BUDGET_S
        self.work = OUT / workload
        shutil.rmtree(self.work, ignore_errors=True)
        self.work.mkdir(parents=True)

    def child(self, mode: str, index: int) -> dict:
        work_dir = self.work / mode  # samples run one at a time; the last spans stay
        cmd = [sys.executable, str(HERE / "child.py"), self.workload, str(self.seed),
               mode, str(work_dir)]
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            raise BenchError(f"no time left for {mode} sample {index}")
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=CHILD_ENV, capture_output=True,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{mode} sample {index} ran past the time budget") from None
        finally:
            shutil.rmtree(work_dir / "runs", ignore_errors=True)
        if proc.returncode != 0:
            raise BenchError(
                f"{mode} sample {index} exited {proc.returncode}:\n{proc.stderr[-4000:]}"
            )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setups(self, shares: dict[str, float]) -> list[float]:
        """Set-up samples at reference speed, each by the speed index of
        calibration samples taken just before and just after it."""
        cal = calibrate.Calibrator(shares)
        least, most = SETUP_SAMPLES
        out = []
        start = time.monotonic()
        while len(out) <= least or (len(out) <= most
                                    and time.monotonic() - start < SETUP_SECONDS):
            samples = [cal.sample() for _ in range(SETUP_CALIBRATIONS)]
            setup_s = self.child("setup", len(out))["setup_s"]
            samples += [cal.sample() for _ in range(SETUP_CALIBRATIONS)]
            index = statistics.median(calibrate.speed_index(c, shares) for c in samples)
            out.append(setup_s / index)
        return out[1:]

    def passes(self, modes: tuple[str, ...], minimum: int) -> list[dict]:
        """Passes, cycling through modes: at least `minimum`, then more while
        one more still ends within the run's seconds."""
        out: list[dict] = []
        while True:
            if out:
                last = out[-1]["process_s"]
                if time.monotonic() + 1.2 * last > self.deadline:
                    break
                if len(out) >= minimum and time.monotonic() + 1.1 * last > self.end:
                    break
            mode = modes[len(out) % len(modes)]
            t0 = time.monotonic()
            out.append({**self.child(mode, len(out)), "mode": mode})
            out[-1]["process_s"] = time.monotonic() - t0
        return out


def _spread(values: list[float]) -> str:
    return f"median of {len(values)}, min {min(values):.6g}, max {max(values):.6g}"


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 spec: dict, record: bool) -> bool:
    runner = Runner(workload, seed, seconds)
    shares = calibrate.SHARES[workload]
    if trace:
        # alternate, so both sides see the same phases of a shared machine
        passes = runner.passes(("pass", "trace"), 2 * TRACED_PASSES)
        setups: list[float] = []
    else:
        setups = runner.setups(calibrate.SETUP_SHARES)
        passes = runner.passes(("pass",), UNTRACED_PASSES)
    for p in passes:
        p["ref_s"] = calibrate.normalized(p["segments_s"], p["samples"], shares)

    # correctness: every operation of every pass, and every result scalar
    attempted = sum(p["attempted"] for p in passes)
    failures = [f for p in passes for f in p["failures"]]
    reference = load_reference(workload, seed)
    if reference is None:
        reference = passes[0]["scalars"]
        ref_label = f"first pass (no stored reference for seed {seed})"
    else:
        ref_label = f"stored reference for seed {seed}"
    rel, rel_where = max(max_rel_err(p["scalars"], reference) for p in passes)
    problems = [f"operation failed: {f}" for f in failures[:10]]
    if rel > RESULT_RTOL:
        problems.append(f"result drift {rel:.3e} > {RESULT_RTOL:g} at {rel_where}")

    steps = statistics.median(p["steps"] for p in passes)
    measured: dict[str, float] = {}
    notes: dict[str, str] = {}

    if trace:
        traced = [p for p in passes if p["mode"] == "trace"]
        first = traced[0]["layers"]
        for other in traced[1:]:
            for key, value in first.items():
                if isinstance(value, int) and other["layers"][key] != value:
                    problems.append(f"count {key} differs between traced passes: "
                                    f"{value} vs {other['layers'][key]}")
        for key, value in first.items():
            samples = [t["layers"][key] for t in traced]
            measured[key] = value if isinstance(value, int) else statistics.median(samples)
        traced_s = statistics.median(p["ref_s"] for p in traced)
        untraced_s = statistics.median(p["ref_s"] for p in passes if p["mode"] == "pass")
        measured["trace.overhead_s"] = traced_s - untraced_s
        notes["trace.overhead_s"] = (f"traced {traced_s:.6g} s, untraced {untraced_s:.6g} s, "
                                     "at reference speed")
        metric_specs = spec["per_layer"]
    else:
        measured["wall_s"] = statistics.median(p["ref_s"] for p in passes)
        notes["wall_s"] = (f"median of {len(passes)} at reference speed; as timed: "
                           f"{_spread([p['work_s'] for p in passes])}")
        measured["steps_per_s"] = steps / measured["wall_s"]
        measured["setup_s"] = statistics.median(setups)
        measured["peak_rss_mb"] = statistics.median(p["peak_rss_mb"] for p in passes)
        notes["steps_per_s"] = f"{steps:.0f} steps per pass"
        notes["setup_s"] = f"{_spread(setups)} fresh interpreters, at reference speed"
        metric_specs = spec["end_to_end"]
    missing = [m["name"] for m in metric_specs if m["name"] not in measured]
    if missing:
        raise BenchError(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    metrics = {m["name"]: {"value": measured[m["name"]], "unit": m["unit"]}
               for m in metric_specs}

    prov = provenance()
    prov.update(python=passes[0]["python"], numpy=passes[0]["numpy"])
    correct = not problems
    print(f"== {workload}  seed={seed}  trace={int(trace)}  passes={len(passes)}  "
          f"correct={correct}")
    print("   " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    rows = [(name, m["value"], m["unit"], notes.get(name, "")) for name, m in metrics.items()]
    rows.append(("ops_failed_ratio", len(failures) / attempted, "ratio",
                 f"{len(failures)} of {attempted} operations failed"))
    rows.append(("result_rel_err", rel, "ratio",
                 f"tolerance {RESULT_RTOL:g}, against the {ref_label}"))
    for name, value, unit, note in rows:
        print(f"   {name:<44}{value:>14.6g} {unit:<8} {note}".rstrip())
    if trace:
        repeat = not any(p.startswith("count") for p in problems)
        print(f"   counts repeat exactly across {len(traced)} traced passes: {repeat}")
    for problem in problems:
        print(f"   FAILED: {problem}")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    stamp = datetime.now(timezone.utc).strftime("%Y%m%dT%H%M%S")
    record_path = OUT / "results" / f"{workload}_seed{seed}_trace{int(trace)}_{stamp}.json"
    record_path.write_text(json.dumps({
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "provenance": prov, "metrics": metrics, "correct": correct, "problems": problems,
        "ops_attempted": attempted, "ops_failed": len(failures), "result_rel_err": rel,
        "setup_samples_s": setups, "notes": notes,
        "passes": [{k: v for k, v in p.items() if k != "scalars"} for p in passes],
    }, indent=1) + "\n")
    if record and correct:
        record_reference(workload, seed, passes[0]["scalars"])
        print(f"   reference recorded for seed {seed}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": len(failures),
                      "metrics": metrics}))
    return correct


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"workload seed (default {DEFAULT_SEED}; {HELD_OUT_SEED} is "
                             "held out for re-checking claims)")
    parser.add_argument("--seconds", type=float, default=30.0,
                        help="seconds one workload run may take; passes that would end "
                             "later are not started, past the minimum (default 30)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's result scalars as the seed's reference")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "dadapt" / "__init__.py").is_file():
        print(f"no dadapt source under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    correct = True
    try:
        for workload in names:
            correct &= run_workload(workload, args.seed, args.seconds, bool(args.trace),
                                    spec, args.record_reference)
    except BenchError as err:
        print(f"benchmark error: {err}", file=sys.stderr)
        return 2
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
