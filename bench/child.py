"""One benchmark process: import dadapt, build a workload's inputs, maybe run a pass.

    python3 bench/child.py WORKLOAD SEED MODE WORK_DIR

MODE is ``setup`` (import and build inputs only), ``pass`` (then run one
pass) or ``trace`` (the same with every layer traced; spans go to
WORK_DIR/spans.npz). A pass is sampled by bench/calibrate.py every 0.2 s;
the samples and the work time between them are part of the output.
Harness outputs are written under WORK_DIR/runs.
Prints one JSON object. run.py starts this in a fresh interpreter for each
sample, so set-up time and peak memory belong to that sample alone.
"""

import time

T0 = time.perf_counter()

import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]


def main() -> int:
    workload, seed, mode, work_dir = sys.argv[1], int(sys.argv[2]), sys.argv[3], Path(sys.argv[4])
    import numpy
    import dadapt

    expected = ROOT / "src" / "dadapt"
    if Path(dadapt.__file__).resolve().parent != expected:
        print(f"imported dadapt from {dadapt.__file__}, not {expected}", file=sys.stderr)
        return 2
    import workloads

    tracer = None
    if mode == "trace":
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    spec = workloads.WORKLOADS[workload]
    runs_dir = work_dir / "runs"
    inputs = spec.setup(seed, runs_dir)
    t_setup = time.perf_counter()
    out = {
        "setup_s": t_setup - T0,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if mode != "setup":
        import calibrate

        sampler = calibrate.Sampler(calibrate.Calibrator(calibrate.SHARES[workload]))
        t_pass = time.perf_counter()
        with sampler:
            res = spec.run(inputs, runs_dir)
        t_end = time.perf_counter()
        out["segments_s"] = calibrate.segments(t_pass, t_end, sampler.spans)
        out["samples"] = sampler.samples
        out["work_s"] = sum(out["segments_s"])
        out["steps"] = res.steps
        out["attempted"] = res.attempted
        out["failures"] = res.failures
        out["scalars"] = res.scalars
        out["csv_bytes"] = sum(p.stat().st_size for p in runs_dir.rglob("*") if p.is_file())
        out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        layers = tracer.metrics()
        layers["harness.csv.bytes"] = out["csv_bytes"]
        out["layers"] = layers
        work_dir.mkdir(parents=True, exist_ok=True)
        tracer.write(work_dir / "spans.npz")
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
