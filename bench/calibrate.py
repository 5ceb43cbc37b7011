"""The machine's speed, sampled next to the work it corrects.

The shared machine the benchmark was written on runs the same code up to
40% faster or slower in phases that last from seconds to minutes, and not
every kind of code moves alike: interpreter-bound code and small numpy calls
move together, a large matrix-vector product moves with memory contention
instead. Whole-pass times of one seed therefore differ by more than any
useful bound, across runs as much as within one.

A calibration sample times three fixed kernels that use no dadapt code, one
per kind of work. A workload's speed index at a sample is the weighted
mean, with the workload's SHARES, of kernel time ÷ reference kernel time,
so 1.0 is the reference speed. A segment of work timed at index s is
reported as segment ÷ s: the wall time it would have taken at reference
speed. A change to dadapt moves the work and not the kernels, so it shows
in full.
"""

from __future__ import annotations

import signal
import statistics
import time

import numpy as np

KINDS = ("python", "numpy_small", "numpy_large")

# The reference speed: median kernel times sampled inside passes on a shared
# 2-vCPU Intel Xeon host (Python 3.11, numpy 2.4, one BLAS thread). Changing
# them rescales every time the benchmark reports.
REFERENCE_S = {"python": 3.7e-4, "numpy_small": 6.5e-4, "numpy_large": 4.2e-4}

# Each workload's weights. The kinds follow what its pass does; the weights
# are those that left the least spread between recorded runs of seeds
# 201-210, taken in phases that moved raw pass times by 14-23% (IQR over
# median) on the machine named above.
SHARES = {
    # small numpy calls from Python loops, in the oracles and the steps
    "convex_sweep": {"python": 0.5, "numpy_small": 0.5},
    # pure-Python Rng draws per build, full-data values over 10000x50 rows
    "logistic_run": {"python": 0.8, "numpy_large": 0.2},
    # baseline and ML loops on 20-dim minibatches, pure-Python shuffles
    "grid_sweep": {"python": 0.4, "numpy_small": 0.6},
}
# Set-up: imports, and input building that is mostly pure-Python Rng draws.
SETUP_SHARES = {"python": 0.7, "numpy_small": 0.3}

# Calibration samples on each side of a segment whose indices are pooled
# (median) into the index the segment is divided by.
SMOOTH = 2


class Calibrator:
    """Times the kernels of the given kinds; sample() runs each once."""

    def __init__(self, kinds=KINDS) -> None:
        self.kinds = tuple(kinds)
        rng = np.random.default_rng(0)
        self._small = rng.standard_normal((6, 6))
        self._vec = rng.standard_normal(6)
        if "numpy_large" in self.kinds:
            self._large = rng.standard_normal((10000, 50))
            self._large_vec = rng.standard_normal(50)
        self._kernels = {"python": self._python, "numpy_small": self._numpy_small,
                         "numpy_large": self._numpy_large}
        for _ in range(3):  # fault in the arrays and warm the caches
            self.sample()

    def _python(self) -> None:
        acc, k = 0.0, 1.0
        for i in range(2500):
            acc += (i * k) % 7.0
            k = -k

    def _numpy_small(self) -> None:
        a, v = self._small, self._vec
        for _ in range(150):
            np.maximum(a @ v, 0.0).sum()

    def _numpy_large(self) -> None:
        for _ in range(2):
            self._large @ self._large_vec

    def sample(self) -> dict[str, float]:
        """Seconds each kernel took just now. Each runs once untimed first,
        so that what the interrupted work left in the caches does not count."""
        out = {}
        for kind in self.kinds:
            kernel = self._kernels[kind]
            kernel()
            t0 = time.perf_counter()
            kernel()
            out[kind] = time.perf_counter() - t0
        return out


def speed_index(sample: dict[str, float], shares: dict[str, float]) -> float:
    """Share-weighted kernel time over reference time: above 1 is slower."""
    total = sum(shares.values())
    return sum(share * sample[kind] / REFERENCE_S[kind]
               for kind, share in shares.items()) / total


class Sampler:
    """Takes a calibration sample every `period` seconds of the process's
    work, from a SIGALRM handler, and records when each one ran."""

    def __init__(self, calibrator: Calibrator, period: float = 0.2) -> None:
        self.calibrator = calibrator
        self.period = period
        self.spans: list[tuple[float, float]] = []  # (start, end) of each sample
        self.samples: list[dict[str, float]] = []

    def _on_alarm(self, signum, frame) -> None:
        t0 = time.perf_counter()
        self.samples.append(self.calibrator.sample())
        self.spans.append((t0, time.perf_counter()))

    def __enter__(self) -> "Sampler":
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, self.period, self.period)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)


def segments(start: float, end: float, spans: list[tuple[float, float]]) -> list[float]:
    """Work time between start, the calibration samples, and end."""
    bounds = [start] + [t for span in spans for t in span] + [end]
    return [b - a for a, b in zip(bounds[::2], bounds[1::2])]


def normalized(segs: list[float], samples: list[dict[str, float]],
               shares: dict[str, float]) -> float:
    """Work time at reference speed. Segment i ends at sample i (the last
    one at the end of the pass) and is divided by the median index of the
    samples within SMOOTH of it."""
    if not samples:
        raise ValueError("no calibration sample was taken")
    index = [speed_index(s, shares) for s in samples]
    total = 0.0
    for i, seg in enumerate(segs):
        j = min(i, len(index) - 1)
        total += seg / statistics.median(index[max(0, j - SMOOTH): j + SMOOTH + 1])
    return total
