"""Machine-speed calibration.

On a shared machine the speed of a vCPU drifts by tens of percent over
tens of seconds, as neighbours come and go.  That drift is not the
program's, so every time the benchmark reports is scaled to a reference
speed: it is multiplied by ``REFERENCE_S / c``, where ``c`` is the mean of
the calibrations taken around it *in the same process* (a parent process
may sit on the other vCPU).  The calibration loop does not run the
program, so a change that makes the program faster shows in full.
"""

import statistics
from contextlib import contextmanager
from time import perf_counter, process_time
from typing import Dict, Iterator, List, Sequence

#: Calibration time on the reference machine (2 vCPU, Python 3.11.7).
REFERENCE_S = 0.005
_ITERATIONS = 60_000
_REPEATS = 5


def calibrate() -> float:
    """Median seconds of a fixed pure-Python loop, run a few times now."""
    samples = []
    for _ in range(_REPEATS):
        start = perf_counter()
        total = 0
        for i in range(_ITERATIONS):
            total += i * i
        samples.append(perf_counter() - start)
    return statistics.median(samples)


def factor(calibrations: Sequence[float]) -> float:
    """Multiplier from times measured under ``calibrations`` to the
    reference speed."""
    return REFERENCE_S / statistics.fmean(calibrations)


class Meter:
    """Calibrations taken inside a benchmark child process, plus the wall
    and CPU time the child spent on the benchmark's own work, so that the
    parent can take both out of the program's numbers."""

    def __init__(self) -> None:
        self.calibrations: List[float] = []
        self.wall_s = 0.0
        self.cpu_s = 0.0

    @contextmanager
    def overhead(self) -> Iterator[None]:
        wall, cpu = perf_counter(), process_time()
        try:
            yield
        finally:
            self.wall_s += perf_counter() - wall
            self.cpu_s += process_time() - cpu

    def calibrate(self) -> None:
        with self.overhead():
            self.calibrations.append(calibrate())

    def as_dict(self) -> Dict:
        return {"calibration_s": self.calibrations,
                "bench_wall_s": self.wall_s, "bench_cpu_s": self.cpu_s}
