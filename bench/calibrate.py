"""Reference kernel that scales timings to a steady machine speed.

On a shared host the same pass can take 1.5x longer from one minute to
the next while CPU time still equals wall time: the machine itself gets
slower, not the program.  The benchmark therefore times this fixed
kernel in the gaps between the program's calls and scales every timing
by ``KERNEL_NOMINAL_S / (mean kernel time around it)``.  A calibrated
second is a second on a machine that runs the kernel in exactly
``KERNEL_NOMINAL_S``.  Raw timings are kept in the report.

The kernel does not use filmsr, so no change to the program moves it.
Its mix of small numpy array operations and scalar complex arithmetic
in the interpreter resembles the adaptive stepper's inner loop, so both
slow down by about the same factor.  A workload that runs filmsr on
several threads is calibrated with the kernel split over as many
threads: handing the interpreter lock between threads slows down with
the machine in its own way, which a one-thread kernel does not see.
"""

from __future__ import annotations

import threading
import time

import numpy as np

KERNEL_STEPS = 6000
# about the kernel's median time, on one thread or split over two, on
# the 2-core Xeon (2.1 GHz) host where the benchmark was defined; it
# fixes the unit, not the comparison
KERNEL_NOMINAL_S = 0.15

# set-up is mostly interpreter start and the numpy import, which track
# the machine differently from the kernel; a fresh interpreter that
# only imports numpy is its reference, with its median on that host
STARTUP_REFERENCE_CODE = "import numpy\n"
STARTUP_NOMINAL_S = 0.16


def kernel(steps: int = KERNEL_STEPS) -> float:
    y = np.array([1.0 + 0j, 0.5j, 0.1, 0.2, 0.3, 0.4], dtype=complex)
    weights = np.array([0.2, 0.3, 0.5])
    stages = np.empty((3, 6), dtype=complex)
    acc = 0.0
    for _ in range(steps):
        a = complex(y[0])
        b = complex(y[1])
        g = complex(1.0, -0.1) * a * b.conjugate()
        stages[0] = y * 0.999
        stages[1] = y + 0.01 * (weights[:1] @ stages[:1])
        stages[2] = y + 0.01 * (weights[:2] @ stages[:2])
        y = y + 1e-4 * (weights @ stages) + g * 1e-6
        acc += abs(float(np.mean(np.abs(y) ** 2)))
    return acc


# a pass is scaled by at least this many samples; a pass without gaps
# (one run_sweep call) borrows its neighbours' samples, because two
# short samples say little about the seconds between them
MIN_WINDOW = 6


class Calibration:
    """Kernel samples of one run, in the order they were taken.

    Each timed item is scaled by the samples from just before it to just
    after it, gaps included, widened by neighbouring samples to at least
    ``MIN_WINDOW``.  Wall time is scaled by the kernel's wall time and
    CPU time by the kernel's process CPU time, so idle gaps between
    threads count the same way in both.
    """

    def __init__(self, threads: int = 1):
        self.threads = threads
        self.samples: list[float] = []        # wall seconds
        self.cpu_samples: list[float] = []    # process CPU seconds
        self._start = 0

    def sample(self) -> None:
        steps = KERNEL_STEPS // self.threads
        workers = [threading.Thread(target=kernel, args=(steps,))
                   for _ in range(self.threads - 1)]
        wall0, cpu0 = time.perf_counter(), time.process_time()
        for worker in workers:
            worker.start()
        kernel(steps)
        for worker in workers:
            worker.join()
        self.samples.append(time.perf_counter() - wall0)
        self.cpu_samples.append(time.process_time() - cpu0)

    def begin(self) -> None:
        """A timed item starts; the latest sample is its left edge."""
        if not self.samples:
            self.sample()
        self._start = len(self.samples) - 1

    def end(self) -> tuple[int, int]:
        """The item ended: sample once more; return its sample bracket."""
        self.sample()
        return self._start, len(self.samples) - 1

    def factors(self, bracket: tuple[int, int]) -> tuple[float, float]:
        """Wall and CPU scale factors of a bracket, once the run is over."""
        lo, hi = bracket
        last = len(self.samples) - 1
        while hi - lo + 1 < MIN_WINDOW and (lo > 0 or hi < last):
            lo = max(lo - 1, 0)
            if hi - lo + 1 < MIN_WINDOW:
                hi = min(hi + 1, last)
        n = hi - lo + 1
        return (KERNEL_NOMINAL_S * n / sum(self.samples[lo:hi + 1]),
                KERNEL_NOMINAL_S * n / sum(self.cpu_samples[lo:hi + 1]))
