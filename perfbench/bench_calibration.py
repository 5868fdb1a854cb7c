"""Reference work that the benchmark's times are expressed against.

On a host shared with other tenants the same code runs up to ~1.6x faster or
slower from one second to the next, and a whole run can sit in a
fast or a slow phase. The ratio of an mlds operation's time to the time of
this fixed kernel, timed right after it, moves far less. So the benchmark
runs the kernel after every request and reports each request's time in
reference units:

    reference time = measured time * REF_US / (kernel time in us)

that is, what it would read on a machine where the kernel takes REF_US
microseconds. Over six 35-second runs in separate processes on one 2-vCPU
host, the quartile spread of the median sign time was 15% measured and 3% in
reference units; for a measure_agreement cycle it was 13% and 5%. One kernel
run is a noisy sample of the host, so after a long request the kernel runs
again, up to KERNEL_SHARE of the request's time, and the median run counts;
on the 64-cycle measure_agreement calls of cold-keys that narrowed the
quartile spread of the per-cycle medians over five seeds from about 6% to 3%.

The kernel uses no mlds code, but it runs right after each request, on the
same core and in the same caches, so a request can leave it slower. Timed
150 times after each kind of request, interleaved in one process on that
host, the kernel took within 2% of its idle time after a z2 sign or a
measure_agreement cycle, but 1.85x as long after a primal_cost, which
streams tens of MiB of cost blocks. So a workload whose requests stream past
the caches passes ``flush_bytes``: before each kernel run a buffer of that
size is written through, which leaves the caches in the same state whatever
the request touched (64 MiB: within 2.4% of the time after an idle
request). Settling the caches the other way, by timing a second kernel run
after an untimed one, was tried and dropped: it made the spreads two to five
times wider, because a warm kernel no longer feels the neighbours' cache
traffic that also slows mlds. What the flush cannot undo, such as a
clock-frequency change left behind by a request, is not corrected for.
"""

import functools
import hashlib
import statistics
import time

import numpy as np

REF_US = 100.0
KERNEL_SHARE = 0.03
MAX_RUNS = 64


@functools.cache
def _flush_lines(flush_bytes: int) -> np.ndarray:
    """One float64 in each 64-byte cache line of a buffer, shared by all calibrations."""
    return np.ones(flush_bytes // 8)[::8]


class Calibration:
    def __init__(self, flush_bytes: int = 0):
        rng = np.random.default_rng(0)
        # int64 matvec mod q, like a transform, on a matrix a quarter of the
        # transform's size so that it does not evict mlds's tables from cache
        self._mat = rng.integers(0, 12289, (128, 128))
        self._vec = rng.integers(0, 12289, 128)
        self._grid = rng.random(8192) + 0.5  # float64 elementwise, like the estimator grid
        self._data = bytes(range(256)) * 8  # SHAKE, like the samplers
        self._flush = _flush_lines(flush_bytes) if flush_bytes else None
        self.samples: list[int] = []

    def __call__(self, request_ns: int) -> float:
        """Run the kernel; return the factor from measured to reference time.

        One run is a noisy sample of the host, so after a request of
        ``request_ns`` the kernel runs again until the calibration has taken
        KERNEL_SHARE of the request's time (at most MAX_RUNS runs), and the
        median run is used."""
        start = time.perf_counter_ns()
        times = []
        while not times or (time.perf_counter_ns() - start < KERNEL_SHARE * request_ns
                            and len(times) < MAX_RUNS):
            if self._flush is not None:
                self._flush += 1.0
            t0 = time.perf_counter_ns()
            self._kernel()
            times.append(time.perf_counter_ns() - t0)
        elapsed = statistics.median(times)
        self.samples.append(elapsed)
        return REF_US * 1e3 / elapsed

    def _kernel(self) -> None:
        for _ in range(3):
            self._mat @ self._vec % 12289
        np.log(self._grid).sum()
        hashlib.shake_256(self._data).digest(1024)
        acc = 0
        for x in range(200):  # interpreter work, like the codec and scheme glue
            acc += x * x

    def kernel_us(self) -> float:
        return statistics.median(self.samples) / 1e3
