"""Host-speed calibration for the benchmark's timings.

The benchmark runs on shared hosts whose speed drifts by 20-40% within
minutes, as other tenants come and go.  A fixed calibration chunk is timed
right next to the work being measured: a pure-Python loop plus small numpy
transforms and array arithmetic, the mix gcflow's steppers spend their time
in.  A time is then reported in reference seconds:

    reported = measured * REFERENCE_CHUNK_S / median(chunk times next to it)

The chunk never touches gcflow, so a change to gcflow moves the reported
times one for one, while a change of host speed moves the chunk and the
work alike and cancels.  The raw seconds stay on the detail line.

Importing this module imports numpy; a set-up probe imports it only after
it has timed the gcflow import.
"""

from __future__ import annotations

import statistics
import time

import numpy as np

# Median chunk time on the host the benchmark was defined on (2 vCPUs of a
# shared Intel Xeon, numpy's pocketfft, one thread).  Any constant would do;
# this one keeps reported times close to that host's seconds.
REFERENCE_CHUNK_S = 3.5e-3
CHUNKS_PER_GAP = 4  # chunks timed in each gap between measured calls

_rng = np.random.default_rng(0)
_LINE = _rng.standard_normal(256)
_PLANE = _rng.standard_normal((64, 64))


def _chunk() -> None:
    acc = 0
    for i in range(20000):
        acc += i * i
    for _ in range(10):
        np.fft.ifft(np.fft.fft(_LINE))
        np.fft.ifftn(np.fft.fftn(_PLANE))
        (_LINE * _LINE + _LINE).sum()


def chunk_times(chunks: int = CHUNKS_PER_GAP) -> list:
    """Wall time of each of `chunks` calibration chunks."""
    times = []
    for _ in range(chunks):
        t0 = time.perf_counter()
        _chunk()
        times.append(time.perf_counter() - t0)
    return times


def factor(times: list) -> float:
    """Reference seconds per measured second, from chunk times."""
    return REFERENCE_CHUNK_S / statistics.median(times)
