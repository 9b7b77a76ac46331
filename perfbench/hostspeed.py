"""Host-speed calibration for the benchmark's timings.

On a shared virtual machine the speed of a vCPU drifts with the load its
neighbours put on the physical core. On the 2-vCPU host this benchmark was
built on, a fixed pure-Python loop ran up to 1.9 times slower for stretches
of 5 s to several minutes, with no steal time in ``/proc/stat`` and with
``process_time`` equal to wall time: the CPU itself ran slower, the process
was not descheduled. A 40-op median of raw op wall times moved by up to 50%
between stretches.

:class:`Calibration` times a fixed kernel of interpreter-bound stdlib work
(integer arithmetic, ``json`` decoding and encoding, ``csv`` parsing) and
many small NumPy calls, the mix that slows most in those stretches, as the
ops do. The kernel calls no ``repro`` code, so a change to the program
cannot move it. The benchmark times the kernel right before and right
after each op and scales the op's wall time by ``REFERENCE_S`` over their
mean: a timing is reported in seconds at the speed at which the kernel
takes ``REFERENCE_S``.
"""

from __future__ import annotations

import csv
import io
import json
import statistics
import time

import numpy as np

#: Kernel time that defines the reference speed: a typical time on the
#: host above.
REFERENCE_S = 0.025


class Calibration:
    """A fixed CPU kernel; calling it returns its wall time in seconds."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        times = rng.random(1500) * 1e5
        latencies = rng.random(1500) * 900.0
        self.json_lines = [
            json.dumps({"time": float(t), "action": "SelectMail",
                        "latency_ms": float(lat), "user_id": f"u{i}",
                        "user_class": "business", "success": True,
                        "tz_offset_hours": -5.0})
            for i, (t, lat) in enumerate(zip(times, latencies))
        ]
        self.csv_text = "".join(
            f"{t:f},SelectMail,{lat:f},u{i},business,1,-5.0\n"
            for i, (t, lat) in enumerate(zip(times, latencies))
        )
        self.small = rng.random(100)
        self()

    def _kernel(self) -> None:
        total = 0
        for i in range(50_000):
            total += i * i
        decoded = [json.loads(line) for line in self.json_lines]
        json.dumps(decoded[:500])
        for row in csv.reader(io.StringIO(self.csv_text)):
            float(row[0])
            float(row[2])
        a = self.small
        for _ in range(750):
            np.cumsum(a)
            a.mean()
            np.where(a > 0.5)

    def __call__(self) -> float:
        t0 = time.perf_counter()
        self._kernel()
        return time.perf_counter() - t0

    def median(self, repeats: int) -> float:
        """Median of ``repeats`` kernel timings, for spans too few to average."""
        return statistics.median(self() for _ in range(repeats))


def scale(before: float, after: float) -> float:
    """Factor that turns a wall time between two kernel timings into reference seconds."""
    return REFERENCE_S / (0.5 * (before + after))
