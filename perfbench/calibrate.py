"""Machine-speed calibration loops.

The benchmark shares its machine with other tenants, whose load slows this
process by up to 2x for stretches of a fraction of a second to minutes.
run.py times a fixed loop between rounds; the loop's time over its
reference time is the machine's slowdown at that moment, and a round's wall
time divided by the mean slowdown before and after it is the round's time
in reference seconds.

Two loops match the two kinds of work the workloads do: "overhead" is
Python-level calls on 8x8 and 8x16 arrays (what restopo's small-d steps
spend their time on), "blas" is 128x128 by 128x256 matrix products (what
wide-gd spends its time on).  Each loop's reference time was its fastest
time, over a minute of repeats, on a 2-vCPU x86-64 virtual machine with
numpy 2.4.6 and OpenBLAS 0.3.31 at 2 threads, so on that machine,
uncontended, a reference second is a wall-clock second.

Import this module only after the BLAS thread count is set.
"""

from __future__ import annotations

import time

import numpy as np

REFERENCE_S = {"overhead": 0.0100, "blas": 0.0086}


class Calibration:
    def __init__(self, kind: str):
        if kind not in REFERENCE_S:
            raise ValueError(f"unknown calibration {kind!r}")
        self.kind = kind
        rng = np.random.default_rng(0)
        if kind == "overhead":
            self.w, self.x = rng.random((8, 8)), rng.random((8, 16))
        else:
            self.w, self.x = rng.random((128, 128)), rng.random((128, 256))

    def _loop(self):
        w, x = self.w, self.x
        if self.kind == "overhead":
            for _ in range(2000):
                h = w @ x + x
                float(np.sum(h * h))
        else:
            for _ in range(60):
                w @ x

    def slowdown(self) -> float:
        """Current time of the loop over its reference time."""
        start = time.perf_counter()
        self._loop()
        return (time.perf_counter() - start) / REFERENCE_S[self.kind]
