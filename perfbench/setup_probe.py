"""Time one set-up of a workload in a fresh interpreter and print the seconds.

    python3 perfbench/setup_probe.py <workload> <instance seed> <size>

run.py starts this several times per run: importing restopo can only be
timed once per process, and set-up time is reported as a median.
"""

import sys
import time

import workloads

if __name__ == "__main__":
    workload, seed, size = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    start = time.perf_counter()
    workloads.setup(workload, seed, size)
    print(repr(time.perf_counter() - start))
