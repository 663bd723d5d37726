"""Fixed loops that measure how fast the machine runs right now.

On a shared machine the speed of a core drifts by 15-25% over minutes.
Sessions timed minutes apart then differ by more than any useful bound,
although the program did not change. The benchmark times one of these
loops before and after every timed session, on the wall clock and on the
process CPU clock. It reports session times at the reference speed, the
speed at which the loop takes its REFERENCE_S:

    reported = measured * REFERENCE_S / loop time around the session

Wall times are scaled by the loop's wall time and CPU times by its CPU
time, so that time the process spends waiting for a core (which is in wall
time but not in CPU time) moves only the wall figures.

There are two loops, because the machine's CPU speed and the cost of fresh
memory pages drift apart:

- "cpu" does the work most of the CLI's time goes to: float arithmetic,
  dict updates and float formatting, in a few KB.
- "pages" maps 4 MB at a time, touches each page and unmaps it, so that its
  time is the kernel's cost of handing out fresh pages. That cost sets the
  pace of a session that allocates and frees hundreds of MB. It never holds
  more than 4 MB, so it does not raise the worker's peak memory.

Neither loop touches parlimits code, so a change to the program does not
move them. The garbage collector is off while one runs, so its time does
not depend on the heap the program leaves behind.
"""
from __future__ import annotations

import gc
import mmap
import time

# Loop times in seconds at the reference speed: about their medians on the
# 2-vCPU machine the README's reference figures come from.
REFERENCE_S = {"cpu": 0.010, "pages": 0.024}

PAGE_BLOCK = 4 << 20


def _cpu() -> None:
    table = {}
    x = 0.0
    for i in range(40_000):
        x += i * 0.5
        table[i & 1023] = x
    [repr(i * 0.25) for i in range(8_000)]


def _pages() -> None:
    for _ in range(8):
        block = mmap.mmap(-1, PAGE_BLOCK)
        for offset in range(0, PAGE_BLOCK, mmap.PAGESIZE):
            block[offset] = 1
        block.close()


LOOPS = {"cpu": _cpu, "pages": _pages}


def loop_s(kind: str) -> tuple[float, float]:
    """Wall time and process CPU time of one pass of the named loop."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        wall0, cpu0 = time.perf_counter(), time.process_time()
        LOOPS[kind]()
        return time.perf_counter() - wall0, time.process_time() - cpu0
    finally:
        if enabled:
            gc.enable()


def speed_factors(kind: str, before: tuple[float, float],
                  after: tuple[float, float]) -> tuple[float, float]:
    """How much slower than the reference the machine ran between two passes
    of the named loop, on the wall clock and on the CPU clock."""
    return tuple((b + a) / 2 / REFERENCE_S[kind] for b, a in zip(before, after))
