"""The host's speed, read from a fixed reference loop.

The benchmark runs on a few cores of a shared host whose speed moves by
10-40% from one minute to the next, and process CPU time moves with it,
so no clock of the benchmark's own process sees the difference. The
reference loop below does a fixed amount of the kinds of work flexstore
does (small tuples in a dict bigger than the CPU's near caches, lookups
in it in scattered order, short slices of a large buffer, SHA-1 of 2 KiB
blocks) and uses nothing of flexstore's, so a change to the program
moves it only through the state the program leaves in the caches and
the heap. Timed just before and just after an operation, it tells how
fast the host ran at that moment; dividing the operation's time by it,
and multiplying by the loop's time at a fixed reference speed, gives the
operation's time at that fixed speed.

Of the loops tried, the scattered dict and buffer accesses tracked the
operations best: over four 15 s runs of long-history-1m in a noisy hour,
the run medians of `open` ranged over 45% as measured and 13% at the
speed they gave; a loop of only small-dict churn and hashing left 34%.
"""

from __future__ import annotations

import hashlib
import random
import statistics
import time

# The loop's time on the 2-vCPU Xeon virtual machine behind the figures
# in README.md, at a calm moment. Times "at reference speed" are times
# on a host where the loop takes this long.
REFERENCE_SECONDS = 0.006

_rng = random.Random("flexstore-perfbench/hostspeed")
_BUFFER = _rng.randbytes(8 * 1024 * 1024)
_KEYS = list(range(40000))
_rng.shuffle(_KEYS)
_SLICE_STEP = 613


def reference_loop() -> int:
    table = {}
    for key in _KEYS[:12000]:
        table[key] = (key, key + 1, None)
    total = 0
    for key in _KEYS[12000:24000]:
        total += table.get(key % 40000, (0,))[0]
    span = len(_BUFFER) - 2048
    slices = []
    for key in _KEYS[:3000]:
        offset = key * _SLICE_STEP % span
        slices.append(_BUFFER[offset:offset + 256])
    sha1 = hashlib.sha1
    for key in _KEYS[:100]:
        offset = key * _SLICE_STEP % span
        slices.append(sha1(_BUFFER[offset:offset + 2048]).digest())
    return total + len(slices)


def sample() -> float:
    """Seconds the reference loop takes now."""
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


def median_sample(n: int) -> float:
    return statistics.median(sample() for _ in range(n))
