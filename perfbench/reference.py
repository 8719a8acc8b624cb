"""A fixed reference kernel that measures how fast the host runs right now.

The benchmark runs on shared hosts whose speed drifts by 20-40 % over tens
of seconds (other tenants on the same cores), which is longer than a run.
No median taken inside one run can remove a drift that covers the whole run.
So every part of an op is timed between two runs of this kernel, and the
part's seconds are scaled by ``NOMINAL_S`` over the kernel's time around it:
``op_s`` is the op's cost in seconds of a host on which the kernel takes
``NOMINAL_S``.  The kernel is pure Python of the kinds the package spends its
time on (dict and list churn, float arithmetic, a heap, small SHA-256
digests) and never calls the package, so a change to the package moves
``op_s`` in proportion to the raw seconds.
"""

import hashlib
import heapq
import time

NOMINAL_S = 0.005  # the kernel's time on an idle core of the reference host
_ROUNDS = 3000


def kernel() -> float:
    counts = {}
    heap = []
    acc = 0.0
    digest = b"reference"
    for i in range(_ROUNDS):
        key = i % 37
        counts[key] = counts.get(key, 0) + 1
        acc += (i * 0.618033988749895) % 1.0 * counts[key]
        heapq.heappush(heap, (acc % 97.0, i))
        if len(heap) > 16:
            heapq.heappop(heap)
        if i % 8 == 0:
            digest = hashlib.sha256(digest + i.to_bytes(4, "little")).digest()
        items = [acc, float(key), float(i)]
        items.sort()
        acc -= items[0] * 1e-9
    return acc + len(digest)


def kernel_s() -> float:
    """Wall seconds of one kernel run."""
    start = time.perf_counter()
    kernel()
    return time.perf_counter() - start
