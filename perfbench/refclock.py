"""Wall times scaled to a reference host speed.

A small VM on a shared host can change speed for minutes at a time: on a
2-vCPU VM the same replicate part took 2.2 s in one minute and 3.6 s in
the next, set-up time moved with it, and neither the fastest of several
runs nor CPU time instead of wall time took that out. So every
timed region is followed by a short reference workload: a fixed mix of
the operations the library spends its time on (SHA-256 over 4 KiB
chunks, small objects, dict updates, slicing and short digests) that
touches no ethercouch code. The region's wall time is scaled by
``REF_UNIT_S`` over the wall time of the reference just after it. A
change that speeds the library up shortens the region and leaves the
reference as it was, so it shows in full; a host that slows down slows
both, and the ratio cancels most of it.
The figures read as seconds on a host where one reference unit takes
``REF_UNIT_S``.
"""

from __future__ import annotations

import hashlib
import time

REF_UNIT_S = 0.3e-3  # wall seconds of one reference unit on a quiet 2-vCPU VM
REPEATS = 3  # reference units per reading; the fastest counts


class _Node:
    __slots__ = ("key", "value", "next")

    def __init__(self, key: bytes, value: int, nxt):
        self.key, self.value, self.next = key, value, nxt


_BLOCK = bytes(range(256)) * 16  # one 4 KiB chunk


def reference_unit() -> int:
    """Fixed work of about REF_UNIT_S; the result only keeps it from being
    optimised away."""
    # bulk hashing, as in payload roots and merkle proofs over 4 KiB chunks
    digest = hashlib.sha256()
    for _ in range(24):
        digest.update(hashlib.sha256(_BLOCK).digest())
    index: dict[bytes, _Node] = {}
    head = None
    for i in range(200):
        key = hashlib.sha256(i.to_bytes(8, "big")).digest()
        head = _Node(key[:12], i, head)
        index[key[:8]] = head
        if i % 3 == 0:
            index.pop(key[:8], None)
    odd = 0
    while head is not None:
        odd += head.value & 1
        head = head.next
    return odd + len(index) + digest.digest()[0]


def host_factor() -> float:
    """REF_UNIT_S over the fastest of REPEATS reference units: a wall time
    read just before, times this, is in reference seconds."""
    fastest = float("inf")
    for _ in range(REPEATS):
        t0 = time.perf_counter()
        reference_unit()
        fastest = min(fastest, time.perf_counter() - t0)
    return REF_UNIT_S / fastest
