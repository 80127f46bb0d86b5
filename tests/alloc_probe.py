"""Find the largest block that a stretch of vitalnet code allocates, with
tracemalloc, so that the answer does not depend on the allocator."""

from __future__ import annotations

import sys
import tracemalloc

import numpy as np

LARGE_BLOCK = 128 * 1024  # bytes; glibc's default mmap threshold


def largest_line_rise(run, armed) -> int:
    """Run `run()` under tracemalloc and return the largest rise of traced
    memory within one line of vitalnet code, over the lines run while
    `armed()` holds.

    A line's rise is its peak minus the traced memory when it began, so a
    line that allocates a block of n bytes rises by at least n: the rise
    bounds every block allocated, whichever allocator serves it. The ufunc
    iteration buffers (np.getbufsize() elements per operand, 64 KiB each by
    default) are cut to 128 elements while it runs, so that a line on
    strided views, which takes two or three of them at once, does not read
    as one large block."""
    rise = 0
    last = 0

    def probe(frame, event, arg):
        nonlocal rise, last
        if event in ("line", "return"):
            current, peak = tracemalloc.get_traced_memory()
            if armed():
                rise = max(rise, peak - last)
            tracemalloc.reset_peak()
            last = current
        return probe

    def on_call(frame, event, arg):
        return probe if frame.f_globals.get("__name__", "").startswith("vitalnet") else None

    previous, bufsize = sys.gettrace(), np.setbufsize(128)
    tracemalloc.start()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
        tracemalloc.stop()
        np.setbufsize(bufsize)
    return rise
