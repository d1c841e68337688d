"""The memory measurement that the peak-memory tests share."""

import gc
import tracemalloc


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during `call()`.

    The cyclic collector is paused for the call and restored afterwards, so
    a reading does not depend on whether a collection happens to free
    garbage in the middle of it: the peak counts every cycle the call makes.
    """
    enabled = gc.isenabled()
    gc.disable()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        if enabled:
            gc.enable()
