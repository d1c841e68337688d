"""The memory measurement that the peak-memory tests share."""

import tracemalloc


def traced_peak(call):
    """Peak bytes that numpy and Python allocate during `call()`."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
