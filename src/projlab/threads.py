"""The one place that decides how many threads projlab's numpy kernels
use: one per CPU the process may run on (its affinity mask)."""

import contextlib
import os


def usable_cpus():
    """The number of CPUs the process may run on: its affinity mask, or
    the machine's CPU count where the platform has no mask."""
    return (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)


@contextlib.contextmanager
def cpu_pool():
    """A thread pool of up to one thread per usable CPU, started as tasks
    arrive; its threads end when the block does.  Callers submit work
    whose numpy calls release the GIL and that shares no mutable buffer,
    so results equal a serial loop's."""
    # Imported here: concurrent.futures loads logging, which importing the
    # CLI should not pay for.
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(usable_cpus()) as pool:
        yield pool
