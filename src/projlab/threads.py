"""The one place that decides how many threads projlab's numpy kernels
use: one per CPU the process may run on (its affinity mask)."""

import os


def cpu_map(fn, items):
    """[fn(x) for x in items], in order, spread over min(usable CPUs,
    len(items)) threads.  Callers pass work whose numpy calls release the
    GIL and that shares no mutable buffer, so results equal a serial
    loop's."""
    items = list(items)
    if not items:
        return []
    # Imported here: concurrent.futures loads logging, which importing the
    # CLI should not pay for.
    from concurrent.futures import ThreadPoolExecutor
    cpus = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
    with ThreadPoolExecutor(min(cpus, len(items))) as pool:
        return list(pool.map(fn, items))
