"""Independent jobs spread over the CPUs this process may run on."""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpus() -> int:
    """CPUs this process may run on; `taskset` narrows them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity mask on macOS or Windows


def ordered_map(fn: Callable[[T], R], items: Sequence[T], workers: int) -> list[R]:
    """`[fn(item) for item in items]` on `workers` threads, the caller one of them.

    Every thread takes the next index from one shared iterator and stores
    its result at that index, so the output cannot depend on scheduling.
    The calling thread takes a share rather than waiting: each new thread
    gets its own malloc arena, which keeps its peak working set, so one
    thread fewer holds less memory.  An error raised by `fn` reaches the
    caller as the same object.  One worker runs inline, and does not load
    `concurrent.futures` (nor `logging` with it).
    """
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(item) for item in items]
    results: list = [None] * len(items)
    indices = iter(range(len(items)))  # next() on it is atomic under the GIL

    def drain() -> None:
        for i in indices:
            results[i] = fn(items[i])

    from concurrent.futures import ThreadPoolExecutor

    with ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(drain) for _ in range(workers - 1)]
        drain()
        for helper in helpers:
            helper.result()
    return results
