"""Independent jobs spread over the CPUs this process may run on."""

from __future__ import annotations

import os
import threading
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


def cpus() -> int:
    """CPUs this process may run on; `taskset` narrows them."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1  # no affinity mask on macOS or Windows


def ordered_map(fn: Callable[[T], R], items: Iterable[T], workers: int) -> list[R]:
    """`[fn(item) for item in items]` on `workers` threads, the caller one of them.

    `items` may be a one-shot iterator, such as a generator that reads its
    items from a stream: every thread takes the next item, with its index,
    under one lock, and stores its result at that index, so the output
    cannot depend on scheduling.  A thread drops its item before it takes
    the next, so the iterator can free what the finished items held.  The
    calling thread takes a share rather than waiting, so one worker starts
    no thread: each new thread gets its own malloc arena, which keeps its
    peak working set, so one thread fewer holds less memory.  The first
    error raised by `fn` or by the iterator stops every thread taking items
    and, once they have all finished, reaches the caller as the same object.
    """
    items = iter(items)
    done = object()
    lock = threading.Lock()
    results: list = []
    errors: list[BaseException] = []

    def drain() -> None:
        nonlocal items
        try:
            # not enumerate(): it keeps its last (index, item) tuple, and
            # with it the item, until it has taken the next one
            while True:
                with lock:  # a generator raises if two threads resume it at once
                    item = next(items, done)
                    if item is done:
                        return
                    i = len(results)
                    results.append(None)
                results[i] = fn(item)
                del item
        except BaseException as exc:
            with lock:  # the other threads take no more items
                items = iter(())
                errors.append(exc)

    helpers = [threading.Thread(target=drain) for _ in range(workers - 1)]
    for helper in helpers:
        helper.start()
    drain()
    for helper in helpers:
        helper.join()
    if errors:
        # popped, or the list would tie it into a cycle with its traceback and
        # leave what the failed items held (an open file) to the collector
        raise errors.pop(0)
    return results
