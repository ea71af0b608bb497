from __future__ import annotations

import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

import gfstill
from gfstill.parallel import ordered_map


def _env() -> dict[str, str]:
    """This environment, with the package under test first on the path."""
    env = dict(os.environ)
    package_root = str(Path(gfstill.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (package_root, env.get("PYTHONPATH")) if p
    )
    return env


def test_results_keep_item_order_whatever_finishes_first():
    # early items take longest, so the threads finish them last
    def slow_first(i):
        time.sleep(0.002 * (8 - i))
        return i * i

    assert ordered_map(slow_first, list(range(8)), 3) == [i * i for i in range(8)]
    assert ordered_map(slow_first, [7], 4) == [49]
    assert ordered_map(slow_first, [], 2) == []


def test_every_item_runs_once_under_frequent_thread_switches():
    # more workers than CPUs, switching threads as often as the interpreter
    # allows: an index handed out twice or skipped shows in the counts
    calls = [0] * 3000

    def count(i):
        calls[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = ordered_map(count, range(len(calls)), 8)
    finally:
        sys.setswitchinterval(interval)
    assert results == [-i for i in range(len(calls))]
    assert calls == [1] * len(calls)


def test_a_one_shot_generator_is_taken_in_order_once_under_frequent_switches():
    # the threads resume one generator between them; without the lock two of
    # them resume it at once and it raises "generator already executing"
    taken = []

    def numbers():
        for i in range(3000):
            taken.append(i)
            yield i

    calls = [0] * 3000

    def count(i):
        calls[i] += 1
        return -i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        results = ordered_map(count, numbers(), 8)
    finally:
        sys.setswitchinterval(interval)
    assert taken == list(range(3000))
    assert results == [-i for i in range(3000)]
    assert calls == [1] * 3000


def test_an_error_from_the_iterator_reaches_the_caller():
    raised = ValueError("truncated frame payload")

    def items():
        yield from range(5)
        raise raised

    for workers in (1, 3):
        with pytest.raises(ValueError) as info:
            ordered_map(abs, items(), workers)
        assert info.value is raised


@pytest.mark.parametrize("workers", [1, 3])
def test_an_error_holds_no_reference_cycle(workers):
    # `quality` reads two clips; when one fails, the other's reader is still
    # open.  The error's traceback holds that reader, so a cycle through it
    # left the file for the garbage collector, which may finalize the file
    # before the reader and warn that it was never closed
    closed = []

    def reader():
        try:
            yield from range(5)
        finally:
            closed.append(True)

    def items():
        other = reader()
        yield next(other)
        raise ValueError("truncated frame payload")

    gc.disable()
    try:
        try:
            ordered_map(abs, items(), workers)
        except ValueError:
            pass
        assert closed == [True]
    finally:
        gc.enable()


def test_a_worker_error_stops_the_others_taking_items():
    # a reader that fails at frame 3 must not leave the other threads
    # reading the rest of a long clip before the error is reported
    raised = ValueError("frame 3 is unreadable")
    taken = []

    def numbers():
        for i in range(10_000):
            taken.append(i)
            yield i

    def fail_at_3(i):
        if i == 3:
            raise raised
        time.sleep(0.0001)
        return i

    with pytest.raises(ValueError) as info:
        ordered_map(fail_at_3, numbers(), 4)
    assert info.value is raised
    assert len(taken) < 100


def test_a_helper_error_reaches_the_caller_and_prints_nothing():
    # with helpers, only they fail, so the error crosses from a helper
    # thread; an error a thread let escape would be printed on stderr
    code = (
        "import threading, time\n"
        "from gfstill.parallel import ordered_map\n"
        "raised = ValueError('frame 3 is unreadable')\n"
        "caller = threading.current_thread()\n"
        "for workers in (1, 2, 4):\n"
        "    def fail_off_the_caller(i):\n"
        "        if workers == 1 or threading.current_thread() is not caller:\n"
        "            raise raised\n"
        "        time.sleep(0.001)\n"
        "    try:\n"
        "        ordered_map(fail_off_the_caller, (i for i in range(1000)), workers)\n"
        "    except ValueError as exc:\n"
        "        assert exc is raised\n"
        "    else:\n"
        "        raise AssertionError('no error')\n"
    )
    done = subprocess.run(
        [sys.executable, "-c", code], env=_env(), capture_output=True, text=True
    )
    assert (done.returncode, done.stderr) == (0, "")


def test_one_worker_runs_inline_without_the_pool_module():
    code = (
        "import sys\n"
        "import gfstill.cli\n"
        "from gfstill.parallel import ordered_map\n"
        "assert ordered_map(abs, [-1, -2], 1) == [1, 2]\n"
        "assert ordered_map(abs, [-3], 4) == [3]\n"
        "assert ordered_map(abs, (i for i in range(-5, 0)), 4) == [5, 4, 3, 2, 1]\n"
        "print(sorted({'concurrent.futures', 'logging'} & set(sys.modules)))\n"
    )
    out = subprocess.run([sys.executable, "-c", code], env=_env(),
                         capture_output=True, text=True, check=True).stdout
    assert out == "[]\n"
