"""A thread pool whose caller works alongside its helper threads.

NumPy releases the GIL in its array kernels, so one file's detectors,
or a batch of entropy profiles, can run on several cores of one
process. The calling thread claims work too, so a pool of ``threads``
cores starts ``threads - 1`` threads: each new thread gets its own
allocator arena, which holds that thread's high-water mark. At one
core there are no helpers, and the caller does every task in order.
"""

from __future__ import annotations

import queue
from concurrent.futures import Future, ThreadPoolExecutor
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")
R = TypeVar("R")


class SharedPool:
    """``helpers`` worker threads that share each :meth:`map` with its
    caller; with none, :meth:`submit` runs its function at once.

    A task must never wait on another task of the same pool: every
    helper may be busy, and the task it waits on would never start.
    Only the thread that owns the pool waits, on :meth:`submit`'s future
    or inside :meth:`map`.
    """

    def __init__(self, helpers: int):
        if helpers < 0:
            raise ValueError(f"helpers must be at least 0, got {helpers}")
        self._helpers = helpers
        self._executor = ThreadPoolExecutor(max_workers=helpers) if helpers else None

    def __enter__(self) -> "SharedPool":
        return self

    def __exit__(self, *exc) -> None:
        if self._executor:
            self._executor.shutdown(wait=True)

    def submit(self, fn: Callable[[], R]) -> Future:
        """Run ``fn`` on a helper; its future holds the result or the error."""
        if self._executor:
            return self._executor.submit(fn)
        done: Future = Future()
        try:
            done.set_result(fn())
        except Exception as exc:  # re-raised by result()
            done.set_exception(exc)
        return done

    def map(self, fn: Callable[[T], R], items: Iterable[T]) -> list[R]:
        """``[fn(x) for x in items]``, in order, computed by the caller and
        up to ``helpers`` helper threads.

        Each item is claimed from a queue by whichever thread is free, so
        a helper still busy with earlier work leaves the items to the
        others. The first error in item order is raised once every item
        is done; a map that no helper shares stops at that error.
        """
        items = list(items)
        helpers = min(self._helpers, len(items) - 1)
        if helpers < 1:
            return [fn(x) for x in items]
        todo: queue.SimpleQueue[int] = queue.SimpleQueue()
        for i in range(len(items)):
            todo.put(i)
        results = [Future() for _ in items]

        def claim() -> None:
            while True:
                try:
                    i = todo.get_nowait()
                except queue.Empty:
                    return
                try:
                    results[i].set_result(fn(items[i]))
                except BaseException as exc:  # re-raised by result() below
                    results[i].set_exception(exc)

        for _ in range(helpers):
            self._executor.submit(claim)
        claim()
        return [r.result() for r in results]
