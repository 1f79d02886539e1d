"""Fibonacci — the canonical divide-and-conquer benchmark kernel.

``fib(n)`` spawns ``fib(n-1)`` and ``fib(n-2)``; below a sequential
threshold the subtree runs as one leaf task. This is the classic Satin
demo program (and the classic work-stealing stress test: tiny tasks, huge
spawn counts).

The spawn tree's costs are *exact*: the number of recursive calls needed
to evaluate ``fib(n)`` naively is ``2·fib(n+1) − 1``, so leaf work is the
true sequential op count of the subtree — no sampling, no approximation.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Iterator

from ..satin.app import Iteration
from ..satin.task import TaskNode

__all__ = ["fib", "fib_call_count", "fib_spawn_tree", "FibApp"]


@lru_cache(maxsize=None)
def fib(n: int) -> int:
    """The Fibonacci number (fast doubling via memoised recursion)."""
    if n < 0:
        raise ValueError("n must be >= 0")
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)


def fib_call_count(n: int) -> int:
    """Number of calls a naive recursive ``fib(n)`` makes (itself included).

    Satisfies ``calls(n) = 1 + calls(n-1) + calls(n-2)``, which closes to
    ``2·fib(n+1) − 1``.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    return 2 * fib(n + 1) - 1


def fib_spawn_tree(
    n: int,
    threshold: int = 12,
    work_per_call: float = 1e-6,
    spawn_bytes: float = 64.0,
) -> TaskNode:
    """The spawn tree of a Satin-style parallel ``fib(n)``.

    Subtrees with ``n <= threshold`` execute sequentially as one leaf whose
    work is the exact naive call count. Internal nodes carry one call's
    worth of divide work and a trivial combine (an addition).
    """
    if threshold < 1:
        raise ValueError("threshold must be >= 1")
    if n <= threshold:
        return TaskNode(
            work=fib_call_count(n) * work_per_call,
            data_in=spawn_bytes,
            data_out=spawn_bytes,
            tag=f"fib({n})",
        )
    return TaskNode(
        work=work_per_call,
        children=(
            fib_spawn_tree(n - 1, threshold, work_per_call, spawn_bytes),
            fib_spawn_tree(n - 2, threshold, work_per_call, spawn_bytes),
        ),
        combine_work=work_per_call,
        data_in=spawn_bytes,
        data_out=spawn_bytes,
        tag=f"fib({n})",
    )


class FibApp:
    """IterativeApplication adapter: one iteration evaluating fib(n)."""

    name = "fib"

    def __init__(
        self, n: int = 40, threshold: int = 20, work_per_call: float = 1e-7
    ) -> None:
        self.n = n
        self.threshold = threshold
        self.work_per_call = work_per_call
        self.expected = fib(n)

    def iterations(self) -> Iterator[Iteration]:
        yield Iteration(
            tree=fib_spawn_tree(self.n, self.threshold, self.work_per_call),
            label=f"fib({self.n})",
        )
