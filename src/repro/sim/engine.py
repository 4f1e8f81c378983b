"""A minimal dependency-driven discrete-event simulator.

Tasks have a duration, a resource, and dependencies.  Each resource executes
one task at a time, in ready order (FIFO by ready time, ties broken by
submission order — matching a CUDA stream / communication queue).  The
engine computes per-task start/finish times and the overall makespan.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field


@dataclass
class Task:
    """One unit of work bound to a resource."""

    name: str
    duration: float
    resource: str
    deps: tuple[str, ...] = ()
    #: Id of the schedule op this task belongs to (its own name when the
    #: op is a single task): what measured spans are joined on.
    op: str = ""
    start: float = field(default=-1.0, init=False)
    finish: float = field(default=-1.0, init=False)

    def __post_init__(self) -> None:
        if self.duration < 0:
            raise ValueError(f"task {self.name!r} has negative duration")


class SimEngine:
    """Schedules a task DAG over exclusive resources."""

    def __init__(self) -> None:
        self._tasks: dict[str, Task] = {}
        self._order: list[str] = []

    def add(
        self, name: str, duration: float, resource: str, deps=(), op: str | None = None
    ) -> Task:
        if name in self._tasks:
            raise ValueError(f"duplicate task {name!r}")
        for d in deps:
            if d not in self._tasks:
                raise ValueError(f"task {name!r} depends on unknown {d!r}")
        t = Task(name, float(duration), resource, tuple(deps), op or name)
        self._tasks[name] = t
        self._order.append(name)
        return t

    def __getitem__(self, name: str) -> Task:
        return self._tasks[name]

    def tasks(self) -> list[Task]:
        """All tasks in submission order (start/finish valid after run())."""
        return [self._tasks[name] for name in self._order]

    def run(self) -> float:
        """Execute the schedule; returns the makespan (seconds)."""
        indeg = {n: len(t.deps) for n, t in self._tasks.items()}
        children: dict[str, list[str]] = {n: [] for n in self._tasks}
        for n, t in self._tasks.items():
            for d in t.deps:
                children[d].append(n)

        submit_idx = {n: i for i, n in enumerate(self._order)}
        resource_free: dict[str, float] = {}
        ready_at: dict[str, float] = {
            n: 0.0 for n, d in indeg.items() if d == 0
        }
        # Heap of (ready_time, submit_idx, name) — FIFO per ready time.
        heap = [(0.0, submit_idx[n], n) for n in ready_at]
        heapq.heapify(heap)
        done = 0
        makespan = 0.0

        while heap:
            ready, _, name = heapq.heappop(heap)
            t = self._tasks[name]
            free = resource_free.get(t.resource, 0.0)
            t.start = max(ready, free)
            t.finish = t.start + t.duration
            resource_free[t.resource] = t.finish
            makespan = max(makespan, t.finish)
            done += 1
            for child in children[name]:
                indeg[child] -= 1
                prev = ready_at.get(child, 0.0)
                ready_at[child] = max(prev, t.finish)
                if indeg[child] == 0:
                    heapq.heappush(
                        heap, (ready_at[child], submit_idx[child], child)
                    )

        if done != len(self._tasks):
            raise RuntimeError("task graph has a cycle or unreachable tasks")
        return makespan

    def busy_time(self, resource: str) -> float:
        """Total busy time on one resource (for utilization reports)."""
        return sum(
            t.duration for t in self._tasks.values() if t.resource == resource
        )
