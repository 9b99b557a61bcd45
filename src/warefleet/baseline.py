"""Optimal shortest-path lengths on the grid via A* search.

Serves as the distance oracle the simulator's realized paths are measured
against, and as the computation-time comparison target for the local
planner. Only the length is kept, not the path. Heuristic is the 1-norm,
which is admissible and consistent on a 4-connected grid, so returned
lengths are exact optima.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from heapq import heappop, heappush

from .gridworld import GridWorld, Position


@dataclass
class PathResult:
    """Outcome of one shortest-path query.

    length is the number of moves on a shortest path, or None when the goal
    is unreachable; expanded_nodes counts the cells the search closed.
    """

    length: int | None
    expanded_nodes: int
    elapsed: float


def shortest_path(world: GridWorld, start: Position, goal: Position) -> PathResult:
    """Length of a minimum-length 4-connected path from start to goal, each
    a floor cell given as any pair of integers (GridWorld.cell)."""
    start, goal = world.cell(start, "start"), world.cell(goal, "goal")

    t0 = time.perf_counter()
    # Heap entries: (f, insertion order, cell); equal-f ties expand in
    # insertion order, which keeps the search deterministic.
    counter = 0
    sx, sy = start
    gx, gy = goal
    open_heap = [(abs(sx - gx) + abs(sy - gy), counter, start)]
    g_score = {start: 0}
    closed: set[Position] = set()
    expanded = 0
    adjacency = world.adjacency

    while open_heap:
        _, _, cell = heappop(open_heap)
        if cell in closed:
            continue
        if cell == goal:
            return PathResult(g_score[cell], expanded, time.perf_counter() - t0)
        closed.add(cell)
        expanded += 1
        g_next = g_score[cell] + 1
        for nxt in adjacency[cell]:
            if g_next < g_score.get(nxt, 1 << 60):
                g_score[nxt] = g_next
                counter += 1
                nx, ny = nxt
                f = g_next + (nx - gx if nx >= gx else gx - nx) + (ny - gy if ny >= gy else gy - ny)
                heappush(open_heap, (f, counter, nxt))

    return PathResult(None, expanded, time.perf_counter() - t0)

