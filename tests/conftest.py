"""Shared helpers: hand-built worlds and independent path oracles."""

from collections import deque

import pytest

from warefleet.gridworld import GridWorld, Position, parse_layout


def world_from(rows: list[str]) -> GridWorld:
    return parse_layout("\n".join(rows) + "\n")


def open_room(width: int, height: int) -> GridWorld:
    """Walled rectangle with empty interior."""
    rows = ["#" * width]
    rows += ["#" + "." * (width - 2) + "#" for _ in range(height - 2)]
    rows.append("#" * width)
    return world_from(rows)


def bfs_length(world: GridWorld, start: Position, goal: Position) -> int | None:
    """Breadth-first shortest path length; independent of the A* module."""
    if start == goal:
        return 0
    seen = {start}
    queue = deque([(start, 0)])
    while queue:
        cell, dist = queue.popleft()
        for step in ((0, -1), (1, 0), (0, 1), (-1, 0)):
            nxt = Position(cell.x + step[0], cell.y + step[1])
            if nxt in seen or nxt not in world.reachable:
                continue
            if nxt == goal:
                return dist + 1
            seen.add(nxt)
            queue.append((nxt, dist + 1))
    return None


def flood_fill_components(world: GridWorld) -> int:
    """Number of connected components of the reachable set."""
    remaining = set(world.reachable)
    components = 0
    while remaining:
        components += 1
        frontier = [remaining.pop()]
        while frontier:
            cell = frontier.pop()
            for step in ((0, -1), (1, 0), (0, 1), (-1, 0)):
                nxt = Position(cell.x + step[0], cell.y + step[1])
                if nxt in remaining:
                    remaining.remove(nxt)
                    frontier.append(nxt)
    return components


@pytest.fixture(scope="session")
def fig_layout() -> GridWorld:
    """The small tiled warehouse: 4 block columns, 3 block rows, 20x22 cells."""
    from warefleet.gridworld import generate_layout_sized

    return generate_layout_sized(20, 22)
