"""Shared helpers: hand-built worlds, the trace audit, a flood fill and a
fresh-process runner."""

import os
import subprocess
import sys

import pytest

import warefleet
from warefleet.gridworld import GridWorld, Position, parse_layout


class Integral:
    """An integer that only __index__ reveals, as an array scalar's is."""

    def __init__(self, value: int):
        self.value = value

    def __index__(self) -> int:
        return self.value


def world_from(rows: list[str]) -> GridWorld:
    return parse_layout("\n".join(rows) + "\n")


def open_room(width: int, height: int) -> GridWorld:
    """Walled rectangle with empty interior."""
    rows = ["#" * width]
    rows += ["#" + "." * (width - 2) + "#" for _ in range(height - 2)]
    rows.append("#" * width)
    return world_from(rows)


def random_world(rng) -> GridWorld:
    """A walled world of random size whose interior cells are obstacles at a
    random density; its floor may be split into several components."""
    width = rng.randint(8, 18)
    height = rng.randint(8, 14)
    grid = bytearray(b"\x01" * (width * height))
    density = rng.uniform(0.05, 0.35)
    for x in range(1, width - 1):
        for y in range(1, height - 1):
            grid[y * width + x] = rng.random() < density
    return GridWorld(width, height, grid)


TRACE_FAULTS = ("collisions", "teleports", "swaps", "task_regressions")


def trace_faults(trace) -> dict[str, int]:
    """Safety faults of a trace, per kind: two robots on one cell, a move
    of more than one cell, two robots exchanging cells in one tick, and a
    tick whose outstanding-task count rises."""
    faults = dict.fromkeys(TRACE_FAULTS, 0)
    for prev, cur in zip(trace.positions, trace.positions[1:]):
        if len(set(cur)) != len(cur):
            faults["collisions"] += 1
        moves = {(a, b) for a, b in zip(prev, cur) if a != b}
        faults["teleports"] += sum(abs(a.x - b.x) + abs(a.y - b.y) > 1 for a, b in moves)
        faults["swaps"] += sum((b, a) in moves for a, b in moves) // 2
    for earlier, later in zip(trace.outstanding, trace.outstanding[1:]):
        if later > earlier:
            faults["task_regressions"] += 1
    return faults


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


def run_python(*args: str, **env: str) -> subprocess.CompletedProcess:
    """Run `python *args` in a fresh process that imports the same warefleet
    as this one, with `env` added to the environment; fails the calling test
    unless the process exits 0. Returns the process with its text output."""
    src = os.path.dirname(os.path.dirname(warefleet.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, *args],
        capture_output=True,
        text=True,
        env={**os.environ, **env, "PYTHONPATH": path},
        timeout=120,
    )
    assert result.returncode == 0, result.stderr
    return result
