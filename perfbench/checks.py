"""Output checks for benchmark runs, independent of the code under test.

Shortest-path lengths come from a breadth-first search over the world's
reachable cells, not from the package's A* oracle, so a faster A* that
returned wrong lengths would fail here.
"""

from __future__ import annotations

from collections import deque

STEPS = ((0, -1), (1, 0), (0, 1), (-1, 0))

# CSV columns of `warefleet sweep` that hold wall-clock time and so vary
# between executions; every other column is deterministic.
TIME_COLUMNS = ("planner_time_us", "astar_time_us")


def bfs_length(reachable, start, goal) -> int | None:
    if start == goal:
        return 0
    seen = {start}
    frontier = deque([(start, 0)])
    gx, gy = goal
    while frontier:
        (x, y), dist = frontier.popleft()
        for dx, dy in STEPS:
            nxt = (x + dx, y + dy)
            if nxt in seen or nxt not in reachable:
                continue
            if nxt[0] == gx and nxt[1] == gy:
                return dist + 1
            seen.add(nxt)
            frontier.append((nxt, dist + 1))
    return None


def digest(trace, report) -> tuple:
    """Everything a fixed-seed run must reproduce exactly."""
    return (
        hash(tuple(trace.positions)),
        hash(tuple(tuple(segs) for segs in trace.segments)),
        trace.outcome,
        trace.k_total,
        report.j1,
        report.j2,
        report.j3,
        report.j4,
        tuple(map(tuple, report.per_robot)),
    )


def check_run(world, trace, report) -> list[str]:
    """Problems with one completed run; an empty list means it passed."""
    problems = []
    if report.cap_reached or trace.outcome != "completed":
        problems.append(f"run hit the step cap ({trace.outcome})")
    reachable = world.reachable
    positions = trace.positions
    for tick, now in enumerate(positions):
        if len(set(now)) != len(now):
            problems.append(f"collision at tick {tick}")
            break
        if any(cell not in reachable for cell in now):
            problems.append(f"robot off the floor at tick {tick}")
            break
        if tick == 0:
            continue
        before = positions[tick - 1]
        if any(abs(a[0] - b[0]) + abs(a[1] - b[1]) > 1 for a, b in zip(before, now)):
            problems.append(f"multi-cell jump at tick {tick}")
            break
        came_from = {cell: robot for robot, cell in enumerate(before)}
        if any(
            came_from.get(cell, robot) != robot and now[came_from[cell]] == before[robot]
            for robot, cell in enumerate(now)
        ):
            problems.append(f"two robots swapped cells at tick {tick}")
            break

    optima = []
    for robot, segments in enumerate(trace.segments):
        total = 0
        for seg in segments:
            best = bfs_length(reachable, seg.start, seg.end)
            if best is None:
                problems.append(f"robot {robot} finished an unreachable leg {seg}")
                best = 0
            elif seg.length < best:
                problems.append(f"robot {robot} leg {seg} is shorter than the optimum {best}")
            total += best
        optima.append(total)
    realized = [sum(seg.length for seg in segments) for segments in trace.segments]
    if [pair[1] for pair in report.per_robot] != optima:
        problems.append("reported optimal distances differ from breadth-first search")
    if sum(optima) and report.j1 != sum(realized) / sum(optima):
        problems.append(f"J1 {report.j1!r} does not match the trace")
    if report.j1 < 1.0:
        problems.append(f"J1 {report.j1!r} is below 1")
    completed = sum(len(segments) for segments in trace.segments)
    if trace.k_total and report.j4 != completed / trace.k_total:
        problems.append(f"J4 {report.j4!r} does not match the trace")
    return problems


def deterministic_rows(csv_rows: list[dict]) -> list[tuple]:
    return [
        tuple(value for key, value in row.items() if key not in TIME_COLUMNS) for row in csv_rows
    ]
