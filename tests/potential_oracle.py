"""Reference formulas of the potential field, written straight from the
definitions and evaluated one source at a time.

The simulator evaluates its terms through precomputed tables; tests check
the planner's descent step and the obstacle field against these formulas.
The closed-form mean and divergence condition of the excite/relax
recursion are here too, with the seeded simulation that tests check them
against. So is the proximity-sensor reading, found by scanning the whole
fleet.

reference_run moves a whole fleet with these formulas alone; tests compare
it with planner.run_until_done on random crowds, capped runs included.
"""

import math
from collections import namedtuple
from functools import cache, reduce
from operator import add

from warefleet.errors import ConfigurationError
from warefleet.gridworld import GridWorld, Position
from warefleet.planner import POTENTIAL_CAP
from warefleet.potential import DYNAMIC_SCALE, PotentialParams

GOAL = "goal"
OBSTACLE = "obstacle"
ROBOT = "robot"


def distance(a: Position, b: Position, p: float) -> float:
    """p-norm distance between two cells for p in {1, 2, inf}."""
    dx = abs(a[0] - b[0])
    dy = abs(a[1] - b[1])
    if p == 1:
        return float(dx + dy)
    if p == 2:
        return math.hypot(dx, dy)
    if p == math.inf:
        return float(max(dx, dy))
    raise ConfigurationError(f"unsupported norm order {p!r}; use 1, 2 or math.inf")


def terms_for(params: PotentialParams, source_class: str):
    if source_class == GOAL:
        return params.goal_terms
    if source_class == OBSTACLE:
        return params.obstacle_terms
    if source_class == ROBOT:
        return params.robot_terms
    raise ConfigurationError(f"unknown source class {source_class!r}")


def phi(params: PotentialParams, source_class: str, at: Position, source: Position) -> float:
    """Unrestricted potential contribution of one source at one cell."""
    total = 0.0
    for term in terms_for(params, source_class):
        base = distance(at, source, term.norm_order) + term.offset
        if base == 0.0 and term.exponent < 0:
            raise ConfigurationError(f"{source_class} potential undefined at distance 0 with zero offset")
        total += term.coefficient * base**term.exponent
    return total


def in_consistent_range(params: PotentialParams, at: Position, source: Position) -> bool:
    """Whether the source is sensed from every cell of the step cross at `at`.

    Uses the full geometric cross (the cell plus its four lattice
    neighbors, obstacles included) so membership depends only on the two
    positions; the worst cross cell is one step farther than `at` itself.
    """
    return max(abs(at.x - source.x), abs(at.y - source.y)) + 1 <= params.sensor_radius


def phi_sensed(params: PotentialParams, source_class: str, at: Position, source: Position) -> float:
    """Potential contribution restricted to consistently sensed sources."""
    if not in_consistent_range(params, at, source):
        return 0.0
    return phi(params, source_class, at, source)


@cache
def obstacle_repulsion(world: GridWorld, params: PotentialParams, cell: Position) -> float:
    """Summed repulsion of the obstacles within Chebyshev distance radius - 1
    of a cell, read from the grid bytes of that box clipped to the lattice,
    row by row, by y, then by x, and added left to right; kept per world,
    parameter set and cell, since a reference run asks for each cell every
    tick it is in a robot's neighborhood."""
    reach = params.sensor_radius - 1
    xs = range(max(cell.x - reach, 0), min(cell.x + reach + 1, world.width))
    ys = range(max(cell.y - reach, 0), min(cell.y + reach + 1, world.height))
    sensed = (Position(x, y) for y in ys for x in xs if world.grid[y * world.width + x])
    return reduce(add, (phi(params, OBSTACLE, cell, obstacle) for obstacle in sensed), 0.0)


def static_potential_initial(
    world: GridWorld, params: PotentialParams, cell: Position, goal: Position
) -> float:
    """Initial static potential: goal attraction plus sensed obstacle repulsion."""
    return phi(params, GOAL, cell, goal) + obstacle_repulsion(world, params, cell)


def excite(u_prev: float, gamma: float) -> float:
    """One excitation step: multiply the previous value by gamma."""
    return gamma * u_prev


def relax(u_prev: float, u_init: float, alpha: float) -> float:
    """One relaxation step: pull the previous value toward its initial value."""
    return (1.0 - alpha) * u_prev + alpha * u_init


def update_neighborhood(
    values: dict[Position, float],
    world: GridWorld,
    params: PotentialParams,
    robot_pos: Position,
    goal: Position,
) -> None:
    """Advance the recursion one tick over the robot's neighborhood.

    Cells seen for the first time are initialized from the static field
    (no excitation or relaxation on that visit). Afterwards the occupied
    cell is excited and every other neighborhood cell relaxed toward its
    initial value, computed again from the definition. Cells outside the
    neighborhood are never touched.
    """
    for cell in (robot_pos, *world.adjacency[robot_pos]):
        if cell not in values:
            values[cell] = static_potential_initial(world, params, cell, goal)
        elif cell == robot_pos:
            values[cell] = excite(values[cell], params.gamma)
        else:
            u_init = static_potential_initial(world, params, cell, goal)
            values[cell] = relax(values[cell], u_init, params.alpha)


def dynamic_potential(params: PotentialParams, at: Position, others: list[Position]) -> float:
    """Scaled repulsion from every other robot within consistent sensing."""
    total = 0.0
    for other in others:
        if in_consistent_range(params, at, other):
            total += phi(params, ROBOT, at, other)
    return DYNAMIC_SCALE * total


def sensor_reading(radius: int, me: int, positions: list[Position]) -> list[Position]:
    """The proximity-sensor reading of robot `me`, by brute force: the cells
    of all other robots within Chebyshev distance radius of its own, in
    ascending robot id."""
    x, y = positions[me]
    return [
        cell
        for i, cell in enumerate(positions)
        if i != me and max(abs(cell[0] - x), abs(cell[1] - y)) <= radius
    ]


ReferenceRun = namedtuple("ReferenceRun", "positions outstanding segments potentials tasks")


def reference_run(world, params, starts, task_lists, cap) -> ReferenceRun:
    """Every tick's cells and outstanding count, and each robot's segments
    (start, goal, moves), final potential map and task list: robots in
    ascending id, until no task is left or cap ticks have run. A robot on
    its goal pops the task and forgets its map. Another with a task advances
    its recursion, clamped at POTENTIAL_CAP, and moves to the first cheapest
    free cell, up, right, down, left, then its own, counting the sensed
    robots' repulsion."""
    cells, tasks = list(starts), [list(goals) for goals in task_lists]
    potentials, segments = [{} for _ in cells], [[] for _ in cells]
    legs = [[cell, 0] for cell in cells]  # each robot's leg start and moves
    positions, outstanding = [tuple(cells)], [sum(map(len, tasks))]
    while outstanding[-1] and len(positions) <= cap:
        for me, goals in enumerate(tasks):
            pos = cells[me]
            if goals and pos == goals[0]:
                segments[me].append((legs[me][0], pos, legs[me][1]))
                goals.pop(0)
                potentials[me], legs[me] = {}, [pos, 0]
            elif goals:
                values = potentials[me]
                update_neighborhood(values, world, params, pos, goals[0])
                values[pos] = min(values[pos], POTENTIAL_CAP)
                near = sensor_reading(params.sensor_radius, me, cells)
                choices = [*(c for c in world.adjacency[pos] if c not in near), pos]
                cells[me] = min(choices, key=lambda c: values[c] + dynamic_potential(params, c, near))
                legs[me][1] += cells[me] != pos
        positions.append(tuple(cells))
        outstanding.append(sum(map(len, tasks)))
    return ReferenceRun(positions, outstanding, segments, potentials, tasks)


def check_divergence_condition(p: float, gamma: float, alpha: float) -> bool:
    """Classify the excite/relax recursion for an occupancy frequency p.

    The expected value of the recursion evolves with ratio
    beta = p*gamma + (1-p)*(1-alpha); it diverges exactly when beta > 1,
    equivalently gamma > 1 - alpha + alpha/p. Returns True for divergent.
    """
    if not 0.0 < p < 1.0:
        raise ConfigurationError(f"occupancy frequency must lie in (0, 1), got {p}")
    beta = p * gamma + (1.0 - p) * (1.0 - alpha)
    return beta > 1.0


# An excited value is clamped here, so a divergent path stays finite.
RECURSION_CLAMP = 1e280


def recursion_path(p: float, gamma: float, alpha: float, u_init: float, rng):
    """The excite/relax recursion from u_init, one value per tick, forever.

    Each tick draws rng.random(): below p the value is excited (and clamped
    at RECURSION_CLAMP), otherwise relaxed toward u_init. The two steps are
    written out, as in excite and relax, to keep 10^5-tick paths fast.
    """
    u = u_init
    keep, pull = 1.0 - alpha, alpha * u_init
    while True:
        if rng.random() < p:
            u = min(u * gamma, RECURSION_CLAMP)
        else:
            u = keep * u + pull
        yield u


def expected_potential(steps: int, p: float, gamma: float, alpha: float, u_init: float) -> float:
    """Closed-form mean of the recursion after `steps` random excite/relax ticks."""
    beta = p * gamma + (1.0 - p) * (1.0 - alpha)
    geometric = sum(beta**i for i in range(steps))
    return (beta**steps + (1.0 - p) * alpha * geometric) * u_init
