"""Reference formulas of the potential field, written straight from the
definitions and evaluated one source at a time.

The simulator evaluates its terms through precomputed tables; tests check
the planner's descent step and the obstacle field against these formulas.
The closed-form mean and divergence condition of the excite/relax
recursion are here too: tests check them against seeded simulations. So is
the proximity-sensor reading, found by scanning the whole fleet.
"""

import math

from warefleet.errors import ConfigurationError, DomainError
from warefleet.gridworld import GridWorld, Position
from warefleet.potential import DYNAMIC_SCALE, PotentialParams, PotentialState, SensorModel

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
            raise DomainError(f"{source_class} potential undefined at distance 0 with zero offset")
        total += term.coefficient * base**term.exponent
    return total


def in_consistent_range(sensor: SensorModel, at: Position, source: Position) -> bool:
    """Whether the source is sensed from every cell of the step cross at `at`.

    Uses the full geometric cross (the cell plus its four lattice
    neighbors, obstacles included) so membership depends only on the two
    positions; the worst cross cell is one step farther than `at` itself.
    """
    return max(abs(at.x - source.x), abs(at.y - source.y)) + 1 <= sensor.radius


def phi_sensed(
    params: PotentialParams, source_class: str, at: Position, source: Position, sensor: SensorModel
) -> float:
    """Potential contribution restricted to consistently sensed sources."""
    if not in_consistent_range(sensor, at, source):
        return 0.0
    return phi(params, source_class, at, source)


def obstacle_repulsion(
    world: GridWorld, params: PotentialParams, sensor: SensorModel, cell: Position
) -> float:
    """Summed repulsion of the obstacles within Chebyshev distance radius - 1
    of a cell, taken row by row: by y, then by x."""
    reach = sensor.radius - 1
    sensed = [o for o in world.obstacles if max(abs(o.x - cell.x), abs(o.y - cell.y)) <= reach]
    sensed.sort(key=lambda o: (o.y, o.x))
    return sum(phi(params, OBSTACLE, cell, obstacle) for obstacle in sensed)


def static_potential_initial(
    world: GridWorld, params: PotentialParams, sensor: SensorModel, cell: Position, goal: Position
) -> float:
    """Initial static potential: goal attraction plus sensed obstacle repulsion."""
    return phi(params, GOAL, cell, goal) + obstacle_repulsion(world, params, sensor, cell)


def excite(u_prev: float, gamma: float) -> float:
    """One excitation step: multiply the previous value by gamma."""
    return gamma * u_prev


def relax(u_prev: float, u_init: float, alpha: float) -> float:
    """One relaxation step: pull the previous value toward its initial value."""
    return (1.0 - alpha) * u_prev + alpha * u_init


def update_neighborhood(
    state: PotentialState,
    world: GridWorld,
    params: PotentialParams,
    sensor: SensorModel,
    robot_pos: Position,
    goal: Position,
) -> None:
    """Advance the recursion one tick over the robot's neighborhood.

    Cells seen for the first time are initialized from the static field
    (no excitation or relaxation on that visit). Afterwards the occupied
    cell is excited and every other neighborhood cell relaxed toward its
    initial value. Cells outside the neighborhood are never touched.
    """
    for cell in (robot_pos, *world.adjacency[robot_pos]):
        if cell not in state.values:
            u = static_potential_initial(world, params, sensor, cell, goal)
            state.values[cell] = u
            state.initial[cell] = u
        elif cell == robot_pos:
            state.values[cell] = excite(state.values[cell], params.gamma)
        else:
            state.values[cell] = relax(state.values[cell], state.initial[cell], params.alpha)


def dynamic_potential(
    params: PotentialParams, sensor: SensorModel, at: Position, others: list[Position]
) -> float:
    """Scaled repulsion from every other robot within consistent sensing."""
    total = 0.0
    for other in others:
        if in_consistent_range(sensor, at, other):
            total += phi(params, ROBOT, at, other)
    return DYNAMIC_SCALE * total


def sensor_reading(sensor: SensorModel, me: int, positions: list[Position]) -> list[Position]:
    """The proximity-sensor reading of robot `me`, by brute force: the cells
    of all other robots within Chebyshev distance radius of its own, in
    ascending robot id."""
    x, y = positions[me]
    return [
        cell
        for i, cell in enumerate(positions)
        if i != me and max(abs(cell[0] - x), abs(cell[1] - y)) <= sensor.radius
    ]


def check_divergence_condition(p: float, gamma: float, alpha: float) -> bool:
    """Classify the excite/relax recursion for an occupancy frequency p.

    The expected value of the recursion evolves with ratio
    beta = p*gamma + (1-p)*(1-alpha); it diverges exactly when beta > 1,
    equivalently gamma > 1 - alpha + alpha/p. Returns True for divergent.
    """
    if not 0.0 < p < 1.0:
        raise DomainError(f"occupancy frequency must lie in (0, 1), got {p}")
    beta = p * gamma + (1.0 - p) * (1.0 - alpha)
    return beta > 1.0


def expected_potential(steps: int, p: float, gamma: float, alpha: float, u_init: float) -> float:
    """Closed-form mean of the recursion after `steps` random excite/relax ticks."""
    beta = p * gamma + (1.0 - p) * (1.0 - alpha)
    geometric = sum(beta**i for i in range(steps))
    return (beta**steps + (1.0 - p) * alpha * geometric) * u_init
