"""Fleet simulation and the per-robot descent rule.

run_until_done is the one entry point that moves robots. Each tick, every
robot with outstanding tasks either pops a completed task (when it stands
on its goal) or advances its potential recursion and moves to the
cheapest cell of its neighborhood. Robots are processed in
ascending id within a tick; a mover sees every other robot at its current
cell, which rules out swap conflicts, and cells currently occupied by
other robots are treated as impassable for this tick (a robot parked on a
cell makes it arbitrarily expensive, so the argmin can never select it).

Ties in the descent are broken deterministically: smallest value first,
then any cell other than the current one, then up, right, down, left.

A mover senses the other robots through a bucket index rather than by
scanning the fleet: robot ids are filed under the (x // side, y // side)
bucket of their cell, with side = 2 * PotentialParams.sensor_radius + 1,
so a sensing box lies within 2x2 buckets and a tick costs time linear in
the fleet size. The index is filed once per run_until_done call and
refiled with every move that crosses a bucket border. The reading lists
the sensed cells in ascending robot id, the order in which the descent
step adds their repulsion.

A trace stores one lattice index (y * width + x) per robot and tick, two
bytes each on a lattice of at most 65,536 cells and four on a larger one,
in one array that the tick loop extends once per tick. SimTrace.positions
reads it as the per-tick tuples of the world's own Position objects; it
holds the world, and pickles it by value with the array.

Timing note: reported planning compute covers the recursion update and
the candidate choice. A candidate's initial static value, first visit or
revisit, is read from the goal table and the obstacle field inside the
timed window. Producing the planner's inputs is not counted, the same way
the search baseline is not billed for the map it searches: the
proximity-sensor reading (which robots sit within the sensing box, read
from the bucket index), the one-off obstacle-repulsion field of the world,
and the goal and robot term tables (a few milliseconds, built once per
process, world size and term set) are prepared outside the timed window.
"""

from __future__ import annotations

import math
import time
from array import array
from collections.abc import Sequence
from dataclasses import dataclass, field
from operator import eq, index
from typing import NamedTuple

from .errors import ConfigurationError, require_integers, require_iterables
from .gridworld import GridWorld, Position
from .potential import DYNAMIC_SCALE, PotentialParams, _obstacle_field, term_table

COMPLETED = "completed"
CAP_REACHED = "cap_reached"

# The ceiling of an excited value. A robot that can never leave its cell,
# such as one of two movers head-on in a dead-end corridor, would otherwise
# excite its value to inf, which no relaxation brings back. Completing runs
# peak far below it, at about 1e5 with N=K=100 on the 81x80 world.
POTENTIAL_CAP = 1e300


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
    potential: dict[Position, float] = field(init=False, default_factory=dict)
    segment_log: list[Segment] = field(init=False, default_factory=list)
    leg_start: Position = field(init=False)
    leg_moves: int = field(init=False, default=0)

    def __post_init__(self):
        self.leg_start = self.pos


class TracePositions(Sequence):
    """Every robot's cell at every tick, stored as lattice indices.

    A read-only sequence of ticks: item k is the tuple of the robots' cells
    at tick k, the world's own Position objects (GridWorld.cells), and the
    view equals the list of those tuples. indices holds the robots' lattice
    indices tick after tick, `robots` per tick; the tick count is kept on
    its own, because an empty fleet stores no index at any tick. The view
    holds its world, so a pickle or deep copy carries the world by value
    and the index array, not the decoded cells.
    """

    __slots__ = ("_world", "_robots", "_ticks", "_indices")

    def __init__(self, world: GridWorld, robots: int, ticks: int, indices: array):
        self._world = world
        self._robots = robots
        self._ticks = ticks
        self._indices = indices

    def __len__(self) -> int:
        return self._ticks

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(self._ticks))]
        ticks = self._ticks
        k = index(k)
        if not -ticks <= k < ticks:
            raise IndexError(f"tick {k} out of range for {ticks} ticks")
        start = k % ticks * self._robots
        return tuple(map(self._world.cells.__getitem__, self._indices[start : start + self._robots]))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, (TracePositions, list)):
            return NotImplemented
        # Defining __eq__ leaves the view unhashable, as a list is.
        return len(self) == len(other) and all(map(eq, self, other))

    def __repr__(self):
        return f"TracePositions({self._ticks} ticks of {self._robots} robots)"


@dataclass
class SimTrace:
    """Tick-by-tick record of one run.

    positions[k] holds every robot's cell at tick k (index 0 is the initial
    state), as run_until_done's TracePositions or any list of tuples;
    outstanding[k] the number of unfinished tasks at that tick.
    """

    positions: Sequence[tuple[Position, ...]]
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
    radius: int,
    pos: Position,
    me: int,
    robots: list[RobotState],
    buckets: dict[tuple[int, int], list[int]],
) -> list[Position]:
    """The proximity-sensor reading of robot me at pos: the cells of the
    other robots within its sensing box of the given Chebyshev radius, in
    ascending robot id.

    buckets files each robot id under (x // side, y // side) of its cell,
    with side = 2 * radius + 1. The box is side cells wide, so it lies
    within the 2x2 buckets whose top-left one holds its top-left corner, and
    only the robots filed there are read. The ids are sorted because _choose
    adds the robots' repulsion in this order, and another order can flip a
    float tie.
    """
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

    The single implementation of the descent step. A cell's initial value
    is its goal attraction plus obstacle repulsion, read from goal_table
    and repulsion. A cell seen for the first time starts at it; afterwards
    the robot's own cell is excited, up to POTENTIAL_CAP, and each adjacent
    cell relaxed toward it, read again from the same tables. Repulsion from
    the sensed robots within consistent range (the extent of robot_table)
    is added for the choice only, and a cell another robot stands on is
    never chosen. Adjacent cells come first in up/right/down/left order and
    the own cell last, so ties resolve to the smallest value, preferring to
    leave over staying.
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
        if cell is pos and old is not None:  # the own cell: the last candidate, never adjacent
            value = gamma * old
            value = values[cell] = value if value < POTENTIAL_CAP else POTENTIAL_CAP
        else:
            u0 = goal_table[cx - gx if cx >= gx else gx - cx][cy - gy if cy >= gy else gy - cy]
            u0 += repulsion[cell]
            value = values[cell] = u0 if old is None else keep * old + alpha * u0
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


def run_until_done(
    robots: list[RobotState],
    world: GridWorld,
    params: PotentialParams,
    step_cap: int,
) -> SimTrace:
    """The one entry point that moves robots: tick after tick, robots in
    ascending id, until every task list is empty or step_cap ticks have
    run; k_total counts the ticks of this call. Every start, leg start and
    task cell is resolved to the world's own Position (GridWorld.cell)
    before any robot moves; robots may share a cell.

    A robot standing on its goal pops the task and starts a fresh potential
    recursion for the next one (no move that tick). Idle robots never move
    but still repel others. The sensor's bucket index (see sense_nearby) is
    filed once per call, refiled with each move across a bucket border and
    dropped on return.

    The planner cannot certify that a goal is unreachable, so the cap is
    the only defense against impossible tasks; a capped run is reported as
    such and never as completed.
    """
    require_integers(step_cap=step_cap)
    if step_cap < 1:
        raise ConfigurationError("step cap must be at least 1")
    for me, robot in enumerate(robots):
        robot.pos = world.cell(robot.pos, f"robot {me} start")
        robot.leg_start = world.cell(robot.leg_start, f"robot {me} leg start")
        require_iterables(**{f"robot {me} tasks": robot.tasks})
        robot.tasks = [world.cell(xy, f"robot {me} task") for xy in robot.tasks]
    radius = params.sensor_radius
    repulsion = _obstacle_field(world, radius, params.obstacle_terms)
    goal_table = term_table(params.goal_terms, world.width, world.height)
    # No two lattice cells lie its extent apart on an axis: a larger table is never read.
    size = min(radius, max(world.width, world.height))
    robot_table = term_table(params.robot_terms, size, size)
    alpha = params.alpha
    gamma = params.gamma
    adjacency = world.adjacency
    perf_counter = time.perf_counter
    side = 2 * radius + 1
    buckets = _bucket_index(robots, side)
    plan_seconds = 0.0
    tick = 0
    left = sum(len(r.tasks) for r in robots)
    width = world.width
    # Each robot's lattice index, kept up to date by every move; the trace
    # appends the list once per tick.
    where = [y * width + x for x, y in (r.pos for r in robots)]
    indices = array("H" if width * world.height <= 1 << 16 else "I", where)
    outstanding = [left]

    while left and tick < step_cap:
        for me, robot in enumerate(robots):
            if not robot.tasks:
                continue
            goal = robot.tasks[0]
            pos = robot.pos
            if pos == goal:
                robot.segment_log.append(Segment(robot.leg_start, pos, robot.leg_moves))
                robot.tasks.pop(0)
                robot.potential = {}
                robot.leg_start = pos
                robot.leg_moves = 0
                left -= 1
                continue
            near = sense_nearby(radius, pos, me, robots, buckets)
            t0 = perf_counter()
            target = _choose(
                robot.potential,
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
            plan_seconds += perf_counter() - t0
            if target != pos:
                robot.pos = target
                robot.leg_moves += 1
                where[me] = target[1] * width + target[0]
                old = (pos[0] // side, pos[1] // side)
                new = (target[0] // side, target[1] // side)
                if new != old:
                    buckets[old].remove(me)
                    buckets.setdefault(new, []).append(me)
        tick += 1
        outstanding.append(left)
        indices.fromlist(where)
    return SimTrace(
        positions=TracePositions(world, len(robots), tick + 1, indices),
        outstanding=outstanding,
        segments=[list(r.segment_log) for r in robots],
        outcome=CAP_REACHED if left else COMPLETED,
        k_total=tick,
        plan_seconds=plan_seconds,
    )


def format_trace(trace: SimTrace) -> str:
    """Line-per-tick text form: 'tick; robot_id:x,y; ...'."""
    lines = []
    for tick, snapshot in enumerate(trace.positions):
        cells = "; ".join(f"{i}:{p.x},{p.y}" for i, p in enumerate(snapshot))
        lines.append(f"{tick}; {cells}")
    return "\n".join(lines) + "\n"
