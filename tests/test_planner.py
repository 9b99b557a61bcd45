import copy
import hashlib
import math
import random
from unittest import mock

import pytest
from hypothesis import assume, given, settings, strategies as st

from warefleet import planner
from warefleet.engine import Scenario, compute_metrics, run_scenario
from warefleet.errors import ConfigurationError
from warefleet.gridworld import GridWorld, Position, generate_layout_sized
from warefleet.allocator import GAConfig
from warefleet.baseline import shortest_path
from warefleet.planner import (
    CAP_REACHED,
    COMPLETED,
    FleetState,
    RobotState,
    Segment,
    SimTrace,
    _bucket_index,
    _choose,
    format_trace,
    run_until_done,
    sense_nearby,
    step_fleet,
)
from warefleet.potential import (
    PotentialParams,
    PotentialState,
    PotentialTerm,
    SensorModel,
    _obstacle_field,
    term_table,
)

from conftest import TRACE_FAULTS, open_room, random_world, trace_faults, world_from
from potential_oracle import dynamic_potential, sensor_reading, update_neighborhood

PARAMS = PotentialParams()
SENSOR = SensorModel()

# Term sets beyond the benchmark defaults: every norm on the goal and robot
# terms, multi-term sums, and an obstacle term with a zero offset (valid,
# since no obstacle ever shares a cell with a robot).
TERM_SETS = {
    "default": PotentialParams(),
    "goal-p1-squared": PotentialParams(goal_terms=(PotentialTerm(1.0, 1, 2.0),)),
    "goal-p2-squared": PotentialParams(goal_terms=(PotentialTerm(1.0, 2, 2.0),)),
    "robot-p1": PotentialParams(robot_terms=(PotentialTerm(40.0, 1, -1.0, offset=0.5),)),
    "robot-pinf": PotentialParams(robot_terms=(PotentialTerm(40.0, math.inf, -2.0, offset=0.25),)),
    "two-term-sums": PotentialParams(
        goal_terms=(PotentialTerm(1.0, math.inf, 1.0), PotentialTerm(0.5, 1, 1.0)),
        obstacle_terms=(
            PotentialTerm(0.1, 2, -2.0, offset=1e-9),
            PotentialTerm(0.05, 1, -1.0, offset=0.5),
        ),
        robot_terms=(
            PotentialTerm(0.1, 2, -2.0, offset=1e-9),
            PotentialTerm(30.0, math.inf, -1.0, offset=0.5),
        ),
    ),
    "obstacle-offset-0": PotentialParams(obstacle_terms=(PotentialTerm(1.5, 1, -1.0),)),
}

# The term sets at the default sensor radius 3, plus the default terms at
# radius 2 and 4.
TERM_CASES = [*TERM_SETS, "radius-2", "radius-4"]


def case_params(case):
    if case.startswith("radius-"):
        return PotentialParams(), SensorModel(int(case[len("radius-"):]))
    return TERM_SETS[case], SensorModel()


def make_robot(pos, goal):
    return RobotState(pos=pos, tasks=[goal])


def plan_step(robot, world, params, sensor, others):
    """One descent decision of `robot` through step_fleet, with idle robots
    parked on the `others` cells; returns the robot's new cell."""
    idle = [RobotState(pos=cell, tasks=[]) for cell in others]
    step_fleet(FleetState(robots=[robot, *idle]), world, params, sensor)
    return robot.pos


def test_plan_step_moves_toward_goal_in_open_room():
    room = open_room(20, 20)
    robot = make_robot(Position(5, 10), Position(14, 10))
    assert plan_step(robot, room, PARAMS, SENSOR, []) == Position(6, 10)


def test_plan_step_stays_when_surrounded():
    room = open_room(20, 20)
    pos = Position(10, 10)
    robot = make_robot(pos, Position(15, 10))
    blockade = [Position(10, 9), Position(11, 10), Position(10, 11), Position(9, 10)]
    assert plan_step(robot, room, PARAMS, SENSOR, blockade) == pos


def test_own_cell_is_never_skipped_as_occupied():
    # A robot reported on the own cell adds repulsion but never removes the
    # cell from the choice: with up, right and down blocked, staying (4 from
    # the goal) still beats the free cell to the left (5 from the goal).
    params = PotentialParams(robot_terms=(PotentialTerm(0.1, 2, -2.0, offset=1.0),))
    room = open_room(20, 20)
    pos = Position(10, 10)
    robot = make_robot(pos, Position(14, 10))
    blockers = [Position(10, 9), Position(11, 10), Position(10, 11), pos]
    assert plan_step(robot, room, params, SENSOR, blockers) == pos
    robot = make_robot(pos, Position(14, 10))
    assert plan_step(robot, room, params, SENSOR, blockers[:3]) == pos


def test_plan_step_tie_break_prefers_up_then_right():
    # Goal on the diagonal: both the up and right neighbors sit at the same
    # Chebyshev distance, away from any wall the repulsion could split on.
    room = open_room(40, 40)
    robot = make_robot(Position(20, 20), Position(22, 18))
    assert plan_step(robot, room, PARAMS, SENSOR, []) == Position(20, 19)


@pytest.mark.parametrize("case", TERM_CASES)
def test_step_fleet_matches_reference_operations(case):
    # The table-driven descent step must leave the recursion state exactly
    # as the reference operations do, with the obstacle repulsion summed
    # straight from the formula, and pick the same argmin.
    params, sensor = case_params(case)
    room = world_from([
        "###########",
        "#.........#",
        "#..##..#..#",
        "#..#...#..#",
        "#.........#",
        "###########",
    ])
    goal = Position(9, 3)
    others = [Position(5, 3), Position(2, 1)]
    fast = make_robot(Position(2, 3), goal)
    slow = make_robot(Position(2, 3), goal)
    rng = random.Random(0)
    for _ in range(25):
        reference = copy.deepcopy(slow.potential)
        update_neighborhood(reference, room, params, sensor, slow.pos, goal)
        candidates = [*room.adjacency[slow.pos], slow.pos]
        occupied = set(others)
        best, best_value = None, None
        for cell in candidates:
            if cell != slow.pos and cell in occupied:
                continue
            value = reference.values[cell] + dynamic_potential(params, sensor, cell, others)
            if best is None or value < best_value:
                best, best_value = cell, value
        chosen = plan_step(fast, room, params, sensor, others)
        assert chosen == best
        assert fast.potential.values == reference.values
        assert fast.potential.initial == reference.initial
        slow.potential = reference
        slow.pos = chosen
        if chosen == goal:
            break
        # Jiggle the other robots deterministically to vary the dynamics.
        others = [
            Position(
                min(max(o.x + rng.choice((-1, 0, 1)), 1), room.width - 2),
                min(max(o.y + rng.choice((-1, 0, 1)), 1), room.height - 2),
            )
            for o in others
        ]
        others = [o for o in others if o in room.reachable]


def test_plan_step_escapes_pocket_by_excitation():
    # Dead-end pocket: the robot walks in, waits one tick while its own cell
    # is excited past the flank, then leaves the way it came.
    room = world_from([
        "##########",
        "#........#",
        "#.####...#",
        "#......#.#",
        "#.####.#.#",
        "#......#.#",
        "##########",
    ])
    start, goal = Position(2, 3), Position(8, 5)
    robot = make_robot(start, goal)
    fleet = FleetState(robots=[robot])
    trace = run_until_done(fleet, room, PARAMS, SENSOR, 300)
    assert trace.outcome == COMPLETED
    path = [snapshot[0] for snapshot in trace.positions]
    stays = [k for k in range(1, len(path)) if path[k] == path[k - 1] and path[k] != goal]
    # Each entrapment is broken after a single excitation at gamma=15.
    for k in stays:
        assert path[k + 1] != path[k]


def test_corridor_swap_is_impossible():
    room = world_from(["########", "#......#", "########"])
    a = RobotState(pos=Position(1, 1), tasks=[Position(6, 1)])
    b = RobotState(pos=Position(6, 1), tasks=[Position(1, 1)])
    fleet = FleetState(robots=[a, b])
    for _ in range(60):
        before = tuple(r.pos for r in fleet.robots)
        step_fleet(fleet, room, PARAMS, SENSOR)
        after = tuple(r.pos for r in fleet.robots)
        assert after[0] != after[1], "same-cell collision"
        assert not (after[0] == before[1] and after[1] == before[0]), "swap"
        for prev, cur in zip(before, after):
            assert abs(prev.x - cur.x) + abs(prev.y - cur.y) <= 1


def test_idle_robot_blocks_and_repels():
    room = open_room(10, 6)
    worker = RobotState(pos=Position(1, 2), tasks=[Position(8, 2)])
    idler = RobotState(pos=Position(4, 2), tasks=[])
    fleet = FleetState(robots=[worker, idler])
    trace = run_until_done(fleet, room, PARAMS, SENSOR, 200)
    assert trace.outcome == COMPLETED
    assert idler.pos == Position(4, 2)  # never moved
    for snapshot in trace.positions:
        assert snapshot[0] != snapshot[1]


def test_goal_adjacent_arrival_then_pop():
    room = open_room(8, 8)
    robot = make_robot(Position(3, 3), Position(4, 3))
    fleet = FleetState(robots=[robot])
    trace = run_until_done(fleet, room, PARAMS, SENSOR, 50)
    assert trace.outcome == COMPLETED
    assert trace.k_total == 2  # move on tick 1, pop on tick 2
    assert robot.segment_log == [Segment(Position(3, 3), Position(4, 3), 1)]
    assert sum(seg.length for seg in robot.segment_log) == 1


def test_tasks_at_start_pop_one_per_tick():
    room = open_room(8, 8)
    start = Position(4, 4)
    robot = RobotState(pos=start, tasks=[start, start, start])
    fleet = FleetState(robots=[robot])
    trace = run_until_done(fleet, room, PARAMS, SENSOR, 50)
    assert trace.outcome == COMPLETED
    assert trace.k_total == 3
    assert sum(seg.length for seg in robot.segment_log) == 0
    assert [seg.length for seg in robot.segment_log] == [0, 0, 0]


def test_sealed_goal_hits_cap_never_completes():
    room = world_from([
        "#########",
        "#...#...#",
        "#...#...#",
        "#########",
    ])
    robot = make_robot(Position(1, 1), Position(6, 2))
    fleet = FleetState(robots=[robot])
    trace = run_until_done(fleet, room, PARAMS, SENSOR, 400)
    assert trace.outcome == CAP_REACHED
    assert trace.k_total == 400
    assert robot.tasks  # still outstanding



@st.composite
def walled_layouts(draw):
    """A walled lattice with sides 6-16, interior cells walled with
    probability 0.1-0.4, and a start and a goal on its floor."""
    width, height = draw(st.integers(6, 16)), draw(st.integers(6, 16))
    density = draw(st.floats(0.1, 0.4))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    walls = [
        Position(x, y)
        for y in range(height)
        for x in range(width)
        if x in (0, width - 1) or y in (0, height - 1) or rng.random() < density
    ]
    world = GridWorld(width, height, walls)
    floor = sorted(world.reachable)
    assume(floor)
    start, goal = draw(st.sampled_from(floor)), draw(st.sampled_from(floor))
    return world, start, goal


@settings(max_examples=300, deadline=None)
@given(walled_layouts())
def test_single_robot_reaches_every_reachable_goal(layout):
    # The semi-completeness claim: one robot among static obstacles reaches
    # any goal that A* can reach, in finite time, never beating the optimum.
    world, start, goal = layout
    optimum = shortest_path(world, start, goal).length
    assume(optimum is not None)  # the claim says nothing about an unreachable goal
    fleet = FleetState(robots=[make_robot(start, goal)])
    trace = run_until_done(fleet, world, PARAMS, SENSOR, 100 * world.width * world.height)
    assert trace.outcome == COMPLETED
    report = compute_metrics(trace, [optimum], n_tasks=1, seed=0)
    assert not report.cap_reached and report.j1 >= 1.0


def test_head_on_movers_in_dead_end_corridor_stay_capped():
    # Outside the claim: two movers whose goals lie behind each other in a
    # 1-wide corridor closed at both ends can never finish.
    corridor = world_from(["#########", "#.......#", "#########"])
    a = make_robot(Position(1, 1), Position(7, 1))
    b = RobotState(pos=Position(7, 1), tasks=[Position(1, 1)])
    trace = run_until_done(FleetState(robots=[a, b]), corridor, PARAMS, SENSOR, 2000)
    assert trace.outcome == CAP_REACHED and trace.k_total == 2000
    assert trace.outstanding[-1] == 2
    report = compute_metrics(trace, [0, 0], n_tasks=2, seed=0)
    assert report.cap_reached and report.completed_tasks == 0


def _stepped_alongside(robots, world, cap):
    """run_until_done on the robots, and step_fleet on a copy of them with the
    task lists re-summed every tick. The re-sums must equal the trace's
    outstanding counts, and each tick's return value its drop. Returns the
    trace and, per tick, each robot's number of completed legs."""
    fleet = FleetState(robots=robots)
    twin = copy.deepcopy(fleet)
    trace = run_until_done(fleet, world, PARAMS, SENSOR, cap)
    sums = [sum(len(r.tasks) for r in twin.robots)]
    returned, positions, legs = [], [trace.positions[0]], []
    while len(sums) < len(trace.outstanding):
        returned.append(step_fleet(twin, world, PARAMS, SENSOR))
        sums.append(sum(len(r.tasks) for r in twin.robots))
        positions.append(tuple(r.pos for r in twin.robots))
        legs.append([len(r.segment_log) for r in twin.robots])
    assert sums == trace.outstanding
    assert returned == [before - after for before, after in zip(sums, sums[1:])]
    assert positions == trace.positions
    return trace, legs


def test_outstanding_count_matches_a_resum_in_a_crowd():
    world = generate_layout_sized(21, 20)
    n = 40
    cells = random.Random(5).sample(sorted(world.reachable), 3 * n)
    robots = [
        RobotState(pos=cells[i], tasks=[cells[n + 2 * i], cells[n + 2 * i + 1]])
        for i in range(n - 1)
    ]
    # The last robot has three tasks stacked on its start cell.
    stacked = cells[n - 1]
    robots.append(RobotState(pos=stacked, tasks=[stacked, stacked, stacked]))
    trace, legs = _stepped_alongside(robots, world, 600)
    assert trace.outcome == COMPLETED
    drops = [before - after for before, after in zip(trace.outstanding, trace.outstanding[1:])]
    assert max(drops) > 1  # several tasks finish in one tick
    assert [tick[-1] for tick in legs[:4]] == [1, 2, 3, 3]  # one stacked task per tick


def test_outstanding_count_matches_a_resum_when_capped():
    corridor = world_from(["#########", "#.......#", "#########"])
    a = make_robot(Position(1, 1), Position(7, 1))
    b = RobotState(pos=Position(7, 1), tasks=[Position(1, 1)])
    trace, _ = _stepped_alongside([a, b], corridor, 300)
    assert trace.outcome == CAP_REACHED and trace.outstanding[-1] == 2


def test_oversized_sensor_radius_is_clipped_to_the_lattice():
    # Past the lattice's extent a larger radius senses nothing more, and
    # costs nothing more.
    world = generate_layout_sized(14, 12)
    extent = max(world.width, world.height)
    terms = PARAMS.obstacle_terms
    fields = [_obstacle_field(world, radius, terms) for radius in (extent, 3 * extent, 10**6)]
    assert fields[0] == fields[1] == fields[2]
    traces = [
        run_scenario(
            Scenario(world=world, n_robots=4, n_tasks=4, sensor=SensorModel(radius),
                     ga=GOLDEN_LIGHT_GA, seed=2)
        )[0]
        for radius in (extent, 3 * extent, 10**6)
    ]
    assert traces[0].positions == traces[1].positions == traces[2].positions

def test_single_robot_on_small_warehouse_beats_nothing(fig_layout):
    start, goal = Position(1, 1), Position(18, 20)
    robot = make_robot(start, goal)
    fleet = FleetState(robots=[robot])
    trace = run_until_done(fleet, fig_layout, PARAMS, SENSOR, 5000)
    assert trace.outcome == COMPLETED
    optimum = shortest_path(fig_layout, start, goal).length
    assert sum(seg.length for seg in robot.segment_log) >= optimum


def test_trace_safety_and_monotone_tasks(fig_layout):
    sc = Scenario(
        world=fig_layout,
        n_robots=4,
        n_tasks=6,
        ga=GAConfig(population_size=12, max_generations=10),
        seed=5,
    )
    trace, report = run_scenario(sc)
    assert not report.cap_reached
    for k in range(1, len(trace.positions)):
        prev, cur = trace.positions[k - 1], trace.positions[k]
        assert len(set(cur)) == len(cur)
        for a, b in zip(prev, cur):
            assert abs(a.x - b.x) + abs(a.y - b.y) <= 1
    assert all(x >= y for x, y in zip(trace.outstanding, trace.outstanding[1:]))


def test_run_until_done_deterministic(fig_layout):
    def run():
        robots = [
            RobotState(pos=Position(1, 1), tasks=[Position(18, 20)]),
            RobotState(pos=Position(18, 1), tasks=[Position(1, 20)]),
        ]
        fleet = FleetState(robots=robots)
        trace = run_until_done(fleet, fig_layout, PARAMS, SENSOR, 5000)
        return trace.positions

    assert run() == run()


def test_step_cap_validation():
    room = open_room(6, 6)
    fleet = FleetState(robots=[make_robot(Position(1, 1), Position(4, 4))])
    with pytest.raises(ConfigurationError):
        run_until_done(fleet, room, PARAMS, SENSOR, 0)


def test_format_trace_lines():
    trace = SimTrace(
        positions=[(Position(1, 2), Position(3, 4)), (Position(1, 3), Position(3, 4))],
        outstanding=[2, 2],
        segments=[[], []],
        outcome=COMPLETED,
        k_total=1,
    )
    assert format_trace(trace) == "0; 0:1,2; 1:3,4\n1; 0:1,3; 1:3,4\n"



GOLDEN_LIGHT_GA = GAConfig(population_size=16, max_generations=12)

# case -> (sha256 of format_trace, (J1, J2, J3, J4)), recorded from the
# planner before its term evaluation moved into lookup tables. "default"
# is sensor radius 3; the radius cases keep the default terms. The
# fleet-100 cases are N=K=100 on the 81x80 benchmark layout, the crowded
# regime: seed 1, then seeds 2 and 3 (recorded before the tick loop kept
# its outstanding count incrementally).
GOLDEN_TRACES = {
    "fleet-100": (
        "053006b287d672cfb5204d9074c441a720cf2d6982e3fcab81129fbb3da2623a",
        (1.0732741997686077, 0.5566, 2.07, 0.47393364928909953),
    ),
    "fleet-100-seed2": (
        "f4f1bba4ae1af48081974f36fbcabc398d350498870d50bb8801b0b348d198ed",
        (1.0442036836403032, 0.4819, 2.41, 0.4065040650406504),
    ),
    "fleet-100-seed3": (
        "e717ece24e46a0163b9c76f516be96b173d0f014dd18bb3d1b29c902cb6454bb",
        (1.0868845676458418, 0.5254, 2.54, 0.3861003861003861),
    ),
    "default": (
        "e2313cc25c1d490cf7fa8dfaff8d2a810237b05dd01263d67eeba51660d9e5ad",
        (1.0426829268292683, 0.855, 2.4, 0.39215686274509803),
    ),
    "goal-p1-squared": (
        "3f9a46901517e4a547a3bff04e9c17a867226ac7e17111aae91d13e41c3d15b8",
        (1.1524390243902438, 0.945, 2.65, 0.37037037037037035),
    ),
    "goal-p2-squared": (
        "2680cf97b5aecdb48494d5a56e30772adad18b31031a4a2927e500054521a53d",
        (1.024390243902439, 0.84, 2.4, 0.39215686274509803),
    ),
    "robot-p1": (
        "4cfc80367ef2ce63d244974ab9ba523821f9d4ee66372342e616463f262ab0c6",
        (1.0670731707317074, 0.875, 2.5, 0.37735849056603776),
    ),
    "robot-pinf": (
        "65c771d0f062bf796cac4de917bd01f54590b771bfc1ffec1e33d4928d66df6f",
        (1.0548780487804879, 0.865, 2.5, 0.37735849056603776),
    ),
    "two-term-sums": (
        "8f63ce76651f8a679a74951bcb39c288553ccc09ed26a75bce1bcf0cfc173214",
        (1.024390243902439, 0.84, 2.4, 0.39215686274509803),
    ),
    "obstacle-offset-0": (
        "3dd01ae9a4a2e3ec25b7b292b5377602a3e923ff171418940225cb4c9e1b49e1",
        (5.853658536585366, 4.8, 30.55, 0.03257328990228013),
    ),
    "radius-2": (
        "22401e379457e618efd89d12d7bbe0b57604717a7f0ce7057c00bf5353e24603",
        (1.048780487804878, 0.86, 2.4, 0.39215686274509803),
    ),
    "radius-4": (
        "fd4f0169e9108b16739eb4fb5671fdf1bcb3a4281841bc87e70bbbc40267e4ce",
        (1.0426829268292683, 0.855, 2.4, 0.39215686274509803),
    ),
}


def _golden_scenario(case):
    if case.startswith("fleet-100"):
        return Scenario(
            world=generate_layout_sized(81, 80), n_robots=100, n_tasks=100,
            ga=GOLDEN_LIGHT_GA, seed=int(case.partition("-seed")[2] or 1),
        )
    params, sensor = case_params(case)
    return Scenario(
        world=generate_layout_sized(41, 40), n_robots=20, n_tasks=20,
        potential=params, sensor=sensor, ga=GOLDEN_LIGHT_GA, seed=3,
    )


@pytest.mark.parametrize("case", sorted(GOLDEN_TRACES))
def test_trace_golden(case):
    trace, report = run_scenario(_golden_scenario(case))
    digest = hashlib.sha256(format_trace(trace).encode()).hexdigest()
    assert (digest, (report.j1, report.j2, report.j3, report.j4)) == GOLDEN_TRACES[case]


@pytest.mark.parametrize("case", [c for c in sorted(GOLDEN_TRACES) if c.startswith("fleet-100")])
def test_crowded_trace_passes_the_safety_audit(case):
    # Criterion 11's audit on the crowded regime, where a planner change
    # can fail on some scenario seeds only.
    trace, _ = run_scenario(_golden_scenario(case))
    assert trace.outcome == COMPLETED
    assert trace_faults(trace) == dict.fromkeys(TRACE_FAULTS, 0)


@st.composite
def crowds(draw):
    """A conftest.random_world layout, a sensor radius and a crowd on its
    floor. Part of the crowd stands on the borders of the sensor's buckets,
    and each robot is idle, on its goal, or bound for another cell. A box
    within radius of the lattice's left or top edge starts in bucket -1,
    and at radius 10**6 every box does."""
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    world = random_world(rng)
    floor = list(world.floor)
    assume(floor)
    radius = draw(st.sampled_from([2, 3, 4, 7, max(world.width, world.height), 10**6]))
    side = 2 * radius + 1
    border = [c for c in floor if c.x % side in (0, side - 1) or c.y % side in (0, side - 1)]
    n = draw(st.integers(1, min(len(floor), 30)))
    cells = rng.sample(border, draw(st.integers(0, min(n, len(border)))))
    cells += rng.sample([c for c in floor if c not in cells], n - len(cells))
    rng.shuffle(cells)
    robots = [
        RobotState(pos=cell, tasks=[[], [cell], [rng.choice(floor)]][rng.randrange(3)])
        for cell in cells
    ]
    return world, SensorModel(radius), robots


def _reference_tick(fleet, world, params, sensor):
    """step_fleet's tick, with every sensor reading taken by scanning the
    whole fleet at its current cells."""
    repulsion = _obstacle_field(world, sensor.radius, params.obstacle_terms)
    goal_table = term_table(params.goal_terms, world.width, world.height)
    size = min(sensor.radius, max(world.width, world.height))
    robot_table = term_table(params.robot_terms, size, size)
    for me, robot in enumerate(fleet.robots):
        if not robot.tasks:
            continue
        if robot.pos == robot.tasks[0]:
            robot.tasks.pop(0)
            robot.potential = PotentialState()
            continue
        near = sensor_reading(sensor, me, [r.pos for r in fleet.robots])
        state = robot.potential
        robot.pos = _choose(
            state.values, state.initial, repulsion, goal_table, robot_table,
            world.adjacency[robot.pos], robot.pos, robot.tasks[0], near, params.alpha, params.gamma,
        )


def _fleet_state(fleet):
    return [(r.pos, r.tasks, r.potential.values, r.potential.initial) for r in fleet.robots]


@settings(max_examples=200, deadline=None)
@given(crowds())
def test_bucketed_sensor_reading_matches_a_scan_of_the_fleet(crowd):
    # The reading through the bucket index must equal the brute-force one
    # element by element, in ascending id: for every robot at the start of a
    # tick, and for every mover within the tick, after the movers before it
    # were refiled. So must the ticks it drives.
    world, sensor, robots = crowd
    bucketed = FleetState(robots=robots)
    reference = copy.deepcopy(bucketed)
    for _ in range(3):
        positions = [r.pos for r in bucketed.robots]
        buckets = _bucket_index(bucketed.robots, 2 * sensor.radius + 1)
        for me, pos in enumerate(positions):
            assert sense_nearby(sensor, pos, me, bucketed.robots, buckets) == sensor_reading(
                sensor, me, positions
            )
        with mock.patch.object(planner, "sense_nearby", _checked_sense_nearby):
            step_fleet(bucketed, world, PARAMS, sensor)
        _reference_tick(reference, world, PARAMS, sensor)
        assert _fleet_state(bucketed) == _fleet_state(reference)


def _checked_sense_nearby(sensor, pos, me, robots, buckets):
    near = sense_nearby(sensor, pos, me, robots, buckets)
    assert near == sensor_reading(sensor, me, [r.pos for r in robots])
    return near


def test_a_mover_that_crosses_a_bucket_border_is_sensed_in_the_same_tick():
    # Robot 0 steps right from the last column of one bucket into the next.
    # Robot 1, radius cells further right, reads only the buckets from the
    # new one on, so it senses robot 0 only if the move refiled it.
    sensor = SensorModel()
    side = 2 * sensor.radius + 1
    crossing = Position(side, 2)
    fleet = FleetState(robots=[
        make_robot(Position(side - 1, 2), Position(side + 4, 2)),
        make_robot(Position(side + sensor.radius, 2), Position(side + sensor.radius, 8)),
    ])
    readings = []

    def record(sensor, pos, me, robots, buckets):
        near = sense_nearby(sensor, pos, me, robots, buckets)
        readings.append((me, near))
        return near

    with mock.patch.object(planner, "sense_nearby", record):
        step_fleet(fleet, open_room(2 * side + 2, 12), PARAMS, sensor)
    assert fleet.robots[0].pos == crossing
    assert readings == [(0, []), (1, [crossing])]


def test_no_sensor_state_survives_from_one_run_to_the_next():
    # A crowded run, a small run with another radius on another world, then
    # the crowded run again: both crowded traces are the golden one.
    crowded, _ = run_scenario(_golden_scenario("fleet-100-seed2"))
    run_scenario(
        Scenario(world=generate_layout_sized(21, 20), n_robots=20, n_tasks=20,
                 sensor=SensorModel(2), ga=GOLDEN_LIGHT_GA, seed=1)
    )
    again, _ = run_scenario(_golden_scenario("fleet-100-seed2"))
    assert again.positions == crowded.positions
    digest = hashlib.sha256(format_trace(again).encode()).hexdigest()
    assert digest == GOLDEN_TRACES["fleet-100-seed2"][0]


def _crowd_on(world, n, seed):
    cells = random.Random(seed).sample(world.floor, 2 * n)
    return FleetState(robots=[make_robot(cells[i], cells[n + i]) for i in range(n)])


def test_interleaved_fleets_step_as_they_run_alone():
    # Two fleets on different worlds and radii, stepped tick by tick in
    # turn, each follow the trace of their own run.
    cases = [
        (generate_layout_sized(21, 20), SensorModel(2), _crowd_on(generate_layout_sized(21, 20), 20, 1)),
        (generate_layout_sized(41, 40), SensorModel(), _crowd_on(generate_layout_sized(41, 40), 30, 2)),
    ]
    alone = [run_until_done(copy.deepcopy(fleet), world, PARAMS, sensor, 2000) for world, sensor, fleet in cases]
    stepped = [[tuple(r.pos for r in fleet.robots)] for _, _, fleet in cases]
    while any(len(steps) < len(trace.positions) for steps, trace in zip(stepped, alone)):
        for (world, sensor, fleet), steps, trace in zip(cases, stepped, alone):
            if len(steps) < len(trace.positions):
                step_fleet(fleet, world, PARAMS, sensor)
                steps.append(tuple(r.pos for r in fleet.robots))
    assert [trace.outcome for trace in alone] == [COMPLETED, COMPLETED]
    assert stepped == [trace.positions for trace in alone]
