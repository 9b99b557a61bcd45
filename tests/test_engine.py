import concurrent.futures
import csv
import dataclasses
import io
import math
import os
import re
import statistics
from functools import reduce
from operator import add, is_
from pathlib import Path

import pytest

from warefleet import engine
from warefleet.allocator import GAConfig, HeuristicStore
from warefleet.engine import (
    RUN_COLUMNS,
    TIME_COLUMNS,
    Scenario,
    compute_metrics,
    default_step_cap,
    report_json,
    run_scenario,
    run_sweep,
    written,
)
from warefleet.errors import ConfigurationError
from warefleet.gridworld import Position, generate_layout_sized
from warefleet.planner import CAP_REACHED, COMPLETED, Segment, SimTrace, format_trace

from conftest import Integral, open_room, run_python, world_from

LIGHT_GA = GAConfig(population_size=12, max_generations=10)


def make_trace(segments, k_total, outcome=COMPLETED, n_robots=None):
    n = n_robots if n_robots is not None else len(segments)
    return SimTrace(
        positions=[tuple(Position(0, i) for i in range(n))],
        outstanding=[0],
        segments=segments,
        outcome=outcome,
        k_total=k_total,
    )


def seg(length):
    return Segment(Position(0, 0), Position(length, 0), length)


def test_compute_metrics_worked_example():
    # Five completed tasks, robot distances 10 and 20, optima equal.
    trace = make_trace([[seg(10)], [seg(5), seg(5), seg(4), seg(6)]], k_total=25)
    report = compute_metrics(trace, [10, 20], n_tasks=5, seed=0)
    assert report.j1 == 1.0
    assert report.j2 == 3.0
    assert report.j3 == 4.0
    assert report.j4 == pytest.approx(0.2)
    assert report.per_robot == [(10, 10), (20, 20)]


def test_compute_metrics_single_robot():
    trace = make_trace([[seg(7)]], k_total=9)
    report = compute_metrics(trace, [7], n_tasks=1, seed=0)
    assert report.j1 == 1.0
    assert report.completed_tasks == 1


def test_compute_metrics_degenerate_zero_distance():
    trace = make_trace([[Segment(Position(2, 2), Position(2, 2), 0)]], k_total=1)
    report = compute_metrics(trace, [0], n_tasks=1, seed=0)
    assert report.j1 == 1.0
    assert report.j2 == 0.0
    assert report.j3 == 0.0


def test_compute_metrics_flags_cap():
    trace = make_trace([[seg(4)], []], k_total=100, outcome=CAP_REACHED)
    report = compute_metrics(trace, [4, 0], n_tasks=3, seed=0)
    assert report.cap_reached
    assert report.completed_tasks == 1
    assert report.j4 == pytest.approx(0.01)


def test_compute_metrics_no_completed_leg_leaves_j1_undefined():
    trace = make_trace([[], []], k_total=200, outcome=CAP_REACHED)
    report = compute_metrics(trace, [0, 0], n_tasks=2, seed=0)
    assert math.isnan(report.j1)
    assert report.completed_tasks == 0 and report.j2 == 0.0
    text = io.StringIO()
    csv.writer(text).writerow([written(report, RUN_COLUMNS["J1"])])
    assert text.getvalue() == "nan\r\n"
    assert written(report, "j1", csv=False) is None


def test_compute_metrics_of_a_trace_with_no_tick():
    # No tick and no completed leg: the throughput is zero, not a division
    # by zero, and J1 is undefined.
    report = compute_metrics(make_trace([[]], k_total=0), [0], n_tasks=1, seed=0)
    assert report.j4 == 0.0 and math.isnan(report.j1)


def test_metrics_row_column_order():
    trace = make_trace([[seg(10)]], k_total=10)
    report = compute_metrics(trace, [10], n_tasks=1, seed=7)
    row = [written(report, attr) for attr in RUN_COLUMNS.values()]
    assert len(row) == len(RUN_COLUMNS)
    assert row[0] == 1 and row[1] == 1 and row[2] == 7
    assert float(row[3]) == report.j1  # repr round-trips


def test_scenario_rejects_a_placement_list_that_is_not_iterable():
    # Used to end in "TypeError: 'int' object is not iterable".
    world = generate_layout_sized(21, 12)
    for name, label in ("robot_starts", "robot starts"), ("task_positions", "task positions"):
        with pytest.raises(ConfigurationError, match=f"^{label} must be iterable, got 5$"):
            Scenario(world=world, n_robots=1, n_tasks=1, **{name: 5})


def test_scenario_validation():
    room = open_room(8, 8)
    with pytest.raises(ConfigurationError):
        Scenario(world=room, n_robots=0, n_tasks=1)
    with pytest.raises(ConfigurationError):
        Scenario(world=room, n_robots=1, n_tasks=1, robot_starts=(Position(0, 0),))
    with pytest.raises(ConfigurationError):
        Scenario(
            world=room,
            n_robots=2,
            n_tasks=1,
            robot_starts=(Position(1, 1), Position(1, 1)),
        )
    with pytest.raises(ConfigurationError):
        Scenario(world=room, n_robots=1, n_tasks=2, task_positions=(Position(1, 1),))
    # A given cell is any pair of integers on the floor, kept as the world's
    # own Position; (24, 1) would wrap onto the floor cell (3, 2) of the
    # 21-wide world if only y * width + x were checked, and (1, 12) and
    # (21, 11) would index past the grid if a bound let in height or width.
    world = generate_layout_sized(21, 12)
    for cell in (1.0, 1), [1, 1.5], (1, 1, 1), (24, 1), (1, 12), (21, 11), "ab", 7:
        for name, label in ("robot_starts", "robot start"), ("task_positions", "task position"):
            message = f"^{re.escape(f'{label} {cell!r}')} is not a reachable cell$"
            with pytest.raises(ConfigurationError, match=message):
                Scenario(world=world, n_robots=1, n_tasks=1, **{name: (cell,)})
    sc = Scenario(
        world=world, n_robots=3, n_tasks=1,
        robot_starts=([1, 1], (True, 2), (Integral(2), Integral(1))), task_positions=[(3, 2)],
    )
    given = sc.robot_starts + sc.task_positions  # both are tuples
    assert len(given) == 4 and all(map(is_, given, (world.cells[i] for i in (22, 43, 23, 45))))
    with pytest.raises(ConfigurationError, match="^robot starts must be pairwise distinct$"):
        Scenario(world=world, n_robots=2, n_tasks=1, robot_starts=([1, 1], (True, 1)))
    with pytest.raises(ConfigurationError):  # before the run starts
        Scenario(world=room, n_robots=1, n_tasks=1, eta=0.0)
    with pytest.raises(ConfigurationError, match="step cap"):  # 0 is the default cap
        Scenario(world=room, n_robots=1, n_tasks=1, step_cap=-1)
    # A float count from the Python API used to end in a TypeError inside the
    # run, and a float step cap to run one tick more than it says.
    for bad in (10.5, math.nan, 3.0):
        for name in ("n_robots", "n_tasks", "step_cap"):
            counts = {"n_robots": 1, "n_tasks": 1, name: bad}
            label = name.replace("_", " ")
            with pytest.raises(ConfigurationError, match=f"{label} must be an integer, got "):
                Scenario(world=room, **counts)


def test_run_scenario_single_robot_open_room_is_optimal():
    room = open_room(24, 24)
    for s in range(4):
        sc = Scenario(world=room, n_robots=1, n_tasks=1, ga=LIGHT_GA, seed=s)
        trace, report = run_scenario(sc)
        assert trace.outcome == COMPLETED
        assert report.j1 == 1.0


def test_run_scenario_task_at_start_is_free():
    room = open_room(10, 10)
    start = Position(5, 5)
    sc = Scenario(
        world=room,
        n_robots=1,
        n_tasks=1,
        robot_starts=(start,),
        task_positions=(start,),
        ga=LIGHT_GA,
        seed=0,
    )
    trace, report = run_scenario(sc)
    assert report.k_total == 1  # a single pop, no travel
    assert report.j2 == 0.0 and report.j3 == 0.0
    assert report.j1 == 1.0


def test_run_scenario_deterministic_apart_from_timing():
    world = generate_layout_sized(16, 16)
    sc = Scenario(world=world, n_robots=3, n_tasks=4, ga=LIGHT_GA, seed=11)
    trace_a, rep_a = run_scenario(sc)
    trace_b, rep_b = run_scenario(sc)
    assert trace_a.positions == trace_b.positions
    assert trace_a.segments == trace_b.segments
    skip = {"planner_seconds", "astar_seconds"}
    for field in dataclasses.fields(rep_a):
        if field.name in skip:
            continue
        assert getattr(rep_a, field.name) == getattr(rep_b, field.name), field.name


def test_tuple_placed_run_matches_position_placed_run():
    # Starts and tasks given as plain (x, y) pairs, or as lists of [x, y]
    # lists, run as their Positions do.
    world = generate_layout_sized(16, 16)
    starts = (Position(1, 1), Position(14, 1), Position(1, 14))
    tasks = (Position(7, 7), Position(14, 14), Position(2, 9), Position(13, 3))
    runs = []
    for cells in (
        (starts, tasks),
        (tuple(map(tuple, starts)), tuple(map(tuple, tasks))),
        (list(map(list, starts)), list(map(list, tasks))),
    ):
        sc = Scenario(
            world=world, n_robots=3, n_tasks=4, robot_starts=cells[0], task_positions=cells[1],
            ga=LIGHT_GA, seed=5,
        )
        trace, report = run_scenario(sc)
        runs.append((format_trace(trace), {**report_json(report), **dict.fromkeys(TIME_COLUMNS)}))
    assert runs[0] == runs[1] == runs[2]
    assert runs[0][1]["completed_tasks"] == 4


def test_run_scenario_seed_changes_placements():
    world = generate_layout_sized(16, 16)
    a = run_scenario(Scenario(world=world, n_robots=2, n_tasks=2, ga=LIGHT_GA, seed=1))[0]
    b = run_scenario(Scenario(world=world, n_robots=2, n_tasks=2, ga=LIGHT_GA, seed=2))[0]
    assert a.positions[0] != b.positions[0]


def test_run_scenario_metrics_match_trace_recount():
    world = generate_layout_sized(16, 16)
    for s in range(3):
        sc = Scenario(world=world, n_robots=3, n_tasks=5, ga=LIGHT_GA, seed=100 + s)
        trace, report = run_scenario(sc)
        assert trace.outcome == COMPLETED
        # Oracle: recount per-robot distance from raw positions.
        n = sc.n_robots
        moved = [0] * n
        for k in range(1, len(trace.positions)):
            for i in range(n):
                if trace.positions[k][i] != trace.positions[k - 1][i]:
                    moved[i] += 1
        realized = [d for d, _ in report.per_robot]
        assert moved == realized
        assert report.j1 == sum(realized) / sum(o for _, o in report.per_robot)
        assert report.j2 == sum(realized) / (sc.n_tasks * n)
        assert report.j3 == max(realized) / sc.n_tasks
        assert report.j4 == sc.n_tasks / report.k_total


def test_run_scenario_realized_never_beats_optimal():
    world = generate_layout_sized(16, 16)
    for s in range(5):
        sc = Scenario(world=world, n_robots=2, n_tasks=4, ga=LIGHT_GA, seed=200 + s)
        _, report = run_scenario(sc)
        for realized, optimal in report.per_robot:
            assert realized >= optimal
        assert report.j1 >= 1.0


def _allocation_cost(totals, n_tasks):
    """The GA's cost of per-robot distance totals: their sum over N*K plus
    the largest over K, added left to right as the fitness adds them."""
    return reduce(add, totals, 0.0) / (len(totals) * n_tasks) + max(totals) / n_tasks


@pytest.mark.parametrize("n_robots,n_tasks", [(5, 10), (20, 40), (100, 100), (1, 3), (8, 3)])
def test_ga_fitness_is_the_estimated_cost_of_the_run_legs(n_robots, n_tasks):
    # On a cold store every estimate is a 1-norm, so the best fitness is the
    # reciprocal of the cost of the legs the robots completed; each 1-norm is
    # a lower bound of its leg's A* length, so that cost never exceeds the
    # cost of the optima. With three tasks for eight robots, some stay idle.
    world = generate_layout_sized(41, 40)
    for seed in (1, 2, 3):
        sc = Scenario(world=world, n_robots=n_robots, n_tasks=n_tasks, ga=LIGHT_GA, seed=seed)
        trace, report = run_scenario(sc)
        assert trace.outcome == COMPLETED
        estimated = [
            reduce(add, (float(abs(a.x - b.x) + abs(a.y - b.y)) for a, b, _ in legs), 0.0)
            for legs in trace.segments
        ]
        cost = _allocation_cost(estimated, n_tasks)
        assert report.ga_history[-1] == 1.0 / cost
        assert cost <= _allocation_cost([float(optimal) for _, optimal in report.per_robot], n_tasks)


def test_run_scenario_cap_flag_on_sealed_task():
    room = world_from([
        "#########",
        "#...#...#",
        "#...#...#",
        "#########",
    ])
    sc = Scenario(
        world=room,
        n_robots=1,
        n_tasks=1,
        robot_starts=(Position(1, 1),),
        task_positions=(Position(6, 1),),
        ga=LIGHT_GA,
        step_cap=100,
        seed=0,
    )
    trace, report = run_scenario(sc)
    assert trace.outcome == CAP_REACHED
    assert report.cap_reached
    assert report.completed_tasks == 0


def test_run_scenario_feeds_learning():
    # The task is 2 cells from the start by the 1-norm, but the wall makes
    # the leg 10 moves long; the store moves halfway toward that.
    world = world_from([
        "#######",
        "#.....#",
        "#####.#",
        "#.....#",
        "#######",
    ])
    start, goal = Position(1, 1), Position(1, 3)
    store = HeuristicStore(eta=0.5)
    sc = Scenario(
        world=world, n_robots=1, n_tasks=1, robot_starts=(start,), task_positions=(goal,),
        ga=LIGHT_GA, seed=0,
    )
    trace, _ = run_scenario(sc, heuristics=store)
    assert trace.segments == [[Segment(start, goal, 10)]]
    assert store.estimate(start, goal) == 6.0


def test_random_tasks_avoid_explicit_starts():
    import random

    from warefleet.engine import _resolve_placements

    room = open_room(6, 6)  # 16 free cells
    starts = tuple(sorted(room.reachable)[:8])
    sc = Scenario(world=room, n_robots=8, n_tasks=8, robot_starts=starts, ga=LIGHT_GA, seed=2)
    for seed in range(20):
        got_starts, got_tasks = _resolve_placements(sc, random.Random(seed))
        assert got_starts == list(starts)
        assert not set(got_tasks) & set(starts)
        assert len(set(got_tasks)) == 8
    # Asking for more cells than exist is rejected when the scenario is made.
    with pytest.raises(ConfigurationError, match="^layout has only 8 free cells for 9 random"):
        Scenario(world=room, n_robots=8, n_tasks=9, robot_starts=starts, ga=LIGHT_GA)


def test_default_step_cap_formula():
    world = generate_layout_sized(16, 16)
    assert default_step_cap(world, 4, 10) == 50 * (world.width + world.height) * 3
    assert default_step_cap(world, 4, 4) == 50 * (world.width + world.height)


def test_run_sweep_shapes_and_order():
    world = generate_layout_sized(16, 16)
    base = Scenario(world=world, n_robots=1, n_tasks=1, ga=LIGHT_GA, seed=40)
    reports, cells = run_sweep(base, [1, 2], [2, 3], seeds_per_cell=2)
    assert len(reports) == 8
    assert [(r.n_robots, r.n_tasks, r.seed) for r in reports] == [
        (n, k, 40 + s) for n in (1, 2) for k in (2, 3) for s in (0, 1)
    ]
    assert len(cells) == 4
    for cell in cells:
        assert cell.runs == 2
        assert cell.mean_j1 >= 1.0


def test_sweep_summary_aggregates_completed_runs_only():
    # Two rooms split by a wall: a run with a task in the other room caps.
    rooms = world_from(["#########", "#...#...#", "#...#...#", "#########"])
    base = Scenario(world=rooms, n_robots=1, n_tasks=1, ga=LIGHT_GA, step_cap=50, seed=1)
    reports, cells = run_sweep(base, [1, 2], [1, 2], seeds_per_cell=3)
    by_cell = {(c.n_robots, c.n_tasks): c for c in cells}
    one = by_cell[1, 1]  # one of three runs completes; the capped two read J2 0.0
    assert (one.runs, one.completed_runs) == (3, 1)
    assert (one.mean_j1, one.mean_j2, one.mean_j3, one.mean_j4) == (1.0, 1.0, 1.0, 0.5)
    assert (one.std_j1, one.std_j2, one.std_j3, one.std_j4) == (0.0, 0.0, 0.0, 0.0)
    assert one.mean_k_total == 34.0  # over every run
    none = by_cell[1, 2]  # every run caps
    assert (none.runs, none.completed_runs, none.mean_k_total) == (3, 0, 50.0)
    for j in ("j1", "j2", "j3", "j4"):
        assert math.isnan(getattr(none, f"mean_{j}")) and math.isnan(getattr(none, f"std_{j}"))
    for cell in cells:
        done = [
            r for r in reports
            if (r.n_robots, r.n_tasks) == (cell.n_robots, cell.n_tasks) and not r.cap_reached
        ]
        if done:
            assert cell.mean_j2 == statistics.fmean(r.j2 for r in done)
            assert cell.mean_j4 == statistics.fmean(r.j4 for r in done)
    assert sum(c.completed_runs for c in cells) == 5 < len(reports)

def test_run_sweep_warm_carries_learning():
    world = generate_layout_sized(16, 16)
    base = Scenario(world=world, n_robots=2, n_tasks=2, ga=LIGHT_GA, seed=60)
    cold_reports, _ = run_sweep(base, [2], [2], seeds_per_cell=3)
    warm_reports, _ = run_sweep(base, [2], [2], seeds_per_cell=3, warm=True)
    # First runs coincide (store still at defaults); later runs may diverge.
    assert cold_reports[0].per_robot == warm_reports[0].per_robot


def _deterministic_fields(report):
    fields = dataclasses.asdict(report)
    del fields["planner_seconds"], fields["astar_seconds"]
    return fields


def test_run_sweep_parallel_matches_serial():
    world = generate_layout_sized(16, 16)
    base = Scenario(world=world, n_robots=1, n_tasks=1, ga=LIGHT_GA, seed=70)
    serial, serial_cells = run_sweep(base, [1, 2], [2], seeds_per_cell=2, jobs=1)
    parallel, parallel_cells = run_sweep(base, [1, 2], [2], seeds_per_cell=2, jobs=2)
    assert [_deterministic_fields(r) for r in parallel] == [
        _deterministic_fields(r) for r in serial
    ]
    assert [(c.mean_j1, c.mean_j4) for c in parallel_cells] == [
        (c.mean_j1, c.mean_j4) for c in serial_cells
    ]


@pytest.fixture
def pools(monkeypatch):
    """Every process pool that run_sweep makes, in order. Each runs its
    initializer and tasks in this process and starts no process."""
    made = []

    class InProcessPool:
        def __init__(self, max_workers, initializer, initargs):
            self.max_workers = max_workers
            self.initargs = initargs
            self.payloads = []
            made.append(self)
            initializer(*initargs)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            self.payloads = list(payloads)
            return map(fn, self.payloads)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", InProcessPool)
    monkeypatch.setattr(engine, "_sweep_base", None)
    return made


def test_run_sweep_ships_base_once(monkeypatch, pools):
    monkeypatch.setattr(engine, "_usable_cpus", lambda: 8)
    world = generate_layout_sized(16, 16)
    base = Scenario(world=world, n_robots=1, n_tasks=1, ga=LIGHT_GA, seed=80)
    reports, _ = run_sweep(base, [1, 2], [2], seeds_per_cell=2, jobs=64)

    assert len(pools) == 1
    pool = pools[0]
    assert pool.max_workers == 4  # one worker per run, not 64, on 8 CPUs
    assert pool.initargs == (base,)
    assert len(pool.payloads) == 4
    for payload in pool.payloads:
        assert isinstance(payload, tuple) and len(payload) == 3
        assert all(type(value) is int for value in payload)
    serial, _ = run_sweep(base, [1, 2], [2], seeds_per_cell=2)
    assert [_deterministic_fields(r) for r in reports] == [
        _deterministic_fields(r) for r in serial
    ]
    # A grid of one run needs no pool at all.
    run_sweep(base, [1], [2], seeds_per_cell=1, jobs=8)
    assert len(pools) == 1


@pytest.mark.parametrize("affinity", [True, False], ids=["affinity", "cpu-count"])
def test_run_sweep_caps_workers_at_the_usable_cpus(monkeypatch, pools, affinity):
    # The pool may start all its workers at its first task, so --jobs 5000
    # asks for no more than the CPUs the process may run on: its affinity
    # set, else the machine's count. One CPU runs serially. The rows and
    # summaries are the same for every --jobs.
    def use_cpus(n):
        if affinity:
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)), raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: 64)
        else:
            monkeypatch.delattr(os, "sched_getaffinity", raising=False)
            monkeypatch.setattr(os, "cpu_count", lambda: n)

    base = Scenario(world=generate_layout_sized(16, 16), n_robots=1, n_tasks=1, ga=LIGHT_GA, seed=90)
    serial = run_sweep(base, [1, 2], [2], seeds_per_cell=2)
    for cpus, jobs, workers in ((3, 5000, 3), (3, 2, 2), (8, 5000, 4), (1, 5000, None)):
        use_cpus(cpus)
        del pools[:]
        sweep = run_sweep(base, [1, 2], [2], seeds_per_cell=2, jobs=jobs)
        assert [pool.max_workers for pool in pools] == ([workers] if workers else [])
        for rows, expected in zip(sweep, serial):
            assert list(map(_deterministic_fields, rows)) == list(map(_deterministic_fields, expected))


def test_importing_the_cli_loads_no_process_pool():
    # run_sweep imports the pool only when it runs workers; loading it costs
    # every fresh process about as much as the rest of the package.
    code = (
        "import sys, warefleet.cli; "
        "print(sorted(m for m in sys.modules "
        "if m.split('.')[0] in ('multiprocessing', 'concurrent')))"
    )
    assert run_python("-c", code).stdout == "[]\n"


def test_readme_python_example_runs():
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")
    (example,) = re.findall(r"^```python\n(.*?)^```$", readme, re.M | re.S)
    assert run_python("-c", example).stdout.split()[-1] == "completed"


@pytest.mark.parametrize(
    "n_values, k_values, message",
    [
        ([], [2], "n_values: expected at least one value"),
        ([1], [], "k_values: expected at least one value"),
        ([1, 2, 1], [2], "n_values: value 1 given more than once"),
        ([1], [3, 3], "k_values: value 3 given more than once"),
        ([1, 0], [2], "n_values: value 0 is below 1"),
        ([1], [2, -1], "k_values: value -1 is below 1"),
    ],
)
def test_run_sweep_rejects_empty_or_repeated_axis(monkeypatch, n_values, k_values, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a rejected grid must not run")

    monkeypatch.setattr(engine, "run_scenario", no_run)
    base = Scenario(world=open_room(6, 6), n_robots=1, n_tasks=1, ga=LIGHT_GA)
    with pytest.raises(ConfigurationError) as raised:
        run_sweep(base, n_values, k_values, seeds_per_cell=1)
    assert str(raised.value) == message


@pytest.mark.parametrize(
    "counts, message",
    [
        ({"seeds_per_cell": 0}, "need at least one seed per cell"),
        ({"seeds_per_cell": 2.5}, "seeds per cell must be an integer, got 2.5"),
        ({"seeds_per_cell": math.nan}, "seeds per cell must be an integer, got nan"),
        ({"seeds_per_cell": 1, "jobs": 0}, "jobs must be at least 1"),
        ({"seeds_per_cell": 1, "jobs": 1.5}, "jobs must be an integer, got 1.5"),
        ({"seeds_per_cell": 1, "jobs": math.nan}, "jobs must be an integer, got nan"),
    ],
)
def test_run_sweep_rejects_bad_seed_or_job_count(monkeypatch, counts, message):
    def no_run(*args, **kwargs):
        raise AssertionError("a rejected count must not run")

    monkeypatch.setattr(engine, "run_scenario", no_run)
    base = Scenario(world=open_room(6, 6), n_robots=1, n_tasks=1, ga=LIGHT_GA)
    with pytest.raises(ConfigurationError) as raised:
        run_sweep(base, [1], [1], **counts)
    assert str(raised.value) == message


def test_run_scenario_k_total_counts_trace_ticks():
    # The trace is the ground truth the metrics use: one snapshot per tick
    # plus the initial one.
    world = generate_layout_sized(16, 16)
    sc = Scenario(world=world, n_robots=2, n_tasks=2, ga=LIGHT_GA, seed=9)
    trace, report = run_scenario(sc)
    assert report.k_total == len(trace.positions) - 1


def test_run_sweep_checks_the_floor_for_its_largest_cell_before_any_run(monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("an overflowing grid must not run")

    monkeypatch.setattr(engine, "run_scenario", no_run)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_run)
    base = Scenario(world=open_room(6, 6), n_robots=1, n_tasks=1, ga=LIGHT_GA)
    for jobs in (1, 2):
        with pytest.raises(ConfigurationError) as raised:
            run_sweep(base, [1, 14], [3, 2], seeds_per_cell=2, jobs=jobs)
        assert str(raised.value) == (
            "n_values 14 with k_values 3: layout has only 16 free cells for 17 random placements"
        )
