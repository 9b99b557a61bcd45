"""Benchmark acceptance suite.

One test per headline guarantee, each printing a summary line (run with
`pytest tests/test_acceptance.py -v -s` to see them). The heavyweight
sweeps share a session fixture; every simulated run feeds the safety
collector that the final invariant test audits.
"""

import itertools
import math
import random
import statistics

import pytest

from warefleet.allocator import (
    GAConfig,
    HeuristicStore,
    crossover,
    decode,
    evolve,
)
from warefleet.baseline import shortest_path
from warefleet.engine import Scenario, run_scenario
from warefleet.gridworld import Position, generate_layout_sized, parse_layout
from warefleet.planner import (
    CAP_REACHED,
    COMPLETED,
    RobotState,
    SimTrace,
    run_until_done,
)
from warefleet.potential import PotentialParams

import allocator_oracle
from allocator_oracle import gene_pool
from conftest import TRACE_FAULTS, random_world, trace_faults
from perfbench.checks import bfs_length
from potential_oracle import check_divergence_condition, recursion_path

TABLE_PARAMS = PotentialParams(gamma=15.0, alpha=0.05, sensor_radius=3)

# Allocation quality does not enter the path-cost or timing comparisons, so
# the big sweeps use a light allocator; the trend sweep needs real route
# ordering and uses the full-strength defaults.
LIGHT_GA = GAConfig(population_size=16, max_generations=12)
FULL_GA = GAConfig(population_size=100, max_generations=200)

SWEEP_SIZES = (1, 5, 10, 15, 20)
SEEDS_PER_CELL = 50

# Safety tallies accumulated by every run in this suite.
SAFETY = {"runs": 0, **dict.fromkeys(TRACE_FAULTS, 0)}


def audit_trace(trace):
    SAFETY["runs"] += 1
    for kind, count in trace_faults(trace).items():
        SAFETY[kind] += count


@pytest.fixture(scope="session")
def benchmark_world():
    return generate_layout_sized(81, 80)


@pytest.fixture(scope="session")
def benchmark_cells(benchmark_world):
    """Mean J1 and cumulative compute for N=K cells at 50 seeds each."""
    cells = {}
    for n in SWEEP_SIZES:
        j1 = []
        planner = astar = 0.0
        for seed in range(SEEDS_PER_CELL):
            sc = Scenario(
                world=benchmark_world,
                n_robots=n,
                n_tasks=n,
                potential=TABLE_PARAMS,
                ga=LIGHT_GA,
                seed=seed,
            )
            trace, report = run_scenario(sc)
            audit_trace(trace)
            assert trace.outcome == COMPLETED, f"cell N=K={n} seed {seed} hit the cap"
            j1.append(report.j1)
            planner += report.planner_seconds
            astar += report.astar_seconds
        cells[n] = {"mean_j1": statistics.fmean(j1), "planner": planner, "astar": astar}
    return cells


def test_criterion_01_crossover_worked_example():
    parent1 = [3, -2, 1, 2, 5, 6, 4, -1, 7, -3]
    parent2 = [6, 2, -1, 4, 3, -3, 7, -2, 5, 1]
    child = crossover(parent1, parent2, 3, 6)
    assert child == [-1, 4, 1, 2, 5, 6, 3, -3, 7, -2]
    print("PASS criterion 1: crossover reproduces the worked example exactly")


def test_criterion_02_decode_worked_example():
    genes = [3, 5, 1, -1, 4, 6, -2, 2, 7, -3]
    assert decode(genes, 4) == [[3, 5, 1], [4, 6], [2, 7], []]
    print("PASS criterion 2: chromosome decoding reproduces the worked example exactly")


def test_criterion_03_path_cost_bound(benchmark_cells):
    means = {n: benchmark_cells[n]["mean_j1"] for n in SWEEP_SIZES}
    for n, mean_j1 in means.items():
        assert mean_j1 <= 1.25, f"mean J1 {mean_j1:.4f} exceeds 1.25 at N=K={n}"
    xs = list(means)
    xbar = statistics.fmean(xs)
    ybar = statistics.fmean(means.values())
    slope = sum((x - xbar) * (means[x] - ybar) for x in xs) / sum((x - xbar) ** 2 for x in xs)
    assert slope <= 0.005, f"J1 grows too fast with fleet size: {slope:.5f} per robot"
    summary = ", ".join(f"N={n}:{means[n]:.4f}" for n in SWEEP_SIZES)
    print(f"PASS criterion 3: mean J1 <= 1.25 per cell ({summary}); slope {slope:.5f}/robot")


def test_criterion_04_planning_speed(benchmark_cells):
    planner = sum(c["planner"] for c in benchmark_cells.values())
    astar = sum(c["astar"] for c in benchmark_cells.values())
    per_cell = ", ".join(
        f"N={n}:{benchmark_cells[n]['planner'] / benchmark_cells[n]['astar']:.3f}"
        for n in SWEEP_SIZES
    )
    assert planner <= 0.5 * astar, (
        f"planner compute {planner * 1e3:.1f} ms exceeds half of A* {astar * 1e3:.1f} ms "
        f"(per-cell ratios: {per_cell})"
    )
    print(
        f"PASS criterion 4: planner {planner * 1e3:.0f} ms <= 0.5 x A* {astar * 1e3:.0f} ms "
        f"(aggregate ratio {planner / astar:.3f}; per cell {per_cell})"
    )


TRAP_ROWS = [
    "################",
    "#..............#",
    "#......#####...#",
    "#..........#...#",
    "#......#####...#",
    "#..............#",
    "################",
]


def test_criterion_05_trap_escape():
    world = parse_layout("\n".join(TRAP_ROWS) + "\n")
    goal = Position(13, 3)
    rng = random.Random(11)
    episodes_total = 0
    for trial in range(50):
        start = Position(rng.randint(1, 4), rng.randint(1, 5))
        robot = RobotState(pos=start, tasks=[goal])
        entrap_tick = None
        crit = None
        positions = [(start,)]
        outstanding = [1]
        done = False
        for tick in range(1, 800):
            before = robot.pos
            run_until_done([robot], world, TABLE_PARAMS, 1)
            positions.append((robot.pos,))
            outstanding.append(len(robot.tasks))
            if not robot.tasks:
                done = True
                break
            if robot.pos == before and robot.pos != goal:
                if entrap_tick is None:
                    # Local minimum reached: freeze the realized potentials
                    # and derive the escape-time bound from them.
                    entrap_tick = tick
                    values = robot.potential
                    own = values[robot.pos]
                    best_neighbor = min(values[c] for c in world.adjacency[robot.pos])
                    crit = math.log(best_neighbor / own, TABLE_PARAMS.gamma)
            elif entrap_tick is not None:
                duration = tick - entrap_tick
                episodes_total += 1
                assert duration <= crit + 1 + 1e-9, (
                    f"trial {trial}: stuck {duration} ticks, bound {crit + 1:.3f}"
                )
                entrap_tick = None
        assert done, f"trial {trial} from {start} never reached the goal"
        audit_trace(
            SimTrace(
                positions=positions,
                outstanding=outstanding,
                segments=[list(robot.segment_log)],
                outcome=COMPLETED,
                k_total=len(positions) - 1,
            )
        )
    assert episodes_total >= 10, "trap scenario never actually trapped the robot"
    print(
        f"PASS criterion 5: 50/50 trap runs reached the goal; {episodes_total} entrapments, "
        "every escape within the excitation bound"
    )


SEALED_ROWS = [
    "###########",
    "#.....#...#",
    "#.....#...#",
    "#.....#...#",
    "###########",
]


def test_criterion_06_sealed_goal_never_completes():
    world = parse_layout("\n".join(SEALED_ROWS) + "\n")
    sealed_task = Position(8, 2)
    rng = random.Random(3)
    outside = sorted(c for c in world.reachable if c.x < 6)
    for trial in range(50):
        start = rng.choice(outside)
        sc = Scenario(
            world=world,
            n_robots=1,
            n_tasks=1,
            robot_starts=(start,),
            task_positions=(sealed_task,),
            potential=TABLE_PARAMS,
            ga=LIGHT_GA,
            step_cap=300,
            seed=trial,
        )
        trace, report = run_scenario(sc)
        audit_trace(trace)
        assert trace.outcome == CAP_REACHED
        assert report.cap_reached and report.completed_tasks == 0
        assert math.isnan(report.j1)  # no completed leg, so no path-cost ratio
    print("PASS criterion 6: sealed goal reported cap_reached in 50/50 runs, never completed")


# (p, alpha) pairs with two expected-growth ratios below the threshold
# gamma* = 1 - alpha + alpha/p and two above it. The above-threshold points
# are chosen with positive pathwise log-drift or a single-excitation jump
# past 10x, so one long seeded path certifies the growth.
DIVERGENCE_GRID = [
    (0.50, 0.05, (1.02, 1.04), (1.15, 15.0)),
    (0.05, 0.05, (1.50, 1.90), (3.00, 15.0)),
    (0.20, 0.10, (1.20, 1.35), (1.70, 12.0)),
    (0.10, 0.30, (2.00, 3.50), (6.00, 20.0)),
    (0.35, 0.15, (1.10, 1.25), (1.50, 8.0)),
]


def _simulate_recursion_path(p, gamma, alpha, u0, steps, seed):
    """The peak of a seeded path and its mean after the first fifth."""
    path = list(itertools.islice(recursion_path(p, gamma, alpha, u0, random.Random(seed)), steps))
    burn = steps // 5
    return max(u0, max(path)), sum(path[burn:]) / (steps - burn)


def test_criterion_07_divergence_condition_matches_simulation():
    u0 = 2.0
    steps = 100_000
    checked = 0
    for index, (p, alpha, bounded_gammas, divergent_gammas) in enumerate(DIVERGENCE_GRID):
        threshold = 1 - alpha + alpha / p
        for gamma in bounded_gammas:
            assert gamma < threshold
            assert not check_divergence_condition(p, gamma, alpha)
            beta = p * gamma + (1 - p) * (1 - alpha)
            limit = (1 - p) * alpha * u0 / (1 - beta)
            _, mean = _simulate_recursion_path(p, gamma, alpha, u0, steps, seed=1000 + index * 10 + checked)
            assert limit / 3 <= mean <= 3 * limit, (p, gamma, alpha, mean, limit)
            checked += 1
        for gamma in divergent_gammas:
            assert gamma > threshold
            assert check_divergence_condition(p, gamma, alpha)
            peak, _ = _simulate_recursion_path(p, gamma, alpha, u0, steps, seed=1000 + index * 10 + checked)
            assert peak > 10 * u0, (p, gamma, alpha, peak)
            checked += 1
    assert checked == 20
    print(
        "PASS criterion 7: classification matches 1e5-step seeded recursions on all 20 grid points"
    )


def test_criterion_08_learning_convergence():
    for eta in (0.1, 0.5, 1.0):
        store = HeuristicStore(eta=eta)
        a, b = Position(0, 0), Position(23, 0)
        target = 37.0
        gap0 = abs(store.estimate(a, b) - target)
        for m in range(1, 51):
            store.learn(a, b, target)
            gap = abs(store.estimate(a, b) - target)
            expected = (1 - eta) ** m * gap0
            assert gap == pytest.approx(expected, rel=1e-9, abs=1e-12)
    print("PASS criterion 8: learning gap follows (1-eta)^m exactly for eta in {0.1, 0.5, 1.0}")


def test_criterion_09_ga_matches_exhaustive_search():
    rng = random.Random(99)
    matches = 0
    trials = 100
    for trial in range(trials):
        k = rng.randint(1, 6)
        cells = [(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(2 + k)]
        while len(set(cells)) != len(cells):
            cells = [(rng.randint(0, 60), rng.randint(0, 60)) for _ in range(2 + k)]
        starts = [Position(*c) for c in cells[:2]]
        tasks = [Position(*c) for c in cells[2:]]
        store = HeuristicStore()
        # Permutations of the gene pool are valid chromosomes, so the
        # instance's scorer is built once and applied to each.
        score = allocator_oracle.scorer(starts, tasks, store)
        best_exhaustive = max(score(perm) for perm in itertools.permutations(gene_pool(2, k)))
        cfg = GAConfig(population_size=100, max_generations=200)
        _, history = evolve(cfg, starts, tasks, store, trial)
        if math.isclose(history[-1], best_exhaustive, rel_tol=1e-12):
            matches += 1
    assert matches >= 95, f"GA matched the optimum on only {matches}/100 instances"
    print(f"PASS criterion 9: GA found the exhaustive optimum on {matches}/100 instances")


def test_criterion_10_search_oracle_equivalence():
    rng = random.Random(515)
    checked = 0
    while checked < 200:
        world = random_world(rng)
        free = sorted(world.reachable)
        if len(free) < 2:
            continue
        start, goal = rng.sample(free, 2)
        length = shortest_path(world, start, goal).length
        assert length == bfs_length(world.reachable, start, goal)
        if length is not None:
            assert length >= abs(start.x - goal.x) + abs(start.y - goal.y)
        checked += 1
    print(
        "PASS criterion 10: A* equals breadth-first lengths, at least the 1-norm distance, "
        "on 200 randomized instances"
    )


def test_criterion_12_task_count_trends(benchmark_world):
    k_values = (5, 10, 20, 40)
    trends = {}
    for n in (10, 20):
        means = {}
        for k in k_values:
            j2s, j3s, j4s = [], [], []
            for seed in range(24):
                sc = Scenario(
                    world=benchmark_world,
                    n_robots=n,
                    n_tasks=k,
                    potential=TABLE_PARAMS,
                    ga=FULL_GA,
                    seed=1000 + seed,
                )
                trace, report = run_scenario(sc)
                audit_trace(trace)
                assert trace.outcome == COMPLETED
                j2s.append(report.j2)
                j3s.append(report.j3)
                j4s.append(report.j4)
            means[k] = (
                statistics.fmean(j2s),
                statistics.fmean(j3s),
                statistics.fmean(j4s),
            )
        for a, b in zip(k_values, k_values[1:]):
            assert means[a][1] > means[b][1], f"N={n}: J3 not decreasing from K={a} to K={b}"
            assert means[a][2] < means[b][2], f"N={n}: J4 not increasing from K={a} to K={b}"
            assert means[a][0] <= means[b][0], f"N={n}: J2 decreased from K={a} to K={b}"
        trends[n] = means
    lines = "; ".join(
        f"N={n}: J3 {trends[n][k_values[0]][1]:.2f}->{trends[n][k_values[-1]][1]:.2f}, "
        f"J4 {trends[n][k_values[0]][2]:.3f}->{trends[n][k_values[-1]][2]:.3f}"
        for n in trends
    )
    print(f"PASS criterion 12: J3 falls, J4 rises, J2 never falls as K grows ({lines})")


def test_criterion_11_safety_invariants(benchmark_cells):
    # Runs after every other criterion in this file, so the tallies cover
    # the full suite (the fixture argument forces the big sweep even if
    # earlier tests were deselected).
    assert SAFETY["runs"] > 0
    assert SAFETY["collisions"] == 0
    assert SAFETY["teleports"] == 0
    assert SAFETY["swaps"] == 0
    assert SAFETY["task_regressions"] == 0
    print(
        f"PASS criterion 11: {SAFETY['runs']} audited runs, zero collisions, zero jumps, "
        "zero swaps, task count monotone"
    )
