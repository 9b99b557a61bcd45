"""Scenario orchestration and the J1..J4 benchmark metrics.

A scenario run wires the subsystems together the way the deployed system
would: the central allocator evolves a task assignment, robots plan and
move distributively, and every completed leg's realized distance feeds
back into the allocator's heuristic store. Position feedback is exact and
the server/robot channel is lossless, so both are direct calls here.

Metrics:
  J1  total realized distance over total optimal (A*) distance
  J2  average travel distance per robot per task
  J3  longest per-robot travel distance per task (the completion bottleneck)
  J4  tasks completed per tick
"""

from __future__ import annotations

import math
import random
import statistics
from dataclasses import dataclass, field, fields, replace

from .allocator import GAConfig, HeuristicStore, decode, evolve
from .baseline import shortest_path
from .errors import ConfigurationError, require_integers, require_iterables
from .gridworld import GridWorld, Position
from .planner import (
    CAP_REACHED,
    RobotState,
    SimTrace,
    run_until_done,
)
from .potential import PotentialParams


@dataclass
class Scenario:
    """Full description of one reproducible run."""

    world: GridWorld
    n_robots: int
    n_tasks: int
    robot_starts: tuple[Position, ...] | None = None
    task_positions: tuple[Position, ...] | None = None
    potential: PotentialParams = field(default_factory=PotentialParams)
    ga: GAConfig = field(default_factory=GAConfig)
    eta: float = 0.5
    step_cap: int = 0  # 0 runs with default_step_cap
    seed: int = 0

    def __post_init__(self):
        require_integers(n_robots=self.n_robots, n_tasks=self.n_tasks, step_cap=self.step_cap)
        if self.n_robots < 1 or self.n_tasks < 1:
            raise ConfigurationError("need at least one robot and one task")
        if self.step_cap < 0:
            raise ConfigurationError("step cap must be positive, or 0 for the default")
        HeuristicStore(self.eta)  # the store owns the learning-rate check
        # Given cells are kept as the world's own Positions; random starts and
        # tasks are drawn without replacement from the floor cells they leave.
        needed, given = 0, set()
        for name, label, expected in (
            ("robot_starts", "robot start", self.n_robots),
            ("task_positions", "task position", self.n_tasks),
        ):
            given_cells = getattr(self, name)
            if given_cells is None:
                needed += expected
                continue
            require_iterables(**{name: given_cells})
            cells = tuple(self.world.cell(xy, label) for xy in given_cells)
            setattr(self, name, cells)
            if len(cells) != expected:
                raise ConfigurationError(f"expected {expected} {label}s, got {len(cells)}")
            if len(set(cells)) != len(cells):
                raise ConfigurationError(f"{label}s must be pairwise distinct")
            given.update(cells)
        free = len(self.world.floor) - len(given)
        if needed > free:
            raise ConfigurationError(f"layout has only {free} free cells for {needed} random placements")


@dataclass
class MetricsReport:
    n_robots: int
    n_tasks: int
    seed: int
    j1: float
    j2: float
    j3: float
    j4: float
    k_total: int
    per_robot: list[tuple[int, int]]
    completed_tasks: int
    cap_reached: bool
    planner_seconds: float = 0.0
    astar_seconds: float = 0.0
    ga_history: tuple[float, ...] = ()


@dataclass
class CellSummary:
    """Mean/spread of each metric over the seeds of one (N, K) sweep cell.

    J1..J4 cover completed runs only (NaN when none completed), since a
    capped run counts only its completed legs; k_total and times cover all.
    """

    n_robots: int
    n_tasks: int
    runs: int
    completed_runs: int
    mean_j1: float
    std_j1: float
    mean_j2: float
    std_j2: float
    mean_j3: float
    std_j3: float
    mean_j4: float
    std_j4: float
    mean_k_total: float
    planner_seconds: float
    astar_seconds: float


# The written metrics: output column -> the report attribute it holds, in
# column order. A time column holds an attribute in seconds.
TIME_COLUMNS = {"planner_time_us": "planner_seconds", "astar_time_us": "astar_seconds"}
RUN_COLUMNS = {
    "N": "n_robots",
    "K": "n_tasks",
    "seed": "seed",
    **{f"J{i}": f"j{i}" for i in range(1, 5)},
    "k_total": "k_total",
    **TIME_COLUMNS,
    "cap_reached": "cap_reached",
}
SUMMARY_COLUMNS = {
    "N": "n_robots",
    "K": "n_tasks",
    "runs": "runs",
    "completed_runs": "completed_runs",
    **{f"{stat}_J{i}": f"{stat}_j{i}" for i in range(1, 5) for stat in ("mean", "std")},
    "mean_k_total": "mean_k_total",
    **TIME_COLUMNS,
}


def written(record, attr: str, csv: bool = True):
    """The value of record.attr as written: seconds as rounded microseconds,
    in CSV a flag as 0/1 (csv writes a float as its repr), in JSON NaN as null."""
    value = getattr(record, attr)
    if attr.endswith("_seconds"):
        return round(value * 1e6)
    if not csv:
        return None if isinstance(value, float) and math.isnan(value) else value
    return int(value) if isinstance(value, bool) else value


def report_json(report: MetricsReport) -> dict:
    """The JSON object of a run: the report's fields in declaration order,
    times under their column names. The GA history has its own output."""
    names = {attr: column for column, attr in TIME_COLUMNS.items()}
    return {
        names.get(f.name, f.name): written(report, f.name, csv=False)
        for f in fields(report)
        if f.name != "ga_history"
    }


def default_step_cap(world: GridWorld, n_robots: int, n_tasks: int) -> int:
    per_robot = -(-n_tasks // n_robots)
    return 50 * (world.width + world.height) * max(1, per_robot)


def _resolve_placements(
    sc: Scenario, rng: random.Random
) -> tuple[list[Position], list[Position]]:
    """Explicit cells when given, otherwise uniform draws without replacement.

    Random starts and tasks are drawn in one no-replacement sample from the
    floor cells that the given ones leave, so all placed cells are distinct
    from each other; the scenario has checked that the floor holds them.
    """
    starts, tasks = sc.robot_starts, sc.task_positions
    given = {*(starts or ()), *(tasks or ())}
    pool = [cell for cell in sc.world.floor if cell not in given] if given else sc.world.floor
    needed = (sc.n_robots if starts is None else 0) + (sc.n_tasks if tasks is None else 0)
    drawn = rng.sample(pool, needed)
    return (
        list(starts) if starts is not None else drawn[: sc.n_robots],
        list(tasks) if tasks is not None else drawn[needed - sc.n_tasks :],
    )


def compute_metrics(trace: SimTrace, optima: list[int], n_tasks: int, seed: int) -> MetricsReport:
    """J1..J4 from a trace's completed legs and the matching optimal lengths.

    Capped runs only contribute their completed legs; the flag is carried
    through so aggregation can exclude them where a full-run comparison is
    meaningless. J1 is undefined (NaN) when no leg completed.
    """
    realized = [sum(seg.length for seg in segs) for segs in trace.segments]
    n_robots = len(trace.segments)
    sum_d = sum(realized)
    sum_opt = sum(optima)
    completed = sum(len(segs) for segs in trace.segments)
    if completed == 0:
        j1 = float("nan")
    elif sum_opt == 0:
        j1 = 1.0 if sum_d == 0 else float("inf")
    else:
        j1 = sum_d / sum_opt
    j2 = sum_d / (n_tasks * n_robots)
    j3 = max(realized) / n_tasks
    j4 = completed / trace.k_total if trace.k_total > 0 else 0.0
    return MetricsReport(
        n_robots=n_robots,
        n_tasks=n_tasks,
        seed=seed,
        j1=j1,
        j2=j2,
        j3=j3,
        j4=j4,
        k_total=trace.k_total,
        per_robot=list(zip(realized, optima)),
        completed_tasks=completed,
        cap_reached=trace.outcome == CAP_REACHED,
        planner_seconds=trace.plan_seconds,
    )


def run_scenario(
    sc: Scenario, heuristics: HeuristicStore | None = None
) -> tuple[SimTrace, MetricsReport]:
    """Allocate, simulate, learn, measure. Deterministic for a fixed scenario.

    A shared heuristic store may be passed in to carry learning across runs;
    by default each run starts cold with 1-norm estimates.
    """
    rng = random.Random(sc.seed)
    starts, tasks = _resolve_placements(sc, rng)
    store = heuristics if heuristics is not None else HeuristicStore(sc.eta)

    best, history = evolve(sc.ga, starts, tasks, store, rng.randrange(2**32))
    robots = [
        RobotState(pos=start, tasks=[tasks[t - 1] for t in genes])
        for start, genes in zip(starts, decode(best, sc.n_robots))
    ]
    cap = sc.step_cap or default_step_cap(sc.world, sc.n_robots, sc.n_tasks)
    trace = run_until_done(robots, sc.world, sc.potential, cap)

    # Per completed leg, in order: its A* optimum, and its realized distance learned.
    astar_seconds = 0.0
    optima = []
    for segments in trace.segments:
        total = 0
        for seg in segments:
            leg = shortest_path(sc.world, seg.start, seg.end)
            astar_seconds += leg.elapsed
            total += leg.length  # a completed leg always has a path
            store.learn(seg.start, seg.end, seg.length)
        optima.append(total)

    report = compute_metrics(trace, optima, sc.n_tasks, sc.seed)
    report.astar_seconds = astar_seconds
    report.ga_history = tuple(history)
    return trace, report


def _sweep_cell_scenario(base: Scenario, n: int, k: int, seed: int) -> Scenario:
    # Sweeps vary N and K, so placements are always drawn fresh per seed.
    return replace(
        base, n_robots=n, n_tasks=k, seed=seed, robot_starts=None, task_positions=None
    )


# The base scenario of the sweep a pool worker serves. The pool initializer
# sets it once per worker, so tasks carry only (N, K, seed); the parent
# process never sets it.
_sweep_base: Scenario | None = None


def _set_sweep_base(base: Scenario) -> None:
    global _sweep_base
    _sweep_base = base


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the system
    keeps one, else the machine's count."""
    import os  # a local import, like the pool's below: engine's module imports stay as they are

    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _sweep_worker(payload: tuple[int, int, int]) -> tuple[int, int, int, MetricsReport]:
    """The task with its report, last; run_sweep reads only the report."""
    n, k, seed = payload
    _, report = run_scenario(_sweep_cell_scenario(_sweep_base, n, k, seed))
    return n, k, seed, report


def _mean_std(values: list[float]) -> tuple[float, float]:
    """Mean and population standard deviation; both NaN for no values."""
    if not values:
        return math.nan, math.nan
    return statistics.fmean(values), statistics.pstdev(values)


def _summarize_cell(n: int, k: int, reports: list[MetricsReport]) -> CellSummary:
    completed = [r for r in reports if not r.cap_reached]
    spreads = {}
    for j in ("j1", "j2", "j3", "j4"):
        spreads[f"mean_{j}"], spreads[f"std_{j}"] = _mean_std([getattr(r, j) for r in completed])
    return CellSummary(
        n_robots=n,
        n_tasks=k,
        runs=len(reports),
        completed_runs=len(completed),
        **spreads,
        mean_k_total=statistics.fmean(r.k_total for r in reports),
        planner_seconds=sum(r.planner_seconds for r in reports),
        astar_seconds=sum(r.astar_seconds for r in reports),
    )


def check_sweep_axis(values: list[int], name: str) -> None:
    """A sweep grid axis names at least one value, each at least 1 and none twice."""
    if not values:
        raise ConfigurationError(f"{name}: expected at least one value")
    seen = set()
    for value in values:
        if value < 1:
            raise ConfigurationError(f"{name}: value {value} is below 1")
        if value in seen:
            raise ConfigurationError(f"{name}: value {value} given more than once")
        seen.add(value)


def check_sweep_room(
    base: Scenario, n_values: list[int], k_values: list[int], n_name: str, k_name: str
) -> None:
    """The floor holds the random placements of the sweep's largest cell, and
    so of every cell: its scenario is built once, before any run."""
    n, k = max(n_values), max(k_values)
    try:
        _sweep_cell_scenario(base, n, k, base.seed)
    except ConfigurationError as exc:
        raise ConfigurationError(f"{n_name} {n} with {k_name} {k}: {exc}") from None


def run_sweep(
    base: Scenario,
    n_values: list[int],
    k_values: list[int],
    seeds_per_cell: int,
    warm: bool = False,
    jobs: int = 1,
) -> tuple[list[MetricsReport], list[CellSummary]]:
    """Run every (N, K, seed) combination and aggregate per cell.

    Cold mode (default) gives every run a fresh heuristic store, so runs are
    independent trials and may execute in parallel on at most one worker
    per run and per CPU the process may run on. Warm mode threads one store
    through the runs in order and is therefore always serial.
    """
    require_integers(seeds_per_cell=seeds_per_cell, jobs=jobs)
    if seeds_per_cell < 1:
        raise ConfigurationError("need at least one seed per cell")
    if jobs < 1:
        raise ConfigurationError("jobs must be at least 1")
    check_sweep_axis(n_values, "n_values")
    check_sweep_axis(k_values, "k_values")
    check_sweep_room(base, n_values, k_values, "n_values", "k_values")
    seeds = [base.seed + i for i in range(seeds_per_cell)]
    combos = [(n, k, seed) for n in n_values for k in k_values for seed in seeds]
    # The pool may start all its workers at the first task, so never ask for
    # more than there are runs or CPUs this process may run on.
    workers = min(jobs, len(combos), _usable_cpus())

    # Both paths yield the reports in combos order, so each cell's seeds
    # are one consecutive slice.
    if warm or workers <= 1:
        store = HeuristicStore(base.eta) if warm else None
        reports = [
            run_scenario(_sweep_cell_scenario(base, n, k, seed), heuristics=store)[1]
            for n, k, seed in combos
        ]
    else:
        # Imported here: multiprocessing costs every process that imports
        # warefleet about as much as the rest of the package does.
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(
            max_workers=workers, initializer=_set_sweep_base, initargs=(base,)
        ) as pool:
            reports = [result[-1] for result in pool.map(_sweep_worker, combos)]

    cells = [
        _summarize_cell(n, k, reports[i * seeds_per_cell : (i + 1) * seeds_per_cell])
        for i, (n, k, _) in enumerate(combos[::seeds_per_cell])
    ]
    return reports, cells
