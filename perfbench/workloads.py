"""Workload definitions and the set-up every benchmark process shares.

Every workload runs on the `generate:81x80` layout. Its inputs are drawn
from the workload seed alone: a run picks `distinct` scenario seeds (for
the sweep, base seeds) and cycles through them, so the same seed always
gives the same scenarios and every scenario is repeated within a run.
"""

from __future__ import annotations

import math
import os
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
LAYOUT = "generate:81x80"
CPUS = sorted(os.sched_getaffinity(0))  # before any pinning


@dataclass(frozen=True)
class Workload:
    name: str
    n_robots: int
    n_tasks: int
    population: int
    generations: int
    distinct: int  # scenario seeds per run; for the sweep, sweep base seeds
    sweep_n: tuple[int, ...] = ()  # the sweep grid; empty for single scenarios
    sweep_k: tuple[int, ...] = ()
    sweep_seeds: int = 0

    @property
    def is_sweep(self) -> bool:
        return bool(self.sweep_n)

    @property
    def runs_per_op(self) -> int:
        """Scenario runs in one timed operation."""
        return len(self.sweep_n) * len(self.sweep_k) * self.sweep_seeds if self.is_sweep else 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("ga_full", 20, 40, population=100, generations=200, distinct=8),
        Workload("fleet_crowd", 100, 100, population=16, generations=12, distinct=24),
        Workload(
            "sweep_jobs2", 1, 1, population=16, generations=12, distinct=2,
            sweep_n=(5, 10), sweep_k=(5, 10), sweep_seeds=10,
        ),
    )
}

# The same workloads at a size that runs in seconds, for the smoke test.
TINY = {
    "ga_full": replace(WORKLOADS["ga_full"], n_robots=4, n_tasks=6, population=10, generations=5, distinct=2),
    "fleet_crowd": replace(WORKLOADS["fleet_crowd"], n_robots=8, n_tasks=8, distinct=2),
    "sweep_jobs2": replace(WORKLOADS["sweep_jobs2"], sweep_n=(2, 3), sweep_k=(2, 3), sweep_seeds=2, distinct=1),
}


def workload(name: str, tiny: bool = False) -> Workload:
    return (TINY if tiny else WORKLOADS)[name]


def sweep_jobs() -> int:
    return min(2, len(CPUS))


def _speed_probe() -> float:
    """Seconds for a small fixed loop of dict, tuple and float work."""
    t0 = time.perf_counter()
    cells: dict[tuple[int, int], float] = {}
    for i in range(8000):
        key = (i % 97, i % 89)
        old = cells.get(key)
        cells[key] = (0.95 * old if old is not None else 1.0) + math.hypot(i % 7, i % 5)
    return time.perf_counter() - t0


def host_probe() -> float:
    """The probe's time on this process's CPU now: the better of two tries."""
    return min(_speed_probe(), _speed_probe())


def pin_to_fastest_cpu() -> float:
    """Pin this process to the CPU that runs the probe fastest right now,
    and return that CPU's probe time.

    On a shared host one vCPU can run 1.6x slower than another for seconds
    to minutes at a time (a busy neighbour on the same physical core), and
    a single-process run would otherwise take the speed of wherever the
    scheduler left it. Children inherit the pinning.
    """
    timings = []
    for cpu in CPUS:
        os.sched_setaffinity(0, {cpu})
        timings.append((host_probe(), cpu))
    best, cpu = min(timings)
    os.sched_setaffinity(0, {cpu})
    return best


def unpin() -> None:
    os.sched_setaffinity(0, CPUS)


def distinct_seeds(w: Workload, seed: int) -> list[int]:
    """The scenario (or sweep base) seeds of one run; multiples of 100 so
    the seed ranges of different sweeps never overlap."""
    rng = random.Random(f"{w.name}/{seed}")
    return [100 * s for s in rng.sample(range(100_000), w.distinct)]


def scenario_text(w: Workload) -> str:
    return (
        f"layout = {LAYOUT}\n"
        f"n_robots = {w.n_robots}\n"
        f"n_tasks = {w.n_tasks}\n"
        f"population = {w.population}\n"
        f"generations = {w.generations}\n"
        "seed = 0\n"
    )


def load_package():
    """Import warefleet from this checkout's src/, and nowhere else."""
    import warefleet

    found = Path(warefleet.__file__).resolve().parent
    if found != (SRC / "warefleet").resolve():
        raise SystemExit(f"error: warefleet imported from {found}, not from {SRC}")
    return warefleet


def set_up(w: Workload, workdir: Path):
    """Write the scenario document, build the scenario and its world's
    obstacle field; returns the document's path and the base scenario."""
    load_package()
    from warefleet import GAConfig, cli, engine

    path = workdir / f"{w.name}.scenario"
    write = getattr(cli, "_atomic_write", None)  # the writer behind every CLI output
    if write is None:
        path.write_text(scenario_text(w), encoding="utf-8")
    else:
        write(path, scenario_text(w))
    base = cli.build_scenario(path)
    # A one-robot, one-task run builds the obstacle field of the world.
    engine.run_scenario(
        replace(base, n_robots=1, n_tasks=1, ga=GAConfig(population_size=2, max_generations=1))
    )
    return path, base
