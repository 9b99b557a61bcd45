"""One measurement process: set-up, the timed window and the output checks.

    python3 -m perfbench.measure --workload fleet_crowd --seed 1 --seconds 30 \
        --trace 0 --workdir DIR [--tiny]

Runs in a fresh interpreter so that its peak memory is its own. Prints one
JSON line: attempted, failed, problems and the metrics, each with its
value, unit and sample count. With --trace 0 the metrics are the end-to-end
ones except set-up time, which needs fresh interpreters of its own; with
--trace 1 they are the per-layer ones.
"""

from __future__ import annotations

import argparse
import csv
import json
import resource
import statistics
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

from perfbench import workloads
from perfbench.checks import check_run, deterministic_rows, digest

workloads.load_package()

from warefleet import cli, engine  # noqa: E402

from perfbench.tracer import SPAN_NAMES, Tracer, layer_totals, self_times  # noqa: E402

# How far past --seconds a slow machine may run to repeat every input once.
GRACE_S = 60.0


class Ledger:
    """Every timed attempt, keyed by its input, and what went wrong."""

    def __init__(self) -> None:
        self.attempts: list[tuple[object, bool]] = []
        self.first: dict = {}  # key -> digest of its first run
        self.bad: set = set()  # keys whose output failed a later check
        self.problems: list[str] = []

    def record(self, key, result_digest, problems=()) -> None:
        problems = list(problems)
        if key not in self.first:
            self.first[key] = result_digest
        elif self.first[key] != result_digest:
            problems.append("output differs from the first run of the same input")
        self.attempts.append((key, not problems))
        for problem in problems:
            self._note(key, problem)

    def fail(self, key, problem: str) -> None:
        self.attempts.append((key, False))
        self._note(key, problem)

    def mark_bad(self, key, problem: str) -> None:
        self.bad.add(key)
        self._note(key, problem)

    def _note(self, key, problem: str) -> None:
        if len(self.problems) < 20:
            self.problems.append(f"{key}: {problem}")

    @property
    def failed(self) -> int:
        return sum(1 for key, ok in self.attempts if not ok or key in self.bad)


class ScenarioBench:
    """One operation is one engine.run_scenario call."""

    jobs = 1

    def __init__(self, w, path: Path, base, workdir: Path, ledger: Ledger) -> None:
        self.base = base
        self.ledger = ledger
        self.kept: dict[int, tuple] = {}  # seed -> (trace, report) of its first run
        self.times: list[float] = []
        self.probes: list[float] = []  # host speed before each run

    def op(self, seed: int, tracer: Tracer | None = None) -> None:
        scenario = replace(self.base, seed=seed)
        self.probes.append(workloads.pin_to_fastest_cpu())
        index = tracer.open("bench.op") if tracer else None
        t0 = time.perf_counter()
        try:
            trace, report = engine.run_scenario(scenario)
        except Exception as exc:  # a run that raises is a failed operation
            trace, report = None, exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.close(index)
        self.times.append(elapsed)
        if trace is None:
            self.ledger.fail(seed, f"raised {report!r}")
            return
        problems = ["run hit the step cap"] if report.cap_reached else []
        self.ledger.record(seed, digest(trace, report), problems)
        self.kept.setdefault(seed, (trace, report))

    def j_values(self) -> tuple[list[float], list[float]]:
        reports = [report for _, report in self.kept.values()]
        return [r.j1 for r in reports], [r.j4 for r in reports]

    def end_to_end(self) -> dict:
        n = len(self.times)
        return {
            "runs_per_s": (n / sum(self.times), "1/s", n),
            "run_s_p50": (statistics.median(self.times), "s", n),
        }

    def tail(self) -> tuple[list[float], str]:
        return self.times, "s per run"

    def post_checks(self) -> None:
        workloads.unpin()
        for seed, (trace, report) in self.kept.items():
            for problem in check_run(self.base.world, trace, report):
                self.ledger.mark_bad(seed, problem)


class SweepBench:
    """One operation is one `warefleet sweep` through cli.main."""

    def __init__(self, w, path: Path, base, workdir: Path, ledger: Ledger) -> None:
        # `base` is not kept: forked workers would inherit the obstacle field
        # cached for its world, which `warefleet sweep` never builds in the parent.
        self.w = w
        self.path = path
        self.workdir = workdir
        self.ledger = ledger
        self.jobs = workloads.sweep_jobs()
        self.walls: list[float] = []
        self.probes: list[float] = []  # host speed before each sweep
        self.rows: dict[int, list[dict]] = {}  # base seed -> rows of its first sweep

    def argv(self, base_seed: int, jobs: int, out: Path) -> list[str]:
        w = self.w
        return [
            "sweep",
            "--scenario", str(self.path),
            "--out", str(out),
            "--summary", str(out.with_suffix(".summary.csv")),
            "--n-values", ",".join(map(str, w.sweep_n)),
            "--k-values", ",".join(map(str, w.sweep_k)),
            "--seeds", str(w.sweep_seeds),
            "--seed", str(base_seed),
            "--jobs", str(jobs),
        ]

    def keys(self, base_seed: int) -> list[tuple[int, int, int]]:
        w = self.w
        return [
            (n, k, base_seed + i) for n in w.sweep_n for k in w.sweep_k for i in range(w.sweep_seeds)
        ]

    def sweep(self, base_seed: int, jobs: int, out: Path) -> tuple[object, list[dict]]:
        try:
            code = cli.main(self.argv(base_seed, jobs, out))
        except Exception as exc:  # a sweep that raises fails all of its runs
            return repr(exc), []
        if code != 0:
            return f"exit code {code}", []
        with out.open(newline="", encoding="utf-8") as handle:
            return code, list(csv.DictReader(handle))

    def op(self, base_seed: int, tracer: Tracer | None = None) -> None:
        out = self.workdir / f"sweep-{base_seed}.csv"
        self.probes.append(workloads.host_probe())
        index = tracer.open("cli.main") if tracer else None
        t0 = time.perf_counter()
        status, rows = self.sweep(base_seed, self.jobs, out)
        self.walls.append(time.perf_counter() - t0)
        if tracer:
            tracer.close(index)
        keys = self.keys(base_seed)
        if len(rows) != len(keys):
            for key in keys:
                self.ledger.fail(key, f"sweep gave {len(rows)} rows ({status})")
            return
        for key, row, fixed in zip(keys, rows, deterministic_rows(rows)):
            problems = []
            if (int(row["N"]), int(row["K"]), int(row["seed"])) != key:
                problems.append("row out of order")
            if row["cap_reached"] != "0":
                problems.append("run hit the step cap")
            if float(row["J1"]) < 1.0:
                problems.append(f"J1 {row['J1']} is below 1")
            self.ledger.record(key, fixed, problems)
        self.rows.setdefault(base_seed, rows)

    def j_values(self) -> tuple[list[float], list[float]]:
        rows = [row for rows in self.rows.values() for row in rows]
        return [float(r["J1"]) for r in rows], [float(r["J4"]) for r in rows]

    def end_to_end(self) -> dict:
        per_op = self.w.runs_per_op
        n = len(self.walls)
        return {
            "runs_per_s": (per_op * n / sum(self.walls), "1/s", per_op * n),
            "run_s_p50": (statistics.median(self.walls) / per_op, "s", n),
        }

    def tail(self) -> tuple[list[float], str]:
        return self.walls, "s per sweep"

    def post_checks(self) -> None:
        # Once: the timed sweep's deterministic columns against --jobs 1.
        first = next(iter(self.rows))
        status, reference = self.sweep(first, 1, self.workdir / "reference.csv")
        if deterministic_rows(reference) != deterministic_rows(self.rows[first]):
            for key in self.keys(first):
                self.ledger.mark_bad(key, f"differs from the same sweep with --jobs 1 ({status})")
        # Every input the sweeps ran, re-run in process so its trace can be checked.
        base = cli.build_scenario(self.path)
        for base_seed, rows in self.rows.items():
            for (n, k, seed), row in zip(self.keys(base_seed), rows):
                scenario = replace(
                    base, n_robots=n, n_tasks=k, seed=seed,
                    robot_starts=None, task_positions=None,
                )
                trace, report = engine.run_scenario(scenario)
                for problem in check_run(scenario.world, trace, report):
                    self.ledger.mark_bad((n, k, seed), problem)
                if not row_matches(row, report):
                    self.ledger.mark_bad((n, k, seed), "sweep row differs from the run in process")


def row_matches(row: dict, report) -> bool:
    """Whether a sweep CSV row holds exactly the values of the report."""
    return (
        (int(row["N"]), int(row["K"]), int(row["seed"]), int(row["k_total"]))
        == (report.n_robots, report.n_tasks, report.seed, report.k_total)
        and [float(row[c]) for c in ("J1", "J2", "J3", "J4")]
        == [report.j1, report.j2, report.j3, report.j4]
        and row["cap_reached"] == str(int(report.cap_reached))
    )


def untraced_window(bench, seeds: list[int], seconds: float) -> None:
    """Cycle through the inputs until time is up and each ran at least twice."""
    t0 = time.perf_counter()
    done = 0
    while True:
        bench.op(seeds[done % len(seeds)])
        done += 1
        elapsed = time.perf_counter() - t0
        if done >= 2 * len(seeds) and elapsed >= seconds or elapsed >= seconds + GRACE_S:
            return


def traced_window(bench, seeds: list[int], seconds: float, tracer: Tracer) -> dict:
    """Alternate untraced and traced passes over all inputs; returns the pass walls."""
    walls: dict[bool, list[float]] = {False: [], True: []}
    t0 = time.perf_counter()
    passes = 0
    while passes < 2 or time.perf_counter() - t0 < seconds:
        traced = passes % 2 == 1
        if traced:
            tracer.install()
            root = tracer.open("bench.pass")
        start = time.perf_counter()
        for seed in seeds:
            bench.op(seed, tracer if traced else None)
        walls[traced].append(time.perf_counter() - start)
        if traced:
            tracer.close(root)
            tracer.uninstall()
        passes += 1
    return walls


def peak_rss_mb(jobs: int) -> float:
    """This process's peak plus `jobs` times the largest worker peak."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss if jobs > 1 else 0
    return (own + jobs * workers) / 1024.0


def per_layer(w, bench, tracer: Tracer, setup_end: int, setup_counters: Counter, walls: dict) -> dict:
    own = self_times(tracer)
    every = layer_totals(tracer, own)
    window = layer_totals(tracer, own, first=setup_end)
    c = Counter(tracer.counters)
    c.subtract(setup_counters)
    runs = c["runs"]

    def total(name: str) -> float:
        return window[name]["total_s"]

    def per_call(name: str) -> float:
        calls = every[name]["calls"]
        return every[name]["total_s"] / calls if calls else 0.0

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    sim = total("planner.sim")
    choose = c["plan_seconds"]
    sense = total("planner.sense")
    astar = total("baseline.astar")
    decisions = c["decisions"]
    op_wall = total("cli.main") if w.is_sweep else total("bench.op")
    pass_wall = total("bench.pass")
    unattributed = window["bench.pass"]["self_s"] + window["bench.op"]["self_s"]
    untraced = statistics.median(walls[False])
    overhead = statistics.median(walls[True]) - untraced
    fitness_calls = window["allocator.fitness"]["calls"]

    metrics = {
        "allocator.evolve_s": (ratio(total("allocator.evolve"), runs), "s", runs),
        "allocator.fitness_calls": (ratio(fitness_calls, runs), "count", runs),
        "allocator.fitness_us": (ratio(total("allocator.fitness"), fitness_calls) * 1e6, "us", fitness_calls),
        "allocator.crossover_s": (ratio(total("allocator.crossover"), runs), "s", runs),
        "allocator.unique_frac": (ratio(c["distinct_chromosomes"], c["evaluations"]), "ratio", c["evaluations"]),
        "allocator.generations_to_best": (ratio(c["generations_to_best"], c["evolves"]), "count", c["evolves"]),
        "planner.sim_s": (ratio(sim, runs), "s", runs),
        "planner.choose_s": (ratio(choose, runs), "s", runs),
        "planner.sense_s": (ratio(sense, runs), "s", runs),
        "planner.bookkeeping_s": (ratio(sim - choose - sense, runs), "s", runs),
        "planner.decisions": (ratio(decisions, runs), "count", runs),
        "planner.ticks": (ratio(c["ticks"], runs), "count", runs),
        "planner.stay_frac": (ratio(decisions - c["moves"], decisions), "ratio", decisions),
        "planner.sim_over_choose": (ratio(sim, choose), "ratio", runs),
        "baseline.astar_s": (ratio(astar, runs), "s", runs),
        "baseline.queries": (ratio(window["baseline.astar"]["calls"], runs), "count", runs),
        "baseline.expanded_nodes": (ratio(c["expanded_nodes"], runs), "count", runs),
        "baseline.us_per_expansion": (ratio(astar, c["expanded_nodes"]) * 1e6, "us", c["expanded_nodes"]),
        "baseline.choose_over_astar": (ratio(choose, c["astar_seconds"]), "ratio", runs),
        "potential.field_build_s": (
            per_call("potential.field_build"), "s", every["potential.field_build"]["calls"]
        ),
        "potential.field_builds": (ratio(window["potential.field_build"]["calls"], runs), "count", runs),
        "engine.dispatch_bytes": (ratio(c["dispatch_bytes"], runs), "bytes", runs),
        "engine.worker_busy_frac": (
            ratio(total("engine.run_scenario"), op_wall * bench.jobs), "ratio", runs
        ),
        "engine.learn_s": (ratio(total("engine.learn"), runs), "s", runs),
        "engine.metrics_s": (ratio(total("engine.metrics"), runs), "s", runs),
        "gridworld.layout_s": (per_call("gridworld.layout"), "s", every["gridworld.layout"]["calls"]),
        "cli.build_scenario_s": (
            per_call("cli.build_scenario"), "s", every["cli.build_scenario"]["calls"]
        ),
        "cli.write_s": (per_call("cli.write"), "s", every["cli.write"]["calls"]),
        "trace.accounted_frac": (1.0 - ratio(unattributed, pass_wall), "ratio", len(walls[True])),
        "trace.overhead_s": (overhead, "s", len(walls[True])),
        "trace.overhead_frac": (ratio(overhead, untraced), "ratio", len(walls[True])),
    }
    for name in SPAN_NAMES:
        if not name.startswith("bench."):
            metrics[f"self.{name}_s"] = (ratio(window[name]["self_s"], runs), "s", runs)
    return metrics


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()

    w = workloads.workload(args.workload, args.tiny)
    workdir = Path(args.workdir)
    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    path, base = workloads.set_up(w, workdir)
    if tracer:
        tracer.uninstall()
        setup_end, setup_counters = len(tracer.starts), Counter(tracer.counters)

    ledger = Ledger()
    bench = (SweepBench if w.is_sweep else ScenarioBench)(w, path, base, workdir, ledger)
    del base  # see SweepBench
    seeds = workloads.distinct_seeds(w, args.seed)
    if tracer:
        walls = traced_window(bench, seeds, args.seconds, tracer)
        metrics = per_layer(w, bench, tracer, setup_end, setup_counters, walls)
    else:
        untraced_window(bench, seeds, args.seconds)
        metrics = dict(bench.end_to_end())
        metrics["peak_rss_mb"] = (peak_rss_mb(bench.jobs), "MB", 1)
        j1, j4 = bench.j_values()
        metrics["j1_mean"] = (statistics.fmean(j1), "ratio", len(j1))
        metrics["j4_mean"] = (statistics.fmean(j4), "tasks/tick", len(j4))
    bench.post_checks()

    samples, label = bench.tail()
    print(json.dumps({
        "attempted": len(ledger.attempts),
        "failed": ledger.failed,
        "problems": ledger.problems,
        "metrics": {
            name: {"value": value, "unit": unit, "samples": count}
            for name, (value, unit, count) in metrics.items()
        },
        "tail": {"values": samples, "label": label},
        "host_probe_s": bench.probes,
    }))


if __name__ == "__main__":
    main()
