"""Span recorder for the traced benchmark run.

The package is left untouched: while a `Tracer` is installed, the layer
entry points are replaced, from outside, by wrappers that record one span
(name, start, end, parent) per call. Spans live in flat arrays until the
run ends, because a traced `fleet_crowd` pass records a few hundred
thousand of them. Sweep workers record their own spans and send them back
attached to the report each task returns.

A layer's self time is its span's duration minus the part covered by its
child spans. Worker spans are children of the `engine.run_sweep` span that
dispatched them and run in parallel, so that parent subtracts the union of
their intervals.
"""

from __future__ import annotations

import itertools
import os
import threading
import time
from array import array
from collections import Counter, defaultdict
from multiprocessing import reduction

from warefleet import allocator, cli, engine, planner, potential

SPAN_NAMES = (
    "bench.pass",
    "bench.op",
    "cli.main",
    "cli.build_scenario",
    "gridworld.layout",
    "cli.write",
    "engine.run_sweep",
    "engine.worker",
    "engine.run_scenario",
    "allocator.evolve",
    "allocator.fitness",
    "allocator.crossover",
    "planner.sim",
    "planner.sense",
    "potential.field_build",
    "potential.field_lookup",
    "baseline.astar",
    "engine.learn",
    "engine.metrics",
)
_CODE = {name: code for code, name in enumerate(SPAN_NAMES)}

# Attribute on a MetricsReport that carries a worker's spans back to the parent.
_EXPORT_ATTR = "_perfbench_spans"

# The installed tracer of this process; forked sweep workers find it here.
_ACTIVE: Tracer | None = None


class Tracer:
    def __init__(self) -> None:
        self.names = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.lanes = array("q")  # 0 in this process, the pid for worker spans
        self.counters: Counter = Counter()
        self._stack: list[int] = []
        self._genes: set[tuple[int, ...]] = set()
        self._fields: dict[int, object] = {}
        self._patches: list[tuple[object, str, object]] = []
        self._lock = threading.Lock()
        self._pid = os.getpid()
        self._sweep_worker = None

    # -- recording -------------------------------------------------------

    def open(self, name: str) -> int:
        index = len(self.starts)
        self.names.append(_CODE[name])
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.lanes.append(0)
        self.starts.append(time.perf_counter())
        self.ends.append(0.0)
        self._stack.append(index)
        return index

    def close(self, index: int) -> None:
        self.ends[index] = time.perf_counter()
        self._stack.pop()

    def clear(self) -> None:
        for column in (self.names, self.starts, self.ends, self.parents, self.lanes):
            del column[:]
        self.counters.clear()
        self._stack.clear()
        self._genes.clear()
        self._fields.clear()

    def _wrap(self, name, fn, after=None):
        code = _CODE[name]
        names, starts, ends, parents, lanes = (
            self.names, self.starts, self.ends, self.parents, self.lanes
        )
        stack = self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            index = len(starts)
            names.append(code)
            parents.append(stack[-1] if stack else -1)
            lanes.append(0)
            starts.append(0.0)
            ends.append(0.0)
            stack.append(index)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                starts[index] = t0
                ends[index] = t1
            if after is not None:
                after(index, args, result)
            return result

        return wrapper

    # -- hooks that count work at the layer boundary ---------------------

    def _after_fitness(self, index, args, result):
        self.counters["evaluations"] += 1
        self._genes.add(tuple(args[0]))

    def _after_evolve(self, index, args, result):
        _, history = result
        self.counters["distinct_chromosomes"] += len(self._genes)
        self._genes.clear()
        self.counters["evolves"] += 1
        self.counters["generations_to_best"] += history.index(max(history))

    def _after_sense(self, index, args, result):
        self.counters["decisions"] += 1

    def _after_astar(self, index, args, result):
        self.counters["expanded_nodes"] += result.expanded_nodes

    def _after_field(self, index, args, result):
        # A build returns a new dict and a cache hit one seen before; holding
        # the dicts keeps their ids from being reused.
        if id(result) in self._fields:
            self.names[index] = _CODE["potential.field_lookup"]
        else:
            self._fields[id(result)] = result
            self.names[index] = _CODE["potential.field_build"]

    def _after_run_scenario(self, index, args, result):
        trace, report = result
        self.counters["runs"] += 1
        self.counters["ticks"] += report.k_total
        self.counters["moves"] += sum(seg.length for segs in trace.segments for seg in segs)
        self.counters["plan_seconds"] += report.planner_seconds
        self.counters["astar_seconds"] += report.astar_seconds

    def _after_run_sweep(self, index, args, result):
        reports, _ = result
        for report in reports:
            exported = report.__dict__.pop(_EXPORT_ATTR, None)
            if exported is not None:
                self._merge(index, exported)

    def _merge(self, parent: int, exported) -> None:
        names, starts, ends, parents, counters, pid = exported
        offset = len(self.starts)
        self.names.extend(names)
        self.starts.extend(starts)
        self.ends.extend(ends)
        self.parents.extend(parent if p < 0 else p + offset for p in parents)
        self.lanes.extend([pid] * len(starts))
        self.counters.update(counters)

    def export(self) -> tuple:
        return (self.names, self.starts, self.ends, self.parents, dict(self.counters), os.getpid())

    def _counting_dumps(self, original):
        def dumps(cls, obj, protocol=None):
            data = original.__get__(None, cls)(obj, protocol)
            # Count what this process sends to its workers; the pool's feeder
            # thread does the sending.
            if os.getpid() == self._pid:
                with self._lock:
                    self.counters["dispatch_bytes"] += len(data)
            return data

        return classmethod(dumps)

    # -- installation ----------------------------------------------------

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def _wrap_each(self, owners, attr: str, name: str, after=None) -> None:
        # A layer that no longer exists under this name is simply not traced.
        for owner in owners:
            if attr in owner.__dict__:
                self._patch(owner, attr, self._wrap(name, getattr(owner, attr), after))

    def install(self) -> None:
        global _ACTIVE
        wrap = self._wrap_each
        wrap((engine, cli), "run_scenario", "engine.run_scenario", self._after_run_scenario)
        wrap((engine, cli), "run_sweep", "engine.run_sweep", self._after_run_sweep)
        wrap((engine,), "evolve", "allocator.evolve", self._after_evolve)
        wrap((allocator,), "fitness", "allocator.fitness", self._after_fitness)
        wrap((allocator,), "crossover", "allocator.crossover")
        wrap((engine,), "run_until_done", "planner.sim")
        wrap((planner,), "observe", "planner.sense")
        wrap((planner,), "sense_nearby", "planner.sense", self._after_sense)
        wrap((engine, planner, potential), "_obstacle_field", "potential.field_lookup", self._after_field)
        wrap((engine,), "shortest_path", "baseline.astar", self._after_astar)
        wrap((allocator.HeuristicStore,), "learn", "engine.learn")
        wrap((engine,), "compute_metrics", "engine.metrics")
        wrap((cli,), "build_scenario", "cli.build_scenario")
        wrap((cli,), "generate_layout_sized", "gridworld.layout")
        wrap((cli,), "_atomic_write", "cli.write")
        if "_sweep_worker" in engine.__dict__:
            self._sweep_worker = engine._sweep_worker
            self._patch(engine, "_sweep_worker", traced_sweep_worker)
        pickler = reduction.ForkingPickler
        self._patch(pickler, "dumps", self._counting_dumps(pickler.__dict__["dumps"]))
        _ACTIVE = self

    def uninstall(self) -> None:
        global _ACTIVE
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        _ACTIVE = None


def traced_sweep_worker(payload):
    """Stands in for engine._sweep_worker; returns the worker's spans on the report."""
    tracer = _ACTIVE
    if tracer is None:  # a worker that did not inherit the parent's patches
        return engine._sweep_worker(payload)
    tracer.clear()  # drop what was inherited from the parent at fork
    index = tracer.open("engine.worker")
    try:
        result = tracer._sweep_worker(payload)
    finally:
        tracer.close(index)
    setattr(result[-1], _EXPORT_ATTR, tracer.export())
    return result


def self_times(tracer: Tracer) -> list[float]:
    """Per span: its duration minus the time its children cover."""
    starts, ends, parents, lanes = tracer.starts, tracer.ends, tracer.parents, tracer.lanes
    covered = [0.0] * len(starts)
    parallel: dict[int, list[tuple[float, float]]] = defaultdict(list)
    for index, parent in enumerate(parents):
        if parent < 0:
            continue
        if lanes[index] == lanes[parent]:
            covered[parent] += ends[index] - starts[index]
        else:
            parallel[parent].append((starts[index], ends[index]))
    for parent, intervals in parallel.items():
        covered[parent] += union_within(intervals, starts[parent], ends[parent])
    return [end - start - cover for start, end, cover in zip(starts, ends, covered)]


def union_within(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0.0
    cursor = lo
    for start, end in sorted(intervals):
        start = max(start, cursor)
        end = min(end, hi)
        if end > start:
            total += end - start
            cursor = end
    return total


def layer_totals(tracer: Tracer, own: list[float], first: int = 0) -> dict[str, dict[str, float]]:
    """Per span name, over the spans from index `first` on: call count,
    summed duration and summed self time (`own`, from self_times)."""
    totals = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in SPAN_NAMES}
    spans = zip(tracer.names, tracer.starts, tracer.ends, own)
    for code, start, end, self_s in itertools.islice(spans, first, None):
        entry = totals[SPAN_NAMES[code]]
        entry["calls"] += 1
        entry["total_s"] += end - start
        entry["self_s"] += self_s
    return totals
