"""Genetic task allocation with learned distance heuristics.

An allocation of K task cells to N robots is encoded as one permutation
of the task indices 1..K (gene t names the t-th task cell) and N-1
negative delimiter genes: the runs of task indices between delimiters are
the ordered task lists of robots 1..N. This public encoding is what
`decode`, `validate_chromosome` and `evolve`'s result use.

Inside `evolve` a chromosome is held in a gene code of positive genes only:
task t is gene t and delimiter -d is gene K + d, so the genes are 1..N+K-1.
When N + K - 1 <= 255 every gene fits in a byte and a chromosome is
`bytes`; otherwise it is a list in the same code. The order crossover then
fills a child from the second parent with the kept genes deleted by one
C-level `bytes.translate`, where a list is scanned gene by gene in Python.
The container is chosen from the input size alone; both give the same
results.

Fitness is the reciprocal of a combined average-plus-bottleneck estimate
of travel distance, computed from pairwise distance heuristics that start
at the 1-norm and are pulled toward realized distances as robots report
completed legs.
"""

from __future__ import annotations

import math
import random
from bisect import bisect
from collections.abc import Callable
from dataclasses import dataclass
from itertools import accumulate
from operator import itemgetter

from .errors import ConfigurationError, require_integers, require_numbers
from .gridworld import Position

Chromosome = list[int]

# Share of the population, ranked best first, that crossover draws parents from.
PARENT_FRACTION = 0.5

# Fitness when every robot already sits on all of its tasks; keeps ordering
# sensible without dividing by zero.
ZERO_DISTANCE_FITNESS = 1e12


@dataclass
class GAConfig:
    population_size: int = 100
    max_generations: int = 200
    mutation_probability: float = 0.2

    def __post_init__(self):
        require_integers(population_size=self.population_size, max_generations=self.max_generations)
        require_numbers(mutation_probability=self.mutation_probability)
        if self.population_size < 2:
            raise ConfigurationError("population size must be at least 2")
        if self.max_generations < 1:
            raise ConfigurationError("need at least one generation")
        if not 0.0 <= self.mutation_probability <= 1.0:
            raise ConfigurationError("mutation probability must lie in [0, 1]")


class HeuristicStore:
    """Learned symmetric pairwise distance estimates.

    Unqueried pairs fall back to the 1-norm distance; a pair's estimate
    moves toward a realized distance by a fraction eta whenever a completed
    leg for that pair is reported. Only pairs that actually occur are kept,
    each under both of its orders, so a lookup is one dict probe.
    """

    def __init__(self, eta: float = 0.5):
        require_numbers(eta=eta)
        if not 0.0 < eta <= 1.0:
            raise ConfigurationError("learning rate must lie in (0, 1]")
        self.eta = eta
        self._estimates: dict[tuple[Position, Position], float] = {}

    def estimate(self, a: Position, b: Position) -> float:
        return self._estimates.get((a, b), float(abs(a[0] - b[0]) + abs(a[1] - b[1])))

    def table(self, points: list[Position], n_columns: int) -> list[list[float]]:
        """Estimates from every point to each of the last n_columns points.

        Row r, column c holds estimate(points[r], points[len(points) - n_columns + c]).
        """
        targets = points[len(points) - n_columns :]
        # estimate inlined: the table is the fitness function's only input.
        get = self._estimates.get
        return [
            [get((a, b), float(abs(a[0] - b[0]) + abs(a[1] - b[1]))) for b in targets]
            for a in points
        ]

    def learn(self, a: Position, b: Position, realized: float) -> None:
        """Gradient step toward a realized distance."""
        require_numbers(realized_distance=realized)
        if not 0 <= realized < math.inf:
            raise ConfigurationError(f"realized distance must be finite and >= 0, got {realized!r}")
        if a == b:
            return
        current = self.estimate(a, b)
        self._estimates[a, b] = self._estimates[b, a] = current + self.eta * (realized - current)


def validate_chromosome(genes: Chromosome, n_robots: int, n_tasks: int) -> None:
    expected_len = n_robots + n_tasks - 1
    if len(genes) != expected_len:
        raise ConfigurationError(f"chromosome length {len(genes)}, expected {expected_len}")
    positives = sorted(g for g in genes if g > 0)
    if positives != list(range(1, n_tasks + 1)):
        raise ConfigurationError(f"task genes are not a permutation of 1..{n_tasks}")
    delimiters = [g for g in genes if g < 0]
    if len(delimiters) != n_robots - 1 or len(set(delimiters)) != len(delimiters):
        raise ConfigurationError(f"expected {n_robots - 1} distinct delimiter genes")


def decode(genes: Chromosome, n_robots: int) -> list[list[int]]:
    """Split a chromosome into the ordered task-index list of each robot."""
    n_tasks = sum(1 for g in genes if g > 0)
    validate_chromosome(genes, n_robots, n_tasks)
    lists: list[list[int]] = [[]]
    for gene in genes:
        if gene < 0:
            lists.append([])
        else:
            lists[-1].append(gene)
    return lists


def _draws(rng: random.Random, longest: int):
    """`below(n)` and `shuffle(x)` for lists of at most `longest` genes, drawn
    exactly as `rng.randrange(n)` and `rng.shuffle(x)` draw them.

    They copy CPython's arithmetic, `_randbelow_with_getrandbits` and the
    reversed swap loop of `shuffle`, and call `rng.getrandbits` directly, so
    the stream and its results stay the same at one Python call per draw.
    """
    getrandbits = rng.getrandbits
    # The bits shuffle draws to pick slot i's partner among slots 0..i.
    widths = [(i + 1).bit_length() for i in range(longest)]

    def below(n: int) -> int:
        k = n.bit_length()
        r = getrandbits(k)
        while r >= n:
            r = getrandbits(k)
        return r

    def shuffle(x: list) -> None:
        for i in reversed(range(1, len(x))):
            k = widths[i]
            j = getrandbits(k)
            while j > i:
                j = getrandbits(k)
            x[i], x[j] = x[j], x[i]

    return below, shuffle


def _scorer(table: list[list[float]], n_robots: int, n_tasks: int) -> Callable[[bytes | Chromosome], float]:
    """Fitness of a valid chromosome: the reciprocal of its estimated
    average-per-task plus bottleneck-per-task distance, found by walking its
    genes, in evolve's gene code (a gene above n_tasks is a delimiter),
    through a heuristic table whose rows are the starts, then tasks 1..K.
    Each robot's legs, and then the robots' totals, are added one by one, left
    to right: sum() adds floats with compensation from Python 3.12 on, which
    would make the scores depend on the Python version."""
    # A zero column 0 pads each row, so task t's column is t.
    rows = [[0.0, *row] for row in table]
    start_rows = rows[:n_robots]
    task_rows = rows[n_robots - 1 :]  # task t's row is task_rows[t]
    per_robot_task = n_tasks * n_robots

    def score(genes: bytes | Chromosome) -> float:
        robots = iter(start_rows)
        row = next(robots)
        grand = worst = total = 0.0
        for gene in genes:
            if gene > n_tasks:
                grand += total
                if total > worst:
                    worst = total
                total = 0.0
                row = next(robots)
            else:
                total += row[gene]
                row = task_rows[gene]
        grand += total
        if total > worst:
            worst = total
        combined = grand / per_robot_task + worst / n_tasks
        if combined == 0.0:
            return ZERO_DISTANCE_FITNESS
        return 1.0 / combined

    return score


def crossover(parent1: bytes | Chromosome, parent2: bytes | Chromosome, i: int, j: int) -> bytes | Chromosome:
    """Order crossover (Davis, 1985): keep parent1's genes at 1-based positions
    i..j, fill the rest with parent2's unused genes scanned start to end.

    The parents are two lists, or two bytes in evolve's gene code, and the
    child has their type. On bytes, parent2's unused genes are parent2 with
    the kept genes deleted by one bytes.translate.

    L. Davis, "Applying adaptive algorithms to epistatic domains", IJCAI 1985.
    """
    length = len(parent1)
    try:
        if not 1 <= i <= j <= length:
            raise ConfigurationError(f"cut points ({i}, {j}) invalid for length {length}")
        kept = parent1[i - 1 : j]
    except TypeError:
        raise ConfigurationError(f"cut points ({i!r}, {j!r}) must be integers") from None
    if isinstance(parent2, bytes):
        rest = parent2.translate(None, kept)
    else:
        used = set(kept)
        rest = [g for g in parent2 if g not in used]
    return rest[: i - 1] + kept + rest[i - 1 :]


def evolve(
    cfg: GAConfig,
    starts: list[Position],
    tasks: list[Position],
    store: HeuristicStore,
    seed: int,
) -> tuple[Chromosome, list[float]]:
    """Run the generational loop on seed's random stream; returns the best chromosome
    ever seen and the best fitness per generation (non-decreasing under elitist survival)."""
    n_robots = len(starts)
    n_tasks = len(tasks)
    if n_robots < 1 or n_tasks < 1:
        raise ConfigurationError("need at least one robot and one task")
    # The operators only permute valid chromosomes, so genes are checked
    # here and on the result, not per evaluation.
    score = _scorer(store.table([*starts, *tasks], n_tasks), n_robots, n_tasks)
    length = n_robots + n_tasks - 1
    # Chromosomes are held in the gene code (see the module docstring): bytes
    # when every gene fits in a byte, else lists. A scramble shuffles a
    # mutable copy of its segment, a bytearray or a list.
    pack, mutable = (bytes, bytearray) if length <= 255 else (list, list)
    rng = random.Random(seed)
    below, shuffle = _draws(rng, length)
    uniform = rng.random
    size = cfg.population_size
    by_fitness = itemgetter(0)

    all_genes = list(range(1, length + 1))  # every task and delimiter gene
    population = []
    for _ in range(size):
        genes = all_genes.copy()
        shuffle(genes)
        genes = pack(genes)
        population.append((score(genes), genes))
    population.sort(key=by_fitness, reverse=True)
    history = [population[0][0]]

    pool_size = max(2, min(size, round(size * PARENT_FRACTION)))
    # Rank weights: the best of the pool gets pool_size, the worst 1. A parent
    # is drawn with the arithmetic of Random.choices(k=1, cum_weights=...),
    # so the random stream is the one that call would consume.
    cum_weights = list(accumulate(pool_size - r for r in range(pool_size)))
    total = cum_weights[-1] + 0.0
    last = pool_size - 1
    mutation_probability = cfg.mutation_probability

    add = population.append  # children go after the parents, whose ranks stay put
    for _ in range(cfg.max_generations):
        for _ in range((size + 1) // 2):  # each pair of parents gives two children
            # Rank-weighted draw over the pool; the two parents are distinct.
            a = bisect(cum_weights, uniform() * total, 0, last)
            b = a
            while b == a:
                b = bisect(cum_weights, uniform() * total, 0, last)
            v1, p1 = population[a]
            v2, p2 = population[b]
            # Cut points i..j, 1-based: randint(1, length), then randint(i, length).
            i = 1 + below(length)
            j = i + below(length - i + 1)
            # A child equal to a parent keeps the parent's score. No operator
            # changes a chromosome in place, so a child may share its genes.
            if p1 == p2:  # order crossover of equal parents returns the parent
                offspring = ((v1, p1), (v1, p1))
            else:
                c1 = crossover(p1, p2, i, j)
                c2 = crossover(p2, p1, i, j)
                offspring = (
                    (v1 if c1 == p1 else v2 if c1 == p2 else None, c1),
                    (v2 if c2 == p2 else v1 if c2 == p1 else None, c2),
                )
            for value, child in offspring:
                if uniform() < mutation_probability:
                    # Scramble mutation of the 1-based range m..n, drawn as the cuts are.
                    m = 1 + below(length)
                    n = m + below(length - m + 1)
                    segment = mutable(child[m - 1 : n])
                    shuffle(segment)
                    if segment != child[m - 1 : n]:  # else the child stays as it was
                        # bytes + bytearray is bytes: the child keeps its type.
                        child = child[: m - 1] + segment + child[n:]
                        value = None
                add((score(child) if value is None else value, child))
        # Elitist truncation over survivors plus offspring; the sort is stable.
        population.sort(key=by_fitness, reverse=True)
        del population[size:]
        history.append(population[0][0])

    best = [g if g <= n_tasks else n_tasks - g for g in population[0][1]]
    validate_chromosome(best, n_robots, n_tasks)
    return best, history
