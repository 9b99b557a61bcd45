"""Reference pieces of the allocator for tests.

`gene_pool` is the full gene multiset of the public encoding: task
indices 1..K and delimiters -1..-(N-1). `fitness` scores one chromosome
from scratch: it checks the genes and builds the heuristic table on every
call, then applies the scorer that `allocator.evolve` uses. `scorer`
builds that function once per instance, for loops over many chromosomes
known to be valid. Both take chromosomes in
the public encoding (negative delimiters) and write each one in `evolve`'s
gene code (`encode`) before scoring it.

`evolve` is the generational loop written without shortcuts: every pair
of parents is crossed, even when their genes are equal, and every number
is drawn through `random.Random`'s own methods: parents through `choices`,
cut points through `randint`, and the initial chromosomes
(`random_chromosome`) and the scramble mutation (`mutate`) through
`shuffle`, and every child is scored. `allocator.evolve` skips the
crossover of equal parents, skips the scoring of a child equal to one of
its parents (it takes that parent's score) and of a child whose scramble
left its segment as it was (it keeps its score), and writes out CPython's
arithmetic for each draw; tests check that it returns exactly what this
loop returns. This loop crosses public lists, so it does not share
`allocator.evolve`'s gene code or its bytes chromosomes.
"""

import random
from itertools import accumulate
from operator import itemgetter

from warefleet.allocator import (
    PARENT_FRACTION,
    GAConfig,
    HeuristicStore,
    _scorer,
    crossover,
    validate_chromosome,
)
from warefleet.errors import ConfigurationError


def encode(genes, n_tasks: int) -> list[int]:
    """A public chromosome in evolve's gene code: delimiter -d is gene n_tasks + d."""
    return [g if g > 0 else n_tasks - g for g in genes]


def scorer(starts, tasks, store: HeuristicStore):
    """The fitness function of one instance, for valid public chromosomes."""
    n_tasks = len(tasks)
    score = _scorer(store.table([*starts, *tasks], n_tasks), len(starts), n_tasks)
    return lambda genes: score(encode(genes, n_tasks))


def fitness(genes, starts, tasks, store: HeuristicStore) -> float:
    """Reciprocal of the estimated average-per-task plus bottleneck-per-task distance."""
    score = scorer(starts, tasks, store)
    validate_chromosome(genes, len(starts), len(tasks))
    return score(genes)


def gene_pool(n_robots: int, n_tasks: int) -> list[int]:
    """The full gene multiset: task indices 1..K plus delimiters -1..-(N-1)."""
    return list(range(1, n_tasks + 1)) + [-d for d in range(1, n_robots)]


def random_chromosome(n_robots: int, n_tasks: int, rng: random.Random):
    genes = gene_pool(n_robots, n_tasks)
    rng.shuffle(genes)
    return genes


def mutate(genes, m: int, n: int, rng: random.Random):
    """Scramble mutation: randomly permute the 1-based gene range m..n."""
    if not 1 <= m <= n <= len(genes):
        raise ConfigurationError(f"scramble range ({m}, {n}) invalid for length {len(genes)}")
    child = list(genes)
    segment = child[m - 1 : n]
    rng.shuffle(segment)
    child[m - 1 : n] = segment
    return child


def _pick_parent_indices(rng, cum_weights):
    # Rank-weighted draw over the pool; the two parents are forced distinct.
    indices = range(len(cum_weights))
    first = rng.choices(indices, cum_weights=cum_weights)[0]
    second = first
    while second == first:
        second = rng.choices(indices, cum_weights=cum_weights)[0]
    return first, second


def evolve(cfg: GAConfig, starts, tasks, store: HeuristicStore, seed: int):
    n_robots = len(starts)
    n_tasks = len(tasks)
    score = scorer(starts, tasks, store)
    rng = random.Random(seed)
    by_fitness = itemgetter(0)

    initial = [random_chromosome(n_robots, n_tasks, rng) for _ in range(cfg.population_size)]
    population = [(score(genes), genes) for genes in initial]
    population.sort(key=by_fitness, reverse=True)
    history = [population[0][0]]

    length = n_robots + n_tasks - 1
    pool_size = max(2, min(cfg.population_size, round(cfg.population_size * PARENT_FRACTION)))
    cum_weights = list(accumulate(pool_size - r for r in range(pool_size)))

    for _ in range(cfg.max_generations):
        children = []
        while len(children) < cfg.population_size:
            a, b = _pick_parent_indices(rng, cum_weights)
            p1, p2 = population[a][1], population[b][1]
            i = rng.randint(1, length)
            j = rng.randint(i, length)
            for child in (crossover(p1, p2, i, j), crossover(p2, p1, i, j)):
                if rng.random() < cfg.mutation_probability:
                    m = rng.randint(1, length)
                    n = rng.randint(m, length)
                    child = mutate(child, m, n, rng)
                children.append((score(child), child))
        population += children
        population.sort(key=by_fitness, reverse=True)
        del population[cfg.population_size :]
        history.append(population[0][0])

    best = population[0][1]
    validate_chromosome(best, n_robots, n_tasks)
    return best, history
