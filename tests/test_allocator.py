import itertools
import math
import random
import re
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

import allocator_oracle
from allocator_oracle import encode, gene_pool, mutate, random_chromosome
from warefleet.allocator import (
    GAConfig,
    HeuristicStore,
    ZERO_DISTANCE_FITNESS,
    crossover,
    decode,
    _draws,
    _scorer,
    evolve,
)
from warefleet.engine import Scenario, run_scenario
from warefleet.errors import ConfigurationError
from warefleet.gridworld import Position

# The parents of the worked crossover example (acceptance criterion 1).
PARENT_1 = [3, -2, 1, 2, 5, 6, 4, -1, 7, -3]
PARENT_2 = [6, 2, -1, 4, 3, -3, 7, -2, 5, 1]


def test_decode_leading_delimiters():
    assert decode([-1, -2, -3, 1, 2], 4) == [[], [], [], [1, 2]]
    assert decode([-1, -2, 1], 3) == [[], [], [1]]


def test_decode_single_robot():
    assert decode([2, 1, 3], 1) == [[2, 1, 3]]


def test_decode_rejects_malformed():
    with pytest.raises(ConfigurationError):
        decode([1, 2, 2, -1], 2)  # duplicate task
    with pytest.raises(ConfigurationError):
        decode([1, 2, 3], 2)  # missing delimiter
    with pytest.raises(ConfigurationError):
        decode([1, 0, 2, -1], 2)  # zero gene
    with pytest.raises(ConfigurationError):
        decode([1, 3, -1], 2)  # tasks are not 1..K
    with pytest.raises(ConfigurationError, match="expected 2 distinct delimiter genes"):
        decode([1, -1, -1], 3)  # repeated delimiter


def test_fitness_single_leg():
    starts = [Position(0, 0)]
    tasks = [Position(10, 0)]
    store = HeuristicStore()
    assert allocator_oracle.fitness([1], starts, tasks, store) == pytest.approx(0.05)


def test_fitness_idle_robot():
    # Robot 1 runs both tasks for an estimated 10 cells; robot 2 stays idle.
    starts = [Position(0, 0), Position(50, 50)]
    tasks = [Position(4, 0), Position(4, 6)]
    store = HeuristicStore()
    genes = [1, 2, -1]
    # d(start1, t1) = 4, d(t1, t2) = 6
    assert allocator_oracle.fitness(genes, starts, tasks, store) == pytest.approx(2 / 15)


def _straight_fitness(genes, starts, tasks, leg):
    """Oracle: decode by hand and evaluate the two cost pieces directly, with
    leg(a, b) as the distance of one leg. Legs and robots' totals are added
    left to right, as the scorer adds them on every Python version."""
    routes = [[]]
    for g in genes:
        routes.append([]) if g < 0 else routes[-1].append(g)
    totals = []
    for start, route in zip(starts, routes):
        stops = [start] + [tasks[t - 1] for t in route]
        total = 0.0
        for a, b in zip(stops, stops[1:]):
            total += leg(a, b)
        totals.append(total)
    grand = 0.0
    for total in totals:
        grand += total
    n, k = len(starts), len(tasks)
    combined = grand / (k * n) + max(totals) / k
    return ZERO_DISTANCE_FITNESS if combined == 0.0 else 1.0 / combined


def test_fitness_matches_straight_reimplementation():
    rng = random.Random(5)
    store = HeuristicStore()
    for _ in range(25):
        n, k = 4, 7
        cells = rng.sample([(x, y) for x in range(30) for y in range(30)], n + k)
        starts = [Position(*c) for c in cells[:n]]
        tasks = [Position(*c) for c in cells[n:]]
        genes = random_chromosome(n, k, rng)
        expected = _straight_fitness(
            genes, starts, tasks, lambda a, b: abs(a.x - b.x) + abs(a.y - b.y)
        )
        assert allocator_oracle.fitness(genes, starts, tasks, store) == expected


# A 4x4 patch of cells makes coincident starts and tasks common; learned
# pairs may also name cells outside the instance.
cells_small = st.builds(Position, st.integers(0, 3), st.integers(0, 3))


@st.composite
def warm_instances(draw):
    n = draw(st.integers(1, 4))
    k = draw(st.integers(1, 6))
    points = draw(st.lists(cells_small, min_size=n + k, max_size=n + k))
    starts = points[:n]
    tasks = points[n:]
    store = HeuristicStore(eta=draw(st.sampled_from([0.25, 0.5, 1.0])))
    somewhere = st.one_of(st.sampled_from(points), cells_small)
    for a, b, realized in draw(
        st.lists(st.tuples(somewhere, somewhere, st.floats(0.0, 40.0)), max_size=10)
    ):
        store.learn(a, b, realized)
    genes = draw(st.permutations(gene_pool(n, k)))
    return starts, tasks, store, genes


def _coincident_instance(genes):
    # Every task on a start: the estimated cost is zero whatever was learned.
    store = HeuristicStore()
    store.learn(Position(0, 0), Position(3, 3), 9.0)
    starts = [Position(0, 0), Position(1, 1), Position(2, 2)]
    return starts, [Position(1, 1), Position(1, 1)], store, genes


@settings(deadline=None)
@given(warm_instances())
def test_heuristic_table_matches_estimate(instance):
    starts, tasks, store, _ = instance
    points = starts + tasks
    targets = points[len(starts) :]
    expected = [[store.estimate(p, q) for q in targets] for p in points]
    assert store.table(points, len(tasks)) == expected


@settings(deadline=None)
@given(warm_instances())
@example(_coincident_instance([-1, 1, 2, -2]))  # zero-distance sentinel
@example(_coincident_instance([-2, -1, 1, 2]))  # leading delimiters
@example(_coincident_instance([1, 2, -1, -2]))  # trailing delimiters, idle robots
def test_fitness_walk_matches_straight_oracle(instance):
    starts, tasks, store, genes = instance
    expected = _straight_fitness(genes, starts, tasks, store.estimate)
    assert allocator_oracle.fitness(genes, starts, tasks, store) == expected


def test_fitness_adds_robot_totals_left_to_right():
    # Each robot runs one leg, of 0.1, 0.2 and 0.3. Adding them left to right
    # scores 5.999999999999999; sum() of floats from Python 3.12 on compensates
    # and would score 6.0.
    table = [[0.1, 9, 9], [9, 0.2, 9], [9, 9, 0.3], [0, 9, 9], [9, 0, 9], [9, 9, 0]]
    grand = 0.1 + 0.2 + 0.3
    # [1, -1, 2, -2, 3] in evolve's gene code, where delimiter -d is gene 3 + d.
    assert _scorer(table, 3, 3)([1, 4, 2, 5, 3]) == 1 / (grand / 9 + 0.3 / 3)


def test_fitness_zero_distance_sentinel():
    starts = [Position(3, 3)]
    tasks = [Position(3, 3)]
    assert allocator_oracle.fitness([1], starts, tasks, HeuristicStore()) == ZERO_DISTANCE_FITNESS


def test_crossover_full_range_copies_parent():
    assert crossover(PARENT_1, PARENT_2, 1, len(PARENT_1)) == PARENT_1


def test_crossover_mirrored_roles():
    child2 = crossover(PARENT_2, PARENT_1, 3, 6)
    assert child2[2:6] == PARENT_2[2:6]
    assert Counter(child2) == Counter(PARENT_2)


def test_crossover_rejects_bad_cuts():
    with pytest.raises(ConfigurationError):
        crossover(PARENT_1, PARENT_2, 0, 4)
    with pytest.raises(ConfigurationError):
        crossover(PARENT_1, PARENT_2, 7, 6)
    with pytest.raises(ConfigurationError):
        crossover(PARENT_1, PARENT_2, 1, 11)
    # Cut points equal to integers, or between them, are not integers.
    for i, j in ((2.0, 3), (2, 3.5)):
        with pytest.raises(ConfigurationError, match=r"must be integers$"):
            crossover(PARENT_1, PARENT_2, i, j)


def test_crossover_rejects_a_cut_point_of_the_wrong_type():
    for i, j in (("2", 3), (2, None)):
        with pytest.raises(ConfigurationError, match=rf"^cut points \({i!r}, {j!r}\) must be integers$"):
            crossover(PARENT_1, PARENT_2, i, j)


def test_crossover_on_bytes_rejects_the_cut_points_a_list_rejects():
    # evolve crosses bytes in its gene code, where delimiter -d is gene 7 + d.
    b1, b2 = bytes(encode(PARENT_1, 7)), bytes(encode(PARENT_2, 7))
    for i, j in ((0, 4), (7, 6), (1, 11), (2.0, 3), (2, 3.5), ("2", 3), (2, None)):
        with pytest.raises(ConfigurationError) as on_list:
            crossover(PARENT_1, PARENT_2, i, j)
        with pytest.raises(ConfigurationError, match=f"^{re.escape(str(on_list.value))}$"):
            crossover(b1, b2, i, j)


@st.composite
def crossings(draw):
    """Two public parents of at most 255 genes and cut points i..j."""
    n = draw(st.integers(1, 100))
    k = draw(st.integers(1, 256 - n))
    pool = gene_pool(n, k)
    parent1 = draw(st.permutations(pool))
    parent2 = draw(st.one_of(st.just(parent1), st.permutations(pool)))
    i = draw(st.integers(1, len(pool)))
    j = draw(st.integers(i, len(pool)))
    return k, parent1, parent2, i, j


@given(crossings())
@example((7, PARENT_1, PARENT_2, 3, 6))
@example((255, list(range(1, 256)), list(range(255, 0, -1)), 1, 255))
def test_crossover_on_bytes_matches_the_list_crossover(crossing):
    k, parent1, parent2, i, j = crossing
    child = crossover(bytes(encode(parent1, k)), bytes(encode(parent2, k)), i, j)
    assert type(child) is bytes
    assert child == bytes(encode(crossover(parent1, parent2, i, j), k))


def test_mutate_single_point_is_identity():
    rng = random.Random(0)
    assert mutate(PARENT_1, 4, 4, rng) == PARENT_1


def test_mutate_full_range_seeded():
    genes = [3, 5, 1, -1, 4, 6, -2, 2, 7, -3]
    # Frozen output of the seeded shuffle; guards the scramble implementation.
    assert mutate(genes, 1, len(genes), random.Random(42)) == [2, -1, 1, 7, 6, -2, -3, 4, 3, 5]
    assert genes == [3, 5, 1, -1, 4, 6, -2, 2, 7, -3]  # input untouched


def test_mutate_keeps_multiset():
    rng = random.Random(9)
    for _ in range(50):
        m = rng.randint(1, len(PARENT_1))
        n = rng.randint(m, len(PARENT_1))
        child = mutate(PARENT_1, m, n, rng)
        assert Counter(child) == Counter(PARENT_1)
        assert child[: m - 1] == PARENT_1[: m - 1]
        assert child[n:] == PARENT_1[n:]


def test_mutate_rejects_bad_range():
    with pytest.raises(ConfigurationError):
        mutate(PARENT_1, 0, 3, random.Random(0))
    with pytest.raises(ConfigurationError):
        mutate(PARENT_1, 3, 2, random.Random(0))


def test_draws_consume_the_stream_as_random_does():
    # evolve draws through these copies of CPython's arithmetic; on the same
    # seed they must return what Random.randrange and Random.shuffle return
    # and leave the generator in the same state.
    bounds = [*range(1, 301), *(2**e + d for e in range(1, 65) for d in (-1, 0, 1) if 2**e + d > 0)]
    for seed in range(3):
        ours, theirs = random.Random(seed), random.Random(seed)
        below, shuffle = _draws(ours, 80)
        for n in bounds:
            assert below(n) == theirs.randrange(n), (seed, n)
        for length in range(81):
            mine, reference = list(range(length)), list(range(length))
            shuffle(mine)
            theirs.shuffle(reference)
            assert mine == reference, (seed, length)
        assert ours.getstate() == theirs.getstate()


cuts = st.integers(min_value=1, max_value=10)


@given(st.randoms(use_true_random=False), cuts, cuts)
def test_crossover_always_yields_permutation(rnd, i, j):
    if i > j:
        i, j = j, i
    pool = gene_pool(4, 7)
    p1 = list(pool)
    p2 = list(pool)
    rnd.shuffle(p1)
    rnd.shuffle(p2)
    child = crossover(p1, p2, i, j)
    assert sorted(child) == sorted(pool)


@given(st.permutations(gene_pool(4, 7)), cuts, cuts)
def test_crossover_of_equal_parents_is_the_parent(parent, i, j):
    # evolve relies on this to skip crossing equal parents.
    if i > j:
        i, j = j, i
    assert crossover(parent, list(parent), i, j) == parent
    assert crossover(parent, parent, i, j) == parent


def test_operator_fuzz_preserves_permutation():
    rng = random.Random(31337)
    n, k = 5, 9
    pool_sorted = sorted(gene_pool(n, k))
    population = [random_chromosome(n, k, rng) for _ in range(20)]
    length = n + k - 1
    for _ in range(10_000):
        if rng.random() < 0.5:
            p1, p2 = rng.sample(population, 2)
            i = rng.randint(1, length)
            j = rng.randint(i, length)
            child = crossover(p1, p2, i, j)
        else:
            m = rng.randint(1, length)
            n2 = rng.randint(m, length)
            child = mutate(rng.choice(population), m, n2, rng)
        assert sorted(child) == pool_sorted
        population[rng.randrange(len(population))] = child


def test_heuristic_store_defaults_and_learning():
    store = HeuristicStore(eta=0.5)
    a, b = Position(0, 0), Position(3, 4)
    assert store.estimate(a, b) == 7.0
    assert store.estimate(b, a) == 7.0
    assert store.estimate(a, a) == 0.0
    store.learn(a, b, 14.0)
    assert store.estimate(a, b) == pytest.approx(10.5)
    assert store.estimate(b, a) == pytest.approx(10.5)  # symmetric
    assert store.estimate(a, Position(1, 1)) == 2.0  # other pairs keep the 1-norm


def test_learn_examples():
    store = HeuristicStore(eta=0.5)
    a, b = Position(0, 0), Position(10, 0)
    # d-hat starts at 10; realized 14 moves it halfway.
    store.learn(a, b, 14.0)
    assert store.estimate(a, b) == pytest.approx(12.0)
    store.learn(a, b, 12.0)
    assert store.estimate(a, b) == pytest.approx(12.0)


def test_learn_rejects_negative_distance():
    store = HeuristicStore()
    for realized in (-1.0, math.nan, math.inf):
        with pytest.raises(ConfigurationError, match="^realized distance must be finite and >= 0"):
            store.learn(Position(0, 0), Position(1, 0), realized)
    assert store.estimate(Position(0, 0), Position(1, 0)) == 1.0


def test_learn_rejects_a_distance_that_is_not_a_number():
    store = HeuristicStore()
    with pytest.raises(ConfigurationError, match="^realized distance must be a number, got '3'$"):
        store.learn(Position(0, 0), Position(1, 0), "3")
    assert store.estimate(Position(0, 0), Position(1, 0)) == 1.0


def test_heuristic_store_rejects_a_learning_rate_that_is_not_a_number():
    with pytest.raises(ConfigurationError, match="^eta must be a number, got '0.5'$"):
        HeuristicStore("0.5")


def test_ga_config_rejects_a_mutation_probability_that_is_not_a_number():
    with pytest.raises(ConfigurationError, match="^mutation probability must be a number, got '0.2'$"):
        GAConfig(mutation_probability="0.2")


def test_ga_config_validation():
    with pytest.raises(ConfigurationError):
        GAConfig(population_size=1)
    with pytest.raises(ConfigurationError):
        GAConfig(mutation_probability=1.5)
    with pytest.raises(ConfigurationError, match="need at least one generation"):
        GAConfig(max_generations=0)
    # A float count would otherwise end in a TypeError inside evolve.
    for bad in (10.5, math.nan, 10.0):
        with pytest.raises(ConfigurationError, match=r"population size must be an integer, got "):
            GAConfig(population_size=bad)
        with pytest.raises(ConfigurationError, match=r"max generations must be an integer, got "):
            GAConfig(max_generations=bad)


def test_evolve_rejects_an_empty_fleet_or_task_list():
    cfg = GAConfig(population_size=4, max_generations=1)
    cell = [Position(1, 1)]
    for starts, tasks in (([], cell), (cell, [])):
        with pytest.raises(ConfigurationError, match="need at least one robot and one task"):
            evolve(cfg, starts, tasks, HeuristicStore(), 0)


def test_evolve_single_task_picks_nearest_robot():
    starts = [Position(0, 0), Position(10, 10), Position(40, 5)]
    tasks = [Position(12, 11)]
    store = HeuristicStore()
    cfg = GAConfig(population_size=10, max_generations=20)
    best, history = evolve(cfg, starts, tasks, store, 3)
    # Oracle: try the task on every robot.
    candidates = [
        allocator_oracle.fitness(genes, starts, tasks, store)
        for genes in ([1, -1, -2], [-1, 1, -2], [-1, -2, 1])
    ]
    assert history[-1] == max(candidates)
    assert decode(best, 3)[1] == [1]  # robot at (10,10) is closest


def test_evolve_rejects_bad_task_indices():
    # Gene t names the t-th task cell, so a gene outside 1..K names no task.
    starts = [Position(0, 0)]
    tasks = [Position(1, 1), Position(2, 2)]
    for genes in ([1, 3], [0, 1]):
        with pytest.raises(ConfigurationError, match=r"not a permutation of 1\.\.2"):
            allocator_oracle.fitness(genes, starts, tasks, HeuristicStore())


def test_evolve_history_is_monotone_and_deterministic():
    rng = random.Random(8)
    cells = rng.sample([(x, y) for x in range(40) for y in range(40)], 8)
    starts = [Position(*c) for c in cells[:2]]
    tasks = [Position(*c) for c in cells[2:]]
    cfg = GAConfig(population_size=30, max_generations=40)
    best_a, hist_a = evolve(cfg, starts, tasks, HeuristicStore(), 77)
    best_b, hist_b = evolve(cfg, starts, tasks, HeuristicStore(), 77)
    assert best_a == best_b
    assert hist_a == hist_b
    assert len(hist_a) == cfg.max_generations + 1
    assert all(x <= y for x, y in zip(hist_a, hist_a[1:]))


def test_evolve_no_variation_keeps_best_constant():
    starts = [Position(0, 0), Position(5, 5)]
    tasks = [Position(1, 0), Position(5, 6)]
    cfg = GAConfig(population_size=8, max_generations=10, mutation_probability=0.0)
    _, history = evolve(cfg, starts, tasks, HeuristicStore(), 1)
    # Crossover on a converged population reproduces its members, so once
    # variation is off the best plateaus after the initial climb.
    assert history[-1] == history[1] or history[-1] >= history[1]
    assert all(x <= y for x, y in zip(history, history[1:]))


def test_evolve_matches_exhaustive_on_small_instance():
    rng = random.Random(4)
    cells = rng.sample([(x, y) for x in range(25) for y in range(25)], 6)
    starts = [Position(*c) for c in cells[:2]]
    tasks = [Position(*c) for c in cells[2:]]
    store = HeuristicStore()
    score = allocator_oracle.scorer(starts, tasks, store)
    best_exhaustive = max(score(perm) for perm in itertools.permutations(gene_pool(2, 4)))
    cfg = GAConfig(population_size=60, max_generations=80)
    _, history = evolve(cfg, starts, tasks, store, 12)
    assert math.isclose(history[-1], best_exhaustive, rel_tol=1e-12)


def _steps(history):
    """(generation, value) at each change of the per-generation best: an exact,
    compact form of a history."""
    steps = []
    for generation, value in enumerate(history):
        if not steps or steps[-1][1] != value:
            steps.append((generation, value))
    return steps


# Frozen (best, history) of fixed-seed runs. Any change to the operators, the
# RNG stream, the survivor order or the fitness arithmetic shows here.
GOLDEN_COLD_BEST = [
    19, 40, 11, -16, 4, 3, 36, -15, -11, 8, 25, -2, 38, 18, -4, 37, 7, 34, 35, -14,
    14, -8, 15, 39, -12, 1, 33, -10, 16, 10, -3, 20, 28, -9, 9, 22, -13, 5, 24, -17,
    -1, 21, 12, 31, -19, 30, 32, -6, 2, 6, 29, -7, -5, 26, 27, 13, -18, 17, 23,
]
GOLDEN_COLD_STEPS = [
    (0, 0.12978585334198572), (1, 0.12982797792924375), (2, 0.1358464934623875),
    (5, 0.14845054741139357), (6, 0.1518314670715506), (7, 0.15527950310559008),
    (8, 0.1610305958132045), (11, 0.1628332994097293), (12, 0.16635475150758994),
    (14, 0.17006802721088435), (17, 0.17586282699494393), (19, 0.17957351290684626),
    (20, 0.196174595389897), (22, 0.21002887897085848), (23, 0.21024967148488832),
    (24, 0.21321961620469085), (25, 0.214190093708166), (26, 0.21499596882558453),
    (27, 0.21680216802168023), (28, 0.21745039412883937), (29, 0.21996150673632117),
    (30, 0.22099447513812154), (31, 0.22166805209199222), (32, 0.22271714922048996),
    (33, 0.22452989054167835), (34, 0.22522522522522526), (35, 0.22675736961451246),
    (36, 0.22701475595913734), (41, 0.22733731173628874), (43, 0.23001725129384704),
    (44, 0.2312807169702226), (45, 0.23303233323623654), (46, 0.2359882005899705),
    (48, 0.23682652457075193), (50, 0.23937761819269898), (56, 0.24096385542168672),
    (59, 0.24140012070006034), (77, 0.24191109767160568), (91, 0.24390243902439027),
    (92, 0.24539877300613502), (94, 0.24714241581711463), (96, 0.2794271742927),
    (98, 0.2857142857142857), (99, 0.2891217925551139), (103, 0.29304029304029305),
    (121, 0.2949852507374632), (149, 0.29739776951672864), (154, 0.29839612085042894),
    (156, 0.29895366218236175), (157, 0.2991772625280478), (158, 0.2995132909022838),
    (159, 0.2997377294866992),
]
GOLDEN_WARM_BEST = [1, 6, 4, -1, 2, 3, 5, -2]
GOLDEN_WARM_STEPS = [
    (0, 0.13953488372093023), (1, 0.15000000000000002), (2, 0.18556701030927833),
    (4, 0.19047619047619047), (6, 0.2), (7, 0.21951219512195122),
]
GOLDEN_SCENARIO_STEPS = [
    (0, 0.1111111111111111), (1, 0.13008130081300814), (2, 0.13852813852813853),
    (3, 0.1523809523809524), (5, 0.15384615384615385), (6, 0.16),
    (7, 0.16842105263157894), (9, 0.17777777777777778),
]


def test_evolve_matches_oracle_on_random_configs():
    # The oracle crosses every pair and draws parents through Random.choices.
    rng = random.Random(2718)
    cells = [Position(x, y) for x in range(12) for y in range(12)]
    for case in range(200):
        n, k = rng.randint(1, 5), rng.randint(1, 8)
        points = rng.sample(cells, n + k)
        starts = points[:n]
        tasks = points[n:]
        store = HeuristicStore(eta=0.5)
        if case % 2:
            for _ in range(rng.randint(1, 10)):
                a, b = rng.choice(points), rng.choice(points + cells[:3])
                store.learn(a, b, rng.uniform(0.0, 30.0))
        cfg = GAConfig(
            population_size=rng.randint(2, 12),
            max_generations=rng.randint(1, 8),
            mutation_probability=(0.0, 0.2, 1.0)[case % 3],
        )
        seed = rng.randrange(10**6)
        assert evolve(cfg, starts, tasks, store, seed) == allocator_oracle.evolve(
            cfg, starts, tasks, store, seed
        ), (case, cfg, seed)


@pytest.mark.parametrize(
    "n_robots, n_tasks, kind",
    [(55, 201, bytes), (56, 201, list), (120, 200, list)],
)
def test_evolve_matches_oracle_on_either_side_of_the_bytes_limit(monkeypatch, n_robots, n_tasks, kind):
    # evolve holds chromosomes as bytes up to N + K - 1 = 255 genes and as
    # lists above; the oracle crosses public lists at every size.
    rng = random.Random(n_robots * 1000 + n_tasks)
    cells = rng.sample([Position(x, y) for x in range(40) for y in range(40)], n_robots + n_tasks)
    starts, tasks = cells[:n_robots], cells[n_robots:]
    store = HeuristicStore(eta=0.5)
    for _ in range(200):
        a, b = rng.sample(cells, 2)
        store.learn(a, b, rng.uniform(0.0, 60.0))
    cfg = GAConfig(population_size=8, max_generations=6, mutation_probability=0.5)

    kinds = Counter()

    def typed_crossover(parent1, parent2, i, j):
        kinds[type(parent1), type(parent2)] += 1
        return crossover(parent1, parent2, i, j)

    monkeypatch.setattr("warefleet.allocator.crossover", typed_crossover)
    best, history = evolve(cfg, starts, tasks, store, 5)
    assert (best, history) == allocator_oracle.evolve(cfg, starts, tasks, store, 5)
    assert type(best) is list and min(best) == 1 - n_robots
    assert set(kinds) == {(kind, kind)}


def test_evolve_matches_oracle_at_benchmark_size(monkeypatch):
    # The full-strength GA at N=20, K=40 on a warm store whose learned
    # distances are not integers. Late generations cross equal parents and
    # make crossover children equal to a parent, which keep its score. The
    # count also shows that evolve calls crossover through the module global,
    # the name perfbench's tracer wraps.
    rng = random.Random(1809)
    cells = rng.sample([Position(x, y) for x in range(81) for y in range(80)], 60)
    starts, tasks = cells[:20], cells[20:]
    store = HeuristicStore(eta=0.5)
    for _ in range(300):
        a, b = rng.sample(cells, 2)
        store.learn(a, b, rng.uniform(0.0, 120.0))
    cfg = GAConfig(population_size=100, max_generations=200)

    crossings = Counter()

    def counted_crossover(parent1, parent2, i, j):
        child = crossover(parent1, parent2, i, j)
        crossings[child == parent1 or child == parent2] += 1
        return child

    monkeypatch.setattr("warefleet.allocator.crossover", counted_crossover)
    assert evolve(cfg, starts, tasks, store, 11) == allocator_oracle.evolve(
        cfg, starts, tasks, store, 11
    )
    assert crossings[True] > 100 and crossings[False] > 100, crossings


def test_evolve_golden(fig_layout):
    # Cold store, full-strength GA at the benchmark's N=20, K=40 size.
    rng = random.Random(2024)
    cells = rng.sample([(x, y) for x in range(81) for y in range(80)], 60)
    starts = [Position(*c) for c in cells[:20]]
    tasks = [Position(*c) for c in cells[20:]]
    cfg = GAConfig(population_size=100, max_generations=200)
    best, history = evolve(cfg, starts, tasks, HeuristicStore(), 7)
    assert best == GOLDEN_COLD_BEST
    assert len(history) == 201
    assert _steps(history) == GOLDEN_COLD_STEPS

    # Warm store: learned pairs (one between points absent here), the second
    # start on task 2's cell, and a far robot that the best leaves idle.
    starts = [Position(0, 0), Position(5, 5), Position(60, 60)]
    tasks = [
        Position(2, 3), Position(5, 5), Position(8, 1),
        Position(3, 9), Position(9, 9), Position(1, 7),
    ]
    store = HeuristicStore(eta=0.5)
    store.learn(starts[0], tasks[0], 11.0)
    store.learn(tasks[0], tasks[2], 20.0)
    store.learn(tasks[3], tasks[5], 3.0)
    store.learn(starts[1], tasks[4], 14.0)
    store.learn(tasks[1], tasks[4], 9.0)
    store.learn(Position(40, 40), Position(41, 41), 5.0)
    cfg = GAConfig(population_size=40, max_generations=60)
    best, history = evolve(cfg, starts, tasks, store, 11)
    assert best == GOLDEN_WARM_BEST
    assert decode(best, 3)[2] == []
    assert len(history) == 61
    assert _steps(history) == GOLDEN_WARM_STEPS

    # The allocator as the engine drives it.
    sc = Scenario(
        world=fig_layout, n_robots=4, n_tasks=8,
        ga=GAConfig(population_size=30, max_generations=40), seed=5,
    )
    _, report = run_scenario(sc)
    assert len(report.ga_history) == 41
    assert _steps(report.ga_history) == GOLDEN_SCENARIO_STEPS
