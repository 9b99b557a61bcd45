import gc
import hashlib
import math
import pickle
import random
import struct
from itertools import islice

import pytest
from hypothesis import given, settings, strategies as st

from warefleet.errors import ConfigurationError
from warefleet.gridworld import Position, generate_layout_sized
from warefleet.potential import (
    PotentialParams,
    PotentialTerm,
    _obstacle_field,
    term_sum,
    term_table,
)

from conftest import open_room, random_world, world_from
from gridworld_oracle import obstacle_cells
from potential_oracle import (
    GOAL,
    OBSTACLE,
    check_divergence_condition,
    dynamic_potential,
    excite,
    expected_potential,
    in_consistent_range,
    obstacle_repulsion,
    phi,
    phi_sensed,
    recursion_path,
    relax,
    static_potential_initial,
    update_neighborhood,
)

DEFAULTS = PotentialParams()


def test_params_reject_a_factor_that_is_not_a_number():
    with pytest.raises(ConfigurationError, match="^gamma must be a number, got '15'$"):
        PotentialParams(gamma="15")
    with pytest.raises(ConfigurationError, match="^alpha must be a number, got None$"):
        PotentialParams(alpha=None)


def test_params_validation():
    with pytest.raises(ConfigurationError):
        PotentialParams(gamma=1.0)
    with pytest.raises(ConfigurationError):
        PotentialParams(alpha=1.0)
    with pytest.raises(ConfigurationError):
        PotentialParams(alpha=-0.1)
    with pytest.raises(ConfigurationError):
        # Robot repulsion must stay finite when robots share a cell.
        PotentialParams(robot_terms=(PotentialTerm(0.1, 2, -2.0, offset=0.0),))
    with pytest.raises(ConfigurationError):
        # Goal attraction may not decrease with distance.
        PotentialParams(goal_terms=(PotentialTerm(1.0, 2, -1.0, offset=1.0),))
    with pytest.raises(ConfigurationError):
        # Obstacle repulsion may not increase with distance.
        PotentialParams(obstacle_terms=(PotentialTerm(1.0, 2, 2.0),))
    # Only the 1-norm, the 2-norm and the Chebyshev norm are defined.
    for p in (3, 0, 0.5, math.nan):
        with pytest.raises(ConfigurationError):
            PotentialParams(goal_terms=(PotentialTerm(1.0, p, 1.0),))
        with pytest.raises(ConfigurationError):
            PotentialParams(obstacle_terms=(PotentialTerm(0.1, p, -2.0, offset=1e-9),))
        with pytest.raises(ConfigurationError):
            PotentialParams(robot_terms=(PotentialTerm(0.1, p, -2.0, offset=1e-9),))
    for p in (1, 2, math.inf, 1.0, 2.0):
        PotentialParams(goal_terms=(PotentialTerm(1.0, p, 1.0),))
    # NaN fails every ordered comparison, so it slips past "< 0", and inf
    # passes "> 1": a non-finite number is rejected by its own check.
    for gamma in (math.inf, math.nan):
        with pytest.raises(ConfigurationError, match="excitation factor"):
            PotentialParams(gamma=gamma)
    for bad in (math.inf, -math.inf, math.nan):
        for term in (
            PotentialTerm(bad, 2, -2.0, offset=1e-9),
            PotentialTerm(0.1, 2, bad, offset=1e-9),
            PotentialTerm(0.1, 2, -2.0, offset=bad),
        ):
            for kind in ("obstacle_terms", "robot_terms"):
                with pytest.raises(ConfigurationError, match="invalid"):
                    PotentialParams(**{kind: (term,)})
        with pytest.raises(ConfigurationError, match="invalid goal term"):
            PotentialParams(goal_terms=(PotentialTerm(bad, math.inf, 1.0),))
    with pytest.raises(ConfigurationError, match="^sensor radius must be at least 2$"):
        PotentialParams(sensor_radius=1)
    # The radius sizes the field's tables, so a fraction or NaN cannot build one.
    for radius in (2.5, math.nan):
        with pytest.raises(ConfigurationError, match="^sensor radius must be an integer"):
            PotentialParams(sensor_radius=radius)


def test_params_accept_the_edges_of_their_ranges():
    PotentialParams(alpha=0.0)
    for kind, term in (
        ("goal", PotentialTerm(0.0, math.inf, 1.0)),
        ("obstacle", PotentialTerm(0.0, 2, -2.0, offset=1e-9)),
        ("robot", PotentialTerm(0.0, 2, -2.0, offset=1e-9)),
    ):
        PotentialParams(**{f"{kind}_terms": (term,)})
    PotentialParams(goal_terms=(PotentialTerm(1.0, math.inf, 0.0),))
    # A constant repulsion stays finite at distance 0, so it needs no offset.
    PotentialParams(robot_terms=(PotentialTerm(0.1, 2, 0.0, offset=0.0),))


def test_phi_goal_is_chebyshev_distance():
    assert phi(DEFAULTS, GOAL, Position(0, 0), Position(3, 4)) == 4.0
    assert phi(DEFAULTS, GOAL, Position(5, 5), Position(5, 5)) == 0.0
    assert term_sum(DEFAULTS.goal_terms, 3, 4) == 4.0
    assert term_sum(DEFAULTS.goal_terms, 0, 0) == 0.0


def test_phi_obstacle_at_unit_distance():
    expected = 0.1 * (1.0 + 1e-9) ** -2
    assert phi(DEFAULTS, OBSTACLE, Position(0, 0), Position(0, 1)) == expected
    assert term_sum(DEFAULTS.obstacle_terms, 0, 1) == expected
    assert expected == pytest.approx(0.1, rel=1e-8)


def test_phi_obstacle_at_zero_distance():
    assert phi(DEFAULTS, OBSTACLE, Position(2, 2), Position(2, 2)) == pytest.approx(1e17, rel=1e-9)


def test_phi_zero_base_negative_exponent_raises():
    params = PotentialParams(obstacle_terms=(PotentialTerm(0.1, 2, -2.0, offset=0.0),))
    with pytest.raises(ConfigurationError):
        phi(params, OBSTACLE, Position(1, 1), Position(1, 1))
    # The table stores the undefined entry as inf and the others as phi does.
    table = term_table(params.obstacle_terms, 3, 3)
    assert table[0][0] == math.inf
    assert table[1][2] == phi(params, OBSTACLE, Position(0, 0), Position(1, 2))


def test_phi_unknown_class():
    with pytest.raises(ConfigurationError):
        phi(DEFAULTS, "ghost", Position(0, 0), Position(1, 1))


def test_sensed_inside_and_outside():
    s = Position(10, 10)
    inside = Position(12, 10)  # Chebyshev 2 from s, within radius-1
    outside = Position(14, 10)  # Chebyshev 4 > radius
    assert phi_sensed(DEFAULTS, GOAL, s, inside) == phi(DEFAULTS, GOAL, s, inside)
    assert phi_sensed(DEFAULTS, GOAL, s, outside) == 0.0


def test_sensed_membership_matches_window_intersection():
    # Oracle: build each cross cell's sensing window as an explicit set and
    # intersect, then compare membership for every source in a large box.
    params = PotentialParams(sensor_radius=3)
    radius = params.sensor_radius
    s = Position(20, 20)
    cross = [s, Position(20, 19), Position(21, 20), Position(20, 21), Position(19, 20)]
    windows = []
    for c in cross:
        windows.append(
            {
                Position(x, y)
                for x in range(c.x - radius, c.x + radius + 1)
                for y in range(c.y - radius, c.y + radius + 1)
            }
        )
    region = set.intersection(*windows)
    for dx in range(-6, 7):
        for dy in range(-6, 7):
            source = Position(s.x + dx, s.y + dy)
            assert in_consistent_range(params, s, source) == (source in region)


def test_sensed_boundary_distance():
    params = PotentialParams(sensor_radius=3)
    s = Position(10, 10)
    boundary = Position(12, 12)  # Chebyshev 2 = radius - 1: farthest cross cell is at 3
    just_out = Position(13, 12)
    assert in_consistent_range(params, s, boundary)
    assert not in_consistent_range(params, s, just_out)
    assert phi_sensed(params, OBSTACLE, s, boundary) == phi(
        DEFAULTS, OBSTACLE, s, boundary
    )


TERMS_EVERY_NORM = (
    PotentialTerm(1.0, 1, 1.0),
    PotentialTerm(0.5, 2, 2.0, offset=0.25),
    PotentialTerm(0.1, math.inf, -2.0, offset=1e-9),
    PotentialTerm(0.3, 2, -1.0, offset=0.5),
)


@pytest.mark.parametrize(
    "term", TERMS_EVERY_NORM, ids=["p1", "p2-squared", "pinf-repulsive", "p2-repulsive"]
)
def test_term_table_matches_phi(term):
    if term.exponent >= 0:
        params, source_class = PotentialParams(goal_terms=(term, *DEFAULTS.goal_terms)), GOAL
        terms = params.goal_terms
    else:
        params, source_class = PotentialParams(obstacle_terms=(term, term)), OBSTACLE
        terms = params.obstacle_terms
    table = term_table(terms, 7, 5)
    assert (len(table), len(table[0])) == (7, 5)
    origin = Position(10, 10)
    for dx in range(7):
        for dy in range(5):
            # Bit-identical, from either side of the cell.
            assert table[dx][dy] == phi(params, source_class, origin, Position(10 + dx, 10 - dy))
            assert table[dx][dy] == phi(params, source_class, origin, Position(10 - dx, 10 + dy))


FIELD_TERMS = [DEFAULTS.obstacle_terms, (PotentialTerm(1.5, 1, -1.0),), TERMS_EVERY_NORM[2:]]


@pytest.mark.parametrize("obstacle_terms", FIELD_TERMS, ids=["default", "offset-0", "two-terms"])
@pytest.mark.parametrize("radius", [2, 3, 4])
def test_obstacle_field_matches_reference(obstacle_terms, radius):
    world = world_from([
        "##########",
        "#........#",
        "#.####...#",
        "#......#.#",
        "#.##.#.#.#",
        "#......#.#",
        "##########",
    ])
    params = PotentialParams(obstacle_terms=obstacle_terms, sensor_radius=radius)
    field = _obstacle_field(world, radius, obstacle_terms)
    assert set(field) == world.reachable
    for cell, value in field.items():
        assert value == obstacle_repulsion(world, params, cell)
    # Built once: later calls hand back the same dict.
    assert _obstacle_field(world, radius, obstacle_terms) is field
    # Keyed on the world's value: an equal copy, as a sweep worker unpickles
    # it for each task, finds the field after the original world is gone.
    copy = pickle.loads(pickle.dumps(world))
    del world
    gc.collect()
    assert _obstacle_field(copy, radius, obstacle_terms) is field


@settings(deadline=None, max_examples=60)
@given(
    st.randoms(use_true_random=False),
    st.booleans(),
    st.sampled_from([2, 3, 5, "extent", "beyond"]),
    st.sampled_from(FIELD_TERMS),
)
def test_obstacle_field_matches_the_oracle_cell_by_cell(rng, tiled, radius, obstacle_terms):
    # Tiled worlds repeat their boxes, so most cells, those in clipped boxes
    # along the walls too, read a sum that another cell's box computed.
    if tiled:
        world = generate_layout_sized(rng.randint(8, 30), rng.randint(8, 30))
    else:
        world = random_world(rng)
    extent = max(world.width, world.height)
    radius = {"extent": extent, "beyond": extent + rng.randint(1, 20)}.get(radius, radius)
    params = PotentialParams(obstacle_terms=obstacle_terms, sensor_radius=radius)
    field = _obstacle_field.__wrapped__(world, radius, obstacle_terms)
    assert list(field.items()) == [
        (cell, obstacle_repulsion(world, params, cell)) for cell in world.floor
    ]


def test_obstacle_field_bits_are_the_same_on_every_python():
    # Each box adds its obstacles left to right; sum() compensates float
    # additions from Python 3.12 on, which changed these bits there.
    world = generate_layout_sized(81, 80)
    field = _obstacle_field(world, 3, DEFAULTS.obstacle_terms)
    packed = struct.pack(f"{len(world.floor)}d", *map(field.__getitem__, world.floor))
    assert hashlib.sha256(packed).hexdigest() == (
        "b8dc70f04d0cd3dc664cae5e35b0b3169d3f6ad704305aec9f1ccaef90ba02f6"
    )
    # A box that senses no obstacle sums to the float 0.0.
    assert repr(_obstacle_field(open_room(9, 9), 2, DEFAULTS.obstacle_terms)[Position(4, 4)]) == "0.0"


def test_static_initial_at_goal_no_obstacles():
    room = open_room(20, 20)
    center = Position(10, 10)
    assert static_potential_initial(room, DEFAULTS, center, center) == 0.0


def test_static_initial_goal_plus_one_obstacle():
    room = open_room(20, 20)
    cell = Position(1, 10)  # wall to the west at unit distance, rest far
    goal = Position(6, 10)
    value = static_potential_initial(room, DEFAULTS, cell, goal)
    reach = DEFAULTS.sensor_radius - 1
    sensed = sorted(
        (o for o in obstacle_cells(room) if max(abs(o.x - cell.x), abs(o.y - cell.y)) <= reach),
        key=lambda o: (o.y, o.x),
    )
    assert sensed == [Position(0, y) for y in range(8, 13)]
    repulsion = sum(phi(DEFAULTS, OBSTACLE, cell, o) for o in sensed)
    assert value == phi(DEFAULTS, GOAL, cell, goal) + repulsion
    assert value > 5.0


def test_static_field_unique_minimum_at_goal():
    room = open_room(9, 9)  # 7x7 interior
    goal = Position(4, 4)
    field = {
        cell: static_potential_initial(room, DEFAULTS, cell, goal)
        for cell in room.reachable
    }
    best = min(field, key=field.get)
    assert best == goal
    assert sum(1 for v in field.values() if v == field[goal]) == 1
    assert all(v >= 0 for v in field.values())


def test_excite_and_relax_examples():
    assert excite(2.0, 15.0) == 30.0
    assert excite(0.0, 15.0) == 0.0
    assert excite(1.0, 1.95) == 1.95
    assert relax(30.0, 2.0, 0.05) == pytest.approx(28.6)
    assert relax(7.0, 7.0, 0.3) == pytest.approx(7.0)
    assert relax(12.5, 2.0, 0.0) == 12.5


@given(
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=1e6),
    st.floats(min_value=0.0, max_value=0.99),
)
def test_relax_is_contraction_toward_initial(u, u0, alpha):
    moved = relax(u, u0, alpha)
    assert abs(moved - u0) == pytest.approx((1 - alpha) * abs(u - u0), rel=1e-9, abs=1e-9)


def test_update_neighborhood_first_visit_initializes():
    room = open_room(9, 9)
    values = {}
    pos, goal = Position(4, 4), Position(7, 4)
    update_neighborhood(values, room, DEFAULTS, pos, goal)
    assert set(values) == {
        pos,
        Position(4, 3),
        Position(5, 4),
        Position(4, 5),
        Position(3, 4),
    }
    for cell in values:
        expected = static_potential_initial(room, DEFAULTS, cell, goal)
        assert values[cell] == expected


def test_update_neighborhood_excites_own_and_relaxes_rest():
    room = open_room(9, 9)
    values = {}
    pos, goal = Position(4, 4), Position(7, 4)
    update_neighborhood(values, room, DEFAULTS, pos, goal)
    east = Position(5, 4)
    values[east] = 10.0  # pretend it was excited earlier
    own_before = values[pos]
    update_neighborhood(values, room, DEFAULTS, pos, goal)
    assert values[pos] == 15.0 * own_before
    east_initial = static_potential_initial(room, DEFAULTS, east, goal)
    assert values[east] == pytest.approx(0.95 * 10.0 + 0.05 * east_initial)


def test_update_neighborhood_repeated_stays_grow_geometrically():
    room = open_room(9, 9)
    values = {}
    pos = Position(4, 4)
    goal = Position(6, 4)
    update_neighborhood(values, room, DEFAULTS, pos, goal)
    values[pos] = 2.0
    seen = []
    for _ in range(3):
        update_neighborhood(values, room, DEFAULTS, pos, goal)
        seen.append(values[pos])
    assert seen == [30.0, 450.0, 6750.0]


def test_update_neighborhood_touches_only_neighborhood():
    room = open_room(12, 12)
    values = {}
    goal = Position(10, 10)
    update_neighborhood(values, room, DEFAULTS, Position(3, 3), goal)
    snapshot = dict(values)
    update_neighborhood(values, room, DEFAULTS, Position(4, 3), goal)
    touched = {
        Position(4, 3),
        Position(4, 2),
        Position(5, 3),
        Position(4, 4),
        Position(3, 3),
    }
    for cell, value in snapshot.items():
        if cell not in touched:
            assert values[cell] == value


def test_dynamic_potential_cases():
    s = Position(10, 10)
    assert dynamic_potential(DEFAULTS, s, []) == 0.0
    far = [Position(30, 30)]
    assert dynamic_potential(DEFAULTS, s, far) == 0.0
    one_away = [Position(10, 11)]
    assert dynamic_potential(DEFAULTS, s, one_away) == pytest.approx(1e-3, rel=1e-6)
    colocated = [Position(10, 10)]
    assert dynamic_potential(DEFAULTS, s, colocated) == pytest.approx(1e15, rel=1e-9)


def test_divergence_condition_examples():
    assert check_divergence_condition(0.5, 15.0, 0.05) is True
    # Exactly on the threshold: the expected-growth ratio is 1, not above it.
    assert check_divergence_condition(0.05, 1.95, 0.05) is False
    assert check_divergence_condition(0.01, 15.0, 0.05) is True
    with pytest.raises(ConfigurationError):
        check_divergence_condition(0.0, 15.0, 0.05)
    with pytest.raises(ConfigurationError):
        check_divergence_condition(1.0, 15.0, 0.05)


def test_expected_potential_matches_monte_carlo():
    # Moderate parameters keep the trial variance small enough for a tight
    # mean comparison at 10^4 trials.
    p, gamma, alpha, u0, steps = 0.5, 1.3, 0.2, 2.0, 12
    rng = random.Random(1234)
    trials = 10_000
    paths = (list(islice(recursion_path(p, gamma, alpha, u0, rng), steps)) for _ in range(trials))
    mean = sum(path[-1] for path in paths) / trials
    assert mean == pytest.approx(expected_potential(steps, p, gamma, alpha, u0), rel=0.05)


def test_divergent_case_grows_in_simulation():
    # Expected-growth ratio just above 1: a long seeded run must both spike
    # past 10x the initial value and keep a time-average well above it.
    p, gamma, alpha, u0 = 0.01, 15.0, 0.05, 2.0
    assert check_divergence_condition(p, gamma, alpha)
    steps = 100_000
    path = list(islice(recursion_path(p, gamma, alpha, u0, random.Random(7)), steps))
    assert max(path) > 10 * u0
    assert sum(path) / steps > 2 * u0


@pytest.mark.parametrize("kind", ["goal", "obstacle", "robot"])
@pytest.mark.parametrize(
    "part, term",
    [
        ("coefficient", PotentialTerm("1", 1, 1.0)),
        ("exponent", PotentialTerm(1.0, 1, "-1")),
        ("offset", PotentialTerm(1.0, 1, 1.0, None)),
    ],
)
def test_params_reject_a_term_part_that_is_not_a_number(kind, part, term):
    value = getattr(term, part)
    with pytest.raises(ConfigurationError, match=f"^{kind} term {part} must be a number, got {value!r}$"):
        PotentialParams(**{f"{kind}_terms": (term,)})
