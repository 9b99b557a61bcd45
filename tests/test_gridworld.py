import math
import pickle

import pytest
from hypothesis import given, strategies as st

from warefleet.errors import ConfigurationError, DomainError, LoadError
from warefleet.gridworld import (
    GridWorld,
    Position,
    adjacent_neighborhood,
    distance,
    generate_layout,
    generate_layout_sized,
    neighborhood,
    parse_layout,
    serialize_layout,
)

from conftest import flood_fill_components, open_room, world_from


def test_distance_examples():
    a, b = Position(0, 0), Position(3, 4)
    assert distance(a, b, 1) == 7
    assert distance(a, b, 2) == 5
    assert distance(a, b, math.inf) == 4
    assert distance(Position(2, 2), Position(2, 2), 1) == 0


def test_distance_rejects_unknown_norm():
    with pytest.raises(ConfigurationError):
        distance(Position(0, 0), Position(1, 1), 3)


coords = st.integers(min_value=-50, max_value=50)
points = st.tuples(coords, coords).map(lambda t: Position(*t))


@given(points, points, points, st.sampled_from([1, 2, math.inf]))
def test_metric_axioms(a, b, c, p):
    assert distance(a, b, p) >= 0
    assert (distance(a, b, p) == 0) == (a == b)
    assert distance(a, b, p) == distance(b, a, p)
    assert distance(a, c, p) <= distance(a, b, p) + distance(b, c, p) + 1e-9


def test_neighborhood_open_interior():
    w = open_room(5, 5)
    center = Position(2, 2)
    assert neighborhood(w, center) == {
        center,
        Position(2, 1),
        Position(3, 2),
        Position(2, 3),
        Position(1, 2),
    }


def test_neighborhood_against_wall():
    w = open_room(5, 5)
    assert len(neighborhood(w, Position(1, 2))) == 4


def test_neighborhood_fully_walled():
    w = world_from([
        "#####",
        "##.##",
        "#...#",
        "##.##",
        "#####",
    ])
    # Corner-ish cell (1,2) has one open neighbor; the center has four.
    assert neighborhood(w, Position(2, 2)) == {
        Position(2, 2),
        Position(2, 1),
        Position(3, 2),
        Position(2, 3),
        Position(1, 2),
    }
    w2 = world_from([
        "###",
        "#.#",
        "###",
    ])
    assert neighborhood(w2, Position(1, 1)) == {Position(1, 1)}


def test_neighborhood_requires_reachable_cell():
    w = open_room(5, 5)
    with pytest.raises(DomainError):
        neighborhood(w, Position(0, 0))
    with pytest.raises(DomainError):
        adjacent_neighborhood(w, Position(0, 0))


def test_adjacent_neighborhood():
    w = open_room(5, 5)
    center = Position(2, 2)
    assert adjacent_neighborhood(w, center) == neighborhood(w, center) - {center}
    w2 = world_from(["###", "#.#", "###"])
    assert adjacent_neighborhood(w2, Position(1, 1)) == set()


def test_neighborhood_sizes_bounded(fig_layout):
    for cell in fig_layout.reachable:
        n = neighborhood(fig_layout, cell)
        assert 1 <= len(n) <= 5
        assert adjacent_neighborhood(fig_layout, cell) == n - {cell}


def test_generate_layout_small_pattern(fig_layout):
    assert (fig_layout.width, fig_layout.height) == (20, 22)
    assert generate_layout(3, 4) == fig_layout  # deterministic
    lattice = {Position(x, y) for x in range(20) for y in range(22)}
    assert fig_layout.reachable | fig_layout.obstacles == lattice
    assert not fig_layout.reachable & fig_layout.obstacles


def test_generate_layout_sized_benchmark_dimensions():
    w = generate_layout_sized(81, 80)
    assert (w.width, w.height) == (81, 80)
    assert flood_fill_components(w) == 1


def test_generate_layout_connected_smallest():
    w = generate_layout(1, 1)
    assert flood_fill_components(w) == 1


def test_generate_layout_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        generate_layout(0, 4)
    with pytest.raises(ConfigurationError):
        generate_layout_sized(3, 3)


def test_boundary_cells_are_walls(fig_layout):
    for x in range(fig_layout.width):
        assert Position(x, 0) in fig_layout.obstacles
        assert Position(x, fig_layout.height - 1) in fig_layout.obstacles
    for y in range(fig_layout.height):
        assert Position(0, y) in fig_layout.obstacles
        assert Position(fig_layout.width - 1, y) in fig_layout.obstacles


def test_parse_minimal_document():
    w = parse_layout("###\n#.#\n###\n")
    assert w.reachable == {Position(1, 1)}


def test_parse_rejects_unknown_glyph():
    with pytest.raises(LoadError) as err:
        parse_layout("###\n#X#\n###\n")
    assert err.value.line == 2
    assert err.value.column == 2


def test_parse_rejects_ragged_rows():
    with pytest.raises(LoadError) as err:
        parse_layout("###\n##\n###\n")
    assert err.value.line == 2


def test_parse_rejects_open_boundary():
    with pytest.raises(LoadError):
        parse_layout("###\n..#\n###\n")
    with pytest.raises(LoadError):
        parse_layout(".##\n#.#\n###\n")


def test_parse_rejects_empty():
    with pytest.raises(LoadError):
        parse_layout("")


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (3, 4)])
def test_serialize_parse_round_trip(rows, cols):
    world = generate_layout(rows, cols)
    assert parse_layout(serialize_layout(world)) == world


def test_serialize_parse_round_trip_sized():
    world = generate_layout_sized(33, 27)
    assert parse_layout(serialize_layout(world)) == world


def test_gridworld_rejects_bad_partition():
    with pytest.raises(ConfigurationError):
        GridWorld(4, 4, [Position(0, 0)])  # unwalled boundary
    with pytest.raises(ConfigurationError):
        GridWorld(4, 4, [Position(9, 9)])  # obstacle off the lattice


def test_world_is_a_value():
    world = generate_layout_sized(21, 20)
    copy = pickle.loads(pickle.dumps(world))
    assert copy is not world and copy == world and hash(copy) == hash(world)
    moved = GridWorld(21, 20, world.obstacles - {Position(3, 3)} | {Position(1, 1)})
    assert moved != world
    # Same cell count and walls, other shape.
    assert open_room(4, 6) != open_room(6, 4)
