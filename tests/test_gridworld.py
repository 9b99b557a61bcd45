import math
import pickle

import pytest
from hypothesis import given, reject, settings, strategies as st

from warefleet.errors import ConfigurationError, LoadError
from warefleet.gridworld import (
    GridWorld,
    Position,
    generate_layout_sized,
    parse_layout,
    serialize_layout,
)

from conftest import flood_fill_components, open_room, random_world, world_from
from gridworld_oracle import obstacle_cells, walk_lattice
from potential_oracle import distance


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
    assert w.adjacency[Position(2, 2)] == (
        Position(2, 1),
        Position(3, 2),
        Position(2, 3),
        Position(1, 2),
    )


def test_neighborhood_against_wall():
    w = open_room(5, 5)
    assert w.adjacency[Position(1, 2)] == (Position(1, 1), Position(2, 2), Position(1, 3))


def test_neighborhood_fully_walled():
    w = world_from([
        "#####",
        "##.##",
        "#...#",
        "##.##",
        "#####",
    ])
    # Corner-ish cell (1,2) has one open neighbor; the center has four.
    assert w.adjacency[Position(2, 2)] == (
        Position(2, 1),
        Position(3, 2),
        Position(2, 3),
        Position(1, 2),
    )
    assert w.adjacency[Position(1, 2)] == (Position(2, 2),)
    w2 = world_from([
        "###",
        "#.#",
        "###",
    ])
    assert w2.adjacency[Position(1, 1)] == ()


def test_neighborhood_requires_reachable_cell():
    w = open_room(5, 5)
    assert Position(0, 0) not in w.reachable
    with pytest.raises(KeyError):
        w.adjacency[Position(0, 0)]
    assert not any(n in obstacle_cells(w) for steps in w.adjacency.values() for n in steps)


def test_adjacent_neighborhood():
    w = open_room(5, 5)
    assert w.adjacency[Position(1, 1)] == (Position(2, 1), Position(1, 2))
    assert w.adjacency[Position(3, 3)] == (Position(3, 2), Position(2, 3))
    assert w.adjacency[Position(3, 1)] == (Position(3, 2), Position(2, 1))


def test_neighborhood_sizes_bounded(fig_layout):
    assert fig_layout.reachable == set(fig_layout.adjacency)
    for cell in fig_layout.reachable:
        steps = ((0, -1), (1, 0), (0, 1), (-1, 0))  # up, right, down, left
        expected = tuple(
            Position(cell.x + dx, cell.y + dy)
            for dx, dy in steps
            if Position(cell.x + dx, cell.y + dy) not in obstacle_cells(fig_layout)
        )
        assert fig_layout.adjacency[cell] == expected
        assert len(expected) <= 4


def test_generate_layout_small_pattern(fig_layout):
    assert (fig_layout.width, fig_layout.height) == (20, 22)
    assert generate_layout_sized(20, 22) == fig_layout  # deterministic
    lattice = {Position(x, y) for x in range(20) for y in range(22)}
    assert fig_layout.reachable | obstacle_cells(fig_layout) == lattice
    assert not fig_layout.reachable & obstacle_cells(fig_layout)


def test_generate_layout_sized_benchmark_dimensions():
    w = generate_layout_sized(81, 80)
    assert (w.width, w.height) == (81, 80)
    assert flood_fill_components(w) == 1


def test_generate_layout_connected_smallest():
    w = generate_layout_sized(8, 10)  # one shelf block
    assert flood_fill_components(w) == 1


@settings(deadline=None)
@given(
    st.integers(3, 40), st.integers(3, 40),
    st.integers(1, 4), st.integers(1, 4), st.integers(1, 4),
)
def test_generated_layout_is_one_component(width, height, shelf_width, shelf_height, aisle):
    # Every shelf block has an aisle on all four sides, so the generator
    # needs no connectivity check of its own.
    try:
        world = generate_layout_sized(
            width, height, shelf_width=shelf_width, shelf_height=shelf_height, aisle=aisle
        )
    except ConfigurationError:
        reject()
    assert flood_fill_components(world) == 1


def test_generate_layout_rejects_degenerate():
    with pytest.raises(ConfigurationError):
        generate_layout_sized(20, 22, shelf_width=0)
    with pytest.raises(ConfigurationError):
        generate_layout_sized(3, 3)
    # A size that is not an int is an error, even one equal to an int.
    sizes = {"width": 21, "height": 20, "shelf_width": 2, "shelf_height": 4, "aisle": 2}
    for bad in (10.5, math.nan, 3.0):
        for size in sizes:
            with pytest.raises(ConfigurationError, match=f"^{size.replace('_', ' ')} must be an"):
                generate_layout_sized(**{**sizes, size: bad})


def test_generate_layout_sized_tiles_whole_blocks():
    # One 2x4 block inside 2-cell aisles fills an 8x10 floor exactly.
    assert serialize_layout(generate_layout_sized(8, 10)).split() == [
        "########",
        "#......#",
        "#......#",
        "#..##..#",
        "#..##..#",
        "#..##..#",
        "#..##..#",
        "#......#",
        "#......#",
        "########",
    ]
    # A size off the tile pitch widens the trailing corridor instead.
    w = generate_layout_sized(11, 10, shelf_width=1, shelf_height=2, aisle=1)
    assert serialize_layout(w).split() == [
        "###########",
        "#.........#",
        "#.#.#.#.#.#",
        "#.#.#.#.#.#",
        "#.........#",
        "#.#.#.#.#.#",
        "#.#.#.#.#.#",
        "#.........#",
        "#.........#",
        "###########",
    ]


def test_reachable_is_a_view_of_the_adjacency_keys(fig_layout):
    assert "reachable" not in GridWorld.__slots__
    assert fig_layout.reachable == fig_layout.adjacency.keys()
    assert len(fig_layout.reachable) == 20 * 22 - fig_layout.grid.count(1)
    assert Position(1, 1) in fig_layout.reachable
    assert sorted(fig_layout.reachable)[0] == Position(1, 1)
    with pytest.raises(AttributeError):
        fig_layout.reachable = frozenset()


def test_floor_lists_the_reachable_cells_in_sorted_order(fig_layout):
    # Placement draws index this sequence, so its order is part of every
    # fixed-seed result.
    room = parse_layout("####\n#..#\n#..#\n####\n")
    for world in (fig_layout, generate_layout_sized(21, 20), room):
        assert world.floor == tuple(sorted(world.reachable))
        copy = pickle.loads(pickle.dumps(world))
        assert copy.floor == world.floor
        # The floor's own objects, as the adjacency holds them.
        keys = {c: c for c in copy.adjacency}
        assert all(keys[cell] is cell for cell in copy.floor)


def test_boundary_cells_are_walls(fig_layout):
    walls = obstacle_cells(fig_layout)
    for x in range(fig_layout.width):
        assert Position(x, 0) in walls
        assert Position(x, fig_layout.height - 1) in walls
    for y in range(fig_layout.height):
        assert Position(0, y) in walls
        assert Position(fig_layout.width - 1, y) in walls


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
    with pytest.raises(LoadError) as err:
        parse_layout("###\n..#\n###\n")
    assert (err.value.line, err.value.column) == (2, 1)
    with pytest.raises(LoadError) as err:
        parse_layout(".##\n#.#\n###\n")
    assert (err.value.line, err.value.column) == (1, 1)
    # An open top-row cell and an open left-column cell on a later row:
    # the first fault in reading order is named.
    with pytest.raises(LoadError) as err:
        parse_layout("#.##\n#..#\n...#\n####\n")
    assert (err.value.line, err.value.column) == (1, 2)


def test_parse_rejects_empty():
    with pytest.raises(LoadError):
        parse_layout("")


def test_parse_ignores_trailing_blank_lines():
    assert parse_layout("###\n#.#\n###\n\n\n") == parse_layout("###\n#.#\n###\n")


def test_parse_splits_lines_only_at_universal_newlines():
    world = parse_layout("###\n#.#\n###\n")
    for newline in "\r\n", "\r":
        assert parse_layout(newline.join(["###", "#.#", "###", ""])) == world
    # str.splitlines would end the third row at each of these and call the
    # row ragged; it is one row holding an unknown glyph.
    for separator in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        with pytest.raises(LoadError, match="^unknown glyph ") as err:
            parse_layout(f"#####\n#...#\n#{separator}..#\n#####\n")
        assert (err.value.line, err.value.column) == (3, 2)


@pytest.mark.parametrize("rows,cols", [(1, 1), (2, 3), (3, 4)])
def test_serialize_parse_round_trip(rows, cols):
    # rows x cols blocks of the default 2x4 shelves with 2-cell aisles
    world = generate_layout_sized(4 + 4 * cols, 4 + 6 * rows)
    assert parse_layout(serialize_layout(world)) == world


def test_serialize_parse_round_trip_sized():
    world = generate_layout_sized(33, 27)
    assert parse_layout(serialize_layout(world)) == world


@settings(deadline=None, max_examples=100)
@given(st.randoms(use_true_random=False))
def test_serialize_random_layout_matches_cell_walk(rng):
    # Unlike the tiled worlds above, random layouts do not repeat rows.
    world = random_world(rng)
    text = serialize_layout(world)
    assert text == "".join(
        "".join("#" if Position(x, y) in obstacle_cells(world) else "." for x in range(world.width))
        + "\n"
        for y in range(world.height)
    )
    assert parse_layout(text) == world


def _walls(width, height):
    """The grid of a walled lattice with an empty interior."""
    return bytes(
        x in (0, width - 1) or y in (0, height - 1) for y in range(height) for x in range(width)
    )


def _with(grid, width, cells):
    """grid with each (x, y): byte of cells written into it."""
    grid = bytearray(grid)
    for (x, y), byte in cells.items():
        grid[y * width + x] = byte
    return bytes(grid)


def test_gridworld_rejects_bad_partition():
    walls = _walls(4, 4)
    with pytest.raises(ConfigurationError):
        GridWorld(4, 4, _with(walls, 4, {(0, 0): 0}))  # unwalled boundary
    with pytest.raises(ConfigurationError):
        GridWorld(4, 4, walls + b"\x01")  # a byte off the lattice
    for bad in (10.5, math.nan, 3.0):
        with pytest.raises(ConfigurationError, match="^width must be an integer"):
            GridWorld(bad, 5, walls)
        with pytest.raises(ConfigurationError, match="^height must be an integer"):
            GridWorld(5, bad, walls)


def test_gridworld_errors_name_the_fault():
    walls = _walls(4, 4)
    with pytest.raises(ConfigurationError, match=r"^boundary cell \(1,0\) is not a wall$"):
        GridWorld(4, 4, _with(walls, 4, {(3, 2): 0, (1, 0): 0}))
    with pytest.raises(ConfigurationError, match=r"^grid of 17 bytes for a 4x4 lattice of 16 cells$"):
        GridWorld(4, 4, walls + b"\x01")
    # A layout document is not a grid: its glyphs are bytes other than 0 and 1.
    with pytest.raises(ConfigurationError, match=r"^grid byte 35 at \(0,0\) is neither 0 nor 1$"):
        GridWorld(3, 3, b"#########")
    with pytest.raises(ConfigurationError, match=r"^grid 2x5 too small to hold walls and floor$"):
        GridWorld(2, 5, bytes(10))


class _Pickled:
    """Pickles as a call GridWorld(*value), as a pickled world does."""

    def __init__(self, *value):
        self.value = value

    def __reduce__(self):
        return GridWorld, self.value


@pytest.mark.parametrize(
    "grid, message",
    [
        # A list of obstacle cells is not a grid.
        ([(0, 0, 1)], "grid must be bytes-like, got list"),
        ([1] * 16, "grid must be bytes-like, got list"),
        ("################", "grid must be bytes-like, got str"),
        (16, "grid must be bytes-like, got int"),
        (None, "grid must be bytes-like, got NoneType"),
        (b"\x01" * 15, "grid of 15 bytes for a 4x4 lattice of 16 cells"),
        (b"\x01" * 9 + b"\x02" + b"\x00" + b"\x01" * 5, "grid byte 2 at (1,2) is neither 0 nor 1"),
        (b"\x01" * 5 + b"\x00" * 3 + b"\x01" * 8, "boundary cell (3,1) is not a wall"),
    ],
    ids=["cell-list", "int-list", "str", "int", "none", "short", "byte-2", "open-border"],
)
def test_malformed_grid_names_the_fault(grid, message):
    """From the constructor and from a pickle alike, a malformed grid ends in
    a ConfigurationError that names its first fault."""
    with pytest.raises(ConfigurationError) as built:
        GridWorld(4, 4, grid)
    data = pickle.dumps(_Pickled(4, 4, grid))
    with pytest.raises(ConfigurationError) as unpickled:
        pickle.loads(data)
    assert str(built.value) == str(unpickled.value) == message


def test_world_is_a_value():
    world = generate_layout_sized(21, 20)
    data = pickle.dumps(world)
    copy = pickle.loads(data)
    assert copy is not world and copy == world and hash(copy) == hash(world)
    # A world pickles as its value: the grid bytes, not its derived parts.
    assert len(data) < 2 * world.width * world.height
    # Each floor cell is one object: every neighbour is the floor's own key.
    for w in (world, copy):
        floor = {c: c for c in w.adjacency}
        assert all(floor[n] is n for steps in w.adjacency.values() for n in steps)
    moved = GridWorld(21, 20, _with(world.grid, 21, {(3, 3): 0, (1, 1): 1}))
    assert moved != world
    # Same cell count and walls, other shape.
    assert open_room(4, 6) != open_room(6, 4)
    # A world equals no other kind of value.
    assert world != world._value and world != "GridWorld"
    assert repr(world) == f"GridWorld(21x20, {len(obstacle_cells(world))} obstacles)"
    big = generate_layout_sized(81, 80)
    data = pickle.dumps(big)
    assert len(data) <= 6544
    assert pickle.loads(data) == big and hash(pickle.loads(data)) == hash(big)


def _built(make):
    """What make() returns, or the message of the ConfigurationError it raises."""
    try:
        return make()
    except ConfigurationError as exc:
        return str(exc)


def check_against_walk(width, height, grid):
    """GridWorld(width, height, grid) has the walk's floor, adjacency items
    in order, neighbour objects, value and hash, or its error."""
    world = _built(lambda: GridWorld(width, height, grid))
    walked = _built(lambda: walk_lattice(width, height, grid))
    if isinstance(walked, str):
        assert world == walked
        return world
    floor, adjacency, value = walked
    assert world.floor == floor
    assert list(world.adjacency.items()) == list(adjacency.items())
    keys = {cell: cell for cell in world.adjacency}
    assert all(keys[cell] is cell for cell in world.floor)
    assert all(keys[n] is n for steps in world.adjacency.values() for n in steps)
    assert world._value == value and world.grid == value[2]
    assert hash(world) == hash(value)
    return world


@st.composite
def lattices(draw):
    """A lattice size and a grid that may leave border cells open, hold a
    byte other than 0 or 1, be one byte short or long, or not be bytes."""
    width, height = draw(st.integers(3, 12)), draw(st.integers(3, 12))
    size = width * height
    grid = bytearray(draw(st.lists(st.integers(0, 1), min_size=size, max_size=size)))
    border = [
        y * width + x for y in range(height) for x in range(width)
        if x in (0, width - 1) or y in (0, height - 1)
    ]
    for i in border:
        grid[i] = 1
    for i in draw(st.lists(st.sampled_from(border), max_size=2)):
        grid[i] = 0
    byte = draw(st.sampled_from([None, None, None, 2, 255]))
    if byte is not None:
        grid[draw(st.integers(0, size - 1))] = byte
    change = draw(st.sampled_from([0, 0, 0, 0, 1, -1]))
    grid = grid + b"\x01" if change > 0 else grid[: size + change]
    kind = draw(st.sampled_from([bytes, bytes, bytearray, memoryview, list]))
    return width, height, kind(grid)


@settings(deadline=None, max_examples=300)
@given(lattices())
def test_world_matches_the_row_walk(lattice):
    check_against_walk(*lattice)


@settings(deadline=None, max_examples=30)
@given(st.randoms(use_true_random=False))
def test_random_and_tiled_worlds_match_the_row_walk(rng):
    world = random_world(rng)
    check_against_walk(world.width, world.height, world.grid)
    width, height = rng.randint(4, 40), rng.randint(4, 40)
    try:
        tiled = generate_layout_sized(width, height)
    except ConfigurationError:
        return
    check_against_walk(width, height, tiled.grid)


def test_benchmark_world_matches_the_row_walk():
    world = generate_layout_sized(81, 80)
    assert check_against_walk(81, 80, world.grid) == world


def test_world_errors_match_the_row_walk():
    walls = _walls(5, 4)
    # Two open border cells: the first in reading order is named, here the
    # one on the top row although the other has the smaller x.
    opened = _with(walls, 5, {(3, 0): 0, (0, 2): 0})
    assert check_against_walk(5, 4, opened) == "boundary cell (3,0) is not a wall"
    opened = _with(walls, 5, {(4, 1): 0, (0, 2): 0})
    assert check_against_walk(5, 4, opened) == "boundary cell (4,1) is not a wall"
    # A byte other than 0 or 1 is named before an open border cell, and the
    # first such byte in reading order.
    assert check_against_walk(5, 4, _with(opened, 5, {(2, 2): 7, (3, 1): 2})) == (
        "grid byte 2 at (3,1) is neither 0 nor 1"
    )
    # The length is checked before the bytes.
    assert check_against_walk(5, 4, opened + b"\x02") == (
        "grid of 21 bytes for a 5x4 lattice of 20 cells"
    )
    assert check_against_walk(5, 4, list(walls)) == "grid must be bytes-like, got list"
    # Any bytes-like grid builds the world of its bytes.
    world = check_against_walk(5, 4, _with(walls, 5, {(2, 1): 1}))
    assert Position(2, 1) not in world.reachable
    assert check_against_walk(5, 4, bytearray(walls)) == GridWorld(5, 4, walls)
    assert check_against_walk(5, 4, memoryview(walls)) == GridWorld(5, 4, walls)


def test_cells_decode_a_lattice_index_to_the_floor_object(fig_layout):
    # A trace stores y * width + x and reads its cells back through this table.
    for world in (fig_layout, pickle.loads(pickle.dumps(fig_layout))):
        floor = {c: c for c in world.adjacency}
        assert len(world.cells) == world.width * world.height
        for i, cell in enumerate(world.cells):
            y, x = divmod(i, world.width)
            if world.grid[i]:
                assert cell is None
            else:
                assert cell == (x, y) and floor[cell] is cell
