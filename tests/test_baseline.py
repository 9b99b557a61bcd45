import re

import pytest

from warefleet.baseline import shortest_path
from warefleet.errors import ConfigurationError
from warefleet.gridworld import Position, generate_layout_sized

from conftest import Integral, open_room, world_from
from perfbench.checks import bfs_length


def test_straight_corridor():
    w = world_from(["#" * 13, "#" + "." * 11 + "#", "#" * 13])
    result = shortest_path(w, Position(1, 1), Position(11, 1))
    assert result.length == 10


def test_start_equals_goal():
    w = open_room(6, 6)
    result = shortest_path(w, Position(2, 2), Position(2, 2))
    assert result.length == 0


def test_detour_around_obstacle_matches_bfs():
    w = world_from([
        "#######",
        "#.....#",
        "#..#..#",
        "#..#..#",
        "#.....#",
        "#######",
    ])
    start, goal = Position(1, 2), Position(5, 2)
    result = shortest_path(w, start, goal)
    assert result.length == bfs_length(w.reachable, start, goal)


def test_unreachable_goal_reported():
    w = world_from([
        "#######",
        "#..#..#",
        "#..#..#",
        "#######",
    ])
    result = shortest_path(w, Position(1, 1), Position(5, 1))
    assert (result.length, result.expanded_nodes) == (None, 4)


def test_rejects_obstacle_endpoints():
    w = open_room(5, 5)
    with pytest.raises(ConfigurationError):
        shortest_path(w, Position(0, 0), Position(2, 2))
    with pytest.raises(ConfigurationError):
        shortest_path(w, Position(2, 2), Position(4, 4))
    # Only a pair of integers on the floor is an endpoint; (24, 1) would wrap
    # onto the floor cell (3, 2) of this 21-wide world under y * width + x.
    world = generate_layout_sized(21, 12)
    for cell in (1.0, 1), [1, 1.5], (1, 1, 1), (24, 1), None:
        with pytest.raises(ConfigurationError, match=rf"^start {re.escape(repr(cell))} is not a"):
            shortest_path(world, cell, (2, 2))
        with pytest.raises(ConfigurationError, match=rf"^goal {re.escape(repr(cell))} is not a"):
            shortest_path(world, (2, 2), cell)
    for start in [1, 1], (True, 1), (Integral(1), Integral(1)):
        assert shortest_path(world, start, (3, 2)).length == 3


def test_astar_deterministic(fig_layout):
    a = shortest_path(fig_layout, Position(1, 1), Position(18, 20))
    b = shortest_path(fig_layout, Position(1, 1), Position(18, 20))
    assert (a.length, a.expanded_nodes) == (b.length, b.expanded_nodes)


# (length, expanded_nodes) of fixed queries, so a change to the search's
# expansion order, and with it perfbench's baseline.expanded_nodes and
# us_per_expansion, shows here.
@pytest.mark.parametrize(
    "width, height, start, goal, expected",
    [
        (20, 22, Position(1, 1), Position(18, 20), (36, 263)),
        (20, 22, Position(5, 10), Position(14, 3), (16, 47)),
        (81, 80, Position(1, 1), Position(79, 78), (155, 4337)),
        (81, 80, Position(40, 2), Position(3, 77), (112, 1873)),
        (81, 80, Position(77, 40), Position(2, 41), (80, 309)),
        (81, 80, Position(1, 1), Position(1, 1), (0, 0)),
    ],
)
def test_astar_length_and_expansions_are_pinned(width, height, start, goal, expected):
    result = shortest_path(generate_layout_sized(width, height), start, goal)
    assert (result.length, result.expanded_nodes) == expected


def test_astar_takes_plain_pairs():
    # An endpoint may be an (x, y) pair; the search is the same.
    world = generate_layout_sized(20, 22)
    for start, goal in ((Position(1, 1), Position(18, 20)), (Position(5, 10), Position(14, 3))):
        by_position = shortest_path(world, start, goal)
        by_pair = shortest_path(world, tuple(start), tuple(goal))
        assert (by_pair.length, by_pair.expanded_nodes) == (
            by_position.length, by_position.expanded_nodes
        )
    assert shortest_path(open_room(5, 5), (1, 1), (2, 2)).length == 2
