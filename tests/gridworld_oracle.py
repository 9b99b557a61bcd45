"""Reference construction of a GridWorld: a walk of the lattice, row by row,
probing the obstacle set with one Position per cell.

GridWorld builds the same parts in one pass over its byte grid; tests
check its floor, adjacency, value and error messages against this walk.
"""

from itertools import chain

from warefleet.errors import ConfigurationError
from warefleet.gridworld import Position

# Up, right, down, left: the adjacency order.
STEPS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def walk_lattice(width: int, height: int, obstacles):
    """(floor, adjacency, value) of the world, or the ConfigurationError it
    raises: the first boundary fault in reading order, then an obstacle the
    walk never met. The floor is in (x, y) order, the adjacency keyed in
    reading order, and every neighbour is the floor's own object."""
    if width < 3 or height < 3:
        raise ConfigurationError(f"grid {width}x{height} too small to hold walls and floor")
    obstacles = frozenset(Position(x, y) for x, y in obstacles)
    cells = bytearray()
    floor: dict[Position, Position] = {}
    columns: list[list[Position]] = [[] for _ in range(width)]
    for y in range(height):
        for x in range(width):
            pos = Position(x, y)
            if pos in obstacles:
                cells.append(1)
            elif 0 < x < width - 1 and 0 < y < height - 1:
                cells.append(0)
                floor[pos] = pos
                columns[x].append(pos)
            else:
                raise ConfigurationError(f"boundary cell ({x},{y}) is not a wall")
    if len(cells) - len(floor) != len(obstacles):
        off = next(p for p in obstacles if p.x not in range(width) or p.y not in range(height))
        raise ConfigurationError(f"obstacle {off} outside the {width}x{height} lattice")
    adjacency = {}
    for cell in floor:
        x, y = cell
        steps = (floor.get((x + dx, y + dy)) for dx, dy in STEPS)
        adjacency[cell] = tuple(n for n in steps if n is not None)
    return tuple(chain.from_iterable(columns)), adjacency, (width, height, bytes(cells))
