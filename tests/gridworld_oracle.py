"""Reference construction of a GridWorld: a walk of the lattice, row by row,
reading the grid one cell at a time.

GridWorld builds the same parts with whole-grid bytes operations; tests
check its floor, adjacency, value and error messages against this walk.
"""

from functools import cache
from itertools import chain

from warefleet.errors import ConfigurationError
from warefleet.gridworld import GridWorld, Position

# Up, right, down, left: the adjacency order.
STEPS = ((0, -1), (1, 0), (0, 1), (-1, 0))


def walk_lattice(width: int, height: int, grid):
    """(floor, adjacency, value) of the world, or the ConfigurationError it
    raises: a lattice too small, a grid that is not bytes-like or not one
    byte per cell, then the first byte other than 0 or 1 in reading order,
    then the first open boundary cell in reading order. The floor is in
    (x, y) order, the adjacency keyed in reading order, and every neighbour
    is the floor's own object."""
    if width < 3 or height < 3:
        raise ConfigurationError(f"grid {width}x{height} too small to hold walls and floor")
    if not isinstance(grid, (bytes, bytearray, memoryview)):
        raise ConfigurationError(f"grid must be bytes-like, got {type(grid).__name__}")
    cells = bytes(grid)
    if len(cells) != width * height:
        raise ConfigurationError(
            f"grid of {len(cells)} bytes for a {width}x{height} lattice of {width * height} cells"
        )
    floor: dict[Position, Position] = {}
    columns: list[list[Position]] = [[] for _ in range(width)]
    open_border = None
    for y in range(height):
        for x in range(width):
            byte = cells[y * width + x]
            if byte > 1:
                raise ConfigurationError(f"grid byte {byte} at ({x},{y}) is neither 0 nor 1")
            if byte == 1:
                continue
            if not (0 < x < width - 1 and 0 < y < height - 1):
                open_border = open_border or (x, y)
                continue
            pos = Position(x, y)
            floor[pos] = pos
            columns[x].append(pos)
    if open_border is not None:
        raise ConfigurationError(f"boundary cell ({open_border[0]},{open_border[1]}) is not a wall")
    adjacency = {}
    for cell in floor:
        x, y = cell
        steps = (floor.get((x + dx, y + dy)) for dx, dy in STEPS)
        adjacency[cell] = tuple(n for n in steps if n is not None)
    return tuple(chain.from_iterable(columns)), adjacency, (width, height, cells)


@cache
def obstacle_cells(world: GridWorld) -> frozenset[Position]:
    """The world's obstacle cells, read from its grid one cell at a time;
    kept per world value, since field oracles ask for them once per cell."""
    return frozenset(
        Position(x, y)
        for y in range(world.height)
        for x in range(world.width)
        if world.grid[y * world.width + x]
    )
