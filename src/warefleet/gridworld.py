"""Discrete warehouse world model.

Cells live on an integer lattice with the origin at the top-left of the
serialized document (x grows rightward, y downward). Every cell is either
an obstacle (walls, shelving) or reachable floor. Motion is 4-connected:
the neighborhood of a cell is the closed unit ball of the 1-norm, so a
robot may step up/right/down/left or stay. Layouts can be generated in a
tiled shelf-block pattern or parsed from a plain ASCII document.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from typing import Iterable, NamedTuple

from .errors import ConfigurationError, LoadError, require_integers


class Position(NamedTuple):
    x: int
    y: int


# Maps a grid byte to 1 on floor and 0 on an obstacle.
_FLOOR_BYTES = bytes.maketrans(b"\x00\x01", b"\x01\x00")

OBSTACLE_GLYPH = "#"
FLOOR_GLYPH = "."
# Maps a grid byte to its glyph.
_GLYPH_BYTES = bytes.maketrans(b"\x00\x01", (FLOOR_GLYPH + OBSTACLE_GLYPH).encode())


class GridWorld:
    """Rectangular lattice partitioned into reachable floor and obstacles.

    An immutable value: worlds with the same size and obstacles are equal
    and hash alike, so one instance, or any copy of it, can back any
    number of simulation runs. Construction enforces that obstacles and
    floor exactly cover the lattice and that every boundary cell is a wall.
    """

    __slots__ = ("width", "height", "obstacles", "adjacency", "floor", "_value")

    def __init__(self, width: int, height: int, obstacles: Iterable[Position]):
        require_integers(width=width, height=height)
        if width < 3 or height < 3:
            raise ConfigurationError(f"grid {width}x{height} too small to hold walls and floor")
        self.width = width
        self.height = height
        self.obstacles = frozenset(Position(x, y) for x, y in obstacles)
        # The lattice as one byte per cell in reading order, 1 on an obstacle.
        # range.index finds the lattice point an obstacle equals, so
        # Position(2.0, 1) marks the cell (2, 1); an obstacle equal to no
        # lattice point marks nothing and is named below.
        size = width * height
        grid = bytearray(size)
        xs, ys = range(width), range(height)
        for x, y in self.obstacles:
            if x in xs and y in ys:
                grid[ys.index(y) * width + xs.index(x)] = 1
        # The border in reading order, so an error names the first fault.
        sides = ((row, row + width - 1) for row in range(width, size - width, width))
        border = chain(xs, chain.from_iterable(sides), range(size - width, size))
        fault = next((i for i in border if not grid[i]), None)
        if fault is not None:
            y, x = divmod(fault, width)
            raise ConfigurationError(f"boundary cell ({x},{y}) is not a wall")
        if grid.count(1) != len(self.obstacles):
            off = next(p for p in self.obstacles if p.x not in xs or p.y not in ys)
            raise ConfigurationError(f"obstacle {off} outside the {width}x{height} lattice")
        # One Position object per floor cell at its index, None on an
        # obstacle. tuple.__new__ makes each one as Position(x, y) would,
        # without a Python call per cell. The walls hold every border cell, so
        # a floor cell's four neighbours lie one row and one column away.
        open_bytes = grid.translate(_FLOOR_BYTES)
        pairs = chain.from_iterable(
            zip(compress(xs, open_bytes[row : row + width]), repeat(y))
            for y, row in enumerate(range(0, size, width))
        )
        positions = map(tuple.__new__, repeat(Position), pairs)
        cells: list[Position | None] = [None] * size
        for i, cell in zip(compress(range(size), open_bytes), positions):
            cells[i] = cell
        # The floor cells in (x, y) order, which is sorted order: random
        # placement draws from this sequence and the obstacle field walks it.
        self.floor: tuple[Position, ...] = tuple(
            filter(None, chain.from_iterable(cells[x::width] for x in xs))
        )
        # Reachable 4-neighbors per cell in up/right/down/left order, as the
        # floor's own objects, keyed in reading order; the planner and the
        # search baseline read this dict directly in their inner loops.
        self.adjacency: dict[Position, tuple[Position, ...]] = {
            cell: tuple(filter(None, (cells[i - width], cells[i + 1], cells[i + width], cells[i - 1])))
            for i, cell in enumerate(cells)
            if cell is not None
        }
        # Equal worlds, such as a copy unpickled in a sweep worker, compare
        # with one bytes comparison instead of a walk of the obstacle set.
        self._value = (width, height, bytes(grid))

    @property
    def grid(self) -> bytes:
        """The lattice in reading order, one byte per cell: 1 on an obstacle."""
        return self._value[2]

    @property
    def reachable(self):
        """The floor cells: a read-only view of the adjacency keys."""
        return self.adjacency.keys()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, GridWorld):
            return NotImplemented
        return self._value == other._value

    def __hash__(self):
        return hash(self._value)

    def __repr__(self):
        return f"GridWorld({self.width}x{self.height}, {len(self.obstacles)} obstacles)"


def _tile_obstacles(
    width: int,
    height: int,
    shelf_width: int,
    shelf_height: int,
    aisle: int,
) -> set[Position]:
    """Walls plus shelf blocks tiled from the top-left with aisle-wide gaps.

    Blocks are placed at fixed offsets while a full block still leaves at
    least one aisle before the far wall; any remainder widens the trailing
    corridors instead of truncating a block.
    """
    obstacles = {Position(x, 0) for x in range(width)}
    obstacles |= {Position(x, height - 1) for x in range(width)}
    obstacles |= {Position(0, y) for y in range(height)}
    obstacles |= {Position(width - 1, y) for y in range(height)}

    x0 = 1 + aisle
    while x0 + shelf_width + aisle <= width - 1:
        y0 = 1 + aisle
        while y0 + shelf_height + aisle <= height - 1:
            for x in range(x0, x0 + shelf_width):
                for y in range(y0, y0 + shelf_height):
                    obstacles.add(Position(x, y))
            y0 += shelf_height + aisle
        x0 += shelf_width + aisle
    return obstacles


def generate_layout_sized(
    width: int,
    height: int,
    *,
    shelf_width: int = 2,
    shelf_height: int = 4,
    aisle: int = 2,
) -> GridWorld:
    """Tiled warehouse of an exact overall size.

    Fits as many whole shelf blocks as the requested dimensions allow; when
    the size is not an exact multiple of the tile pitch the right/bottom
    corridors absorb the remainder. Every block has an aisle on all four
    sides, so the floor is always one connected component.
    """
    require_integers(
        width=width, height=height, shelf_width=shelf_width, shelf_height=shelf_height, aisle=aisle
    )
    if shelf_width < 1 or shelf_height < 1 or aisle < 1:
        raise ConfigurationError("shelf and aisle dimensions must be positive")
    if width < 2 + aisle or height < 2 + aisle:
        raise ConfigurationError(f"{width}x{height} leaves no room for an aisle")
    return GridWorld(width, height, _tile_obstacles(width, height, shelf_width, shelf_height, aisle))


def parse_layout(text: str) -> GridWorld:
    """Parse the ASCII layout document ('#' wall/shelf, '.' floor)."""
    lines = text.splitlines()
    while lines and lines[-1] == "":
        lines.pop()
    if not lines:
        raise LoadError("layout document is empty")
    width = len(lines[0])
    height = len(lines)
    obstacles: set[Position] = set()
    for row, line in enumerate(lines):
        if len(line) != width:
            raise LoadError(
                f"ragged row: expected {width} characters, got {len(line)}", line=row + 1
            )
        for col, glyph in enumerate(line):
            if glyph == OBSTACLE_GLYPH:
                obstacles.add(Position(col, row))
            elif glyph != FLOOR_GLYPH:
                raise LoadError(f"unknown glyph {glyph!r}", line=row + 1, column=col + 1)
            elif not (0 < col < width - 1 and 0 < row < height - 1):
                raise LoadError("boundary is not enclosed by walls", line=row + 1, column=col + 1)
    return GridWorld(width, height, obstacles)


def serialize_layout(world: GridWorld) -> str:
    """The ASCII layout document of a world, read from its grid bytes."""
    text = world.grid.translate(_GLYPH_BYTES).decode("ascii")
    width = world.width
    return "".join(text[i : i + width] + "\n" for i in range(0, len(text), width))
