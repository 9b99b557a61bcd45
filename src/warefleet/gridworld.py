"""Discrete warehouse world model.

Cells live on an integer lattice with the origin at the top-left of the
serialized document (x grows rightward, y downward). Every cell is either
an obstacle (walls, shelving) or reachable floor. Motion is 4-connected:
the neighborhood of a cell is the closed unit ball of the 1-norm, so a
robot may step up/right/down/left or stay. A world is built from its
grid, one byte per cell in reading order (1 on an obstacle); the grid is
generated in a tiled shelf-block pattern or parsed from a plain ASCII
document.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from operator import index
from typing import NamedTuple

from .errors import ConfigurationError, LoadError, require_integers


class Position(NamedTuple):
    x: int
    y: int


# Maps a grid byte to 1 on floor and 0 on an obstacle.
_FLOOR_BYTES = bytes.maketrans(b"\x00\x01", b"\x01\x00")

OBSTACLE_GLYPH = "#"
FLOOR_GLYPH = "."
# Maps a grid byte to its glyph, and a glyph to its grid byte.
_GLYPH_BYTES = bytes.maketrans(b"\x00\x01", (FLOOR_GLYPH + OBSTACLE_GLYPH).encode())
_GRID_BYTES = bytes.maketrans((FLOOR_GLYPH + OBSTACLE_GLYPH).encode(), b"\x00\x01")


class GridWorld:
    """Rectangular lattice partitioned into reachable floor and obstacles.

    GridWorld(width, height, grid) is the one constructor: grid holds one
    byte per cell in reading order, 1 on an obstacle and 0 on floor, and
    every boundary cell must be a wall. An immutable value: worlds with
    the same size and grid are equal and hash alike, so one instance, or
    any copy of it, can back any number of simulation runs. A world
    pickles as its size and grid bytes.

    cells[y * width + x] is the floor cell at (x, y), the same object the
    adjacency table holds, or None on an obstacle: a lattice index
    decodes to its Position through it.
    """

    __slots__ = ("width", "height", "adjacency", "floor", "cells", "_value")

    def __init__(self, width: int, height: int, grid: bytes):
        require_integers(width=width, height=height)
        if width < 3 or height < 3:
            raise ConfigurationError(f"grid {width}x{height} too small to hold walls and floor")
        try:
            grid = bytes(memoryview(grid))
        except TypeError:
            raise ConfigurationError(f"grid must be bytes-like, got {type(grid).__name__}") from None
        size = width * height
        if len(grid) != size:
            raise ConfigurationError(
                f"grid of {len(grid)} bytes for a {width}x{height} lattice of {size} cells"
            )
        # Each check is a bytes operation on the whole grid; an open border
        # cell is then located cell by cell.
        other = grid.translate(None, b"\x00\x01")
        if other:
            y, x = divmod(grid.index(other[:1]), width)
            raise ConfigurationError(f"grid byte {other[0]} at ({x},{y}) is neither 0 nor 1")
        if 0 in b"".join((grid[:width], grid[-width:], grid[::width], grid[width - 1 :: width])):
            # The border in reading order, so the error names the first fault.
            sides = ((row, row + width - 1) for row in range(width, size - width, width))
            border = chain(range(width), chain.from_iterable(sides), range(size - width, size))
            y, x = divmod(next(i for i in border if not grid[i]), width)
            raise ConfigurationError(f"boundary cell ({x},{y}) is not a wall")
        self.width, self.height = width, height
        # One Position object per floor cell at its index, None on an
        # obstacle. tuple.__new__ makes each one as Position(x, y) would,
        # without a Python call per cell. The walls hold every border cell,
        # so a floor cell's four neighbours lie one row and one column away.
        xs = range(width)
        open_bytes = grid.translate(_FLOOR_BYTES)
        pairs = chain.from_iterable(
            zip(compress(xs, open_bytes[row : row + width]), repeat(y))
            for y, row in enumerate(range(0, size, width))
        )
        positions = map(tuple.__new__, repeat(Position), pairs)
        cells: list[Position | None] = [None] * size
        for i, cell in zip(compress(range(size), open_bytes), positions):
            cells[i] = cell
        self.cells = tuple(cells)
        # The floor cells in (x, y) order, which is sorted order: random
        # placement draws from this sequence and the obstacle field walks it.
        self.floor = tuple(filter(None, chain.from_iterable(cells[x::width] for x in xs)))
        # Reachable 4-neighbors per cell in up/right/down/left order, as the
        # floor's own objects, keyed in reading order; the planner and the
        # search baseline read this dict directly in their inner loops.
        self.adjacency = {
            cell: tuple(filter(None, (cells[i - width], cells[i + 1], cells[i + width], cells[i - 1])))
            for i, cell in enumerate(cells)
            if cell is not None
        }
        # Equal worlds, such as a copy unpickled in a sweep worker, compare
        # with one bytes comparison.
        self._value = (width, height, grid)

    def __reduce__(self):
        return GridWorld, self._value

    @property
    def grid(self) -> bytes:
        """The lattice in reading order, one byte per cell: 1 on an obstacle."""
        return self._value[2]

    def cell(self, xy, what: str) -> Position:
        """The world's own Position at xy, a pair of integers (as operator.index
        reads them) on the floor; anything else is a ConfigurationError naming what."""
        try:
            x, y = map(index, xy)
        except (TypeError, ValueError):
            x = y = -1
        if 0 <= x < self.width and 0 <= y < self.height and self.cells[y * self.width + x]:
            return self.cells[y * self.width + x]
        raise ConfigurationError(f"{what} {xy!r} is not a reachable cell")

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
        return f"GridWorld({self.width}x{self.height}, {self.grid.count(1)} obstacles)"


def generate_layout_sized(
    width: int,
    height: int,
    *,
    shelf_width: int = 2,
    shelf_height: int = 4,
    aisle: int = 2,
) -> GridWorld:
    """Tiled warehouse of an exact overall size, written row by row.

    Shelf blocks are tiled from the top-left with aisle-wide gaps while a
    full block still leaves an aisle before the far wall; the right and
    bottom corridors absorb any remainder instead of a truncated block.
    Every block has an aisle on all four sides, so the floor is always one
    connected component.
    """
    require_integers(
        width=width, height=height, shelf_width=shelf_width, shelf_height=shelf_height, aisle=aisle
    )
    if shelf_width < 1 or shelf_height < 1 or aisle < 1:
        raise ConfigurationError("shelf and aisle dimensions must be positive")
    if width < 2 + aisle or height < 2 + aisle:
        raise ConfigurationError(f"{width}x{height} leaves no room for an aisle")
    wall = b"\x01" * width
    corridor = bytearray(wall)
    corridor[1:-1] = bytes(width - 2)
    shelves = bytearray(corridor)
    for x0 in range(1 + aisle, width - shelf_width - aisle, shelf_width + aisle):
        shelves[x0 : x0 + shelf_width] = wall[:shelf_width]
    grid = bytearray(wall + corridor * (height - 2) + wall)
    for y0 in range(1 + aisle, height - shelf_height - aisle, shelf_height + aisle):
        grid[y0 * width : (y0 + shelf_height) * width] = shelves * shelf_height
    return GridWorld(width, height, grid)


def document_lines(text: str) -> list[str]:
    """A document's lines, split at CR LF, CR and LF only, unlike str.splitlines."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def parse_layout(text: str) -> GridWorld:
    """Parse the ASCII layout document ('#' wall/shelf, '.' floor)."""
    lines = document_lines(text.rstrip("\r\n"))  # trailing blank lines dropped
    if lines == [""]:
        raise LoadError("layout document is empty")
    width, height = len(lines[0]), len(lines)
    for row, line in enumerate(lines, 1):
        if len(line) != width:
            raise LoadError(f"ragged row: expected {width} characters, got {len(line)}", line=row)
        # The first column that holds neither glyph, or width if none does,
        # and the first floor glyph on the boundary, or -1 if none is.
        unknown = width - len(line.lstrip(OBSTACLE_GLYPH + FLOOR_GLYPH))
        edge = line if row in (1, height) else line[:1] + " " * (width - 2) + line[-1:]
        opening = edge.find(FLOOR_GLYPH)
        if 0 <= opening < unknown:
            raise LoadError("boundary is not enclosed by walls", line=row, column=opening + 1)
        if unknown < width:
            raise LoadError(f"unknown glyph {line[unknown]!r}", line=row, column=unknown + 1)
    return GridWorld(width, height, "".join(lines).encode("ascii").translate(_GRID_BYTES))


def serialize_layout(world: GridWorld) -> str:
    """The ASCII layout document of a world, read from its grid bytes."""
    text, width = world.grid.translate(_GLYPH_BYTES).decode("ascii"), world.width
    return "".join(text[i : i + width] + "\n" for i in range(0, len(text), width))
