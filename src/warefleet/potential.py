"""Potential-field mathematics for the local planner.

The scalar field a robot descends splits into a static part (goal
attraction plus sensed obstacle repulsion) and a dynamic part (repulsion
from the other robots' current cells). A cell's initial static value is a
fixed function of the cell and the leg's goal, read from the tables and
never stored; a robot keeps one map of its explored cells' recursive
values per leg. Every tick it multiplies the value under its wheels by an
excitation factor gamma and relaxes the other cells of its neighborhood
back toward their initial values with a relaxation factor alpha. Standing
still therefore inflates the occupied cell until some neighbor looks
cheaper, which is what destroys local minima in finite time.

Sensing is modeled as a square (Chebyshev) window, and its radius is a
parameter of the potential like the terms and the recursion factors. A
source only contributes to the potential of cell s when it is visible
from every cell of the geometric step-neighborhood of s, so the value
computed for s is the same no matter which adjacent cell the robot
evaluated it from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import chain
from operator import add

from .errors import ConfigurationError, require_integers, require_numbers
from .gridworld import GridWorld, Position


@dataclass(frozen=True)
class PotentialTerm:
    """One weighted power of a p-norm distance: c * (d_p + offset) ** exponent."""

    coefficient: float
    norm_order: float
    exponent: float
    offset: float = 0.0


_GOAL_TERMS = (PotentialTerm(coefficient=1.0, norm_order=math.inf, exponent=1.0),)
_REPULSIVE_TERMS = (PotentialTerm(coefficient=0.1, norm_order=2, exponent=-2.0, offset=1e-9),)


# Other robots repel with the robot terms scaled by this factor.
DYNAMIC_SCALE = 0.01


@dataclass(frozen=True)
class PotentialParams:
    """Shape of the potential field, the recursion factors and the sensing
    window, a square with a Chebyshev radius in cells.

    Defaults are the benchmark functions: goal attraction is the Chebyshev
    distance, obstacle repulsion 0.1*(d_2 + 1e-9)**-2, and other robots
    reuse the obstacle shape scaled by 0.01. Radius 2 is the minimum: the
    consistently-sensed region around a cell must still contain the cell's
    whole step-neighborhood.
    """

    goal_terms: tuple[PotentialTerm, ...] = _GOAL_TERMS
    obstacle_terms: tuple[PotentialTerm, ...] = _REPULSIVE_TERMS
    robot_terms: tuple[PotentialTerm, ...] = _REPULSIVE_TERMS
    gamma: float = 15.0
    alpha: float = 0.05
    sensor_radius: int = 3

    def __post_init__(self):
        require_numbers(gamma=self.gamma, alpha=self.alpha)
        if not 1.0 < self.gamma < math.inf:
            raise ConfigurationError(
                f"excitation factor must be finite and exceed 1, got {self.gamma}"
            )
        if not 0.0 <= self.alpha < 1.0:
            raise ConfigurationError(f"relaxation factor must lie in [0, 1), got {self.alpha}")
        require_integers(sensor_radius=self.sensor_radius)
        if self.sensor_radius < 2:
            raise ConfigurationError("sensor radius must be at least 2")
        for name, terms in (
            ("goal", self.goal_terms),
            ("obstacle", self.obstacle_terms),
            ("robot", self.robot_terms),
        ):
            for term in terms:
                require_numbers(**{
                    f"{name}_term_coefficient": term.coefficient,
                    f"{name}_term_exponent": term.exponent,
                    f"{name}_term_offset": term.offset,
                })
                numbers = (term.coefficient, term.exponent, term.offset)
                if not all(map(math.isfinite, numbers)) or term.coefficient < 0 or term.offset < 0:
                    raise ConfigurationError(f"invalid {name} term {term}")
                if term.norm_order not in (1, 2, math.inf):
                    raise ConfigurationError(
                        f"{name} term norm order must be 1, 2 or math.inf, got {term.norm_order!r}"
                    )
                if name == "goal" and term.exponent < 0:
                    raise ConfigurationError("goal terms must be non-decreasing in distance")
                if name != "goal" and term.exponent > 0:
                    raise ConfigurationError(f"{name} terms must be non-increasing in distance")
                if name == "robot" and term.coefficient != 0 and term.exponent < 0 and term.offset <= 0:
                    # Robots can share a distance of zero, so their repulsion
                    # must stay finite.
                    raise ConfigurationError("robot terms with negative exponent need offset > 0")


def term_sum(terms: tuple[PotentialTerm, ...], dx: int, dy: int) -> float:
    """Sum of c * (d_p + offset) ** exponent over the terms, at offset (dx, dy) >= 0."""
    total = 0.0
    for term in terms:
        if term.norm_order == 1:
            d = dx + dy
        elif term.norm_order == 2:
            d = math.hypot(dx, dy)
        else:
            d = max(dx, dy)
        total += term.coefficient * (d + term.offset) ** term.exponent
    return total


@lru_cache(maxsize=32)
def term_table(terms: tuple[PotentialTerm, ...], nx: int, ny: int) -> tuple[tuple[float, ...], ...]:
    """term_sum for every offset below (nx, ny), indexed [dx][dy].

    A negative power of a zero distance is stored as inf. No caller reads
    it: obstacles never stand on reachable cells and robots never share one.
    """
    rows = []
    for dx in range(nx):
        row = []
        for dy in range(ny):
            try:
                row.append(term_sum(terms, dx, dy))
            except ZeroDivisionError:
                row.append(math.inf)
        rows.append(tuple(row))
    return tuple(rows)


@lru_cache(maxsize=8)
def _obstacle_field(
    world: GridWorld, radius: int, obstacle_terms: tuple[PotentialTerm, ...]
) -> dict[Position, float]:
    """Summed repulsion of the obstacles each reachable cell consistently senses.

    An obstacle counts when it lies within Chebyshev distance radius - 1,
    so that it is visible from every cell of the cell's step cross. The box
    is clipped to the lattice, which holds every obstacle. The field
    depends only on the floor plan, the radius and the terms, so it is
    cached on their values: an equal world, such as one unpickled in a
    sweep worker, gets the same dict back.

    Cost: what a cell senses on one row of its box, the row's grid bytes
    between the box's sides and where they start relative to the cell, is
    filed once per lattice cell and row, width x height lookups at any
    radius. A box is the cell's row offset in it plus its rows' window ids,
    and each distinct box is summed once, with one table read per obstacle
    it senses. So a build costs the floor cells plus the sensed obstacles
    of the distinct boxes: on the tiled 81x80 world at radius 3, 89 boxes
    for 4,338 floor cells; on a layout without repeats, about one box per
    cell. Each sum adds the box's obstacles left to right, by y, then x,
    as the definition takes them, so its bits agree across Python
    versions; sum() adds floats with compensation from Python 3.12 on.
    """
    reach = radius - 1
    width, height, grid = world.width, world.height, world.grid
    table = term_table(obstacle_terms, min(radius, width), min(radius, height))
    by_dy = tuple(zip(*table))  # the table indexed [dy][dx]
    # window_ids[x][y]: the id of what a column-x cell senses on row y, one
    # id per distinct (box start minus x, row bytes in the box).
    windows: dict[tuple[int, bytes], int] = {}
    window_ids = []
    for x in range(width):
        x0, x1 = max(0, x - reach), min(width, x + reach + 1)
        window_ids.append(
            [
                windows.setdefault((x0 - x, grid[i : i + x1 - x0]), len(windows))
                for i in range(x0, width * height, width)
            ]
        )
    # Per window id, the x distances of its obstacles in ascending x.
    sensed = [tuple(abs(start + i) for i, byte in enumerate(row) if byte) for start, row in windows]
    # Per cell row y: its box's rows, and the table row each of them reads,
    # as a lookup by x distance.
    spans = [(max(0, y - reach), min(height, y + reach + 1)) for y in range(height)]
    readers = [
        tuple(by_dy[abs(row - y)].__getitem__ for row in range(y0, y1))
        for y, (y0, y1) in enumerate(spans)
    ]
    sums: dict[tuple[int, ...], float] = {}
    field = {}
    for cell in world.floor:
        x, y = cell
        y0, y1 = spans[y]
        ids = window_ids[x][y0:y1]
        box = (y - y0, *ids)
        value = sums.get(box)
        if value is None:
            terms = chain.from_iterable(map(map, readers[y], map(sensed.__getitem__, ids)))
            value = sums[box] = reduce(add, terms, 0.0)
        field[cell] = value
    return field
