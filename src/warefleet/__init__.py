"""Grid-warehouse fleet simulator.

Deterministic discrete-time simulation of warehouse robots: a genetic
allocator hands task batches to a fleet, each robot plans locally over a
recursively excited/relaxed potential field, and an A* baseline provides
the optimal-distance references used by the benchmark metrics.
"""

from .allocator import (
    Chromosome,
    GAConfig,
    HeuristicStore,
    crossover,
    decode,
    evolve,
)
from .baseline import PathResult, shortest_path
from .engine import (
    CellSummary,
    MetricsReport,
    Scenario,
    compute_metrics,
    run_scenario,
    run_sweep,
)
from .errors import ConfigurationError, LoadError, SimulatorError
from .gridworld import (
    GridWorld,
    Position,
    generate_layout_sized,
    parse_layout,
    serialize_layout,
)
from .planner import (
    RobotState,
    Segment,
    SimTrace,
    format_trace,
    run_until_done,
)
from .potential import (
    PotentialParams,
    PotentialTerm,
)

__version__ = "0.1.0"
