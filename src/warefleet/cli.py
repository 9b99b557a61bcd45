"""Command-line front end.

Subcommands:
  run         execute one scenario; write its metrics, trace and GA history
  sweep       run an (N, K, seed) grid and write per-run plus summary CSV
  gen-layout  write a tiled warehouse layout document

Scenario files are flat `key = value` text with `#` comments, read
through one key table. Position lists are flat comma-separated integers
taken in x,y pairs, e.g. `robot_starts = 1,1, 5,9`. A `layout` value is
either `generate:WIDTHxHEIGHT` or the path of a layout document, resolved
relative to the scenario file. Documents are UTF-8, less a leading
byte-order mark. A fault in a file is one error naming a
line: a value that does not parse names its key, and a failed check the
first key, in table order, at which the file's values up to it fail; that
is the layout when the defaults fail. All outputs are written atomically
(temp file, then rename).
"""

from __future__ import annotations

import argparse
import codecs
import csv
import io
import json
import os
import sys
import tempfile
from dataclasses import replace
from pathlib import Path

from .allocator import GAConfig
from .engine import (
    RUN_COLUMNS,
    SUMMARY_COLUMNS,
    Scenario,
    check_sweep_axis,
    check_sweep_room,
    report_json,
    run_scenario,
    run_sweep,
    written,
)
from .errors import ConfigurationError, LoadError, SimulatorError
from .gridworld import document_lines, generate_layout_sized, parse_layout, serialize_layout
from .planner import format_trace
from .potential import PotentialParams


def _atomic_write(path: str | Path, text: str) -> None:
    path = Path(path)
    handle, tmp_name = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(handle, "w", encoding="utf-8", newline="") as tmp:
            tmp.write(text)
        os.replace(tmp_name, path)
    except BaseException:
        if os.path.exists(tmp_name):
            os.unlink(tmp_name)
        raise


def _csv_text(columns, rows) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(rows)
    return buffer.getvalue()


def _records_csv(columns: dict[str, str], records) -> str:
    """CSV of one row per record, each column written by the report schema."""
    return _csv_text(columns, ([written(r, attr) for attr in columns.values()] for r in records))


def _parse_positions(raw: str) -> tuple[tuple[int, int], ...]:
    try:
        numbers = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError:
        raise ValueError(f"positions must be integers, got {raw!r}") from None
    if len(numbers) % 2 != 0:
        raise ValueError(f"odd number of coordinates in {raw!r}")
    return tuple(zip(numbers[::2], numbers[1::2]))


# Every scenario key: key -> (the object it configures, the field it sets,
# the parser of its value; build_scenario reads the layout). Values are
# parsed, and faults named, in this order, so the layout comes first and a
# count comes before its positions.
_SCENARIO_KEYS = {
    "layout": (Scenario, "world", None),
    "gamma": (PotentialParams, "gamma", float),
    "alpha": (PotentialParams, "alpha", float),
    "sensor_radius": (PotentialParams, "sensor_radius", int),
    "population": (GAConfig, "population_size", int),
    "generations": (GAConfig, "max_generations", int),
    "mutation_prob": (GAConfig, "mutation_probability", float),
    "n_robots": (Scenario, "n_robots", int),
    "n_tasks": (Scenario, "n_tasks", int),
    "robot_starts": (Scenario, "robot_starts", _parse_positions),
    "task_positions": (Scenario, "task_positions", _parse_positions),
    "eta": (Scenario, "eta", float),
    "step_cap": (Scenario, "step_cap", int),
    "seed": (Scenario, "seed", int),
}


def _build(items) -> Scenario:
    """The scenario that (key, parsed value) items configure, with one robot
    and one task by default."""
    fields = {PotentialParams: {}, GAConfig: {}, Scenario: {"n_robots": 1, "n_tasks": 1}}
    for key, value in items:
        owner, name, _ = _SCENARIO_KEYS[key]
        fields[owner][name] = value
    potential, ga = PotentialParams(**fields[PotentialParams]), GAConfig(**fields[GAConfig])
    return Scenario(**fields[Scenario], potential=potential, ga=ga)


def _fault(items) -> str | None:
    """The message of the check that the scenario of items fails, if any."""
    try:
        _build(items)
    except ValueError as exc:
        return str(exc)
    return None


def _read_text(path: Path) -> str:
    """A UTF-8 document's text, less a leading byte-order mark; a byte that
    does not decode is a LoadError at its line."""
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(document_lines(data[: exc.start].decode("utf-8")))
        raise LoadError(f"{path}: byte 0x{data[exc.start]:02x} is not UTF-8", line=line) from None


def read_scenario_file(path: str | Path) -> dict[str, tuple[str, int]]:
    """Read the flat key=value scenario document into key -> (value, line number)."""
    path = Path(path)
    values: dict[str, tuple[str, int]] = {}
    for lineno, raw_line in enumerate(document_lines(_read_text(path)), start=1):
        line = raw_line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise LoadError("expected 'key = value'", line=lineno)
        key, value = (piece.strip() for piece in line.split("=", 1))
        if key not in _SCENARIO_KEYS:
            raise LoadError(f"unknown scenario key {key!r}", line=lineno)
        if key in values:
            raise LoadError(f"duplicate scenario key {key!r}", line=lineno)
        values[key] = (value, lineno)
    return values


def build_scenario(path: str | Path, seed_override: int | None = None) -> Scenario:
    """Load a scenario document, resolving its layout and applying defaults.

    Every value is parsed once, in table order, and a value that does not
    parse is a LoadError at its line; a layout document's own LoadErrors
    carry their line in that document. The objects are then built once. If
    a check fails, growing prefixes of the keys found are rebuilt to name
    the first key at which its message appears. Only the whole set must
    pass, so two counts may add up to more than the floor holds when the
    file gives their cells.
    """
    path = Path(path)
    values = read_scenario_file(path)
    if "layout" not in values:
        raise LoadError("scenario is missing the 'layout' key")

    def load_world(text: str):
        if not text.startswith("generate:"):
            try:
                layout = _read_text(path.parent / text)
            except OSError as exc:
                raise ValueError(f"cannot read {text!r}: {exc.strerror}") from None
            return parse_layout(layout)
        width, _, height = text[len("generate:") :].lower().partition("x")
        try:
            size = int(width), int(height)
        except ValueError:
            raise ValueError(f"expected generate:WIDTHxHEIGHT, got {text!r}") from None
        return generate_layout_sized(*size)

    items = []  # (key, parsed value) of each key the file sets, in table order
    for key, (_, _, parse) in _SCENARIO_KEYS.items():
        if key in values:
            text, line = values[key]
            try:
                items.append((key, (parse or load_world)(text)))
            except LoadError:
                raise
            except ValueError as exc:
                raise LoadError(f"{key}: {exc}", line=line) from None
    try:
        scenario = _build(items)
    except ValueError as exc:
        # The last prefix is every key found, so some key is named.
        key = next(key for n, (key, _) in enumerate(items, 1) if _fault(items[:n]) == str(exc))
        raise LoadError(f"{key}: {exc}", line=values[key][1]) from None
    if seed_override is not None:
        scenario = replace(scenario, seed=seed_override)
    return scenario


def _cmd_run(args: argparse.Namespace) -> int:
    scenario = build_scenario(args.scenario, args.seed)
    trace, report = run_scenario(scenario)
    if args.format == "json":
        _atomic_write(args.out, json.dumps(report_json(report), indent=2) + "\n")
    else:
        _atomic_write(args.out, _records_csv(RUN_COLUMNS, [report]))
    if args.trace:
        _atomic_write(args.trace, format_trace(trace))
    if args.ga_history:
        rows = [(generation, repr(best)) for generation, best in enumerate(report.ga_history)]
        _atomic_write(args.ga_history, _csv_text(("generation", "best_fitness"), rows))
    return 0


def _parse_grid_axis(raw: str, flag: str) -> list[int]:
    try:
        values = [int(piece) for piece in raw.split(",") if piece.strip()]
    except ValueError as exc:
        raise ConfigurationError(f"{flag}: expected comma-separated integers, got {raw!r}") from exc
    check_sweep_axis(values, flag)
    return values


def _cmd_sweep(args: argparse.Namespace) -> int:
    base = build_scenario(args.scenario, args.seed)
    n_values = _parse_grid_axis(args.n_values, "--n-values")
    k_values = _parse_grid_axis(args.k_values, "--k-values")
    check_sweep_room(base, n_values, k_values, "--n-values", "--k-values")
    reports, cells = run_sweep(
        base, n_values, k_values, args.seeds, warm=args.warm, jobs=args.jobs
    )
    _atomic_write(args.out, _records_csv(RUN_COLUMNS, reports))
    if args.summary:
        _atomic_write(args.summary, _records_csv(SUMMARY_COLUMNS, cells))
    return 0


def _cmd_gen_layout(args: argparse.Namespace) -> int:
    world = generate_layout_sized(
        args.width,
        args.height,
        shelf_width=args.shelf_width,
        shelf_height=args.shelf_height,
        aisle=args.aisle,
    )
    _atomic_write(args.out, serialize_layout(world))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="warefleet", description="Grid-warehouse fleet simulator and benchmark harness"
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # The arguments every scenario command takes.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--scenario", required=True)
    common.add_argument("--out", required=True)
    common.add_argument("--seed", type=int, default=None, help="override the file's seed")

    run = sub.add_parser("run", parents=[common], help="execute one scenario")
    run.add_argument("--format", choices=("csv", "json"), default="csv")
    run.add_argument("--trace", default=None, help="also write the trace here")
    run.add_argument("--ga-history", default=None, help="also write per-generation best fitness")
    run.set_defaults(handler=_cmd_run)

    sweep = sub.add_parser("sweep", parents=[common], help="run an (N, K, seed) grid")
    sweep.add_argument("--n-values", required=True)
    sweep.add_argument("--k-values", required=True)
    sweep.add_argument("--seeds", type=int, default=1)
    sweep.add_argument("--summary", default=None, help="also write per-cell mean/std rows")
    sweep.add_argument("--warm", action="store_true", help="share learned heuristics across runs")
    sweep.add_argument("--jobs", type=int, default=1)
    sweep.set_defaults(handler=_cmd_sweep)

    gen = sub.add_parser("gen-layout", help="write a tiled warehouse layout")
    gen.add_argument("--width", type=int, required=True)
    gen.add_argument("--height", type=int, required=True)
    gen.add_argument("--shelf-width", type=int, default=2)
    gen.add_argument("--shelf-height", type=int, default=4)
    gen.add_argument("--aisle", type=int, default=2)
    gen.add_argument("--out", required=True)
    gen.set_defaults(handler=_cmd_gen_layout)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except SimulatorError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError:
        # A layout, population or generation count too large for this host.
        print("error: out of memory: the scenario is too large to run here", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
