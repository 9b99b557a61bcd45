import codecs
import contextlib
import csv
import io
import json
import os
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from warefleet import cli, engine, potential
from warefleet.allocator import GAConfig
from warefleet.cli import build_scenario, main, read_scenario_file
from warefleet.engine import Scenario, default_step_cap, run_scenario
from warefleet.errors import LoadError
from warefleet.gridworld import (
    Position,
    document_lines,
    generate_layout_sized,
    parse_layout,
    serialize_layout,
)
from warefleet.planner import CAP_REACHED, format_trace

from conftest import run_python

MINI_SCENARIO = """\
# tiny benchmark
layout = generate:14x12
n_robots = 2
n_tasks = 2
gamma = 15
alpha = 0.05
sensor_radius = 3
population = 10
generations = 8
mutation_prob = 0.2
eta = 0.5
seed = 4
step_cap = 0
"""


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "mini.cfg"
    path.write_text(MINI_SCENARIO, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as handle:
        return list(csv.reader(handle))


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_scenario_lines_end_only_at_universal_newlines(tmp_path, newline):
    # str.splitlines would end a line at each of these separators, so that
    # the seed in the comment would be set and later lines renumbered.
    path = tmp_path / "s.cfg"
    for separator in "\f\v\x1c\x1d\x1e\x85\u2028\u2029":
        lines = ["layout = generate:14x12", f"n_tasks = 2 # two tasks{separator}seed = 7"]
        path.write_text(newline.join(lines) + newline, encoding="utf-8", newline="")
        assert read_scenario_file(path) == {"layout": ("generate:14x12", 1), "n_tasks": ("2", 2)}
        path.write_text(newline.join([*lines, "bogus"]), encoding="utf-8", newline="")
        with pytest.raises(LoadError, match=r"^expected 'key = value' \(line 3\)$"):
            read_scenario_file(path)
    # A byte that is not UTF-8 is named at its line under every newline.
    path.write_bytes((newline.join(lines) + newline).encode("utf-8") + b"# caf\xe9")
    with pytest.raises(LoadError, match=r"0xe9 is not UTF-8 \(line 3\)$"):
        read_scenario_file(path)


def test_build_scenario_defaults_and_overrides(scenario_file):
    sc = build_scenario(scenario_file)
    assert (sc.world.width, sc.world.height) == (14, 12)
    assert sc.n_robots == 2 and sc.n_tasks == 2
    assert sc.seed == 4
    assert build_scenario(scenario_file, seed_override=9).seed == 9


def test_build_scenario_with_layout_file_and_positions(tmp_path):
    layout = tmp_path / "tiny.layout"
    layout.write_text("#####\n#...#\n#...#\n#####\n", encoding="utf-8")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "layout = tiny.layout\nn_robots = 1\nn_tasks = 1\n"
        "robot_starts = 1,1\ntask_positions = 3,2\n",
        encoding="utf-8",
    )
    sc = build_scenario(cfg)
    assert sc.robot_starts == (Position(1, 1),)
    assert sc.task_positions == (Position(3, 2),)


def test_run_writes_metrics_csv(scenario_file, tmp_path):
    out = tmp_path / "metrics.csv"
    code = main(["run", "--scenario", str(scenario_file), "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert rows[0][:4] == ["N", "K", "seed", "J1"]
    assert len(rows) == 2
    assert rows[1][0] == "2" and rows[1][2] == "4"
    assert float(rows[1][3]) >= 1.0


def test_run_seed_override_and_json(scenario_file, tmp_path):
    out = tmp_path / "metrics.json"
    code = main(
        ["run", "--scenario", str(scenario_file), "--out", str(out), "--seed", "77", "--format", "json"]
    )
    assert code == 0
    payload = json.loads(out.read_text(encoding="utf-8"))
    assert payload["seed"] == 77
    assert payload["n_robots"] == 2
    assert payload["j1"] >= 1.0


# A layout whose right room no robot starting in the left room can reach.
SEALED_LAYOUT = "###########\n#.....#...#\n#.....#...#\n#.....#...#\n###########\n"


def _sealed_scenario_file(tmp_path, step_cap):
    """One robot at (1,1) whose only task, (8,2), sits behind a wall."""
    (tmp_path / "sealed.layout").write_text(SEALED_LAYOUT, encoding="utf-8")
    cfg = tmp_path / "sealed.cfg"
    cfg.write_text(
        "layout = sealed.layout\nn_robots = 1\nn_tasks = 1\nrobot_starts = 1,1\n"
        f"task_positions = 8,2\npopulation = 4\ngenerations = 2\nstep_cap = {step_cap}\nseed = 1\n",
        encoding="utf-8",
    )
    return cfg


def test_step_cap_zero_is_the_default_cap_in_python_and_in_a_file(tmp_path):
    built = Scenario(
        world=parse_layout(SEALED_LAYOUT), n_robots=1, n_tasks=1,
        robot_starts=(Position(1, 1),), task_positions=(Position(8, 2),),
        ga=GAConfig(population_size=4, max_generations=2), step_cap=0, seed=1,
    )
    loaded = build_scenario(_sealed_scenario_file(tmp_path, 0))
    assert loaded == built
    trace = run_scenario(built)[0]
    assert format_trace(run_scenario(loaded)[0]) == format_trace(trace)
    # The run is capped, at the default cap.
    assert trace.outcome == CAP_REACHED
    assert trace.k_total == default_step_cap(built.world, 1, 1)


def test_run_with_no_completed_leg_writes_undefined_j1(tmp_path):
    # The only task sits behind a wall, so the run ends at the cap with no leg.
    cfg = _sealed_scenario_file(tmp_path, 200)
    csv_out, json_out = tmp_path / "m.csv", tmp_path / "m.json"
    assert main(["run", "--scenario", str(cfg), "--out", str(csv_out)]) == 0
    row = dict(zip(*read_csv(csv_out)))
    assert row["J1"] == "nan" and row["cap_reached"] == "1"
    assert main(["run", "--scenario", str(cfg), "--out", str(json_out), "--format", "json"]) == 0

    def reject(constant):
        raise ValueError(f"not strict JSON: {constant}")

    payload = json.loads(json_out.read_text(encoding="utf-8"), parse_constant=reject)
    assert payload["j1"] is None and payload["cap_reached"] is True


def test_run_trace_and_ga_history(scenario_file, tmp_path):
    out = tmp_path / "m.csv"
    trace = tmp_path / "t.txt"
    history = tmp_path / "h.csv"
    code = main(
        [
            "run",
            "--scenario",
            str(scenario_file),
            "--out",
            str(out),
            "--trace",
            str(trace),
            "--ga-history",
            str(history),
        ]
    )
    assert code == 0
    first = trace.read_text(encoding="utf-8").splitlines()[0]
    assert first.startswith("0; 0:")
    rows = read_csv(history)
    assert rows[0] == ["generation", "best_fitness"]
    assert len(rows) == 8 + 2  # generations + initial row + header
    values = [float(r[1]) for r in rows[1:]]
    assert values == sorted(values)


def test_run_trace_deterministic_bytes(scenario_file, tmp_path):
    traces = [tmp_path / "a.txt", tmp_path / "b.txt"]
    for trace in traces:
        argv = ["run", "--scenario", str(scenario_file), "--out", str(tmp_path / "m.csv"),
                "--trace", str(trace)]
        assert main(argv) == 0
    assert traces[0].read_bytes() == traces[1].read_bytes()


def test_gen_layout_writes_expected_file(tmp_path):
    out = tmp_path / "w.layout"
    code = main(["gen-layout", "--width", "81", "--height", "80", "--out", str(out)])
    assert code == 0
    world = parse_layout(out.read_text(encoding="utf-8"))
    assert (world.width, world.height) == (81, 80)
    again = tmp_path / "w2.layout"
    main(["gen-layout", "--width", "81", "--height", "80", "--out", str(again)])
    assert out.read_bytes() == again.read_bytes()


def test_sweep_one_cell_times_each_seed(scenario_file, tmp_path):
    # One cell of the file's N and K: seeds `seed`..`seed + S - 1`, each
    # with its planner and A* compute.
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", str(scenario_file), "--out", str(out),
            "--n-values", "2", "--k-values", "2", "--seeds", "3"]
    assert main(argv) == 0
    header, *body = read_csv(out)
    rows = [dict(zip(header, row)) for row in body]
    assert [row["seed"] for row in rows] == ["4", "5", "6"]
    for row in rows:
        assert (row["N"], row["K"]) == ("2", "2")
        assert int(row["planner_time_us"]) >= 0 and int(row["astar_time_us"]) >= 0


def test_sweep_rows_and_summary(scenario_file, tmp_path):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "cells.csv"
    code = main(
        [
            "sweep",
            "--scenario",
            str(scenario_file),
            "--out",
            str(out),
            "--n-values",
            "1,2",
            "--k-values",
            "2",
            "--seeds",
            "2",
            "--summary",
            str(summary),
        ]
    )
    assert code == 0
    rows = read_csv(out)
    assert len(rows) == 1 + 4
    cells = read_csv(summary)
    assert len(cells) == 1 + 2
    assert cells[0][:2] == ["N", "K"]


# Written forms of a 3-robot run at seed 6 and of a 12-run sweep from seed 4,
# none of which caps. Timing values vary between executions and read "-".
GOLDEN_RUN_CSV = """\
N,K,seed,J1,J2,J3,J4,k_total,planner_time_us,astar_time_us,cap_reached
3,2,6,1.5714285714285714,3.6666666666666665,6.5,0.14285714285714285,14,-,-,0
"""

GOLDEN_RUN_JSON = """\
{
  "n_robots": 3,
  "n_tasks": 2,
  "seed": 6,
  "j1": 1.5714285714285714,
  "j2": 3.6666666666666665,
  "j3": 6.5,
  "j4": 0.14285714285714285,
  "k_total": 14,
  "per_robot": [
    [
      13,
      5
    ],
    [
      9,
      9
    ],
    [
      0,
      0
    ]
  ],
  "completed_tasks": 2,
  "cap_reached": false,
  "planner_time_us": -,
  "astar_time_us": -
}
"""

GOLDEN_SWEEP_CSV = """\
N,K,seed,J1,J2,J3,J4,k_total,planner_time_us,astar_time_us,cap_reached
1,2,4,1.0,4.5,4.5,0.16666666666666666,12,-,-,0
1,2,5,1.0,7.0,7.0,0.125,16,-,-,0
1,2,6,1.0,10.5,10.5,0.08695652173913043,23,-,-,0
1,4,4,1.0,5.25,5.25,0.15384615384615385,26,-,-,0
1,4,5,1.0,6.5,6.5,0.13333333333333333,30,-,-,0
1,4,6,1.0,7.25,7.25,0.12121212121212122,33,-,-,0
3,2,4,1.0,1.1666666666666667,3.5,0.2222222222222222,9,-,-,0
3,2,5,1.0,1.3333333333333333,2.0,0.4,5,-,-,0
3,2,6,1.5714285714285714,3.6666666666666665,6.5,0.14285714285714285,14,-,-,0
3,4,4,1.0,1.5833333333333333,1.75,0.5,8,-,-,0
3,4,5,1.0,1.8333333333333333,3.5,0.25,16,-,-,0
3,4,6,1.0,1.8333333333333333,2.75,0.3076923076923077,13,-,-,0
"""

GOLDEN_SUMMARY_CSV = """\
N,K,runs,completed_runs,mean_J1,std_J1,mean_J2,std_J2,mean_J3,std_J3,mean_J4,std_J4,mean_k_total,planner_time_us,astar_time_us
1,2,3,3,1.0,0.0,7.333333333333333,2.4608038433722332,7.333333333333333,2.4608038433722332,0.12620772946859904,0.03255273423174771,17.0,-,-
1,4,3,3,1.0,0.0,6.333333333333333,0.8249579113843054,6.333333333333333,0.8249579113843054,0.13613053613053613,0.013468810368311082,29.666666666666668,-,-
3,2,3,3,1.1904761904761905,0.2693740118805895,2.0555555555555554,1.1412576991207852,4.0,1.8708286933869707,0.255026455026455,0.10751031117154512,9.333333333333334,-,-
3,4,3,3,1.0,0.0,1.75,0.11785113019775792,2.6666666666666665,0.7168604389202189,0.3525641025641026,0.10688033333675043,12.333333333333334,-,-
"""


def _masked_csv(path):
    """The file's text with every value of a *_time_us column replaced by '-'."""
    lines = path.read_text(encoding="utf-8").splitlines()
    timed = [i for i, name in enumerate(lines[0].split(",")) if name.endswith("_time_us")]
    masked = [lines[0]]
    for line in lines[1:]:
        values = line.split(",")
        for i in timed:
            values[i] = "-"
        masked.append(",".join(values))
    return "\n".join(masked) + "\n"


def test_report_outputs_golden(tmp_path):
    cfg = tmp_path / "three.cfg"
    cfg.write_text(MINI_SCENARIO.replace("n_robots = 2", "n_robots = 3"), encoding="utf-8")
    run_csv, run_json = tmp_path / "run.csv", tmp_path / "run.json"
    sweep_csv, summary_csv = tmp_path / "sweep.csv", tmp_path / "cells.csv"
    assert main(["run", "--scenario", str(cfg), "--seed", "6", "--out", str(run_csv)]) == 0
    assert main(["run", "--scenario", str(cfg), "--seed", "6", "--format", "json",
                 "--out", str(run_json)]) == 0
    assert main(["sweep", "--scenario", str(cfg), "--seed", "4", "--n-values", "1,3",
                 "--k-values", "2,4", "--seeds", "3", "--out", str(sweep_csv),
                 "--summary", str(summary_csv)]) == 0
    assert _masked_csv(run_csv) == GOLDEN_RUN_CSV
    json_text = run_json.read_text(encoding="utf-8")
    assert re.sub(r'(_time_us": )\d+', r"\1-", json_text) == GOLDEN_RUN_JSON
    assert _masked_csv(sweep_csv) == GOLDEN_SWEEP_CSV
    assert _masked_csv(summary_csv) == GOLDEN_SUMMARY_CSV


# A warm sweep of the mini scenario from seed 4: the store carries each
# run's learned distances into the next run's allocation, so run (3, 4, 5)
# and its cell differ from the cold sweep. Timing values read "-".
GOLDEN_WARM_SWEEP_CSV = """\
N,K,seed,J1,J2,J3,J4,k_total,planner_time_us,astar_time_us,cap_reached
2,4,4,1.0,2.625,3.0,0.2857142857142857,14,-,-,0
2,4,5,1.0,3.125,4.5,0.19047619047619047,21,-,-,0
2,4,6,1.0,3.5,4.25,0.21052631578947367,19,-,-,0
2,6,4,1.0,2.75,2.8333333333333335,0.3,20,-,-,0
2,6,5,1.0,2.75,3.3333333333333335,0.25,24,-,-,0
2,6,6,1.0,2.6666666666666665,3.1666666666666665,0.2608695652173913,23,-,-,0
3,4,4,1.0,1.5833333333333333,1.75,0.5,8,-,-,0
3,4,5,1.0,1.4166666666666667,3.25,0.25,16,-,-,0
3,4,6,1.0,1.8333333333333333,2.75,0.3076923076923077,13,-,-,0
3,6,4,1.1142857142857143,2.1666666666666665,3.0,0.3,20,-,-,0
3,6,5,1.0,1.8333333333333333,2.6666666666666665,0.3333333333333333,18,-,-,0
3,6,6,1.0,1.3888888888888888,2.1666666666666665,0.375,16,-,-,0
"""

GOLDEN_WARM_SUMMARY_CSV = """\
N,K,runs,completed_runs,mean_J1,std_J1,mean_J2,std_J2,mean_J3,std_J3,mean_J4,std_J4,mean_k_total,planner_time_us,astar_time_us
2,4,3,3,1.0,0.0,3.0833333333333335,0.35843021946010944,3.9166666666666665,0.6561673228343176,0.22890559732664995,0.04099530207647551,18.0,-,-
2,6,3,3,1.0,0.0,2.722222222222222,0.039283710065919374,3.111111111111111,0.2078698548207745,0.2702898550724638,0.02147178607250587,22.333333333333332,-,-
3,4,3,3,1.0,0.0,1.611111111111111,0.17123372230469375,2.5833333333333335,0.6236095644623235,0.3525641025641026,0.10688033333675043,12.333333333333334,-,-
3,6,3,3,1.0380952380952382,0.05387480237611793,1.796296296296296,0.31860463952009727,2.611111111111111,0.34246744460938766,0.3361111111111111,0.030681558381075728,18.0,-,-
"""


def test_warm_sweep_outputs_golden(scenario_file, tmp_path):
    # A warm sweep runs in order in this process whatever --jobs says.
    modes = {"cold": [], "warm": ["--warm"], "warm-jobs2": ["--warm", "--jobs", "2"]}
    outputs = {}
    for mode, extra in modes.items():
        sweep_csv, summary_csv = tmp_path / f"{mode}.csv", tmp_path / f"{mode}-cells.csv"
        argv = ["sweep", "--scenario", str(scenario_file), "--n-values", "2,3",
                "--k-values", "4,6", "--seeds", "3", "--out", str(sweep_csv),
                "--summary", str(summary_csv)]
        assert main(argv + extra) == 0
        outputs[mode] = _masked_csv(sweep_csv), _masked_csv(summary_csv)
    golden = (GOLDEN_WARM_SWEEP_CSV, GOLDEN_WARM_SUMMARY_CSV)
    assert outputs["warm"] == golden and outputs["warm-jobs2"] == golden
    cold_rows, warm_rows = (outputs[mode][0].splitlines() for mode in ("cold", "warm"))
    assert cold_rows[:2] == warm_rows[:2]  # the first run starts from the 1-norm
    assert any(cold != warm for cold, warm in zip(cold_rows, warm_rows))


def _sweep_outputs(cfg, tmp_path, grid, jobs):
    """The masked sweep and summary CSVs of one `sweep` of `cfg` at `--jobs jobs`."""
    out, summary = tmp_path / f"sweep{jobs}.csv", tmp_path / f"cells{jobs}.csv"
    argv = ["sweep", "--scenario", str(cfg), "--out", str(out), "--summary", str(summary),
            *grid, "--jobs", str(jobs)]
    assert main(argv) == 0
    return _masked_csv(out), _masked_csv(summary)


TWO_ROBOTS_SCENARIO = """\
layout = w.layout
n_robots = 2
n_tasks = 3
population = 10
generations = 5
seed = 1
"""


def test_sweep_outputs_do_not_depend_on_jobs(tmp_path):
    # Every column but the timings, of every run row and summary cell.
    layout = tmp_path / "w.layout"
    assert main(["gen-layout", "--width", "21", "--height", "20", "--out", str(layout)]) == 0
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TWO_ROBOTS_SCENARIO, encoding="utf-8")
    assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "two.csv")]) == 0
    grid = ["--n-values", "1,2", "--k-values", "2", "--seeds", "2"]
    serial = _sweep_outputs(cfg, tmp_path, grid, 1)
    assert _sweep_outputs(cfg, tmp_path, grid, 2) == serial
    assert _sweep_outputs(cfg, tmp_path, grid, 8) == serial


def test_sweep_is_the_same_under_spawn(tmp_path):
    # Spawn and forkserver workers get the sweep's world by pickle, not by
    # fork; a fresh process runs the --jobs 2 sweep under each start method.
    # Forkserver is the Linux default from Python 3.14. The code goes in
    # with -c: forkserver re-runs the top level of a script file that has
    # no __main__ guard, and its pool then breaks.
    cfg = tmp_path / "two.cfg"
    cfg.write_text(TWO_ROBOTS_SCENARIO.replace("w.layout", "generate:21x20"), encoding="utf-8")
    grid = ["--n-values", "1,2", "--k-values", "2", "--seeds", "2"]
    serial = _sweep_outputs(cfg, tmp_path, grid, 1)
    for method in ("spawn", "forkserver"):
        out, summary = tmp_path / f"{method}.csv", tmp_path / f"{method}_cells.csv"
        code = (
            "import multiprocessing, sys\n"
            "from warefleet.cli import main\n"
            f"multiprocessing.set_start_method({method!r})\n"
            "code = main(sys.argv[1:])\n"
            "print(multiprocessing.get_start_method())\n"
            "sys.exit(code)\n"
        )
        started = run_python("-c", code, "sweep", "--scenario", str(cfg), "--out", str(out),
                             "--summary", str(summary), *grid, "--jobs", "2")
        assert started.stdout == f"{method}\n"
        assert (_masked_csv(out), _masked_csv(summary)) == serial


WIDE_SCENARIO = """\
layout = generate:41x40
sensor_radius = 12
n_robots = 3
n_tasks = 4
population = 10
generations = 5
seed = 3
"""


def test_large_radius_sweep_is_the_same_in_worker_processes(tmp_path):
    # At radius 12 on 41x40 most obstacle-field boxes are clipped at a wall.
    # The pooled sweep runs first on an empty field cache, so each worker
    # builds its own field, as the workers of a fresh `warefleet sweep` do.
    cfg = tmp_path / "wide.cfg"
    cfg.write_text(WIDE_SCENARIO, encoding="utf-8")
    grid = ["--n-values", "2,3", "--k-values", "4", "--seeds", "2"]
    potential._obstacle_field.cache_clear()
    pooled = _sweep_outputs(cfg, tmp_path, grid, 2)
    assert potential._obstacle_field.cache_info().currsize == 0
    assert pooled == _sweep_outputs(cfg, tmp_path, grid, 1)


CROWD_SCENARIO = """\
layout = generate:41x40
n_robots = 60
n_tasks = 60
population = 10
generations = 5
seed = 2
"""


def test_crowded_run_is_the_same_under_two_hash_seeds(tmp_path):
    # Two processes that hash strings differently: no set or dict order that
    # hashing decides may reach the trace or a deterministic column.
    cfg = tmp_path / "crowd.cfg"
    cfg.write_text(CROWD_SCENARIO, encoding="utf-8")
    outputs = []
    for hashseed in ("0", "1"):
        out, trace = tmp_path / f"crowd{hashseed}.csv", tmp_path / f"crowd{hashseed}.trace"
        run_python("-m", "warefleet.cli", "run", "--scenario", str(cfg), "--out", str(out),
                   "--trace", str(trace), PYTHONHASHSEED=hashseed)
        outputs.append((trace.read_bytes(), _masked_csv(out)))
    assert outputs[0] == outputs[1]


# The two scenario commands, each with the arguments it needs besides
# --scenario and --out.
SCENARIO_COMMANDS = {
    "run": [],
    "sweep": ["--n-values", "1", "--k-values", "2"],
}


@pytest.mark.parametrize("command", SCENARIO_COMMANDS)
def test_scenario_commands_share_their_arguments(command, scenario_file, tmp_path, capsys):
    out = tmp_path / "out.txt"
    extra = SCENARIO_COMMANDS[command]
    for missing in ("--scenario", "--out"):
        given = {"--scenario": str(scenario_file), "--out": str(out)}
        del given[missing]
        with pytest.raises(SystemExit) as exit_:
            main([command, *[a for pair in given.items() for a in pair], *extra])
        assert exit_.value.code == 2
        assert f"the following arguments are required: {missing}" in capsys.readouterr().err
    argv = [command, "--scenario", str(scenario_file), "--out", str(out), "--seed", "9", *extra]
    assert main(argv) == 0 and out.exists()


def test_failed_rename_leaves_the_old_output_and_no_temp_file(
    monkeypatch, scenario_file, tmp_path, capsys
):
    out = tmp_path / "x.csv"
    out.write_text("old\n", encoding="utf-8")

    def refuse(src, dst):
        raise PermissionError(f"cannot replace {dst}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(["run", "--scenario", str(scenario_file), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith("i/o error: cannot replace ")
    assert sorted(tmp_path.iterdir()) == sorted([scenario_file, out])
    assert out.read_text(encoding="utf-8") == "old\n"


def test_byte_order_marks_are_ignored(tmp_path):
    # Some editors save UTF-8 with a leading byte-order mark; a scenario and
    # a layout document saved so run as the same documents without it.
    layout = serialize_layout(generate_layout_sized(14, 12)).encode("utf-8")
    outputs = []
    for name, mark in (("plain", b""), ("marked", codecs.BOM_UTF8)):
        (tmp_path / f"{name}.layout").write_bytes(mark + layout)
        cfg = tmp_path / f"{name}.cfg"
        cfg.write_bytes(mark + MINI_SCENARIO.replace("generate:14x12", f"{name}.layout").encode())
        out, trace = tmp_path / f"{name}.csv", tmp_path / f"{name}.txt"
        assert main(["run", "--scenario", str(cfg), "--out", str(out), "--trace", str(trace)]) == 0
        outputs.append((_masked_csv(out), trace.read_bytes()))
    assert outputs[0] == outputs[1]


def test_bad_byte_after_a_byte_order_mark_is_named_at_its_line(tmp_path):
    # Offsets count from the file's first byte, mark included: the byte
    # named is the 0xff on line 2, not the line feed five bytes past the mark.
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(codecs.BOM_UTF8 + b"ab\ncd\xff")
    with pytest.raises(LoadError, match=r": byte 0xff is not UTF-8 \(line 2\)$"):
        read_scenario_file(cfg)


def test_given_cells_may_outnumber_the_free_floor(tmp_path):
    # Three robots and three tasks on a four-cell floor: every cell is
    # given, so none is drawn, whatever the counts add up to.
    (tmp_path / "room.layout").write_text("####\n#..#\n#..#\n####\n", encoding="utf-8")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(
        "layout = room.layout\nn_robots = 3\nn_tasks = 3\nrobot_starts = 1,1, 2,1, 1,2\n"
        "task_positions = 1,1, 2,1, 1,2\npopulation = 4\ngenerations = 2\n",
        encoding="utf-8",
    )
    sc = build_scenario(cfg)
    assert (sc.n_robots, sc.n_tasks) == (3, 3)
    assert main(["run", "--scenario", str(cfg), "--out", str(tmp_path / "x.csv")]) == 0


# A floor of one cell, which cannot hold the default robot and task.
ONE_CELL_LAYOUT = "###\n#.#\n###\n"
# Two rooms of four cells each, with no way between them.
SPLIT_LAYOUT = "#######\n#..#..#\n#..#..#\n#######\n"
ONE_CELL_OVERFLOW = "layout has only 1 free cells for 2 random placements"
# A scenario whose layout is the document t.layout, on its line 3.
LAYOUT_SCENARIO = "n_robots = 1\nn_tasks = 1\nlayout = t.layout\n"
RUN = ["run", "--scenario", "s.cfg", "--out", "x.csv"]
SWEEP = ["sweep", "--scenario", "s.cfg", "--out", "sweep.csv", "--summary", "cells.csv"]


def _write(directory: Path, files: dict[str, str | bytes]) -> None:
    for name, data in files.items():
        (directory / name).write_bytes(data if isinstance(data, bytes) else data.encode("utf-8"))


def run_cli(files: dict[str, str | bytes], argv: list[str]) -> tuple[int, str, list[str]]:
    """Run `main(argv)` in process from a fresh temporary directory that
    holds `files`, name -> text or bytes. Returns the exit code, the stderr
    text and the sorted names of the files that the command wrote."""
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        _write(Path(tmp), files)
        stderr = io.StringIO()
        os.chdir(tmp)
        try:
            with contextlib.redirect_stderr(stderr):
                code = main(argv)
        finally:
            os.chdir(cwd)
        written = sorted(set(os.listdir(tmp)) - set(files))
    return code, stderr.getvalue(), written


def _bad(id, files, err, argv=RUN, place=None):
    """A BAD_INPUTS row; `files` given as one text are the scenario s.cfg."""
    files = files if isinstance(files, dict) else {"s.cfg": files}
    return pytest.param(files, argv, err, place, id=id)


def _bad_value(key, value, message):
    """The row of MINI_SCENARIO with `key` set to `value`: an error at its line."""
    lines = MINI_SCENARIO.splitlines(keepends=True)
    line = next(n for n, text in enumerate(lines, 1) if text.startswith(f"{key} = "))
    lines[line - 1] = f"{key} = {value}\n"
    err = f"error: {key}: {message} (line {line})"
    return _bad(f"{key}-{value}-{line}", "".join(lines), err, place=(line, None))


# Every bad input of the command line: its id, its files, its argv, its one
# stderr line (a pattern where the OS or Python words part of it) and, for a
# fault in a scenario or layout file, the (line, column) of the LoadError
# that build_scenario raises. Two sections of the table, bad values of
# MINI_SCENARIO and bad grid axes of sweep, are lists of their own.
BAD_VALUES = [
    # Values that do not parse, then values that fail their owner's check.
    _bad_value("n_robots", "abc", "invalid literal for int() with base 10: 'abc'"),
    _bad_value("alpha", "0.05x", "could not convert string to float: '0.05x'"),
    _bad_value("gamma", "0.5", "excitation factor must be finite and exceed 1, got 0.5"),
    _bad_value("gamma", "inf", "excitation factor must be finite and exceed 1, got inf"),
    _bad_value("gamma", "nan", "excitation factor must be finite and exceed 1, got nan"),
    _bad_value("sensor_radius", "1", "sensor radius must be at least 2"),
    _bad_value("n_robots", "0", "need at least one robot and one task"),
    _bad_value("mutation_prob", "2", "mutation probability must lie in [0, 1]"),
    _bad_value("population", "1", "population size must be at least 2"),
    _bad_value("generations", "0", "need at least one generation"),
    _bad_value("eta", "0", "learning rate must lie in (0, 1]"),
    _bad_value("layout", "generate:3x3", "3x3 leaves no room for an aisle"),
    _bad_value("step_cap", "-1", "step cap must be positive, or 0 for the default"),
]
# Each row is named by its two axes and the stderr text.
BAD_GRID_VALUES = [
    _bad(f"{n}-{k}-error: {err}\n", MINI_SCENARIO, f"error: {err}",
         [*SWEEP, f"--n-values={n}", f"--k-values={k}", "--seeds", "2"])
    for n, k, err in [
        (",", "2", "--n-values: expected at least one value"),
        ("1", " ", "--k-values: expected at least one value"),
        ("1,1", "2", "--n-values: value 1 given more than once"),
        ("1", "2,3, 2", "--k-values: value 2 given more than once"),
        ("1,0", "2", "--n-values: value 0 is below 1"),
        ("1", "2,-1", "--k-values: value -1 is below 1"),
        ("1,x", "2", "--n-values: expected comma-separated integers, got '1,x'"),
    ]
]
BAD_INPUTS = [
    _bad("missing-scenario", {}, re.compile(r"i/o error: \[Errno \d+\] .+: 's\.cfg'")),
    # Lines that are not `key = value` for a key of the table, given once.
    _bad("unknown-key", "layout = generate:10x10\nrobots = 3\n",
         "error: unknown scenario key 'robots' (line 2)", place=(2, None)),
    _bad("duplicate-key", "layout = generate:10x10\nseed = 1\nseed = 2\n",
         "error: duplicate scenario key 'seed' (line 3)", place=(3, None)),
    _bad("no-equals", MINI_SCENARIO + "seed 4\n",
         "error: expected 'key = value' (line 14)", place=(14, None)),
    _bad("no-layout-key", "n_robots = 2\n",
         "error: scenario is missing the 'layout' key", place=(None, None)),
    # Lines that parse as `key = value` but whose value does not.
    _bad("robot_starts-1,x", MINI_SCENARIO + "robot_starts = 1,x\n",
         "error: robot_starts: positions must be integers, got '1,x' (line 14)", place=(14, None)),
    _bad("robot_starts-1,2,3", MINI_SCENARIO + "robot_starts = 1,2,3\n",
         "error: robot_starts: odd number of coordinates in '1,2,3' (line 14)", place=(14, None)),
    _bad("layout-generate:banana", "layout = generate:banana\n",
         "error: layout: expected generate:WIDTHxHEIGHT, got 'generate:banana' (line 1)",
         place=(1, None)),
    _bad("n_robots-0-alone", "layout = generate:10x10\nn_robots = 0\n",
         "error: n_robots: need at least one robot and one task (line 2)", place=(2, None)),
    # Every value is parsed before any object is built, so n_robots, which
    # does not parse, is named, not gamma, which fails its check.
    _bad("parse-before-check", "gamma = 0.5\nlayout = generate:21x20\nn_robots = abc\n",
         "error: n_robots: invalid literal for int() with base 10: 'abc' (line 3)",
         place=(3, None)),
    # Counts that the floor cannot hold name the first key from which on
    # they fail: the layout's line when the defaults fail.
    _bad("placements-beyond-floor", "layout = generate:21x20\nn_tasks = 5000\n",
         "error: n_tasks: layout has only 278 free cells for 5001 random placements (line 2)",
         place=(2, None)),
    *(
        _bad(f"one-cell-{id}", {"s.cfg": text, "one.layout": ONE_CELL_LAYOUT},
             f"error: layout: {ONE_CELL_OVERFLOW} (line {line})", place=(line, None))
        for id, text, line in [
            ("layout-only", "layout = one.layout\n", 1),
            ("potential-and-ga-keys",
             "gamma = 2\nlayout = one.layout\npopulation = 4\nmutation_prob = 0.5\n", 2),
            ("default-count", "n_robots = 1\nlayout = one.layout\n", 2),
        ]
    ),
    # A layout path that names no readable document; an empty one names the
    # scenario's own directory. Each is an error at the layout's line.
    _bad("layout-path-empty", "n_robots = 1\nlayout = \n",
         re.compile(r"error: layout: cannot read '': .+ \(line 2\)"), place=(2, None)),
    _bad("layout-path-missing", "n_robots = 1\nlayout = nope.layout\n",
         re.compile(r"error: layout: cannot read 'nope\.layout': .+ \(line 2\)"), place=(2, None)),
    _bad("layout-path-nul", "n_robots = 1\nlayout = a\0b.layout\n",
         re.compile(r"error: layout: .*null.* \(line 2\)"), place=(2, None)),
    # A byte that is not UTF-8 is named in its own document at its line.
    _bad("non-utf8-scenario", {"s.cfg": LAYOUT_SCENARIO.encode() + b"# caf\xe9\n",
                               "t.layout": "#####\n#...#\n#...#\n#####\n"},
         "error: s.cfg: byte 0xe9 is not UTF-8 (line 4)", place=(4, None)),
    # A fault in the layout document's text names that document, as the
    # scenario file wrote it, and its line and column; a grid that is too
    # small is a fault of the layout key's value.
    *(
        _bad(f"document-{id}", {"s.cfg": LAYOUT_SCENARIO, "t.layout": document},
             f"error: layout: {err}", place=place)
        for id, document, err, place in [
            ("non-utf8", b"#####\n#...#\n#.\xe9.#\n#####\n",
             "t.layout: byte 0xe9 is not UTF-8 (line 3)", (3, None)),
            ("nul", b"#####\n#.\0.#\n#####\n",
             "t.layout: unknown glyph '\\x00' (line 2, column 3)", (2, 3)),
            ("ragged", b"#####\n#...\n#####\n",
             "t.layout: ragged row: expected 5 characters, got 4 (line 2)", (2, None)),
            ("open-border", b"#####\r\n....#\r\n#####\r\n",
             "t.layout: boundary is not enclosed by walls (line 2, column 1)", (2, 1)),
            ("empty", b"\n\n", "t.layout: layout document is empty (line 1)", (1, None)),
            ("too-small", b"##\n##\n",
             "grid 2x2 too small to hold walls and floor (line 3)", (3, None)),
        ]
    ),
    # Sweep flags, checked after the scenario file and before any run.
    *(
        _bad(f"seeds-{seeds}", MINI_SCENARIO, "error: need at least one seed per cell",
             [*SWEEP, "--n-values", "1", "--k-values", "2", f"--seeds={seeds}"])
        for seeds in ("0", "-2")
    ),
    *(
        _bad(f"jobs-{jobs}", MINI_SCENARIO, "error: jobs must be at least 1",
             [*SWEEP, "--n-values", "1", "--k-values", "2", f"--jobs={jobs}"])
        for jobs in ("0", "-3")
    ),
    # The largest cell of the grid overflows the floor, in the parent and
    # in worker processes.
    *(
        _bad(f"grid-overflow-jobs{jobs}",
             "layout = generate:21x20\npopulation = 4\ngenerations = 2\n",
             "error: --n-values 300 with --k-values 5: "
             "layout has only 278 free cells for 305 random placements",
             [*SWEEP, "--n-values", "5,300", "--k-values", "5", "--jobs", jobs])
        for jobs in ("1", "2")
    ),
]


def _ends_in_one_error_line(tmp_path, files, argv, err, place):
    """Exit 2 for an i/o error and 1 for any other, one full stderr line,
    no file written and, for a fault in a file, the LoadError's place."""
    code, stderr, written = run_cli(files, argv)
    io_error = getattr(err, "pattern", err).startswith("i/o error: ")
    assert (code, written) == (2 if io_error else 1, [])
    assert stderr.endswith("\n") and stderr.count("\n") == 1, stderr
    line = stderr[:-1]
    assert err.fullmatch(line) if isinstance(err, re.Pattern) else line == err
    if place:
        _write(tmp_path, files)
        with pytest.raises(LoadError) as raised:
            build_scenario(tmp_path / "s.cfg")
        assert (raised.value.line, raised.value.column) == place


@pytest.mark.parametrize("files, argv, err, place", BAD_INPUTS)
def test_bad_input_ends_in_one_error_line(tmp_path, files, argv, err, place):
    _ends_in_one_error_line(tmp_path, files, argv, err, place)


@pytest.mark.parametrize("files, argv, err, place", BAD_VALUES)
def test_bad_number_is_load_error_with_line(tmp_path, files, argv, err, place):
    _ends_in_one_error_line(tmp_path, files, argv, err, place)


@pytest.mark.parametrize("files, argv, err, place", BAD_GRID_VALUES)
def test_sweep_rejects_empty_or_repeated_grid_value(tmp_path, files, argv, err, place):
    _ends_in_one_error_line(tmp_path, files, argv, err, place)


# The fuzzer's values for each scenario key: ones that pass, and ones that
# do not parse or fail a check. Every size that can run is small: at most
# 6 robots and tasks, and a population and generation count of at most 4.
_BAD_NUMBERS = ["nan", "inf", "-inf", "-1", "abc", "", "2x"]
_FUZZ_VALUES = {
    key: (st.sampled_from(good), st.sampled_from([*bad, *_BAD_NUMBERS]))
    for key, good, bad in [
        ("gamma", ["15", "1.5", "2e1"], ["1", "0", "0.5"]),
        ("alpha", ["0.05", "0", "0.9"], ["1", "1e9"]),
        ("sensor_radius", ["3", "2", "5"], ["1", "0", "2.5"]),
        ("population", ["2", "3", "4"], ["1", "0", "4.0"]),
        ("generations", ["1", "2", "4"], ["0", "1.5"]),
        ("mutation_prob", ["0.2", "0", "1"], ["1.5"]),
        ("n_robots", ["1", "2", "3", "6"], ["0", "1.0"]),
        ("n_tasks", ["1", "2", "4", "6"], ["0", "1.0"]),
        ("eta", ["0.5", "1", "0.01"], ["0", "1.5"]),
        ("step_cap", ["0", "1", "5", "40"], ["-2", "1.5"]),
        ("seed", ["0", "7", "-5", str(2**70)], ["1.5"]),
    ]
}
_FUZZ_VALUES["layout"] = (
    st.one_of(
        st.builds("generate:{}x{}".format, st.integers(5, 12), st.integers(4, 12)),
        st.sampled_from(["one.layout", "split.layout"]),
    ),
    st.sampled_from(["generate:3x3", "generate:-4x8", "generate:banana", "generate:10",
                     "a\0.layout", "", "missing.layout"]),
)
# Cells in x 1..3, y 1..2 are floor on every layout generated here, and four
# of them on the split one. A bad list is off the floor, odd or not integers.
_CELLS = st.lists(st.tuples(st.integers(1, 3), st.integers(1, 2)), unique=True, max_size=6)
_BAD_CELLS = st.one_of(
    st.lists(st.sampled_from(["0", "-1", "1", "2", "13", "x", "1.5", "nan"]), max_size=7),
    st.lists(st.integers(1, 3).map(str), min_size=1, max_size=7).filter(lambda xs: len(xs) % 2),
)
_FUZZ_VALUES["robot_starts"] = _FUZZ_VALUES["task_positions"] = (
    _CELLS.map(lambda cells: ", ".join(f"{x},{y}" for x, y in cells)),
    _BAD_CELLS.map(", ".join),
)


def _one_in(draw, n: int) -> bool:
    """True in about one draw of n; False once Hypothesis shrinks it."""
    return draw(st.integers(0, n - 1)) == n - 1


@st.composite
def scenario_documents(draw) -> bytes:
    """A scenario file built from cli's key table, then mutated: at most two
    bad values, keys dropped, reordered and duplicated, comments and blank
    lines, a BOM, non-ASCII or non-UTF-8 bytes, and LF, CR LF or CR line ends."""
    assert set(_FUZZ_VALUES) == set(cli._SCENARIO_KEYS)
    keys = [key for key in cli._SCENARIO_KEYS if key != "layout"]
    chosen = draw(st.lists(st.sampled_from(keys), unique=True))
    if not _one_in(draw, 20):
        chosen.insert(draw(st.integers(0, len(chosen))), "layout")
    values = {key: draw(_FUZZ_VALUES[key][0]) for key in chosen}
    if chosen:
        for key in draw(st.lists(st.sampled_from(chosen), unique=True, max_size=2)):
            values[key] = draw(_FUZZ_VALUES[key][1])
    if values.get("layout") == "split.layout":
        # A task in the other room runs to the cap, so the cap is kept small.
        if "step_cap" not in chosen:
            chosen.append("step_cap")
        values["step_cap"] = str(draw(st.integers(1, 30)))
    lines = [f"{key}{draw(st.sampled_from([' = ', '=', '  =  ']))}{values[key]}" for key in chosen]
    if lines and _one_in(draw, 5):
        key = draw(st.sampled_from(chosen))
        lines.insert(draw(st.integers(0, len(lines))), f"{key} = {draw(_FUZZ_VALUES[key][0])}")
    comments = st.sampled_from(["# note", "  # café", "", "   ", "# ☃ snow"])
    for _ in range(draw(st.integers(0, 3))):
        lines.insert(draw(st.integers(0, len(lines))), draw(comments))
    if lines and draw(st.booleans()):
        lines[draw(st.integers(0, len(lines) - 1))] += draw(comments)
    newline = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    text = ("\ufeff" if _one_in(draw, 10) else "") + newline.join(lines)
    data = (text + draw(st.sampled_from([newline, ""]))).encode("utf-8")
    if _one_in(draw, 10):  # a Latin-1 byte, which is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + b"\xe9" + data[at:]
    return data


@settings(deadline=None, max_examples=150)
@given(scenario_documents())
@example(b"layout = one.layout\n")
@example(b"layout = one.layout\ngamma = 2\npopulation = 4\n")
@example(b"layout = one.layout\nn_robots = 1\n")
@example(b"gamma = 0.5\nlayout = generate:21x20\nn_robots = abc\n")
def test_fuzzed_scenario_file_ends_in_a_result_or_one_error_line(document):
    # Exit 0 with the output written, or exit 1 with one `error:` line that
    # names a line of the file (unless the layout key is missing) and no
    # output; no exception escapes.
    files = {"one.layout": ONE_CELL_LAYOUT, "split.layout": SPLIT_LAYOUT, "s.cfg": document}
    code, message, written = run_cli(files, RUN)
    if code == 0:
        assert message == "" and written == ["x.csv"]
        return
    assert code == 1 and written == []
    assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n")
    if message != "error: scenario is missing the 'layout' key\n":
        named = re.search(r"\(line (\d+)\)$", message.rstrip("\n"))
        assert named, message
        n_lines = len(document_lines(document.decode("utf-8", "replace")))
        assert 1 <= int(named.group(1)) <= n_lines, message


@st.composite
def layout_documents(draw) -> bytes:
    """A walled layout document with a random floor, often empty or of one
    cell, then mutated: a ragged row, an unknown glyph or NUL, a floor glyph
    on the border, a non-UTF-8 byte, LF, CR LF and CR line ends mixed, or
    no text at all."""
    width, height = draw(st.integers(3, 7)), draw(st.integers(3, 5))
    rows = [["#"] * width for _ in range(height)]
    for y in range(1, height - 1):
        rows[y][1:-1] = draw(st.lists(st.sampled_from("#.."), min_size=width - 2, max_size=width - 2))
    if _one_in(draw, 2):
        y, x = draw(st.integers(0, height - 1)), draw(st.integers(0, width - 1))
        rows[y][x] = draw(st.sampled_from(["x", " ", "\t", "\0", "é", "☃"]))
    if _one_in(draw, 2):  # an opening in the border
        y = draw(st.sampled_from([0, height - 1]))
        rows[y][draw(st.integers(0, width - 1))] = "."
    if _one_in(draw, 3):
        row = rows[draw(st.integers(0, height - 1))]
        row[draw(st.integers(0, width - 1)):] = draw(st.sampled_from([[], ["#"], ["#", "."]]))
    ends = st.sampled_from(["\n", "\r\n", "\r"])
    text = "".join("".join(row) + draw(ends) for row in rows)
    data = b"" if _one_in(draw, 15) else text.encode("utf-8")
    if _one_in(draw, 4):  # a byte that is not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xe9", b"\xff", b"\x80"])) + data[at:]
    return data


@settings(deadline=None, max_examples=100)
@given(layout_documents())
@example(b"###\r\n#.#\n###")
@example(b"####\n#..#\r#.#\n####\n")
def test_fuzzed_layout_document_ends_in_a_result_or_one_error_line(document):
    # Exit 0 with the output written, or exit 1 with no output and one
    # `error: layout:` line: a fault in the document's text names the
    # document and one of its lines, and a floor that the scenario cannot
    # use, the layout key's line of the scenario file.
    scenario = "layout = t.layout\npopulation = 2\ngenerations = 1\nstep_cap = 30\n"
    code, message, written = run_cli({"s.cfg": scenario, "t.layout": document}, RUN)
    if code == 0:
        assert message == "" and written == ["x.csv"]
        return
    assert code == 1 and written == []
    assert message.count("\n") == 1 and message.endswith("\n"), message
    named = re.fullmatch(r"error: layout: t\.layout: .+ \(line (\d+)(, column \d+)?\)\n", message)
    if named:
        n_lines = len(document_lines(document.decode("utf-8", "replace")))
        assert 1 <= int(named.group(1)) <= n_lines, message
    else:
        assert re.fullmatch(r"error: layout: .+ \(line 1\)\n", message), message


# A floor of four cells, which holds the robots and tasks of small cells only.
ROOM_LAYOUT = "####\n#..#\n#..#\n####\n"
# Scenario lines that are each a fault at their own line.
_BAD_LINES = ["gamma = 0.5", "n_robots = x", "seed 4", "robots = 2"]
# Sweep axes: one to three distinct values in 1..3, or a bad list.
_GOOD_AXIS = st.lists(st.sampled_from("123"), min_size=1, max_size=3, unique=True).map(",".join)
_BAD_AXES = ["", ",", "2,2", "1,0", "-1", "x", "1,x"]


@st.composite
def sweep_calls(draw):
    """A scenario of population 2 and one generation on a 24-cell floor or
    on ROOM_LAYOUT, at times with one line of _BAD_LINES, and sweep flags
    each drawn from good and bad values; at most --jobs 2, since each such
    call may start a pool. Returns the scenario text, the argv, the line of
    the file's fault or None, and whether every input is good and the floor
    holds the sweep's largest cell."""
    room = draw(st.booleans())
    lines = [f"layout = {'room.layout' if room else 'generate:8x6'}", "population = 2",
             "generations = 1"]
    bad_line = None
    if _one_in(draw, 4):
        bad_line = draw(st.integers(1, len(lines) + 1))
        lines.insert(bad_line - 1, draw(st.sampled_from(_BAD_LINES)))

    def good_or_bad(good, bad):  # bad in about one draw of four
        return draw(st.sampled_from(bad) if _one_in(draw, 4) else good)

    axes = [good_or_bad(_GOOD_AXIS, _BAD_AXES) for _ in range(2)]
    seeds = good_or_bad(st.sampled_from([1, 2]), [0, -1])
    jobs = good_or_bad(st.sampled_from([1, 2]), [0, -3])
    argv = ["sweep", "--scenario", "s.cfg", "--out", "sweep.csv", f"--n-values={axes[0]}",
            f"--k-values={axes[1]}", f"--seeds={seeds}", f"--jobs={jobs}"]
    argv += draw(st.sampled_from([[], ["--warm"]]))
    argv += draw(st.sampled_from([[], ["--summary", "cells.csv"]]))
    largest = [max(map(int, axis.split(","))) for axis in axes if axis not in _BAD_AXES]
    valid = bad_line is None and len(largest) == 2 and min(seeds, jobs) >= 1
    return "\n".join(lines) + "\n", argv, bad_line, valid and sum(largest) <= (4 if room else 24)


@settings(deadline=None, max_examples=80)
@given(sweep_calls())
def test_fuzzed_sweep_ends_in_a_result_or_one_error_line(call):
    # Exit 0 with the run rows written, and the summary when asked for, or
    # exit 1 with no output and one `error:` line that names the line of a
    # fault in the scenario file and no line for a fault in the flags. A
    # sweep whose every input is good and fits the floor exits 0.
    scenario, argv, bad_line, valid = call
    code, message, written = run_cli({"s.cfg": scenario, "room.layout": ROOM_LAYOUT}, argv)
    assert (code == 0) == valid, message
    if code == 0:
        summary = ["cells.csv"] if "--summary" in argv else []
        assert message == "" and written == [*summary, "sweep.csv"]
        return
    assert code == 1 and written == []
    assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n")
    named = re.search(r" \(line (\d+)\)\n$", message)
    assert (named and int(named.group(1))) == bad_line, message


def test_removed_commands_are_invalid_choices(scenario_file, tmp_path, capsys):
    # A run's trace is `run --trace`; planner and A* compute per seed is a sweep.
    for command in ("dump-trace", "compare-astar"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--scenario", str(scenario_file), "--out", str(tmp_path / "x")])
        assert exit_.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_of_memory_is_an_error_line(monkeypatch, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    monkeypatch.setattr(engine, "run_scenario", exhausted)
    argv = RUN if command == "run" else [*SWEEP, "--n-values", "1", "--k-values", "2"]
    code, err, written = run_cli({"s.cfg": MINI_SCENARIO}, argv)
    assert err == "error: out of memory: the scenario is too large to run here\n"
    assert (code, written) == (1, [])  # no output, no temp file
