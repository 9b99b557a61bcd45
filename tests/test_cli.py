import codecs
import contextlib
import csv
import io
import json
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


def test_read_scenario_file_rejects_unknown_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("layout = generate:10x10\nrobots = 3\n", encoding="utf-8")
    with pytest.raises(LoadError):
        read_scenario_file(path)


def test_read_scenario_file_rejects_duplicate_key(tmp_path):
    path = tmp_path / "bad.cfg"
    path.write_text("layout = generate:10x10\nseed = 1\nseed = 2\n", encoding="utf-8")
    with pytest.raises(LoadError):
        read_scenario_file(path)


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


@pytest.mark.parametrize("seeds", ["0", "-2"])
def test_sweep_rejects_seeds_below_one(scenario_file, tmp_path, capsys, seeds):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "cells.csv"
    argv = ["sweep", "--scenario", str(scenario_file), "--out", str(out),
            "--n-values", "1", "--k-values", "2", f"--seeds={seeds}", "--summary", str(summary)]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: need at least one seed per cell\n"
    assert not out.exists() and not summary.exists()


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


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_sweep_rejects_jobs_below_one(scenario_file, tmp_path, capsys, jobs):
    out = tmp_path / "sweep.csv"
    argv = ["sweep", "--scenario", str(scenario_file), "--out", str(out),
            "--n-values", "1", "--k-values", "2", "--seeds", "1", f"--jobs={jobs}"]
    assert main(argv) == 1
    assert capsys.readouterr().err == "error: jobs must be at least 1\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "n_values, k_values, message",
    [
        (",", "2", "error: --n-values: expected at least one value\n"),
        ("1", " ", "error: --k-values: expected at least one value\n"),
        ("1,1", "2", "error: --n-values: value 1 given more than once\n"),
        ("1", "2,3, 2", "error: --k-values: value 2 given more than once\n"),
        ("1,0", "2", "error: --n-values: value 0 is below 1\n"),
        ("1", "2,-1", "error: --k-values: value -1 is below 1\n"),
        ("1,x", "2", "error: --n-values: expected comma-separated integers, got '1,x'\n"),
    ],
)
def test_sweep_rejects_empty_or_repeated_grid_value(
    scenario_file, tmp_path, capsys, n_values, k_values, message
):
    out = tmp_path / "sweep.csv"
    summary = tmp_path / "cells.csv"
    argv = ["sweep", "--scenario", str(scenario_file), "--out", str(out),
            f"--n-values={n_values}", f"--k-values={k_values}", "--seeds", "2",
            "--summary", str(summary)]
    assert main(argv) == 1
    assert capsys.readouterr().err == message
    assert not out.exists() and not summary.exists()


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


def test_missing_scenario_file_is_io_error(tmp_path):
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(tmp_path / "nope.cfg"), "--out", str(out)]) == 2


def test_malformed_scenario_is_validation_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("layout = generate:10x10\nn_robots = 0\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1


@pytest.mark.parametrize(
    "key, bad, line",
    [
        ("n_robots", "abc", 3),
        ("alpha", "0.05x", 6),
        # Values that parse but fail their owner's range check.
        ("gamma", "0.5", 5),
        ("gamma", "inf", 5),
        ("gamma", "nan", 5),
        ("sensor_radius", "1", 7),
        ("n_robots", "0", 3),
        ("mutation_prob", "2", 10),
        ("population", "1", 8),
        ("generations", "0", 9),
        ("eta", "0", 11),
        ("layout", "generate:3x3", 2),
        ("step_cap", "-1", 13),
    ],
)
def test_bad_number_is_load_error_with_line(tmp_path, capsys, key, bad, line):
    lines = MINI_SCENARIO.splitlines()
    assert lines[line - 1].startswith(f"{key} = ")
    lines[line - 1] = f"{key} = {bad}"
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("\n".join(lines) + "\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert message.startswith(f"error: {key}: ") and message.rstrip().endswith(f"(line {line})")
    assert not out.exists()
    with pytest.raises(LoadError) as raised:
        build_scenario(cfg)
    assert raised.value.line == line


@pytest.mark.parametrize(
    "bad_line, message",
    [
        ("seed 4", "expected 'key = value'"),
        ("robot_starts = 1,x", "robot_starts: positions must be integers, got '1,x'"),
        ("robot_starts = 1,2,3", "robot_starts: odd number of coordinates in '1,2,3'"),
    ],
)
def test_malformed_line_is_one_error_line(tmp_path, capsys, bad_line, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(MINI_SCENARIO + bad_line + "\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    line = MINI_SCENARIO.count("\n") + 1
    assert capsys.readouterr().err == f"error: {message} (line {line})\n"
    assert not out.exists()


def test_scenario_without_layout_is_one_error_line(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("n_robots = 2\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == "error: scenario is missing the 'layout' key\n"
    assert not out.exists()


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


@pytest.mark.parametrize("bad_file", ["scenario", "layout"])
def test_non_utf8_file_is_load_error_with_line(tmp_path, capsys, bad_file):
    layout = tmp_path / "w.layout"
    rows = ["#####", "#...#", "#...#", "#####"]
    if bad_file == "layout":
        rows[2] = "#.\xe9.#"
    layout.write_bytes("\n".join(rows).encode("latin-1") + b"\n")
    text = "layout = w.layout\nn_robots = 1\nn_tasks = 1\n"
    if bad_file == "scenario":
        text += "# caf\xe9\n"
    cfg = tmp_path / "s.cfg"
    cfg.write_bytes(text.encode("latin-1"))
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert message.startswith("error: ") and "0xe9" in message
    assert message.rstrip().endswith(f"(line {3 if bad_file == 'layout' else 4})")
    assert not out.exists()


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


@pytest.mark.parametrize("value", ["", "nope.layout"])
def test_unreadable_layout_path_is_an_error_at_its_line(tmp_path, capsys, value):
    # An empty value names the scenario's own directory, and the other no
    # file; each is an error at the layout's line, not an i/o error.
    cfg = tmp_path / "s.cfg"
    cfg.write_text(f"n_robots = 1\nlayout = {value}\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert re.fullmatch(rf"error: layout: cannot read {re.escape(repr(value))}: .+ \(line 2\)\n", message)
    assert not out.exists()


def test_layout_file_too_small_is_load_error_with_line(tmp_path, capsys):
    (tmp_path / "tiny.layout").write_text("##\n##\n", encoding="utf-8")
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_robots = 1\nlayout = tiny.layout\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: layout: grid 2x2 too small to hold walls and floor (line 2)\n"
    )
    assert not out.exists()


def test_random_placements_beyond_the_floor_name_the_count_line(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("layout = generate:21x20\nn_tasks = 5000\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: n_tasks: layout has only 278 free cells for 5001 random placements (line 2)\n"
    )
    assert not out.exists()


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


@pytest.mark.parametrize(
    "text",
    [
        "layout = one.layout\n",
        "gamma = 2\nlayout = one.layout\npopulation = 4\nmutation_prob = 0.5\n",
        "n_robots = 1\nlayout = one.layout\n",
    ],
    ids=["layout-only", "potential-and-ga-keys", "default-count"],
)
def test_defaults_that_overflow_the_floor_name_the_layout_line(tmp_path, capsys, text):
    (tmp_path / "one.layout").write_text(ONE_CELL_LAYOUT, encoding="utf-8")
    cfg = tmp_path / "s.cfg"
    cfg.write_text(text, encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    line = text.splitlines().index("layout = one.layout") + 1
    assert capsys.readouterr().err == f"error: layout: {ONE_CELL_OVERFLOW} (line {line})\n"
    assert not out.exists()


def test_a_value_that_does_not_parse_is_named_before_a_failed_check(tmp_path, capsys):
    # gamma parses but fails its check; n_robots does not parse. Every value
    # is parsed before any object is built, so n_robots is named.
    cfg = tmp_path / "s.cfg"
    cfg.write_text("gamma = 0.5\nlayout = generate:21x20\nn_robots = abc\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        "error: n_robots: invalid literal for int() with base 10: 'abc' (line 3)\n"
    )
    assert not out.exists()


def test_layout_path_with_a_null_byte_is_an_error_at_its_line(tmp_path, capsys):
    cfg = tmp_path / "s.cfg"
    cfg.write_text("n_robots = 1\nlayout = a\0b.layout\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1
    message = capsys.readouterr().err
    assert message.startswith("error: layout: ") and message.endswith(" (line 2)\n")
    assert "null" in message and message.count("\n") == 1
    assert not out.exists()


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
    return draw(st.integers(0, 2 * n - 1)) == n


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
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "one.layout").write_text(ONE_CELL_LAYOUT, encoding="utf-8")
        (tmp / "split.layout").write_text(SPLIT_LAYOUT, encoding="utf-8")
        cfg, out = tmp / "s.cfg", tmp / "x.csv"
        cfg.write_bytes(document)
        stderr = io.StringIO()
        with contextlib.redirect_stderr(stderr):
            code = main(["run", "--scenario", str(cfg), "--out", str(out)])
        written = sorted(path.name for path in tmp.iterdir())
    message = stderr.getvalue()
    inputs = ["one.layout", "s.cfg", "split.layout"]
    if code == 0:
        assert message == "" and written == sorted([*inputs, "x.csv"])
        return
    assert code == 1 and written == inputs
    assert message.startswith("error: ") and message.count("\n") == 1 and message.endswith("\n")
    if message != "error: scenario is missing the 'layout' key\n":
        named = re.search(r"\(line (\d+)\)$", message.rstrip("\n"))
        assert named, message
        n_lines = len(document_lines(document.decode("utf-8", "replace")))
        assert 1 <= int(named.group(1)) <= n_lines, message


def test_removed_commands_are_invalid_choices(scenario_file, tmp_path, capsys):
    # A run's trace is `run --trace`; planner and A* compute per seed is a sweep.
    for command in ("dump-trace", "compare-astar"):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--scenario", str(scenario_file), "--out", str(tmp_path / "x")])
        assert exit_.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["run", "sweep"])
def test_out_of_memory_is_an_error_line(monkeypatch, scenario_file, tmp_path, capsys, command):
    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(cli, "run_scenario", exhausted)
    monkeypatch.setattr(engine, "run_scenario", exhausted)
    out = tmp_path / "x.csv"
    extra = ["--n-values", "1", "--k-values", "2"] if command == "sweep" else []
    assert main([command, "--scenario", str(scenario_file), "--out", str(out), *extra]) == 1
    assert capsys.readouterr().err == (
        "error: out of memory: the scenario is too large to run here\n"
    )
    assert list(tmp_path.iterdir()) == [scenario_file]  # no output, no temp file


def test_invalid_layout_value_is_validation_error(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("layout = generate:banana\n", encoding="utf-8")
    out = tmp_path / "x.csv"
    assert main(["run", "--scenario", str(cfg), "--out", str(out)]) == 1


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_sweep_names_the_grid_flags_when_its_largest_cell_overflows_the_floor(
    tmp_path, capsys, jobs
):
    cfg = tmp_path / "small.cfg"
    cfg.write_text("layout = generate:21x20\npopulation = 4\ngenerations = 2\n", encoding="utf-8")
    out, summary = tmp_path / "sweep.csv", tmp_path / "cells.csv"
    argv = ["sweep", "--scenario", str(cfg), "--out", str(out), "--summary", str(summary),
            "--n-values", "5,300", "--k-values", "5", "--jobs", jobs]
    assert main(argv) == 1
    assert capsys.readouterr().err == (
        "error: --n-values 300 with --k-values 5: "
        "layout has only 278 free cells for 305 random placements\n"
    )
    assert not out.exists() and not summary.exists()
