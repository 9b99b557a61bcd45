"""warefleet benchmark: host time of the simulator, measured from outside.

    python3 perfbench/run.py --workload fleet_crowd --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0

Builds nothing: it runs the package from this checkout's src/. --trace 0
prints the end-to-end metrics, --trace 1 the per-layer ones from a traced
run. A table with every metric, its unit and sample count comes first; the
last line is one JSON object with the keys correct, attempted, failed and
metrics. The exit code is 0 when every output check passed, 1 when one
failed, 2 when the benchmark could not run (then no JSON line is printed).
See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1]))

from perfbench import workloads  # noqa: E402

# Fresh interpreters timed for set-up; one more runs first, untimed, so
# that compiling the package's bytecode is not counted.
SETUP_PROBES = 7
# Every run must end within this many seconds.
DEADLINE_S = 170.0


class BenchmarkError(Exception):
    """The benchmark itself could not run."""


def _child(module: str, args: list[str], deadline: float) -> dict:
    """Run `python3 -m perfbench.<module>` and parse its last stdout line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(workloads.SRC), str(workloads.ROOT)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    proc = subprocess.Popen(
        [sys.executable, "-m", f"perfbench.{module}", *args],
        cwd=workloads.ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any sweep workers
        proc.communicate()
        raise BenchmarkError(f"{module} did not finish in time") from None
    if proc.returncode != 0:
        raise BenchmarkError(f"{module} exited with code {proc.returncode}")
    lines = out.strip().splitlines()
    if not lines:
        raise BenchmarkError(f"{module} printed nothing")
    return json.loads(lines[-1])


def bench_one(name: str, seed: int, seconds: float, trace: int, tiny: bool) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    scratch = workloads.ROOT / "perfbench" / ".work"
    scratch.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=scratch))
    common = ["--workload", name, "--workdir", str(workdir)] + (["--tiny"] if tiny else [])
    try:
        setup = []
        if not trace:
            probes = 1 if tiny else SETUP_PROBES
            for _ in range(probes + 1):
                workloads.pin_to_fastest_cpu()  # the probe inherits it
                setup.append(_child("probe", common, deadline)["setup_s"])
            workloads.unpin()
        result = _child(
            "measure",
            common + ["--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
            deadline,
        )
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if setup:
        timed = setup[1:]
        result["metrics"] = {
            "setup_s": {"value": statistics.median(timed), "unit": "s", "samples": len(timed)},
            **result["metrics"],
        }
    return result


def print_table(name: str, args, result: dict) -> None:
    print(
        f"== {name}  seed={args.seed} seconds={args.seconds} trace={args.trace}  "
        f"attempted={result['attempted']} failed={result['failed']}"
    )
    for metric, entry in result["metrics"].items():
        print(f"   {metric:34} {entry['value']:<24.10g} {entry['unit']:11} n={entry['samples']}")
    values = sorted(result["tail"]["values"])
    # The highest percentile with at least ten samples beyond it, if above p50.
    rank = len(values) - 11
    pct = 100 * (rank + 1) // len(values) if values else 0
    if pct > 50:
        print(f"   p{pct} of {len(values)} {result['tail']['label']}: {values[rank]:.6g}")
    probes = result["host_probe_s"]
    print(
        f"   host speed probe: {statistics.median(probes) * 1e3:.3f} ms median of {len(probes)}"
        " (lower is a faster host; compare it across runs before comparing their times)"
    )
    for problem in result["problems"]:
        print(f"   FAILED {problem}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the smoke test")
    args = parser.parse_args()

    if not (workloads.SRC / "warefleet" / "__init__.py").is_file():
        print(f"error: no warefleet package under {workloads.SRC}", file=sys.stderr)
        return 2
    names = list(workloads.WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            results[name] = bench_one(name, args.seed, args.seconds, args.trace, args.tiny)
            print_table(name, args, results[name])
    except BenchmarkError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if len(names) == 1:
        metrics = results[names[0]]["metrics"]
    else:
        metrics = {f"{n}.{m}": e for n, r in results.items() for m, e in r["metrics"].items()}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m: {"value": e["value"], "unit": e["unit"]} for m, e in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
