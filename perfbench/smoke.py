"""Smoke test for the benchmark itself, at tiny sizes.

    python3 perfbench/smoke.py

For every workload: each end-to-end and per-layer metric named in
BENCHMARK.json is printed with its unit, two runs with one seed give
identical J values, and the run passes its output checks. Also checks that
the benchmark fails, without printing a result, in a directory that holds
only itself.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )


def result(workload: str, seed: int, trace: int) -> dict:
    proc = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
               "--trace", str(trace), "--tiny")
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}\n{proc.stdout}\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


class SmokeTest(unittest.TestCase):
    def check_metrics(self, printed: dict, declared: list[dict]) -> None:
        self.assertEqual(set(printed), {m["name"] for m in declared})
        for metric in declared:
            self.assertEqual(printed[metric["name"]]["unit"], metric["unit"], metric["name"])
            self.assertIsInstance(printed[metric["name"]]["value"], (int, float))

    def test_workloads(self) -> None:
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                first = result(workload, seed=5, trace=0)
                second = result(workload, seed=5, trace=0)
                traced = result(workload, seed=5, trace=1)
                for printed in (first, second, traced):
                    self.assertTrue(printed["correct"])
                    self.assertGreaterEqual(printed["attempted"], 1)
                    self.assertEqual(printed["failed"], 0)
                self.check_metrics(first["metrics"], SPEC["end_to_end"])
                self.check_metrics(traced["metrics"], SPEC["per_layer"])
                for name in ("j1_mean", "j4_mean"):
                    self.assertEqual(first["metrics"][name], second["metrics"][name])

    def test_fails_without_the_package(self) -> None:
        scratch = ROOT / "perfbench" / ".work"
        scratch.mkdir(parents=True, exist_ok=True)
        alone = Path(tempfile.mkdtemp(prefix="alone-", dir=scratch))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", alone)
            shutil.copytree(
                ROOT / "perfbench", alone / "perfbench",
                ignore=shutil.ignore_patterns(".work", "__pycache__"),
            )
            proc = run("--workload", "ga_full", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=alone)
        finally:
            shutil.rmtree(alone)
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
