"""Set-up time in a fresh interpreter: import warefleet, build the layout
and the obstacle field. Prints {"setup_s": ...} on one line.

    python3 -m perfbench.probe --workload fleet_crowd --workdir DIR
"""

import time

_T0 = time.perf_counter()  # before anything of warefleet is imported

import argparse  # noqa: E402
import json  # noqa: E402
from pathlib import Path  # noqa: E402

from perfbench import workloads  # noqa: E402


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--tiny", action="store_true")
    args = parser.parse_args()
    workloads.set_up(workloads.workload(args.workload, args.tiny), Path(args.workdir))
    print(json.dumps({"setup_s": time.perf_counter() - _T0}))


if __name__ == "__main__":
    main()
