"""Set-up probe: one fresh interpreter that imports the package, sets one
workload up and prints "ready". The parent times it from spawn to "ready".

    python3 perfbench/setup_probe.py <workload> <seed> [--tiny]
"""

from __future__ import annotations

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src")]

from workloads import WORK, WORKLOADS  # noqa: E402


def main(argv: list[str]) -> int:
    name, seed = argv[0], int(argv[1])
    workload = WORKLOADS[name](WORK / name, seed, tiny="--tiny" in argv[2:])
    try:
        workload.setup()
        print("ready", flush=True)
    finally:
        workload.close()
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
