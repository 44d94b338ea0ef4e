"""Time one benchmark set-up in a fresh interpreter and print the seconds.

Set-up is importing ``twisteta`` and ``twisteta.cli`` (with numpy and scipy)
from ``<root>/src`` and writing the workload's generated configs.  The
benchmark's own modules are imported before the clock starts.

Usage: python3 bench/setup_probe.py ROOT WORKLOAD SEED DIRECTORY
"""

import sys
import time
from pathlib import Path

import workloads


def main(argv: list[str]) -> int:
    root, workload, seed, directory = argv
    start = time.perf_counter()
    sys.path.insert(0, str(Path(root) / "src"))
    import twisteta.cli  # noqa: F401

    workloads.write_configs(workloads.generate(workload, int(seed)), Path(directory))
    print(time.perf_counter() - start)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
