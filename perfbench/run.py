"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the repository root.  The workload runs in one child process
(``bench.py``), so that its peak RSS is its own; only one child runs at a
time, and this process exits with the child's status.  Without the
sources under ``src/hpccm`` it exits non-zero and prints no result.
"""

import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
TIMEOUT_S = 175


def main() -> int:
    if not (ROOT / "src" / "hpccm" / "__init__.py").is_file():
        print(f"perfbench: no hpccm sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(HERE / "bench.py"), *sys.argv[1:]]
    try:
        return subprocess.run(cmd, cwd=ROOT, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"perfbench: workload run exceeded {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
