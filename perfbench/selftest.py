"""Tiny-size self-test of the benchmark.

    python3 perfbench/selftest.py

Runs every workload of BENCHMARK.json once at tiny sizes, untraced and
traced, through ``run.py``.  Each run must exit 0, report a correct
result with no failed operation, and print every metric BENCHMARK.json
names for its mode with that metric's unit, both in its table and in its
last line.  ``fail_frac`` must be printed in the table too.  Exits 1 on
the first mismatch.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def check_run(workload: str, trace: int, expected: dict) -> list[str]:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", "1", "--trace", str(trace),
           "--tiny"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    where = f"{workload} trace={trace}"
    if proc.returncode != 0:
        return [f"{where}: exit {proc.returncode}: {proc.stderr[-500:]}"]
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{where}: result keys {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{where}: correct={result['correct']} "
                        f"failed={result['failed']}/{result['attempted']}")
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    if got != expected:
        problems.append(f"{where}: metrics {got} != {expected}")
    table = {line.split()[0]: line.split()[2] for line in lines[:-1] if len(line.split()) >= 3}
    for name, unit in {**expected, "fail_frac": "ratio"}.items():
        if table.get(name) != unit:
            problems.append(f"{where}: table lacks {name} [{unit}]")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    modes = {
        0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        1: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for wl in spec["workloads"]:
        for trace, expected in modes.items():
            problems += check_run(wl["name"], trace, expected)
            print(f"{wl['name']} trace={trace}: {'FAIL' if problems else 'ok'}", flush=True)
    for p in problems:
        print(p, file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
