"""Fast self-check of the benchmark on one `volumes` problem of each class.

Runs the benchmark once untraced and twice traced with --tiny, then
checks that every metric BENCHMARK.json names is reported with its unit
and nothing else, that every answer was exact, and that the two traced
runs of the same seed agree on every count and ratio. Takes about half a
minute:

    python3 perfbench/selfcheck.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


def run(trace):
    cmd = [
        sys.executable, str(HERE / "run.py"), "--workload", "volumes", "--seed", "3",
        "--seconds", "0", "--trace", str(trace), "--tiny",
    ]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=170, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def check_result(result, declared, what):
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{what}: result keys are {sorted(result)}")
    if not result["correct"] or result["failed"] or result["attempted"] < 1:
        problems.append(f"{what}: correct={result['correct']} failed={result['failed']}")
    metrics = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    for name in sorted(set(want) - set(metrics)):
        problems.append(f"{what}: {name} is missing")
    for name in sorted(set(metrics) - set(want)):
        problems.append(f"{what}: {name} is not declared")
    for name in sorted(set(want) & set(metrics)):
        if metrics[name]["unit"] != want[name]:
            problems.append(f"{what}: {name} has unit {metrics[name]['unit']}, not {want[name]}")
    return problems


def main():
    problems = check_result(run(0), SPEC["end_to_end"], "untraced run")
    first, second = run(1), run(1)
    problems += check_result(first, SPEC["per_layer"], "traced run")
    for name, m in first["metrics"].items():
        if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio":
            other = second["metrics"][name]["value"]
            if m["value"] != other:
                problems.append(f"traced runs differ on {name}: {m['value']} and {other}")
    for p in problems:
        print(p, file=sys.stderr)
    if problems:
        return 1
    print("self-check passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
