"""Benchmark of the stabletrop library, end to end and per layer.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload q5-build --seed 1 --seconds 20 --trace 0

Each workload runs in its own process as a closed loop with one caller:
one thread, and the next call starts only after the last one returned.
Calls are grouped in units of identical work; units repeat while the
next one is expected to end within --seconds of measured time, and at
least twice.

  q5-build  one unit builds the paper's Q^5 disconnection scenario and
            writes the canonical documents of t1, t2, slice1, slice2 and
            their sum, which must be byte-identical to the references in
            perfbench/q5.
  q5-check  one unit loads t1, slice1 and slice2 from the references and
            runs four checks that must all return True: slice1 balanced,
            slice1 and t1 connected through codimension one, slice1 and
            slice2 meeting only at the origin.
  volumes   one unit solves the 70 volume and mixed-volume problems of
            acceptance criteria 2 and 3 (normalized volumes in Q^2 and
            Q^3, mixed volumes of 2 bodies in Q^2 and 3 in Q^3), in a
            presentation drawn from --seed (problems.py), each checked
            against answers computed once with the independent oracles
            of tests/oracles.py.

The q5 workloads are fixed and ignore --seed. A wrong answer counts as
failed, the same as a raised exception. With --trace 0 the last line of
stdout holds the end-to-end metrics; with --trace 1 the run also repeats
one unit with every public library function wrapped (see spans.py) and
reports per-layer metrics from those spans instead. The line before it
records the environment and details (fail ratio, sample counts,
latencies by kind of call).
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import problems
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
REFERENCES = HERE / "q5"
ANSWERS = HERE / "volume_answers.json"
OUT_DIR = ROOT / ".bench_out"
SETUP_REPEATS = 15
MIN_UNITS = 2
TAIL_BEYOND = 10


class Q5Build:
    def __init__(self, seed, tiny):
        pass

    def setup(self):
        from stabletrop import connectivity, documents

        self.connectivity, self.documents = connectivity, documents
        self.references = {
            name: (REFERENCES / f"{name}.json").read_text()
            for name in ("t1", "t2", "slice1", "slice2", "union")
        }

    def prepare_unit(self):
        return [("disconnection_scenario", self._build)]

    def _build(self):
        # answer with the documents, so no unit keeps its cycles alive
        # while the next one runs
        scenario = self.connectivity.disconnection_scenario()
        docs = self.documents
        return {
            name: docs.dumps(docs.cycle_to_document(getattr(scenario, name)))
            for name in self.references
        }

    def check(self, label, texts):
        return texts == self.references


class Q5Check:
    def __init__(self, seed, tiny):
        pass

    def setup(self):
        from stabletrop import connectivity, cycles, documents

        self.connectivity, self.cycles, self.documents = connectivity, cycles, documents
        self.texts = {
            name: (REFERENCES / f"{name}.json").read_text()
            for name in ("t1", "slice1", "slice2")
        }
        self.loaded = self._load()

    def _load(self):
        docs = self.documents
        return {name: docs.document_to_cycle(docs.loads(t)) for name, t in self.texts.items()}

    def prepare_unit(self):
        # fresh cycles per unit: a Polyhedron caches its representations,
        # and a user checking a stored document pays for them every time
        c, self.loaded = self.loaded or self._load(), None
        conn, cyc = self.connectivity, self.cycles
        return [
            ("is_balanced(slice1)", lambda: cyc.is_balanced(c["slice1"])[0]),
            ("connected(slice1)", lambda: conn.is_connected_through_codim1(c["slice1"])),
            ("connected(t1)", lambda: conn.is_connected_through_codim1(c["t1"])),
            (
                "meet_only_at_origin(slice1, slice2)",
                lambda: conn.supports_meet_only_at_origin(c["slice1"], c["slice2"]),
            ),
        ]

    def check(self, label, answer):
        return answer is True


class Volumes:
    def __init__(self, seed, tiny):
        # drawing the problems is the benchmark's work, so it stays out of
        # both the timed loop and setup_s
        self.problems = problems.make_round(seed, 1 if tiny else None)
        self.answers = [Fraction(a) for a in json.loads(ANSWERS.read_text())]

    def setup(self):
        from stabletrop import polytopes

        self.polytopes = polytopes

    def prepare_unit(self):
        # every unit solves the same seeded round, so a run measures the
        # same problems however many units fit in --seconds
        return [(p, lambda p=p: self._solve(*p[1:])) for p in self.problems]

    def _solve(self, kind, dim, bodies):
        lib = self.polytopes
        polys = [lib.polytope(dim, b) for b in bodies]
        if kind == "volume":
            return lib.normalized_volume(polys[0])
        return lib.mixed_volume(polys)

    def check(self, problem, answer):
        return answer == self.answers[problem[0]]


WORKLOADS = {"q5-build": Q5Build, "q5-check": Q5Check, "volumes": Volumes}


def call_label(label):
    """Short label of a call for the details record."""
    if isinstance(label, tuple):
        _, kind, dim, _ = label
        return f"{kind}-Q{dim}"
    return label


def run_calls(calls, records):
    """Runs the calls of one unit back to back, from a freshly collected
    heap; returns the unit's wall and CPU time."""
    gc.collect()
    cpu0, wall0 = time.process_time(), time.perf_counter()
    for label, fn in calls:
        start = time.perf_counter()
        try:
            answer, error = fn(), None
        except Exception as exc:  # a failed call is counted, the loop goes on
            answer, error = None, f"{type(exc).__name__}: {exc}"
        records.append((label, time.perf_counter() - start, answer, error))
    return time.perf_counter() - wall0, time.process_time() - cpu0


def count_failures(workload, records):
    failed = 0
    for label, _, answer, error in records:
        if error is None:
            try:
                if workload.check(label, answer):
                    continue
                error = "wrong answer"
            except Exception as exc:
                error = f"check raised {type(exc).__name__}: {exc}"
        failed += 1
        print(f"failed: {call_label(label)}: {error}", file=sys.stderr)
    return failed


def setup_seconds(args):
    """Median set-up time over fresh interpreters: import plus input
    preparation, timed inside each child."""
    cmd = [
        sys.executable, str(Path(__file__)),
        "--workload", args.workload, "--seed", str(args.seed), "--setup-probe",
    ]
    if args.tiny:
        cmd.append("--tiny")
    samples = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples), samples


def problem_latencies(records):
    """One latency per problem: the median of its calls over the units,
    so a slow stretch of the host counts once, not in every sample."""
    calls = {}
    for label, latency, _, _ in records:
        calls.setdefault(label, []).append(latency)
    return [statistics.median(v) for v in calls.values()]


def tail_latency(latencies):
    """(value, percentile): the highest percentile with at least
    TAIL_BEYOND samples above it, or the maximum when that percentile
    would not even be in the upper half (q5 runs have one to four
    problems)."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 2 * TAIL_BEYOND:
        return xs[-1], 100.0
    return xs[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def environment(args):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end_metrics(setup_s, records, latencies, unit_walls):
    tail, _ = tail_latency(latencies)
    return {
        "setup_s": metric(setup_s, "s"),
        "wall_s": metric(statistics.median(unit_walls), "s"),
        "problems_per_s": metric(len(records) / sum(unit_walls), "1/s"),
        "latency_p50_s": metric(statistics.median(latencies), "s"),
        "latency_tail_s": metric(tail, "s"),
        "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }


def traced_unit(workload, records):
    """Repeats a unit with the library wrapped. Preparing its inputs
    (q5-check parses three documents, as setup does) and running its
    calls are traced apart, so the calls' spans cover the same interval
    as their wall time."""
    with spans.Tracer() as prepared:
        start = time.perf_counter()
        calls = workload.prepare_unit()
        prepare_wall = time.perf_counter() - start
    with spans.Tracer() as tracer:
        wall, _ = run_calls(calls, records)
    return prepared, prepare_wall, tracer, wall


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="one problem of each class (volumes), for the self-check")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "stabletrop").is_dir():
        print(f"perfbench: no stabletrop sources under {ROOT}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    workload = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.setup_probe:
        start = time.perf_counter()
        workload.setup()
        print(time.perf_counter() - start)
        return 0

    workload.setup()
    setup_s, setup_samples = setup_seconds(args)

    records, unit_walls, unit_cpus = [], [], []
    # start another unit only when it is expected to end within --seconds
    while len(unit_walls) < MIN_UNITS or (
        sum(unit_walls) + statistics.median(unit_walls) <= args.seconds
    ):
        wall, cpu = run_calls(workload.prepare_unit(), records)
        unit_walls.append(wall)
        unit_cpus.append(cpu)
    latencies = problem_latencies(records)
    metrics = end_to_end_metrics(setup_s, records, latencies, unit_walls)
    failed = count_failures(workload, records)

    details = {
        "units": len(unit_walls),
        "unit_walls_s": unit_walls,
        "unit_cpu_s": unit_cpus,
        "setup_samples_s": setup_samples,
        "calls": len(records),
        "problems": len(latencies),
        "tail_percentile": tail_latency(latencies)[1],
    }
    by_label = {}
    for label, latency, _, _ in records:
        by_label.setdefault(call_label(label), []).append(latency)
    details["median_latency_s"] = {k: statistics.median(v) for k, v in sorted(by_label.items())}

    if args.trace:
        start = len(records)
        prepared, prepare_wall, tracer, traced_wall = traced_unit(workload, records)
        failed += count_failures(workload, records[start:])
        metrics = spans.layer_metrics(
            tracer, traced_wall, statistics.median(unit_walls), statistics.median(unit_cpus)
        )
        metrics.update(spans.setup_metrics(prepared, prepare_wall))
        OUT_DIR.mkdir(exist_ok=True)
        tracer.write(str(OUT_DIR / args.workload), {"env": environment(args)})
        prepared.write(str(OUT_DIR / f"{args.workload}.setup"), {"env": environment(args)})
    details["fail_ratio"] = failed / len(records)
    print(json.dumps({"env": environment(args), "details": details}, sort_keys=True))
    print(
        json.dumps(
            {"correct": failed == 0, "attempted": len(records), "failed": failed, "metrics": metrics}
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
