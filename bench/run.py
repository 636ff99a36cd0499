"""Benchmark for noisygbdt: one workload per invocation.

    python3 bench/run.py --workload cancer_grid --seed 1 --seconds 60 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``. A run's operations use seeds derived from ``--seed`` (see
``workloads.sub_seed``).

With ``--trace 0`` the run performs whole cycles of the workload's operations
(one per derived seed) until another cycle would overrun ``--seconds``, at
least one cycle, samples the host's speed during each operation
(``hostspeed.py``) and prints the end-to-end metrics. With ``--trace 1`` it
runs the first operation untraced, then sets it up and runs it again under
the span tracer, then once more untraced, and prints the per-layer metrics.
Either way the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RUNS_DIR = ROOT / ".bench_runs"
DIGESTS = RUNS_DIR / "digests.json"

# set-up is measured this many times, each in a fresh interpreter
SETUP_REPEATS = 5
# the program uses no BLAS kernel worth a thread; single-threaded numpy keeps
# the runs on a small shared host from timing idle thread pools
SINGLE_THREAD = {name: "1" for name in ("OPENBLAS_NUM_THREADS",
                                        "OMP_NUM_THREADS", "MKL_NUM_THREADS")}

END_TO_END_UNITS = {"setup_s": "s", "wall_scaled_s": "s",
                    "rounds_per_scaled_s": "rounds/s", "peak_rss_mb": "MB",
                    "detect_acc": "%", "test_f1": "%"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def setup_probe(args) -> int:
    """Child side of the set-up measurement: import, then prepare once, with
    the host's speed sampled throughout."""
    import hostspeed
    speed = hostspeed.HostSpeed(period=hostspeed.SETUP_PERIOD)
    with speed.sampling():
        started = perf_counter()
        import noisygbdt.experiment  # noqa: F401  (the import is timed)
        imported = perf_counter()
        import workloads
        workloads.WORKLOADS[args.workload].prepare(
            workloads.sub_seed(args.seed, 0))
        prepared = perf_counter()
    print(json.dumps({"import_s": imported - started,
                      "prepare_s": prepared - imported,
                      "kernel_s": speed.kernel_s()}))
    return 0


def measure_setup(args) -> float:
    """Median set-up time (package import plus the first operation's data
    preparation) over fresh interpreters, at the reference host speed."""
    import hostspeed
    totals = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=120)
        if child.returncode != 0:
            raise RuntimeError("set-up probe failed:\n" + child.stderr)
        times = json.loads(child.stdout.strip().splitlines()[-1])
        totals.append((times["import_s"] + times["prepare_s"])
                      * hostspeed.REFERENCE_KERNEL_S / times["kernel_s"])
    return statistics.median(totals)


def code_version() -> str:
    """Digest of the package sources and the workload definitions, so that
    reports are only compared between runs of the same code."""
    h = hashlib.sha256()
    files = sorted(p for p in (SRC / "noisygbdt").rglob("*")
                   if p.is_file() and "__pycache__" not in p.parts)
    for path in files + [BENCH_DIR / "workloads.py"]:
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def check_digest(key: str, digest: str) -> list[str]:
    """Compare with the digest an earlier run of the same code and inputs
    recorded."""
    known = json.loads(DIGESTS.read_text()) if DIGESTS.exists() else {}
    if key in known:
        if known[key] != digest:
            return [f"reports for {key} differ from an earlier run's"]
        return []
    known[key] = digest
    tmp = DIGESTS.with_suffix(f".{os.getpid()}.tmp")
    tmp.write_text(json.dumps(known, sort_keys=True, indent=1))
    os.replace(tmp, DIGESTS)
    return []


class Run:
    """Operations of one invocation, grouped by their derived seed."""

    def __init__(self, workload, seed: int):
        import workloads
        self.workload = workload
        self.seed = seed
        self.seeds = [workloads.sub_seed(seed, i)
                      for i in range(workload.sub_seeds)]
        self.outcomes = {s: [] for s in self.seeds}
        self.attempted = self.failed = 0
        # peak resident memory through set-up and the first operation; later
        # operations add the allocator's reuse of freed memory, which varies
        # from run to run apart from anything the program does
        self.first_peak_mb = None
        self.out_dir = RUNS_DIR / f"{workload.name}-{os.getpid()}"

    def op(self, seed: int, data=None, around=contextlib.nullcontext):
        """Prepare (untimed unless given) and run one operation."""
        self.attempted += self.workload.cells
        try:
            if data is None:
                data = self.workload.prepare(seed)
            outcome = self.workload.run(seed, data, self.out_dir, around)
        except Exception:
            traceback.print_exc()
            self.failed += self.workload.cells
            return None
        self.outcomes[seed].append(outcome)
        if self.first_peak_mb is None:
            self.first_peak_mb = resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0
        return outcome

    def cycles(self, seconds: float) -> None:
        """Whole cycles over the derived seeds until another would overrun,
        with the host's speed sampled during each operation."""
        import hostspeed
        speed = hostspeed.HostSpeed()
        started = perf_counter()
        done = 0
        while True:
            for seed in self.seeds:
                outcome = self.op(seed, around=speed.sampling)
                if outcome is not None:
                    outcome.kernel_s = speed.kernel_s()
            done += 1
            if (perf_counter() - started) * (done + 1) / done > seconds:
                return

    def all(self) -> list:
        return [o for seed in self.seeds for o in self.outcomes[seed]]

    def problems(self) -> list[str]:
        import checks
        problems = [p for o in self.all() for p in o.problems]
        version = code_version()
        for i, seed in enumerate(self.seeds):
            digests = {checks.report_digest(o.reports)
                       for o in self.outcomes[seed]}
            if len(digests) > 1:
                problems.append(f"seed {seed}: repeated operations gave "
                                "different reports")
            for digest in digests:
                problems += check_digest(
                    f"{self.workload.name}:{self.seed}:{i}:{version}", digest)
        return problems


def scaled_wall_s(outcome) -> float:
    """The operation's wall time at the reference host speed."""
    import hostspeed
    return outcome.wall_s * hostspeed.REFERENCE_KERNEL_S / outcome.kernel_s


def end_to_end(run: Run, setup_s: float) -> dict:
    ops = run.all()
    firsts = [run.outcomes[s][0] for s in run.seeds if run.outcomes[s]]
    scaled = [scaled_wall_s(o) for o in ops]
    values = {
        "setup_s": setup_s,
        "wall_scaled_s": statistics.fmean(scaled),
        "rounds_per_scaled_s": sum(o.rounds for o in ops) / sum(scaled),
        "peak_rss_mb": run.first_peak_mb,
        "detect_acc": statistics.fmean(o.detect_acc for o in firsts),
        "test_f1": statistics.fmean(o.test_f1 for o in firsts),
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]}
            for k, v in values.items()}


def traced_layers(run: Run) -> dict:
    """The first operation untraced, then its set-up and run traced, then
    untraced again: the overhead compares the traced run with the second
    untraced one, since the first also pays the process's warm-up."""
    import spans
    seed = run.seeds[0]
    if run.op(seed) is None:
        return {}
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.root("bench.setup"):
            data = run.workload.prepare(seed)
        traced = run.op(seed, data, around=lambda: tracer.root("bench.op"))
    finally:
        tracer.uninstall()
    untraced = run.op(seed)
    if traced is None or untraced is None:
        return {}
    summary = tracer.summary()
    gap = summary["self_sum_s"] - summary["wall_s"]
    if abs(gap) > 1e-6 * summary["wall_s"]:
        traced.problems.append(f"span self times miss the traced wall time "
                               f"by {gap:.3g} s")
    for binding in tracer.absent:
        print(f"bench: trace: absent: {binding}", file=sys.stderr)
    for binding in sorted(tracer.broken):
        print(f"bench: trace: counter failed: {binding}", file=sys.stderr)
    print(f"bench: traced wall {summary['wall_s']:.3f} s (set-up "
          f"{summary['wall_s'] - traced.wall_s:.3f} s + operation "
          f"{traced.wall_s:.3f} s), {len(tracer.spans)} spans; untraced "
          f"operation {untraced.wall_s:.3f} s", file=sys.stderr)
    tracer.write(RUNS_DIR / f"trace-{run.workload.name}-{run.seed}.json")
    values = dict(summary["metrics"])
    values["trace.residual_s"] = summary["residual_s"]
    values["trace.overhead_s"] = traced.wall_s - untraced.wall_s
    return {k: {"value": v, "unit": layer_unit(k)}
            for k, v in values.items()}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_rows"):
        return "rows"
    if name.endswith("bytes_written"):
        return "bytes"
    return "count"


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "noisygbdt" / "__init__.py").is_file():
        print(f"bench: no package source under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(SINGLE_THREAD)
    sys.path.insert(0, str(SRC))
    if args.setup_probe:
        return setup_probe(args)

    import workloads
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"bench: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    RUNS_DIR.mkdir(exist_ok=True)
    run = Run(workload, args.seed)
    if args.trace:
        metrics = traced_layers(run)
    else:
        setup_s = measure_setup(args)
        run.cycles(args.seconds)
        for o in run.all():
            print(f"bench: operation wall {o.wall_s:.3f} s, host kernel "
                  f"{o.kernel_s * 1e3:.4f} ms, scaled "
                  f"{scaled_wall_s(o):.3f} s", file=sys.stderr)
        metrics = end_to_end(run, setup_s) if run.all() else {}

    problems = run.problems()
    for p in problems:
        print(f"bench: check failed: {p}", file=sys.stderr)
    correct = not problems and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
