"""ospkit benchmark: three closed-loop workloads, one client, one thread.

Run one workload:

    python3 perfbench/run.py --workload verify --seed 1 --seconds 30 --trace 0

The run sets up several times (import ospkit afresh, generate the seeded
inputs, serialize them to JSON text) and reports the median as
``setup_s``.  It then runs whole passes over the workload's job list
until ``--seconds`` have gone by and at least MIN_JOBS jobs have run,
checks every job's answer, and prints a table followed by one JSON line.
Every time it reports is corrected for the speed of the host (see
hostspeed.py); a job's time is its median over the passes.
With ``--trace 0`` that line holds the end-to-end metrics; with
``--trace 1`` passes alternate between untraced and traced, and it holds
the per-layer metrics of the traced passes plus the tracing overhead.
Every run also writes its result, with the run's context, to
``perfbench/results/`` (and the spans of a traced run next to it).

Compare two result sets (directories of such result files):

    python3 perfbench/run.py --compare DIR_A DIR_B

Record the output digests of the default seed after an intended change
of report bytes:

    python3 perfbench/run.py --workload verify --record-digests
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import sys
import time

import compare
import hostspeed
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

SETUP_REPEATS = 7
MIN_JOBS = 125
# stop starting passes when one more would end past this many seconds
HARD_LIMIT_S = 150.0
DIGEST_SEED = 1
DIGESTS = os.path.join(HERE, "digests.json")
RESULTS = os.path.join(HERE, "results")


class SetupError(Exception):
    pass


def import_ospkit():
    """Import ospkit from this checkout's src/, dropping any earlier import
    so that every set-up pays the import again."""
    if not os.path.isfile(os.path.join(SRC, "ospkit", "__init__.py")):
        raise SetupError(f"no ospkit sources under {SRC}")
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    for name in [m for m in sys.modules if m == "ospkit" or m.startswith("ospkit.")]:
        del sys.modules[name]
    ok = importlib.import_module("ospkit")
    if not os.path.abspath(ok.__file__).startswith(SRC + os.sep):
        raise SetupError(f"imported ospkit from {ok.__file__}, not from {SRC}")
    return ok


def setup(workload: str, seed: int, speed: hostspeed.HostSpeed):
    """The set-ups' times, each as ``HostSpeed.stop`` gives it, and the
    jobs of the last set-up."""
    times = []
    fingerprint = None
    for _ in range(SETUP_REPEATS):
        speed.start()
        try:
            ok = import_ospkit()
            jobs = workloads.BUILDERS[workload](ok, seed)
        finally:
            times.append(speed.stop())
        digest = hashlib.sha256(
            "\0".join(j.name + "\0" + j.inputs for j in jobs).encode()
        ).hexdigest()
        if fingerprint not in (None, digest):
            raise SetupError("the same seed gave different inputs")
        fingerprint = digest
    return times, jobs


def git_commit() -> str:
    """Commit of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        loose = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def load_digests() -> dict:
    try:
        with open(DIGESTS, encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        return {}


class Runner:
    """Runs passes over a job list and keeps latencies and failures."""

    def __init__(self, seed: int, jobs, recorded: dict | None, speed):
        self.jobs = jobs
        self.recorded = recorded  # job name -> digest, or None to skip
        self.seed = seed
        self.speed = speed
        # (job, seconds, correction factor) as HostSpeed.stop gives them
        self.passes: list[list[tuple[str, float, float]]] = []
        self.failures: list[str] = []
        self.attempted = 0
        self.seen: dict[str, str] = {}  # job name -> digest of first run
        self.digests: dict[str, str] = {}

    def samples(self) -> dict[str, list[tuple[float, float]]]:
        """job name -> (wall s, corrected s) of each pass that finished it."""
        out: dict[str, list[tuple[float, float]]] = {}
        for name, seconds, factor in (p for one in self.passes for p in one):
            out.setdefault(name, []).append((seconds, seconds * factor))
        return out

    def job_times(self) -> list[float]:
        """Each job's median corrected time over the passes."""
        return [
            statistics.median(c for _, c in samples)
            for samples in self.samples().values()
        ]

    def run_pass(self, t, tracer: spans.Tracer | None) -> float:
        """One pass over every job; returns the pass's corrected job time
        in s."""
        done: list[tuple[str, float, float]] = []
        self.passes.append(done)
        for job in self.jobs:
            self.attempted += 1
            # start each job on an empty heap, as a fresh CLI process would
            gc.collect()
            self.speed.start()
            if tracer is not None:
                tracer.open_job(job.name)
            try:
                out, facts = job.run(t)
            except Exception as exc:  # a job that raises is a failed job
                self.failures.append(f"{job.name}: raised {exc!r}")
                continue
            finally:
                if tracer is not None:
                    tracer.close_job()
                elapsed, factor = self.speed.stop()
            done.append((job.name, elapsed, factor))
            problem = job.check(facts) or self._digest_problem(job, out)
            if problem:
                self.failures.append(f"{job.name}: {problem}")
        return sum(s * f for _, s, f in done)

    def _digest_problem(self, job, out: str) -> str | None:
        digest = hashlib.sha256(out.encode()).hexdigest()
        self.digests[job.name] = digest
        first = self.seen.setdefault(job.name, digest)
        if digest != first:
            return "output bytes differ from this run's first pass"
        if self.recorded is None or (job.seeded and self.seed != DIGEST_SEED):
            return None
        want = self.recorded.get(job.name)
        if want is None:
            return "no digest recorded for this job"
        if digest != want:
            return f"output digest {digest[:12]} != recorded {want[:12]}"
        return None


def measure(runner: Runner, seconds: float, traced: bool, t_start: float):
    """Whole passes until the time and job floors are met.  Traced runs
    alternate untraced and traced passes."""
    tracer = spans.Tracer(runner.speed.clock) if traced else None
    plain = spans.NoTrace()
    untraced_s: list[float] = []
    traced_s: list[float] = []
    layers: list[dict] = []
    begin = time.perf_counter()
    last = 0.0
    while True:
        pass_start = time.perf_counter()
        if traced and len(untraced_s) > len(traced_s):
            first = len(tracer.spans)
            counts = dict(tracer.counts)
            traced_s.append(runner.run_pass(tracer, tracer))
            delta = {k: v - counts.get(k, 0) for k, v in tracer.counts.items()}
            factors = {name: f for name, _, f in runner.passes[-1]}
            layers.append(
                spans.layer_metrics(tracer.spans[first:], delta, factors)
            )
        else:
            untraced_s.append(runner.run_pass(plain, None))
        now = time.perf_counter()
        last = now - pass_start
        done = (
            now - begin >= seconds
            and runner.attempted >= MIN_JOBS
            and (not traced or traced_s)
        )
        if done or now - t_start + last > HARD_LIMIT_S:
            break
    return untraced_s, traced_s, layers, tracer


def nearest_rank(values: list[float], p: float) -> float:
    """The p-th percentile that is one of the values, not a blend of two
    neighbours: with 25 jobs, p90 is the 23rd fastest job."""
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered)) - 1]


def end_to_end(runner: Runner, setup_times) -> dict:
    """Corrected times: each job at its median over the passes, the
    set-up at the median of its repeats."""
    jobs = runner.job_times()
    setup_s = statistics.median(s * f for s, f in setup_times)
    return {
        "jobs_per_s": (len(jobs) / sum(jobs), "1/s"),
        "job_ms_p50": (nearest_rank(jobs, 0.5) * 1000.0, "ms"),
        "job_ms_p90": (nearest_rank(jobs, 0.9) * 1000.0, "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"
        ),
    }


def per_layer(layers: list[dict], untraced_s, traced_s) -> dict:
    out = {}
    for name in layers[0]:
        unit = "ms" if name.endswith("_ms") else "count"
        if name == "cmon.payable_ratio":
            unit = "ratio"
        out[name] = (statistics.median(p[name] for p in layers), unit)
    overhead = statistics.median(traced_s) / statistics.median(untraced_s) - 1.0
    out["trace.overhead_pct"] = (overhead * 100.0, "%")
    return out


def save_result(result: dict, tracer: spans.Tracer | None) -> str:
    os.makedirs(RESULTS, exist_ok=True)
    stem = "{}-s{}-t{}-{}-{}".format(
        result["workload"], result["context"]["seed"], result["trace"],
        time.strftime("%Y%m%dT%H%M%S"), os.getpid(),
    )
    path = os.path.join(RESULTS, stem + ".json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result, fh, indent=2, sort_keys=True)
        fh.write("\n")
    if tracer is not None:
        tracer.write(os.path.join(RESULTS, stem + ".spans.jsonl"))
    return path


def record_digests(workload: str) -> int:
    speed = hostspeed.HostSpeed()
    _, jobs = setup(workload, DIGEST_SEED, speed)
    runner = Runner(DIGEST_SEED, jobs, None, speed)
    runner.run_pass(spans.NoTrace(), None)
    if runner.failures:
        print("\n".join(runner.failures), file=sys.stderr)
        print("not recording digests: the checks failed", file=sys.stderr)
        return 1
    data = load_digests()
    data["seed"] = DIGEST_SEED
    data.setdefault("workloads", {})[workload] = runner.digests
    with open(DIGESTS, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(runner.digests)} digests for {workload}")
    return 0


def run(args) -> int:
    t_start = time.perf_counter()
    speed = hostspeed.HostSpeed()
    setup_times, jobs = setup(args.workload, args.seed, speed)
    recorded = load_digests().get("workloads", {}).get(args.workload, {})
    runner = Runner(args.seed, jobs, recorded, speed)
    traced = args.trace == 1
    untraced_s, traced_s, layers, tracer = measure(
        runner, args.seconds, traced, t_start
    )
    if not any(runner.passes):
        print("\n".join(runner.failures), file=sys.stderr)
        print("error: no job finished", file=sys.stderr)
        return 2
    failed = len(runner.failures)
    attempted = runner.attempted
    if traced:
        metrics = per_layer(layers, untraced_s, traced_s)
    else:
        metrics = end_to_end(runner, setup_times)

    samples = runner.samples()
    result = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "context": {
            "python": platform.python_version(),
            "nproc": os.cpu_count(),
            "commit": git_commit(),
            "seed": args.seed,
            "jobs": [job.name for job in jobs],
        },
        "passes": {"untraced": len(untraced_s), "traced": len(traced_s)},
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "failures": runner.failures[:50],
        "job_ms": {n: [w * 1000.0 for w, _ in v] for n, v in samples.items()},
        "job_ms_corrected": {
            n: [c * 1000.0 for _, c in v] for n, v in samples.items()
        },
        "setup_s": [list(t) for t in setup_times],
        "probe_loop_ms": {
            "min": min(speed.loops) * 1000.0,
            "median": statistics.median(speed.loops) * 1000.0,
            "reference": hostspeed.REFERENCE_S * 1000.0,
        },
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    path = save_result(result, tracer)

    for line in runner.failures[:20]:
        print(f"FAILED {line}", file=sys.stderr)
    print(f"# {args.workload} seed={args.seed} trace={args.trace} "
          f"jobs/pass={len(jobs)} passes={result['passes']} -> {path}")
    if not traced:
        print(f"{args.workload:8s} {'failed_ratio':22s} {failed / attempted:12.6f} "
              f"ratio ({failed}/{attempted})")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload:8s} {name:22s} {value:12.4f} {unit}")
    print(json.dumps({
        "correct": result["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": result["metrics"],
    }))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(workloads.BUILDERS))
    parser.add_argument("--seed", type=int, default=DIGEST_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar=("DIR_A", "DIR_B"))
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if args.compare:
        return compare.main(*args.compare, os.path.join(ROOT, "BENCHMARK.json"))
    if args.workload is None:
        parser.error("--workload is required")
    try:
        if args.record_digests:
            return record_digests(args.workload)
        return run(args)
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
