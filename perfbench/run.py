#!/usr/bin/env python3
"""The repository's benchmark: builds fnr_perfbench and runs one workload.

    python3 perfbench/run.py --workload large-n --seed 1 --seconds 30 --trace 0

Workloads: large-n, paper-theorems, fnrd-swarm (see perfbench/NOTES.md).
Each pass runs in a fresh process. After one unmeasured warm-up pass, the
run repeats passes until --seconds is spent (at least MIN_PASSES) and
reports medians. --trace 0 prints the end-to-end metrics of BENCHMARK.json;
--trace 1 alternates untraced and traced passes and prints its per-layer
metrics plus the tracing overhead.
The last stdout line is one JSON object:
    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
The operation is the pass, the warm-up included: it fails when it crashes,
times out or crosses the RSS ceiling, when any check it makes on its outputs
fails, or when its output digest differs from the run's other passes or from
the pinned one.
"""

import argparse
import json
import math
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
BINARY = BUILD / "fnr_perfbench"
WORK = ROOT / ".bench_build" / "work"

WORKLOADS = ("large-n", "paper-theorems", "fnrd-swarm")
MIN_PASSES = 3
# A pass whose resident set crosses this is killed and counted as failed,
# rather than letting a runaway cell exhaust the machine (NOTES.md).
RSS_CEILING_MB = 2048
# Every run must end well inside 180 s, the build excepted.
RUN_BUDGET_S = 150
# Claims measured on other seeds are re-checked on this one.
RECHECK_SEED = 7


def log(*parts):
    print("perfbench:", *parts, file=sys.stderr, flush=True)


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        raise SystemExit("perfbench: no repository sources next to perfbench/ "
                         "(CMakeLists.txt and src/ are required)")
    if not (BUILD / "CMakeCache.txt").is_file():
        subprocess.run(["cmake", "-S", str(HERE), "-B", str(BUILD)],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", str(BUILD), "-j", "4",
                    "--target", "fnr_perfbench"],
                   stdout=sys.stderr, check=True)


def rss_mb(pid):
    try:
        with open(f"/proc/{pid}/status") as status:
            for line in status:
                if line.startswith("VmRSS:"):
                    return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def run_pass(args, index, traced=False, reference=False, timeout=None):
    """Runs one pass; returns its parsed JSON, or None when it failed."""
    workdir = WORK / f"{os.getpid()}-{index}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    cmd = [str(BINARY), f"--workload={args.workload}", f"--seed={args.seed}",
           f"--workdir={os.path.relpath(workdir, ROOT)}"]
    cmd += ["--traced"] * traced + ["--reference"] * reference
    cmd += ["--smoke"] * args.smoke
    start = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    why = None
    try:
        while proc.poll() is None:
            rss = rss_mb(proc.pid)
            if rss > args.rss_ceiling_mb:
                why = f"RSS {rss:.0f} MB above the {args.rss_ceiling_mb} MB ceiling"
            elif timeout is not None and time.monotonic() - start > timeout:
                why = f"no result after {timeout:.0f} s"
            if why:
                proc.send_signal(signal.SIGKILL)
                break
            time.sleep(0.02)
        out, err = proc.communicate()
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if why is None and proc.returncode != 0:
        why = f"exit code {proc.returncode}: {err.strip()[-500:]}"
    if why is None:
        try:
            result = json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            why = "no JSON result line"
    if why:
        log(f"pass {index} failed:", why)
        return None
    for error in result["errors"]:
        log(f"pass {index}:", error)
    return result


def median(values):
    return statistics.median(values) if values else 0.0


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = min(max(math.ceil(p / 100 * len(ordered)), 1), len(ordered))
    return ordered[rank - 1]


class Run:
    """Counts operations and collects the passes of one run."""

    def __init__(self, args):
        self.args = args
        self.attempted = 0
        self.failed = 0
        self.passes = 0
        self.start = time.monotonic()
        self.digests = set()
        self.agent_steps = None
        key = args.workload + ("/smoke" if args.smoke else "")
        pinned = json.loads((HERE / "digests.json").read_text())
        self.pinned = pinned.get(key, {}).get(str(args.seed))

    def elapsed(self):
        return time.monotonic() - self.start

    def next_pass(self, traced=False):
        """Runs one pass and books it as one operation; None when it failed."""
        reference = self.passes == 0  # the first pass re-checks in-process
        timeout = max(RUN_BUDGET_S - self.elapsed(), 1.0)
        result = run_pass(self.args, self.passes, traced, reference, timeout)
        self.passes += 1
        self.attempted += 1
        if result is None:
            self.failed += 1
            return None
        log(f"pass {self.passes - 1}{' (traced)' * traced}: "
            f"run_s {result['e2e']['run_s']:.4f}")
        problems = [f"{result['failed']} of {result['attempted']} output "
                    "checks failed"] if result["failed"] else []
        self.digests.add(result["digest"])
        if len(self.digests) != 1:
            problems.append(f"output digests differ between passes: "
                            f"{sorted(self.digests)}")
        if self.pinned is not None and result["digest"] != self.pinned:
            problems.append(f"digest {result['digest']} != pinned "
                            f"{self.pinned}")
        steps = result["counts"].get("agent_steps")
        if steps is not None:
            if self.agent_steps not in (None, steps):
                problems.append("agent-steps differ between passes")
            self.agent_steps = steps
        for problem in problems:
            log(f"pass {self.passes - 1} failed:", problem)
        self.failed += bool(problems)
        return result

    def more(self, pass_seconds):
        """True while another pass fits in --seconds (or MIN_PASSES unmet)."""
        measured = self.passes - 1  # the warm-up pass is not measured
        if self.elapsed() + pass_seconds > RUN_BUDGET_S:
            return False
        if self.args.smoke:
            return measured < (2 if self.args.trace else 1)
        if measured < (2 if self.args.trace else MIN_PASSES):
            return True
        return self.elapsed() + pass_seconds <= self.args.seconds


def end_to_end(run, results):
    values = {}
    for result in results:
        e2e = dict(result["e2e"])
        e2e["trials_per_s"] = result["counts"]["trials"] / e2e["run_s"]
        if run.agent_steps is not None:
            e2e["agent_steps_per_s"] = run.agent_steps / e2e["run_s"]
        for name, value in e2e.items():
            values.setdefault(name, []).append(value)
    return {name: median(v) for name, v in values.items()}


def status_latency(results):
    """fnrd-swarm's STATUS percentiles over the pooled samples of every pass
    (a median of per-pass p99s would rest on a handful of samples each)."""
    rtts = [rtt for result in results for rtt in result["status_rtts_ms"]]
    if not rtts:
        return {}
    metrics = {f"status_rtt_p{p}_ms": percentile(rtts, p) for p in (50, 95, 99)}
    metrics["status_samples"] = len(rtts)
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, one pass (the benchmark's own test)")
    parser.add_argument("--rss-ceiling-mb", type=float, default=RSS_CEILING_MB)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    build()
    run = Run(args)
    # Warm-up: the first pass of a run reads measurably slower than the
    # rest (large-n: 4.9 s against 4.0-4.3 s), so it only checks outputs,
    # the in-process reference included, and is not measured.
    run.next_pass()
    untraced, traced = [], []
    pass_seconds = 0.0
    while run.more(pass_seconds):
        before = run.elapsed()
        result = run.next_pass()
        if result is not None:
            untraced.append(result)
        if args.trace:
            result = run.next_pass(traced=True)
            if result is not None:
                traced.append(result)
        pass_seconds = run.elapsed() - before
    shutil.rmtree(WORK, ignore_errors=True)
    if not untraced or (args.trace and not traced):
        raise SystemExit("perfbench: no pass succeeded")

    e2e = end_to_end(run, untraced)
    e2e["success_rate"] = 1.0 - run.failed / run.attempted
    if args.trace:
        layers = {}
        for result in traced:
            for name, value in result["layers"].items():
                layers.setdefault(name, []).append(value)
        # The latency figures and agent_steps_per_s come from the untraced
        # passes like every end-to-end figure, but are printed here: they
        # exist on one workload only, or spread wider than any end-to-end
        # bound (NOTES.md).
        metrics = dict(e2e)
        metrics.update(status_latency(untraced))
        metrics.update({name: median(v) for name, v in layers.items()})
        metrics["trace.overhead_s"] = (
            median([r["e2e"]["run_s"] for r in traced]) - e2e["run_s"])
        wanted = spec["per_layer"]
    else:
        metrics = e2e
        wanted = spec["end_to_end"]
    printed = {}
    for metric in wanted:
        # A layer this workload never calls did no work on it: 0.
        value = metrics.get(metric["name"], 0.0 if args.trace else None)
        if value is None:
            raise SystemExit(f"perfbench: no value for {metric['name']}")
        printed[metric["name"]] = {"value": value, "unit": metric["unit"]}
    log(f"{run.passes} passes in {run.elapsed():.1f} s; "
        f"re-check claims on --seed {RECHECK_SEED} as well")
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": printed}))


if __name__ == "__main__":
    main()
