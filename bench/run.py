"""Verdict benchmark for dblcat: time to a checked verdict.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One workload runs in this process as a single-threaded closed loop: one job
at a time, the next starting when the previous returns.  Passes over the
job list repeat until the next pass would end after ``--seconds``, with at
least one pass.  Every job's answer is checked against a known answer.

With ``--trace 0`` the last line of stdout is a JSON object whose metrics are

    pass_ref         time of one pass in reference units: the sum over jobs
                     of each job's mean wall time, divided by the mean wall
                     time of the reference loop in the same run; each mean
                     leaves out the fastest and slowest tenth of the runs
    slowest_job_ref  the largest of those mean job times, in reference
                     units: the exponential tail
    setup_s          median over repeats of importing dblcat afresh and
                     building the workload's inputs; three repeats run
                     before the first pass and one after every pass
    peak_rss_mb      peak resident memory of this process (ru_maxrss)

A fixed pure-Python reference loop (``reference_loop``) runs just before
every job.  On a shared machine the neighbours' load slows both alike, so
their ratio stays put when wall times do not: on a two-core virtual machine
the sum of median job times of ord-decide spread by 15% of its value across
five seeds, its ratio to the reference by 1.5%.  Trimmed means rather than
medians, because the times of a job and of the reference loop fall into a
fast and a slow mode and a median jumps between them: over eight
fixture-cli runs the ratio of medians spread by 13%, that of trimmed means
by 3%.

With ``--trace 1`` half the time runs untraced and half traced, and the
metrics are the per-layer ones of ``layers.metric_names()`` for one traced
pass, plus ``trace.overhead_ref`` (traced minus untraced ``pass_ref``).  The
traced run also checks layer coverage (``layers.EXERCISED``) and writes the
stored spans to ``bench/out/``.

``failed`` counts job runs that raised, returned an unexpected exit code or
gave an answer other than the known one; ``failed / attempted`` is the
failed share, 0 at the seed.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import statistics
import sys
import time
import traceback

import layers
import workloads
from tracer import Tracer

SETUP_REPEATS = 3
OUT = workloads.HERE / "out"


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def setup(workload, seed):
    """Import dblcat afresh and build the workload's jobs; returns the jobs
    and the seconds it took."""
    start = time.perf_counter()
    dc = workloads.import_dblcat()
    jobs = workloads.build(workload, seed, dc)
    return jobs, time.perf_counter() - start


def trimmed_mean(values):
    """The mean of ``values`` without their smallest and largest tenth."""
    values = sorted(values)
    cut = len(values) // 10
    return statistics.fmean(values[cut:len(values) - cut])


def job_means(passes):
    """Each job's trimmed mean wall time over the passes."""
    return [trimmed_mean(times) for times in zip(*passes)]


def reference_loop():
    """A fixed piece of work in the style of dblcat's table code: tuple
    keys, dict stores and lookups, string formatting and a set
    comprehension.  It does not touch dblcat, so no change to dblcat
    moves its time; the machine's speed moves both."""
    table = {}
    for i in range(3000):
        key = (i % 61, i % 67)
        table[key] = f"[{key[0]},{key[1]}]"
    names = {v for k, v in table.items() if k[0] <= k[1]}
    return len(names) + sum(1 for a, b in table if (b, a) in table)


def time_reference():
    start = time.perf_counter()
    reference_loop()
    return time.perf_counter() - start


class Loop:
    """Runs passes over the job list, tallies attempted and failed jobs, and
    keeps the time of the reference loop run before each job."""

    def __init__(self, jobs):
        self.jobs = jobs
        self.attempted = 0
        self.failed = 0
        self.reference_s = []

    def one_pass(self, tracer=None):
        """Run every job once; returns the wall time of each."""
        times = []
        for job in self.jobs:
            self.attempted += 1
            gc.collect()
            self.reference_s.append(time_reference())
            seconds, problem = run_job(job, tracer)
            times.append(seconds)
            if problem is not None:
                self.failed += 1
                print(f"job {job.name} failed: {problem}", file=sys.stderr)
        return times

    def run_for(self, seconds, tracer=None, each_pass=None):
        """Repeat passes until the next one would end after ``seconds``;
        returns the per-job times of each pass.

        Successive passes run on successive CPUs of this process's
        affinity set: on a virtual machine each CPU goes through its own
        slow phases, and the means should take in all of them."""
        cpus = sorted(os.sched_getaffinity(0))
        passes = []
        start = time.perf_counter()
        try:
            while True:
                os.sched_setaffinity(0, {cpus[len(passes) % len(cpus)]})
                pass_start = time.perf_counter()
                passes.append(self.one_pass(tracer))
                if each_pass is not None:
                    each_pass()
                now = time.perf_counter()
                if now - start + (now - pass_start) > seconds:
                    return passes
        finally:
            os.sched_setaffinity(0, cpus)

    def in_reference_units(self, seconds):
        return seconds / trimmed_mean(self.reference_s)


def run_job(job, tracer=None):
    """Time one job and check its answer; returns (seconds, problem or None).

    The result is dropped on return, so the next job's peak memory does not
    include it and peak RSS does not depend on the job order."""
    span = tracer.span(f"job:{job.name}") if tracer else contextlib.nullcontext()
    start = time.perf_counter()
    try:
        with span:
            start = time.perf_counter()
            result = job.run()
            seconds = time.perf_counter() - start
        return seconds, job.check(result)
    except Exception:
        return time.perf_counter() - start, traceback.format_exc()


def end_to_end(loop, workload, seed, seconds):
    setup_times = [setup(workload, seed)[1] for _ in range(SETUP_REPEATS)]
    passes = loop.run_for(
        seconds, each_pass=lambda: setup_times.append(setup(workload, seed)[1]))
    job_s = job_means(passes)
    return {
        "pass_ref": (loop.in_reference_units(sum(job_s)), "ref"),
        "slowest_job_ref": (loop.in_reference_units(max(job_s)), "ref"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "MB"),
    }


def per_layer(loop, workload, seed, seconds):
    untraced = loop.run_for(seconds / 2)
    tracer = Tracer(layers.TRACED, count_results=layers.ENUMERATORS)
    snapshots = []

    def keep():
        snapshots.append(tracer.snapshot())
        if len(snapshots) == 1:
            write_spans(tracer, workload, seed)
        tracer.reset()

    with tracer:
        traced = loop.run_for(seconds / 2, tracer, each_pass=keep)
    first = snapshots[0]
    values = {}
    for name in layers.TRACED:
        calls, _, results = first[name]
        values[f"{name}.calls"] = (calls, "count")
        if name in layers.ENUMERATORS:
            values[f"{name}.results"] = (results, "count")
        values[f"{name}.self_s"] = (min(s[name][1] for s in snapshots), "s")
    for layer in layers.LAYERS:
        values[f"{layer}.self_s"] = (
            sum(values[f"{f}.self_s"][0] for f in layers.TRACED
                if layers.layer_of(f) == layer), "s")
    values["trace.overhead_ref"] = (loop.in_reference_units(
        sum(job_means(traced)) - sum(job_means(untraced))), "ref")
    missing = [f for f in layers.EXERCISED[workload] if first[f][0] == 0]
    top = max(layers.LAYERS, key=lambda layer: values[f"{layer}.self_s"][0])
    print(f"{workload}: most self time in layer {top}", file=sys.stderr)
    return values, missing


def write_spans(tracer, workload, seed):
    OUT.mkdir(exist_ok=True)
    path = OUT / f"spans-{workload}-seed{seed}.jsonl"
    with open(path, "w", encoding="utf-8") as fh:
        for span_id, name, start, end, parent, job in tracer.spans:
            fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                 "end": end, "parent": parent, "job": job}))
            fh.write("\n")
        if tracer.dropped_spans:
            fh.write(json.dumps({"dropped": tracer.dropped_spans}) + "\n")


def main(argv=None):
    args = parse_args(argv)
    if not workloads.FIXTURE.is_file():
        raise SystemExit(f"fixture not found: {workloads.FIXTURE}")
    loop = Loop(setup(args.workload, args.seed)[0])
    missing = []
    if args.trace:
        values, missing = per_layer(loop, args.workload, args.seed, args.seconds)
        if missing:
            print(f"layer coverage: no calls to {', '.join(missing)}",
                  file=sys.stderr)
    else:
        values = end_to_end(loop, args.workload, args.seed, args.seconds)
    result = {
        "correct": loop.failed == 0 and not missing,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in values.items()},
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
