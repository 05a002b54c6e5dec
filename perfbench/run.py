"""stabset benchmark: one workload per run, driven from the root of a checkout.

    python3 perfbench/run.py --workload search --seed 1 --seconds 25 --trace 0

Workloads (see perfbench/NOTES.md for why each exists):

- `search`: the exact solver on a seeded random corpus, a budgeted run on
  dyadic l=2 and DIMACS export;
- `witness-l4`: the dyadic l=4 construction and every check of its witness;
- `compress-certify`: compression of dyadic witnesses and rank certificates.

Each workload owns one stage group of `stages.py` and reports that group's
metrics; the other two groups run as small probes, so that every run reports
every end-to-end metric.  Load is a closed loop in this one process and
thread: one library call at a time.  The workload's inputs come from
`--seed`; the probes' inputs are fixed.  The library receives only the
generated inputs.

A run sets the inputs up several times (the median is `setup_s`), then
measures whole passes of the workload's own group for about `--seconds`
seconds: at least one pass, and no pass that the previous one predicts would
end past the window.  Each of the group's metrics is the median over passes.
Before each pass every probe group runs once, topped up to a few runs at the
end; a probe metric is the median over its runs.  The output
checks run last, outside every timed region, and fill `attempted`/`failed`.

`--trace 1` runs every group once untraced and then once with spans recorded
around the library's public functions, and reports the per-layer metrics and
the tracing overhead instead.  `--smoke` runs the workload's own group at
its smoke size too.

The last line of standard output is the JSON result; a run record with the
seed, git sha, interpreter, platform and instance parameters goes to
perfbench/out/.  Without `src/stabset` beside it the script exits with 2.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

#: setups per run; setup_s is their median
SETUP_REPEATS = 9
#: least number of runs of each probe group; its metrics are the median
PROBE_REPEATS = 5
#: seed of the groups a workload runs only as smoke-size probes, so that
#: those stay a fixed control while --seed varies the workload's own inputs
PROBE_SEED = 0


def git_sha():
    """HEAD's commit read from .git without starting a process; None outside git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["search", "witness-l4", "compress-certify"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true", help="run every stage at its smoke size")
    return parser.parse_args(argv)


class Run:
    def __init__(self, args, stages):
        self.args = args
        self.stages = stages
        own = stages.WORKLOADS[args.workload]
        self.order = [own] + [g for g in stages.GROUPS if g != own]
        self.size = {g: "full" if g == own and not args.smoke else "smoke" for g in self.order}
        self.seed = {g: args.seed if g == own else PROBE_SEED for g in self.order}

    def setup(self):
        inputs = {}
        for g in self.order:
            group = self.stages.GROUPS[g]
            inputs[g] = group.setup(group.sizes[self.size[g]], self.stages.group_rng(self.seed[g], g))
        return inputs

    def run_group(self, g, inputs):
        """Run group g once from a collected heap; returns (samples, outputs,
        seconds in the group's calls, collection excluded)."""
        gc.collect()
        start = time.perf_counter()
        samples, outputs = self.stages.GROUPS[g].run(inputs[g])
        return samples, outputs, time.perf_counter() - start

    def full_pass(self, inputs):
        samples, outputs, seconds = {}, {}, 0.0
        for g in self.order:
            got, outputs[g], group_s = self.run_group(g, inputs)
            samples.update(got)
            seconds += group_s
        return samples, outputs, seconds

    def check(self, inputs, outputs):
        results = []

        def tally(description, ok):
            results.append((description, bool(ok)))

        for g in self.order:
            self.stages.GROUPS[g].check(inputs[g], outputs[g], tally)
        return results

    def params(self):
        return {
            g: {"size": self.size[g], "seed": self.seed[g], **self.stages.GROUPS[g].params(self.stages.GROUPS[g].sizes[self.size[g]])}
            for g in self.order
        }


def main(argv=None):
    args = parse_args(argv)
    if not (SRC / "stabset" / "__init__.py").is_file():
        print(f"perfbench: no library sources at {SRC / 'stabset'}; run from the root of a stabset checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import stages
    from tracer import Tracer, rss_mb

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    run = Run(args, stages)

    setup_times = []
    for _ in range(SETUP_REPEATS):
        gc.collect()
        start = time.perf_counter()
        inputs = run.setup()
        setup_times.append(time.perf_counter() - start)

    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "git_sha": git_sha(),
        "python": sys.version,
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "params": run.params(),
        "setup_s_each": setup_times,
    }

    if args.trace:
        # traced first, so that each rss_rise_mb sees the process's first
        # peak rather than the one an untraced pass already reached
        tracer = Tracer()
        tracer.install(stages.TRACE_TARGETS)
        try:
            inputs = run.setup()
            pass_start = time.perf_counter()
            samples, outputs, traced_s = run.full_pass(inputs)
        finally:
            tracer.uninstall()
        outputs = None
        _, outputs, untraced_s = run.full_pass(inputs)
        in_pass = sum(end - start for _, start, end in tracer.top_spans if start >= pass_start)
        metrics = stages.layer_metrics(tracer)
        metrics["trace.untraced_pass_s"] = untraced_s
        metrics["trace.traced_pass_s"] = traced_s
        metrics["trace.overhead_s"] = traced_s - untraced_s
        metrics["trace.self_share"] = in_pass / traced_s
        record["trace_dump"] = tracer.dump()
        declared = spec["per_layer"]
        passes = [samples]
    else:
        own, probes = run.order[0], run.order[1:]
        probe_runs = {g: [] for g in probes}
        outputs = {}

        def probe():
            for g in probes:
                outputs[g] = None
                got, outputs[g], _ = run.run_group(g, inputs)
                probe_runs[g].append(got)

        passes, elapsed = [], 0.0
        while True:
            # one probe round per pass spreads the probes over the window
            probe()
            # the outputs of the pass before would otherwise stay alive, and
            # a larger live heap makes every full collection slower
            outputs[own] = None
            got, outputs[own], pass_s = run.run_group(own, inputs)
            passes.append(dict(got, pass_s=pass_s))
            elapsed += pass_s
            if elapsed + pass_s > args.seconds:
                break
        while len(probe_runs[probes[0]]) < PROBE_REPEATS:
            probe()
        probe_samples = {
            name: statistics.median(got[name] for got in runs)
            for runs in probe_runs.values()
            for name in runs[0]
        }
        metrics = {name: statistics.median(p[name] for p in passes) for name in passes[0]}
        metrics.update(probe_samples)
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["peak_rss_mb"] = rss_mb()
        declared = spec["end_to_end"]
        record["probes"] = probe_samples
    record["passes"] = passes

    results = run.check(inputs, outputs)
    failed = [d for d, ok in results if not ok]
    if not args.trace:
        metrics["pass_rate"] = (len(results) - len(failed)) / len(results)

    missing = [m["name"] for m in declared if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"perfbench: BENCHMARK.json declares metrics this run did not measure: {missing}")
    out_metrics = {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in declared}
    record.update(metrics=out_metrics, checks_attempted=len(results), checks_failed=failed)

    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}{'-smoke' if args.smoke else ''}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{tag}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  passes {len(passes)}  sizes {run.size}")
    count = len(inputs["solve"]["corpus"])
    cut = stages.tail_index(count)
    print(f"solve_tail_s is sample {cut + 1} of {count} solves (p{100 * (cut + 1) // count}), {count - 1 - cut} beyond it")
    for m in declared:
        print(f"  {m['name']:40s} {metrics[m['name']]:.6g} {m['unit']}  ({m['better']} is better)")
    for description in failed:
        print(f"  CHECK FAILED: {description}")
    print(f"checks: {len(results) - len(failed)} of {len(results)} passed; record {OUT.name}/{tag}.json")
    print(json.dumps({"correct": not failed, "attempted": len(results), "failed": len(failed), "metrics": out_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
