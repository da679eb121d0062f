"""edgesym benchmark: one workload per run, outputs checked, metrics as JSON.

    python3 perfbench/run.py --workload colour-corpus --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seconds 25     # every workload in turn

Run it from the root of a checkout. It builds the package in place
(``setup.py build_ext --inplace``: setuptools skips an extension that is up
to date, and there is none to build without Cython), then times passes of
the workload until ``--seconds`` of timed work are done, checking every
output in an untimed phase after each pass.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. Their times
are scaled to a reference speed of the host, which speed.py measures on
the side of every pass.
``--trace 1`` reports the per-layer metrics: it alternates untraced and
traced passes of the same in-process code path, requires the counts of the
traced passes to agree exactly (and to equal the counts in expected.json
when the edgesym sources and kernel backend are those they were recorded
with) and every output to hash the same as the untraced ones, and measures
the CLI from subprocesses.

The last line of standard output is the result object; the line before it
carries the run's metadata (kernel backend, Python version, core count,
sample counts and, for traced runs on changed sources, the counts recorded
when the benchmark was defined, for comparison).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import speed
import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
SETUP_PROBES = 9
CLI_PROBES = 5
CLI_PAIRS = 2


def build() -> None:
    """Build the package in place; setuptools skips what is up to date."""
    if not (ROOT / "setup.py").exists():
        return
    proc = subprocess.run([sys.executable, "setup.py", "build_ext", "--inplace"], cwd=ROOT,
                          capture_output=True, text=True, timeout=800)
    if proc.returncode != 0:
        sys.exit(f"build failed:\n{proc.stderr[-4000:]}")


def setup_seconds(args) -> float:
    """Median set-up time over fresh processes, each scaled to the
    reference speed by a probe that runs during that set-up."""
    argv = [sys.executable, __file__, "--setup-probe", "--workload", args.workload,
            "--seed", str(args.seed)] + (["--smoke"] if args.smoke else [])
    scaled = []
    for _ in range(SETUP_PROBES):
        seconds, slowness = map(float, workloads.run_child(argv, ROOT).split()[-2:])
        scaled.append(seconds / slowness)
    return statistics.median(scaled)


class Tally:
    """Operations attempted and failed over every checked pass of a run."""

    def __init__(self, wl):
        self.wl = wl
        self.attempted = 0
        self.failed = 0
        self.reference = None  # digests of the first pass
        self.problems: list[str] = []

    def check(self, result) -> None:
        attempted, digests = self.wl.check(result)
        if self.reference is None:
            self.reference = digests
        elif digests != self.reference:
            result.errors.append("outputs differ from the run's first pass")
        self.attempted += attempted
        self.failed += min(attempted, len(result.errors))
        self.problems.extend(result.errors)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def pooled(latencies: list[float], q: float) -> float:
    if len(latencies) == 1:
        return latencies[0]
    return statistics.quantiles(latencies, n=100, method="inclusive")[round(q * 100) - 1]


def end_to_end(wl, args, tally: Tally, info: dict) -> dict:
    """Times scaled to the reference speed: a pass's wall time, and each
    latency in it, is divided by the host's slowness while it ran. A graph's
    latency is its median over the passes (every pass holds the same graphs
    in the same order), and the percentiles are taken over graphs."""
    passes, walls, latencies, slow = [], [], [], []
    while True:
        with speed.Probe(pin=not wl.uses_every_core) as probe:
            result = wl.run_pass()
        tally.check(result)
        passes.append(result)
        slow.append(probe.slowness(result.start, result.start + result.wall))
        walls.append(result.wall / slow[-1])
        latencies.append([probe.scale(t, x) for t, x in zip(result.starts, result.latencies)])
        timed = sum(p.wall for p in passes)
        if timed + timed / len(passes) > args.seconds:
            break
    per_graph = [statistics.median(xs) for xs in zip(*latencies)]
    # a batch pass gives one independent latency however many graphs it holds
    timings = walls if passes[0].batch else per_graph
    p95 = pooled(timings, 0.95)
    info.update(passes=len(passes), latency_samples=len(timings),
                samples_beyond_p95=sum(1 for x in timings if x > p95),
                raw_wall_s=statistics.median(p.wall for p in passes),
                slowness=statistics.median(slow))
    return {
        "ref_wall_s": statistics.median(walls),
        "ref_graphs_per_s": statistics.median(p.graphs / w for p, w in zip(passes, walls)),
        "ref_graph_p50_ms": statistics.median(per_graph) * 1e3,
        "ref_graph_p95_ms": pooled(per_graph, 0.95) * 1e3,
        "peak_rss_mb": wl.peak_rss_mb(),
    }


def per_layer(wl, args, tally: Tally, info: dict) -> dict:
    untraced, traced, layers = [], [], []

    def untraced_pass() -> None:
        with speed.Probe(pin=True) as probe:
            result = wl.run_pass(inprocess=True)
        tally.check(result)
        untraced.append(probe.scale(result.start, result.wall))

    def traced_pass() -> None:
        with speed.Probe(pin=True) as probe, tracer.Tracer() as tr:
            result = wl.run_pass(inprocess=True)
        tally.check(result)
        traced.append(probe.scale(result.start, result.wall))
        layers.append(tracer.layer_metrics(tr, result.wall, result.classes,
                                           result.fallback_layers))

    # traced passes on both sides of the untraced ones, so that a steady
    # drift in the host's speed cancels out of trace.overhead_ratio
    traced_pass()
    untraced_pass()
    traced_pass()
    while True:
        pair = statistics.median(untraced) + statistics.median(traced)
        if sum(untraced) + sum(traced) + pair > args.seconds:
            break
        untraced_pass()
        traced_pass()

    check_counts(wl, args, layers, tally, info)
    metrics = tracer.median_metrics(layers)
    metrics["trace.pass_s"] = statistics.median(traced)
    if isinstance(wl, workloads.ScanCorpus):
        metrics.update(workloads.cli_metrics(ROOT, wl, CLI_PROBES, CLI_PAIRS))
    else:
        scan = workloads.ScanCorpus(ROOT, args.smoke)
        scan.setup(args.seed)
        try:
            metrics.update(workloads.cli_metrics(ROOT, scan, CLI_PROBES, CLI_PAIRS))
        finally:
            scan.close()
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(untraced)
    info.update(untraced_passes=len(untraced), traced_passes=len(traced))
    return metrics


def check_counts(wl, args, layers: list[dict], tally: Tally, info: dict) -> None:
    """The search is deterministic, so every traced pass must give the same
    counts. No count depends on the order of the inputs, so on the sources
    and kernel backend expected.json was recorded with, every traced run on
    the full inputs must give the recorded counts, whatever its seed. On
    other sources the recorded counts are reported, not enforced: a change
    may legitimately cut kernel calls."""
    from edgesym import kernel

    counts = {name: value for name, value in layers[0].items() if tracer.is_count(name)}
    for name, value in counts.items():
        if any(p[name] != value for p in layers[1:]):
            tally.fail(f"traced passes disagree on {name}: {[p[name] for p in layers]}")
    if args.smoke:
        return
    recorded = wl.expected["counts"][wl.name]
    same_code = wl.expected["counts_recorded_on"] == {
        "sources_sha256": workloads.source_digest(ROOT), "kernel_backend": kernel.BACKEND}
    info["counts_enforced"] = same_code
    if not same_code:
        info["counts_at_definition"] = recorded
        return
    for name, value in recorded.items():
        if counts.get(name) != value:
            tally.fail(f"{name} is {counts.get(name)}, {value} when recorded on these sources")


def declared_units() -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}


def run_all(args) -> None:
    """Every workload in a fresh process; one table line per metric."""
    combined = {}
    for name in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        code, out, err, _ = workloads.run_process(argv + (["--smoke"] if args.smoke else []), ROOT)
        if code != 0:
            sys.exit(f"{name} failed:\n{err[-4000:]}")
        result = json.loads(out.splitlines()[-1])
        combined[name] = result
        print(f"{name}: correct={result['correct']} "
              f"attempted={result['attempted']} failed={result['failed']}")
        for metric, m in result["metrics"].items():
            print(f"  {metric:<40} {m['value']:>14.6g} {m['unit']}")
    print(json.dumps(combined))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="smallest inputs, for the smoke test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()

    if not (ROOT / "src" / "edgesym" / "__init__.py").exists():
        sys.exit(f"no edgesym sources under {ROOT / 'src'}; run from a full checkout")
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "all":
        run_all(args)
        return
    wl = workloads.WORKLOADS[args.workload](ROOT, args.smoke)
    if args.setup_probe:
        with speed.Probe(pin=True) as probe:
            start = perf_counter()
            wl.setup(args.seed)
            seconds = perf_counter() - start
        wl.close()
        print(seconds, probe.slowness())
        return

    build()
    setup_s = None if args.trace else setup_seconds(args)
    wl.setup(args.seed)
    try:
        run(wl, args, setup_s)
    finally:
        wl.close()


def run(wl, args, setup_s) -> None:
    from edgesym import kernel

    tally = Tally(wl)
    info = {"workload": wl.name, "seed": args.seed, "smoke": args.smoke,
            "kernel_backend": kernel.BACKEND, "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0))}
    if args.trace:
        values = per_layer(wl, args, tally, info)
    else:
        values = end_to_end(wl, args, tally, info)
        values["setup_s"] = setup_s
    units = declared_units()
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    info["problems"] = len(tally.problems)
    print(json.dumps({"info": info}))
    print(json.dumps({
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))


if __name__ == "__main__":
    main()
