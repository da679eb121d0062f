"""Regenerate data/corpus.g6, data/large.g6 and expected.json from the current code.

    python3 perfbench/record.py

Run only at a commit whose outputs are known to be right: the benchmark
fails any later commit whose catalogue, colourings or scan rows hash
differently. The corpus is checked against the published counts of
connected regular graphs (OEIS A005177) and the scan's flagged set against
the seven known exceptions before anything is written. The traced counts
are recorded with the digest of the edgesym sources and the kernel backend;
traced runs on the same sources and backend must reproduce them.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import tracer
import workloads

ROOT = Path(__file__).resolve().parent.parent
PUBLISHED = {str(n): c for n, c in zip(range(1, 11), (1, 1, 1, 2, 2, 5, 4, 17, 22, 167))}


def main() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    from edgesym import aut, catalog, graph, kernel

    corpus = "".join(graph.serialize_graph6(g) + "\n" for g in catalog.connected_regular_upto(10))
    workloads.CORPUS.parent.mkdir(exist_ok=True)
    workloads.CORPUS.write_text(corpus)
    large = "".join(graph.serialize_graph6(g) + "\n" for g in workloads.draw_large_pool(graph))
    workloads.LARGE.write_text(large)
    seed = workloads.DEFAULT_SEED
    expected = {
        "default_seed": seed,
        "published_counts": PUBLISHED,
        "corpus_sha256": hashlib.sha256(corpus.encode()).hexdigest(),
        "large_sha256": hashlib.sha256(large.encode()).hexdigest(),
        "flagged": [],
        "colour-corpus": None,
        "colour-large": None,
        "scan-corpus": [None] * len(corpus.split()),
        "counts_recorded_on": {"sources_sha256": workloads.source_digest(ROOT),
                               "kernel_backend": kernel.BACKEND},
        "counts": {},
    }
    workloads.EXPECTED.write_text(json.dumps(expected))

    for name, cls in workloads.WORKLOADS.items():
        wl = cls(ROOT, smoke=False)
        wl.setup(seed)
        if name == "scan-corpus":
            wl.want, wl.flagged = None, set()
        result = wl.run_pass(inprocess=True)
        _, digests = wl.check(result)
        if name == "scan-corpus":
            flagged = [r["graph6"] for r in result.outputs if r["status"].endswith("exception")]
            templates = [graph.complete(2), graph.cycle(3), graph.cycle(4), graph.cycle(5),
                         graph.complete(4), graph.complete(5), graph.complete_bipartite(3, 3)]
            matched = sorted(
                next(i for i, t in enumerate(templates) if aut.is_isomorphic(graph.parse_graph6(f), t))
                for f in flagged)
            if matched != list(range(7)):
                sys.exit(f"scan flagged {flagged}, not the seven known exceptions")
            result.errors = [e for e in result.errors if not e.startswith("flagged")]
            expected["flagged"] = sorted(flagged)
            by_line = dict(zip(wl.lines, digests))
            digests = [by_line[line] for line in corpus.split()]
        if result.errors:
            sys.exit(f"{name}: {result.errors[:5]}")
        if name in expected:
            expected[name] = digests
        with tracer.Tracer() as tr:
            traced = wl.run_pass(inprocess=True)
        layers = tracer.layer_metrics(tr, traced.wall, traced.classes, traced.fallback_layers)
        expected["counts"][name] = {k: v for k, v in layers.items() if tracer.is_count(k)}
        print(name, "recorded", file=sys.stderr)
    workloads.EXPECTED.write_text(json.dumps(expected, indent=1) + "\n")


if __name__ == "__main__":
    main()
