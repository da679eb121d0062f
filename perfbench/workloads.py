"""The four benchmark workloads and the checks on their outputs.

Each workload has an untimed ``setup`` (import edgesym, load or generate
the inputs), a timed ``run_pass`` and an untimed ``check`` that verifies
every output and compares its SHA-256 digest with the one recorded in
``expected.json`` at the commit that defined the benchmark. Digests are the
first 16 hex digits of the SHA-256 of a canonical JSON form.

Why these four:
  catalog-n10    the only workload where the catalogue and isomorphism
                 rejection do the work;
  colour-corpus  small, highly symmetric graphs, so per-query cost shows;
  colour-large   nearly asymmetric, larger graphs, so raw kernel speed shows;
  scan-corpus    the search used the other way round (most searches
                 succeed), plus CLI start-up, graph6 I/O and the process pool.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import resource
import signal
import subprocess
import sys
import threading
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
CORPUS = HERE / "data" / "corpus.g6"
LARGE = HERE / "data" / "large.g6"
EXPECTED = HERE / "expected.json"

DEFAULT_SEED = 0
SMOKE_MAX_N = 6  # corpus graphs kept by --smoke; all seven exceptions have n <= 6
# colour-large's fixed pool, drawn once by record.py from LARGE_POOL_SEED and
# committed as data/large.g6. The run's seed only shuffles the order, so a
# pass costs the same whatever the seed.
LARGE_GRID = [(n, d) for n in (16, 24, 32) for d in (3, 4, 5)]
LARGE_POOL_SEED = 2019
SMOKE_LARGE_MAX_N = 16
SCAN_FIELDS = ("graph6", "n", "degree", "dprime", "status")  # timing-free row fields
REFUSED = "refused"  # the single edge must raise NotColourableError
SUBPROCESS_TIMEOUT = 150


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def graph6_order(line: str) -> int:
    return ord(line[0]) - 63


def load_expected() -> dict:
    return json.loads(EXPECTED.read_text())


def source_digest(root: Path) -> str:
    """SHA-256 of the edgesym sources, which fix the traced counts."""
    h = hashlib.sha256()
    src = root / "src" / "edgesym"
    for path in sorted([*src.glob("*.py"), *src.glob("*.pyx")]):
        h.update(path.name.encode() + b"\0" + path.read_bytes() + b"\0")
    return h.hexdigest()


def committed_lines(path: Path, sha256: str) -> list[str]:
    raw = path.read_bytes()
    if hashlib.sha256(raw).hexdigest() != sha256:
        raise RuntimeError(f"{path} does not match its recorded SHA-256")
    return raw.decode().split()


def corpus_lines(expected: dict, max_n: int) -> list[str]:
    """The committed corpus, checked against the published counts."""
    lines = committed_lines(CORPUS, expected["corpus_sha256"])
    counts: dict[str, int] = {}
    for line in lines:
        key = str(graph6_order(line))
        counts[key] = counts.get(key, 0) + 1
    if counts != expected["published_counts"]:
        raise RuntimeError(f"corpus counts per n {counts} differ from the published ones")
    return [line for line in lines if graph6_order(line) <= max_n]


def edgesym_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def _kill_group(pgid: int) -> None:
    with contextlib.suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def run_process(argv: list[str], root: Path) -> tuple[int, str, str, float]:
    """(exit code, stdout, stderr, peak RSS in MB) of a child run to
    completion. The peak covers the child and the pool workers it waited
    for, and nothing else this process started. The child gets its own
    process group, so the timeout also stops its workers."""
    proc = subprocess.Popen(argv, cwd=root, env=edgesym_env(root), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    timer = threading.Timer(SUBPROCESS_TIMEOUT, _kill_group, (proc.pid,))
    timer.start()
    err: list[str] = []
    reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
    reader.start()
    out = proc.stdout.read()
    reader.join()
    timer.cancel()
    _, status, usage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    proc.stdout.close()
    proc.stderr.close()
    return proc.returncode, out, err[0], usage.ru_maxrss / 1024


def run_child(argv: list[str], root: Path) -> str:
    """Standard output of a child that must succeed."""
    code, out, err, _ = run_process(argv, root)
    if code != 0:
        raise RuntimeError(f"{argv[1:]} exited with {code}: {err[-2000:]}")
    return out


@dataclass
class PassResult:
    start: float  # perf_counter() when the timed pass began
    wall: float
    starts: list[float]  # perf_counter() when each latency began
    latencies: list[float]
    outputs: list
    classes: int = 0  # catalogue classes emitted
    fallback_layers: int = 0
    batch: bool = False  # every output arrives when the whole pass returns
    errors: list[str] = field(default_factory=list)

    @property
    def graphs(self) -> int:
        return len(self.outputs)


class Workload:
    name = ""
    uses_every_core = False  # the timed pass runs processes over every core

    def __init__(self, root: Path, smoke: bool):
        self.root = root
        self.smoke = smoke
        self.expected = load_expected()

    def setup(self, seed: int) -> None:
        raise NotImplementedError

    def run_pass(self, inprocess: bool = False) -> PassResult:
        raise NotImplementedError

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        """(operations attempted, output digests); failures go to ``result.errors``."""
        raise NotImplementedError

    def peak_rss_mb(self) -> float:
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    def close(self) -> None:
        """Remove any input files setup() wrote."""


class CatalogN10(Workload):
    """Cold build of every connected regular graph on at most ten vertices."""

    name = "catalog-n10"

    def setup(self, seed: int) -> None:
        from edgesym import catalog, graph

        self.max_n = SMOKE_MAX_N if self.smoke else 10
        self.catalog = catalog
        self.serialize = graph.serialize_graph6
        # the lru_cache objects themselves, so a traced pass can still clear them
        self.caches = (catalog.connected_regular_graphs, catalog.regular_graphs)
        self.want = corpus_lines(self.expected, self.max_n)

    def run_pass(self, inprocess: bool = False) -> PassResult:
        for cache in self.caches:
            cache.cache_clear()
        start = perf_counter()
        graphs = self.catalog.connected_regular_upto(self.max_n)
        wall = perf_counter() - start
        outputs = [self.serialize(g) for g in graphs]
        # the catalogue is one batch: every class arrives when the build returns
        return PassResult(start, wall, [start] * len(outputs), [wall] * len(outputs), outputs,
                          classes=len(outputs), batch=True)

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        got, want = result.outputs, self.want
        for i in range(max(len(got), len(want))):
            a = got[i] if i < len(got) else None
            b = want[i] if i < len(want) else None
            if a != b:
                result.errors.append(f"class {i}: built {a!r}, corpus has {b!r}")
        return len(want), [digest(line) for line in got]


class ColourWorkload(Workload):
    """colour_regular(g, verify=True) on each graph, one call at a time."""

    def load(self) -> list:
        raise NotImplementedError

    def setup(self, seed: int) -> None:
        from edgesym import colouring, distinguishing, graph, layered

        self.graph_mod, self.layered = graph, layered
        self.colouring, self.distinguishing = colouring, distinguishing
        self.graphs = self.load()
        want = self.expected[self.name]  # None only while record.py records it
        self.want = want and want[: len(self.graphs)]
        self.order = list(range(len(self.graphs)))
        random.Random(seed).shuffle(self.order)
        self.verified: set[tuple[int, str]] = set()

    def run_pass(self, inprocess: bool = False) -> PassResult:
        colour_regular = self.layered.colour_regular
        refusal = self.layered.NotColourableError
        outputs: list = [None] * len(self.graphs)
        starts, latencies = [], []
        fallback = 0
        start = perf_counter()
        for i in self.order:
            audit: list = []
            t0 = perf_counter()
            try:
                out = colour_regular(self.graphs[i], verify=True, audit=audit)
            except refusal:
                out = REFUSED
            except Exception as exc:  # one failed operation, counted by check()
                out = exc
            starts.append(t0)
            latencies.append(perf_counter() - t0)
            outputs[i] = out
            fallback += sum(1 for entry in audit if entry.get("fallback"))
        wall = perf_counter() - start
        return PassResult(start, wall, starts, latencies, outputs, fallback_layers=fallback)

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        digests = []
        for i, (g, out) in enumerate(zip(self.graphs, result.outputs)):
            if isinstance(out, Exception):
                result.errors.append(f"graph {i}: {type(out).__name__}: {out}")
                digests.append("error")
                continue
            if out is REFUSED:
                d = REFUSED
                if g.n != 2:
                    result.errors.append(f"graph {i}: refused but is not the single edge")
            else:
                d = digest(sorted([u, v, col] for (u, v), col in out.assignment.items()))
                if (i, d) not in self.verified:
                    problem = self.verify(g, out)
                    if problem:
                        result.errors.append(f"graph {i}: {problem}")
                    else:
                        self.verified.add((i, d))
            if self.want is not None and d != self.want[i]:
                result.errors.append(f"graph {i}: digest {d} differs from recorded {self.want[i]}")
            digests.append(d)
        return len(self.graphs), digests

    def verify(self, g, c) -> str:
        """Independent checks of one colouring; '' when it passes."""
        palette = self.colouring.PALETTE
        complete = g.n >= 2 and self.graph_mod.regularity(g) == g.n - 1
        if g.n == 2:
            return "the single edge was coloured instead of refused"
        if not c.is_total(g) or len(c.assignment) != g.edge_count:
            return "colouring is not total"
        if not c.colours_used() <= set(palette):
            return "colouring leaves the palette"
        if not self.colouring.satisfies_blue_rule(g, c, complete):
            return "blue rule violated"
        if not self.distinguishing.is_distinguishing(g, c):
            return "colouring is not distinguishing"
        return ""


class ColourCorpus(ColourWorkload):
    name = "colour-corpus"

    def load(self) -> list:
        max_n = SMOKE_MAX_N if self.smoke else 10
        return [self.graph_mod.parse_graph6(line) for line in corpus_lines(self.expected, max_n)]


class ColourLarge(ColourWorkload):
    """The fixed pool of random regular graphs in data/large.g6."""

    name = "colour-large"

    def load(self) -> list:
        max_n = SMOKE_LARGE_MAX_N if self.smoke else max(n for n, _ in LARGE_GRID)
        lines = committed_lines(LARGE, self.expected["large_sha256"])
        return [self.graph_mod.parse_graph6(line) for line in lines if graph6_order(line) <= max_n]


def draw_large_pool(graph_mod) -> list:
    """The graphs of LARGE_GRID, connected, drawn from LARGE_POOL_SEED."""
    rng = random.Random(LARGE_POOL_SEED)
    graphs = []
    for n, d in LARGE_GRID:
        while True:
            try:
                g = graph_mod.random_regular(n, d, rng.randrange(2**32))
            except graph_mod.GraphError:  # the pairing model ran out of retries
                continue
            if graph_mod.is_connected(g):
                break
        graphs.append(g)
    return graphs


class ScanCorpus(Workload):
    """``edgesym scan --file <corpus> --jobs 2`` as a subprocess.

    In-process passes (``inprocess=True``, used by the traced run) call
    ``cli.main`` with ``--jobs 1``, because spans cannot cross the pool.
    """

    name = "scan-corpus"
    uses_every_core = True  # the --jobs 2 pool

    def setup(self, seed: int) -> None:
        from edgesym import cli

        self.cli = cli
        self.peak_rss = 0.0
        max_n = SMOKE_MAX_N if self.smoke else 10
        full = corpus_lines(self.expected, 10)
        recorded = dict(zip(full, self.expected["scan-corpus"]))
        lines = [line for line in full if graph6_order(line) <= max_n]
        random.Random(seed).shuffle(lines)
        self.lines = lines
        self.want = [recorded[line] for line in lines]
        self.flagged = set(self.expected["flagged"]) & set(lines)
        work = self.root / ".bench_build"
        work.mkdir(exist_ok=True)
        self.path = work / f"scan-{os.getpid()}.g6"
        self.path.write_text("".join(line + "\n" for line in lines))

    def close(self) -> None:
        self.path.unlink(missing_ok=True)

    def scan_argv(self, jobs: int) -> list[str]:
        return ["scan", "--file", str(self.path), "--jobs", str(jobs)]

    def run_pass(self, inprocess: bool = False) -> PassResult:
        start = perf_counter()
        if inprocess:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = self.cli.main(self.scan_argv(1))
            text = buf.getvalue()
        else:
            code, text, _, rss = run_process([sys.executable, "-m", "edgesym.cli",
                                              *self.scan_argv(2)], self.root)
            self.peak_rss = max(self.peak_rss, rss)
        wall = perf_counter() - start
        rows = [json.loads(line) for line in text.splitlines() if line.strip()]
        result = PassResult(start, wall, [start] * len(rows), [wall] * len(rows), rows, batch=True)
        if code != 0:
            result.errors.append(f"scan exited with {code}")
        return result

    def check(self, result: PassResult) -> tuple[int, list[str]]:
        rows = result.outputs
        if len(rows) != len(self.lines):
            result.errors.append(f"scan gave {len(rows)} rows for {len(self.lines)} graphs")
        digests = []
        for i, row in enumerate(rows):
            d = digest({k: row.get(k) for k in SCAN_FIELDS})
            if i >= len(self.lines) or row.get("graph6") != self.lines[i]:
                result.errors.append(f"row {i} is for {row.get('graph6')!r}, out of order")
            elif self.want is not None and d != self.want[i]:
                result.errors.append(f"row {i} ({row['graph6']}): digest {d} differs from recorded")
            digests.append(d)
        flagged = {r.get("graph6") for r in rows if str(r.get("status")).endswith("exception")}
        if flagged != self.flagged:
            result.errors.append(f"flagged {sorted(flagged)}, expected {sorted(self.flagged)}")
        return len(self.lines), digests

    def peak_rss_mb(self) -> float:
        return self.peak_rss  # the largest scan process or pool worker


WORKLOADS = {w.name: w for w in (CatalogN10, ColourCorpus, ColourLarge, ScanCorpus)}


def cli_metrics(root: Path, scan: ScanCorpus, probes: int, pairs: int) -> dict:
    """Import time of ``edgesym.cli`` in a fresh process, and the speed-up of
    the scan CLI from its process pool (``--jobs 1`` wall / ``--jobs 2`` wall)."""
    import statistics

    probe = ("import time; t = time.perf_counter(); import edgesym.cli; "
             "print(time.perf_counter() - t)")
    imports = [float(run_child([sys.executable, "-c", probe], root)) for _ in range(probes)]
    walls: dict[int, list[float]] = {1: [], 2: []}
    for _ in range(pairs):
        for jobs in (1, 2):
            start = perf_counter()
            run_child([sys.executable, "-m", "edgesym.cli", *scan.scan_argv(jobs)], root)
            walls[jobs].append(perf_counter() - start)
    return {
        "cli.import_s": statistics.median(imports),
        "cli.pool_speedup": statistics.median(walls[1]) / statistics.median(walls[2]),
    }
