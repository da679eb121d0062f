"""Exact distinguishing index and distinguishing-colouring searches.

The index computation is witness-first: cheap constructive candidates are
verified before the exhaustive lexicographic enumeration decides
non-existence. Every nontrivial automorphism a verification finds is kept
as a killer for the rest of the call, and a candidate or enumerated
colouring that a killer preserves is rejected without a search. Every
colouring accepted is checked by the same verifier, and exhaustive
enumeration is the sole authority for negative answers.
"""

from __future__ import annotations

import functools
import itertools
import os
import random
from typing import Iterable, Iterator, Optional, Sequence

from .aut import (
    AutConstraint,
    Permutation,
    SizeGuardError,
    find_automorphism,
    is_isomorphic,
)
from .colouring import GREEN, PALETTE, RED, EdgeColouring, satisfies_blue_rule
from .graph import (
    Graph,
    complete,
    complete_bipartite,
    cycle,
    distances_from,
    edge,
    is_connected,
    regularity,
    serialize_graph6,
)


class _NotDistinguishable:
    """Marker: some nontrivial automorphism survives every edge colouring."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self):
        return "NotDistinguishable"


NOT_DISTINGUISHABLE = _NotDistinguishable()


class BudgetExceededError(RuntimeError):
    """The configured enumeration budget ran out before a decision."""


class MaxColoursExceededError(ValueError):
    """No distinguishing colouring exists within the requested palette size."""


class ChordlessPathError(ValueError):
    """Neither endpoint of the path admits a chord usable for the spider."""


DEFAULT_BUDGET = 10**8
_PROBE_TRIES = 512  # random k-colourings tried before the exhaustive scan
_HAMILTON_NODES = 50_000  # search nodes hamiltonian_path may visit


def is_distinguishing(g: Graph, c: EdgeColouring) -> bool:
    """True iff the identity is the only colour-preserving automorphism.

    The colouring must be total over g's edges.
    """
    c.check_domain(g)
    if not c.is_total(g):
        raise ValueError("is_distinguishing requires a total colouring")
    return _breaker(g, c) is None


def _breaker(g: Graph, c: EdgeColouring) -> Optional[Permutation]:
    """A nontrivial automorphism preserving the total colouring c, or None."""
    return find_automorphism(
        g,
        AutConstraint(colour_preserve=c, nontrivial_on=frozenset(range(g.n))),
    )


# -- witness probes -----------------------------------------------------------


def hamiltonian_path(g: Graph) -> Optional[list[int]]:
    """A Hamiltonian path by depth-first search, or None when none is found
    within _HAMILTON_NODES search nodes."""
    n = g.n
    nodes = 0

    def extend(pathv: list[int], seen: int) -> bool:
        nonlocal nodes
        nodes += 1
        if nodes > _HAMILTON_NODES:
            return False
        if len(pathv) == n:
            return True
        for w in g.neighbours(pathv[-1]):
            if not seen >> w & 1:
                pathv.append(w)
                if extend(pathv, seen | 1 << w):
                    return True
                pathv.pop()
        return False

    for start in range(n):
        pathv = [start]
        if extend(pathv, 1 << start):
            return pathv
    return None


def _spider_colouring(g: Graph, path: Sequence[int]) -> EdgeColouring:
    """Two-colouring from a spanning spider built out of a Hamiltonian path.

    A chord from a path endpoint replaces the first path edge, leaving a tree
    with one degree-3 vertex and three legs of pairwise different lengths;
    tree edges turn red, the rest green. The colouring is distinguishing by
    construction and is returned unverified; the caller's verification
    doubles as its check. Raises ValueError for fewer than 7 vertices or a
    path that is not a Hamiltonian path of g, and ChordlessPathError when no
    endpoint admits a usable chord.
    """
    n = g.n
    if n < 7:
        raise ValueError("the spider construction needs at least 7 vertices")
    seq = list(path)
    if sorted(seq) != list(range(n)):
        raise ValueError("path is not a permutation of the vertices")
    for a, b in zip(seq, seq[1:]):
        if not g.has_edge(a, b):
            raise ValueError(f"path step {a}-{b} is not an edge")

    for cand in (seq, seq[::-1]):
        for k in range(4, n - 1):  # chord to the k-th path vertex, 1-based
            if 2 * k == n + 2 or not g.has_edge(cand[0], cand[k - 1]):
                continue
            tree = {edge(a, b) for a, b in zip(cand, cand[1:])}
            tree.discard(edge(cand[0], cand[1]))
            tree.add(edge(cand[0], cand[k - 1]))
            return EdgeColouring.on_graph(g, [RED if e in tree else GREEN for e in g.edges])
    raise ChordlessPathError(
        f"no chord with 4 <= k <= {n - 2}, 2k != {n + 2} at either path endpoint"
    )


def _probe_candidates(g: Graph, k: int):
    """Deterministic stream of (candidate k-colouring, proven) pairs worth
    verifying. proven marks the spider colouring, which is distinguishing by
    construction; it is yielded unverified, so the caller's one verification
    doubles as its check."""
    edges = g.edges
    if g.n == 0:
        return
    if k >= 2:
        # spanning-tree probe: BFS tree red, everything else green
        parent: dict[int, int] = {}
        dist = distances_from(g, 0)
        for v in sorted(dist, key=lambda v: (dist[v], v)):
            for w in sorted(g.neighbours(v)):
                if w not in parent and w != 0 and dist[w] == dist[v] + 1:
                    parent[w] = v
        tree = {edge(v, w) for w, v in parent.items()}
        yield EdgeColouring.on_graph(g, [RED if e in tree else GREEN for e in edges]), False

        if g.n >= 7:
            pathv = hamiltonian_path(g)
            if pathv is not None:
                try:
                    yield _spider_colouring(g, pathv), True
                except ChordlessPathError:
                    pass

        rng = random.Random(0x5EED ^ (g.n * 2_654_435_761 + g.edge_count * 97 + k))
        palette = PALETTE[:k]
        for _ in range(_PROBE_TRIES):
            yield EdgeColouring.on_graph(g, [rng.choice(palette) for _ in edges]), False


# -- exhaustive enumeration ----------------------------------------------------


class _Budget:
    __slots__ = ("left",)

    def __init__(self, amount: int):
        self.left = amount

    def spend(self) -> None:
        self.left -= 1
        if self.left < 0:
            raise BudgetExceededError("colouring enumeration budget exhausted")


def _edge_row(g: Graph, p: Permutation) -> tuple[int, ...]:
    """The automorphism p as the permutation it induces on edge indices:
    row[i] is the index of the image of g.edges[i]."""
    index = {e: i for i, e in enumerate(g.edges)}
    return tuple(index[p.edge_image(e)] for e in g.edges)


def _preserved(cols: Sequence[str], killers: list[tuple[int, ...]]) -> bool:
    """Whether some killer preserves the colours cols (cols[i] on edge i).
    The killer that does moves to the front: recent killers go first."""
    m = len(cols)
    for idx, row in enumerate(killers):
        if all(cols[i] == cols[row[i]] for i in range(m)):
            if idx:
                killers.insert(0, killers.pop(idx))
            return True
    return False


def _distinguishing(
    g: Graph, cols: Sequence[str], killers: list[tuple[int, ...]]
) -> Optional[EdgeColouring]:
    """The colouring of g with cols[i] on edge i if it is distinguishing,
    else None. A killer that preserves it rejects it without a search;
    otherwise the verifier decides, and the witness of a rejection joins
    the killers, first."""
    if _preserved(cols, killers):
        return None
    c = EdgeColouring.on_graph(g, cols)
    w = _breaker(g, c)
    if w is None:
        return c
    killers.insert(0, _edge_row(g, w))
    return None


def _meets_blue_rule(g: Graph, c: EdgeColouring) -> bool:
    """search_colouring's star constraint: at most one vertex sees only
    blue, none at all on a complete graph."""
    return satisfies_blue_rule(g, c, g.n >= 2 and g.edge_count == g.n * (g.n - 1) // 2)


def _exhaustive_witness(
    g: Graph, k: int, budget: _Budget, star: bool, killers: list[tuple[int, ...]]
) -> Optional[EdgeColouring]:
    """Scan k-colourings in lexicographic order over the sorted edge list,
    the first edge red only. Let c be distinguishing and, under the blue
    rule (star), meet it, and O be the Aut(G)-orbit of edge 0. If c colours
    some f in O red or green, c composed with an automorphism taking edge 0
    to f, red and green swapped if need be, is such a colouring with edge 0
    red. Otherwise O is all blue; recolour it red. A map preserving the new
    colouring maps O onto O, so it preserves c and is the identity, and the
    all-blue vertices only shrink. So the red block, first in the scan of
    every first colour, holds a witness whenever one exists.

    Each colouring is decided as a probe is, by _distinguishing: the scan
    starts from the given killers, and each colouring the verifier rejects
    adds its witness to them."""
    m = g.edge_count
    palette = PALETTE[:k]
    for cols in itertools.product(*([(RED,)] + [palette] * (m - 1))[:m]):
        budget.spend()
        c = _distinguishing(g, cols, killers)
        if c is not None and (not star or _meets_blue_rule(g, c)):
            return c
    return None


def _witness(
    g: Graph,
    k: int,
    budget: _Budget,
    star: bool = False,
    killers: Optional[list[tuple[int, ...]]] = None,
) -> Optional[EdgeColouring]:
    """The first probe that is distinguishing (and, under star, meets the
    blue rule), else the exhaustive scan's answer.

    killers holds the edge-index forms of nontrivial automorphisms found so
    far in this call, and gains the witness of every probe whose search
    fails. A probe a killer preserves is rejected without a search, so the
    probes accepted and the answer are those of verifying every probe."""
    killers = [] if killers is None else killers
    total = k ** g.edge_count  # k-colourings of the edges
    # on small graphs the random probes repeat; a verdict never changes. A
    # proven probe is checked even when an equal probe was rejected before.
    rejected: set[EdgeColouring] = set()
    for cand, proven in _probe_candidates(g, k):
        if cand in rejected and not proven:
            continue
        if _distinguishing(g, [col for _, col in cand.items()], killers) is not None:
            if not star or _meets_blue_rule(g, cand):
                return cand
        elif proven:
            raise RuntimeError("spider colouring failed verification")
        rejected.add(cand)
        if len(rejected) == total:
            break  # every k-colouring is rejected: no later probe can succeed
    return _exhaustive_witness(g, k, budget, star, killers)


# -- the index -----------------------------------------------------------------


def distinguishing_index_with_witness(
    g: Graph, max_colours: int = 3, budget: int = DEFAULT_BUDGET
):
    """(index, witness colouring) or (NOT_DISTINGUISHABLE, None)."""
    if not is_connected(g):
        raise ValueError("distinguishing index computed for connected graphs only")
    if g.n == 0:
        raise ValueError("empty graph")
    if not 1 <= max_colours <= len(PALETTE):
        raise ValueError(f"max_colours must be between 1 and {len(PALETTE)}")
    if g.n == 2:
        # the endpoint swap fixes the single edge, whatever its colour
        return NOT_DISTINGUISHABLE, None
    tracker = _Budget(budget)
    symmetry = find_automorphism(g, AutConstraint(nontrivial_on=frozenset(range(g.n))))
    if symmetry is None:
        return 1, EdgeColouring.on_graph(g, [RED] * g.edge_count)
    killers = [_edge_row(g, symmetry)]  # shared by every k
    for k in range(2, max_colours + 1):
        w = _witness(g, k, tracker, killers=killers)
        if w is not None:
            return k, w
    raise MaxColoursExceededError(
        f"no distinguishing colouring with at most {max_colours} colours"
    )


def distinguishing_index(g: Graph, max_colours: int = 3, budget: int = DEFAULT_BUDGET):
    """Least number of colours admitting a distinguishing edge colouring,
    or NOT_DISTINGUISHABLE (single-edge graph only)."""
    value, _ = distinguishing_index_with_witness(g, max_colours, budget)
    return value


def search_colouring(
    g: Graph,
    k: int,
    star_constraint: bool = False,
    budget: int = DEFAULT_BUDGET,
) -> Optional[EdgeColouring]:
    """A distinguishing k-colouring, optionally constrained so that at most
    one vertex (none on complete graphs) sees only blue. None when the
    exhaustive search proves there is no such colouring."""
    if k not in (1, 2, 3):
        raise ValueError("palette size must be 1, 2 or 3")
    return _witness(g, k, _Budget(budget), star_constraint)


# -- conjecture scan -------------------------------------------------------------


def _known_exception_templates() -> list[Graph]:
    return [
        complete(2),
        cycle(3),
        cycle(4),
        cycle(5),
        complete(4),
        complete(5),
        complete_bipartite(3, 3),
    ]


def _scan_one(g: Graph | dict, max_n: int, budget: int, with_witness: bool) -> dict:
    if isinstance(g, dict):  # a finished row keeps its place unchanged
        return g
    row: dict = {
        "graph6": serialize_graph6(g),
        "n": g.n,
        "degree": regularity(g),
    }
    if g.n == 0:
        row.update(dprime=None, status="error", error="empty graph")
        return row
    if g.n > max_n:
        row.update(dprime=None, status="skipped_too_large")
        return row
    if not is_connected(g):
        row.update(dprime=None, status="skipped_disconnected")
        return row
    if row["degree"] is None:
        row.update(dprime=None, status="skipped_not_regular")
        return row
    try:
        value, witness = distinguishing_index_with_witness(g, budget=budget)
    except SizeGuardError:  # above the search guard, whatever max_n allows
        row.update(dprime=None, status="skipped_too_large")
        return row
    except BudgetExceededError:
        row.update(dprime=None, status="budget_exceeded")
        return row
    except MaxColoursExceededError:
        row.update(dprime=">3", status="unexpected_exception")
        return row
    if value is NOT_DISTINGUISHABLE:
        row["dprime"] = "not_distinguishable"
    else:
        row["dprime"] = value
        if with_witness and witness is not None:
            row["witness_colouring"] = witness.to_json()
    exceptional = value is NOT_DISTINGUISHABLE or (isinstance(value, int) and value > 2)
    if not exceptional:
        row["status"] = "ok"
    elif any(is_isomorphic(g, t) for t in _known_exception_templates()):
        row["status"] = "known_exception"
    else:
        row["status"] = "unexpected_exception"
    return row


# Graphs per task of the scan pool. With one graph per task the round trips
# cost more than a second worker saves on the 222-graph corpus; chunks of
# 16, 28 and 111 time alike there.
_SCAN_CHUNK = 16


def scan_rows(
    corpus: Iterable[Graph | dict],
    max_n: int = 10,
    budget: int = DEFAULT_BUDGET,
    with_witness: bool = False,
    jobs: int = 1,
) -> Iterator[dict]:
    """The row of each item of the corpus, in input order, each yielded as
    soon as its item and every item before it are done. An item is a Graph,
    which is scanned, or a finished row (a dict, such as the CLI's row for a
    malformed input line), which is yielded unchanged in its place. The
    corpus is read once, lazily, so it may be a one-shot iterator.

    jobs > 1 scans in a process pool, _SCAN_CHUNK items per task, with the
    rows put back in input order, finished rows included. The pool gets no
    more workers than there are items or cores that the process may run on:
    its CPU affinity where the platform reports it (taskset and cpusets
    narrow it), else the host's core count. So the first min(jobs, cores)
    items are drawn first, and a pool of as many workers starts only if two
    or more arrived; otherwise the items are scanned in-process, one at a
    time. Closing the generator stops the pool's workers. The pool sends a
    task only once it is full or the corpus ends, so a slow corpus yields
    no row before then; in-process, each row comes as its item is read."""
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    scan = functools.partial(
        _scan_one, max_n=max_n, budget=budget, with_witness=with_witness
    )
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    graphs = iter(corpus)
    head = list(itertools.islice(graphs, min(jobs, cores or 1)))
    graphs = itertools.chain(head, graphs)
    if len(head) < 2:
        yield from map(scan, graphs)
        return
    import multiprocessing

    with multiprocessing.Pool(len(head)) as pool:
        yield from pool.imap(scan, graphs, chunksize=_SCAN_CHUNK)


def scan_conjecture(
    corpus: Iterable[Graph],
    max_n: int = 10,
    budget: int = DEFAULT_BUDGET,
    with_witness: bool = False,
    jobs: int = 1,
) -> list[dict]:
    """Distinguishing indices across a corpus; flags every graph that needs
    more than two colours. The expected flagged set at this scale is the
    single-edge graph, the 3-, 4- and 5-cycles, the complete graphs on 4 and
    5 vertices, and the 3,3 complete bipartite graph.

    Returns scan_rows' rows, in input order, once the last graph is
    scanned; jobs > 1 scans in a process pool of min(jobs, graphs, cores)
    workers, as scan_rows describes."""
    return list(scan_rows(corpus, max_n, budget, with_witness, jobs))
