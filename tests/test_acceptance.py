"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
"""

import hashlib
import json
import math
import random
import time

import pytest

from edgesym.catalog import connected_regular_upto
from edgesym.colouring import EdgeColouring, satisfies_blue_rule
from edgesym.distinguishing import (
    NOT_DISTINGUISHABLE,
    MaxColoursExceededError,
    _spider_colouring,
    distinguishing_index,
    is_distinguishing,
    scan_conjecture,
)
from edgesym.aut import find_automorphism, is_isomorphic
from edgesym.graph import (
    Graph,
    circulant,
    complete,
    complete_bipartite,
    cycle,
    is_connected,
    petersen,
    random_regular,
    regularity,
    serialize_graph6,
)
from edgesym.layered import (
    NotColourableError,
    assign_decorations,
    check_step_properties,
    colour_horizontal,
    colour_regular,
    initial_colouring,
)

from oracles import (
    all_connected_graphs_upto,
    constraint_holds_naive,
    distinguishing_index_brute,
    find_automorphism_brute,
    random_constraint,
)


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


@pytest.fixture(scope="module")
def corpus_upto_10():
    return connected_regular_upto(10)


def test_criterion_1_three_colour_theorem_desk_scale(corpus_upto_10):
    t0 = time.time()
    coloured = 0
    failures = []
    for g in corpus_upto_10:
        if g.n == 2:
            try:
                colour_regular(g, verify=True)
                failures.append("single edge was coloured")
            except NotColourableError:
                pass
            continue
        try:
            c = colour_regular(g, verify=True)
            deg = regularity(g)
            complete_graph = g.n >= 2 and deg == g.n - 1
            if not is_distinguishing(g, c):
                failures.append(f"{serialize_graph6(g)}: not distinguishing")
            if len(c.colours_used()) > 3:
                failures.append(f"{serialize_graph6(g)}: too many colours")
            if not satisfies_blue_rule(g, c, complete_graph):
                failures.append(f"{serialize_graph6(g)}: blue rule broken")
            coloured += 1
        except Exception as exc:  # noqa: BLE001 - report, then fail
            failures.append(f"{serialize_graph6(g)}: {exc!r}")
    elapsed = time.time() - t0
    _report(
        1,
        not failures and elapsed < 600,
        f"{coloured} connected regular graphs (n<=10) coloured and verified "
        f"in {elapsed:.1f}s; failures: {failures[:3]}",
    )


def test_criterion_2_cited_exact_values():
    checks = []

    def expect(g, value, label):
        got = distinguishing_index(g)
        checks.append((label, got, value, got == value))

    expect(complete(6), 2, "K6")
    expect(complete(7), 2, "K7")
    for n in (3, 4, 5):
        expect(cycle(n), 3, f"C{n}")
    for n in range(6, 13):
        expect(cycle(n), 2, f"C{n}")
    expect(complete_bipartite(2, 4), 3, "K24")
    expect(complete_bipartite(4, 4), 2, "K44")
    got_k2 = distinguishing_index(complete(2))
    checks.append(("K2", got_k2, NOT_DISTINGUISHABLE, got_k2 is NOT_DISTINGUISHABLE))
    bad = [(l, g, e) for l, g, e, ok in checks if not ok]
    _report(2, not bad, f"{len(checks)} cited values reproduced exactly; mismatches: {bad}")


def test_criterion_3_conjecture_scan_exception_set(corpus_upto_10):
    rows = scan_conjecture(corpus_upto_10, max_n=10)
    flagged = [r for r in rows if r["status"].endswith("exception")]
    expected = [
        ("K2", complete(2)),
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("K33", complete_bipartite(3, 3)),
    ]
    matched = set()
    stray = []
    for row in flagged:
        from edgesym.graph import parse_graph6

        g = parse_graph6(row["graph6"])
        hits = [name for name, t in expected if is_isomorphic(g, t)]
        if len(hits) == 1:
            matched.add(hits[0])
        else:
            stray.append(row["graph6"])
    ok = (
        len(flagged) == len(expected)
        and matched == {name for name, _ in expected}
        and not stray
        and all(r["status"] == "known_exception" for r in flagged)
    )
    _report(
        3,
        ok,
        f"scan over {len(rows)} graphs flags exactly "
        f"{sorted(matched)}; stray: {stray}",
    )


def test_criterion_4_hamiltonian_construction():
    bad = []
    for n in range(7, 11):
        g = complete(n)
        c = _spider_colouring(g, list(range(n)))
        if len(c.colours_used()) != 2 or not is_distinguishing(g, c):
            bad.append(n)
    _report(4, not bad, f"spanning-spider 2-colourings verified for K7..K10; bad: {bad}")


def test_criterion_5_step_properties_and_decoration_supply(corpus_upto_10):
    violations = []
    supply_failures = []
    checked_steps = 0
    supply_points = 0
    for g in corpus_upto_10:
        deg = regularity(g)
        if g.n <= 2 or deg == 2 or deg == g.n - 1:
            continue  # cycle and complete-graph branches have no layer steps
        state = initial_colouring(g, 0)
        bad = check_step_properties(state, 0)
        if bad:
            violations.append((serialize_graph6(g), 0, bad))
        for i in range(1, state.layering.count):
            state.colouring.written.clear()
            colour_horizontal(state, i, verify=True)
            assign_decorations(state, i)
            checked_steps += 1
            bad = check_step_properties(state, i)
            if bad:
                violations.append((serialize_graph6(g), i, bad))
        if deg >= 5:
            for entry in state.audit:
                for deco in entry["decorations"]:
                    supply_points += 1
                    if deco["asymmetric"] < deco["orbit_size"]:
                        supply_failures.append((serialize_graph6(g), entry["layer"]))
    ok = not violations and not supply_failures
    _report(
        5,
        ok,
        f"{checked_steps} layer steps clean; decoration supply >= orbit demand at "
        f"{supply_points} degree>=5 points; violations: {violations[:2]}"
        f" supply failures: {supply_failures[:2]}",
    )


def _production_index_label(g):
    try:
        v = distinguishing_index(g, max_colours=3)
    except MaxColoursExceededError:
        return ">3"
    if v is NOT_DISTINGUISHABLE:
        return "not_distinguishable"
    return v


def test_criterion_6_oracle_equivalence():
    # exact index agreement against unpruned enumeration
    graphs = all_connected_graphs_upto(5)
    graphs += [
        cycle(6),
        cycle(7),
        complete(6),
        complete(7),
        complete_bipartite(3, 3),
        complete_bipartite(2, 4),
        complete_bipartite(1, 5),
        complete_bipartite(2, 5),
        complete_bipartite(3, 4),
        Graph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        Graph(7, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 0), (0, 2)]),
    ]
    rng = random.Random(616)
    while sum(1 for g in graphs if g.n in (6, 7)) < 40:
        n = rng.choice((6, 7))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.4])
        if is_connected(g):
            graphs.append(g)
    index_mismatches = []
    for g in graphs:
        got = _production_index_label(g)
        want = distinguishing_index_brute(g, max_colours=3)
        if got != want:
            index_mismatches.append((serialize_graph6(g), got, want))

    # witness-or-absence agreement on 200 randomised constrained queries
    rng = random.Random(2717)
    query_mismatches = []
    for _ in range(200):
        n = rng.randint(4, 7)
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        g = Graph(n, [e for e in pairs if rng.random() < 0.5])
        c = random_constraint(g, rng)
        got = find_automorphism(g, c)
        brute = find_automorphism_brute(g, c.normalised())
        if (got is None) != (brute is None):
            query_mismatches.append((serialize_graph6(g), c))
        elif got is not None and not constraint_holds_naive(g, c.normalised(), got.images):
            query_mismatches.append((serialize_graph6(g), "unsound witness"))
    ok = not index_mismatches and not query_mismatches
    _report(
        6,
        ok,
        f"index agreement on {len(graphs)} graphs (n<=7) and 200 constraint "
        f"queries vs full enumeration; mismatches: "
        f"{(index_mismatches + query_mismatches)[:3]}",
    )


def _strict_sample():
    """Cubic and quartic graphs beyond the n <= 10 corpus: connected 2-step
    circulants on 11..20 vertices, prisms on 12..30 vertices, Q4 and
    connected random regular graphs on 12..24 vertices (seeds 100..104)."""
    sample = []
    for n in range(11, 21):
        for a in range(1, n // 2 + 1):
            for b in range(a + 1, n // 2 + 1):
                if math.gcd(a, b, n) == 1:
                    sample.append(circulant(n, [a, b]))
    for m in range(6, 16):
        ring = [(i, (i + 1) % m) for i in range(m)]
        sample.append(Graph(2 * m, ring + [(u + m, v + m) for u, v in ring]
                            + [(i, i + m) for i in range(m)]))
    sample.append(Graph(16, [(v, v ^ bit) for v in range(16) for bit in (1, 2, 4, 8)]))
    for d in (3, 4):
        for n in range(12, 25):
            if n * d % 2 == 0:
                for seed in range(100, 105):
                    g = random_regular(n, d, seed)
                    if is_connected(g):
                        sample.append(g)
    return sample


# SHA-256 over json.dumps([c.to_json(), audit], sort_keys=True) of each
# _strict_sample() graph's colouring, in sample order
STRICT_SAMPLE_SHA256 = "3c8ef5179e38fc51bc53eba1ebe3428051d9d8d708f1e97dc9343dc13deb8541"


def test_criterion_7_strict_success(corpus_upto_10):
    corpus = [g for g in corpus_upto_10 if regularity(g) in (3, 4)]
    sample = _strict_sample()
    distinct = {(g.n, tuple(sorted(g.edges))) for g in sample}
    total_layers = 0
    failures = []
    digest = hashlib.sha256()
    for k, g in enumerate(corpus + sample):
        audit = []
        try:
            c = colour_regular(g, verify=True, audit=audit)
        except Exception as exc:  # noqa: BLE001 - report, then fail
            failures.append(f"{serialize_graph6(g)}: {exc!r}")
            continue
        if k >= len(corpus):
            digest.update(json.dumps([c.to_json(), audit], sort_keys=True).encode())
        if not is_distinguishing(g, c):
            failures.append(f"{serialize_graph6(g)}: not distinguishing")
        total_layers += sum(1 for a in audit if a.get("layer") not in (None, 0))
    _report(
        7,
        not failures and len(sample) == len(distinct) == 332
        and digest.hexdigest() == STRICT_SAMPLE_SHA256,
        f"degree 3 and 4: {len(corpus)} corpus graphs and {len(distinct)} generated "
        f"graphs coloured by the single construction over {total_layers} layers, "
        f"every run verified, generated outputs hashing to "
        f"{digest.hexdigest()[:8]}; failures: {failures[:3]}",
    )
