"""Property tests for cross-module invariants."""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from edgesym.aut import (
    AutConstraint,
    automorphism_generators,
    carrier,
    find_automorphism,
    stabiliser_generators,
    vertex_orbits,
)
from edgesym.catalog import connected_regular_upto
from edgesym.distinguishing import (
    NOT_DISTINGUISHABLE,
    distinguishing_index,
    is_distinguishing,
    search_colouring,
)
from edgesym.graph import Graph, is_connected

from oracles import automorphisms_by_backtracking, constraint_holds_naive


def _random_graph(data, max_n=8):
    n = data.draw(st.integers(min_value=1, max_value=max_n))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    chosen = data.draw(st.sets(st.sampled_from(pairs))) if pairs else set()
    return Graph(n, chosen)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_orbits_partition_and_closure(data):
    g = _random_graph(data)
    gens = automorphism_generators(g)
    orbits = vertex_orbits(g, gens)
    seen = [v for o in orbits for v in o]
    assert sorted(seen) == list(range(g.n))  # disjoint cover
    for orbit in orbits:
        members = set(orbit)
        for p in gens:
            assert {p(v) for v in members} == members or {p(v) for v in members} <= set(
                seen
            )
            assert all(_orbit_of(v, orbits) == _orbit_of(p(v), orbits) for v in members)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_carrier_finds_a_group_element_exactly_when_one_exists(data):
    # against every automorphism by backtracking: the full group, or the
    # stabiliser of a vertex r
    g = _random_graph(data, max_n=7)
    group = automorphisms_by_backtracking(g)
    gens = automorphism_generators(g)
    if data.draw(st.booleans()):
        r = data.draw(st.integers(min_value=0, max_value=g.n - 1))
        gens = stabiliser_generators(g, r)
        group = [p for p in group if p[r] == r]
    source = data.draw(st.integers(min_value=0, max_value=g.n - 1))
    targets = data.draw(st.sets(st.integers(min_value=0, max_value=g.n - 1)))
    t = carrier(g, gens, source, targets)
    if t is None:
        assert not any(p[source] in targets for p in group)
    else:
        assert t.images in group and t(source) in targets
        assert t.images == tuple(range(g.n)) or source not in targets  # the walk stops at source


def _orbit_of(v, orbits):
    for i, o in enumerate(orbits):
        if v in o:
            return i
    raise AssertionError


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_witness_soundness(data):
    g = _random_graph(data, max_n=7)
    rng = random.Random(data.draw(st.integers(min_value=0, max_value=10**6)))
    from oracles import random_constraint

    c = random_constraint(g, rng)
    w = find_automorphism(g, c)
    if w is not None:
        assert constraint_holds_naive(g, c.normalised(), w.images)


@settings(max_examples=25, deadline=None)
@given(st.data())
def test_search_colouring_witness_always_verifies(data):
    g = _random_graph(data, max_n=7)
    if not is_connected(g) or g.n < 2:
        return
    k = data.draw(st.integers(min_value=1, max_value=3))
    c = search_colouring(g, k)
    if c is not None:
        assert is_distinguishing(g, c)
        assert len(c.colours_used()) <= k


def test_not_distinguishable_exactly_single_edge_over_corpus():
    for g in connected_regular_upto(8):
        value = distinguishing_index(g)
        assert (value is NOT_DISTINGUISHABLE) == (g.n == 2)
