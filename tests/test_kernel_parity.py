import random

import pytest

from edgesym import _kernel_py
from edgesym.aut import AutConstraint, find_automorphism
from edgesym.graph import Graph, petersen, random_regular

try:
    from edgesym import _kernel_c
except ImportError:
    _kernel_c = None

needs_c = pytest.mark.skipif(_kernel_c is None, reason="compiled kernel not built")


def _random_query(rng):
    n = rng.randint(1, 9)
    labels = rng.randint(1, 4)
    src = [0] * (n * n)
    dst = [0] * (n * n)
    for u in range(n):
        for v in range(u + 1, n):
            a = rng.randrange(labels)
            b = rng.randrange(labels)
            src[u * n + v] = src[v * n + u] = a
            dst[u * n + v] = dst[v * n + u] = b
    if rng.random() < 0.5:
        dst = list(src)  # automorphism-style query
    allowed = []
    for v in range(n):
        m = (1 << n) - 1
        if rng.random() < 0.3:
            m = 0
            for w in rng.sample(range(n), rng.randint(1, n)):
                m |= 1 << w
        allowed.append(m)
    return n, src, dst, allowed


@needs_c
def test_kernels_identical_on_random_queries():
    rng = random.Random(424242)
    for _ in range(400):
        n, src, dst, allowed = _random_query(rng)
        assert _kernel_py.search_mapping(
            _kernel_py.prepare(n, src, dst), allowed
        ) == _kernel_c.search_mapping(_kernel_c.prepare(n, src, dst), allowed)


@needs_c
def test_kernels_identical_on_structured_queries():
    graphs = [petersen(), random_regular(12, 3, seed=4), random_regular(10, 4, seed=9)]
    for g in graphs:
        n = g.n
        src = [0] * (n * n)
        for u, v in g.edges:
            src[u * n + v] = src[v * n + u] = 1
        full = [(1 << n) - 1] * n
        assert _kernel_py.search_mapping(
            _kernel_py.prepare(n, src, src), full
        ) == _kernel_c.search_mapping(_kernel_c.prepare(n, src, src), full)


@needs_c
def test_backend_env_selection(monkeypatch):
    import importlib

    import edgesym.kernel as K

    monkeypatch.setenv("EDGESYM_KERNEL", "py")
    mod = importlib.reload(K)
    assert mod.BACKEND == "python"
    monkeypatch.setenv("EDGESYM_KERNEL", "c")
    mod = importlib.reload(K)
    assert mod.BACKEND == "c"
    monkeypatch.delenv("EDGESYM_KERNEL")
    importlib.reload(K)


def test_prepared_query_reused_across_searches():
    # one prepared query searched with many masks answers, call for call,
    # exactly what a fresh prepare per search answers
    rng = random.Random(171717)
    outcomes = set()
    for _ in range(150):
        n, src, dst, allowed = _random_query(rng)
        query = _kernel_py.prepare(n, src, dst)
        for _ in range(8):
            masks = [m & rng.getrandbits(n) | m & (1 << rng.randrange(n)) for m in allowed]
            if rng.random() < 0.3:
                masks = list(allowed)
            fresh = _kernel_py.search_mapping(_kernel_py.prepare(n, src, dst), masks)
            assert _kernel_py.search_mapping(query, masks) == fresh
            outcomes.add(fresh is None)
    assert outcomes == {True, False}  # both found and refused searches were compared


def test_engine_consistency_via_public_api():
    # the higher-level engine must not depend on which kernel answered
    g = petersen()
    w = find_automorphism(g, AutConstraint(pinned={0: 3}))
    assert w is not None and w(0) == 3
