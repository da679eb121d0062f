"""Edge colourings over the palette {red, green, blue}."""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable, Iterator, Mapping, Optional, Sequence

from .graph import Edge, Graph, edge

RED = "red"
GREEN = "green"
BLUE = "blue"
PALETTE = (RED, GREEN, BLUE)


class ColouringError(ValueError):
    pass


_CODE = {col: i for i, col in enumerate(PALETTE)}


def _encode(colours: Sequence[str]) -> bytes:
    try:
        return bytes([_CODE[col] for col in colours])
    except KeyError as exc:
        raise ColouringError(f"unknown colour {exc.args[0]!r}") from None


class EdgeColouring:
    """Total or partial assignment of palette colours to edges.

    Stored compactly and immutable: the coloured edges in ascending canonical
    order and one palette index per edge. A colouring made by on_graph shares
    the graph's edge tuple, so it costs one byte per edge.
    """

    __slots__ = ("edges", "_codes")

    def __init__(self, assignment: Mapping[Edge, str] | Iterable[tuple[Edge, str]] = ()):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        colour_of: dict[Edge, str] = {}
        for e, col in items:
            if col not in PALETTE:
                raise ColouringError(f"unknown colour {col!r}")
            u, v = e
            # keep an edge tuple that is already canonical instead of a copy
            colour_of[e if type(e) is tuple and u < v else edge(u, v)] = col
        self.edges: tuple[Edge, ...] = tuple(sorted(colour_of))
        self._codes = _encode([colour_of[e] for e in self.edges])

    @classmethod
    def on_graph(cls, g: Graph, colours: Sequence[str]) -> "EdgeColouring":
        """Every edge of g coloured, colours[i] on g.edges[i]."""
        if len(colours) != g.edge_count:
            raise ColouringError(f"{len(colours)} colours for {g.edge_count} edges")
        c = cls.__new__(cls)
        c.edges = g.edges
        c._codes = _encode(colours)
        return c

    @property
    def assignment(self) -> dict[Edge, str]:
        """A new dict from each coloured edge to its colour."""
        return dict(self.items())

    def items(self) -> Iterator[tuple[Edge, str]]:
        """(edge, colour) pairs in ascending edge order."""
        return zip(self.edges, map(PALETTE.__getitem__, self._codes))

    def _index(self, e: Edge) -> int:
        e = edge(*e)
        i = bisect_left(self.edges, e)
        return i if i < len(self.edges) and self.edges[i] == e else -1

    def get(self, e: Edge, default: Optional[str] = None) -> Optional[str]:
        i = self._index(e)
        return default if i < 0 else PALETTE[self._codes[i]]

    def __getitem__(self, e: Edge) -> str:
        i = self._index(e)
        if i < 0:
            raise KeyError(edge(*e))
        return PALETTE[self._codes[i]]

    def __contains__(self, e: Edge) -> bool:
        return self._index(e) >= 0

    def __len__(self) -> int:
        return len(self.edges)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, EdgeColouring)
            and self.edges == other.edges
            and self._codes == other._codes
        )

    def __hash__(self) -> int:
        return hash(self._codes)

    def __repr__(self) -> str:
        return f"EdgeColouring({len(self)} edges, {sorted(self.colours_used())})"

    def colours_used(self) -> set[str]:
        return {PALETTE[i] for i in set(self._codes)}

    def is_total(self, g: Graph) -> bool:
        return self.edges is g.edges or set(g.edges) <= set(self.edges)

    def check_domain(self, g: Graph) -> None:
        if self.edges is g.edges:
            return
        for e in self.edges:
            if not g.has_edge(*e):
                raise ColouringError(f"colouring references non-edge {e}")

    def to_json(self) -> list[dict]:
        return [{"u": u, "v": v, "colour": col} for (u, v), col in self.items()]

    @classmethod
    def from_json(cls, rows: Iterable[Mapping]) -> "EdgeColouring":
        return cls({(int(r["u"]), int(r["v"])): str(r["colour"]) for r in rows})


def all_blue_vertices(g: Graph, c: EdgeColouring | Mapping[Edge, str]) -> list[int]:
    """Vertices of positive degree whose incident edges are all blue."""
    n = g.n
    blue = [0] * n  # blue neighbours of each vertex, as bitmasks
    for (u, v), col in c.items():
        if col == BLUE and 0 <= u < n and 0 <= v < n:
            blue[u] |= 1 << v
            blue[v] |= 1 << u
    out = []
    for v in g.vertices():
        nb = g.adjacency_mask(v)
        if nb and nb & blue[v] == nb:
            out.append(v)
    return out


def satisfies_blue_rule(g: Graph, c: EdgeColouring, is_complete: bool) -> bool:
    """At most one vertex sees only blue; none at all on complete graphs."""
    blue = all_blue_vertices(g, c)
    return len(blue) == 0 if is_complete else len(blue) <= 1
