"""Edge colourings over the palette {red, green, blue}."""

from __future__ import annotations

from collections import Counter
from typing import Iterable, Mapping, Optional

from .graph import Edge, Graph, edge

RED = "red"
GREEN = "green"
BLUE = "blue"
PALETTE = (RED, GREEN, BLUE)


class ColouringError(ValueError):
    pass


class EdgeColouring:
    """Total or partial assignment of palette colours to edges."""

    __slots__ = ("assignment",)

    def __init__(self, assignment: Mapping[Edge, str] | Iterable[tuple[Edge, str]] = ()):
        items = assignment.items() if isinstance(assignment, Mapping) else assignment
        self.assignment: dict[Edge, str] = {}
        for e, col in items:
            if col not in PALETTE:
                raise ColouringError(f"unknown colour {col!r}")
            u, v = e
            # keep an edge tuple that is already canonical instead of a copy
            self.assignment[e if type(e) is tuple and u < v else edge(u, v)] = col

    def get(self, e: Edge, default: Optional[str] = None) -> Optional[str]:
        return self.assignment.get(edge(*e), default)

    def __getitem__(self, e: Edge) -> str:
        return self.assignment[edge(*e)]

    def __contains__(self, e: Edge) -> bool:
        return edge(*e) in self.assignment

    def __len__(self) -> int:
        return len(self.assignment)

    def __eq__(self, other) -> bool:
        return isinstance(other, EdgeColouring) and self.assignment == other.assignment

    def __repr__(self) -> str:
        return f"EdgeColouring({len(self.assignment)} edges, {sorted(self.colours_used())})"

    def copy(self) -> "EdgeColouring":
        return EdgeColouring(dict(self.assignment))

    def colours_used(self) -> set[str]:
        return set(self.assignment.values())

    def colour_counts(self) -> Counter:
        return Counter(self.assignment.values())

    def is_total(self, g: Graph) -> bool:
        return all(e in self.assignment for e in g.edges)

    def check_domain(self, g: Graph) -> None:
        for e in self.assignment:
            if not g.has_edge(*e):
                raise ColouringError(f"colouring references non-edge {e}")

    def to_json(self) -> list[dict]:
        return [
            {"u": u, "v": v, "colour": col}
            for (u, v), col in sorted(self.assignment.items())
        ]

    @classmethod
    def from_json(cls, rows: Iterable[Mapping]) -> "EdgeColouring":
        return cls({(int(r["u"]), int(r["v"])): str(r["colour"]) for r in rows})


def all_blue_vertices(g: Graph, c: EdgeColouring) -> list[int]:
    """Vertices of positive degree whose incident edges are all blue."""
    out = []
    for v in g.vertices():
        nb = g.neighbours(v)
        if nb and all(c.get(edge(v, w)) == BLUE for w in nb):
            out.append(v)
    return out


def satisfies_blue_rule(g: Graph, c: EdgeColouring, is_complete: bool) -> bool:
    """At most one vertex sees only blue; none at all on complete graphs."""
    blue = all_blue_vertices(g, c)
    return len(blue) == 0 if is_complete else len(blue) <= 1
