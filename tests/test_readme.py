"""README states the bounds and the query fields the code has."""

import dataclasses
import re
from pathlib import Path

from edgesym import aut, graph

README = Path(__file__).resolve().parents[1] / "README.md"


def _size_limits() -> dict[int, str]:
    """The table's rows as {n bound: where it applies}."""
    section = README.read_text().split("\n## Size limits\n", 1)[1].split("\n## ", 1)[0]
    rows = [line.split("|")[1:3] for line in section.splitlines() if line.startswith("| n ≤ ")]
    return {int(bound.removeprefix(" n ≤ ")): where for bound, where in rows}


def test_readme_size_limits_match_the_code():
    limits = _size_limits()
    assert sorted(limits) == sorted([graph._G6_MAX_N, aut._MAX_SEARCH_N])
    assert "graph6" in limits[graph._G6_MAX_N]
    assert "SizeGuardError" in limits[aut._MAX_SEARCH_N]


def test_readme_constraint_fields_match_the_code():
    # "`AutConstraint` has four fields: `pinned` (...), ... and `nontrivial_on` (...)."
    sentence = README.read_text().split("`AutConstraint` has ", 1)[1].split(").", 1)[0]
    count, listed = sentence.split(" fields: ", 1)
    named = re.findall(r"`(\w+)` \(", listed)
    assert named == [f.name for f in dataclasses.fields(aut.AutConstraint)]
    assert count == ("one", "two", "three", "four", "five", "six")[len(named) - 1]
