"""The benchmark's correctness references, read only: the library must
reproduce the canonical documents of the Q^5 scenario (perfbench/q5),
pass the `q5-check` checks on them, and reproduce the answers of a
`volumes` round (perfbench/volume_answers.json), so a wrong answer fails
here rather than first in a benchmark run."""

import json
import sys
from fractions import Fraction
from pathlib import Path

from stabletrop import documents
from stabletrop.connectivity import (
    disconnection_scenario,
    is_connected_through_codim1,
    supports_meet_only_at_origin,
)
from stabletrop.cycles import is_balanced
from stabletrop.polytopes import mixed_volume, normalized_volume, polytope

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import problems  # noqa: E402


def test_q5_documents_match_the_references():
    scenario = disconnection_scenario()
    for name in ("t1", "t2", "slice1", "slice2", "union"):
        text = documents.dumps(documents.cycle_to_document(getattr(scenario, name)))
        assert text.encode("utf-8") == (PERFBENCH / "q5" / f"{name}.json").read_bytes(), name


def test_q5_checks_hold_on_the_references():
    # the four checks of the q5-check workload, on cycles loaded from the
    # documents, whose cells keep the generators they were written with
    c = {
        name: documents.document_to_cycle(documents.loads((PERFBENCH / "q5" / f"{name}.json").read_text()))
        for name in ("t1", "slice1", "slice2")
    }
    assert is_balanced(c["slice1"])[0] is True
    assert is_connected_through_codim1(c["slice1"]) is True
    assert is_connected_through_codim1(c["t1"]) is True
    assert supports_meet_only_at_origin(c["slice1"], c["slice2"]) is True


def test_volumes_round_matches_the_answers():
    answers = [Fraction(a) for a in json.loads((PERFBENCH / "volume_answers.json").read_text())]
    for number, kind, dim, bodies in problems.make_round(1):
        polys = [polytope(dim, b) for b in bodies]
        got = normalized_volume(polys[0]) if kind == "volume" else mixed_volume(polys)
        assert got == answers[number], (number, kind, dim)
