"""The benchmark's correctness references, read only: the library must
reproduce the canonical documents of the Q^5 scenario (perfbench/q5) and
the answers of a `volumes` round (perfbench/volume_answers.json), so a
wrong answer fails here rather than first in a benchmark run."""

import json
import sys
from fractions import Fraction
from pathlib import Path

from stabletrop import documents
from stabletrop.connectivity import disconnection_scenario
from stabletrop.polytopes import mixed_volume, normalized_volume, polytope

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
sys.path.insert(0, str(PERFBENCH))
import problems  # noqa: E402


def test_q5_documents_match_the_references():
    scenario = disconnection_scenario()
    for name in ("t1", "t2", "slice1", "slice2", "union"):
        text = documents.dumps(documents.cycle_to_document(getattr(scenario, name)))
        assert text.encode("utf-8") == (PERFBENCH / "q5" / f"{name}.json").read_bytes(), name


def test_volumes_round_matches_the_answers():
    answers = [Fraction(a) for a in json.loads((PERFBENCH / "volume_answers.json").read_text())]
    for number, kind, dim, bodies in problems.make_round(1):
        polys = [polytope(dim, b) for b in bodies]
        got = normalized_volume(polys[0]) if kind == "volume" else mixed_volume(polys)
        assert got == answers[number], (number, kind, dim)
