"""The benchmark's tracer (perfbench/spans.py) still finds every function
it times or probes, so a rename fails here rather than in a benchmark run."""

import sys
from pathlib import Path

from stabletrop import cycles, polyhedra, stable
from stabletrop.polyhedra import Polyhedron

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
import spans  # noqa: E402


def tropical_line():
    rays = [(1, 0), (0, 1), (-1, -1)]
    return cycles.cycle(2, [(Polyhedron.cone_from_rays(2, [r]), 1) for r in rays])


def test_tracer_binds_every_timed_and_probed_name():
    original = polyhedra.refine_cells
    t = tropical_line()
    with spans.Tracer() as tracer:
        assert cycles.is_balanced(t)[0]
        stable.stable_intersection_report(t, t)
    assert polyhedra.refine_cells is original
    missing = (set(spans.TIMED) | set(spans.PROBES)) - set(tracer.names)
    assert not missing
    stats = spans.span_stats(tracer)
    assert stats["polyhedra.refine_cells"][0] >= 1
    assert tracer.counters["polyhedra.refine_cells.pieces_out"] >= 3
    assert tracer.counters["stable.result_facets"] == 1
