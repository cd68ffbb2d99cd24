"""End-to-end command line tests driving main() in process."""

import hashlib
import json
from pathlib import Path

from stabletrop import documents
from stabletrop.cli import main
from stabletrop.cycles import cycle, cycles_equal
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import cube, standard_simplex, tropical_hypersurface
from stabletrop.stable import stable_intersection


def write(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(documents.dumps(obj), encoding="utf-8")
    return str(path)


def tropical_line_doc():
    return {
        "ambient_dim": 2,
        "rays": [[-1, -1], [0, 1], [1, 0]],
        "lineality": [],
        "cones": [
            {"rays": [0], "mult": "1"},
            {"rays": [1], "mult": "1"},
            {"rays": [2], "mult": "1"},
        ],
    }


def ambient_doc():
    return {
        "ambient_dim": 2,
        "rays": [],
        "lineality": [[1, 0], [0, 1]],
        "cones": [{"rays": [], "mult": "1"}],
    }


def simplex_doc():
    return {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1]]}


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_hypersurface_is_deterministic(tmp_path, capsys):
    p = write(tmp_path, "simplex.json", simplex_doc())
    code, out, err = run(capsys, ["hypersurface", p])
    assert code == 0 and err == ""
    assert json.loads(out) == tropical_line_doc()
    code2, out2, _ = run(capsys, ["hypersurface", p])
    assert code2 == 0 and out2 == out


def test_stable_intersect_self_with_all_flags(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    code, out, err = run(
        capsys,
        ["stable-intersect", t, t, "--explain", "--oracle", "--integer-only"],
    )
    assert code == 0, err
    payload = json.loads(out)
    assert payload["result"]["cones"] == [{"rays": [], "mult": "1"}]
    (term,) = payload["terms"]
    assert term["sign"] == 1
    assert term["generic_vector"]["vector"] == ["1", "2"]
    (facet,) = term["facets"]
    assert facet["multiplicity"] == "1"
    assert sum(json.loads(p["term"]) for p in facet["pairs"]) == 1


def test_oracle_accepts_zero_results(tmp_path, capsys):
    # two rays in Q^3 (expected dimension -1) and the zero cycle times a
    # line: the perturbation route agrees on the zero cycle, so --oracle
    # leaves the run as it is
    def ray(v):
        return {"ambient_dim": 3, "rays": [v], "lineality": [], "cones": [{"rays": [0], "mult": "1"}]}

    zero = {"ambient_dim": 2, "rays": [], "lineality": [], "cones": []}
    cases = [
        (ray([1, 0, 0]), ray([0, 1, 0])),
        (zero, tropical_line_doc()),
    ]
    for a, b in cases:
        x, y = write(tmp_path, "x.json", a), write(tmp_path, "y.json", b)
        plain = run(capsys, ["stable-intersect", x, y])
        assert plain[0] == 0 and json.loads(plain[1])["cones"] == []
        assert run(capsys, ["stable-intersect", x, y, "--oracle"]) == plain


def test_stable_intersect_with_ambient_echoes_input(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    a = write(tmp_path, "ambient.json", ambient_doc())
    code, out, _ = run(capsys, ["stable-intersect", t, a])
    assert code == 0
    parsed = documents.document_to_cycle(json.loads(out))
    original = documents.document_to_cycle(tropical_line_doc())
    assert cycles_equal(parsed, original)


def test_stable_intersect_in_q1(tmp_path, capsys):
    fan = {
        "ambient_dim": 1,
        "rays": [[1], [-1]],
        "lineality": [],
        "cones": [{"rays": [0], "mult": "1"}, {"rays": [1], "mult": "1"}],
    }
    cell = {"ambient_dim": 1, "rays": [], "lineality": [[1]], "cones": [{"rays": [], "mult": "2"}]}
    f, c = write(tmp_path, "fan.json", fan), write(tmp_path, "cell.json", cell)
    rays = {"ambient_dim": 1, "rays": [[-1], [1]], "lineality": []}
    for x, y, m in [(f, f, "1"), (f, c, "2"), (c, f, "2")]:
        code, out, err = run(capsys, ["stable-intersect", x, y])
        assert (code, err) == (0, "")
        assert json.loads(out) == {**rays, "cones": [{"mult": m, "rays": [0]}, {"mult": m, "rays": [1]}]}
    code, out, _ = run(capsys, ["stable-intersect", c, c])
    assert code == 0 and json.loads(out) == {**cell, "cones": [{"rays": [], "mult": "4"}]}


def test_mixed_volume_of_two_simplices_is_one(tmp_path, capsys):
    p = write(tmp_path, "simplex.json", simplex_doc())
    code, out, _ = run(capsys, ["mixed-volume", p, p])
    assert code == 0 and out == "1\n"


def test_volume_commands(tmp_path, capsys):
    p = write(tmp_path, "simplex.json", simplex_doc())
    square = write(
        tmp_path,
        "square.json",
        {"ambient_dim": 2, "vertices": [[0, 0], [1, 0], [0, 1], [1, 1]]},
    )
    assert run(capsys, ["volume", p]) == (0, "1\n", "")
    assert run(capsys, ["volume", square]) == (0, "2\n", "")


def test_power_command(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    code, out, _ = run(capsys, ["power", t, "2"])
    assert code == 0
    assert json.loads(out)["cones"] == [{"rays": [], "mult": "1"}]
    # the product is zero from k = 3 on, so a huge k returns at once
    code, out, err = run(capsys, ["power", t, str(10**12)])
    assert code == 0 and err == ""
    assert json.loads(out) == {"ambient_dim": 2, "cones": [], "lineality": [], "rays": []}


def test_power_command_in_codimension_zero(tmp_path, capsys):
    # a top-dimensional power raises the weights, so a huge k returns at once
    for mult in ("1", "-1"):
        doc = dict(ambient_doc(), cones=[{"rays": [], "mult": mult}])
        code, out, err = run(capsys, ["power", write(tmp_path, "plane.json", doc), str(10**12)])
        assert code == 0 and err == ""
        assert json.loads(out) == ambient_doc()
    # 2^14284 has 4300 digits and is written; longer weights are refused
    doc = dict(ambient_doc(), cones=[{"rays": [], "mult": "2"}])
    doubled = write(tmp_path, "doubled.json", doc)
    code, out, err = run(capsys, ["power", doubled, "14284"])
    assert code == 0 and err == ""
    assert len(json.loads(out)["cones"][0]["mult"]) == 4300
    for k in (14285, 20000, 10**12):
        code, out, err = run(capsys, ["power", doubled, str(k)])
        assert code == 3 and out == "" and json.loads(err)["error"] == "validation"


def test_results_too_long_to_write_exit_3(tmp_path, capsys):
    # each line weighs 10^3000, so their crossing point weighs 10^6000
    def line(direction, mult):
        rays = sorted([list(direction), [-a for a in direction]])
        cones = [{"rays": [0, 1], "mult": mult}]
        return {"ambient_dim": 2, "rays": rays, "lineality": [], "cones": cones}

    big = 10**3000
    x = write(tmp_path, "x.json", line((1, 0), str(big)))
    y = write(tmp_path, "y.json", line((0, 1), str(big)))
    for extra in ([], ["--explain"]):
        code, out, err = run(capsys, ["stable-intersect", x, y] + extra)
        assert code == 3 and out == "" and json.loads(err)["error"] == "validation"
    # two planes of Q^3 whose lineality vectors have 3001 digits meet in a
    # line whose primitive direction has 6001
    planes = []
    for i, lin in enumerate([[[1, 0, 0], [0, 1, big + 1]], [[0, 1, 0], [1, 0, big]]]):
        doc = {"ambient_dim": 3, "rays": [], "lineality": lin}
        doc["cones"] = [{"rays": [], "mult": "1"}]
        planes.append(write(tmp_path, f"plane{i}.json", doc))
    code, out, err = run(capsys, ["stable-intersect"] + planes)
    assert code == 3 and out == "" and json.loads(err)["error"] == "validation"
    # two weights of 4300 digits are written, their sum of 4301 is not
    longest = write(tmp_path, "longest.json", line((1, 0), "9" * 4300))
    code, out, err = run(capsys, ["cycle-sum", longest, longest])
    assert code == 3 and out == "" and json.loads(err)["error"] == "validation"
    other = write(tmp_path, "other.json", line((0, 1), "1"))
    code, out, err = run(capsys, ["cycle-sum", longest, other])
    assert code == 0 and err == ""


def test_check_balanced_exit_codes(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    code, out, _ = run(capsys, ["check-balanced", t])
    assert code == 0 and json.loads(out)["balanced"] is True
    lonely = dict(tropical_line_doc(), cones=[{"rays": [2], "mult": "1"}])
    bad = write(tmp_path, "ray.json", lonely)
    code, out, err = run(capsys, ["check-balanced", bad])
    assert code == 3 and json.loads(out)["balanced"] is False and err == ""


def test_parse_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    code, out, err = run(capsys, ["check-balanced", str(bad)])
    assert code == 2 and out == "" and json.loads(err)["error"] == "parse"
    floaty = tmp_path / "floaty.json"
    floaty.write_text('{"ambient_dim": 2.0}', encoding="utf-8")
    assert run(capsys, ["check-balanced", str(floaty)])[0] == 2
    assert run(capsys, ["check-balanced", str(tmp_path / "missing.json")])[0] == 2
    # an integer too long for Python to convert is malformed, not a crash
    huge = tmp_path / "huge.json"
    huge.write_text(
        '{"ambient_dim": 2, "rays": [], "lineality": [[1%s, 0]], '
        '"cones": [{"rays": [], "mult": "1"}]}' % ("0" * 4999),
        encoding="utf-8",
    )
    code, out, err = run(capsys, ["check-balanced", str(huge)])
    assert code == 2 and out == "" and json.loads(err)["error"] == "parse"


def test_numbers_outside_the_grammar_exit_2(tmp_path, capsys):
    # only "p" and "p/q" strings are numbers; a decimal point or an
    # exponent is malformed, and "1e1000000000" is not expanded
    for text in ("1.5", "1e3", "1e1000000000"):
        vertex = write(tmp_path, "vertex.json", {"ambient_dim": 2, "vertices": [[0, 0], [text, 0], [0, 1]]})
        cone = {"rays": [0], "mult": text}
        mult = write(tmp_path, "mult.json", dict(tropical_line_doc(), cones=[cone]))
        for argv in (["volume", vertex], ["check-balanced", mult]):
            code, out, err = run(capsys, argv)
            assert code == 2 and out == "" and json.loads(err)["error"] == "parse"


def test_rejected_numbers_are_quoted_briefly(tmp_path, capsys):
    # a multiplicity string of a million digits, and a JSON float literal
    # "1." followed by a million zeros: the message quotes a prefix and
    # the length, not the whole number
    digits = dict(tropical_line_doc(), cones=[{"rays": [0], "mult": "1" * 10**6}])
    literal = documents.dumps(tropical_line_doc()).replace('"1"', "1." + "0" * 10**6, 1)
    for k, (text, length) in enumerate([(documents.dumps(digits), 10**6), (literal, 10**6 + 2)]):
        path = tmp_path / f"long{k}.json"
        path.write_text(text, encoding="utf-8")
        code, out, err = run(capsys, ["check-balanced", str(path)])
        assert code == 2 and out == "" and json.loads(err)["error"] == "parse"
        assert len(err.encode()) < 1024 and f"({length} characters)" in err


def test_unknown_keys_are_quoted_briefly(tmp_path, capsys):
    # one extra key of a million characters: the message quotes a prefix
    # of it, its length and the number of unknown keys
    path = write(tmp_path, "key.json", dict(tropical_line_doc(), **{"k" * 10**6: 1}))
    code, out, err = run(capsys, ["check-balanced", path])
    assert code == 2 and out == "" and json.loads(err)["error"] == "parse"
    assert len(err.encode()) < 1024 and "1 unknown cycle document key(s)" in err
    assert f"({10**6} characters)" in err


def test_non_primitive_rays_and_duplicate_cones_are_named_by_index(tmp_path, capsys):
    # a non-primitive ray of 200,000 entries, and a cone of 10,000 rays
    # given twice: the message names the ray or the cone by its index, so
    # stderr stays short however long the entry is
    n = 2 * 10**5
    ray = {"ambient_dim": n, "rays": [[2] * n], "lineality": [], "cones": [{"rays": [0], "mult": "1"}]}
    rays = [[1, k] for k in range(10**4)]
    cone = {"rays": list(range(10**4)), "mult": "1"}
    cones = {"ambient_dim": 2, "rays": rays, "lineality": [], "cones": [cone, cone]}
    cases = (("ray", ray, "ray 0 is not primitive"), ("cone", cones, "duplicate cone: cone 1 "))
    for name, doc, message in cases:
        code, out, err = run(capsys, ["check-balanced", write(tmp_path, f"{name}.json", doc)])
        assert code == 2 and out == "" and json.loads(err)["error"] == "parse"
        assert len(err.encode()) < 1024 and message in err


def test_deeply_nested_documents_exit_2(tmp_path, capsys):
    # a document nested 1000 deep, about 2 KB of "[" ... "]" or of
    # {"a": ... }, is beyond the JSON parser's recursion: malformed input
    # that exits 2 with a short message, not an uncaught RecursionError
    depth = 1000
    shapes = {"list": "[" * depth + "]" * depth, "object": '{"a":' * depth + "1" + "}" * depth}
    for name, text in shapes.items():
        path = tmp_path / f"{name}.json"
        path.write_text(text, encoding="utf-8")
        for command in ("volume", "check-balanced"):
            code, out, err = run(capsys, [command, str(path)])
            assert code == 2 and out == "" and json.loads(err)["error"] == "parse"
            assert len(err.encode()) < 1024 and "Traceback" not in err


def test_dimension_mismatch_exits_4(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    three = write(
        tmp_path,
        "ray3.json",
        {
            "ambient_dim": 3,
            "rays": [[1, 0, 0]],
            "lineality": [],
            "cones": [{"rays": [0], "mult": "1"}],
        },
    )
    code, _, err = run(capsys, ["cycle-sum", t, three])
    assert code == 4 and json.loads(err)["error"] == "dimension"


def test_integer_only_rejects_fractional_weights(tmp_path, capsys):
    halves = dict(
        tropical_line_doc(),
        cones=[
            {"rays": [0], "mult": "1/2"},
            {"rays": [1], "mult": "1/2"},
            {"rays": [2], "mult": "1/2"},
        ],
    )
    t = write(tmp_path, "halves.json", halves)
    code, _, err = run(capsys, ["stable-intersect", t, t, "--integer-only"])
    assert code == 3 and json.loads(err)["error"] == "validation"
    assert run(capsys, ["stable-intersect", t, t])[0] == 0


def test_pushforward_command(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    m = write(tmp_path, "proj.json", {"rows": [[1, 0]]})
    code, out, _ = run(capsys, ["pushforward", m, t])
    assert code == 0
    doc = json.loads(out)
    assert doc["ambient_dim"] == 1 and doc["rays"] == [[-1], [1]]
    assert [c["mult"] for c in doc["cones"]] == ["1", "1"]


def test_cycle_sum_command(tmp_path, capsys):
    t = write(tmp_path, "line.json", tropical_line_doc())
    code, out, _ = run(capsys, ["cycle-sum", t, t])
    assert code == 0
    assert [c["mult"] for c in json.loads(out)["cones"]] == ["2", "2", "2"]


def test_connectivity_command(tmp_path, capsys):
    quadrants = write(
        tmp_path,
        "quadrants.json",
        {
            "ambient_dim": 2,
            "rays": [[-1, 0], [0, -1], [0, 1], [1, 0]],
            "lineality": [],
            "cones": [
                {"rays": [2, 3], "mult": "1"},
                {"rays": [0, 1], "mult": "1"},
            ],
        },
    )
    code, out, _ = run(capsys, ["connectivity", quadrants])
    assert code == 0
    report = json.loads(out)
    assert report["connected_through_codim1"] is False
    assert report["component_count"] == 2
    assert report["component_cell_counts"] == [1, 1]


Q5 = Path(__file__).resolve().parents[1] / "perfbench" / "q5"


def test_connectivity_of_the_q5_references_is_pinned(capsys):
    # the sum of the two slices splits into the 16 cells of slice2, which
    # holds the first cell, and the 10 of slice1; the rest are connected
    pinned = {
        "t1": ([20], "5f54281e26e23024cff280f79873641ba59e9a1033ba5cf1f7a313152205a55c"),
        "t2": ([20], "5f54281e26e23024cff280f79873641ba59e9a1033ba5cf1f7a313152205a55c"),
        "slice1": ([10], "a66ae7538064a1fd12a74b65a80d438b34b857318361c1ad09992eff390f14ba"),
        "slice2": ([16], "89ddebc46c2d747c29b728dcfb30a9e284050f3a09e85c67be8d80ff9e906eec"),
        "union": ([16, 10], "f6a9a016633a9d1dd824a6bb5bba4a9bf848ec70a30433b13af9b902cc9b6430"),
    }
    for name, (counts, digest) in pinned.items():
        code, out, err = run(capsys, ["connectivity", str(Q5 / f"{name}.json")])
        assert (code, err) == (0, "")
        assert json.loads(out)["component_cell_counts"] == counts
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest, name


def test_disconnect_demo_output_is_pinned(capsys):
    code, out, err = run(capsys, ["disconnect-demo"])
    assert (code, err) == (0, "")
    assert json.loads(out) == {
        "ambient_dim": 5,
        "disconnected": True,
        "slice_cell_counts": [10, 16],
        "slices_balanced": [True, True],
        "slices_meet_only_at_origin": True,
        "square1_connected": True,
        "square2_connected": True,
        "union_component_count": 2,
    }
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == "0df8d5b52262a6ce3231fba93b769ab00a9370e6bc6289c4bcf787831abe203a"


def test_decompose_command(tmp_path, capsys):
    fan = write(
        tmp_path,
        "axes.json",
        {
            "ambient_dim": 2,
            "rays": [[-1, 0], [0, -1], [0, 1], [1, 0]],
            "lineality": [],
            "cones": [
                {"rays": [0], "mult": "1"},
                {"rays": [1], "mult": "1"},
                {"rays": [2], "mult": "1"},
                {"rays": [3], "mult": "1"},
            ],
        },
    )
    square = cycle(
        2,
        [
            (Polyhedron.cone_from_rays(2, [d]), 1)
            for d in [(1, 0), (-1, 0), (0, 1), (0, -1)]
        ],
    )
    z = write(tmp_path, "square.json", documents.cycle_to_document(square))
    code, out, _ = run(capsys, ["decompose", z, fan])
    assert code == 0
    report = json.loads(out)
    assert report["basis_size"] == 2 and report["degree"] == 1
    assert sorted(t["powers"] for t in report["terms"]) == [[0, 1], [1, 0]]
    assert {t["coefficient"] for t in report["terms"]} == {"1"}


def test_decompose_in_q3_over_a_refined_fan(tmp_path, capsys):
    # the fan is the common refinement of the hypersurfaces of the simplex
    # and the cube, the hypersurface of their Minkowski sum, and z is their
    # stable product; the report is pinned byte for byte, so the quotient
    # coordinates chosen at its ridges do not reach the basis weights
    s3, c3 = standard_simplex(3), cube(3)
    fan = write(tmp_path, "fan.json", documents.cycle_to_document(tropical_hypersurface(s3.minkowski(c3))))
    z = stable_intersection(tropical_hypersurface(s3), tropical_hypersurface(c3))
    code, out, err = run(capsys, ["decompose", write(tmp_path, "z.json", documents.cycle_to_document(z)), fan])
    weights = [
        "000220220222202222222",
        "000000000001101010100",
        "222002112100020001232",
        "000110000010000100001",
    ]
    terms = [("-1/8", [2, 0, 0, 0]), ("1/4", [1, 1, 0, 0]), ("1/4", [1, 0, 1, 0]), ("1/4", [1, 0, 0, 1])]
    expected = {
        "basis_size": 4,
        "basis_weights": [list(w) for w in weights],
        "degree": 2,
        "terms": [{"coefficient": c, "powers": p} for c, p in terms],
    }
    assert (code, err) == (0, "")
    assert out == json.dumps(expected, indent=2, sort_keys=True) + "\n"
    code, out, err = run(capsys, ["check-balanced", fan])
    assert (code, err) == (0, "")
    assert json.loads(out) == {"ambient_dim": 3, "balanced": True, "cells": 21, "dim": 2, "unbalanced_ridges": 0}


def test_adversarial_corpus_ends_as_documented(tmp_path, capsys):
    # malformed, degenerate and extreme documents through every command
    # that reads them: each ends with a documented exit code (0, 2, 3, 4
    # or 5), a short stderr and no traceback
    line = tropical_line_doc()
    point = {"rays": [], "lineality": [], "cones": [{"rays": [], "mult": "1"}]}
    big = str(10**3999)
    nested = {"list": "[" * 1000 + "]" * 1000, "object": '{"a":' * 1000 + "1" + "}" * 1000}
    cycles = {
        "dim_zero": dict(point, ambient_dim=0),
        "dim_negative": dict(point, ambient_dim=-1),
        "dim_true": dict(point, ambient_dim=True),
        "index_out_of_range": dict(line, cones=[{"rays": [3], "mult": "1"}]),
        "index_negative": dict(line, cones=[{"rays": [-1], "mult": "1"}]),
        "zero_mult": dict(line, cones=[{"rays": [0], "mult": "0"}]),
        "zero_ray": dict(line, rays=[[0, 0], [0, 1], [1, 0]]),
        "zero_lineality": dict(line, lineality=[[0, 0]]),
        "duplicate_cones": dict(line, cones=line["cones"] + line["cones"][:1]),
        "long_ray": dict(line, rays=[[-1, "-" + big], [1, big]], cones=[{"rays": [0, 1], "mult": "1"}]),
        "long_lineality": dict(point, ambient_dim=2, lineality=[[1, big]]),
        "long_denominator": dict(line, cones=[dict(c, mult="1/" + big) for c in line["cones"]]),
        "long_mult": dict(line, cones=[dict(c, mult=big) for c in line["cones"]]),
    }
    polytopes = {
        "dim_zero": {"ambient_dim": 0, "vertices": [[]]},
        "dim_negative": {"ambient_dim": -1, "vertices": [[0]]},
        "dim_true": {"ambient_dim": True, "vertices": [[0], [1]]},
        "ragged": {"ambient_dim": 2, "vertices": [[0, 0], [1], [0, 1]]},
        "no_vertices": {"ambient_dim": 2, "vertices": []},
        "long_coordinate": {"ambient_dim": 2, "vertices": [[0, 0], [big, 0], [0, 1]]},
        "long_denominator": {"ambient_dim": 2, "vertices": [[0, 0], ["1/" + big, 0], [0, 1]]},
    }
    matrices = {
        "non_integer": {"rows": [["1/2", 0], [0, 1]]},
        "no_rows": {"rows": []},
        "empty_rows": {"rows": [[], []]},
        "zero": {"rows": [[0, 0], [0, 0]]},
        "ragged": {"rows": [[1], [0, 1]]},
    }
    paths = lambda kind, docs: [write(tmp_path, f"{kind}_{k}.json", doc) for k, doc in docs.items()]
    nests = []
    for k, text in nested.items():
        (tmp_path / f"nested_{k}.json").write_text(text, encoding="utf-8")
        nests.append(str(tmp_path / f"nested_{k}.json"))
    t = write(tmp_path, "line.json", line)
    simplex = write(tmp_path, "simplex.json", simplex_doc())
    identity = write(tmp_path, "identity.json", {"rows": [[1, 0], [0, 1]]})
    classical = write(tmp_path, "classical.json", dict(point, ambient_dim=2, lineality=[[1, 1]]))
    cases = []
    for c in paths("cycle", cycles) + nests:
        cases += [["check-balanced", c], ["connectivity", c], ["power", c, "2"], ["cycle-sum", c, c]]
        cases += [["stable-intersect", c, t, "--explain", "--oracle"], ["pushforward", identity, c], ["decompose", c, t]]
    for p in paths("polytope", polytopes) + nests:
        cases += [["volume", p], ["hypersurface", p], ["mixed-volume", p, simplex]]
    cases += [["pushforward", m, t] for m in paths("matrix", matrices) + nests]
    cases += [["power", c, k] for c in (t, classical, write(tmp_path, "q2.json", ambient_doc())) for k in ("-1", str(10**20))]
    for argv in cases:
        code, out, err = run(capsys, argv)
        assert code in (0, 2, 3, 4, 5), argv
        assert len(err.encode()) < 1024 and "Traceback" not in err, argv
        assert err == "" or json.loads(err)["error"] in ("parse", "validation", "dimension"), argv
