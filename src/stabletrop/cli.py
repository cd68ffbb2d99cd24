"""Command line driver for exact tropical cycle operations.

Commands read and write the JSON documents described in docs/formats.md.
Success prints the result document (or a bare rational) to stdout and
exits 0. Failures print one JSON object to stderr with an error category
and exit 2 (parse), 3 (validation), 4 (dimension mismatch), or
5 (internal).
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction

from stabletrop import documents
from stabletrop.algebra import build_hypersurface_basis, decompose_into_powers
from stabletrop.connectivity import (
    connected_components,
    disconnection_scenario,
    is_connected_through_codim1,
    supports_meet_only_at_origin,
)
from stabletrop.cycles import cycle_sum, cycles_equal, is_balanced, pushforward
from stabletrop.errors import (
    DimensionError,
    GenericityError,
    ParseError,
    StableTropError,
    ValidationError,
)
from stabletrop.polytopes import mixed_volume, normalized_volume, tropical_hypersurface
from stabletrop.stable import (
    perturbation_intersection,
    stable_intersection_report,
    stable_power,
)

EXIT_PARSE = 2
EXIT_VALIDATION = 3
EXIT_DIMENSION = 4
EXIT_INTERNAL = 5


def _read_text(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}") from None


def _load_cycle(path: str):
    return documents.document_to_cycle(documents.loads(_read_text(path)))


def _load_polytope(path: str):
    return documents.document_to_polytope(documents.loads(_read_text(path)))


def _require_integer_weights(x, label: str):
    for m in x.multiplicities:
        if Fraction(m).denominator != 1:
            raise ValidationError(f"{label} has non-integer multiplicity {m}")


def cmd_check_balanced(args):
    x = _load_cycle(args.file)
    ok, failures = is_balanced(x)
    report = {
        "balanced": ok,
        "ambient_dim": x.ambient_dim,
        "dim": x.dim,
        "cells": len(x.cells),
        "unbalanced_ridges": len(failures),
    }
    return documents.dumps(report), 0 if ok else EXIT_VALIDATION


def _generic_to_json(gen):
    return {
        "vector": [documents.number_text(a) for a in gen.vector],
        "prime": gen.prime,
        "spans_avoided": gen.spans_avoided,
    }


def _explain_to_json(report):
    terms = []
    for term in report.terms:
        facets = []
        for cell, mult, contribs in zip(
            term.result.cells, term.result.multiplicities, term.contributions
        ):
            facets.append(
                {
                    "witness_point": [documents.number_text(a) for a in cell.interior_point()],
                    "multiplicity": documents.number_text(mult),
                    "pairs": [
                        {
                            "x_cell": c.x_cell,
                            "y_cell": c.y_cell,
                            "index": documents.number_text(c.index),
                            "term": documents.number_text(c.term),
                        }
                        for c in contribs
                    ],
                }
            )
        terms.append(
            {
                "sign": term.sign,
                "generic_vector": _generic_to_json(term.generic),
                "result": documents.cycle_to_document(term.result),
                "facets": facets,
            }
        )
    return terms


def cmd_stable_intersect(args):
    x = _load_cycle(args.x)
    y = _load_cycle(args.y)
    if args.integer_only:
        _require_integer_weights(x, "first input")
        _require_integer_weights(y, "second input")
    report = stable_intersection_report(x, y)
    z = report.result
    if args.integer_only:
        _require_integer_weights(z, "result")
    if args.oracle:
        oracle = perturbation_intersection(x, y)
        if not cycles_equal(oracle.limit, z):
            raise StableTropError("perturbation oracle disagrees with the displacement rule")
    out = documents.cycle_to_document(z)
    if args.explain:
        out = {"result": out, "terms": _explain_to_json(report)}
    return documents.dumps(out), 0


def cmd_hypersurface(args):
    p = _load_polytope(args.polytope)
    return documents.dumps(documents.cycle_to_document(tropical_hypersurface(p))), 0


def cmd_power(args):
    x = _load_cycle(args.file)
    z = stable_power(x, args.k)
    return documents.dumps(documents.cycle_to_document(z)), 0


def cmd_volume(args):
    p = _load_polytope(args.polytope)
    return documents.number_text(normalized_volume(p)) + "\n", 0


def cmd_mixed_volume(args):
    polys = [_load_polytope(path) for path in args.polytopes]
    return documents.number_text(mixed_volume(polys)) + "\n", 0


def cmd_pushforward(args):
    matrix = documents.document_to_matrix(documents.loads(_read_text(args.matrix)))
    x = _load_cycle(args.file)
    return documents.dumps(documents.cycle_to_document(pushforward(matrix, x))), 0


def cmd_cycle_sum(args):
    x = _load_cycle(args.x)
    y = _load_cycle(args.y)
    return documents.dumps(documents.cycle_to_document(cycle_sum(x, y))), 0


def cmd_connectivity(args):
    x = _load_cycle(args.file)
    comps = connected_components(x)
    report = {
        "connected_through_codim1": len(comps) <= 1,
        "component_count": len(comps),
        "component_cell_counts": [len(c.cells) for c in comps],
    }
    return documents.dumps(report), 0


def cmd_decompose(args):
    z = _load_cycle(args.file)
    fan = _load_cycle(args.fan)
    basis = build_hypersurface_basis(fan.ambient_dim, list(fan.cells))
    coeffs = decompose_into_powers(z, basis.cycles())
    m = len(basis.vectors)
    terms = []
    for combo, coeff in sorted(coeffs.items()):
        powers = [0] * m
        for idx in combo:
            powers[idx] += 1
        terms.append({"powers": powers, "coefficient": documents.number_text(coeff)})
    report = {
        "basis_size": m,
        "basis_weights": [[documents.number_text(a) for a in vec] for vec in basis.vectors],
        "degree": z.ambient_dim - z.dim if not z.is_zero else None,
        "terms": terms,
    }
    return documents.dumps(report), 0


def cmd_disconnect_demo(args):
    sc = disconnection_scenario()
    comps = connected_components(sc.union)
    report = {
        "ambient_dim": 5,
        "square1_connected": is_connected_through_codim1(sc.t1),
        "square2_connected": is_connected_through_codim1(sc.t2),
        "slice_cell_counts": [len(sc.slice1.cells), len(sc.slice2.cells)],
        "slices_balanced": [is_balanced(sc.slice1)[0], is_balanced(sc.slice2)[0]],
        "slices_meet_only_at_origin": supports_meet_only_at_origin(sc.slice1, sc.slice2),
        "union_component_count": len(comps),
        "disconnected": len(comps) > 1,
    }
    return documents.dumps(report), 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="stabletrop",
        description="Exact stable intersection of tropical cycles and its consequences.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check-balanced", help="verify the balancing condition of a cycle")
    p.add_argument("file")
    p.set_defaults(func=cmd_check_balanced)

    p = sub.add_parser("stable-intersect", help="stable intersection of two cycles")
    p.add_argument("x")
    p.add_argument("y")
    p.add_argument("--explain", action="store_true", help="include per-facet contributions")
    p.add_argument(
        "--oracle",
        action="store_true",
        help="cross-check against the perturbation limit (fans with positive weights)",
    )
    p.add_argument(
        "--integer-only",
        action="store_true",
        help="reject non-integer multiplicities in inputs and output",
    )
    p.set_defaults(func=cmd_stable_intersect)

    p = sub.add_parser("hypersurface", help="tropical hypersurface of a polytope")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_hypersurface)

    p = sub.add_parser("power", help="k-fold stable self-intersection")
    p.add_argument("file")
    p.add_argument("k", type=int)
    p.set_defaults(func=cmd_power)

    p = sub.add_parser("volume", help="normalized lattice volume of a polytope")
    p.add_argument("polytope")
    p.set_defaults(func=cmd_volume)

    p = sub.add_parser("mixed-volume", help="mixed volume of n polytopes in dimension n")
    p.add_argument("polytopes", nargs="+")
    p.set_defaults(func=cmd_mixed_volume)

    p = sub.add_parser("pushforward", help="image cycle under an integer linear map")
    p.add_argument("matrix")
    p.add_argument("file")
    p.set_defaults(func=cmd_pushforward)

    p = sub.add_parser("cycle-sum", help="sum of two cycles of equal dimension")
    p.add_argument("x")
    p.add_argument("y")
    p.set_defaults(func=cmd_cycle_sum)

    p = sub.add_parser("connectivity", help="components of a cycle through codimension one")
    p.add_argument("file")
    p.set_defaults(func=cmd_connectivity)

    p = sub.add_parser(
        "decompose",
        help="write a cycle as stable products of fan hypersurface basis elements",
    )
    p.add_argument("file")
    p.add_argument("fan")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser(
        "disconnect-demo",
        help="run the five-dimensional scenario where connectedness is lost",
    )
    p.set_defaults(func=cmd_disconnect_demo)

    return parser


def _fail(category: str, exc: Exception, code: int) -> int:
    sys.stderr.write(documents.dumps({"error": category, "message": str(exc)}))
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        out, code = args.func(args)
    except ParseError as exc:
        return _fail("parse", exc, EXIT_PARSE)
    except DimensionError as exc:
        return _fail("dimension", exc, EXIT_DIMENSION)
    except ValidationError as exc:
        return _fail("validation", exc, EXIT_VALIDATION)
    except GenericityError as exc:
        return _fail("genericity", exc, EXIT_INTERNAL)
    except StableTropError as exc:
        return _fail("internal", exc, EXIT_INTERNAL)
    sys.stdout.write(out)
    return code


if __name__ == "__main__":
    sys.exit(main())
