"""JSON interchange documents for fan cycles, polytopes, and integer maps.

Numbers cross the process boundary as JSON integers or exact "p/q"
strings; floats are rejected outright. Serialization is canonical, so
identical objects always produce byte-identical text, and parsing a
serialized document returns an equal object.

A cycle document describes a weighted fan: a shared lineality space,
a pool of primitive rays, and cones given as ray-index sets. Cells with
lineality beyond the shared space are written with opposite ray pairs,
which span the same cone.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from stabletrop.cycles import TropicalCycle, cycle, zero_cycle
from stabletrop.errors import ParseError, ValidationError
from stabletrop.lattices import int_rank, rational_to_primitive
from stabletrop.polyhedra import Polyhedron
from stabletrop.polytopes import RationalPolytope, polytope
from stabletrop.stable import MAX_DIGITS, TOO_LONG

CYCLE_KEYS = {"ambient_dim", "rays", "lineality", "cones"}
POLYTOPE_KEYS = {"ambient_dim", "vertices"}
MATRIX_KEYS = {"rows"}
# the only rational strings: "p" or "p/q", ASCII digits, no exponent
_RATIONAL = re.compile(r"(-?[0-9]+)(?:/([0-9]+))?")
# how much of a rejected number an error message quotes
_QUOTED = 40


def _quoted(text: str) -> str:
    """repr of text, or of its first _QUOTED characters and its length, so a
    message stays short however long the rejected input is."""
    if len(text) <= _QUOTED:
        return repr(text)
    return f"{text[:_QUOTED]!r}... ({len(text)} characters)"


def _reject_float(text):
    raise ParseError(f"floating point literal {_quoted(text)}; use integers or 'p/q' strings")


def loads(text: str) -> dict:
    """Parse JSON text, rejecting floats; returns the raw object."""
    try:
        return json.loads(text, parse_float=_reject_float, parse_constant=_reject_float)
    except ValueError as exc:  # JSONDecodeError, or an integer too long to convert
        raise ParseError(f"invalid JSON: {exc}") from None
    except RecursionError:  # arrays or objects nested deeper than the parser goes
        raise ParseError("invalid JSON: nested too deeply") from None


def dumps(doc) -> str:
    """Canonical text form: sorted keys, two-space indent, final newline."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _writable(a):
    """a itself; a numerator or denominator of more than MAX_DIGITS digits
    cannot be written as text and is refused."""
    q = Fraction(a)
    if abs(q.numerator) >= TOO_LONG or q.denominator >= TOO_LONG:
        raise ValidationError(f"a number of more than {MAX_DIGITS} digits cannot be written")
    return a


def number_text(a) -> str:
    """Exact text of a rational, "p/q" or "p" (refused if not `_writable`)."""
    return str(Fraction(_writable(a)))


def _expect(cond: bool, message: str):
    if not cond:
        raise ParseError(message)


def _plain_int(a) -> bool:
    return isinstance(a, int) and not isinstance(a, bool)


def _int_vector(v, n: int, what: str):
    _expect(isinstance(v, list) and len(v) == n, f"{what} must be an array of {n} integers")
    _expect(all(_plain_int(a) for a in v), f"{what} entries must be integers")
    return tuple(v)


def _rational(value, what: str) -> Fraction:
    if _plain_int(value):
        return Fraction(value)
    if isinstance(value, str):
        match = _RATIONAL.fullmatch(value)
        if match:
            p, q = match.groups("1")
            try:
                return Fraction(int(p), int(q))
            except (ValueError, ZeroDivisionError):  # over MAX_DIGITS digits, or q == 0
                pass
        raise ParseError(f"{what} is not a valid 'p/q' string: {_quoted(value)}")
    raise ParseError(f"{what} must be an integer or a 'p/q' string")


def _ambient_dim(doc, what: str) -> int:
    n = doc.get("ambient_dim")
    _expect(_plain_int(n) and n >= 1, f"{what} needs a positive integer ambient_dim")
    return n


def _check_keys(doc, allowed, what: str):
    _expect(isinstance(doc, dict), f"{what} must be a JSON object")
    extra = sorted(set(doc) - allowed)
    shown = ", ".join(_quoted(k) for k in extra[:3]) + (", ..." if len(extra) > 3 else "")
    _expect(not extra, f"{len(extra)} unknown {what} key(s): {shown}")


# ------------------------------------------------------------- cycles


def document_to_cycle(doc) -> TropicalCycle:
    _check_keys(doc, CYCLE_KEYS, "cycle document")
    n = _ambient_dim(doc, "cycle document")
    raw_rays = doc.get("rays", [])
    _expect(isinstance(raw_rays, list), "rays must be an array")
    rays = [_int_vector(v, n, "ray") for v in raw_rays]
    for i, r in enumerate(rays):
        _expect(any(r), "rays must be nonzero")
        if r != rational_to_primitive(r):
            raise ParseError(f"ray {i} is not primitive")
    _expect(len(set(rays)) == len(rays), "rays must be distinct")
    raw_lin = doc.get("lineality", [])
    _expect(isinstance(raw_lin, list), "lineality must be an array")
    lin = [_int_vector(v, n, "lineality vector") for v in raw_lin]
    for v in lin:
        _expect(any(v), "lineality vectors must be nonzero")
    raw_cones = doc.get("cones", [])
    _expect(isinstance(raw_cones, list), "cones must be an array")
    pairs = []
    seen = set()
    for k, entry in enumerate(raw_cones):
        _check_keys(entry, {"rays", "mult"}, "cone entry")
        idx = entry.get("rays")
        _expect(isinstance(idx, list) and all(_plain_int(i) for i in idx), "cone rays must be an array of ray indices")
        _expect(all(0 <= i < len(rays) for i in idx), "cone ray index out of range")
        _expect(len(set(idx)) == len(idx), "cone ray indices must be distinct")
        key = tuple(sorted(idx))
        if key in seen:
            raise ParseError(f"duplicate cone: cone {k} repeats the rays of an earlier cone")
        seen.add(key)
        mult = _rational(entry.get("mult"), "cone multiplicity")
        _expect(mult != 0, "cone multiplicities must be nonzero")
        cell = Polyhedron.cone_from_rays(n, [rays[i] for i in key], lin=lin)
        pairs.append((cell, mult))
    if not pairs:
        return zero_cycle(n)
    try:
        return cycle(n, pairs)
    except ValidationError as exc:
        raise ParseError(f"cycle document is not a weighted fan: {exc}") from None


def cycle_to_document(x: TropicalCycle) -> dict:
    """Canonical document of a fan cycle.

    The document's lineality is the common lineality of all cells in
    Hermite form; per-cell lineality beyond it becomes opposite ray
    pairs. Rays are the primitive extreme rays, sorted; cones are sorted
    by their ray-index sets.
    """
    n = x.ambient_dim
    for c in x.cells:
        if not c.is_cone:
            raise ValidationError("only fan cycles have a document form")
    if x.is_zero:
        return {"ambient_dim": n, "rays": [], "lineality": [], "cones": []}
    common = x.lineality_lattice()
    base = [tuple(g) for g in common.generators]
    cone_rays = []
    for c in x.cells:
        _, cell_rays, cell_lin = c.vrep()
        gens = set(cell_rays)
        rows = list(base)
        for v in cell_lin:
            if int_rank(rows + [v]) > len(rows):
                rows.append(v)
                gens.add(v)
                gens.add(tuple(-a for a in v))
        cone_rays.append(sorted(gens))
    all_rays = sorted({r for gens in cone_rays for r in gens})
    position = {r: i for i, r in enumerate(all_rays)}
    cones = sorted(
        (
            ([position[r] for r in gens], number_text(m))
            for gens, m in zip(cone_rays, x.multiplicities)
        ),
    )
    return {
        "ambient_dim": n,
        "rays": [[_writable(a) for a in r] for r in all_rays],
        "lineality": [[_writable(a) for a in g] for g in common.generators],
        "cones": [{"rays": idx, "mult": m} for idx, m in cones],
    }


# ----------------------------------------------------------- polytopes


def document_to_polytope(doc) -> RationalPolytope:
    _check_keys(doc, POLYTOPE_KEYS, "polytope document")
    n = _ambient_dim(doc, "polytope document")
    raw = doc.get("vertices")
    _expect(isinstance(raw, list) and raw, "polytope document needs a nonempty vertices array")
    points = []
    for v in raw:
        _expect(isinstance(v, list) and len(v) == n, f"each vertex must be an array of {n} coordinates")
        points.append(tuple(_rational(a, "vertex coordinate") for a in v))
    return polytope(n, points)


# ------------------------------------------------------------ matrices


def document_to_matrix(doc):
    """Integer matrix rows, the map's images of the coordinate basis."""
    _check_keys(doc, MATRIX_KEYS, "matrix document")
    raw = doc.get("rows")
    _expect(isinstance(raw, list) and raw, "matrix document needs a nonempty rows array")
    width = None
    rows = []
    for r in raw:
        _expect(isinstance(r, list) and r, "matrix rows must be nonempty arrays")
        if width is None:
            width = len(r)
        _expect(len(r) == width, "matrix rows must all have the same length")
        _expect(all(_plain_int(a) for a in r), "matrix entries must be integers")
        rows.append(tuple(r))
    return tuple(rows)
