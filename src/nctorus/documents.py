"""Wire documents: exact-rational JSON in, exact-rational JSON out.

Rationals travel as strings "p/q" (or "p" when integral) so that nothing is
ever rounded; integer matrices travel as plain JSON integers.  A rational is
a JSON integer or a string of the form [+-]digits or [+-]digits/digits, with
optional surrounding whitespace, and is parsed straight into the integer rows
of an ``xl.Mat``; output strings are printed from those rows.  Serialization
is deterministic (sorted keys, fixed separators), so identical inputs and
seeds produce byte-identical reports.  Result and error documents carry no
version of their own: ``dumps`` stamps the one their command declares.
"""

from __future__ import annotations

import json
import math
import re
import sys
from json.encoder import encode_basestring_ascii as _string

from . import exact_linalg as xl
from .exact_linalg import Mat
from .embedding import Factorization, PipelineResult
from .module_sim import ModuleDescriptor, ModuleSimError, verify_descriptor
from .torus_group import GroupElement, Theta, make_theta

FORMAT_VERSION = "nctorus/1"
FACTORIZATION_VERSION = "nctorus/2"  # decompose: theta-free, with the seven certificates of factor


class ParseError(Exception):
    pass


# ---------------------------------------------------------------------------
# scalars and matrices


_RATIONAL = re.compile(r"\s*([+-]?[0-9]+)(?:/([0-9]+))?\s*")


def _rat_text(num: int, den: int) -> str:
    """The wire form "p/q", or "p" when integral, of num / den for den > 0."""
    g = math.gcd(num, den)
    try:
        return str(num // g) if g == den else f"{num // g}/{den // g}"
    except ValueError:  # more digits than str() converts
        raise _too_many_digits() from None


def _too_many_digits() -> ParseError:
    """A result past the interpreter's digit limit is refused as an input past it is."""
    return ParseError(f"result has a number of more than {sys.get_int_max_str_digits()} digits")


def _rat_parts(s: str) -> tuple[int, int]:
    """Numerator and positive denominator of a rational string."""
    m = _RATIONAL.fullmatch(s)
    if m is None:
        raise ParseError(f"bad rational {s!r}")
    try:
        num, den = int(m[1]), int(m[2] or 1)
    except ValueError:  # more digits than int() converts
        raise ParseError(f"bad rational {s!r}: too many digits") from None
    if den == 0:
        raise ParseError(f"bad rational {s!r}: zero denominator")
    return num, den


def rat_matrix_doc(M: Mat) -> list[list[str]]:
    return [[_rat_text(x, M.den) for x in row] for row in M.rows]


def int_matrix_doc(M: Mat) -> list[list[int]]:
    return [list(row) for row in M.rows]


def parse_rat_matrix(rows, what="matrix") -> Mat:
    if not isinstance(rows, list) or not rows or not all(isinstance(r, list) for r in rows):
        raise ParseError(f"{what} must be a non-empty list of rows")
    width = len(rows[0])
    if any(len(r) != width for r in rows):
        raise ParseError(f"{what} rows have unequal lengths")
    # each distinct text is parsed once (about half the entries of a descriptor are "0"),
    # and the first bad entry in row-major order is the one named
    parts: dict[str, tuple[int, int]] = {}
    for row in rows:
        for x in row:
            if type(x) is str:
                if x not in parts:
                    parts[x] = _rat_parts(x)
            elif type(x) is not int:
                raise ParseError(f"not a rational: {x!r}")
    # a set, not a generator: star-arguments from a generator build their tuple by
    # resizing, and that churn grew the peak RSS of long runs by 2 MB
    den = math.lcm(*{d for _, d in parts.values()})
    scaled = {x: n * (den // d) for x, (n, d) in parts.items()}
    return Mat([[scaled[x] if type(x) is str else x * den for x in row] for row in rows], den, width)


def parse_int_matrix(rows, what="matrix") -> Mat:
    M = parse_rat_matrix(rows, what)
    if not xl.is_integral(M):
        raise ParseError(f"{what} must have integer entries")
    return M


# ---------------------------------------------------------------------------
# job documents


def theta_from_doc(doc, n: int | None = None) -> Theta:
    M = parse_rat_matrix(doc, "theta")
    if M.shape[0] != M.shape[1]:
        raise ParseError("theta must be square")
    if n is not None and M.shape[0] != n:
        raise ParseError(f"theta has size {M.shape[0]}, document says n={n}")
    try:
        return make_theta(M)
    except ValueError as e:
        raise ParseError(str(e)) from None


def theta_doc(theta: Theta) -> list[list[str]]:
    return rat_matrix_doc(theta.M)


def group_blocks_from_doc(doc, n: int | None = None) -> tuple[Mat, Mat, Mat, Mat]:
    """Parse the four blocks; membership is checked by the caller."""
    if not isinstance(doc, dict) or set("ABCD") - set(doc):
        raise ParseError("g must be an object with blocks A, B, C, D")
    blocks = tuple(parse_int_matrix(doc[key], f"g.{key}") for key in "ABCD")
    sizes = {M.shape for M in blocks}
    if len(sizes) != 1 or blocks[0].shape[0] != blocks[0].shape[1]:
        raise ParseError("g blocks must be square and of equal size")
    check_int(blocks[0].shape[0], "n", 2)
    if n is not None and blocks[0].shape[0] != n:
        raise ParseError(f"g blocks have size {blocks[0].shape[0]}, document says n={n}")
    return blocks


def group_doc(g: GroupElement) -> dict:
    return {key: int_matrix_doc(getattr(g, key)) for key in "ABCD"}


def check_int(value, name: str, floor: int):
    """A size or count from a document or command line is an integer >= floor; null is not."""
    if isinstance(value, bool) or not isinstance(value, int) or value < floor:
        raise ParseError(f"{name} must be an integer >= {floor}")
    return value


def load_job(doc: dict) -> dict:
    """Validate the envelope of an input document; each parsed field keeps its document name."""
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    version = doc.get("version", FORMAT_VERSION)
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported document version {version!r}")
    out = {"options": doc.get("options", {})}
    if not isinstance(out["options"], dict):
        raise ParseError("options must be an object")
    n = out["n"] = None if doc.get("n") is None else check_int(doc["n"], "n", 2)
    if "g" in doc:
        out["g"] = group_blocks_from_doc(doc["g"], n)
    if "theta" in doc:
        out["theta"] = theta_from_doc(doc["theta"], n)
    if "g" in doc and "theta" in doc:
        size = out["g"][0].shape[0]
        if out["theta"].n != size:
            raise ParseError(f"theta has size {out['theta'].n}, g blocks have size {size}")
    if "module_descriptor" in doc:
        out["module_descriptor"] = descriptor_from_doc(doc["module_descriptor"])
    return out


# ---------------------------------------------------------------------------
# result documents


def certificates_doc(names) -> list[dict]:
    """Each certificate that ran passed: a failing one raises instead."""
    return [{"name": name, "passed": True} for name in names]


def descriptor_from_doc(doc) -> ModuleDescriptor:
    if not isinstance(doc, dict):
        raise ParseError("module_descriptor must be an object")
    missing = [f for f in ("p", "q", "k", "orders") if doc.get(f) is None]
    if missing:
        raise ParseError(f"module_descriptor is missing: {', '.join(missing)}")
    p, q, k = (check_int(doc[f], f, 0) for f in ("p", "q", "k"))
    orders = doc["orders"]
    if not isinstance(orders, list) or len(orders) != k or None in orders:
        raise ParseError("orders must list k positive integers")
    orders = tuple(check_int(x, "orders", 1) for x in orders)
    T = parse_rat_matrix(doc.get("T"), "T")
    S = parse_rat_matrix(doc.get("S"), "S")
    theta = theta_from_doc(doc.get("theta"))
    theta_prime = theta_from_doc(doc.get("theta_prime"))
    d = ModuleDescriptor(p=p, q=q, orders=orders, T=T, S=S, theta=theta, theta_prime=theta_prime)
    if T.shape != (d.ambient_dim, d.n) or S.shape != (d.ambient_dim, d.n):
        raise ParseError("T and S must have shape (n+q+2k) x n")
    if theta.n != d.n or theta_prime.n != d.n:
        raise ParseError("theta and theta_prime must have size n = 2p+q")
    try:
        verify_descriptor(d)
    except ModuleSimError as e:
        raise ParseError(f"bad module_descriptor: {e}") from None
    return d


def chain_doc(res: PipelineResult, theta_in: list, theta_out: list) -> dict:
    """The fixed chain rho(R0^-1), Heisenberg bimodule, rho(A), mu(N).

    theta_in and theta_out are the printed res.theta_in and res.theta_out.
    """
    return {
        "source": theta_doc(res.source),
        "target": theta_doc(res.target),
        "steps": [
            {"kind": "iso_rho", "R": int_matrix_doc(res.r0_inv)},
            {"kind": "heisenberg", "theta": theta_in, "theta_prime": theta_out},
            {"kind": "iso_rho", "R": int_matrix_doc(res.basis_change)},
            {"kind": "iso_mu", "N": int_matrix_doc(res.shear)},
        ],
    }


def factorization_doc(fac: Factorization) -> dict:
    """The decompose document: R0, g', the shear, the basis change and the certificates."""
    return {
        "n": fac.g.n,
        "R0": int_matrix_doc(fac.r0),
        "g_prime": group_doc(fac.g_prime),
        "shear": int_matrix_doc(fac.shear),
        "basis_change": int_matrix_doc(fac.basis_change),
        "certificates": certificates_doc(fac.certificates),
        "all_passed": fac.all_passed(),
    }


def embedding_doc(res: PipelineResult) -> dict:
    """The factorization fields of res, with its 22 certificates, and the embedding at theta."""
    td = res.torsion
    return factorization_doc(res) | {
        "p": res.special.p,
        "q": res.special.q,
        "k": td.k,
        "orders": list(td.nj),
        "m": td.m,
        "h": list(td.h),
        "Z": rat_matrix_doc(res.special.Z),
        "theta_in": theta_doc(res.theta_in),
        "theta_prime": theta_doc(res.theta_out),
        "T": rat_matrix_doc(res.descriptor.T),
        "S": rat_matrix_doc(res.descriptor.S),
        "phi_star": rat_matrix_doc(res.phi_star),
        "curvature": rat_matrix_doc(res.curvature),
    }


def pipeline_doc(res: PipelineResult) -> dict:
    """The embed document plus the chain and the module descriptor.

    Each matrix is formatted once: the chain and the descriptor share the
    lists of the top level, which the writer does not mutate.
    """
    doc = embedding_doc(res)
    doc["chain"] = chain_doc(res, doc["theta_in"], doc["theta_prime"])
    doc["module_descriptor"] = {
        "p": doc["p"],
        "q": doc["q"],
        "k": doc["k"],
        "orders": doc["orders"],
        "T": doc["T"],
        "S": doc["S"],
        "theta": doc["theta_in"],
        "theta_prime": doc["theta_prime"],
        "K": 1.0,
    }
    return doc


def error_doc(kind: str, message: str, name: str | None = None) -> dict:
    err: dict = {"kind": kind, "message": message}
    if name:
        err["name"] = name
    return {"error": err}


def dumps(doc: dict, version: str = FORMAT_VERSION) -> str:
    """{"version": version, **doc} as json.dumps(..., sort_keys=True, indent=2, separators=(",", ": ")) writes it.

    json.dumps runs its pure-Python encoder whenever it indents, so the same
    bytes are written here directly.
    """
    doc = {"version": version, **doc}
    out: list[str] = []
    try:
        _write(doc, "\n", out)
    except ValueError:  # an integer with more digits than str() converts
        raise _too_many_digits() from None
    out.append("\n")
    return "".join(out)


_CONSTANTS = {value: json.dumps(value) for value in (True, False, None)}


def _write(value, newline: str, out: list[str]) -> None:
    """Append the indented JSON text of value; newline is "\n" plus the current indent."""
    kind = type(value)
    if kind is str:
        out.append(_string(value))
    elif kind is int:
        out.append(int.__repr__(value))
    elif kind is dict or kind is list or kind is tuple:
        if not value:
            out.append("{}" if kind is dict else "[]")
            return
        inner = newline + "  "
        sep = "," + inner
        if kind is dict:
            out.append("{" + inner)
            for key, item in sorted(value.items()):
                out.append(_string(key) + ": ")
                _write(item, inner, out)
                out.append(sep)
            out[-1] = newline + "}"
            return
        out.append("[" + inner)
        kinds = set(map(type, value))
        if kinds == {int}:
            out.append(sep.join(map(int.__repr__, value)))
        elif kinds == {str}:
            out.append(sep.join(map(_string, value)))
        else:
            for item in value:
                _write(item, inner, out)
                out.append(sep)
            out.pop()
        out.append(newline + "]")
    elif kind is bool or value is None:
        out.append(_CONSTANTS[value])
    else:  # floats, and anything else json itself encodes or refuses
        out.append(json.dumps(value))


def loads(text: str) -> dict:
    try:
        doc = json.loads(text)
    except (ValueError, RecursionError) as e:  # ValueError: bad syntax, or an integer with too many digits
        raise ParseError(f"invalid JSON: {e}") from None
    if not isinstance(doc, dict):
        raise ParseError("document must be a JSON object")
    return doc
