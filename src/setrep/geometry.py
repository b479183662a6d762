"""Finite linear spaces, projective planes, and the plane-count table.

A finite linear space on ``n`` points is a line system in which every
line has between 2 and ``n - 1`` points and every pair of points lies on
exactly one line.  A projective plane additionally has every two lines
meeting (in one point) and four points in general position; a plane of
order ``r`` has ``r*r + r + 1`` points and equally many lines, with
``r + 1`` points per line.

Planes are built here as the classical coordinate geometry over the
field of ``q`` elements for ``q`` in {2, 3, 4, 5, 7, 8, 9}.  Orders 6
and 10 are famously nonexistent; everything past 9 is out of this
package's constructive range (and for composite candidates such as 12,
genuinely open).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import combinations

from .cliquecover import CliqueCover
from .errors import InvalidCoverError, NoPlaneExists, NoSuchPlaneConstruction
from .graphs import Graph, complete_graph


@dataclass(frozen=True)
class LinearSpace:
    """Points are 0..points-1; each line is a sorted tuple of points."""

    points: int
    lines: tuple[tuple[int, ...], ...]
    order: int | None = None  # filled in for constructed planes


def validate_linear_space(ls: LinearSpace) -> None:
    """Raise ValueError unless ``ls`` satisfies both line-space axioms."""
    n = ls.points
    if n < 1:
        raise ValueError("a linear space needs at least one point")
    pair_line: dict[tuple[int, int], int] = {}
    for idx, line in enumerate(ls.lines):
        if len(set(line)) != len(line):
            raise ValueError(f"line #{idx} repeats a point")
        if not all(0 <= p < n for p in line):
            raise ValueError(f"line #{idx} names a point out of range")
        if not 2 <= len(line) <= n - 1:
            raise ValueError(
                f"line #{idx} has {len(line)} points; "
                f"allowed range is 2..{n - 1}")
        for a, b in combinations(sorted(line), 2):
            if (a, b) in pair_line:
                raise ValueError(
                    f"points {a} and {b} lie on two lines "
                    f"(#{pair_line[(a, b)]} and #{idx})")
            pair_line[(a, b)] = idx
    for a in range(n):
        for b in range(a + 1, n):
            if (a, b) not in pair_line:
                raise ValueError(f"points {a} and {b} lie on no line")


def is_projective_plane(ls: LinearSpace) -> bool:
    """Linear space + every two lines meet + a proper quadrangle exists."""
    try:
        validate_linear_space(ls)
    except ValueError:
        return False
    line_sets = [set(line) for line in ls.lines]
    for s, t in combinations(line_sets, 2):
        if len(s & t) != 1:
            return False
    # Four points, no three on a common line.
    for quad in combinations(range(ls.points), 4):
        if all(not any(set(tri) <= ls_set for ls_set in line_sets)
               for tri in combinations(quad, 3)):
            return True
    return False


def plane_order(ls: LinearSpace) -> int:
    """Order of a projective plane (raises on anything else)."""
    if not is_projective_plane(ls):
        raise ValueError("not a projective plane")
    r = len(ls.lines[0]) - 1
    if ls.points != r * r + r + 1 or len(ls.lines) != ls.points:
        raise ValueError("inconsistent plane parameters")
    if any(len(line) != r + 1 for line in ls.lines):
        raise ValueError("lines of unequal size")
    return r


# ---------------------------------------------------------------------------
# Field arithmetic.  Elements of GF(p^k) are encoded as integers whose
# base-p digits are the polynomial coefficients (little-endian).
# ---------------------------------------------------------------------------

_IRREDUCIBLE = {
    # q: (p, k, modulus polynomial as coefficient tuple, low degree first,
    #     leading coefficient included)
    4: (2, 2, (1, 1, 1)),        # x^2 + x + 1
    8: (2, 3, (1, 1, 0, 1)),     # x^3 + x + 1
    9: (3, 2, (1, 0, 1)),        # x^2 + 1
}

_SUPPORTED_ORDERS = (2, 3, 4, 5, 7, 8, 9)


class _Field:
    """Tabulated arithmetic in GF(q) for the handful of orders needed."""

    def __init__(self, q: int):
        if q in (2, 3, 5, 7):
            p, k, mod = q, 1, (0, 1)
        else:
            p, k, mod = _IRREDUCIBLE[q]
        self.q = q
        digits = lambda e: [(e // p**i) % p for i in range(k)]
        undigits = lambda cs: sum(c * p**i for i, c in enumerate(cs))
        self.add = [[0] * q for _ in range(q)]
        self.mul = [[0] * q for _ in range(q)]
        for a in range(q):
            for b in range(q):
                da, db = digits(a), digits(b)
                self.add[a][b] = undigits([(x + y) % p
                                           for x, y in zip(da, db)])
                prod = [0] * (2 * k - 1)
                for i, x in enumerate(da):
                    for j, y in enumerate(db):
                        prod[i + j] = (prod[i + j] + x * y) % p
                # reduce by the modulus polynomial
                for deg in range(2 * k - 2, k - 1, -1):
                    c = prod[deg]
                    if c:
                        prod[deg] = 0
                        for i in range(k):
                            prod[deg - k + i] = (
                                prod[deg - k + i] - c * mod[i]) % p
                self.mul[a][b] = undigits(prod[:k])


@lru_cache(maxsize=None)
def projective_plane(q: int) -> LinearSpace:
    """The coordinate plane of order ``q`` (q in {2, 3, 4, 5, 7, 8, 9}).

    Raises :class:`NoPlaneExists` for 6 and 10, where no plane of any
    kind exists, and :class:`NoSuchPlaneConstruction` for every other
    unsupported order.
    """
    if q in (6, 10):
        raise NoPlaneExists(f"no projective plane of order {q} exists")
    if q not in _SUPPORTED_ORDERS:
        raise NoSuchPlaneConstruction(
            f"plane construction unavailable for order {q}; "
            f"supported orders: {', '.join(map(str, _SUPPORTED_ORDERS))}")
    f = _Field(q)
    # Projective points with first nonzero coordinate normalised to 1.
    triples = ([(1, a, b) for a in range(q) for b in range(q)]
               + [(0, 1, a) for a in range(q)]
               + [(0, 0, 1)])
    index = {t: i for i, t in enumerate(triples)}
    lines = []
    for coeff in triples:  # same normalised triples serve as line vectors
        pts = []
        for pt in triples:
            s = 0
            for c, x in zip(coeff, pt):
                s = f.add[s][f.mul[c][x]]
            if s == 0:
                pts.append(index[pt])
        lines.append(tuple(sorted(pts)))
    return LinearSpace(points=len(triples), lines=tuple(sorted(lines)),
                       order=q)


def near_pencil(n: int) -> LinearSpace:
    """One long line through all points but the last, plus the pencil of
    two-point lines joining each of them to the last point."""
    if n < 3:
        raise ValueError("a near-pencil needs at least 3 points")
    lines = [tuple(range(n - 1))]
    lines += [(i, n - 1) for i in range(n - 1)]
    return LinearSpace(points=n, lines=tuple(lines))


def puncture(ls: LinearSpace, h: int) -> LinearSpace:
    """Delete the last ``h`` points; lines shrink accordingly and lines
    left with fewer than two points disappear."""
    if not 0 <= h < ls.points:
        raise ValueError(f"cannot remove {h} of {ls.points} points")
    keep = ls.points - h
    lines = []
    for line in ls.lines:
        short = tuple(p for p in line if p < keep)
        if len(short) >= 2:
            lines.append(short)
    result = LinearSpace(points=keep, lines=tuple(lines))
    validate_linear_space(result)
    return result


def order_for_points(n: int) -> int | None:
    """The r >= 2 with r*r + r + 1 == n, if one exists: the order a
    projective plane on ``n`` points would have."""
    r = 2
    while r * r + r + 1 < n:
        r += 1
    return r if r * r + r + 1 == n else None


def n_pp(n: int) -> int | None:
    """How many projective planes (up to isomorphism) have ``n`` points.

    Returns 0 when ``n`` is not of the form r*r + r + 1 with r >= 2 or
    when the order is settled to have no plane (6, 10); the known counts
    otherwise; and ``None`` for orders where the answer is open (r >= 11).
    """
    r = order_for_points(n)
    if r is None:
        return 0
    known = {2: 1, 3: 1, 4: 1, 5: 1, 6: 0, 7: 1, 8: 1, 9: 4, 10: 0}
    if r in known:
        return known[r]
    return None


def fls_to_cover(ls: LinearSpace, graph: Graph | None = None) -> CliqueCover:
    """Read the lines as cliques of the complete graph on the points.

    Axiom L2 makes the line set an edge clique partition of that
    complete graph; this is the bridge from geometry to representations.
    """
    if graph is None:
        graph = complete_graph(ls.points)
    elif graph.n != ls.points:
        raise InvalidCoverError(
            f"linear space has {ls.points} points but graph has {graph.n} vertices")
    return CliqueCover(graph=graph,
                       cliques=tuple(frozenset(line) for line in ls.lines))


def linear_space_to_json_dict(ls: LinearSpace) -> dict:
    data: dict = {"points": ls.points,
                  "lines": [list(line) for line in ls.lines]}
    if ls.order is not None:
        data["order"] = ls.order
    return data


def linear_space_from_json_dict(data: dict) -> LinearSpace:
    return LinearSpace(
        points=int(data["points"]),
        lines=tuple(tuple(int(p) for p in line) for line in data["lines"]),
        order=data.get("order"))
