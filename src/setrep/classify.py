"""Structural classification driving the exact-value dispatch.

The minimum-representation results for a line graph L(G) split on what G
looks like.  A handful of small families get bespoke answers (complete
graphs and stars reduce to complete-graph results; K4, the windmills
W_t, the triple-matching join, and the "peacock" graphs each have their
own class counts); everything else follows the generic pendant-counting
formulas.  This module recognises those families and computes the
shared vocabulary: critical/inland vertices, plume counts, wings and
semiwings, and the two universe-size parameters gamma and gamma'.

Terminology used throughout:

* plume            -- a degree-1 vertex,
* critical vertex  -- a vertex of degree >= 2 with at least one plume
                      neighbour; m_i counts its plumes,
* inland vertex    -- a vertex of degree >= 2 with no plume neighbour,
* pendant core     -- the graph left when the plumes are removed, each
                      vertex coloured by its plume count (pendant_core),
* gamma            -- #inland + sum of the m_i,
* gamma'           -- gamma + #critical,
* wing             -- a triangle v,x,y whose two non-stalk vertices have
                      degree exactly 2 (the stalk v has degree >= 3);
                      a 3-wing is a wing whose stalk has degree exactly 3,
* semiwing         -- a triangle with exactly one degree-2 vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph


@dataclass(frozen=True)
class Classification:
    """Everything the dispatch needs to know about a connected graph."""

    kind: str
    # one of: "K3", "K4", "W_t", "3K2+K1", "star",
    #         "TP1", "TP2", "TPd1", "TPd2", "generic"
    t: int | None                       # windmill parameter for W_t / TPd*
    star_degree: int | None             # number of leaves for "star"
    plume_counts: tuple[int, ...]       # peacock m-values, largest first
    plumed_vertices: tuple[int, ...]    # peacock vertices carrying plumes
    critical: tuple[tuple[int, int], ...]   # (vertex, m_i), vertex ascending
    inland: tuple[int, ...]
    gamma: int
    gamma_prime: int
    wings: tuple[tuple[int, int, int], ...]       # (stalk, x, y), x < y
    three_wing_stalks: tuple[int, ...]
    semiwings: tuple[tuple[int, int, int], ...]   # (degree-2 vertex, u, v)


def find_wings(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """All wings, as (stalk, x, y) with x < y."""
    wings = []
    for v in range(g.n):
        if g.degree(v) < 3:
            continue
        low = [u for u in g.adj[v] if g.degree(u) == 2]
        for x, y in combinations(sorted(low), 2):
            if g.has_edge(x, y):
                wings.append((v, x, y))
    return tuple(wings)


def find_semiwings(g: Graph) -> tuple[tuple[int, int, int], ...]:
    """All semiwings, as (w, u, v) where w is the lone degree-2 vertex."""
    out = []
    for w in range(g.n):
        if g.degree(w) != 2:
            continue
        u, v = sorted(g.adj[w])
        if g.has_edge(u, v) and g.degree(u) != 2 and g.degree(v) != 2:
            out.append((w, u, v))
    return tuple(out)


def _is_complete(g: Graph) -> bool:
    return g.m == g.n * (g.n - 1) // 2


def _star_center(g: Graph) -> int | None:
    """Hub index if g is a star K_{1,d} (d >= 1), else None."""
    if g.m != g.n - 1:
        return None
    if g.n == 2:
        return 0  # K2: either endpoint serves; pick the first
    hubs = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(hubs) == 1 and all(g.degree(v) == 1
                              for v in range(g.n) if v != hubs[0]):
        return hubs[0]
    return None


def _windmill_parameter(g: Graph) -> int | None:
    """t if g is W_t = (t K1) joined to K2, t >= 2, else None."""
    t = g.n - 2
    if t < 2 or g.m != 2 * t + 1:
        return None
    base = [v for v in range(g.n) if g.degree(v) == g.n - 1]
    if len(base) != 2 or not g.has_edge(base[0], base[1]):
        return None
    fans = [v for v in range(g.n) if v not in base]
    for a, b in combinations(fans, 2):
        if g.has_edge(a, b):
            return None
    return t if all(g.degree(v) == 2 for v in fans) else None


def _is_triple_matching_join(g: Graph) -> bool:
    """The join of a perfect matching on six vertices with one vertex."""
    if g.n != 7 or g.m != 9:
        return False
    centers = [v for v in range(g.n) if g.degree(v) == 6]
    if len(centers) != 1:
        return False
    rest = [v for v in range(g.n) if v != centers[0]]
    if any(g.degree(v) != 2 for v in rest):
        return False
    mate: dict[int, int] = {}
    for v in rest:
        others = [u for u in g.adj[v] if u != centers[0]]
        if len(others) != 1:
            return False
        mate[v] = others[0]
    return all(mate[mate[v]] == v for v in rest)


def pendant_core(g: Graph) -> tuple[Graph, tuple[int, ...], tuple[int, ...]]:
    """``g`` with its plumes removed: the core graph on the vertices of
    degree >= 2, the vertex of ``g`` behind each core vertex (ascending),
    and the number of plumes each core vertex carries."""
    of = tuple(v for v in range(g.n) if g.degree(v) >= 2)
    at = {v: i for i, v in enumerate(of)}
    core = Graph(tuple(g.labels[v] for v in of),
                 tuple((at[u], at[v]) for u, v in g.edges
                       if u in at and v in at))
    plumes = tuple(sum(1 for u in g.adj[v] if g.degree(u) == 1) for v in of)
    return core, of, plumes


def _peacock(core: Graph, of: tuple[int, ...], plumes: tuple[int, ...]):
    """Try to read the pendant core as a triangle or windmill with plumes
    attached.

    Returns (kind, t, m_values_desc, plumed_vertices) or None.
    """
    plumed = sorted((i for i in range(core.n) if plumes[i]),
                    key=lambda i: -plumes[i])
    if len(plumed) not in (1, 2):
        return None  # no plumes, or plumes on three or more vertices
    ms = tuple(plumes[i] for i in plumed)
    vertices = tuple(of[i] for i in plumed)
    if core.n == 3 and _is_complete(core):
        return (f"TP{len(plumed)}", None, ms, vertices)
    t = _windmill_parameter(core)
    if t is None or any(core.degree(i) == 2 for i in plumed):
        return None  # plumed fans fall outside the special families
    return (f"TPd{len(plumed)}", t, ms, vertices)


def classify(g: Graph) -> Classification:
    """Classify a connected graph with at least one edge."""
    if g.m == 0:
        raise ValueError("classification needs at least one edge")
    if not g.is_connected():
        raise ValueError("classification is defined for connected graphs")

    core, of, plumes = pendant_core(g)
    critical = [(v, m) for v, m in zip(of, plumes) if m]
    inland = [v for v, m in zip(of, plumes) if not m]
    gamma = len(inland) + sum(m for _, m in critical)
    gamma_prime = gamma + len(critical)

    wings = find_wings(g)
    stalks = tuple(sorted({v for v, _, _ in wings if g.degree(v) == 3}))
    semiwings = find_semiwings(g)

    kind = "generic"
    t: int | None = None
    star_degree: int | None = None
    plume_counts: tuple[int, ...] = ()
    plumed_vertices: tuple[int, ...] = ()

    if _is_complete(g) and g.n == 3:
        kind = "K3"
    elif _is_complete(g) and g.n == 4:
        kind = "K4"
    elif (w := _windmill_parameter(g)) is not None:
        kind, t = "W_t", w
    elif _is_triple_matching_join(g):
        kind = "3K2+K1"
    elif (hub := _star_center(g)) is not None:
        kind, star_degree = "star", g.n - 1
    elif (pk := _peacock(core, of, plumes)) is not None:
        kind, t, plume_counts, plumed_vertices = pk

    return Classification(
        kind=kind, t=t, star_degree=star_degree,
        plume_counts=plume_counts, plumed_vertices=plumed_vertices,
        critical=tuple(critical), inland=tuple(inland),
        gamma=gamma, gamma_prime=gamma_prime,
        wings=wings, three_wing_stalks=stalks, semiwings=semiwings)
