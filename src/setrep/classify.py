"""Structural classification driving the exact-value dispatch.

The minimum-representation results for a line graph L(G) split on what G
looks like.  A handful of small families get bespoke answers (complete
graphs and stars reduce to complete-graph results; K4, the windmills
W_t, the triple-matching join, and the "peacock" graphs each have their
own class counts); everything else follows the generic pendant-counting
formulas.  This module recognises those families and computes the
shared vocabulary (critical/inland vertices, plume counts, wings, gamma
and gamma'); ``find_semiwings`` lists the semiwings, for the CLI.

Each family is fixed by degrees alone.  A star has at most one vertex of
degree >= 2.  Otherwise ``_named`` reads the sorted core degrees: with
no plumes they are G's own and name K3, K4, W_t or 3K2+K1; with plumes on
one or two vertices, a triangle core makes a plumed triangle (TP1, TP2)
and a windmill core plumed only at its spine a plumed windmill (TPd1,
TPd2).  No core graph is built.

Terminology used throughout:

* plume            -- a degree-1 vertex,
* critical vertex  -- a vertex of degree >= 2 with at least one plume
                      neighbour; m_i counts its plumes,
* inland vertex    -- a vertex of degree >= 2 with no plume neighbour,
* pendant core     -- the vertices of degree >= 2; the core degree of
                      one is its degree less its plumes,
* gamma            -- #inland + sum of the m_i,
* gamma'           -- gamma + #critical,
* wing             -- a triangle v,x,y whose two non-stalk vertices have
                      degree exactly 2 (the stalk v has degree >= 3);
                      a 3-wing is a wing whose stalk has degree exactly 3,
* semiwing         -- a triangle with exactly one degree-2 vertex.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from itertools import combinations

from .graphs import Graph


@dataclass(frozen=True)
class Classification:
    """Everything the dispatch needs to know about a connected graph."""

    kind: str
    # one of: "K3", "K4", "W_t", "3K2+K1", "star",
    #         "TP1", "TP2", "TPd1", "TPd2", "generic";
    # all but "star" and "generic" are read from the core degrees
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


def _named(degrees: list[int]) -> tuple[str, int | None] | None:
    """The named shape with these degrees (ascending) as (kind, t), or
    None.

    A vertex of degree n - 1 meets every other vertex, so each shape is
    the only graph with its degrees: in K3 and K4 every vertex has degree
    n - 1; the windmill W_t (t >= 2) has two such vertices and t of degree
    2, which can meet nothing else; 3K2+K1 has one such vertex and six of
    degree 2, each left with one mate.
    """
    n = len(degrees)
    if n >= 4 and degrees == [2] * (n - 2) + [n - 1] * 2:
        return "W_t", n - 2
    if degrees == [n - 1] * n and n in (3, 4):
        return f"K{n}", None
    if degrees == [2] * 6 + [6]:
        return "3K2+K1", None
    return None


@functools.lru_cache(maxsize=1)
def classify(g: Graph) -> Classification:
    """Classify a connected graph with at least one edge.

    A repeated call on the same object returns the same result object:
    the last graph's classification is kept, keyed by identity, so the
    closed forms and the witness builders share one per base.  A refusal
    is not kept; it is raised again on every call.
    """
    if g.m == 0:
        raise ValueError("classification needs at least one edge")
    if not g.is_connected():
        raise ValueError("classification is defined for connected graphs")

    core = [v for v in range(g.n) if g.degree(v) >= 2]
    plumes = [sum(1 for u in g.adj[v] if g.degree(u) == 1) for v in core]
    critical = [(v, m) for v, m in zip(core, plumes) if m]
    inland = [v for v, m in zip(core, plumes) if not m]
    gamma = len(inland) + sum(m for _, m in critical)
    gamma_prime = gamma + len(critical)

    wings = find_wings(g)
    stalks = tuple(sorted({v for v, _, _ in wings if g.degree(v) == 3}))

    # The base is named by the degrees of its core: the base itself when
    # it has no plumes, else a triangle or a windmill wearing them.
    degrees = {v: g.degree(v) - m for v, m in zip(core, plumes)}
    kind, t = "generic", None
    if len(core) <= 1:
        kind = "star"
    elif named := _named(sorted(degrees.values())):
        shape, size = named
        if not critical:
            kind, t = shape, size
        elif len(critical) <= 2 and shape == "K3":
            kind = f"TP{len(critical)}"
        # a windmill takes plumes only at its spine, of core degree t + 1
        elif len(critical) <= 2 and shape == "W_t" and all(
                degrees[v] > 2 for v, _ in critical):
            kind, t = f"TPd{len(critical)}", size
    peacock = (sorted(critical, key=lambda vm: -vm[1])
               if kind.startswith("TP") else [])

    return Classification(
        kind=kind, t=t, star_degree=g.n - 1 if kind == "star" else None,
        plume_counts=tuple(m for _, m in peacock),
        plumed_vertices=tuple(v for v, _ in peacock),
        critical=tuple(critical), inland=tuple(inland),
        gamma=gamma, gamma_prime=gamma_prime,
        wings=wings, three_wing_stalks=stalks)
