"""Edge clique covers and the correspondence with simple representations.

A cover is a list of cliques of a graph that together touch every vertex
and every edge.  When additionally no edge lies in two cliques, the cover
is an edge clique *partition*.  Reading clique membership per vertex
turns a cover into a set representation (``egp_set``); reading element
occurrence per universe member turns a simple representation back into a
cover (``egp_cover``).  On partitions these two maps are mutually inverse,
and a representation is simple exactly when its cover is a partition.

Cliques consisting of a single vertex ("trivial" cliques) are allowed:
they cover no edge but pad a vertex's set, which the distinctness and
antichain categories frequently need.

``egp_set`` validates its cover, then reads it with ``_groups_rep``; the
closed forms and the oracle read their own clique lists with it unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidCoverError
from .graphs import Graph, complete_graph, format_graph, parse_graph
from .representations import SetRepresentation, represents


@dataclass(frozen=True)
class CliqueCover:
    graph: Graph
    cliques: tuple[frozenset[int], ...]

    @property
    def size(self) -> int:
        """Number of cliques = universe size of the induced representation."""
        return len(self.cliques)


def validate_cover(cover: CliqueCover) -> None:
    """Raise :class:`InvalidCoverError` unless every listed set is a clique
    and every vertex and edge of the graph is covered."""
    g = cover.graph
    adj = g.adj
    # reach[v]: the bitmask of the vertices that share a listed clique with
    # v, v included
    reach = [0] * g.n
    for idx, q in enumerate(cover.cliques):
        if not q:
            raise InvalidCoverError(f"clique #{idx} is empty")
        mask = 0
        for v in q:
            if not 0 <= v < g.n:
                raise InvalidCoverError(
                    f"clique #{idx} names vertex {v}, out of range")
            mask |= 1 << v
        if len(q) > 1:
            for u in sorted(q):
                apart = q - adj[u]  # u and its non-neighbours in q
                if len(apart) > 1:
                    # the first pair in sorted order: a non-neighbour
                    # below u would have been found at that vertex
                    v = min(w for w in apart if w != u)
                    raise InvalidCoverError(
                        f"clique #{idx} contains the non-edge "
                        f"{g.labels[u]!r}-{g.labels[v]!r}")
        for v in q:
            reach[v] |= mask
    missing = [v for v in range(g.n) if not reach[v]]
    if missing:
        names = ", ".join(g.labels[v] for v in missing)
        raise InvalidCoverError(f"vertices not covered: {names}")
    for u, v in g.edges:
        if not reach[u] >> v & 1:
            raise InvalidCoverError(
                f"edge {g.labels[u]!r}-{g.labels[v]!r} not covered")


def is_partition(cover: CliqueCover) -> bool:
    """True when no edge lies in two cliques (cover assumed valid)."""
    used: set[tuple[int, int]] = set()
    for q in cover.cliques:
        members = sorted(q)
        for a in range(len(members)):
            for b in range(a + 1, len(members)):
                key = (members[a], members[b])
                if key in used:
                    return False
                used.add(key)
    return True


def _groups_rep(n: int, groups) -> SetRepresentation:
    """Vertex ``v`` of ``n`` receives the index of each group (an iterable
    of vertices) that holds it; nothing else is checked."""
    groups = tuple(groups)
    sets: list[list[int]] = [[] for _ in range(n)]
    for j, grp in enumerate(groups):
        for v in grp:
            sets[v].append(j)
    return SetRepresentation(universe=tuple(range(len(groups))),
                             sets=tuple(map(frozenset, sets)))


def egp_set(cover: CliqueCover) -> SetRepresentation:
    """The representation read from ``cover``, once validated: vertex
    ``v`` receives the indices of the cliques containing ``v``."""
    validate_cover(cover)
    return _groups_rep(cover.graph.n, cover.cliques)


def egp_cover(rep: SetRepresentation, graph: Graph) -> CliqueCover:
    """Inverse reading: universe element ``e`` becomes the vertex group
    holding ``e``.  Requires ``rep`` to represent ``graph`` and to use
    every universe element (a stale element would silently vanish).  The
    result is then a valid cover: two vertices in one group share its
    element, so they are adjacent, and every edge's ends share one."""
    if not represents(rep, graph):
        raise InvalidCoverError(
            "representation does not realise the graph's adjacency")
    groups = {e: frozenset(v for v in range(graph.n) if e in rep.sets[v])
              for e in rep.universe}
    for e, grp in groups.items():
        if not grp:
            raise InvalidCoverError(f"universe element {e} is in no set")
    return CliqueCover(graph=graph,
                       cliques=tuple(groups[e] for e in sorted(groups)))


def silly_partition(n: int) -> CliqueCover:
    """The one-big-clique partition of the complete graph on ``n``
    vertices: the whole vertex set plus a trivial clique on every vertex
    but the last (exactly enough padding to keep the sets distinct)."""
    if n < 1:
        raise ValueError("n must be positive")
    g = complete_graph(n)
    cliques = [frozenset(range(n))]
    cliques += [frozenset({v}) for v in range(n - 1)]
    return CliqueCover(graph=g, cliques=tuple(cliques))


def cover_to_json_dict(cover: CliqueCover) -> dict:
    """The cover's cliques by vertex label, with the graph inline as
    edge-list text."""
    return {
        "cliques": [sorted(cover.graph.labels[v] for v in q)
                    for q in cover.cliques],
        "graph": format_graph(cover.graph),
    }


def cover_from_json_dict(data: dict, graph: Graph | None = None) -> CliqueCover:
    """Load a cover; the graph may be supplied by the caller, inline as
    edge-list text under "graph" (recognised by its newline), or as a
    path string under "graph".  JSON of any other shape raises
    InvalidCoverError naming the bad field."""
    if not isinstance(data, dict):
        raise InvalidCoverError('cover JSON must be an object with "cliques"')
    cliques = data.get("cliques")
    if not isinstance(cliques, list) or not all(
            isinstance(q, list) and all(isinstance(lab, str) for lab in q)
            for q in cliques):
        raise InvalidCoverError(
            '"cliques" must be a list of lists of vertex labels')
    if graph is None:
        ref = data.get("graph")
        if ref is None:
            raise InvalidCoverError(
                "cover JSON carries no graph and none was supplied")
        if not isinstance(ref, str):
            raise InvalidCoverError(
                '"graph" must be edge-list text or a path to it')
        if "\n" in ref:
            graph = parse_graph(ref)
        else:
            with open(ref, "r", encoding="utf-8") as fh:
                graph = parse_graph(fh.read())
    cover = CliqueCover(graph=graph, cliques=tuple(
        frozenset(graph.index(lab) for lab in q) for q in cliques))
    validate_cover(cover)
    return cover
