"""Small named graphs shared across the test modules.

Everything here is a base graph; tests that need the line graph build it
themselves.  Labels are strings so that the text format round-trips
without surprises.  ``automorphisms`` lists a graph's automorphisms by
backtracking; it is the reference that the package's symmetry handling
is tested against.
"""

from setrep import (
    Graph,
    SetRepresentation,
    canonical_form,
    complete_graph,
    cycle_graph,
    path_graph,
    star_graph,
)
from setrep.representations import _graph_generators


def from_edges(edges):
    """Build a Graph from (label, label) pairs, labels sorted."""
    labels = sorted({v for e in edges for v in e})
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = sorted(
        (min(index[a], index[b]), max(index[a], index[b])) for a, b in edges
    )
    return Graph(tuple(labels), tuple(pairs))


def plumed_triangle(m):
    """Triangle with m pendant edges on one corner (kind TP1)."""
    edges = [("v", "x"), ("v", "y"), ("x", "y")]
    edges += [("v", f"p{i}") for i in range(m)]
    return from_edges(edges)


def two_plumed_triangle(m1, m2):
    """Triangle with pendants on two corners (kind TP2)."""
    edges = [("v1", "v2"), ("v1", "a"), ("v2", "a")]
    edges += [("v1", f"p{i}") for i in range(m1)]
    edges += [("v2", f"q{i}") for i in range(m2)]
    return from_edges(edges)


def book(t):
    """t triangles glued along a common edge uv (kind W_t)."""
    edges = [("u", "v")]
    for i in range(t):
        edges += [("u", f"f{i}"), ("v", f"f{i}")]
    return from_edges(edges)


def plumed_book(t, m1, m2=0):
    """Book with pendants on one or both spine vertices (TPd1 / TPd2)."""
    edges = [("u", "v")]
    for i in range(t):
        edges += [("u", f"f{i}"), ("v", f"f{i}")]
    edges += [("u", f"p{i}") for i in range(m1)]
    edges += [("v", f"q{i}") for i in range(m2)]
    return from_edges(edges)


def friendship3():
    """Three disjoint edges joined to a hub: 3K2 + K1."""
    edges = [("a1", "a2"), ("b1", "b2"), ("c1", "c2")]
    edges += [("z", w) for w in ("a1", "a2", "b1", "b2", "c1", "c2")]
    return from_edges(edges)


def bridged_triangles():
    """Two triangles joined by a bridge; both bridge ends are 3-wing stalks."""
    return from_edges(
        [
            ("a", "b"),
            ("a", "c"),
            ("b", "c"),
            ("d", "e"),
            ("d", "f"),
            ("e", "f"),
            ("c", "d"),
        ]
    )


def dumbbell():
    """An edge whose both ends carry two pendants each."""
    return from_edges(
        [("v1", "v2"), ("v1", "p1"), ("v1", "p2"), ("v2", "q1"), ("v2", "q2")]
    )


def wing_path():
    """Triangle with a path of length two hanging off one corner."""
    return from_edges([("v", "x"), ("v", "y"), ("x", "y"), ("v", "a"), ("a", "b")])


def trimmed_fig5():
    """K4 with one extra pendant: the smallest graph whose triangle block
    is no wing at all."""
    return from_edges(
        [
            ("b", "c"),
            ("b", "h"),
            ("b", "i"),
            ("c", "h"),
            ("c", "i"),
            ("h", "i"),
            ("c", "a"),
        ]
    )


def spider():
    """Three pendants plus a two-edge leg on a common centre."""
    return from_edges(
        [("v", "u"), ("u", "w"), ("v", "p1"), ("v", "p2"), ("v", "p3")]
    )


def asym_wing():
    """A triangle wing on one end of a short spine, pendants on the other:
    no automorphism moves the stalk."""
    return from_edges(
        [("v1", "p1"), ("v1", "p2"), ("v1", "c"), ("c", "d"), ("c", "e"), ("d", "e")]
    )


def cornered_triangle():
    """Triangle with one pendant per corner; generic, three sa sites of m=1."""
    return from_edges(
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "pa"), ("b", "pb"), ("c", "pc")]
    )


# Frozen oracle results, (theta, number of solution classes), recorded from
# exhaustive runs.  Keys are (builder name, category); the corresponding
# graph is the *base* graph and the oracle ran on its line graph.
LINEGRAPH_EXPECTED = {
    ("path_graph(4)", "sd"): (2, 1),
    ("path_graph(5)", "sd"): (3, 1),
    ("path_graph(5)", "sa"): (5, 1),
    ("cycle_graph(4)", "sd"): (4, 1),
    ("cycle_graph(4)", "sa"): (4, 1),
    ("cycle_graph(5)", "sd"): (5, 1),
    ("cycle_graph(6)", "sd"): (6, 1),
    ("plumed_triangle(1)", "sd"): (3, 2),
    ("plumed_triangle(1)", "sa"): (4, 2),
    ("plumed_triangle(1)", "sdu"): (4, 2),
    ("plumed_triangle(2)", "sd"): (4, 2),
    ("plumed_triangle(2)", "sa"): (5, 2),
    ("plumed_triangle(3)", "sd"): (5, 2),
    ("two_plumed_triangle(1,1)", "sd"): (3, 1),
    ("two_plumed_triangle(1,1)", "sa"): (5, 2),
    ("two_plumed_triangle(2,1)", "sd"): (4, 1),
    ("two_plumed_triangle(2,1)", "sa"): (6, 3),
    ("two_plumed_triangle(2,2)", "sd"): (5, 1),
    ("two_plumed_triangle(2,2)", "sa"): (7, 4),
    ("book(2)", "sd"): (4, 2),
    ("book(2)", "sa"): (4, 2),
    ("book(2)", "sdu"): (4, 2),
    ("book(3)", "sd"): (5, 2),
    ("book(3)", "sa"): (5, 2),
    ("book(3)", "sdu"): (5, 1),
    ("plumed_book(2,1)", "sd"): (4, 1),
    ("plumed_book(2,1)", "sa"): (5, 2),
    ("plumed_book(2,1,1)", "sa"): (6, 2),
    ("complete_graph(4)", "sd"): (4, 2),
    ("complete_graph(4)", "sa"): (4, 2),
    ("complete_graph(4)", "sdu"): (4, 2),
    ("friendship3()", "sd"): (7, 2),
    ("friendship3()", "sa"): (7, 1),
    ("bridged_triangles()", "sd"): (6, 3),
    ("bridged_triangles()", "sa"): (6, 1),
    ("dumbbell()", "sd"): (4, 1),
    ("dumbbell()", "sa"): (6, 3),
    ("wing_path()", "sd"): (4, 2),
    ("wing_path()", "sa"): (5, 1),
    ("trimmed_fig5()", "sd"): (4, 1),
    ("trimmed_fig5()", "sa"): (5, 1),
    ("spider()", "sd"): (4, 1),
    ("spider()", "sa"): (6, 3),
    ("asym_wing()", "sd"): (5, 2),
    ("asym_wing()", "sa"): (6, 2),
}


def edge_key(g):
    """The canonical form of a graph's edges as 2-sets over its vertices:
    equal for two graphs without isolated vertices exactly when they are
    isomorphic."""
    return canonical_form(SetRepresentation(
        tuple(range(g.n)), tuple(frozenset(e) for e in g.edges)))


def group_masks(groups):
    """Element groups given as vertex sets, as the oracle carries them:
    one vertex bitmask per group."""
    return tuple(sum(1 << v for v in grp) for grp in groups)


def connected_bases(max_m):
    """The connected graphs with m = 1..max_m edges, one per isomorphism
    class: a dict per m (index m - 1) from ``edge_key`` to graph.

    Each graph with m - 1 edges grows by one edge, between two of its
    vertices or to a new one, and a growth is kept when its key is new:
    isomorph rejection by canonical form, as in canonical augmentation
    (McKay, J. Algorithms 26, 1998).  An automorphism of the graph carries
    a growth onto an isomorphic one, so only the first growth of each
    orbit under the graph's automorphisms is keyed; it is the first of its
    isomorphism class that the graph gives, so each class keeps the graph
    it would keep if every growth were keyed.
    """
    k2 = Graph(("v0", "v1"), ((0, 1),))
    levels = [{edge_key(k2): k2}]
    while len(levels) < max_m:
        level = {}
        for g in levels[-1].values():
            grow = [(u, v) for u in range(g.n) for v in range(u + 1, g.n)
                    if not g.has_edge(u, v)]
            for u, v in first_of_orbits(grow + [(u, g.n) for u in range(g.n)],
                                        _graph_generators(g)):
                h = Graph(tuple(f"v{i}" for i in range(max(g.n, v + 1))),
                          tuple(sorted(g.edges + ((u, v),))))
                level.setdefault(edge_key(h), h)
        levels.append(level)
    return levels


def first_of_orbits(pairs, generators):
    """The vertex pairs of ``pairs`` that come first in their orbit under
    the vertex permutations ``generators``, in their order; a vertex past
    the permutations, a new one, is fixed."""
    seen = set()
    for pair in pairs:
        if pair in seen:
            continue
        yield pair
        seen.add(pair)
        orbit = [pair]
        for u, v in orbit:  # grows as the images are found
            for g in generators:
                image = tuple(sorted(g[w] if w < len(g) else w for w in (u, v)))
                if image not in seen:
                    seen.add(image)
                    orbit.append(image)


def random_graph(rng, max_n=8):
    """A random (possibly disconnected) graph on 2..max_n vertices."""
    n = rng.randint(2, max_n)
    labels = tuple(f"v{i}" for i in range(n))
    edges = []
    for a in range(n):
        for b in range(a + 1, n):
            if rng.random() < 0.4:
                edges.append((a, b))
    return Graph(labels, tuple(edges))


def random_cover(rng, g):
    """A random valid edge-clique cover of ``g``.

    Every edge gets covered, every vertex gets covered; beyond that the
    cover is deliberately messy: overlapping cliques, occasional exact
    duplicates, gratuitous singletons.
    """
    from setrep import CliqueCover

    cliques = []
    todo = list(g.edges)
    rng.shuffle(todo)
    covered = set()
    for u, v in todo:
        if (u, v) in covered and rng.random() < 0.6:
            continue
        clique = {u, v}
        others = [w for w in range(g.n) if w not in clique]
        rng.shuffle(others)
        for w in others:
            if all(g.has_edge(w, x) for x in clique) and rng.random() < 0.5:
                clique.add(w)
        for a in clique:
            for b in clique:
                if a < b:
                    covered.add((a, b))
        cliques.append(frozenset(clique))
    for v in range(g.n):
        if not any(v in q for q in cliques) or rng.random() < 0.15:
            cliques.append(frozenset({v}))
    if cliques and rng.random() < 0.2:
        cliques.append(rng.choice(cliques))
    rng.shuffle(cliques)
    return CliqueCover(g, tuple(cliques))


def build(name):
    """Resolve a LINEGRAPH_EXPECTED key back into a Graph."""
    return eval(  # noqa: S307 - keys are our own literals above
        name,
        {
            "path_graph": path_graph,
            "cycle_graph": cycle_graph,
            "complete_graph": complete_graph,
            "star_graph": star_graph,
            "plumed_triangle": plumed_triangle,
            "two_plumed_triangle": two_plumed_triangle,
            "book": book,
            "plumed_book": plumed_book,
            "friendship3": friendship3,
            "bridged_triangles": bridged_triangles,
            "dumbbell": dumbbell,
            "wing_path": wing_path,
            "trimmed_fig5": trimmed_fig5,
            "spider": spider,
            "asym_wing": asym_wing,
            "cornered_triangle": cornered_triangle,
        },
    )


# -- the reference listing of automorphisms ----------------------------------

def automorphisms(g: Graph, points=None) -> list[tuple[int, ...]]:
    """The distinct permutations that Aut(g) induces on ``points``, sorted,
    as index tuples: entry i is the index of the image of ``points[i]``.
    A point is a vertex as a 1-tuple or an edge as a pair; the default,
    each vertex alone, gives Aut(g).  Automorphisms that carry a point off
    the list are left out.

    Backtracking, the points' vertices first in ascending order, then the
    others by distance from them.  An image keeps its colour (the degree
    split by sorted neighbour colours) and its adjacency to the placed
    vertices, and each placement of the points' vertices is extended
    once.  The colours are refined until stable, a vertex with no placed
    neighbour also keeps its distances to the placed ones, and an
    extension past the points' vertices tries one image per class of
    twins (vertices whose swap is an automorphism).  Do not ask for an
    image as large as Aut(K_n)."""
    n, adj = g.n, g.adj
    if points is None:
        points = [(v,) for v in range(n)]
    if not points:
        return [()]
    moved = set().union(*points)
    k = len(moved)
    order = sorted(moved)
    color, classes = [len(a) for a in adj], 0
    for _ in range(n):
        ids: dict[tuple[int, ...], int] = {}
        color = [ids.setdefault((c, *sorted([color[u] for u in a])), len(ids))
                 for c, a in zip(color, adj)]
        if len(ids) == classes:
            break
        classes = len(ids)

    dists: list[list[int] | None] = [None] * n
    order += sorted(set(range(n)) - moved,
                    key=lambda v: min(_dist(adj, dists, u)[v] for u in moved))
    first: dict[frozenset[int], int] = {}  # open or closed neighbourhoods
    twin = [first.setdefault(a, first.setdefault(a | {v}, v))
            for v, a in enumerate(adj)]
    s = _Placing(adj, color, order, k, twin, dists)
    _place(s, 0)
    index = {pair: i for i, p in enumerate(points)
             for pair in ((p[0], p[-1]), (p[-1], p[0]))}
    perms = {tuple(index.get((sigma[p[0]], sigma[p[-1]])) for p in points)
             for sigma in s.found}
    return sorted(perm for perm in perms if None not in perm)


class _Placing:
    """The state of one :func:`automorphisms` call: the graph's adjacency
    and stable colours, the placing order, the number ``k`` of the points'
    vertices, each vertex's twin class, the distance rows computed so far,
    the partial image and the automorphisms found."""

    __slots__ = ("n", "adj", "color", "order", "k", "twin", "dists", "image",
                 "used", "found")

    def __init__(self, adj, color, order, k, twin, dists):
        self.n = len(adj)
        self.adj, self.color, self.order, self.k = adj, color, order, k
        self.twin, self.dists = twin, dists
        self.image, self.used = [0] * self.n, [False] * self.n
        self.found: list[tuple[int, ...]] = []


def _dist(adj, dists: list, source: int) -> list[int]:
    """Breadth-first distances from ``source``, n where no path; kept in
    ``dists[source]``."""
    row = dists[source]
    if row is None:
        n = len(adj)
        row = [n] * n
        row[source], queue = 0, [source]
        for u in queue:
            for w in adj[u]:
                if row[w] == n:
                    row[w] = row[u] + 1
                    queue.append(w)
        dists[source] = row
    return row


def _place(s: _Placing, i: int) -> bool:
    """Place ``s.order[i]`` in every way that fits; past the points'
    vertices, stop at the first automorphism.  True if one was found."""
    n, adj, color, twin = s.n, s.adj, s.color, s.twin
    image, used = s.image, s.used
    if i == n:
        s.found.append(tuple(image))
        return True
    v, prefix, tried = s.order[i], s.order[:i], set()
    av, dv = adj[v], adj[v].isdisjoint(prefix) and _dist(adj, s.dists, v)
    for w in range(n):
        if used[w] or color[w] != color[v]:
            continue
        if i >= s.k:  # w's twins fit and extend where w does
            if twin[w] in tried:
                continue
            tried.add(twin[w])
        if dv and any(dv[u] != _dist(adj, s.dists, w)[image[u]]
                      for u in prefix):
            continue
        aw = adj[w]
        for u in prefix:
            if (u in av) != (image[u] in aw):
                break
        else:
            image[v], used[w] = w, True
            done = _place(s, i + 1) and i >= s.k
            used[w] = False
            if done:
                return True
    return False
