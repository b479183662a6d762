"""Simple undirected graphs: parsing, basic queries, and line graphs.

The text format understood by :func:`parse_graph` is a plain edge list::

    # comment lines start with '#'
    3 3
    a b
    b c
    c a

The header gives the vertex and edge counts; each following line names one
edge by its two endpoint labels.  Labels are arbitrary non-whitespace
tokens.  Vertices are numbered 0..n-1 in order of first appearance.
"""

from __future__ import annotations

from .errors import DuplicateEdgeError, GraphFormatError, SelfLoopError


class Graph:
    """An undirected graph with string-labelled vertices.

    Vertices are identified by index internally; ``labels[i]`` is the
    display name of vertex ``i``.  Edges keep the orientation they were
    given in (useful for stable line-graph labels) but are unordered for
    all structural purposes.
    """

    __slots__ = ("labels", "edges", "adj", "_index")

    def __init__(self, labels: tuple[str, ...],
                 edges: tuple[tuple[int, int], ...]):
        self.labels = labels
        self.edges = edges
        adj: list[set[int]] = [set() for _ in labels]
        for u, v in edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adj: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._index = {lab: i for i, lab in enumerate(labels)}

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def m(self) -> int:
        return len(self.edges)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise GraphFormatError(f"unknown vertex label {label!r}") from None

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def degree_sequence(self) -> tuple[int, ...]:
        return tuple(sorted(len(a) for a in self.adj))

    def is_connected(self) -> bool:
        if self.n == 0:
            return True
        seen = {0}
        stack = [0]
        while stack:
            u = stack.pop()
            for w in self.adj[u]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.n

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def parse_graph(text: str) -> Graph:
    """Parse edge-list text into a :class:`Graph`.

    Raises
    ------
    GraphFormatError
        On a malformed header, a wrong edge count, or fewer/more distinct
        labels than the header promises.
    SelfLoopError, DuplicateEdgeError
        On an edge ``x x`` or a repeated unordered pair.
    """
    rows: list[list[str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            rows.append(line.split())

    if not rows:
        raise GraphFormatError("empty input: expected an 'n m' header line")
    header = rows[0]
    if len(header) != 2:
        raise GraphFormatError(
            f"header must be two integers 'n m', got {' '.join(header)!r}")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise GraphFormatError(
            f"header must be two integers 'n m', got {' '.join(header)!r}"
        ) from None
    if n < 1 or m < 0:
        raise GraphFormatError(f"header out of range: n={n}, m={m}")

    body = rows[1:]
    if len(body) != m:
        raise GraphFormatError(
            f"header promises {m} edges but {len(body)} edge lines follow")

    labels: list[str] = []
    index: dict[str, int] = {}

    def vertex(tok: str) -> int:
        if tok not in index:
            index[tok] = len(labels)
            labels.append(tok)
        return index[tok]

    edges: list[tuple[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for row in body:
        if len(row) != 2:
            raise GraphFormatError(
                f"edge line must name two vertices, got {' '.join(row)!r}")
        u, v = vertex(row[0]), vertex(row[1])
        if u == v:
            raise SelfLoopError(f"self-loop at vertex {row[0]!r}")
        key = (u, v) if u < v else (v, u)
        if key in seen:
            raise DuplicateEdgeError(
                f"edge {row[0]!r} {row[1]!r} appears more than once")
        seen.add(key)
        edges.append((u, v))

    if len(labels) != n:
        raise GraphFormatError(
            f"header promises {n} vertices but the edges mention {len(labels)} "
            "distinct labels (isolated vertices cannot be expressed)")

    return Graph(tuple(labels), tuple(edges))


def format_graph(g: Graph) -> str:
    """Inverse of :func:`parse_graph` (up to comments and whitespace)."""
    lines = [f"{g.n} {g.m}"]
    lines += [f"{g.labels[u]} {g.labels[v]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


def line_graph(g: Graph) -> tuple[Graph, tuple[frozenset[int], ...]]:
    """The line graph of ``g`` and the stars of ``g``.

    Vertex i of the line graph is edge i of ``g``, labelled ``"u-v"`` in
    the orientation the edge was given.  ``stars[v]`` holds the indices of
    the edges at base vertex v, and two edges are adjacent exactly when
    they lie in one star.  The line graph's edges are the pairs (i, j),
    i < j, in ascending order.
    """
    stars: list[list[int]] = [[] for _ in g.labels]
    for i, (u, v) in enumerate(g.edges):
        stars[u].append(i)
        stars[v].append(i)
    labels = tuple(f"{g.labels[u]}-{g.labels[v]}" for u, v in g.edges)
    edges = tuple((i, j) for i, (u, v) in enumerate(g.edges)
                  for j in sorted(stars[u] + stars[v]) if j > i)
    return Graph(labels, edges), tuple(map(frozenset, stars))


# -- small builders used throughout the test-suite and CLI examples --------

def complete_graph(n: int) -> Graph:
    labels = tuple(f"v{i + 1}" for i in range(n))
    edges = tuple((i, j) for i in range(n) for j in range(i + 1, n))
    return Graph(labels, edges)


def path_graph(n: int) -> Graph:
    labels = tuple(f"v{i + 1}" for i in range(n))
    return Graph(labels, tuple((i, i + 1) for i in range(n - 1)))


def cycle_graph(n: int) -> Graph:
    labels = tuple(f"v{i + 1}" for i in range(n))
    return Graph(labels, tuple((i, (i + 1) % n) for i in range(n)))


def star_graph(leaves: int) -> Graph:
    """The star with one hub and ``leaves`` pendant vertices."""
    labels = ("hub",) + tuple(f"u{i + 1}" for i in range(leaves))
    return Graph(labels, tuple((0, i + 1) for i in range(leaves)))


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
