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

from dataclasses import dataclass

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

    def neighbors(self, v: int) -> frozenset[int]:
        return self.adj[v]

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


@dataclass(frozen=True)
class LineGraphMap:
    """Correspondence between a graph and its line graph.

    Line-graph vertex ``i`` is base edge ``i`` (same indexing), so the
    translation both ways is just an index lookup.
    """

    base: Graph
    line: Graph

    def edge_of(self, line_vertex: int) -> tuple[int, int]:
        """Base edge (endpoint pair) behind a line-graph vertex."""
        return self.base.edges[line_vertex]

    def vertex_of(self, u: int, v: int) -> int:
        """Line-graph vertex behind a base edge, either orientation."""
        for i, (a, b) in enumerate(self.base.edges):
            if (a, b) == (u, v) or (a, b) == (v, u):
                return i
        raise GraphFormatError(
            f"no edge {self.base.labels[u]!r}-{self.base.labels[v]!r} in base graph")


def line_graph(g: Graph) -> tuple[Graph, LineGraphMap]:
    """Build the line graph of ``g``.

    Vertices of the result are the edges of ``g`` (labelled ``"u-v"`` in
    the orientation the edge was given); two are adjacent exactly when
    the base edges share an endpoint.
    """
    labels = tuple(f"{g.labels[u]}-{g.labels[v]}" for u, v in g.edges)
    edges: list[tuple[int, int]] = []
    for i in range(g.m):
        a, b = g.edges[i]
        for j in range(i + 1, g.m):
            c, d = g.edges[j]
            if a == c or a == d or b == c or b == d:
                edges.append((i, j))
    lg = Graph(labels, tuple(edges))
    return lg, LineGraphMap(base=g, line=lg)


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


def automorphisms(g: Graph, colors=None) -> list[tuple[int, ...]]:
    """All automorphisms of ``g`` as vertex permutation tuples, in
    lexicographic order; with ``colors``, only those that keep each
    vertex's colour.  Backtracking over an invariant colouring, for small
    graphs: do not call it on complete graphs (n! results)."""
    n = g.n
    # invariant: (colour, degree, sorted neighbour degrees)
    color = [(colors[v] if colors is not None else None, g.degree(v),
              tuple(sorted(g.degree(u) for u in g.adj[v])))
             for v in range(n)]
    adj = g.adj
    image = [0] * n
    used = [False] * n
    out: list[tuple[int, ...]] = []

    def place(v: int) -> None:
        if v == n:
            out.append(tuple(image))
            return
        for w in range(n):
            if used[w] or color[w] != color[v]:
                continue
            for u in range(v):
                if (u in adj[v]) != (image[u] in adj[w]):
                    break
            else:
                image[v] = w
                used[w] = True
                place(v + 1)
                used[w] = False

    place(0)
    return out
