import itertools
import random
import time

import pytest

import zoo
from setrep import (
    DuplicateEdgeError,
    GraphFormatError,
    SelfLoopError,
    complete_graph,
    cycle_graph,
    format_graph,
    line_graph,
    parse_graph,
    path_graph,
    star_graph,
)
from setrep.graphs import automorphisms


def test_parse_basic():
    g = parse_graph("4 3\na b\nb c\nc d\n")
    assert g.n == 4 and g.m == 3
    assert g.labels == ("a", "b", "c", "d")
    assert g.has_edge(g.index("a"), g.index("b"))
    assert not g.has_edge(g.index("a"), g.index("c"))


def test_parse_comments_and_blank_lines():
    text = "# a path\n3 2\n\nx y\n# middle\ny z\n"
    g = parse_graph(text)
    assert g.n == 3 and g.m == 2


def test_format_round_trip():
    # label order may differ after the trip; the edge set, read as label
    # pairs, may not
    for g in (path_graph(5), cycle_graph(6), zoo.friendship3(), star_graph(4)):
        again = parse_graph(format_graph(g))
        assert sorted(again.labels) == sorted(g.labels)
        pairs = {frozenset((g.labels[a], g.labels[b])) for a, b in g.edges}
        assert {frozenset((again.labels[a], again.labels[b])) for a, b in again.edges} == pairs


@pytest.mark.parametrize(
    "text",
    [
        "",  # no header
        "2 1\n",  # missing edge lines
        "2 1\na b\nb c\n",  # too many edges
        "1 0\na b\n",  # header disagrees
        "nonsense\n",
        "3 2\na\nb c\n",  # malformed edge line
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(GraphFormatError):
        parse_graph(text)


def test_parse_rejects_self_loop():
    with pytest.raises(SelfLoopError):
        parse_graph("2 1\na a\n")


def test_parse_rejects_duplicate_edge():
    with pytest.raises(DuplicateEdgeError):
        parse_graph("2 2\na b\nb a\n")


def test_builders():
    k5 = complete_graph(5)
    assert k5.m == 10
    assert all(d == 4 for d in k5.degree_sequence())
    s = star_graph(6)
    assert s.n == 7 and s.m == 6
    assert sorted(s.degree_sequence()) == [1] * 6 + [6]
    c = cycle_graph(5)
    assert c.n == 5 and c.m == 5
    p = path_graph(4)
    assert p.n == 4 and p.m == 3
    assert p.is_connected()


def test_line_graph_matches_definition():
    # adjacency in the line graph must be exactly "the base edges share
    # an endpoint", for every pair, on a varied sample
    for g in (path_graph(5), cycle_graph(6), complete_graph(4), zoo.spider(),
              zoo.bridged_triangles(), zoo.friendship3()):
        lg, mapping = line_graph(g)
        assert mapping.base is g and mapping.line is lg
        assert lg.n == g.m
        for i, j in itertools.combinations(range(g.m), 2):
            share = bool(set(g.edges[i]) & set(g.edges[j]))
            assert lg.has_edge(i, j) == share


def test_line_graph_shapes():
    # L(P_n) = P_{n-1}, L(C_n) = C_n, L(K_{1,n}) = K_n
    lp, _ = line_graph(path_graph(6))
    assert sorted(lp.degree_sequence()) == sorted(path_graph(5).degree_sequence())
    lc, _ = line_graph(cycle_graph(7))
    assert sorted(lc.degree_sequence()) == [2] * 7 and lc.is_connected()
    lstar, _ = line_graph(star_graph(5))
    assert lstar.m == 10  # K5
    # L(K4) is the octahedron: 6 vertices, 4-regular, 12 edges
    lk4, _ = line_graph(complete_graph(4))
    assert lk4.n == 6 and lk4.m == 12
    assert all(d == 4 for d in lk4.degree_sequence())


def test_line_graph_labels_are_base_edges():
    g = zoo.from_edges([("a", "b"), ("b", "c")])
    lg, _ = line_graph(g)
    assert lg.labels == ("a-b", "b-c")


def brute_automorphisms(g):
    edges = {frozenset(e) for e in g.edges}
    return [p for p in itertools.permutations(range(g.n))
            if {frozenset((p[u], p[v])) for u, v in g.edges} == edges]


def brute_projection(g, points):
    """The brute-force automorphisms that map ``points`` onto points,
    projected onto them as index tuples, deduplicated and sorted."""
    at = {frozenset(q): i for i, q in enumerate(points)}
    images = [tuple(at.get(frozenset(p[v] for v in q)) for q in points)
              for p in brute_automorphisms(g)]
    return sorted({img for img in images if None not in img})


def test_automorphisms_match_brute_force():
    """Every vertex permutation that preserves the edges, in lexicographic
    order, on seeded graphs with at most 7 vertices.  With the edges or
    each of three seeded vertex subsets as points, the distinct
    permutations of the points that those automorphisms induce, keeping
    the automorphisms that map points onto points."""
    rng = random.Random(1981)
    graphs = [cycle_graph(6), star_graph(4), path_graph(5)]
    graphs += [zoo.random_graph(rng, max_n=7) for _ in range(25)]
    for g in graphs:
        assert automorphisms(g) == brute_automorphisms(g), g.edges
        subsets = [[(v,) for v in rng.sample(range(g.n), rng.randint(0, g.n))]
                   for _ in range(3)]
        for points in [list(g.edges)] + subsets:
            assert automorphisms(g, points=points) == \
                brute_projection(g, points), (g.edges, points)


def test_failed_extension_tries_one_image_per_twin_class():
    """Two arms a - x1 - v1 - w1 - u1 - y1 - b and a - x2 - … - c, with 10
    pendants at each of x1 and x2.  For the swap of b and c the search
    first sends x1 to itself, places the pendants, which are nearer the
    points than w1 and w2, and fails at w1.  Pendants at one vertex are
    twins, so the failed branch tries one image for each instead of
    10! · 10! orderings."""
    edges = []
    for i, end in ((1, "b"), (2, "c")):
        arm = ["a"] + [f"{x}{i}" for x in "xvwuy"] + [end]
        edges += list(zip(arm, arm[1:]))
        edges += [(f"x{i}", f"x{i}.{j}") for j in range(10)]
    g = zoo.from_edges(edges)
    points = [(g.labels.index(v),) for v in ("a", "b", "c")]
    start = time.monotonic()
    assert automorphisms(g, points=points) == [(0, 1, 2), (0, 2, 1)]
    assert time.monotonic() - start < 5.0
