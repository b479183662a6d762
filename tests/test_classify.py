"""Base-graph classification: kinds, counts, wings."""

from dataclasses import fields

import pytest

import zoo
from setrep import (
    Classification,
    Graph,
    SearchBudget,
    classify,
    complete_graph,
    cycle_graph,
    find_semiwings,
    find_wings,
    line_graph,
    oracle_search,
    path_graph,
    star_graph,
    theta_tau_linegraph,
    witness_sa,
    witness_sd,
)


KINDS = [
    (complete_graph(3), "K3"),
    (complete_graph(4), "K4"),
    (star_graph(4), "star"),
    (path_graph(4), "generic"),
    (cycle_graph(5), "generic"),
    (zoo.plumed_triangle(1), "TP1"),
    (zoo.plumed_triangle(2), "TP1"),
    (zoo.two_plumed_triangle(1, 1), "TP2"),
    (zoo.two_plumed_triangle(2, 2), "TP2"),
    (zoo.book(2), "W_t"),
    (zoo.book(3), "W_t"),
    (zoo.plumed_book(2, 1), "TPd1"),
    (zoo.plumed_book(2, 1, 1), "TPd2"),
    (zoo.friendship3(), "3K2+K1"),
    (zoo.bridged_triangles(), "generic"),
    (zoo.dumbbell(), "generic"),
    (zoo.wing_path(), "generic"),
    (zoo.trimmed_fig5(), "generic"),
    (zoo.spider(), "generic"),
    (zoo.asym_wing(), "generic"),
    (zoo.cornered_triangle(), "generic"),
    # a windmill whose fan, not its spine, carries the plume
    (zoo.from_edges([("u", "v"), ("u", "f0"), ("v", "f0"), ("u", "f1"),
                     ("v", "f1"), ("f0", "p")]), "generic"),
]


@pytest.mark.parametrize("graph,kind", KINDS, ids=[k + str(i) for i, (_, k) in enumerate(KINDS)])
def test_kind(graph, kind):
    assert classify(graph).kind == kind


def test_book_t():
    assert classify(zoo.book(2)).t == 2
    assert classify(zoo.book(3)).t == 3


def test_star_degree():
    assert classify(star_graph(5)).star_degree == 5


def test_gamma_formulas():
    # gamma = inland vertices plus one element per pendant; gamma' adds
    # one extra element per critical vertex
    c = classify(zoo.dumbbell())
    assert c.gamma == 0 + 4  # no inland vertices, four pendants
    assert c.gamma_prime == c.gamma + 2
    c = classify(zoo.spider())
    assert c.gamma == 0 + 4
    assert c.gamma_prime == 6
    c = classify(path_graph(5))
    assert c.gamma == 1 + 2
    assert c.gamma_prime == 5
    c = classify(cycle_graph(6))
    assert c.gamma == 6 and c.gamma_prime == 6


def test_critical_and_inland():
    g = zoo.spider()  # labels p1 p2 p3 u v w sorted
    c = classify(g)
    crit = {g.labels[v]: m for v, m in c.critical}
    assert crit == {"v": 3, "u": 1}
    assert [g.labels[v] for v in c.inland] == []
    c4 = classify(cycle_graph(4))
    assert c4.critical == () and len(c4.inland) == 4


def test_plume_counts():
    c = classify(zoo.two_plumed_triangle(2, 1))
    assert c.plume_counts == (2, 1)
    assert len(c.plumed_vertices) == 2


def test_wings():
    g = zoo.wing_path()
    c = classify(g)
    assert len(c.wings) == 1
    stalk, x, y = c.wings[0]
    assert g.labels[stalk] == "v"
    assert {g.labels[x], g.labels[y]} == {"x", "y"}
    assert c.three_wing_stalks == (stalk,)

    both = classify(zoo.bridged_triangles())
    assert len(both.wings) == 2 and len(both.three_wing_stalks) == 2

    # the K4-with-a-pendant triangle block has three high-degree corners,
    # so nothing there is a wing
    assert classify(zoo.trimmed_fig5()).wings == ()


def test_three_wing_needs_degree_exactly_three():
    # asym_wing's stalk has degree 3 -> a 3-wing; give it one more pendant
    # and the wing survives but stops being a 3-wing
    g = zoo.asym_wing()
    assert len(classify(g).three_wing_stalks) == 1
    fatter = zoo.from_edges(
        [("v1", "p1"), ("v1", "p2"), ("v1", "c"), ("c", "d"), ("c", "e"),
         ("d", "e"), ("c", "extra")]
    )
    c = classify(fatter)
    assert len(c.wings) == 1 and c.three_wing_stalks == ()


def test_semiwings():
    # in the plumed triangle the two bare corners have degree 2: the
    # triangle is a semiwing (exactly one vertex of degree 2 fails; here
    # two vertices have degree 2 so it is not)
    g = zoo.wing_path()
    assert find_wings(g) == classify(g).wings
    assert find_semiwings(zoo.two_plumed_triangle(1, 1)) != ()
    assert find_semiwings(zoo.bridged_triangles()) == ()


def test_classify_rejects_edgeless_and_disconnected():
    """Every call refuses, not only the first: a refusal is not kept."""
    for g, match in ((Graph(("a",), ()), "edge"),
                     (Graph(("a", "b", "c"), ((0, 1),)), "connected")):
        for call in (classify, lambda b: theta_tau_linegraph(b, "sd"),
                     witness_sd) * 2:
            misses = classify.cache_info().misses
            with pytest.raises(ValueError, match=match):
                call(g)
            assert classify.cache_info().misses == misses + 1


def test_a_run_of_public_calls_derives_the_base_once():
    """classify, both closed forms, both witnesses and the oracle's base
    check share one classification and one line graph of the base."""
    base = zoo.spider()
    before = line_graph.cache_info(), classify.cache_info()
    cls = classify(base)
    for category in ("sd", "sa"):
        theta_tau_linegraph(base, category)
    witness_sd(base)
    witness_sa(base)
    oracle_search(line_graph(base)[0], "sd",
                  SearchBudget(max_universe=cls.gamma), base=base)
    after = line_graph.cache_info(), classify.cache_info()
    assert [a.misses - b.misses for a, b in zip(after, before)] == [1, 1]
    assert classify(base) is cls


def test_classify_keeps_only_the_last_base():
    """A second base replaces the entry; the first base's classification
    is derived again, unchanged."""
    first, second = zoo.spider(), zoo.wing_path()
    cls = classify(first)
    classify(second)
    info = classify.cache_info()
    assert info.currsize == 1
    again = classify(first)
    assert classify.cache_info().misses == info.misses + 1
    assert again is not cls and again == cls


def test_memoised_classify_equals_a_fresh_classification():
    for level in zoo.connected_bases(6):
        for g in level.values():
            cls, fresh = classify(g), classify.__wrapped__(g)
            for field in fields(Classification):
                assert (getattr(cls, field.name)
                        == getattr(fresh, field.name)), field.name
