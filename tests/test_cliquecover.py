"""Clique covers and the cover <-> representation correspondence."""

import json
import random

import pytest

import zoo
from setrep import (
    CliqueCover,
    InvalidCoverError,
    SetRepresentation,
    category_flags,
    complete_graph,
    egp_cover,
    egp_set,
    is_partition,
    path_graph,
    represents,
    silly_partition,
    validate_cover,
)
from setrep.cliquecover import cover_from_json_dict, cover_to_json_dict


def as_multiset(cover):
    return sorted(tuple(sorted(q)) for q in cover.cliques)


def test_silly_partition_shape():
    sp = silly_partition(7)
    validate_cover(sp)
    assert is_partition(sp)
    sizes = sorted(len(q) for q in sp.cliques)
    assert sizes == [1, 1, 1, 1, 1, 1, 7]


def test_silly_partition_needs_a_vertex():
    with pytest.raises(ValueError, match="n must be positive"):
        silly_partition(0)


def test_egp_set_adjacency():
    # labels sort to a..f: triangles {0,1,2} and {3,4,5}, bridge 2-3
    g = zoo.bridged_triangles()
    cov = CliqueCover(
        g, (frozenset({0, 1, 2}), frozenset({3, 4, 5}), frozenset({2, 3}))
    )
    validate_cover(cov)
    rep = egp_set(cov)
    assert represents(rep, g)
    assert category_flags(rep).simple
    assert is_partition(cov)


def test_round_trip_small():
    g = path_graph(4)
    cov = CliqueCover(
        g, (frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}))
    )
    rep = egp_set(cov)
    back = egp_cover(rep, g)
    assert as_multiset(back) == as_multiset(cov)


def test_egp_cover_refusals():
    """A representation that misses an adjacency, or an element that no
    set holds, has no cover."""
    g = path_graph(3)
    with pytest.raises(InvalidCoverError, match="adjacency"):
        egp_cover(SetRepresentation((0, 1), (frozenset({0}), frozenset({1}),
                                            frozenset({1}))), g)
    with pytest.raises(InvalidCoverError, match="element 2 is in no set"):
        egp_cover(SetRepresentation((0, 1, 2), (frozenset({0}),
                                               frozenset({0, 1}),
                                               frozenset({1}))), g)


def test_round_trip_random():
    rng = random.Random(20260817)
    for _ in range(100):
        g = zoo.random_graph(rng)
        cov = zoo.random_cover(rng, g)
        validate_cover(cov)
        rep = egp_set(cov)
        assert represents(rep, g)
        assert as_multiset(egp_cover(rep, g)) == as_multiset(cov)
        assert category_flags(rep).simple == is_partition(cov)


def test_simple_iff_partition():
    g = complete_graph(3)
    partition = CliqueCover(g, (frozenset({0, 1, 2}),))
    assert is_partition(partition)
    assert category_flags(egp_set(partition)).simple
    # cover the edge 0-1 twice: no longer a partition, image not simple
    doubled = CliqueCover(g, (frozenset({0, 1, 2}), frozenset({0, 1})))
    assert not is_partition(doubled)
    assert not category_flags(egp_set(doubled)).simple


@pytest.mark.parametrize(
    "cliques,message",
    [
        ((frozenset(), frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3})), "empty"),
        ((frozenset({0, 9}),), "out of range"),
        ((frozenset({0, 2}), frozenset({1}), frozenset({3})), "non-edge"),
        ((frozenset({0, 1}), frozenset({1, 2}), frozenset({2, 3}), frozenset({17})), "out of range"),
        ((frozenset({0, 1}), frozenset({2, 3})), "not covered"),
        ((frozenset({0, 1}), frozenset({1, 2})), "vertices not covered: v4"),
        ((frozenset({0, 1}), frozenset({1, 2}), frozenset({1, 3})),
         "clique #2 contains the non-edge 'v2'-'v4'"),
    ],
)
def test_validate_cover_rejects(cliques, message):
    g = path_graph(4)
    with pytest.raises(InvalidCoverError, match=message):
        validate_cover(CliqueCover(g, cliques))


def test_cover_json_round_trip(tmp_path):
    g = zoo.wing_path()
    cov = zoo.random_cover(random.Random(7), g)
    data = cover_to_json_dict(cov)
    text = json.dumps(data)  # must be serializable as-is
    again = cover_from_json_dict(json.loads(text))
    assert as_multiset(again) == as_multiset(cov)
    assert again.graph.labels == g.labels


def test_cover_json_reads_its_graph_from_a_path(tmp_path):
    g = zoo.wing_path()
    data = cover_to_json_dict(zoo.random_cover(random.Random(7), g))
    path = tmp_path / "wing.graph"
    path.write_text(data["graph"])
    again = cover_from_json_dict({**data, "graph": str(path)})
    assert again.graph.labels == g.labels
    with pytest.raises(InvalidCoverError, match='"graph" must be edge-list'):
        cover_from_json_dict({**data, "graph": 7})
