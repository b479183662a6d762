import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import zoo
from setrep import (
    SetRepresentation,
    canonical_form,
    category_flags,
    complete_graph,
    cycle_graph,
    egp_set,
    failing_pair,
    fls_to_cover,
    isomorphic,
    near_pencil,
    partition_into_classes,
    path_graph,
    projective_plane,
    represents,
)
from setrep import representations
from setrep.representations import rep_from_json_dict, rep_to_json_dict


def R(*sets):
    universe = tuple(sorted({e for s in sets for e in s}))
    return SetRepresentation(universe, tuple(frozenset(s) for s in sets))


def test_constructor_validation():
    with pytest.raises(ValueError):
        SetRepresentation((1, 1), (frozenset({1}),))
    with pytest.raises(ValueError):
        SetRepresentation((1, 2), (frozenset(),))
    with pytest.raises(ValueError):
        SetRepresentation((1, 2), (frozenset({3}),))


def test_category_flags():
    f = category_flags(R({1, 2}, {2, 3}, {3, 1}))
    assert f.distinct and f.antichain and f.uniform and f.simple
    # duplicate sets: uniform and simple survive, the other two fall
    f = category_flags(R({1}, {1}))
    assert not f.distinct and not f.antichain and f.uniform and f.simple
    # containment without equality
    f = category_flags(R({1}, {1, 2}))
    assert f.distinct and not f.antichain and not f.uniform and f.simple
    # a fat intersection
    f = category_flags(R({1, 2, 3}, {1, 2, 4}))
    assert f.distinct and f.antichain and f.uniform and not f.simple


def test_represents():
    p3 = path_graph(3)
    assert represents(R({1}, {1, 2}, {2}), p3)
    # sets for the two path ends must not meet
    assert not represents(R({1}, {1, 2}, {2, 1}), p3)
    # wrong number of sets
    assert not represents(R({1}, {1}), p3)
    k3 = complete_graph(3)
    assert represents(R({1}, {1}, {1}), k3)


def test_failing_pair_names_the_first_disagreement():
    p3 = path_graph(3)
    assert failing_pair(R({1}, {1, 2}, {2}), p3) is None
    # the ends meet though they are not adjacent
    assert failing_pair(R({1}, {1, 2}, {2, 1}), p3) == (0, 2)
    # the first pair fails by missing an edge, and comes first
    assert failing_pair(R({1}, {2}, {1, 2}), p3) == (0, 1)


def test_satisfies_rejects_an_unknown_letter():
    with pytest.raises(ValueError, match="unknown category 'x'"):
        category_flags(R({1})).satisfies("x")


def test_isomorphic_relabel():
    a = R({1, 2}, {2, 3}, {3, 1})
    b = R({5, 9}, {9, 7}, {7, 5})
    assert isomorphic(a, b)
    assert not isomorphic(a, R({1, 2}, {2, 3}, {3, 4}))


def test_isomorphic_ignores_set_order():
    # the comparison is on the multiset of sets, not the vertex binding
    a = R({1}, {1, 2}, {2, 3})
    b = R({2, 3}, {1}, {1, 2})
    assert isomorphic(a, b)


def test_partition_into_classes():
    a = R({1, 2}, {2, 3}, {3, 1})        # triangle of 2-sets
    b = R({4, 8}, {8, 6}, {6, 4})        # same shape, new names
    c = R({1}, {1, 2}, {2, 3})           # a different profile
    groups = partition_into_classes([a, b, c])
    assert sorted(map(sorted, groups)) == [[0, 1], [2]]


# -- canonical form invariance ------------------------------------------------

@st.composite
def rep_and_bijection(draw):
    p = draw(st.integers(min_value=1, max_value=6))
    k = draw(st.integers(min_value=1, max_value=5))
    sets = [
        frozenset(draw(st.sets(st.integers(0, p - 1), min_size=1, max_size=p)))
        for _ in range(k)
    ]
    universe = sorted({e for s in sets for e in s})
    rep = SetRepresentation(tuple(universe), tuple(sets))
    fresh = draw(st.permutations(range(100)))
    mapping = {u: fresh[i] for i, u in enumerate(universe)}
    order = draw(st.permutations(range(k)))
    return rep, mapping, order


@given(rep_and_bijection())
@settings(max_examples=200, deadline=None)
def test_canonical_form_invariant(data):
    rep, mapping, order = data
    moved = SetRepresentation(
        tuple(sorted(mapping.values())),
        tuple(frozenset(mapping[e] for e in rep.sets[i]) for i in order),
    )
    assert canonical_form(moved) == canonical_form(rep)
    assert isomorphic(rep, moved)


def test_canonical_form_separates():
    assert canonical_form(R({1}, {1, 2})) != canonical_form(R({1}, {2}))


def brute_isomorphic(a, b):
    """Some universe bijection carries a's multiset of sets onto b's?

    Every bijection is tried, element by element: a partial map is dropped
    as soon as a set of a whose elements are all mapped has no unused
    equal image among b's sets, counting multiplicity."""
    if len(a.universe) != len(b.universe) or len(a.sets) != len(b.sets):
        return False
    at = {e: i for i, e in enumerate(a.universe)}
    closed_by = [[] for _ in a.universe]  # the sets whose last element is i
    for s in a.sets:
        closed_by[max(map(at.__getitem__, s))].append(s)
    free = Counter(b.sets)
    move = {}

    def place(i):
        if i == len(a.universe):
            return True
        for y in set(b.universe) - set(move.values()):
            move[a.universe[i]] = y
            taken = []
            for s in closed_by[i]:
                image = frozenset(map(move.__getitem__, s))
                if not free[image]:
                    break
                free[image] -= 1
                taken.append(image)
            else:
                if place(i + 1):
                    return True
            free.update(taken)
        move.pop(a.universe[i], None)
        return False

    return place(0)


def edge_system(g):
    return SetRepresentation(tuple(range(g.n)),
                             tuple(frozenset(e) for e in g.edges))


def set_system_pairs():
    """Seeded pairs over universes of at most 5 elements: relabelled
    copies, copies with one element moved, and unrelated systems of the
    same shape; then pairs colour refinement cannot split."""
    rng = random.Random(1981)
    for _ in range(400):
        p = rng.randint(1, 5)
        k = rng.randint(1, 5)
        sets = [frozenset(rng.sample(range(p), rng.randint(1, p)))
                for _ in range(k)]
        a = SetRepresentation(tuple(range(p)), tuple(sets))
        labels = rng.sample(range(10, 30), p)
        moved = [frozenset(labels[e] for e in s) for s in sets]
        rng.shuffle(moved)
        kind = rng.randrange(3)
        if kind == 1:
            j = rng.randrange(k)
            swap = set(moved[j]) ^ {rng.choice(labels)}
            if swap:
                moved[j] = frozenset(swap)
        elif kind == 2:
            moved = [frozenset(rng.sample(labels, len(s))) for s in sets]
        yield a, SetRepresentation(tuple(sorted(labels)), tuple(moved))
    c6, two_c3 = edge_system(cycle_graph(6)), R({0, 1}, {1, 2}, {2, 0},
                                               {3, 4}, {4, 5}, {5, 3})
    yield c6, two_c3
    yield two_c3, two_c3
    yield c6, edge_system(cycle_graph(6))
    # 3-regular on six points: the prism against K3,3
    prism = R({0, 1}, {1, 2}, {2, 0}, {3, 4}, {4, 5}, {5, 3},
              {0, 3}, {1, 4}, {2, 5})
    k33 = R(*({a, b} for a in (0, 1, 2) for b in (3, 4, 5)))
    yield prism, k33
    yield cycle_union(6, 3), cycle_union(5, 4)


def test_canonical_form_decides_isomorphism():
    """Equal forms exactly when a brute force over all universe
    bijections finds an isomorphism."""
    seen = Counter()
    for a, b in set_system_pairs():
        expect = brute_isomorphic(a, b)
        seen[expect] += 1
        assert (canonical_form(a) == canonical_form(b)) == expect, (a, b)
    assert min(seen.values()) >= 50  # both answers well represented


def _incidence_views(ls):
    """A linear space as points-in-lines (the EGP set) and as its dual,
    lines-of-points."""
    return (egp_set(fls_to_cover(ls)),
            SetRepresentation(tuple(range(ls.points)),
                              tuple(frozenset(line) for line in ls.lines)))


GEOMETRIES = [near_pencil(n) for n in range(5, 10)] + \
    [projective_plane(2), projective_plane(3)]


def cycle_union(*lengths):
    """Edges of disjoint cycles as one set system: every element looks
    alike to colour refinement, yet the cycles are not alike."""
    sets, start = [], 0
    for k in lengths:
        sets += [frozenset({start + i, start + (i + 1) % k}) for i in range(k)]
        start += k
    return SetRepresentation(tuple(range(start)), tuple(sets))


# the cycle unions' cells mix elements of unlike cycles, so their leaves
# are not all automorphic
RELABELLED = [pytest.param(ls.points, _incidence_views(ls), id=name)
              for ls, name in zip(GEOMETRIES,
                                  [f"near_pencil({n})" for n in range(5, 10)]
                                  + ["plane(2)", "plane(3)"])] + \
    [pytest.param(sum(ks), (cycle_union(*ks),), id=f"cycle_union{ks}")
     for ks in ((4, 3, 3), (5, 4, 3), (6, 3))]


@pytest.mark.parametrize("seed,reps", RELABELLED)
def test_canonical_form_invariant_on_geometries(seed, reps):
    """Highly symmetric inputs, where automorphism pruning does most of
    its work, and unions of cycles, where the walk also meets leaves
    that are not automorphic: the form survives 20 random
    relabellings."""
    rng = random.Random(seed)
    for rep in reps:
        want = canonical_form(rep)
        for _ in range(20):
            labels = rng.sample(range(1000), len(rep.universe))
            move = dict(zip(rep.universe, labels))
            sets = [frozenset(move[e] for e in s) for s in rep.sets]
            rng.shuffle(sets)
            moved = SetRepresentation(tuple(sorted(labels)), tuple(sets))
            assert canonical_form(moved) == want


def exhaustive_form(rep):
    """The least leaf encoding over the whole search tree, walked with no
    pruning at all: every element of the first cell held twice is
    individualised in turn, down to every discrete colouring."""
    n = len(rep.universe)
    index = {e: i for i, e in enumerate(rep.universe)}
    set_elems = [[index[e] for e in s] for s in rep.sets]
    membership = [[j for j, elems in enumerate(set_elems) if e in elems]
                  for e in range(n)]
    leaves = []

    def walk(colors):
        colors = representations._refine(colors, membership, set_elems)
        held = Counter(colors)
        twice = [c for c in range(n) if held[c] > 1]
        if not twice:
            leaves.append(tuple(sorted(tuple(sorted(colors[e] for e in s))
                                       for s in set_elems)))
            return
        cell = twice[0]
        for chosen in (e for e in range(n) if colors[e] == cell):
            # the chosen element just below the rest of its cell
            walk([c + (c > cell) + (c == cell and e != chosen)
                  for e, c in enumerate(colors)])

    walk([0] * n)
    return (n, len(set_elems), min(leaves))


def test_pruning_keeps_the_form():
    """The pruned walk, with its orbit skips and its jumps back from
    automorphic leaves, returns the minimum of the walk with no pruning.
    Each input is also relabelled, which reorders its elements, and must
    keep its form."""
    rng = random.Random(2014)
    # in the last two, a cell of the second level holds elements of two
    # different cycles, so leaves below it differ
    reps = [cycle_union(*ks) for ks in ((3, 6), (6, 3), (4, 5), (3, 4),
                                        (4, 3, 3), (5, 4, 3))]
    reps += [view for n in (5, 6) for view in
             _incidence_views(near_pencil(n))]
    reps += list(_incidence_views(projective_plane(2)))
    for _ in range(200):
        p = rng.randint(2, 8)
        reps.append(SetRepresentation(tuple(range(p)), tuple(
            frozenset(rng.sample(range(p), rng.randint(1, min(3, p))))
            for _ in range(rng.randint(2, 9)))))
    relabelled = []
    for rep in reps:
        labels = rng.sample(range(100), len(rep.universe))
        move = dict(zip(rep.universe, labels))
        relabelled.append(SetRepresentation(
            tuple(sorted(labels)),
            tuple(frozenset(move[e] for e in s) for s in rep.sets)))
    pruned = [canonical_form(rep) for rep in reps]
    assert [canonical_form(rep) for rep in relabelled] == pruned
    assert [exhaustive_form(rep) for rep in relabelled] == pruned


def star_system(k):
    """The sd solution of a star: the centre holds every element, each
    leaf one."""
    return R(set(range(k)), *({e} for e in range(k)))


@pytest.mark.parametrize("reps,ceiling", [
    (_incidence_views(near_pencil(9)), 36),
    (_incidence_views(projective_plane(3)), 27),
    ([star_system(12)], 78),
    ([edge_system(complete_graph(8))], 36),
], ids=["near_pencil(9)", "plane(3)", "star(12)", "K8"])
def test_refine_calls_ceiling(reps, ceiling, monkeypatch):
    """Automorphism pruning keeps the search tree small: without it
    near_pencil(9) took 69,281 refinements and the plane of order 3 took
    8,906.  Jumping back from each automorphic leaf to where its path
    leaves the earlier leaf's cuts the rest: with orbit skips alone these
    inputs took 92 (each view), 71, 298 and 92.  The 12-leaf star walks
    its first path (12 nodes), then from each of its 11 branching depths
    one path down to an automorphic leaf (11 + 10 + ... + 1 nodes)."""
    calls = 0
    refine = representations._refine

    def counted(*args):
        nonlocal calls
        calls += 1
        return refine(*args)

    monkeypatch.setattr(representations, "_refine", counted)
    for rep in reps:
        calls = 0
        canonical_form(rep)
        assert calls <= ceiling


def test_canonical_form_of_the_empty_structure():
    assert canonical_form(SetRepresentation((), ())) == (0, 0, ())


def test_orbit_computed_at_most_once_per_walked_child(monkeypatch):
    """Keying the sd solution of a star (the centre holds every element,
    each leaf one) skips all but one candidate of each cell; the orbit
    that decides the skips is computed once per walked child, not once
    per candidate.  Each walk refines once, the root's walk included."""
    counts = Counter()

    def counted(name):
        real = getattr(representations, name)

        def wrapper(*args):
            counts[name] += 1
            return real(*args)
        return wrapper

    for name in ("_refine", "_orbit"):
        monkeypatch.setattr(representations, name, counted(name))
    canonical_form(star_system(12))
    assert counts["_orbit"] <= counts["_refine"] - 1


def test_rep_json_rejects_mismatched_labels():
    rep = R({1}, {1, 2})
    with pytest.raises(ValueError, match="label count"):
        rep_to_json_dict(rep, ["a"])
    data = rep_to_json_dict(rep, ["a", "b"])
    with pytest.raises(ValueError, match=r"missing \['c'\], "
                       r"unexpected \['b'\]"):
        rep_from_json_dict(data, ["a", "c"])


def test_rep_json_round_trip():
    g = zoo.dumbbell()
    rep = egp_set(zoo.random_cover(random.Random(3), g))
    data = rep_to_json_dict(rep, g.labels)
    text = json.dumps(data)
    assert rep_from_json_dict(json.loads(text), g.labels) == rep
