"""Closed-form theta/tau dispatch and the witness constructions.

The expected values here were frozen from exhaustive oracle runs; the
oracle agreement itself is re-checked in test_acceptance.py.  This file
pins the dispatch table, provenance strings, symbolic fallbacks, and the
witness builders.
"""

import random

import pytest

import zoo
from setrep import (
    Graph,
    TheoremNotApplicable,
    category_flags,
    classify,
    complete_graph,
    isomorphic,
    line_graph,
    represents,
    star_graph,
    theta_tau_complete,
    theta_tau_linegraph,
    witness_sa,
    witness_sa_variants,
    witness_sd,
    witness_sd_variants,
)
from setrep.graphs import automorphisms
from setrep.theorems import _core_site_permutations

# -- complete graphs -----------------------------------------------------------

COMPLETE_EXACT = [
    # n, category, theta, tau
    (1, "sd", 1, 1), (1, "sa", 1, 1), (1, "sdu", 1, 1),
    (2, "sd", 2, 1), (2, "sa", 3, 1), (2, "sdu", 3, 1),
    (3, "sd", 3, 2), (3, "sa", 3, 1), (3, "sdu", 3, 1),
    (4, "sd", 4, 2), (4, "sa", 4, 1), (4, "sdu", 5, 1),
    (5, "sd", 5, 2), (5, "sa", 5, 1), (5, "sdu", 6, 1),
    (6, "sd", 6, 2), (6, "sa", 6, 1), (6, "sdu", 7, 2),
    (7, "sd", 7, 3), (7, "sa", 7, 2), (7, "sdu", 7, 1),
    (11, "sd", 11, 2), (11, "sa", 11, 1), (11, "sdu", 12, 1),
    (13, "sd", 13, 3), (13, "sa", 13, 2), (13, "sdu", 13, 1),
    (91, "sd", 91, 6), (91, "sa", 91, 5), (91, "sdu", 91, 4),
]


@pytest.mark.parametrize("n,cat,theta,tau", COMPLETE_EXACT)
def test_complete_exact(n, cat, theta, tau):
    r = theta_tau_complete(n, cat)
    assert r.theta.exact == theta and not r.theta.oracle_needed
    assert r.tau.exact == tau


def test_complete_symbolic_when_plane_count_open():
    r = theta_tau_complete(133, "sd")
    assert r.theta.exact == 133
    assert r.tau.exact is None and r.tau.symbolic == "2 + N_PP(133)"
    # order 11 planes exist (11 is prime), so theta is still exact for sdu
    r = theta_tau_complete(133, "sdu")
    assert r.theta.exact == 133 and r.tau.symbolic == "N_PP(133)"


def test_complete_sdu_open_existence():
    # 157 = 12^2 + 12 + 1 and nobody knows whether such a plane exists
    r = theta_tau_complete(157, "sdu")
    assert r.theta.oracle_needed and r.tau.unknown
    assert any("order 12" in note for note in r.notes)


def test_complete_witnesses_valid():
    for n, cat, theta, _ in COMPLETE_EXACT:
        if n > 13:
            continue
        r = theta_tau_complete(n, cat)
        g = complete_graph(n)
        assert r.witnesses, (n, cat)
        for rep in r.witnesses:
            assert represents(rep, g)
            assert rep.universe_size == theta
            flags = category_flags(rep)
            assert flags.simple and flags.distinct
            if "a" in cat:
                assert flags.antichain
            if "u" in cat:
                assert flags.uniform


def test_complete_sd_witness_count_tracks_plane():
    # no plane on 5 points: silly + near-pencil only
    assert len(theta_tau_complete(5, "sd").witnesses) == 2
    # Fano joins in at n = 7
    assert len(theta_tau_complete(7, "sd").witnesses) == 3


def test_complete_rejects_bad_input():
    with pytest.raises(ValueError):
        theta_tau_complete(0, "sd")
    with pytest.raises(ValueError):
        theta_tau_complete(4, "xy")


# -- line graphs: dispatch table -----------------------------------------------

# name, category, theta exact (None = deferred to the oracle), tau, provenance
LINE_CASES = [
    ("path_graph(4)", "sd", 2, 1, "linegraph-sd-generic"),
    ("path_graph(4)", "sa", 4, 1, "linegraph-sa-generic"),
    ("path_graph(5)", "sd", 3, 1, "linegraph-sd-generic"),
    ("path_graph(5)", "sa", 5, 1, "linegraph-sa-generic"),
    ("cycle_graph(4)", "sd", 4, 1, "linegraph-sd-generic"),
    ("cycle_graph(4)", "sa", 4, 1, "linegraph-sa-generic"),
    ("cycle_graph(6)", "sdu", None, 1, "linegraph-sdu-generic"),
    ("star_graph(1)", "sd", 1, 1, "linegraph-star>complete-small"),
    ("star_graph(4)", "sd", 4, 2, "linegraph-star>complete-sd"),
    ("star_graph(4)", "sa", 4, 1, "linegraph-star>complete-sa"),
    ("star_graph(7)", "sd", 7, 3, "linegraph-star>complete-sd"),
    ("complete_graph(3)", "sd", 3, 2, "linegraph-triangle>complete-sd"),
    ("complete_graph(3)", "sa", 3, 1, "linegraph-triangle>complete-sa"),
    ("complete_graph(4)", "sd", None, 2, "linegraph-sd-K4"),
    ("complete_graph(4)", "sa", None, 2, "linegraph-sa-K4"),
    ("complete_graph(4)", "sdu", None, 2, "linegraph-sdu-special"),
    ("book(2)", "sd", None, 2, "linegraph-sd-windmill"),
    ("book(2)", "sa", None, 2, "linegraph-sa-windmill"),
    ("book(2)", "sdu", None, 2, "linegraph-sdu-special"),
    ("book(3)", "sd", None, 2, "linegraph-sd-windmill"),
    ("book(3)", "sa", None, 2, "linegraph-sa-windmill"),
    ("book(3)", "sdu", None, 1, "linegraph-sdu-generic"),
    ("plumed_triangle(1)", "sd", None, 2, "linegraph-sd-plumed-triangle"),
    ("plumed_triangle(1)", "sa", None, 2, "linegraph-sa-peacock"),
    ("plumed_triangle(1)", "sdu", None, 2, "linegraph-sdu-special"),
    ("plumed_triangle(2)", "sd", None, 2, "linegraph-sd-plumed-triangle"),
    ("plumed_triangle(2)", "sa", None, 2, "linegraph-sa-peacock"),
    ("plumed_triangle(2)", "sdu", None, 1, "linegraph-sdu-generic"),
    ("two_plumed_triangle(1,1)", "sd", 3, 1, "linegraph-sd-generic"),
    ("two_plumed_triangle(1,1)", "sa", None, 2, "linegraph-sa-peacock"),
    ("two_plumed_triangle(2,1)", "sd", 4, 1, "linegraph-sd-generic"),
    ("two_plumed_triangle(2,1)", "sa", None, 3, "linegraph-sa-peacock"),
    ("two_plumed_triangle(2,2)", "sd", 5, 1, "linegraph-sd-generic"),
    ("two_plumed_triangle(2,2)", "sa", None, 4, "linegraph-sa-peacock"),
    ("two_plumed_triangle(3,2)", "sa", None, 5, "linegraph-sa-peacock"),
    ("two_plumed_triangle(3,3)", "sa", None, 4, "linegraph-sa-peacock"),
    ("plumed_book(2,1)", "sd", 4, 1, "linegraph-sd-generic"),
    ("plumed_book(2,1)", "sa", None, 2, "linegraph-sa-peacock"),
    ("plumed_book(2,1,1)", "sa", None, 2, "linegraph-sa-peacock"),
    ("friendship3()", "sd", None, 2, "linegraph-sd-matching-join"),
    ("friendship3()", "sa", 7, 1, "linegraph-sa-generic"),
    ("bridged_triangles()", "sd", 6, 3, "linegraph-sd-generic"),
    ("bridged_triangles()", "sa", 6, 1, "linegraph-sa-generic"),
    ("dumbbell()", "sd", 4, 1, "linegraph-sd-generic"),
    ("dumbbell()", "sa", 6, 3, "linegraph-sa-generic"),
    ("wing_path()", "sd", 4, 2, "linegraph-sd-generic"),
    ("wing_path()", "sa", 5, 1, "linegraph-sa-generic"),
    ("trimmed_fig5()", "sd", 4, 1, "linegraph-sd-generic"),
    ("trimmed_fig5()", "sa", 5, 1, "linegraph-sa-generic"),
    ("spider()", "sd", 4, 1, "linegraph-sd-generic"),
    ("spider()", "sa", 6, 3, "linegraph-sa-generic"),
    ("asym_wing()", "sd", 5, 2, "linegraph-sd-generic"),
    ("asym_wing()", "sa", 6, 2, "linegraph-sa-generic"),
    ("cornered_triangle()", "sa", 6, 1, "linegraph-sa-generic"),
]


@pytest.mark.parametrize(
    "name,cat,theta,tau,prov", LINE_CASES,
    ids=[f"{n}-{c}" for n, c, *_ in LINE_CASES])
def test_linegraph_dispatch(name, cat, theta, tau, prov):
    r = theta_tau_linegraph(zoo.build(name), cat)
    assert r.provenance == prov
    if theta is None:
        assert r.theta.exact is None and r.theta.oracle_needed
    else:
        assert r.theta.exact == theta and not r.theta.oracle_needed
    assert r.tau.exact == tau


def test_generic_theta_is_gamma():
    for name in ("path_graph(5)", "dumbbell()", "bridged_triangles()",
                 "spider()", "asym_wing()", "cornered_triangle()"):
        g = zoo.build(name)
        c = classify(g)
        assert theta_tau_linegraph(g, "sd").theta.exact == c.gamma
        assert theta_tau_linegraph(g, "sa").theta.exact == c.gamma_prime


def test_matching_join_note_explains_the_count():
    r = theta_tau_linegraph(zoo.friendship3(), "sd")
    assert r.tau.exact == 2
    assert any("swapped by an automorphism" in note for note in r.notes)


def test_symbolic_tau_for_unknowable_plane_count():
    # one site with 132 pendants: the bundle count depends on N_PP(133),
    # which is open, so tau degrades to a symbolic expression
    edges = [("v", "u"), ("u", "w")] + [("v", f"p{i}") for i in range(132)]
    r = theta_tau_linegraph(zoo.from_edges(edges), "sa")
    assert r.theta.exact == 135
    assert r.tau.exact is None
    assert r.tau.symbolic == "(3 + N_PP(133))"


def test_report_witnesses_are_minimum_representations():
    for name, cat, theta, tau, prov in LINE_CASES:
        if "generic" not in prov and ">" not in prov:
            continue
        base = zoo.build(name)
        r = theta_tau_linegraph(base, cat)
        if not r.witnesses:
            continue
        lg, _ = line_graph(base)
        for rep in r.witnesses:
            assert represents(rep, lg)
            if r.theta.exact is not None:
                assert rep.universe_size == r.theta.exact
            flags = category_flags(rep)
            assert flags.simple
            if "d" in cat:
                assert flags.distinct
            if "a" in cat:
                assert flags.antichain


def test_report_json_shape():
    base = zoo.wing_path()
    data = theta_tau_linegraph(base, "sd").to_json_dict()
    assert data["category"] == "sd"
    assert data["theta"] == {"exact": 4}
    assert data["tau"] == {"exact": 2}
    assert data["provenance"] == "linegraph-sd-generic"
    assert len(data["witnesses"]) == 2
    for w in data["witnesses"]:
        assert set(w) == {"universe", "sets"}


def test_linegraph_rejects_bad_category():
    with pytest.raises(ValueError):
        theta_tau_linegraph(zoo.dumbbell(), "q")


# -- witness builders -----------------------------------------------------------

def test_witness_sd_on_generics():
    for name in ("path_graph(4)", "dumbbell()", "wing_path()", "spider()",
                 "bridged_triangles()", "asym_wing()", "trimmed_fig5()"):
        base = zoo.build(name)
        lg, _ = line_graph(base)
        rep = witness_sd(base)
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.distinct
        assert rep.universe_size == classify(base).gamma


def test_witness_sa_on_generics():
    for name in ("path_graph(4)", "dumbbell()", "spider()", "friendship3()",
                 "cornered_triangle()", "asym_wing()"):
        base = zoo.build(name)
        lg, _ = line_graph(base)
        rep = witness_sa(base)
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.antichain and flags.distinct
        assert rep.universe_size == classify(base).gamma_prime


@pytest.mark.parametrize("name", [
    "complete_graph(3)", "complete_graph(4)", "star_graph(3)",
    "book(2)", "plumed_triangle(1)", "friendship3()",
])
def test_witness_sd_refuses_special_families(name):
    with pytest.raises(TheoremNotApplicable):
        witness_sd(zoo.build(name))


@pytest.mark.parametrize("name", [
    "complete_graph(4)", "book(3)", "plumed_triangle(2)",
    "two_plumed_triangle(1,1)", "plumed_book(2,1)", "plumed_book(2,1,1)",
])
def test_witness_sa_refuses_special_families(name):
    with pytest.raises(TheoremNotApplicable):
        witness_sa(zoo.build(name))


def test_witness_sd_variant_counts():
    # one flip per 3-wing stalk
    assert len(witness_sd_variants(zoo.build("path_graph(4)"))) == 1
    assert len(witness_sd_variants(zoo.wing_path())) == 2
    assert len(witness_sd_variants(zoo.asym_wing())) == 2
    assert len(witness_sd_variants(zoo.bridged_triangles())) == 4


def test_witness_sd_variants_all_valid_and_flips_differ():
    base = zoo.wing_path()
    lg, _ = line_graph(base)
    a, b = witness_sd_variants(base)
    for rep in (a, b):
        assert represents(rep, lg)
        assert category_flags(rep).simple and category_flags(rep).distinct
        assert rep.universe_size == classify(base).gamma
    assert not isomorphic(a, b)


def test_witness_sa_variant_counts():
    assert len(witness_sa_variants(zoo.cornered_triangle())) == 1
    assert len(witness_sa_variants(zoo.friendship3())) == 1
    assert len(witness_sa_variants(zoo.dumbbell())) == 4  # two sites, two bundles each
    assert len(witness_sa_variants(zoo.spider())) == 3    # one site of four pendants


def test_witness_sa_variants_all_valid():
    base = zoo.dumbbell()
    lg, _ = line_graph(base)
    variants = witness_sa_variants(base)
    for rep in variants:
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.antichain
        assert rep.universe_size == classify(base).gamma_prime


def test_witness_sa_plane_bundle():
    # a site with six pendants admits a Fano bundle besides the three
    # degenerate layouts
    edges = [("s0", "s1"), ("s1", "q")] + [("s0", f"p{i}") for i in range(6)]
    base = zoo.from_edges(edges)
    variants = witness_sa_variants(base)
    assert len(variants) == 4
    lg, _ = line_graph(base)
    for rep in variants:
        assert represents(rep, lg)
        flags = category_flags(rep)
        assert flags.simple and flags.antichain
    for i, a in enumerate(variants):
        for b in variants[i + 1:]:
            assert not isomorphic(a, b)


# -- base-graph symmetry on the choice sites -------------------------------------

def _random_base(rng):
    """A seeded connected graph on at most 8 vertices, often with pendants."""
    n = rng.randint(3, 8)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    for _ in range(rng.randint(0, n)):
        u, v = sorted(rng.sample(range(n), 2))
        edges.add((u, v))
    return Graph(tuple(f"v{i}" for i in range(n)), tuple(sorted(edges)))


def test_core_site_permutations_project_full_automorphisms():
    """The site permutations found on the pendant-stripped, coloured core
    are Aut(base) projected onto the sites, for two Aut-invariant site
    sets: every core vertex, and the core vertices that carry pendants."""
    rng = random.Random(2014)
    bases = [zoo.build(name) for name in sorted({k for k, _ in
                                                 zoo.LINEGRAPH_EXPECTED})]
    bases += [_random_base(rng) for _ in range(60)]
    for base in bases:
        core = [v for v in range(base.n) if base.degree(v) >= 2]
        plumed = [v for v in core
                  if any(base.degree(u) == 1 for u in base.adj[v])]
        full = automorphisms(base)
        for sites in (tuple(core), tuple(plumed)):
            at = {v: i for i, v in enumerate(sites)}
            want = sorted({tuple(at[sigma[v]] for v in sites)
                           for sigma in full}) if sites else [()]
            assert _core_site_permutations(base, sites) == want, \
                (base.edges, sites)
