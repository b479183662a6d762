"""Every connected base graph with a few edges, one per isomorphism class.

The generator is gated on the counts of OEIS A002905.  On the whole corpus
the classification must name exactly the families that their definitions
build.  On the bases with at most eight edges the closed forms must agree
with the oracle in ``sd``, ``sa`` and ``sdu``, and the automorphisms that
the canonical walk records must generate the group that
``zoo.automorphisms`` lists, and every witness variant must represent
the line graph in its category at the star form's size.  On the whole
corpus the closed forms' site classes must number the Burnside count
over the site permutations that ``zoo.automorphisms`` lists.  Every
closed-form report on the corpus must match its frozen digest in ``closed_form_digests.json``,
and every oracle answer on the bases with at most eight edges and on
K3-K7 its digest in ``oracle_digests.json``, also when the oracle's keyer
records no orbit past its first image; after a change that alters an answer on purpose,
regenerate both files with ``PYTHONPATH=src python tests/test_bases.py``.
"""

import hashlib
import json
from collections import Counter
from pathlib import Path

import pytest

import zoo
from setrep import (
    SearchBudget,
    TheoremNotApplicable,
    category_flags,
    classify,
    complete_graph,
    line_graph,
    oracle,
    oracle_search,
    represents,
    star_graph,
    theorems,
    theta_tau_linegraph,
    witness_sa,
    witness_sa_variants,
    witness_sd,
    witness_sd_variants,
)
from setrep.representations import _graph_generators

A002905 = [1, 1, 3, 5, 12, 30, 79, 227, 710]  # connected graphs by edges
MAX_M = len(A002905)
ORACLE_MAX_M = 8


@pytest.fixture(scope="module")
def bases():
    return zoo.connected_bases(MAX_M)


def test_connected_base_counts_match_oeis_a002905(bases):
    assert [len(level) for level in bases] == A002905
    for m, level in enumerate(bases, 1):
        assert all(g.m == m and g.is_connected() for g in level.values())


def named_families(max_m):
    """(graph, (kind, t, plume_counts)) for every member of a named family
    with at most ``max_m`` edges, each built from its definition."""
    out = [(star_graph(d), ("star", None, ())) for d in range(1, max_m + 1)]
    out += [(complete_graph(3), ("K3", None, ())),
            (complete_graph(4), ("K4", None, ())),
            (zoo.friendship3(), ("3K2+K1", None, ()))]
    out += [(zoo.book(t), ("W_t", t, ())) for t in range(2, max_m)]
    for m1 in range(1, max_m):
        out.append((zoo.plumed_triangle(m1), ("TP1", None, (m1,))))
        for m2 in range(1, m1 + 1):
            out.append((zoo.two_plumed_triangle(m1, m2),
                        ("TP2", None, (m1, m2))))
        for t in range(2, max_m):
            out.append((zoo.plumed_book(t, m1), ("TPd1", t, (m1,))))
            for m2 in range(1, m1 + 1):
                out.append((zoo.plumed_book(t, m1, m2),
                            ("TPd2", t, (m1, m2))))
    return [(g, want) for g, want in out if g.m <= max_m]


def test_kinds_match_their_definitions(bases):
    """A base is named exactly when a family's definition builds it, and
    then with that family's parameters; every other base is generic."""
    named = {zoo.edge_key(g): want for g, want in named_families(MAX_M)}
    tally = Counter()
    for level in bases:
        for key, g in level.items():
            c = classify(g)
            got = (c.kind, c.t, c.plume_counts)
            assert got == named.get(key, ("generic", None, ())), g.edges
            tally[c.kind] += 1
    assert tally == {"star": 9, "K3": 1, "K4": 1, "W_t": 3, "3K2+K1": 1,
                     "TP1": 6, "TP2": 9, "TPd1": 6, "TPd2": 5,
                     "generic": 1027}


def oracle_cap(base, category):
    """The closed θ of ``base`` in ``category`` where it is exact, and
    else gamma (sd), gamma' (sa) or 3m (sdu)."""
    c = classify(base)
    bound = {"sd": c.gamma, "sa": c.gamma_prime, "sdu": 3 * base.m}
    return theta_tau_linegraph(base, category).theta.exact or bound[category]


@pytest.mark.parametrize("category", ["sd", "sa", "sdu"])
def test_closed_forms_agree_with_the_oracle_up_to_eight_edges(bases,
                                                              category):
    """The oracle, capped at the closed θ or else at gamma (sd), gamma'
    (sa) or 3m (sdu), finds θ on every base; it equals the closed θ and
    the class count equals the closed τ wherever those are exact."""
    runs = 0
    for level in bases[:ORACLE_MAX_M]:
        for base in level.values():
            lg, _ = line_graph(base)
            report = theta_tau_linegraph(base, category)
            r = oracle_search(lg, category,
                              SearchBudget(max_universe=oracle_cap(
                                  base, category)), base=base)
            assert r.exhausted and r.theta is not None, base.edges
            if report.theta.exact is not None:
                assert r.theta == report.theta.exact, base.edges
            if report.tau.exact is not None:
                assert r.class_count() == report.tau.exact, base.edges
            for rep in report.witnesses + r.classes:
                assert represents(rep, lg), base.edges
                assert category_flags(rep).satisfies(category), base.edges
            runs += 1
    assert runs == sum(A002905[:ORACLE_MAX_M])


def test_witness_variants_represent_the_line_graph_up_to_eight_edges(
        bases):
    """Every variant that ``witness_sd_variants`` and
    ``witness_sa_variants`` build on a base with at most eight edges
    represents its line graph, satisfies its category and has as many
    elements as the star form.  The kinds the builders refuse are
    skipped."""
    builds = variants = 0
    for level in bases[:ORACLE_MAX_M]:
        for base in level.values():
            lg, _ = line_graph(base)
            for category, star_form, build in (
                    ("sd", witness_sd, witness_sd_variants),
                    ("sa", witness_sa, witness_sa_variants)):
                try:
                    reps = build(base)
                except TheoremNotApplicable:
                    continue
                size = star_form(base).universe_size
                for rep in reps:
                    assert represents(rep, lg), (base.edges, category)
                    assert category_flags(rep).satisfies(category), \
                        (base.edges, category)
                    assert rep.universe_size == size, (base.edges, category)
                builds += 1
                variants += len(reps)
    assert (builds, variants) == (670, 865)


def group_of(generators, n):
    """The permutations of range(n) that ``generators`` generate."""
    group = {tuple(range(n))}
    todo = list(group)
    while todo:
        p = todo.pop()
        for g in generators:
            q = tuple(g[x] for x in p)
            if q not in group:
                group.add(q)
                todo.append(q)
    return group


def test_recorded_generators_generate_the_listed_group(bases):
    """On every base with at most eight edges, as a set system of 2-sets
    over its vertices, the automorphisms that the canonical walk records,
    which the closed forms and the oracle read, generate exactly the
    automorphisms that the reference lists."""
    checked = 0
    for level in bases[:ORACLE_MAX_M]:
        for g in level.values():
            assert group_of(_graph_generators(g), g.n) \
                == set(zoo.automorphisms(g)), g.edges
            checked += 1
    assert checked == sum(A002905[:ORACLE_MAX_M])


DIGESTS = Path(__file__).with_name("closed_form_digests.json")
DIGEST_CATEGORIES = ("sd", "sa", "sdu")


def closed_form_digests(bases):
    """A digest of ``theta_tau_linegraph(base, category).to_json_dict()``
    (theta, tau, provenance, notes and witnesses), serialised with sorted
    keys, for every base and category; keyed by the category and the
    base's edges."""
    out = {}
    for level in bases:
        for base in level.values():
            edges = " ".join(f"{u}-{v}" for u, v in base.edges)
            for category in DIGEST_CATEGORIES:
                report = theta_tau_linegraph(base, category).to_json_dict()
                text = json.dumps(report, sort_keys=True).encode()
                out[f"{category} {edges}"] = hashlib.sha256(text).hexdigest()[:16]
    return out


def test_closed_forms_match_the_frozen_corpus(bases):
    """theta, tau, provenance, notes and witnesses of every closed form
    on every connected base with at most nine edges, in ``sd``, ``sa``
    and ``sdu``, are the frozen ones."""
    frozen = json.loads(DIGESTS.read_text())
    got = closed_form_digests(bases)
    assert len(got) == 3 * sum(A002905)
    wrong = [key for key in got if frozen.get(key) != got[key]]
    assert not wrong, f"{len(wrong)} reports differ, first: {wrong[:5]}"
    assert got.keys() == frozen.keys()


def burnside(perms, alphabets):
    """Site assignments up to ``perms``, by Burnside: an assignment that
    ``pi`` fixes picks one bundle per cycle of ``pi``."""
    total = 0
    for pi in perms:
        fixed, seen = 1, set()
        for i in range(len(pi)):
            if i not in seen:
                fixed *= alphabets[i]
                while i not in seen:
                    seen.add(i)
                    i = pi[i]
        total += fixed
    count, rem = divmod(total, len(perms))
    assert rem == 0
    return count


def test_site_class_counts_match_burnside_over_the_listed_group(
        bases, monkeypatch):
    """The closed forms count site classes by walking the assignments and
    closing each one's orbit under the recorded generators.  On every base
    with at most nine edges, τ of each generic ``sd`` and ``sa`` report
    is the Burnside count over the site permutations that
    ``zoo.automorphisms`` lists: 298 reports with choice sites, 48 of
    them with two or more.  With ``_WITNESS_ENUM_CAP`` at 0, θ and τ of
    every report are the default's, and each generic report lists the
    star form as its one witness."""
    def answers():
        return {(base.edges, category): theta_tau_linegraph(base, category)
                for level in bases for base in level.values()
                for category in ("sd", "sa")}

    default = answers()
    assert len(default) == 2 * sum(A002905)
    sites = []
    for level in bases:
        for base in level.values():
            for category in ("sd", "sa"):
                r = default[base.edges, category]
                if r.provenance != f"linegraph-{category}-generic":
                    continue
                _lg, stars = line_graph(base)
                _cliques, at, alphabets, _bundles = theorems._construction(
                    base, stars, classify(base), category)
                if at:
                    perms = zoo.automorphisms(base, points=[(v,) for v in at])
                    assert r.tau.exact == burnside(perms, alphabets), \
                        (base.edges, category)
                    sites.append(len(at))
    assert (len(sites), sum(k >= 2 for k in sites)) == (298, 48)

    monkeypatch.setattr(theorems, "_WITNESS_ENUM_CAP", 0)
    capped = answers()
    for key, r in default.items():
        assert (capped[key].theta, capped[key].tau) == (r.theta, r.tau), key
        if r.provenance.endswith("-generic"):
            assert len(capped[key].witnesses) == 1, key


ORACLE_DIGESTS = Path(__file__).with_name("oracle_digests.json")
CLOSED_RUNS = 331  # corpus runs that key, all with every class closed
PLAIN_CATEGORIES = ("d", "a", "u")  # searched by assignment: small inputs
PLAIN_MAX_M = 4  # the plain runs' bases have at most this many edges
PLAIN_MAX_N = 4  # and their complete graphs at most this many vertices
ORACLE_RUNS = 4 * sum(A002905[:ORACLE_MAX_M]) + 20 + 3 * (
    sum(A002905[:PLAIN_MAX_M]) + PLAIN_MAX_N - 2)


def oracle_digest(r):
    """A digest of θ, ``repr(classes)``, the labelled count, ``exhausted``,
    ``searched_to`` and ``stop_reason`` of one oracle result: everything
    but the nodes, which pruning may lower, and the seconds."""
    text = repr((r.theta, r.classes, r.labeled_solutions, r.exhausted,
                 r.searched_to, r.stop_reason)).encode()
    return hashlib.sha256(text).hexdigest()[:16]


def oracle_runs(bases):
    """(name, result) of every oracle run that
    ``test_closed_forms_agree_with_the_oracle_up_to_eight_edges`` makes,
    of each of those bases in ``s`` capped at m + 2, of the bases with at
    most four edges in ``d``, ``a`` and ``u`` capped at min(m + 2, 6), and
    of K3-K7 without a base in ``sd``, ``sa``, ``sdu`` and ``s`` and of
    K3-K4 in ``d``, ``a`` and ``u``, capped at n; the name is the category
    and the base's edges, or the category and K<n>."""
    for level in bases[:ORACLE_MAX_M]:
        for base in level.values():
            edges = " ".join(f"{u}-{v}" for u, v in base.edges)
            lg, _ = line_graph(base)
            for category in ("sd", "sa", "sdu", "s"):
                cap = base.m + 2 if category == "s" \
                    else oracle_cap(base, category)
                yield f"{category} {edges}", oracle_search(
                    lg, category, SearchBudget(max_universe=cap), base=base)
            if base.m <= PLAIN_MAX_M:
                for category in PLAIN_CATEGORIES:
                    yield f"{category} {edges}", oracle_search(
                        lg, category,
                        SearchBudget(max_universe=min(base.m + 2, 6)),
                        base=base)
    for n in range(3, 8):
        categories = ("sd", "sa", "sdu", "s")
        if n <= PLAIN_MAX_N:
            categories += PLAIN_CATEGORIES
        for category in categories:
            yield f"{category} K{n}", oracle_search(
                complete_graph(n), category, SearchBudget(max_universe=n))


def oracle_digests(bases):
    """The digest of every run of :func:`oracle_runs`, keyed by its name."""
    return {name: oracle_digest(r) for name, r in oracle_runs(bases)}


def test_oracle_answers_match_the_frozen_corpus(bases):
    """θ, the class representatives, the labelled count and the stop of
    1,488 oracle runs are the frozen ones: no pruning changes an answer."""
    frozen = json.loads(ORACLE_DIGESTS.read_text())
    got = oracle_digests(bases)
    assert len(got) == ORACLE_RUNS
    wrong = [key for key in got if frozen.get(key) != got[key]]
    assert not wrong, f"{len(wrong)} answers differ, first: {wrong[:5]}"
    assert got.keys() == frozen.keys()


@pytest.mark.parametrize("cap", [0, 1])
def test_open_classes_give_the_frozen_answers(bases, cap, monkeypatch):
    """With the orbit cap at 0 or 1, nearly every class is open and its
    solutions are keyed by canonical form: the 1,488 answers are still
    the frozen ones."""
    monkeypatch.setattr(oracle, "_ORBIT_CAP", cap)
    frozen = json.loads(ORACLE_DIGESTS.read_text())
    got = oracle_digests(bases)
    wrong = [key for key in got if frozen.get(key) != got[key]]
    assert not wrong, f"{len(wrong)} answers differ, first: {wrong[:5]}"
    assert got.keys() == frozen.keys()


def test_closed_orbits_hold_every_labelled_solution(bases, monkeypatch):
    """A class whose orbit closed records every labelled solution in it,
    so on each corpus run that keys and leaves no class open, the keyer
    records exactly the labelled count, in as many classes as the run
    reports.  Both the padding and the assignment search of the plain
    categories yield each multiset of groups once."""
    keyers = []
    make = oracle._symmetry_keyer

    def kept(graph, base):
        keyers.append(make(graph, base))
        return keyers[-1]

    monkeypatch.setattr(oracle, "_symmetry_keyer", kept)
    checked = 0
    for name, r in oracle_runs(bases):
        keyer = keyers[-1]
        if keyer.classes and not keyer.open:
            assert r.exhausted, name
            assert len(keyer.seen) == r.labeled_solutions, name
            assert keyer.classes == len(r.classes), name
            checked += 1
    assert len(keyers) == ORACLE_RUNS
    assert checked == CLOSED_RUNS


if __name__ == "__main__":
    corpus = zoo.connected_bases(MAX_M)
    DIGESTS.write_text(json.dumps(
        closed_form_digests(corpus), indent=0) + "\n")
    ORACLE_DIGESTS.write_text(json.dumps(
        oracle_digests(corpus), indent=0) + "\n")
