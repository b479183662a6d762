"""Closed-form minimum sizes and class counts for set representations.

This module answers, without search, the two questions the oracle answers by
brute force: how many elements does a minimum representation of a given
category need (theta), and how many isomorphism classes of minimum
representations exist (tau).  Closed forms are available for complete graphs
and for line graphs of connected base graphs; everything else belongs to the
oracle.

Counts of isomorphism classes are taken modulo the automorphisms of the base
graph (for a complete graph, all vertex permutations).  This matches what
``setrep.oracle`` reports for the same inputs, so the two can be checked
against each other mechanically.

Line graphs are decided by the kind that ``classify`` gives the base.
Stars and triangles have complete line graphs and take the complete-graph
report.  A table per category, ``_EXCEPTIONAL``, lists the other kinds its
generic case does not cover (K4, the windmills of triangles over a shared
edge, the triple matching joined to a single vertex, triangles and
windmills with plumes) with their class count and provenance; their
minimum size is left to the oracle, and the witness builders refuse them.

Everywhere else ``_construction`` gives a minimum solution as a set of
fixed cliques plus one clique bundle at each choice site.  For ``sd`` the
sites are the 3-wing stalks: the stars of the stalk and of its two wing
tips, or the wing triangle with two pairs bridging to the stalk's third
edge.  For ``sa`` they are the vertices with at least two pendant edges and
a single other edge: the saturated star with private pendant elements, a
near-pencil on the site's edges, or a projective plane on them.  tau is the
number of orbits of bundle assignments under the base graph's
automorphisms.  Their generators come from the canonical walk of
``representations`` run on the base; the assignments are walked in
product order, and the orbit of each one not yet seen is closed under
them.  Past ``_SITE_WALK_CAP`` labelled solutions tau is left open.
``sdu`` has no construction: outside its table tau is 1 and the minimum
size is the oracle's.  Reports say which case produced them via the
``provenance`` string.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import prod
from operator import itemgetter
from typing import Callable, NamedTuple

from .classify import Classification, classify
from .cliquecover import CliqueCover, egp_set, silly_partition
from .errors import TheoremNotApplicable
from .geometry import (fls_to_cover, n_pp, near_pencil, order_for_points,
                       projective_plane, puncture)
from .graphs import Graph, complete_graph, line_graph
from .representations import (SetRepresentation, _graph_generators, _orbit,
                              rep_to_json_dict)

__all__ = [
    "TauValue",
    "ThetaTauReport",
    "ThetaValue",
    "theta_tau_complete",
    "theta_tau_linegraph",
    "witness_sa",
    "witness_sa_variants",
    "witness_sd",
    "witness_sd_variants",
]

_CLOSED_FORM_CATEGORIES = ("sd", "sa", "sdu")
_WITNESS_CATEGORIES = ("sd", "sa")  # the ones with a construction

# A report lists one witness per class up to this many classes, and past
# it the star form alone.
_WITNESS_ENUM_CAP = 512

# The site-class walk keeps every labelled solution it passes, so past
# this many tau is left open: counting the orbits of a permutation group is
# #P-hard in general, and the group on the sites can be far larger than
# its orbits (k! site permutations for k + 1 classes on the winged star).
_SITE_WALK_CAP = 1 << 16


@dataclass(frozen=True)
class ThetaValue:
    """Minimum universe size: exact, or None when referred to the oracle."""

    exact: int | None = None

    @property
    def oracle_needed(self) -> bool:
        return self.exact is None

    def to_json_dict(self) -> dict:
        if self.oracle_needed:
            return {"oracleNeeded": True}
        return {"exact": self.exact}


@dataclass(frozen=True)
class TauValue:
    """Number of classes: exact, a symbolic expression, or unknown (neither set).

    Symbolic values appear when the count depends on how many projective
    planes exist at an order where the census is open.
    """

    exact: int | None = None
    symbolic: str | None = None

    @property
    def unknown(self) -> bool:
        return self.exact is None and self.symbolic is None

    def to_json_dict(self) -> dict:
        if self.unknown:
            return {"unknown": True}
        if self.symbolic is not None:
            return {"symbolic": self.symbolic}
        return {"exact": self.exact}


@dataclass(frozen=True)
class ThetaTauReport:
    category: str
    theta: ThetaValue
    tau: TauValue
    provenance: str
    notes: tuple[str, ...] = ()
    witnesses: tuple[SetRepresentation, ...] = ()
    # The graph the witnesses represent; used to serialise them by label.
    graph: Graph | None = field(default=None, compare=False)

    def to_json_dict(self) -> dict:
        out = {
            "category": self.category,
            "theta": self.theta.to_json_dict(),
            "tau": self.tau.to_json_dict(),
            "provenance": self.provenance,
            "notes": list(self.notes),
            "witnesses": [],
        }
        if self.graph is not None:
            out["witnesses"] = [rep_to_json_dict(w, self.graph.labels)
                                for w in self.witnesses]
        return out


def _check_category(category: str) -> None:
    if category not in _CLOSED_FORM_CATEGORIES:
        raise TheoremNotApplicable(
            f"no closed form for category {category!r}; "
            f"supported here: {', '.join(_CLOSED_FORM_CATEGORIES)}"
        )


def _report(category: str, theta: int | None, tau: int | str | None,
            provenance: str, graph: Graph, witnesses=(),
            notes=()) -> ThetaTauReport:
    """The report of one closed form.

    ``theta`` is exact, or None when the minimum is referred to the
    oracle; ``tau`` is exact, a symbolic expression, or None when unknown.
    A report with an exact tau that lists some witnesses, but fewer than
    tau, says so in a note.
    """
    if isinstance(tau, int) and 0 < len(witnesses) < tau:
        notes = (*notes, f"{tau} classes exist but only {len(witnesses)} "
                 "have constructions available here")
    return ThetaTauReport(
        category, ThetaValue(theta),
        TauValue(symbolic=tau) if isinstance(tau, str) else TauValue(tau),
        provenance, tuple(notes), tuple(witnesses), graph)


def _is_prime_power(r: int) -> bool:
    p = 2
    while p * p <= r:
        if r % p == 0:
            while r % p == 0:
                r //= p
            return r == 1
        p += 1
    return True  # r itself is prime


def _plane_witness(g: Graph, points: int) -> SetRepresentation:
    """The complete graph ``g`` from the projective plane on ``points``
    points, punctured down to ``g.n`` of them.  Callers have
    ``n_pp(points) >= 1``, so the plane's order is one that
    :func:`projective_plane` builds."""
    ls = puncture(projective_plane(order_for_points(points)), points - g.n)
    return egp_set(fls_to_cover(ls, g))


def _uniform_silly_rep(n: int) -> SetRepresentation:
    """K_n as one whole-graph clique plus one private element per vertex."""
    g = complete_graph(n)
    cliques = [frozenset(range(n))] + [frozenset({v}) for v in range(n)]
    return egp_set(CliqueCover(g, tuple(cliques)))


def theta_tau_complete(n: int, category: str) -> ThetaTauReport:
    """Minimum size and class count for complete graphs.

    Supports the simple-distinct, simple-antichain and simple-distinct-
    uniform categories.  Witnesses cover every class whenever the underlying
    geometries are constructible.
    """
    _check_category(category)
    if n < 1:
        raise ValueError("complete graph needs at least one vertex")
    g = complete_graph(n)

    if n <= 2:
        # Too small for the general pattern; fixed by direct enumeration.
        # Outside sd, K2 needs a private element at both ends.
        rep = (egp_set(silly_partition(n)) if n == 1 or category == "sd"
               else _uniform_silly_rep(n))
        return _report(category, len(rep.universe), 1, "complete-small", g,
                       (rep,))

    np = n_pp(n)
    if category in ("sd", "sa"):
        # tau counts these witnesses (sd: the silly partition and the
        # near-pencil; sa: the near-pencil) and the planes
        witnesses = [egp_set(silly_partition(n))] if category == "sd" else []
        witnesses.append(egp_set(fls_to_cover(near_pencil(n), g)))
        tau = (f"{len(witnesses)} + N_PP({n})" if np is None
               else len(witnesses) + np)
        if np:
            witnesses.append(_plane_witness(g, n))
        return _report(category, n, tau, f"complete-{category}", g, witnesses)

    # simple-distinct-uniform
    if n == 3:
        rep = egp_set(fls_to_cover(near_pencil(3), g))
        return _report(category, 3, 1, "complete-sdu", g, (rep,))
    if np is None:
        r = order_for_points(n)
        if _is_prime_power(r):
            # A plane of this order exists even though the full census is
            # open, so the minimum is still n.
            return _report(category, n, f"N_PP({n})", "complete-sdu", g)
        return _report(category, None, None, "complete-sdu", g, notes=(
            f"existence of a projective plane of order {r} is open",))
    if np:
        return _report(category, n, np, "complete-sdu", g,
                       (_plane_witness(g, n),))

    # No plane on n points: the minimum is n + 1.
    np1 = n_pp(n + 1)
    witnesses = [_uniform_silly_rep(n)]
    if np1:
        witnesses.append(_plane_witness(g, n + 1))
    tau = f"1 + N_PP({n + 1})" if np1 is None else 1 + np1
    return _report(category, n + 1, tau, "complete-sdu", g, witnesses)


# --------------------------------------------------------------------------
# Line graphs: the exceptional kinds.

# Kinds with a complete line graph, by their provenance prefix.
_COMPLETE_KINDS = {"star": "linegraph-star", "K3": "linegraph-triangle"}


class _Case(NamedTuple):
    """A kind outside the generic case: theta is the oracle's, tau known."""

    tau: int | Callable[[Classification], int | None]  # None: generic after all
    suffix: str  # of the provenance "linegraph-{category}-{suffix}"
    notes: tuple[str, ...] = ()
    witnesses: Callable[[Graph, tuple], tuple] | None = None


def _k4_stars_and_triangles(lg: Graph, stars: tuple) -> tuple[SetRepresentation, ...]:
    """The two sd classes of L(K4): the four stars, or the four triangles,
    each the six edges less one star (the one opposite vertex 3 first)."""
    tris = tuple(frozenset(range(6)) - star for star in reversed(stars))
    return egp_set(CliqueCover(lg, stars)), egp_set(CliqueCover(lg, tris))


def _tp2_sa_tau(cls: Classification) -> int:
    """sa classes of a triangle plumed at two corners (m1 >= m2 plumes)."""
    m1, m2 = cls.plume_counts
    if m2 >= 2:
        return 5 if m1 != m2 else 4
    return 3 if m1 >= 2 else 2


_EXCEPTIONAL: dict[str, dict[str, _Case]] = {
    "sd": {
        "K4": _Case(2, "K4", witnesses=_k4_stars_and_triangles),
        "W_t": _Case(2, "windmill"),
        "3K2+K1": _Case(2, "matching-join", (
            "the count usually quoted for this family is 3, but two of "
            "the three labelled minimum solutions are swapped by an "
            "automorphism of the base graph, leaving 2 classes under the "
            "equivalence used throughout this package",)),
        "TP1": _Case(2, "plumed-triangle"),
    },
    "sa": {
        "K4": _Case(2, "K4"),
        "W_t": _Case(2, "windmill"),
        "TP1": _Case(2, "peacock"),
        "TP2": _Case(_tp2_sa_tau, "peacock"),
        "TPd1": _Case(2, "peacock"),
        "TPd2": _Case(2, "peacock"),
    },
    # tau is 1 but on K4, W_2 and the triangle with one plume
    "sdu": {
        "K4": _Case(2, "special"),
        "W_t": _Case(lambda cls: 2 if cls.t == 2 else None, "special"),
        "TP1": _Case(lambda cls: 2 if cls.plume_counts == (1,) else None,
                     "special"),
    },
}


# --------------------------------------------------------------------------
# Line graphs: the generic construction.

def _pendant_edges(stars: tuple, v: int) -> list[int]:
    """The edges at ``v`` that are the one edge of their other end, in
    index order."""
    return sorted(e for e in stars[v] if frozenset({e}) in stars)


def _base_cliques(stars: tuple, cls: Classification,
                  shared: int) -> list[frozenset[int]]:
    """Saturated stars on every internal vertex, then a private element for
    each pendant edge of each critical vertex but the last ``shared``."""
    cliques = [s for s in stars if len(s) >= 2]
    for v, m in cls.critical:
        cliques += [frozenset({e})
                    for e in _pendant_edges(stars, v)[:m - shared]]
    return cliques


def _site_reps(lg: Graph, cliques: list[frozenset[int]], site_choices,
               assignments) -> list[SetRepresentation]:
    """One representation per assignment of a bundle to each choice site.

    ``site_choices[i]`` lists the clique bundles of site i, bundle 0 being
    the one in ``cliques``.  Each representation keeps the cliques that no
    site owns and adds the bundle its assignment picks at each site.
    """
    owned = {q for choices in site_choices for q in choices[0]}
    fixed = tuple(q for q in cliques if q not in owned)
    return [egp_set(CliqueCover(lg, fixed + tuple(
                q for choices, a in zip(site_choices, assignment)
                for q in choices[a])))
            for assignment in assignments]


def _site_classes(base: Graph, lg: Graph, cliques: list[frozenset[int]],
                  sites: tuple[int, ...], alphabets: list, bundles):
    """(tau, notes, witnesses) for the minimum solutions that swap one
    bundle into ``cliques`` at each choice site, as
    :func:`_construction` gives them.

    tau counts the orbits of bundle assignments under the permutations
    that Aut(base) induces on the sites.  Their generators are the
    automorphisms that the canonical walk records on the base as a set
    system (its vertices the elements, each edge a 2-set), as
    :func:`_graph_generators` keeps them for the oracle too, restricted
    to the sites, which every automorphism maps onto themselves; fewer
    than two sites need none.  The assignments are walked in product
    order: each one not yet seen is the least of its orbit, and its
    orbit, closed by :func:`_orbit` under the generators (each the
    ``itemgetter`` that permutes an assignment's entries), is marked
    seen.  Up to ``_WITNESS_ENUM_CAP`` classes the least assignments are
    the witnesses; past it, or when a site's planes cannot be built, the
    one witness is ``cliques`` itself.  Past ``_SITE_WALK_CAP`` labelled
    solutions tau is left open, with that one witness.  A symbolic
    alphabet makes tau the labelled count, with no witness.
    """
    open_sites = [a for a in alphabets if isinstance(a, str)]
    if open_sites:
        known = prod(a for a in alphabets if isinstance(a, int))
        return (" * ".join(([str(known)] if known != 1 else []) + open_sites),
                ("labelled count; automorphisms may identify some choices",),
                ())
    labelled = prod(alphabets)
    if labelled > _SITE_WALK_CAP:
        return None, (f"{labelled} labelled minimum solutions are more "
                      f"than the {_SITE_WALK_CAP} walked to count classes, "
                      "so tau is left open",), (
                          egp_set(CliqueCover(lg, tuple(cliques))),)
    gens = []
    if len(sites) >= 2:
        at = {v: i for i, v in enumerate(sites)}
        identity = tuple(range(len(sites)))
        perms = {tuple(at[g[v]] for v in sites)
                 for g in _graph_generators(base)} - {identity}
        gens = [itemgetter(*pi) for pi in sorted(perms)]
    least: list[tuple[int, ...]] = []
    seen: set[tuple[int, ...]] = set()
    for a in product(*(range(k) for k in alphabets)):
        if a not in seen:
            least.append(a)
            seen |= _orbit([a], gens)
    tau = len(least)
    notes = [] if tau == labelled else [
        f"{labelled} labelled minimum solutions fall into {tau} classes "
        "because base-graph automorphisms permute the choice sites"]
    if tau <= _WITNESS_ENUM_CAP:
        try:
            site_choices = bundles()
        except TheoremNotApplicable as exc:
            notes.append(str(exc))
        else:
            return tau, tuple(notes), tuple(_site_reps(
                lg, cliques, site_choices, least))
    return tau, tuple(notes), (egp_set(CliqueCover(lg, tuple(cliques))),)


def _sd_wing_choices(stars: tuple,
                     cls: Classification) -> list[list[list[frozenset[int]]]]:
    """The two clique bundles of each 3-wing (s, x, y), in stalk order.

    The stalk s has one more neighbour w, and x and y have degree two.
    Index 0 is the stars of s, x and y; index 1 the wing triangle (the
    edges at x or y) with the bridging pairs {sx, sw} and {sy, sw} (the
    edges at s but not at y, and not at x).
    """
    return [[[stars[s], stars[x], stars[y]],
             [stars[x] | stars[y], stars[s] - stars[y], stars[s] - stars[x]]]
            for s, x, y in cls.wings if s in cls.three_wing_stalks]


def _sa_sites(base: Graph, cls: Classification) -> list[tuple[int, int]]:
    """Pendant-carrying vertices whose covering cliques admit alternatives.

    These are the critical vertices whose only non-pendant edge is a single
    stem, i.e. degree exactly one more than the pendant count, with at least
    two pendants.
    """
    return [(v, m) for v, m in cls.critical
            if m >= 2 and base.degree(v) == m + 1]


def _sa_site_choices(stars: tuple, v: int, m: int) -> list[list[frozenset[int]]]:
    """Clique bundles that can cover the edges at site ``v``, in a fixed order.

    Index 0 is the saturated star with private pendant elements; index 1 the
    near-pencil with its hub at the stem edge; for three or more pendants
    index 2 moves the hub to the first pendant edge, and any further indices
    are projective planes on the edge set.
    """
    pend = _pendant_edges(stars, v)
    (stem,) = stars[v] - set(pend)
    k_conf = [stars[v]] + [frozenset({e}) for e in pend]
    hub_stem = [frozenset(pend)] + [frozenset({e, stem}) for e in pend]
    if m == 2:  # the hub at a pendant edge gives the same triangle
        return [k_conf, hub_stem]
    rest = pend[1:] + [stem]
    hub_pend = [frozenset(rest)] + [frozenset({e, pend[0]}) for e in rest]
    choices = [k_conf, hub_stem, hub_pend]
    d = m + 1
    np = n_pp(d)
    if np is None:
        raise TheoremNotApplicable(
            f"plane census unknown for {d} points; cannot enumerate choices")
    if np > 1:
        raise TheoremNotApplicable(
            f"cannot construct all {np} plane classes on {d} points")
    if np:
        points = pend + [stem]
        choices.append([frozenset(points[p] for p in line)
                        for line in projective_plane(order_for_points(d)).lines])
    return choices


def _construction(base: Graph, stars: tuple, cls: Classification,
                  category: str):
    """The generic minimum solutions of L(base) in sd or sa, from the
    base's ``stars`` (as :func:`line_graph` gives them) and its
    classification ``cls``: (cliques, sites, alphabets, bundles).
    ``cliques`` is the star form, of size theta; site ``sites[i]`` offers
    ``alphabets[i]`` bundles (a symbolic count where its plane census is
    open), which ``bundles()`` lists as :func:`_site_reps` takes them or,
    where they cannot all be built, refuses with
    :class:`TheoremNotApplicable`."""
    if category == "sd":
        stalks = cls.three_wing_stalks
        return (_base_cliques(stars, cls, shared=1), stalks,
                [2] * len(stalks), lambda: _sd_wing_choices(stars, cls))
    sites = _sa_sites(base, cls)
    alphabets: list[int | str] = []
    for _v, m in sites:
        np = n_pp(m + 1)
        alphabets.append(2 if m == 2 else f"(3 + N_PP({m + 1}))"
                         if np is None else 3 + np)
    return (_base_cliques(stars, cls, shared=0),
            tuple(v for v, _m in sites), alphabets,
            lambda: [_sa_site_choices(stars, v, m) for v, m in sites])


def _witnesses(base: Graph, category: str, variants: bool):
    """The star form of :func:`_construction`, or with ``variants`` every
    choice of bundles in subset order; refuses the excepted kinds."""
    cls = classify(base)
    if cls.kind in _COMPLETE_KINDS or cls.kind in _EXCEPTIONAL[category]:
        raise TheoremNotApplicable(
            f"the star/pendant construction does not apply to {cls.kind} base graphs; "
            "use the oracle or the dispatch report for those"
        )
    lg, stars = line_graph(base)
    cliques, _sites, _alphabets, bundles = _construction(base, stars, cls,
                                                       category)
    if not variants:
        return egp_set(CliqueCover(lg, tuple(cliques)))
    choices = bundles()
    return _site_reps(lg, cliques, choices,
                      product(*(range(len(c)) for c in choices)))


def witness_sd(base: Graph) -> SetRepresentation:
    """A minimum simple-distinct representation of the line graph of ``base``.

    Saturated stars on every internal vertex, with one private element for
    all but one pendant edge at each pendant-carrying vertex.  Applies to
    connected base graphs outside the exceptional shapes.
    """
    return _witnesses(base, "sd", variants=False)


def witness_sd_variants(base: Graph) -> list[SetRepresentation]:
    """All star/triangle variants of :func:`witness_sd`.

    Each 3-wing independently keeps its stars or flips to the wing triangle
    plus two bridging pairs, giving ``2 ** k`` representations for a base
    graph with ``k`` 3-wings (in subset order: the all-stars form first).
    """
    return _witnesses(base, "sd", variants=True)


def witness_sa(base: Graph) -> SetRepresentation:
    """A minimum simple-antichain representation of the line graph of ``base``.

    Like :func:`witness_sd` but every pendant edge gets its own private
    element, which restores the antichain property at the cost of one extra
    universe element per pendant-carrying vertex.
    """
    return _witnesses(base, "sa", variants=False)


def witness_sa_variants(base: Graph) -> list[SetRepresentation]:
    """All per-site variants of :func:`witness_sa`.

    Every qualifying site (at least two pendants, single stem) independently
    picks one of its clique bundles: the saturated star, a near-pencil with
    the hub at the stem or at a pendant edge (one form when there are only
    two pendants), or a projective plane on its edges when one exists.
    """
    return _witnesses(base, "sa", variants=True)


# --------------------------------------------------------------------------
# The line-graph dispatch.

def theta_tau_linegraph(base: Graph, category: str) -> ThetaTauReport:
    """Minimum size and class count for the line graph of ``base``.

    ``base`` must be connected with at least one edge.  The report's
    witnesses, when present, represent the line graph with vertices in base
    edge order.
    """
    _check_category(category)
    cls = classify(base)
    lg, stars = line_graph(base)
    if cls.kind in _COMPLETE_KINDS:
        inner = theta_tau_complete(lg.n, category)
        return replace(inner, graph=lg, provenance=(
            f"{_COMPLETE_KINDS[cls.kind]}>{inner.provenance}"))
    case = _EXCEPTIONAL[category].get(cls.kind)
    tau = case and (case.tau(cls) if callable(case.tau) else case.tau)
    if tau is not None:
        return _report(category, None, tau,
                       f"linegraph-{category}-{case.suffix}", lg,
                       case.witnesses(lg, stars) if case.witnesses else (),
                       case.notes)
    provenance = f"linegraph-{category}-generic"
    if category not in _WITNESS_CATEGORIES:
        return _report(category, None, 1, provenance, lg)
    cliques, sites, alphabets, bundles = _construction(base, stars, cls,
                                                       category)
    tau, notes, witnesses = _site_classes(base, lg, cliques, sites,
                                          alphabets, bundles)
    return _report(category, len(cliques), tau, provenance, lg, witnesses,
                   notes)
