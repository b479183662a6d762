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

A handful of exceptional base-graph shapes (the complete graph on four
vertices, windmills of triangles over a shared edge, the triple matching
joined to a single vertex, triangles with pendant edges on one corner, stars)
have minimum counts that do not follow the generic pattern; they are
dispatched to hard-coded values here, with the minimum size itself left to
the oracle where no closed form is safe.  Reports say which case produced
them via the ``provenance`` string.

On the other line graphs a minimum solution is a set of fixed cliques plus
one clique bundle at each choice site.  For ``sd`` the sites are the
3-wing stalks: the stars of the stalk and of its two wing tips, or the wing
triangle with two pairs bridging to the stalk's third edge.  For ``sa``
they are the vertices with at least two pendant edges and a single other
edge: the saturated star with private pendant elements, a near-pencil on
the site's edges, or a projective plane on them.  tau is the number of
orbits of bundle assignments under the base graph's automorphisms, which
``graphs.automorphisms`` lists as they act on the sites, not in full.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import product
from math import prod

from .classify import Classification, classify
from .cliquecover import CliqueCover, egp_set, silly_partition
from .errors import NoSuchPlaneConstruction, TheoremNotApplicable
from .geometry import (fls_to_cover, n_pp, near_pencil, order_for_points,
                       projective_plane, puncture)
from .graphs import Graph, automorphisms, complete_graph, line_graph
from .representations import SetRepresentation, rep_to_json_dict

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

# Enumerating one witness per class is cheap for every graph we expect to
# see; the cap only guards against pathological inputs with dozens of
# choice sites.
_WITNESS_ENUM_CAP = 512


@dataclass(frozen=True)
class ThetaValue:
    """Minimum universe size: either an exact number or a referral."""

    exact: int | None = None
    oracle_needed: bool = False

    def to_json_dict(self) -> dict:
        if self.oracle_needed:
            return {"oracleNeeded": True}
        return {"exact": self.exact}


@dataclass(frozen=True)
class TauValue:
    """Number of classes: exact, a symbolic expression, or unknown.

    Symbolic values appear when the count depends on how many projective
    planes exist at an order where the census is open.
    """

    exact: int | None = None
    symbolic: str | None = None
    unknown: bool = False

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
        category,
        (ThetaValue(oracle_needed=True) if theta is None
         else ThetaValue(exact=theta)),
        (TauValue(unknown=True) if tau is None
         else TauValue(symbolic=tau) if isinstance(tau, str)
         else TauValue(exact=tau)),
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
# Line graphs: shared machinery for the generic constructions.

def _edge_indexer(base: Graph) -> dict[frozenset[int], int]:
    return {frozenset(e): i for i, e in enumerate(base.edges)}


def _star_clique(base: Graph, eidx: dict, v: int) -> frozenset[int]:
    return frozenset(eidx[frozenset((v, u))] for u in base.adj[v])


def _pendant_edges(base: Graph, eidx: dict, v: int) -> list[int]:
    return sorted(eidx[frozenset((v, u))] for u in base.adj[v]
                  if base.degree(u) == 1)


def _base_cliques(base: Graph, cls: Classification, eidx: dict,
                  shared: int) -> list[frozenset[int]]:
    """Saturated stars on every internal vertex, then a private element for
    each pendant edge of each critical vertex but the last ``shared``."""
    cliques = [_star_clique(base, eidx, v)
               for v in range(base.n) if base.degree(v) >= 2]
    for v, m in cls.critical:
        cliques += [frozenset({e})
                    for e in _pendant_edges(base, eidx, v)[:m - shared]]
    return cliques


def _core_site_permutations(base: Graph, sites: tuple[int, ...]) -> list[tuple[int, ...]]:
    """The distinct permutations that Aut(base) induces on the choice
    sites (base vertices that every automorphism permutes), as index
    tuples into ``sites``; always includes the identity."""
    return automorphisms(base, points=[(v,) for v in sites])


def _orbit_count(perms: list[tuple[int, ...]], alphabets: list[int]) -> int:
    """Burnside count of site assignments up to the induced permutations:
    an assignment that ``pi`` fixes picks one bundle per cycle of ``pi``."""
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
    assert rem == 0, "orbit count must be an integer"
    return count


def _orbit_representatives(perms: list[tuple[int, ...]],
                           alphabets: list[int]) -> list[tuple[int, ...]]:
    """Lexicographically least assignment from each orbit.  ``perms`` is
    a whole group, so it holds every inverse, and the orbit of ``a`` is
    its images under ``perms`` in one pass."""
    reps = []
    seen: set[tuple[int, ...]] = set()
    for a in product(*(range(k) for k in alphabets)):
        if a not in seen:
            reps.append(a)
            seen.update(tuple(a[i] for i in pi) for pi in perms)
    return reps


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
                  sites: tuple[int, ...], alphabets: list[int], build_choices):
    """(tau, notes, witnesses) for the minimum solutions that swap one
    bundle into ``cliques`` at each choice site.

    Site ``sites[i]``, a base vertex, offers ``alphabets[i]`` bundles;
    ``build_choices()`` lists them per site as :func:`_site_reps` takes
    them.  tau counts the orbits of bundle assignments under the
    permutations that Aut(base) induces on the sites, and the witnesses
    are the least assignment of each orbit.  Past ``_WITNESS_ENUM_CAP``
    labelled solutions, or when a site's planes cannot be built, the one
    witness is ``cliques`` itself.
    """
    perms = _core_site_permutations(base, sites)
    tau = _orbit_count(perms, alphabets)
    labelled = prod(alphabets)
    notes = [] if tau == labelled else [
        f"{labelled} labelled minimum solutions fall into {tau} classes "
        "because base-graph automorphisms permute the choice sites"]
    if labelled <= _WITNESS_ENUM_CAP:
        try:
            site_choices = build_choices()
        except NoSuchPlaneConstruction as exc:  # pragma: no cover - huge sites
            notes.append(str(exc))
        else:
            return tau, tuple(notes), tuple(_site_reps(
                lg, cliques, site_choices,
                _orbit_representatives(perms, alphabets)))
    return tau, tuple(notes), (egp_set(CliqueCover(lg, tuple(cliques))),)


# --------------------------------------------------------------------------
# Simple-distinct witnesses for line graphs.

_SD_EXCLUDED = {"K3", "K4", "W_t", "3K2+K1", "star", "TP1"}


def _sd_wing_choices(base: Graph, cls: Classification,
                     eidx: dict) -> list[list[list[frozenset[int]]]]:
    """The two clique bundles of each 3-wing (s, x, y), in stalk order.

    The stalk s has one more neighbour w.  Index 0 is the stars of s, x
    and y; index 1 the wing triangle with the bridging pairs {sx, sw} and
    {sy, sw}.
    """
    out = []
    for s, x, y in cls.wings:
        if s not in cls.three_wing_stalks:
            continue
        (w,) = base.adj[s] - {x, y}
        sx, sy, xy, sw = (eidx[frozenset(p)]
                          for p in ((s, x), (s, y), (x, y), (s, w)))
        out.append([[_star_clique(base, eidx, v) for v in (s, x, y)],
                    [frozenset({sx, sy, xy}), frozenset({sx, sw}),
                     frozenset({sy, sw})]])
    return out


def _generic_base(base: Graph, excluded: set[str]):
    """The classification, line graph and edge index of ``base`` for the
    star/pendant constructions, which refuse the ``excluded`` kinds."""
    cls = classify(base)
    if cls.kind in excluded:
        raise TheoremNotApplicable(
            f"the star/pendant construction does not apply to {cls.kind} base graphs; "
            "use the oracle or the dispatch report for those"
        )
    return cls, line_graph(base)[0], _edge_indexer(base)


def witness_sd(base: Graph) -> SetRepresentation:
    """A minimum simple-distinct representation of the line graph of ``base``.

    Saturated stars on every internal vertex, with one private element for
    all but one pendant edge at each pendant-carrying vertex.  Applies to
    connected base graphs outside the exceptional shapes.
    """
    cls, lg, eidx = _generic_base(base, _SD_EXCLUDED)
    return egp_set(CliqueCover(lg, tuple(_base_cliques(base, cls, eidx, shared=1))))


def witness_sd_variants(base: Graph) -> list[SetRepresentation]:
    """All star/triangle variants of :func:`witness_sd`.

    Each 3-wing independently keeps its stars or flips to the wing triangle
    plus two bridging pairs, giving ``2 ** k`` representations for a base
    graph with ``k`` 3-wings (in subset order: the all-stars form first).
    """
    cls, lg, eidx = _generic_base(base, _SD_EXCLUDED)
    choices = _sd_wing_choices(base, cls, eidx)
    return _site_reps(lg, _base_cliques(base, cls, eidx, shared=1), choices,
                      product(*(range(len(c)) for c in choices)))


# --------------------------------------------------------------------------
# Simple-antichain witnesses for line graphs.

_SA_EXCLUDED = {"K3", "K4", "W_t", "star", "TP1", "TP2", "TPd1", "TPd2"}


def _sa_sites(base: Graph, cls: Classification) -> list[tuple[int, int]]:
    """Pendant-carrying vertices whose covering cliques admit alternatives.

    These are the critical vertices whose only non-pendant edge is a single
    stem, i.e. degree exactly one more than the pendant count, with at least
    two pendants.
    """
    return [(v, m) for v, m in cls.critical
            if m >= 2 and base.degree(v) == m + 1]


def _sa_site_choices(base: Graph, eidx: dict, v: int, m: int) -> list[list[frozenset[int]]]:
    """Clique bundles that can cover the edges at site ``v``, in a fixed order.

    Index 0 is the saturated star with private pendant elements; index 1 the
    near-pencil with its hub at the stem edge; for three or more pendants
    index 2 moves the hub to the first pendant edge, and any further indices
    are projective planes on the edge set.
    """
    pend = _pendant_edges(base, eidx, v)
    (stem,) = sorted(eidx[frozenset((v, u))] for u in base.adj[v]
                     if base.degree(u) >= 2)
    k_conf = [_star_clique(base, eidx, v)] + [frozenset({e}) for e in pend]
    if m == 2:
        np_conf = [frozenset({pend[0], pend[1]}),
                   frozenset({pend[0], stem}),
                   frozenset({pend[1], stem})]
        return [k_conf, np_conf]
    hub_stem = [frozenset(pend)] + [frozenset({e, stem}) for e in pend]
    rest = pend[1:] + [stem]
    hub_pend = [frozenset(rest)] + [frozenset({e, pend[0]}) for e in rest]
    choices = [k_conf, hub_stem, hub_pend]
    d = m + 1
    np = n_pp(d)
    if np is None:
        raise TheoremNotApplicable(
            f"plane census unknown for {d} points; cannot enumerate choices")
    if np:
        if np > 1:
            raise NoSuchPlaneConstruction(
                f"cannot construct all {np} plane classes on {d} points")
        points = pend + [stem]
        plane = [frozenset(points[p] for p in line)
                 for line in projective_plane(order_for_points(d)).lines]
        choices.append(plane)
    return choices


def witness_sa(base: Graph) -> SetRepresentation:
    """A minimum simple-antichain representation of the line graph of ``base``.

    Like :func:`witness_sd` but every pendant edge gets its own private
    element, which restores the antichain property at the cost of one extra
    universe element per pendant-carrying vertex.
    """
    cls, lg, eidx = _generic_base(base, _SA_EXCLUDED)
    return egp_set(CliqueCover(lg, tuple(_base_cliques(base, cls, eidx, shared=0))))


def witness_sa_variants(base: Graph) -> list[SetRepresentation]:
    """All per-site variants of :func:`witness_sa`.

    Every qualifying site (at least two pendants, single stem) independently
    picks one of its clique bundles: the saturated star, a near-pencil with
    the hub at the stem or at a pendant edge (one form when there are only
    two pendants), or a projective plane on its edges when one exists.
    """
    cls, lg, eidx = _generic_base(base, _SA_EXCLUDED)
    choices = [_sa_site_choices(base, eidx, v, m)
               for v, m in _sa_sites(base, cls)]
    return _site_reps(lg, _base_cliques(base, cls, eidx, shared=0), choices,
                      product(*(range(len(c)) for c in choices)))


# --------------------------------------------------------------------------
# The line-graph dispatch.

def _wrap_inner(inner: ThetaTauReport, lg: Graph, prefix: str) -> ThetaTauReport:
    return replace(inner, provenance=f"{prefix}>{inner.provenance}", graph=lg)


def _peacock_sa_tau(cls: Classification) -> int:
    if cls.kind == "TP2":
        m1, m2 = cls.plume_counts
        if m2 >= 2:
            return 5 if m1 != m2 else 4
        if m1 >= 2:
            return 3
        return 2
    return 2


def theta_tau_linegraph(base: Graph, category: str) -> ThetaTauReport:
    """Minimum size and class count for the line graph of ``base``.

    ``base`` must be connected with at least one edge.  The report's
    witnesses, when present, represent the line graph with vertices in base
    edge order.
    """
    _check_category(category)
    cls = classify(base)
    lg, _ = line_graph(base)

    if cls.kind == "star":
        return _wrap_inner(theta_tau_complete(cls.star_degree, category),
                           lg, "linegraph-star")
    if cls.kind == "K3":
        return _wrap_inner(theta_tau_complete(3, category), lg, "linegraph-triangle")

    if category == "sd":
        return _linegraph_sd(base, cls, lg)
    if category == "sa":
        return _linegraph_sa(base, cls, lg)
    return _linegraph_sdu(base, cls, lg)


def _linegraph_sd(base: Graph, cls: Classification, lg: Graph) -> ThetaTauReport:
    if cls.kind == "K4":
        eidx = _edge_indexer(base)
        stars = tuple(_star_clique(base, eidx, v) for v in range(4))
        tris = tuple(frozenset(eidx[frozenset(p)] for p in ((a, b), (b, c), (a, c)))
                     for a, b, c in ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)))
        witnesses = (egp_set(CliqueCover(lg, stars)),
                     egp_set(CliqueCover(lg, tris)))
        return _report("sd", None, 2, "linegraph-sd-K4", lg, witnesses)
    if cls.kind == "W_t":
        return _report("sd", None, 2, "linegraph-sd-windmill", lg)
    if cls.kind == "3K2+K1":
        note = ("the count usually quoted for this family is 3, but two of "
                "the three labelled minimum solutions are swapped by an "
                "automorphism of the base graph, leaving 2 classes under the "
                "equivalence used throughout this package")
        return _report("sd", None, 2, "linegraph-sd-matching-join", lg,
                       notes=(note,))
    if cls.kind == "TP1":
        return _report("sd", None, 2, "linegraph-sd-plumed-triangle", lg)

    # Generic: includes two-corner plumed triangles and plumed windmills.
    eidx = _edge_indexer(base)
    stalks = cls.three_wing_stalks
    tau, notes, witnesses = _site_classes(
        base, lg, _base_cliques(base, cls, eidx, shared=1), stalks,
        [2] * len(stalks), lambda: _sd_wing_choices(base, cls, eidx))
    return _report("sd", cls.gamma, tau, "linegraph-sd-generic", lg,
                   witnesses, notes)


def _linegraph_sa(base: Graph, cls: Classification, lg: Graph) -> ThetaTauReport:
    if cls.kind in ("K4", "W_t"):
        case = "linegraph-sa-K4" if cls.kind == "K4" else "linegraph-sa-windmill"
        return _report("sa", None, 2, case, lg)
    if cls.kind in ("TP1", "TP2", "TPd1", "TPd2"):
        return _report("sa", None, _peacock_sa_tau(cls),
                       "linegraph-sa-peacock", lg)

    sites = _sa_sites(base, cls)
    alphabets: list[int] = []
    unknown_at: list[int] = []
    for _v, m in sites:
        if m == 2:
            alphabets.append(2)
            continue
        np = n_pp(m + 1)
        if np is None:
            unknown_at.append(m + 1)
            alphabets.append(0)
        else:
            alphabets.append(3 + np)

    if unknown_at:
        known = prod(a for a in alphabets if a)
        parts = [str(known)] if known != 1 else []
        parts += [f"(3 + N_PP({d}))" for d in unknown_at]
        return _report(
            "sa", cls.gamma_prime, " * ".join(parts), "linegraph-sa-generic",
            lg, notes=("labelled count; automorphisms may identify some "
                       "choices",))

    eidx = _edge_indexer(base)
    tau, notes, witnesses = _site_classes(
        base, lg, _base_cliques(base, cls, eidx, shared=0),
        tuple(v for v, _m in sites), alphabets,
        lambda: [_sa_site_choices(base, eidx, v, m) for v, m in sites])
    return _report("sa", cls.gamma_prime, tau, "linegraph-sa-generic", lg,
                   witnesses, notes)


def _linegraph_sdu(base: Graph, cls: Classification, lg: Graph) -> ThetaTauReport:
    special = (cls.kind == "K4"
               or (cls.kind == "W_t" and cls.t == 2)
               or (cls.kind == "TP1" and cls.plume_counts == (1,)))
    if special:
        return _report("sdu", None, 2, "linegraph-sdu-special", lg)
    return _report("sdu", None, 1, "linegraph-sdu-generic", lg)
