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
"""

from __future__ import annotations

from dataclasses import dataclass, field
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


def _tau_exact(n: int) -> TauValue:
    return TauValue(exact=n)


def _is_prime_power(r: int) -> bool:
    if r < 2:
        return False
    p = 2
    while p * p <= r:
        if r % p == 0:
            while r % p == 0:
                r //= p
            return r == 1
        p += 1
    return True  # r itself is prime


def _plane_rep(n: int, g: Graph) -> SetRepresentation | None:
    """One projective-plane representation of K_n, when constructible."""
    r = order_for_points(n)
    if r is None or not _is_prime_power(r):
        return None
    try:
        ls = projective_plane(r)
    except NoSuchPlaneConstruction:
        return None
    return egp_set(fls_to_cover(ls, g))


def _uniform_silly_rep(n: int) -> SetRepresentation:
    """K_n as one whole-graph clique plus one private element per vertex."""
    g = complete_graph(n)
    cliques = [frozenset(range(n))] + [frozenset({v}) for v in range(n)]
    return egp_set(CliqueCover(g, tuple(cliques)))


def _missing_witness_notes(tau: TauValue, witnesses) -> tuple[str, ...]:
    """The note for an exact class count that has fewer witnesses."""
    if tau.exact is None or len(witnesses) >= tau.exact:
        return ()
    return (f"{tau.exact} classes exist but only {len(witnesses)} "
            "have constructions available here",)


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
        if n == 1:
            rep = egp_set(CliqueCover(g, (frozenset({0}),)))
            return ThetaTauReport(category, ThetaValue(exact=1), _tau_exact(1),
                                  "complete-small", witnesses=(rep,), graph=g)
        if category == "sd":
            rep = egp_set(CliqueCover(g, (frozenset({0, 1}), frozenset({0}))))
            return ThetaTauReport(category, ThetaValue(exact=2), _tau_exact(1),
                                  "complete-small", witnesses=(rep,), graph=g)
        rep = _uniform_silly_rep(2)
        return ThetaTauReport(category, ThetaValue(exact=3), _tau_exact(1),
                              "complete-small", witnesses=(rep,), graph=g)

    if category == "sd":
        np = n_pp(n)
        np_rep = egp_set(fls_to_cover(near_pencil(n), g))
        sp_rep = egp_set(silly_partition(n))
        witnesses = [sp_rep, np_rep]
        if np is None:
            tau = TauValue(symbolic=f"2 + N_PP({n})")
        else:
            tau = _tau_exact(2 + np)
            if np:
                plane = _plane_rep(n, g)
                if plane is not None:
                    witnesses.append(plane)
        return ThetaTauReport(category, ThetaValue(exact=n), tau, "complete-sd",
                              notes=_missing_witness_notes(tau, witnesses),
                              witnesses=tuple(witnesses), graph=g)

    if category == "sa":
        np = n_pp(n)
        witnesses = [egp_set(fls_to_cover(near_pencil(n), g))]
        if np is None:
            tau = TauValue(symbolic=f"1 + N_PP({n})")
        else:
            tau = _tau_exact(1 + np)
            if np:
                plane = _plane_rep(n, g)
                if plane is not None:
                    witnesses.append(plane)
        return ThetaTauReport(category, ThetaValue(exact=n), tau, "complete-sa",
                              notes=_missing_witness_notes(tau, witnesses),
                              witnesses=tuple(witnesses), graph=g)

    # simple-distinct-uniform
    if n == 3:
        rep = egp_set(fls_to_cover(near_pencil(3), g))
        return ThetaTauReport(category, ThetaValue(exact=3), _tau_exact(1),
                              "complete-sdu", witnesses=(rep,), graph=g)

    r = order_for_points(n)
    if r is not None:
        np = n_pp(n)
        if np is None:
            if _is_prime_power(r):
                # A plane of this order exists even though the full census
                # is open, so the minimum is still n.
                return ThetaTauReport(
                    category, ThetaValue(exact=n), TauValue(symbolic=f"N_PP({n})"),
                    "complete-sdu", graph=g)
            return ThetaTauReport(
                category, ThetaValue(oracle_needed=True), TauValue(unknown=True),
                "complete-sdu",
                notes=(f"existence of a projective plane of order {r} is open",),
                graph=g)
        if np:
            witnesses = []
            plane = _plane_rep(n, g)
            if plane is not None:
                witnesses.append(plane)
            tau = _tau_exact(np)
            return ThetaTauReport(category, ThetaValue(exact=n), tau, "complete-sdu",
                                  notes=_missing_witness_notes(tau, witnesses),
                                  witnesses=tuple(witnesses), graph=g)
        # No plane at this admissible order: fall through to n + 1.

    np1 = n_pp(n + 1)
    witnesses = [_uniform_silly_rep(n)]
    if np1 is None:
        tau: TauValue = TauValue(symbolic=f"1 + N_PP({n + 1})")
    else:
        tau = _tau_exact(1 + np1)
        if np1:
            r1 = order_for_points(n + 1)
            if r1 is not None and _is_prime_power(r1):
                ls = puncture(projective_plane(r1), 1)
                witnesses.append(egp_set(fls_to_cover(ls, g)))
    return ThetaTauReport(category, ThetaValue(exact=n + 1), tau, "complete-sdu",
                          notes=_missing_witness_notes(tau, witnesses),
                          witnesses=tuple(witnesses), graph=g)


# --------------------------------------------------------------------------
# Line graphs: shared machinery for the generic constructions.

def _edge_indexer(base: Graph) -> dict[frozenset[int], int]:
    return {frozenset(e): i for i, e in enumerate(base.edges)}


def _star_clique(base: Graph, eidx: dict, v: int) -> frozenset[int]:
    return frozenset(eidx[frozenset((v, u))] for u in base.adj[v])


def _pendant_edges(base: Graph, eidx: dict, v: int) -> list[int]:
    return sorted(eidx[frozenset((v, u))] for u in base.adj[v]
                  if base.degree(u) == 1)


def _core_site_permutations(base: Graph, sites: tuple[int, ...]) -> list[tuple[int, ...]]:
    """How base-graph automorphisms can permute the given choice sites.

    Pendant vertices are stripped first and replaced by a colour recording
    how many pendants each remaining vertex carried; automorphisms of the
    coloured core are exactly the automorphisms of the full graph up to
    permutations of pendants at a common neighbour, and those act trivially
    on the sites.  Returns the distinct induced permutations of ``sites``
    (as index tuples); always includes the identity.
    """
    if not sites:
        return [()]
    core = [v for v in range(base.n) if base.degree(v) >= 2]
    if not core:  # no core at all: only K2-like shapes, routed elsewhere
        return [tuple(range(len(sites)))]
    at = {v: i for i, v in enumerate(core)}
    core_graph = Graph(tuple(base.labels[v] for v in core),
                       tuple((at[u], at[v]) for u, v in base.edges
                             if u in at and v in at))
    color = [sum(1 for u in base.adj[v] if base.degree(u) == 1) for v in core]
    site_pos = {v: i for i, v in enumerate(sites)}
    return sorted({tuple(site_pos[core[sigma[at[v]]]] for v in sites)
                   for sigma in automorphisms(core_graph, color)})


def _site_orbit_notes(labelled: int, tau: int) -> list[str]:
    """The note for labelled solutions that automorphisms identify."""
    if tau == labelled:
        return []
    return [f"{labelled} labelled minimum solutions fall into {tau} classes "
            "because base-graph automorphisms permute the choice sites"]


def _cycles(perm: tuple[int, ...]) -> list[list[int]]:
    seen = [False] * len(perm)
    out = []
    for i in range(len(perm)):
        if seen[i]:
            continue
        cyc = []
        j = i
        while not seen[j]:
            seen[j] = True
            cyc.append(j)
            j = perm[j]
        out.append(cyc)
    return out


def _orbit_count(perms: list[tuple[int, ...]], alphabets: list[int]) -> int:
    """Burnside count of site assignments up to the induced permutations."""
    total = 0
    for pi in perms:
        fixed = 1
        for cyc in _cycles(pi):
            fixed *= alphabets[cyc[0]]
        total += fixed
    count, rem = divmod(total, len(perms))
    assert rem == 0, "orbit count must be an integer"
    return count


def _orbit_representatives(perms: list[tuple[int, ...]],
                           alphabets: list[int]) -> list[tuple[int, ...]]:
    """Lexicographically least assignment from each orbit."""
    reps = []
    seen: set[tuple[int, ...]] = set()
    for a in product(*(range(k) for k in alphabets)):
        if a in seen:
            continue
        reps.append(a)
        stack = [a]
        while stack:
            b = stack.pop()
            for pi in perms:
                c = [0] * len(b)
                for i, choice in enumerate(b):
                    c[pi[i]] = choice
                ct = tuple(c)
                if ct not in seen:
                    seen.add(ct)
                    stack.append(ct)
    return reps


# --------------------------------------------------------------------------
# Simple-distinct witnesses for line graphs.

_SD_EXCLUDED = {"K3", "K4", "W_t", "3K2+K1", "star", "TP1"}


def _sd_base_cliques(base: Graph, cls: Classification,
                     eidx: dict) -> list[frozenset[int]]:
    cliques = [_star_clique(base, eidx, v)
               for v in range(base.n) if base.degree(v) >= 2]
    for v, _m in cls.critical:
        # All pendant edges but the last get a private element.
        for e in _pendant_edges(base, eidx, v)[:-1]:
            cliques.append(frozenset({e}))
    return cliques


def _wing_replacement(base: Graph, eidx: dict,
                      wing: tuple[int, int, int]) -> tuple[set[frozenset[int]], list[frozenset[int]]]:
    """Cliques to drop and to add when a 3-wing flips from stars to triangle."""
    s, x, y = wing
    (w,) = base.adj[s] - {x, y}
    sx, sy, xy = (eidx[frozenset(p)] for p in ((s, x), (s, y), (x, y)))
    sw = eidx[frozenset((s, w))]
    drop = {_star_clique(base, eidx, v) for v in (s, x, y)}
    add = [frozenset({sx, sy, xy}), frozenset({sx, sw}), frozenset({sy, sw})]
    return drop, add


def _require_linegraph_generic(cls: Classification, excluded: set[str],
                               what: str) -> None:
    if cls.kind in excluded:
        raise TheoremNotApplicable(
            f"the {what} construction does not apply to {cls.kind} base graphs; "
            "use the oracle or the dispatch report for those"
        )


def witness_sd(base: Graph) -> SetRepresentation:
    """A minimum simple-distinct representation of the line graph of ``base``.

    Saturated stars on every internal vertex, with one private element for
    all but one pendant edge at each pendant-carrying vertex.  Applies to
    connected base graphs outside the exceptional shapes.
    """
    cls = classify(base)
    _require_linegraph_generic(cls, _SD_EXCLUDED, "star/pendant")
    lg, _ = line_graph(base)
    eidx = _edge_indexer(base)
    return egp_set(CliqueCover(lg, tuple(_sd_base_cliques(base, cls, eidx))))


def witness_sd_variants(base: Graph) -> list[SetRepresentation]:
    """All star/triangle variants of :func:`witness_sd`.

    Each 3-wing independently keeps its stars or flips to the wing triangle
    plus two bridging pairs, giving ``2 ** k`` representations for a base
    graph with ``k`` 3-wings (in subset order: the all-stars form first).
    """
    cls = classify(base)
    _require_linegraph_generic(cls, _SD_EXCLUDED, "star/pendant")
    lg, _ = line_graph(base)
    eidx = _edge_indexer(base)
    stalks = cls.three_wing_stalks
    wings = {w[0]: w for w in cls.wings if w[0] in stalks}
    out = []
    for bits in product((0, 1), repeat=len(stalks)):
        cliques = _sd_base_cliques(base, cls, eidx)
        for stalk, bit in zip(stalks, bits):
            if not bit:
                continue
            drop, add = _wing_replacement(base, eidx, wings[stalk])
            cliques = [q for q in cliques if q not in drop] + add
        out.append(egp_set(CliqueCover(lg, tuple(cliques))))
    return out


# --------------------------------------------------------------------------
# Simple-antichain witnesses for line graphs.

_SA_EXCLUDED = {"K3", "K4", "W_t", "star", "TP1", "TP2", "TPd1", "TPd2"}


def _sa_base_cliques(base: Graph, cls: Classification,
                     eidx: dict) -> list[frozenset[int]]:
    cliques = [_star_clique(base, eidx, v)
               for v in range(base.n) if base.degree(v) >= 2]
    for v, _m in cls.critical:
        for e in _pendant_edges(base, eidx, v):
            cliques.append(frozenset({e}))
    return cliques


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
        r = order_for_points(d)
        if np > 1 or r is None or not _is_prime_power(r):
            raise NoSuchPlaneConstruction(
                f"cannot construct all {np} plane classes on {d} points")
        points = pend + [stem]
        plane = [frozenset(points[p] for p in line)
                 for line in projective_plane(r).lines]
        choices.append(plane)
    return choices


def witness_sa(base: Graph) -> SetRepresentation:
    """A minimum simple-antichain representation of the line graph of ``base``.

    Like :func:`witness_sd` but every pendant edge gets its own private
    element, which restores the antichain property at the cost of one extra
    universe element per pendant-carrying vertex.
    """
    cls = classify(base)
    _require_linegraph_generic(cls, _SA_EXCLUDED, "star/pendant")
    lg, _ = line_graph(base)
    eidx = _edge_indexer(base)
    return egp_set(CliqueCover(lg, tuple(_sa_base_cliques(base, cls, eidx))))


def witness_sa_variants(base: Graph) -> list[SetRepresentation]:
    """All per-site variants of :func:`witness_sa`.

    Every qualifying site (at least two pendants, single stem) independently
    picks one of its clique bundles: the saturated star, a near-pencil with
    the hub at the stem or at a pendant edge (one form when there are only
    two pendants), or a projective plane on its edges when one exists.
    """
    cls = classify(base)
    _require_linegraph_generic(cls, _SA_EXCLUDED, "star/pendant")
    lg, _ = line_graph(base)
    eidx = _edge_indexer(base)
    sites = _sa_sites(base, cls)
    site_choices = [_sa_site_choices(base, eidx, v, m) for v, m in sites]

    # Cliques not owned by any site stay fixed across all variants.
    owned = {q for choices in site_choices for q in choices[0]}
    fixed = [q for q in _sa_base_cliques(base, cls, eidx) if q not in owned]

    out = []
    for combo in product(*site_choices):
        cliques = list(fixed)
        for bundle in combo:
            cliques.extend(bundle)
        out.append(egp_set(CliqueCover(lg, tuple(cliques))))
    return out


# --------------------------------------------------------------------------
# The line-graph dispatch.

def _wrap_inner(inner: ThetaTauReport, lg: Graph, prefix: str) -> ThetaTauReport:
    return ThetaTauReport(inner.category, inner.theta, inner.tau,
                          f"{prefix}>{inner.provenance}", inner.notes,
                          inner.witnesses, lg)


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
        return ThetaTauReport("sd", ThetaValue(oracle_needed=True), _tau_exact(2),
                              "linegraph-sd-K4", witnesses=witnesses, graph=lg)
    if cls.kind == "W_t":
        return ThetaTauReport("sd", ThetaValue(oracle_needed=True), _tau_exact(2),
                              "linegraph-sd-windmill", graph=lg)
    if cls.kind == "3K2+K1":
        note = ("the count usually quoted for this family is 3, but two of "
                "the three labelled minimum solutions are swapped by an "
                "automorphism of the base graph, leaving 2 classes under the "
                "equivalence used throughout this package")
        return ThetaTauReport("sd", ThetaValue(oracle_needed=True), _tau_exact(2),
                              "linegraph-sd-matching-join", notes=(note,), graph=lg)
    if cls.kind == "TP1":
        return ThetaTauReport("sd", ThetaValue(oracle_needed=True), _tau_exact(2),
                              "linegraph-sd-plumed-triangle", graph=lg)

    # Generic: includes two-corner plumed triangles and plumed windmills.
    stalks = cls.three_wing_stalks
    perms = _core_site_permutations(base, stalks)
    alphabets = [2] * len(stalks)
    tau = _orbit_count(perms, alphabets)
    labelled = 2 ** len(stalks)
    notes = _site_orbit_notes(labelled, tau)

    if labelled <= _WITNESS_ENUM_CAP:
        by_assign = dict(zip(product((0, 1), repeat=len(stalks)),
                             witness_sd_variants(base)))
        witnesses = tuple(by_assign[a] for a in _orbit_representatives(perms, alphabets))
    else:  # pragma: no cover - wildly many sites
        witnesses = (witness_sd(base),)
    return ThetaTauReport("sd", ThetaValue(exact=cls.gamma), _tau_exact(tau),
                          "linegraph-sd-generic", notes=tuple(notes),
                          witnesses=witnesses, graph=lg)


def _linegraph_sa(base: Graph, cls: Classification, lg: Graph) -> ThetaTauReport:
    if cls.kind in ("K4", "W_t"):
        case = "linegraph-sa-K4" if cls.kind == "K4" else "linegraph-sa-windmill"
        return ThetaTauReport("sa", ThetaValue(oracle_needed=True), _tau_exact(2),
                              case, graph=lg)
    if cls.kind in ("TP1", "TP2", "TPd1", "TPd2"):
        return ThetaTauReport("sa", ThetaValue(oracle_needed=True),
                              _tau_exact(_peacock_sa_tau(cls)),
                              "linegraph-sa-peacock", graph=lg)

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
        return ThetaTauReport(
            "sa", ThetaValue(exact=cls.gamma_prime),
            TauValue(symbolic=" * ".join(parts)), "linegraph-sa-generic",
            notes=("labelled count; automorphisms may identify some choices",),
            graph=lg)

    perms = _core_site_permutations(base, tuple(v for v, _m in sites))
    tau = _orbit_count(perms, alphabets)
    labelled = prod(alphabets) if alphabets else 1
    notes = _site_orbit_notes(labelled, tau)

    witnesses: tuple[SetRepresentation, ...]
    if labelled <= _WITNESS_ENUM_CAP:
        try:
            by_assign = dict(zip(product(*(range(a) for a in alphabets)),
                                 witness_sa_variants(base)))
            witnesses = tuple(by_assign[a]
                              for a in _orbit_representatives(perms, alphabets))
        except NoSuchPlaneConstruction as exc:  # pragma: no cover - huge sites
            notes.append(str(exc))
            witnesses = (witness_sa(base),)
    else:  # pragma: no cover
        witnesses = (witness_sa(base),)
    return ThetaTauReport("sa", ThetaValue(exact=cls.gamma_prime), _tau_exact(tau),
                          "linegraph-sa-generic", notes=tuple(notes),
                          witnesses=witnesses, graph=lg)


def _linegraph_sdu(base: Graph, cls: Classification, lg: Graph) -> ThetaTauReport:
    special = (cls.kind == "K4"
               or (cls.kind == "W_t" and cls.t == 2)
               or (cls.kind == "TP1" and cls.plume_counts == (1,)))
    if special:
        return ThetaTauReport("sdu", ThetaValue(oracle_needed=True), _tau_exact(2),
                              "linegraph-sdu-special", graph=lg)
    return ThetaTauReport("sdu", ThetaValue(oracle_needed=True), _tau_exact(1),
                          "linegraph-sdu-generic", graph=lg)
