"""Edge-clique-partition enumeration kernel.

Graphs are bitmask-encoded: ``adj[v]`` holds the neighbours of ``v``.
A partition is returned as a sorted tuple of clique bitmasks covering
every edge exactly once, using at most ``max_cliques`` cliques of size
two or more (single-vertex cliques are the driver's business, not the
kernel's).

Search strategy: fail first.  Every clique of the partition that
covers an uncovered edge (a, b) consists of a, b and a clique of their
common uncovered neighbourhood, so a node branches on those cliques for
one edge.  The edge chosen is the one with the fewest common uncovered
neighbours, popcount(unc[a] & unc[b]), ties going to the least a and then
the least b; the scan stops at the first edge with none, whose only
candidate is the edge itself.

The clique budget prunes: a node with no clique left and edges still
uncovered is a dead end, and a node with one clique left does not branch:
it closes the partition with the clique on its active vertices if the
uncovered edges form exactly that clique, and is pruned otherwise.  A
node with two cliques left branches only if its uncovered edges are the
edges of at most two cliques, which a test on the lowest active vertex a
decides exactly (N[a] and N(a) are taken in the uncovered graph).  In a
partition of the uncovered edges into two cliques, an edge from a
neighbour of a in one clique at a to a neighbour in the other would lie in
neither.  So if N[a] is a clique, a lies in one clique, and it is N[a];
the edges outside N[a] must then be all the pairs of the vertices they
touch.  If N[a] is not a clique, a lies in both cliques, and its lowest
neighbour x shares a clique with exactly the neighbours of a that it is
adjacent to: one clique is a, x and x's neighbours in N(a), the other is a
and the rest of N(a).  Both must be cliques, and their edges must be all
the uncovered edges.

Twin orbits prune too.  Two vertices are true twins when their closed
neighbourhoods N[u] and N[v] are equal, and swapping them is an
automorphism of the graph.  At a node the vertices fall into cells: two
vertices share a cell when they are true twins and lie in exactly the
same chosen cliques.  Swapping two vertices of one cell then fixes every
chosen clique and the uncovered graph, so the candidates {a, b} ∪ S that
differ only in which vertices of a cell S takes are one orbit, and only
the one taking the cell's lowest vertices in the common neighbourhood is
searched.  It stands for Π over cells of C(|cell ∩ common|, |S ∩ cell|)
candidates, and a partition's weight is the product of these along its
path.  The partitions returned meet every orbit of partitions under the
product of the symmetric groups on the true-twin classes, and within each
orbit their weights sum to the orbit's size: the weighted count is the
labelled count.  A graph without true twins is searched in full, every
partition with weight 1.

Budgets resume.  A node's branching edge, candidates and twin cells do not
depend on the budget, and the budget only prunes, so the tree at budget
q + 1 contains the tree at q node for node.  A run that asks for growing
budgets (the oracle's universe sizes) passes one :class:`Frontier`.  Each
node that the budget prunes is kept there with its chosen cliques, its
uncovered masks, its cells, weight, active vertices and edge total, and
the least budget that lets it go on: one more clique when the uncovered
edges form one clique, two more when they do not and one clique was left,
three more when two were left.  A later call resumes the
entries its budget admits and keeps the rest.  A node that closed its
partition with the whole uncovered clique skips that candidate when it is
resumed, so each call returns only the partitions new at its budget.  A
node is counted when it is first visited and not again when resumed, so
the nodes of a run up to budget q are at most those of one call at q.
Every pruned node is kept, whatever budget it needs, so a frontier can be
resumed at any larger budget later.

The search keeps its state in one :class:`_Search` object, which
module-level functions take: a nested function that calls itself is a
reference cycle, and the cycle would keep each call's partitions, frontier
entries and masks alive until the cyclic garbage collector runs.
"""

from __future__ import annotations

import time
from math import comb


def _twin_classes(n: int, adj) -> list[int]:
    """The true-twin classes of two or more vertices, as bitmasks."""
    closed = [adj[v] | 1 << v for v in range(n)]
    if len(set(closed)) == n:
        return []
    by_closed: dict[int, int] = {}
    for v, nbhd in enumerate(closed):
        by_closed[nbhd] = by_closed.get(nbhd, 0) | 1 << v
    return [cls for cls in by_closed.values() if cls & (cls - 1)]


class Frontier:
    """The nodes of one run that its clique budgets pruned, kept so that a
    larger budget resumes them instead of searching from the root again.

    ``entries`` is None until the first call has searched the root.  A
    call that stops at a limit leaves the frontier part-resumed: it must
    not be resumed again."""

    __slots__ = ("entries",)

    def __init__(self):
        self.entries: list[tuple] | None = None


class _Search:
    """The state of one :func:`enumerate_edge_partitions` call, which the
    module-level search functions take as their first argument."""

    __slots__ = ("n", "max_cliques", "node_limit", "deadline", "keep", "unc",
                 "cliques", "partitions", "kept", "nodes", "aborted")

    def __init__(self, n, adj, max_cliques, node_limit, deadline, keep):
        self.n = n
        self.max_cliques = max_cliques
        self.node_limit = node_limit
        self.deadline = deadline
        self.keep = keep  # whether pruned nodes go to a frontier
        self.unc = [adj[v] for v in range(n)]
        self.cliques: list[int] = []
        self.partitions: list[tuple[tuple[int, ...], int]] = []
        self.kept: list[tuple] = []
        self.nodes = 0
        self.aborted = False


def enumerate_edge_partitions(n, adj, max_cliques, node_limit=None,
                              deadline=None, frontier=None):
    """Enumerate partitions up to twin swaps; returns (pairs, nodes,
    complete), the pairs ``(partition, weight)`` sorted by partition.

    ``deadline`` is an absolute ``time.monotonic()`` stamp.  A search
    stopped by ``node_limit`` reports one node more than the limit.
    Without ``frontier`` the call searches from the root and keeps
    nothing.  With one, the first call searches from the root and each
    later call resumes the frontier's nodes that its budget admits; it
    returns only the partitions new at its budget and counts only the
    nodes it visits for the first time.
    """
    s = _Search(n, adj, max_cliques, node_limit, deadline,
                frontier is not None)
    if frontier is None or frontier.entries is None:
        active = 0
        total = 0
        for x in range(n):
            if adj[x]:
                active |= 1 << x
                total += adj[x].bit_count()
        _descend(s, _twin_classes(n, adj), 1, active, total)
    else:
        for entry in frontier.entries:
            least, chosen, node_unc, cells, weight, active, total, skip = entry
            if least > max_cliques:
                s.kept.append(entry)
                continue
            # a resumed node was counted when it was first visited
            s.cliques[:] = chosen
            s.unc[:] = node_unc
            _expand(s, cells, weight, active, total, skip)
            if s.aborted:
                break
    if frontier is not None:
        frontier.entries = s.kept
    s.partitions.sort()
    return s.partitions, s.nodes, not s.aborted


def _descend(s: _Search, cells: list[int], weight: int, active: int,
             total: int) -> None:
    """Count a new node, stop at a limit, and expand it."""
    s.nodes += 1
    if s.node_limit is not None and s.nodes > s.node_limit:
        s.aborted = True
        return
    if s.deadline is not None and s.nodes % 1024 == 0 \
            and time.monotonic() > s.deadline:
        s.aborted = True
        return
    _expand(s, cells, weight, active, total, 0)


# cells: the node's cells of two or more vertices; weight: the number of
# labelled nodes the node stands for; active: the vertices with an
# uncovered edge; total: twice the number of uncovered edges; skip: the
# last clique of the partition this node returned at a smaller budget
def _expand(s: _Search, cells: list[int], weight: int, active: int,
            total: int, skip: int) -> None:
    cliques = s.cliques
    if not active:
        s.partitions.append((tuple(sorted(cliques)), weight))
        return
    unc = s.unc
    remaining = s.max_cliques - len(cliques)
    if remaining <= 1:
        # the last clique must be the whole uncovered graph
        k = active.bit_count()
        whole = total == k * (k - 1)
        if whole and remaining == 1:
            s.partitions.append((tuple(sorted(cliques + [active])), weight))
        # one more clique closes a whole uncovered graph left open;
        # anything else needs two more to branch
        least = len(cliques) + (1 if whole and remaining < 1 else 2)
        if s.keep:
            s.kept.append((least, tuple(cliques), tuple(unc), cells,
                           weight, active, total,
                           active if whole and remaining == 1 else 0))
        return
    if remaining == 2 and not _two_cliques(unc, active, total):
        # the uncovered edges need three more cliques at least
        if s.keep:
            s.kept.append((len(cliques) + 3, tuple(cliques), tuple(unc),
                           cells, weight, active, total, skip))
        return

    # fail-first edge: fewest common uncovered neighbours
    best = s.n
    rest = active
    while rest and best:
        abit = rest & -rest
        rest ^= abit
        a = abit.bit_length() - 1
        ua = unc[a]
        later = ua & ~((abit << 1) - 1)
        while later:
            bbit = later & -later
            later ^= bbit
            b = bbit.bit_length() - 1
            c = (ua & unc[b]).bit_count()
            if c < best:
                best, u, v = c, a, b
                if not c:
                    break
    base = (1 << u) | (1 << v)
    common = unc[u] & unc[v]

    # the vertices of one cell in common are interchangeable: lower[w]
    # holds those below w, which a candidate takes before it takes w
    lower = None
    if cells:
        groups = []
        lower = {}
        for cell in cells:
            grp = cell & common
            if grp & (grp - 1):
                groups.append(grp)
                below = 0
                while grp:
                    wbit = grp & -grp
                    grp ^= wbit
                    lower[wbit] = below
                    below |= wbit

    candidates: list[int] = []
    _extend(candidates, unc, lower, base, common)

    for cl in candidates:
        if cl == skip:
            continue
        saved = []
        left = active
        rest = cl
        while rest:
            bit = rest & -rest
            rest ^= bit
            a = bit.bit_length() - 1
            saved.append((a, unc[a]))
            unc[a] &= ~cl
            if not unc[a]:
                left ^= bit
        k = cl.bit_count()
        left_total = total - k * (k - 1)
        cliques.append(cl)
        if cells:
            orbit = weight
            for grp in groups:
                orbit *= comb(grp.bit_count(), (cl & grp).bit_count())
            split = [part for cell in cells
                     for part in (cell & cl, cell & ~cl)
                     if part & (part - 1)]
            _descend(s, split, orbit, left, left_total)
        else:
            _descend(s, cells, weight, left, left_total)
        cliques.pop()
        for a, old in saved:
            unc[a] = old
        if s.aborted:
            return


def _two_cliques(unc: list[int], active: int, total: int) -> bool:
    """Whether the uncovered edges, ``total`` of them counted twice on the
    ``active`` vertices, are the edges of at most two cliques."""
    abit = active & -active
    na = unc[abit.bit_length() - 1]
    closed = na | abit
    rest = na
    while rest:
        vbit = rest & -rest
        rest ^= vbit
        if (unc[vbit.bit_length() - 1] | vbit) & closed != closed:
            break
    else:
        # N[a] is a's only clique; the edges outside it must be one clique
        k = closed.bit_count()
        k2 = (active & ~closed).bit_count()
        rest = na
        while rest:
            vbit = rest & -rest
            rest ^= vbit
            if unc[vbit.bit_length() - 1] & ~closed:
                k2 += 1
        return total - k * (k - 1) == k2 * (k2 - 1)
    # a lies in both cliques: the lowest neighbour x and its neighbours
    # in N(a) are one, the rest of N(a) the other
    xbit = na & -na
    one = unc[xbit.bit_length() - 1] & na | xbit | abit
    two = na & ~one | abit
    rest = na
    while rest:
        vbit = rest & -rest
        rest ^= vbit
        clique = one if vbit & one else two
        if (unc[vbit.bit_length() - 1] | vbit) & clique != clique:
            return False
    k1 = one.bit_count()
    k2 = two.bit_count()
    return total == k1 * (k1 - 1) + k2 * (k2 - 1)


def _extend(candidates: list[int], unc: list[int], lower: dict | None,
            cur: int, cand: int) -> None:
    """Append ``cur`` and every clique that grows it from ``cand``, the
    vertices adjacent to all of it, taking a cell's vertices lowest
    first."""
    candidates.append(cur)
    while cand:
        wbit = cand & -cand
        cand ^= wbit
        if lower and lower.get(wbit, 0) & ~cur:
            continue
        _extend(candidates, unc, lower, cur | wbit,
                cand & unc[wbit.bit_length() - 1])


def kernel_name() -> str:
    """Name of the partition kernel, as oracle results record it."""
    return "pure"


__all__ = ["Frontier", "enumerate_edge_partitions", "kernel_name"]
