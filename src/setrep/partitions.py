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

The only pruning is the clique budget.  A node with no clique left and
edges still uncovered is a dead end, and a node with one clique left
does not branch: it closes the partition with the clique on its active
vertices if the uncovered edges form exactly that clique, and is pruned
otherwise.
"""

from __future__ import annotations

import time


def enumerate_edge_partitions(n, adj, max_cliques, node_limit=None,
                              deadline=None):
    """Enumerate partitions; returns (partitions, nodes, complete), with
    the partitions in sorted order.

    ``deadline`` is an absolute ``time.monotonic()`` stamp.  A search
    stopped by ``node_limit`` reports one node more than the limit.
    """
    unc = [adj[v] for v in range(n)]
    cliques: list[int] = []
    partitions: list[tuple[int, ...]] = []
    nodes = 0
    aborted = False

    def descend() -> None:
        nonlocal nodes, aborted
        if aborted:
            return
        nodes += 1
        if node_limit is not None and nodes > node_limit:
            aborted = True
            return
        if deadline is not None and nodes % 1024 == 0 \
                and time.monotonic() > deadline:
            aborted = True
            return

        active = 0
        total = 0
        for x in range(n):
            ux = unc[x]
            if ux:
                active |= 1 << x
                total += ux.bit_count()
        if not active:
            partitions.append(tuple(sorted(cliques)))
            return
        remaining = max_cliques - len(cliques)
        if remaining <= 0:
            return
        if remaining == 1:
            # the last clique must be the whole uncovered graph
            k = active.bit_count()
            if total == k * (k - 1):
                partitions.append(tuple(sorted(cliques + [active])))
            return

        # fail-first edge: fewest common uncovered neighbours
        best = n
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

        candidates: list[int] = []

        def extend(cur: int, cand: int) -> None:
            candidates.append(cur)
            while cand:
                wbit = cand & -cand
                cand ^= wbit
                extend(cur | wbit, cand & unc[wbit.bit_length() - 1])

        extend(base, common)

        for cl in candidates:
            saved = []
            rest = cl
            while rest:
                bit = rest & -rest
                rest ^= bit
                a = bit.bit_length() - 1
                saved.append((a, unc[a]))
                unc[a] &= ~cl
            cliques.append(cl)
            descend()
            cliques.pop()
            for a, old in saved:
                unc[a] = old
            if aborted:
                return

    descend()
    partitions.sort()
    return partitions, nodes, not aborted


def kernel_name() -> str:
    """Name of the partition kernel, as oracle results record it."""
    return "pure"


__all__ = ["enumerate_edge_partitions", "kernel_name"]
