"""The two workloads: seeded inputs, the calls made on them, and checks.

A workload is a ladder of rungs.  Running a rung makes public calls through
a ``Pass`` and attaches to each call a check that is evaluated after the
timed pass.  The seed only relabels vertices and picks the labelling of the
inputs; the program receives nothing but the generated graphs.

* ``direct`` -- graphs given without a base.  The K_n oracle rungs are
  keyed through ``canonical_form`` and the covering-bound census is all
  kernel, on maximally symmetric input.  The friendship, multipartite, book
  and star graphs make padding, listing Aut(H) and minimising over it
  dominate.
* ``linegraph`` -- nearly asymmetric bases: the kernel does most of the
  work and keying runs over tiny groups.  The only closed-form path.
"""

from __future__ import annotations

import hashlib
import random
import time
from dataclasses import dataclass, replace

from setrep import (Graph, OracleResult, SearchBudget, category_flags,
                    classify, complete_graph, cycle_graph, line_graph,
                    oracle_search, path_graph, represents, star_graph,
                    theta_tau_complete, theta_tau_linegraph, verify_dbe,
                    witness_sa, witness_sd)

import reference

# Kinds for which the generic witness constructions apply.
SD_WITNESS_KINDS = {"generic", "TP2", "TPd1", "TPd2"}
SA_WITNESS_KINDS = {"generic", "3K2+K1"}


# ---------------------------------------------------------------------------
# Graph builders
# ---------------------------------------------------------------------------

def from_edges(edges) -> Graph:
    """A graph from (label, label) pairs, labels sorted."""
    labels = sorted({v for e in edges for v in e})
    index = {lab: i for i, lab in enumerate(labels)}
    pairs = sorted((min(index[a], index[b]), max(index[a], index[b]))
                   for a, b in edges)
    return Graph(tuple(labels), tuple(pairs))


def plumed_triangle(m):
    return from_edges([("v", "x"), ("v", "y"), ("x", "y")]
                      + [("v", f"p{i}") for i in range(m)])


def two_plumed_triangle(m1, m2):
    return from_edges([("v1", "v2"), ("v1", "a"), ("v2", "a")]
                      + [("v1", f"p{i}") for i in range(m1)]
                      + [("v2", f"q{i}") for i in range(m2)])


def _book_edges(t):
    edges = [("u", "v")]
    for i in range(t):
        edges += [("u", f"f{i}"), ("v", f"f{i}")]
    return edges


def book(t):
    """t triangles on a common edge uv: K_{1,1,t}."""
    return from_edges(_book_edges(t))


def plumed_book(t, m1, m2=0):
    return from_edges(_book_edges(t)
                      + [("u", f"p{i}") for i in range(m1)]
                      + [("v", f"q{i}") for i in range(m2)])


def friendship(k):
    """k triangles sharing the hub z (F_k; F_3 is 3K2 + K1)."""
    edges = []
    for i in range(k):
        a, b = f"a{i}", f"b{i}"
        edges += [(a, b), ("z", a), ("z", b)]
    return from_edges(edges)


def complete_multipartite(*sizes):
    parts = [(i, j) for i, size in enumerate(sizes) for j in range(size)]
    return from_edges([(f"p{a}_{x}", f"p{b}_{y}")
                       for n, (a, x) in enumerate(parts)
                       for b, y in parts[n + 1:] if a != b])


NAMED_BASES = {
    "star_graph(1)": lambda: star_graph(1),
    "star_graph(3)": lambda: star_graph(3),
    "star_graph(4)": lambda: star_graph(4),
    "star_graph(6)": lambda: star_graph(6),
    "path_graph(3)": lambda: path_graph(3),
    "path_graph(4)": lambda: path_graph(4),
    "path_graph(5)": lambda: path_graph(5),
    "path_graph(6)": lambda: path_graph(6),
    "cycle_graph(4)": lambda: cycle_graph(4),
    "cycle_graph(5)": lambda: cycle_graph(5),
    "cycle_graph(6)": lambda: cycle_graph(6),
    "cycle_graph(7)": lambda: cycle_graph(7),
    "complete_graph(3)": lambda: complete_graph(3),
    "complete_graph(4)": lambda: complete_graph(4),
    "plumed_triangle(1)": lambda: plumed_triangle(1),
    "plumed_triangle(2)": lambda: plumed_triangle(2),
    "plumed_triangle(3)": lambda: plumed_triangle(3),
    "two_plumed_triangle(1,1)": lambda: two_plumed_triangle(1, 1),
    "two_plumed_triangle(2,1)": lambda: two_plumed_triangle(2, 1),
    "two_plumed_triangle(2,2)": lambda: two_plumed_triangle(2, 2),
    "book(2)": lambda: book(2),
    "book(3)": lambda: book(3),
    "plumed_book(2,1)": lambda: plumed_book(2, 1),
    "plumed_book(2,1,1)": lambda: plumed_book(2, 1, 1),
    "friendship3()": lambda: friendship(3),
    "bridged_triangles()": lambda: from_edges(
        [("a", "b"), ("a", "c"), ("b", "c"), ("d", "e"), ("d", "f"),
         ("e", "f"), ("c", "d")]),
    "dumbbell()": lambda: from_edges(
        [("v1", "v2"), ("v1", "p1"), ("v1", "p2"), ("v2", "q1"),
         ("v2", "q2")]),
    "wing_path()": lambda: from_edges(
        [("v", "x"), ("v", "y"), ("x", "y"), ("v", "a"), ("a", "b")]),
    "trimmed_fig5()": lambda: from_edges(
        [("b", "c"), ("b", "h"), ("b", "i"), ("c", "h"), ("c", "i"),
         ("h", "i"), ("c", "a")]),
    "spider()": lambda: from_edges(
        [("v", "u"), ("u", "w"), ("v", "p1"), ("v", "p2"), ("v", "p3")]),
    "asym_wing()": lambda: from_edges(
        [("v1", "p1"), ("v1", "p2"), ("v1", "c"), ("c", "d"), ("c", "e"),
         ("d", "e")]),
    "cornered_triangle()": lambda: from_edges(
        [("a", "b"), ("a", "c"), ("b", "c"), ("a", "pa"), ("b", "pb"),
         ("c", "pc")]),
}

# Direct inputs: (name, builder, [(category, max_universe)]).  F4 sdu has
# no representation within 15 elements; the capped search is pure padding.
# F5 and star_graph(9) would take 5 s each and leave room for too few
# passes per run.
DIRECT = (
    ("F4", lambda: friendship(4), (("sa", 21), ("sdu", 15))),
    ("K2,2,2,2", lambda: complete_multipartite(2, 2, 2, 2), (("sd", 32),)),
    ("K3,3,3", lambda: complete_multipartite(3, 3, 3), (("sd", 36),)),
    ("K1,1,6", lambda: book(6), (("sd", 21),)),
    ("star_graph(8)", lambda: star_graph(8), (("sd", 17),)),
)
DIRECT_TINY = (
    ("F2", lambda: friendship(2), (("sa", 11), ("sdu", 9))),
    ("F3", lambda: friendship(3), (("sa", 16),)),
    ("K2,2,2", lambda: complete_multipartite(2, 2, 2), (("sd", 18),)),
    ("K1,1,3", lambda: book(3), (("sd", 12),)),
    ("star_graph(5)", lambda: star_graph(5), (("sd", 11),)),
)

# The K8 oracle rungs (7 s and 4 s with the pure kernel) would leave room
# for too few passes per run; K7 exercises the same layers.
COMPLETE = {"oracle": [(n, cat) for n in (6, 7) for cat in ("sd", "sa")]
            + [(6, "sdu")], "census": (7, 8, 9)}
COMPLETE_TINY = {"oracle": [(n, cat) for n in (4, 5) for cat in ("sd", "sa")]
                 + [(4, "sdu")], "census": (5, 6, 7)}

# The random bases are drawn once from POOL_SEED and relabelled by the run
# seed.  Kernel work is heavy-tailed across random bases and swings by half
# under mere relabelling once a base has 13 or more edges, so bases drawn
# from the run seed, or larger ones, would let the seed rather than the
# program set the time.  Many bases of moderate size keep the sum steady.
POOL_SEED = 2013
RANDOM_EDGES = range(6, 13)
RANDOM_PER_SIZE = 80


def relabel(g: Graph, rng: random.Random) -> Graph:
    """An isomorphic copy with vertices and edge order shuffled."""
    perm = list(range(g.n))
    rng.shuffle(perm)
    labels = [""] * g.n
    for v, lab in enumerate(g.labels):
        labels[perm[v]] = lab
    edges = [tuple(sorted((perm[u], perm[v]))) for u, v in g.edges]
    rng.shuffle(edges)
    return Graph(tuple(labels), tuple(edges))


def random_base(rng: random.Random, m: int) -> Graph:
    """A connected graph with m edges, a little denser than a tree: n is
    1 to 3 above the least vertex count that fits m edges."""
    least = 2
    while least * (least - 1) // 2 < m:
        least += 1
    n = min(rng.randint(least + 1, least + 3), m + 1)
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [(a, b) for a in range(n) for b in range(a + 1, n)
            if (a, b) not in edges]
    rng.shuffle(rest)
    edges.update(rest[:m - len(edges)])
    return Graph(tuple(f"r{i}" for i in range(n)), tuple(sorted(edges)))


# ---------------------------------------------------------------------------
# Running calls
# ---------------------------------------------------------------------------

@dataclass
class Call:
    api: str
    label: str
    seconds: float
    result: object
    error: str | None
    check: object  # result -> error text or None


def fingerprint(result) -> str:
    """What must match between passes: a digest of the answer without its
    timing, so that keeping one pass's answers costs little memory."""
    if isinstance(result, OracleResult):
        result = replace(result, elapsed=0.0)
    return hashlib.sha256(repr(result).encode()).hexdigest()


class Pass:
    """One pass over a ladder; ``tracer`` turns each call into a span, and
    ``gauge`` samples the machine's speed between calls, outside their
    timing."""

    def __init__(self, tracer=None, gauge=None):
        self.calls: list[Call] = []
        self.tracer = tracer
        self.gauge = gauge

    def call(self, api, label, fn, *args, check=None):
        if self.gauge is not None:
            self.gauge.tick()
        start = time.perf_counter()
        try:
            if self.tracer is None:
                result = fn(*args)
            else:
                result = self.tracer.call(len(self.calls), api, fn, *args)
            error = None
        except Exception as exc:  # a raising call is a failed call
            result, error = None, f"{type(exc).__name__}: {exc}"
        self.calls.append(Call(api, label, time.perf_counter() - start,
                               result, error, check))
        return result


def failure(c: Call) -> str | None:
    """Why a call failed: it raised, or its check found a wrong answer."""
    if c.error is not None or c.check is None:
        return c.error
    try:
        return c.check(c.result)
    except Exception as exc:  # a check that cannot run is a failure
        return f"check raised {type(exc).__name__}: {exc}"


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------

def _check_reps(reps, graph, category):
    for rep in reps:
        if not represents(rep, graph):
            return "a representation does not realise the graph"
        if not category_flags(rep).satisfies(category):
            return f"a representation is not {category}"
    return None


def check_oracle(graph, category, closed=(None, None), table=None):
    """``closed`` is the closed form's (theta, tau), each None where it is
    not exact; ``table`` is the frozen (theta, classes, labelled)."""
    def check(r):
        if not r.exhausted:
            return "search came back unexhausted"
        got = (r.theta, r.class_count(), r.labeled_solutions)
        if table is not None and got != tuple(table):
            return f"(theta, classes, labelled) = {got} != frozen {table}"
        if table is None and r.theta is None:
            return "no solution within the cap"
        for want, have, what in zip(closed, got, ("theta", "tau")):
            if want is not None and want != have:
                return f"{what} {have} != closed form {want}"
        return _check_reps(r.classes, graph, category)
    return check


def check_report(graph, category):
    def check(report):
        if report.theta.exact is None and not report.theta.oracle_needed:
            return "theta is neither exact nor referred"
        return _check_reps(report.witnesses, graph, category)
    return check


def check_witness(graph, category):
    return lambda rep: _check_reps([rep], graph, category)


def check_census(n):
    planes = reference.CENSUS_PLANES[n]

    def check(r):
        if not r.complete:
            return "census came back unexhausted"
        if not r.bound_holds:
            return "covering bound violated"
        if (r.whole, r.near_pencils, r.planes) != (1, n, planes):
            return (f"(whole, near-pencils, planes) = ({r.whole}, "
                    f"{r.near_pencils}, {r.planes}) != (1, {n}, {planes})")
        return None
    return check


def _exact(report):
    """The closed form's (theta, tau) where exact, else None."""
    if report is None:
        return (None, None)
    return (report.theta.exact, report.tau.exact)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------

class Complete:
    """K_n ladder: closed form, then the oracle capped at the closed form's
    theta, then the covering-bound census.  K_n is invariant under
    relabelling, so this part is the same for every seed."""

    def __init__(self, tiny: bool = False):
        self.ladder = COMPLETE_TINY if tiny else COMPLETE
        self.graphs = {n: complete_graph(n)
                       for n, _c in self.ladder["oracle"]}

    def run(self, p: Pass) -> None:
        for n, cat in self.ladder["oracle"]:
            g = self.graphs[n]
            label = f"K{n} {cat}"
            report = p.call("theta_tau_complete", label, theta_tau_complete,
                            n, cat, check=check_report(g, cat))
            closed = _exact(report)
            p.call("oracle_search", label, oracle_search, g, cat,
                   SearchBudget(max_universe=closed[0] or n + 1),
                   check=check_oracle(g, cat, closed,
                                      reference.COMPLETE[(n, cat)]))
        for n in self.ladder["census"]:
            p.call("verify_dbe", f"K{n}", verify_dbe, n,
                   check=check_census(n))

    def kernel_inputs(self):
        return [(complete_graph(n), n) for n in self.ladder["census"]]


class LineGraph:
    """Named c5 bases and seeded random connected bases, each through
    classify, both closed forms, the witnesses and the capped oracle."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        names = list(NAMED_BASES)[::6] if tiny else list(NAMED_BASES)
        self.bases = [(name, relabel(NAMED_BASES[name](), rng),
                       reference.LINEGRAPH[name]) for name in names]
        pool = random.Random(POOL_SEED)
        sizes = range(6, 8) if tiny else RANDOM_EDGES
        per = 2 if tiny else RANDOM_PER_SIZE
        self.bases += [(f"random m={m} #{i}",
                        relabel(random_base(pool, m), rng), None)
                       for m in sizes for i in range(per)]
        self.lines = {name: line_graph(base)[0]
                      for name, base, _ref in self.bases}

    def run(self, p: Pass) -> None:
        for name, base, ref in self.bases:
            lg = self.lines[name]
            cls = p.call("classify", name, classify, base)
            if cls is None:
                continue
            for cat, bound in (("sd", cls.gamma), ("sa", cls.gamma_prime)):
                label = f"{name} {cat}"
                report = p.call("theta_tau_linegraph", label,
                                theta_tau_linegraph, base, cat,
                                check=check_report(lg, cat))
                kinds = SD_WITNESS_KINDS if cat == "sd" else SA_WITNESS_KINDS
                if cls.kind in kinds:
                    build = witness_sd if cat == "sd" else witness_sa
                    p.call(f"witness_{cat}", label, build, base,
                           check=check_witness(lg, cat))
                closed = _exact(report)
                p.call("oracle_search", label, oracle_search, lg, cat,
                       SearchBudget(max_universe=closed[0] or bound), base,
                       check=check_oracle(lg, cat, closed,
                                          ref[cat] if ref else None))

    def kernel_inputs(self):
        out = []
        for name, base, _ref in self.bases:
            cls = classify(base)
            for bound in (cls.gamma, cls.gamma_prime):
                out += [(self.lines[name], q) for q in range(1, bound + 1)]
        return out


class Direct:
    """Graphs given directly: the K_n ladder, then symmetric graphs
    (seeded relabellings) searched with no base."""

    def __init__(self, seed: int, tiny: bool = False):
        rng = random.Random(seed)
        self.complete = Complete(tiny)
        self.inputs = [(name, relabel(build(), rng), cases)
                       for name, build, cases in (DIRECT_TINY if tiny
                                                  else DIRECT)]

    def run(self, p: Pass) -> None:
        self.complete.run(p)
        for name, g, cases in self.inputs:
            for cat, cap in cases:
                p.call("oracle_search", f"{name} {cat}", oracle_search, g,
                       cat, SearchBudget(max_universe=cap),
                       check=check_oracle(g, cat,
                                          table=reference.DIRECT[(name, cat)]))

    def kernel_inputs(self):
        return self.complete.kernel_inputs()


WORKLOADS = {"direct": Direct, "linegraph": LineGraph}
