"""Command-line front end.

Reads graphs from edge-list files, dispatches to the closed forms or the
exhaustive search, and prints either a human-readable summary or JSON.

Exit codes: 0 success, 1 bad input, 2 no closed form applies (and the
oracle was not asked for), 3 search budget exhausted before an answer.
"""

from __future__ import annotations

import argparse
import json
import sys

from .classify import Classification, classify
from .cliquecover import (cover_from_json_dict, cover_to_json_dict,
                          egp_cover, egp_set)
from .errors import SetrepError, TheoremNotApplicable
from .geometry import linear_space_to_json_dict, projective_plane, puncture
from .graphs import Graph, format_graph, line_graph, parse_graph
from .oracle import SearchBudget, oracle_search, verify_dbe
from .representations import (VALID_CATEGORIES, category_flags,
                              rep_from_json_dict, rep_to_json_dict)
from .theorems import (ThetaTauReport, theta_tau_linegraph, witness_sa,
                       witness_sa_variants, witness_sd, witness_sd_variants)

__all__ = ["main"]


def _read_graph(path: str) -> Graph:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_graph(fh.read())


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


def _emit(data, as_json: bool, human: str = "") -> None:
    if as_json:
        print(json.dumps(data, indent=2, sort_keys=True))
    else:
        print(human, end="" if human.endswith("\n") else "\n")


def classification_json(g: Graph, cls: Classification) -> dict:
    lab = g.labels
    return {
        "kind": cls.kind,
        "t": cls.t,
        "starDegree": cls.star_degree,
        "plumeCounts": list(cls.plume_counts),
        "plumedVertices": [lab[v] for v in cls.plumed_vertices],
        "critical": [{"vertex": lab[v], "m": m} for v, m in cls.critical],
        "inland": [lab[v] for v in cls.inland],
        "gamma": cls.gamma,
        "gammaPrime": cls.gamma_prime,
        "wings": [[lab[a], lab[b], lab[c]] for a, b, c in cls.wings],
        "threeWingStalks": [lab[v] for v in cls.three_wing_stalks],
        "semiwings": [[lab[a], lab[b], lab[c]] for a, b, c in cls.semiwings],
    }


def _classification_text(g: Graph, cls: Classification) -> list[str]:
    lab = g.labels
    crit = ", ".join(f"{lab[v]} (m={m})" for v, m in cls.critical) or "none"
    stalks = ", ".join(lab[v] for v in cls.three_wing_stalks) or "none"
    lines = [
        f"graph            {g.n} vertices, {g.m} edges",
        f"kind             {cls.kind}",
        f"gamma            {cls.gamma}",
        f"gamma'           {cls.gamma_prime}",
        f"critical         {crit}",
        f"3-wing stalks    {stalks}",
    ]
    return lines


def _theta_text(report: ThetaTauReport) -> str:
    if report.theta.oracle_needed:
        return "needs oracle"
    return str(report.theta.exact)


def _tau_text(report: ThetaTauReport) -> str:
    t = report.tau
    if t.unknown:
        return "unknown"
    if t.symbolic is not None:
        return t.symbolic
    return str(t.exact)


def cmd_analyze(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    cls = classify(g)
    categories = ("sd", "sa", "sdu") if args.category == "all" else (args.category,)
    reports = [theta_tau_linegraph(g, c) for c in categories]

    data = {
        "classification": classification_json(g, cls),
        "reports": [r.to_json_dict() for r in reports],
    }
    lines = _classification_text(g, cls)
    lines.append("")
    lines.append(f"{'category':<9} {'theta':<13} {'tau':<10} provenance")
    for r in reports:
        lines.append(f"{r.category:<9} {_theta_text(r):<13} "
                     f"{_tau_text(r):<10} {r.provenance}")
    for r in reports:
        for note in r.notes:
            lines.append(f"note ({r.category}): {note}")
    if any(r.theta.oracle_needed for r in reports):
        lines.append("hint: run `setrep oracle --line-graph-of <graph>` "
                     "for the values marked 'needs oracle'")
    _emit(data, args.json, "\n".join(lines))

    if all(r.theta.oracle_needed for r in reports):
        return 2
    return 0


def cmd_linegraph(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    lg, _ = line_graph(g)
    data = {
        "vertices": list(lg.labels),
        "edges": [[lg.labels[u], lg.labels[v]] for u, v in lg.edges],
        "baseEdges": {lg.labels[i]: [g.labels[u], g.labels[v]]
                      for i, (u, v) in enumerate(g.edges)},
    }
    _emit(data, args.json, format_graph(lg))
    return 0


def cmd_witness(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    if args.variants:
        build = witness_sd_variants if args.category == "sd" else witness_sa_variants
        reps = build(g)
    else:
        build_one = witness_sd if args.category == "sd" else witness_sa
        reps = [build_one(g)]
    lg, _ = line_graph(g)
    payload = [rep_to_json_dict(r, lg.labels) for r in reps]
    human = []
    for i, rep in enumerate(reps):
        if args.variants:
            human.append(f"variant {i + 1} of {len(reps)}")
        human.append(f"universe: {len(rep.universe)} elements")
        for v, s in enumerate(rep.sets):
            human.append(f"  {lg.labels[v]}: "
                         f"{{{', '.join(map(str, sorted(s)))}}}")
    _emit(payload if args.variants else payload[0], args.json,
          "\n".join(human))
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    g = _read_graph(args.graph)
    rep, _labels = rep_from_json_dict(_read_json(args.rep), g.labels)
    # the graph's labels give one set per vertex, so the representation
    # holds exactly when no pair fails
    bad_pair = next(((g.labels[u], g.labels[v])
                     for u in range(g.n) for v in range(u + 1, g.n)
                     if (v in g.adj[u]) != bool(rep.sets[u] & rep.sets[v])),
                    None)
    ok = bad_pair is None
    flags = category_flags(rep)
    data = {
        "represents": ok,
        "simple": flags.simple,
        "distinct": flags.distinct,
        "antichain": flags.antichain,
        "uniform": flags.uniform,
    }
    if bad_pair:
        data["failingPair"] = list(bad_pair)
    human = [f"represents   {'true' if ok else 'false'}"]
    if bad_pair:
        human.append(f"failing pair {bad_pair[0]}, {bad_pair[1]}")
    human.append(f"simple       {str(flags.simple).lower()}")
    human.append(f"distinct     {str(flags.distinct).lower()}")
    human.append(f"antichain    {str(flags.antichain).lower()}")
    human.append(f"uniform      {str(flags.uniform).lower()}")
    _emit(data, args.json, "\n".join(human))
    return 0


def cmd_oracle(args: argparse.Namespace) -> int:
    if (args.graph is None) == (args.line_graph_of is None):
        raise SetrepError("give either a graph file or --line-graph-of, not both")
    base = None
    if args.line_graph_of is not None:
        base = _read_graph(args.line_graph_of)
        target, _ = line_graph(base)
    else:
        target = _read_graph(args.graph)

    max_universe = args.max_universe
    if max_universe is None:
        max_universe = target.n + 1
    budget = SearchBudget(max_universe=max_universe,
                          node_limit=args.node_limit,
                          time_limit=args.time_limit)
    result = oracle_search(target, args.category, budget, base=base)

    data = {
        "category": result.category,
        "theta": result.theta,
        "classCount": result.class_count(),
        "labeledSolutions": result.labeled_solutions,
        "exhausted": result.exhausted,
        "searchedTo": result.searched_to,
        "stopReason": result.stop_reason,
        "nodes": result.nodes,
        "elapsedSeconds": round(result.elapsed, 3),
        "kernel": result.kernel,
        "classes": [rep_to_json_dict(r, target.labels) for r in result.classes],
    }
    human = [
        f"category     {result.category}",
        f"theta        {result.theta if result.theta is not None else 'not found'}",
        f"classes      {result.class_count()}",
        f"labelled     {result.labeled_solutions}",
        f"exhausted    {str(result.exhausted).lower()}",
        f"searched to  universe {result.searched_to}",
        f"stop reason  {result.stop_reason or 'none'}",
        f"nodes        {result.nodes}",
        f"time         {result.elapsed:.2f}s ({result.kernel} kernel)",
    ]
    _emit(data, args.json, "\n".join(human))
    # No theta within --max-universe is also a budget problem: the search
    # finished but the cap was below the true minimum.
    return 0 if result.exhausted and result.theta is not None else 3


def cmd_planes(args: argparse.Namespace) -> int:
    ls = projective_plane(args.order)
    if args.puncture:
        ls = puncture(ls, args.puncture)
    data = linear_space_to_json_dict(ls)
    human = [f"points  {ls.points}", f"lines   {len(ls.lines)}"]
    human += ["  " + " ".join(map(str, line)) for line in ls.lines]
    _emit(data, args.json, "\n".join(human))
    return 0


def cmd_egp(args: argparse.Namespace) -> int:
    data = _read_json(args.file)
    graph = _read_graph(args.graph) if args.graph else None
    if args.to_set:
        cover = cover_from_json_dict(data, graph)
        _emit(rep_to_json_dict(egp_set(cover), cover.graph.labels), True)
    else:
        if graph is None:
            raise SetrepError("--to-cover needs --graph to interpret the sets")
        rep, _labels = rep_from_json_dict(data, graph.labels)
        _emit(cover_to_json_dict(egp_cover(rep, graph)), True)
    return 0


def cmd_dbe(args: argparse.Namespace) -> int:
    report = verify_dbe(args.n, node_limit=args.node_limit)
    data = {
        "n": report.n,
        "minimumNontrivialPartition": report.n if report.bound_holds else None,
        "boundHolds": report.bound_holds,
        "nearPencilsAtN": report.near_pencils,
        "planesAtN": report.planes,
        "otherAtN": report.other_at_n,
        "complete": report.complete,
        "nodes": report.nodes,
    }
    holds = ("unknown (the census is incomplete)"
             if report.bound_holds is None
             else f"{str(report.bound_holds).lower()} (no nontrivial "
                  f"partition smaller than {report.n})")
    human = [
        f"n                 {report.n}",
        f"bound holds       {holds}",
        f"size-{report.n} partitions  near-pencils: {report.near_pencils}, "
        f"planes: {report.planes}, other: {report.other_at_n}",
        f"exhaustive        {str(report.complete).lower()}",
    ]
    _emit(data, args.json, "\n".join(human))
    return 0 if report.complete else 3


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="setrep",
        description="Minimum set representations of line graphs and "
                    "complete graphs: sizes, class counts, witnesses, search.")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("analyze", help="classify a base graph and report "
                       "theta/tau for its line graph")
    p.add_argument("graph")
    p.add_argument("--category", choices=("sd", "sa", "sdu", "all"),
                   default="all")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_analyze)

    p = sub.add_parser("linegraph", help="emit the line graph of a graph")
    p.add_argument("graph")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_linegraph)

    p = sub.add_parser("witness", help="construct minimum representations "
                       "of a base graph's line graph")
    p.add_argument("graph")
    p.add_argument("--category", choices=("sd", "sa"), required=True)
    p.add_argument("--variants", action="store_true",
                   help="emit every site choice, not just the star form")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_witness)

    p = sub.add_parser("verify", help="check a representation against a graph")
    p.add_argument("graph")
    p.add_argument("rep", help="representation JSON file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive minimum-representation search")
    p.add_argument("graph", nargs="?")
    p.add_argument("--line-graph-of", metavar="FILE",
                   help="search the line graph of this base graph")
    p.add_argument("--category", choices=VALID_CATEGORIES, required=True)
    p.add_argument("--max-universe", type=int, default=None)
    p.add_argument("--time-limit", type=float, default=None,
                   metavar="SECONDS")
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("planes", help="construct a projective plane")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--puncture", type=int, default=0, metavar="H",
                   help="delete the last H points")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_planes)

    p = sub.add_parser("egp", help="convert between covers and representations")
    grp = p.add_mutually_exclusive_group(required=True)
    grp.add_argument("--to-set", action="store_true",
                     help="cover JSON in, representation JSON out")
    grp.add_argument("--to-cover", action="store_true",
                     help="representation JSON in, cover JSON out")
    p.add_argument("file")
    p.add_argument("--graph", help="graph file (required for --to-cover)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_egp)

    p = sub.add_parser("dbe", help="verify the minimum partition size of "
                       "a complete graph and classify the equality cases")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-limit", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dbe)

    return top


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except TheoremNotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        print("hint: `setrep oracle --line-graph-of <graph> --category ...` "
              "answers by search instead", file=sys.stderr)
        return 2
    except (SetrepError, ValueError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
