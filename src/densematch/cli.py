"""Command line interface.

Subcommands: ``gen`` (emit instances in edge-list format), ``oracle`` (exact
checks on a graph file), ``extract`` (one extraction run, JSON report), and
``experiment`` (config-driven sweeps with CSV/JSON output).
"""

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import harness
from .errors import SamplingFailure
from .extractor import extract_best
from .graphs import format_edge_list, read_edge_list
from .oracles import (clique_bound_audit, clique_number, connected_matching_number,
                      count_bad_quadruples, min_nonadjacent_matching)

# every other user-facing error (bad parameters, size limits, infeasible
# requests, malformed JSON) is a ValueError subclass
_USER_ERRORS = (ValueError, SamplingFailure, OSError)


def _write_text(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_parts(text: str | None) -> tuple[int, ...] | None:
    if text is None:
        return None
    try:
        return tuple(int(p) for p in text.split(","))
    except ValueError:
        raise ValueError(f"parts must be comma-separated integers, got {text!r}") from None


def _cmd_gen(args) -> int:
    g = harness.build_family(args.family, args.n, _parse_parts(args.parts), args.seed)
    _write_text(format_edge_list(g), args.out)
    return 0


def _cmd_oracle(args) -> int:
    if args.limit is not None and args.op in ("badquads", "audit"):
        raise ValueError(f"--limit applies only to cm, omega and minmatch, not {args.op}")
    if args.t is not None and args.op in ("cm", "omega", "badquads"):
        raise ValueError(f"--t applies only to minmatch and audit, not {args.op}")
    g = read_edge_list(args.graph)
    limit = {} if args.limit is None else {"limit": args.limit}
    if args.op == "cm":
        doc = {"op": "cm", "n": g.n, "value": connected_matching_number(g, **limit)}
    elif args.op == "omega":
        doc = {"op": "omega", "n": g.n, "value": clique_number(g, **limit)}
    elif args.op == "badquads":
        result = count_bad_quadruples(g)
        doc = {"op": "badquads", "n": g.n, "count": result.count, "bound": result.bound}
    elif args.op == "minmatch":
        if args.t is None:
            raise ValueError("minmatch needs --t")
        matching, count = min_nonadjacent_matching(g, args.t, **limit)
        doc = {"op": "minmatch", "n": g.n, "t": args.t, "value": count,
               "matching": [[u, v] for u, v in matching.edges]}
    else:
        if args.t is None:
            raise ValueError("audit needs --t")
        doc = {"op": "audit", "n": g.n, "t": args.t, "value": clique_bound_audit(g, args.t)}
    _write_text(json.dumps(doc, indent=2) + "\n", None)
    return 0


def _cmd_extract(args) -> int:
    g = read_edge_list(args.graph)
    matching, run = extract_best(g, args.c, args.t, args.trials, args.seed)
    best = min(r.nonadjacent_pairs for r in run.reports)
    doc = {
        "c": args.c,
        "t": args.t,
        "trials": args.trials,
        "seed": args.seed,
        "n": g.n,
        "parity_vertex_deleted": g.n % 2 == 1,
        "params": dataclasses.asdict(run.params),
        "reports": [dataclasses.asdict(r) for r in run.reports],
        "best_nonadjacent_pairs": best,
        "best_matching": [[u, v] for u, v in matching.edges],
    }
    _write_text(json.dumps(doc, indent=2) + "\n", args.out)
    return 0


def _cmd_experiment(args) -> int:
    flags = {name: getattr(args, name) for name in ("family", "c", "t", "trials", "n", "master_seed")
             if getattr(args, name) is not None}
    if args.parts is not None:
        flags["parts"] = _parse_parts(args.parts)
    if args.config:
        text = Path(args.config).read_text()
    elif args.family is None or args.c is None or args.t is None:
        raise ValueError("without --config, provide at least --family, --c and --t")
    else:
        text = '{"trials": 1, "master_seed": 0}'
    configs = harness.configs_from_json(text, **flags)
    results = harness.sweep_results(configs, max_workers=args.workers)
    for cfg, summary, error in results:
        label = f"{cfg.family} t={cfg.t} seed={cfg.master_seed}"
        if error is None:
            print(f"[experiment] {label}: best={summary.best} mean={summary.mean:.4g} "
                  f"wall={summary.wall_ms:.0f} ms", file=sys.stderr)
        else:
            print(f"[experiment] {label}: ERROR {error}", file=sys.stderr)
    csv_text = harness.render_csv(results)
    _write_text(csv_text, args.out_csv)
    if args.out_json is not None:
        Path(args.out_json).write_text(harness.render_json(results))
    return 0 if all(error is None for _, _, error in results) else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="densematch",
        description="Dense-matching extraction and exact oracles for graphs "
                    "with independence number at most 2.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen", help="generate an instance in edge-list format")
    gen.add_argument("--family", required=True, choices=harness.FAMILIES)
    gen.add_argument("--n", type=int)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--parts", help="comma-separated part sizes for c5, e.g. 1,1,1,1,2")
    gen.add_argument("--out")
    gen.set_defaults(func=_cmd_gen)

    oracle = sub.add_parser("oracle", help="run an exact oracle on a graph file")
    oracle.add_argument("--graph", required=True)
    oracle.add_argument("--op", required=True,
                        choices=["cm", "omega", "badquads", "minmatch", "audit"])
    oracle.add_argument("--t", type=int)
    oracle.add_argument("--limit", type=int)
    oracle.set_defaults(func=_cmd_oracle)

    extract = sub.add_parser("extract", help="run the randomised extraction")
    extract.add_argument("--graph", required=True)
    extract.add_argument("--c", type=float, required=True)
    extract.add_argument("--t", type=int, required=True)
    extract.add_argument("--trials", type=int, default=1)
    extract.add_argument("--seed", type=int, default=0)
    extract.add_argument("--out")
    extract.set_defaults(func=_cmd_extract)

    experiment = sub.add_parser("experiment", help="run configured experiments")
    experiment.add_argument("--config", help="JSON config object or array")
    experiment.add_argument("--family", choices=harness.FAMILIES)
    experiment.add_argument("--c", type=float)
    experiment.add_argument("--t", type=int)
    experiment.add_argument("--trials", type=int)
    experiment.add_argument("--seed", type=int, dest="master_seed", metavar="SEED")
    experiment.add_argument("--n", type=int)
    experiment.add_argument("--parts")
    experiment.add_argument("--workers", type=int, default=1)
    experiment.add_argument("--out-csv")
    experiment.add_argument("--out-json")
    experiment.set_defaults(func=_cmd_experiment)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
