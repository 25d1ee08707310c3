"""Command-line surface.

Subcommands: gen, extract-expander, find-minor, find-subdivision, verify,
oracle, sweep.  Exit codes: 0 = success with a witness (or a confirmed
property), 2 = not found / stalled / property refuted (diagnostics emitted),
1 = usage or input error, 3 = internal error (a broken invariant, a bug).

The --budget-ms flag is interpreted as a deterministic work budget
(milliseconds times a fixed per-millisecond operation rate), so identical
invocations give identical results on any machine.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections import Counter
from functools import partial

from .errors import InvariantViolation
from .expansion import (
    OPS_PER_MS,
    ExpansionParams,
    derived_scales,
    extract_expander,
)
from .generate import FAMILIES, GeneratorSpec, generate
from .graph import load_graph, to_edge_list_text
from .minor import find_minor_pipeline
from .subdivision import MODE_MINOR_OR_SUBDIVISION, MODE_SUBDIVISION, find_subdivision_pipeline
from .sweep import (
    SWEEP_MODES,
    run_experiment_sweep,
    write_records_csv,
    write_records_json,
)
from .verify import (
    brute_force_expander_check,
    brute_force_has_minor,
    verify_minor_model,
    verify_subdivision,
    verify_unit,
)
from .witnesses import MinorModel, SubdivisionModel, Unit

EXIT_WITNESS = 0
EXIT_USAGE = 1
EXIT_NOT_FOUND = 2
EXIT_INTERNAL = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def _positive(kind):
    """argparse type: a ``kind`` number above 0 (NaN is rejected too) and
    not infinite."""
    def parse(text):
        value = kind(text)
        if not value > 0:
            raise argparse.ArgumentTypeError(f"must be > 0, got {text}")
        if value == math.inf:
            raise argparse.ArgumentTypeError(f"must be finite, got {text}")
        return value
    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def _finite(text) -> float:
    """argparse type: a float that is neither infinite nor NaN."""
    value = float(text)
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be finite, got {text}")
    return value


_finite.__name__ = "float"  # argparse names the type in "invalid float value"


def _budget(args) -> int | None:
    if args.budget_ms is None:
        return None
    return max(1, int(args.budget_ms * OPS_PER_MS))


def _write_json(path, payload) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2)


def _load_input(args, nonempty: bool = False):
    """The graph at ``--input``; a file that cannot be read, or with
    ``nonempty`` one without vertices, is an input error (exit 1)."""
    try:
        g = load_graph(args.input)
        if nonempty and g.n == 0:
            raise ValueError("the file holds no vertices")
        return g
    except (OSError, ValueError) as exc:
        print(f"error: cannot read graph from {args.input}: {exc}", file=sys.stderr)
        raise SystemExit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="minorkit", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph into an edge-list file")
    p.add_argument("--family", choices=[f for f in FAMILIES if f != "file"], required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--param", type=_finite, default=0.0,
                   help="avg degree (gnp), regularity d, or blob density")
    p.add_argument("--blob-count", type=int, default=1)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="edge-list output path")
    p.add_argument("--json-out", help="metadata output path")
    p.add_argument("--no-girth", action="store_true", help="skip girth measurement")

    p = sub.add_parser("extract-expander", help="density-preserving expander extraction")
    _common_io(p)
    p.add_argument("--mode", choices=["plain", "small-set"], default="plain")
    p.add_argument("--delta", type=_finite, required=True)
    p.add_argument("--eta", type=_finite, required=True)
    p.add_argument("--t", type=int, default=1)
    p.add_argument("--trace", action="store_true", help="include the step trace in JSON output")

    p = sub.add_parser("find-minor", help="construct a verified complete-minor witness")
    _common_io(p)
    p.add_argument("--t", type=_positive(int), required=True)
    p.add_argument("--epsilon", type=_positive(float), default=1.0)
    p.add_argument("--density-target", type=_positive(float), default=None)
    p.add_argument("--trace", action="store_true",
                   help="include the extraction step trace in JSON output")

    p = sub.add_parser("find-subdivision", help="construct a verified subdivision witness")
    _common_io(p)
    p.add_argument("--t", type=_positive(int), required=True)
    p.add_argument("--epsilon", type=_positive(float), default=1.0)
    p.add_argument("--mode", choices=[MODE_SUBDIVISION, MODE_MINOR_OR_SUBDIVISION],
                   default=MODE_SUBDIVISION)
    p.add_argument("--degree-floor-c", type=_finite, default=None,
                   help="constant c of the c*t*sqrt(log t) + 3t degree floor")
    p.add_argument("--trace", action="store_true",
                   help="include the extraction step trace in JSON output")

    p = sub.add_parser("verify", help="verify a witness JSON against a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--witness", required=True, help="witness JSON path")
    p.add_argument("--delta", type=_finite, default=1.0 / 3.0,
                   help="delta used for unit scale checks")
    p.add_argument("--json-out")

    p = sub.add_parser("oracle", help="brute-force ground truth for tiny graphs")
    p.add_argument("--input", required=True)
    p.add_argument("--t", type=int, help="complete-minor test for this t")
    p.add_argument("--rate", type=_finite, help="expansion rate for the expander check")
    p.add_argument("--eta", type=_finite, help="eta for the expander check")
    p.add_argument("--small-set-delta", type=_finite, default=None)
    p.add_argument("--json-out")

    p = sub.add_parser("sweep", help="run a pipeline over a grid of generated graphs")
    p.add_argument("--config", help="JSON file with a list of generator specs")
    p.add_argument("--family", choices=[f for f in FAMILIES if f != "file"])
    p.add_argument("--ns", help="comma-separated vertex counts")
    p.add_argument("--seeds", default="0", help="comma-separated seeds")
    p.add_argument("--param", type=_finite, default=0.0)
    p.add_argument("--blob-count", type=int, default=1)
    p.add_argument("--t", type=_positive(int), required=True)
    p.add_argument("--epsilon", type=_positive(float), default=1.0)
    p.add_argument("--mode", choices=list(SWEEP_MODES), default="minor")
    p.add_argument("--floor", type=int, default=32)
    p.add_argument("--budget-ms", type=_finite, default=None)
    p.add_argument("--csv-out")
    p.add_argument("--json-out")
    return parser


def _common_io(p):
    p.add_argument("--input", required=True, help="edge-list or DIMACS graph file")
    p.add_argument("--floor", type=int, default=32, help="practical extraction stop floor")
    p.add_argument("--budget-ms", type=_finite, default=None, help="cut-search budget")
    p.add_argument("--json-out", help="write the result as JSON here")


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "gen": _cmd_gen,
        "extract-expander": _cmd_extract,
        "find-minor": _cmd_find_minor,
        "find-subdivision": _cmd_find_subdivision,
        "verify": _cmd_verify,
        "oracle": _cmd_oracle,
        "sweep": _cmd_sweep,
    }[args.command]
    try:
        return handler(args)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    except InvariantViolation as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


def _cmd_gen(args) -> int:
    try:
        spec = GeneratorSpec(
            family=args.family, n=args.n, param=args.param,
            blob_count=args.blob_count, seed=args.seed,
        )
        built = generate(spec, with_girth=not args.no_girth)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(to_edge_list_text(built.graph))
    meta = {
        "spec": spec.to_json_dict(),
        "n": built.graph.n,
        "edges": built.graph.edge_count,
        "realized_avg_degree": built.realized_avg_degree,
        "girth": built.girth,
    }
    print(json.dumps(meta))
    if args.json_out:
        _write_json(args.json_out, meta)
    return EXIT_WITNESS


def _cmd_extract(args) -> int:
    g = _load_input(args)
    try:
        params = ExpansionParams(delta=args.delta, eta=args.eta, ambient_n=g.n, t=args.t)
        result = extract_expander(
            g, params, small_set_mode=(args.mode == "small-set"),
            stop_floor=args.floor, budget_ops=_budget(args),
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    payload = {
        "mode": result.mode,
        "n": result.graph.n,
        "edges": result.graph.edge_count,
        "achieved_density": str(result.achieved_density),
        "input_density": str(result.input_density),
        "search_budget_exhausted": result.search_budget_exhausted,
        "vertices": list(result.subgraph.new_to_old),
    }
    if args.trace:
        payload["trace"] = result.trace_json()
    print(json.dumps({k: v for k, v in payload.items() if k != "vertices"}))
    if args.json_out:
        _write_json(args.json_out, payload)
    return EXIT_WITNESS


def _cmd_find_minor(args) -> int:
    g = _load_input(args, nonempty=True)
    return _report_pipeline(args, find_minor_pipeline(
        g, args.t, args.epsilon, density_target=args.density_target,
        stop_floor=args.floor, budget_ops=_budget(args),
    ))


def _cmd_find_subdivision(args) -> int:
    g = _load_input(args, nonempty=True)
    return _report_pipeline(args, find_subdivision_pipeline(
        g, args.t, args.epsilon, mode=args.mode,
        degree_floor_coeff=args.degree_floor_c,
        stop_floor=args.floor, budget_ops=_budget(args),
    ))


def _report_pipeline(args, res) -> int:
    """Print a pipeline result (the subdivision pipeline's with its route),
    write it with the witness to --json-out, and return the exit code."""
    route = {} if res.route is None else {"route": res.route}
    payload = {
        "outcome": res.outcome,
        **route,
        "detail": res.detail,
        "diagnostics": res.diagnostics,
        "witness_size": res.witness_size,
        "brute_force_answer": res.brute_force_answer,
    }
    if res.model is not None:
        payload["witness"] = res.model.to_json_dict()
    if args.trace and res.extraction is not None:
        payload["extraction_trace"] = res.extraction.trace_json()
    print(json.dumps({k: v for k, v in payload.items() if k not in ("witness", "extraction_trace")}))
    if args.json_out:
        _write_json(args.json_out, payload)
    return EXIT_WITNESS if res.model is not None else EXIT_NOT_FOUND


def _cmd_verify(args) -> int:
    g = _load_input(args)
    try:
        with open(args.witness, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: cannot read witness: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if "branch_sets" in data:
            kind, check = "minor", partial(verify_minor_model, g, MinorModel.from_json_dict(data))
        elif "corners" in data:
            kind, check = "subdivision", partial(
                verify_subdivision, g, SubdivisionModel.from_json_dict(data))
        elif "spokes" in data:
            unit = Unit.from_json_dict(data)
            params = ExpansionParams.for_subdivision(
                t=max(2, unit.t), delta=args.delta, ambient_n=g.n
            )
            kind, check = "unit", partial(verify_unit, g, unit, derived_scales(g.n, params))
        else:
            print("error: unrecognized witness JSON (no branch_sets/corners/spokes)",
                  file=sys.stderr)
            return EXIT_USAGE
    except (AttributeError, KeyError, TypeError, ValueError) as exc:
        print(f"error: bad witness: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    report = check()
    payload = {"kind": kind, **report.to_json_dict()}
    print(json.dumps(payload))
    if args.json_out:
        _write_json(args.json_out, payload)
    return EXIT_WITNESS if report.valid else EXIT_NOT_FOUND


def _cmd_oracle(args) -> int:
    g = _load_input(args)
    payload = {}
    ok = True
    try:
        if args.t is not None:
            answer = brute_force_has_minor(g, args.t)
            payload["has_minor"] = answer
            ok = answer
        elif args.rate is not None and args.eta is not None:
            answer, worst, ratio = brute_force_expander_check(
                g, args.rate, args.eta, small_set=args.small_set_delta
            )
            payload.update(
                {"is_expander": answer, "worst_set": sorted(worst), "worst_ratio": ratio}
            )
            ok = answer
        else:
            print("error: give --t, or --rate with --eta", file=sys.stderr)
            return EXIT_USAGE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps(payload))
    if args.json_out:
        _write_json(args.json_out, payload)
    return EXIT_WITNESS if ok else EXIT_NOT_FOUND


def _cmd_sweep(args) -> int:
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                raw = json.load(fh)
            specs = [GeneratorSpec.from_json_dict(d) for d in raw]
        except (OSError, ValueError, json.JSONDecodeError, KeyError) as exc:
            print(f"error: bad sweep config: {exc}", file=sys.stderr)
            return EXIT_USAGE
    else:
        if not (args.family and args.ns):
            print("error: need --config, or --family with --ns", file=sys.stderr)
            return EXIT_USAGE
        try:
            ns = [int(x) for x in args.ns.split(",") if x]
            seeds = [int(x) for x in args.seeds.split(",") if x]
            specs = [
                GeneratorSpec(family=args.family, n=n, param=args.param,
                              blob_count=args.blob_count, seed=seed)
                for n in ns for seed in seeds
            ]
        except ValueError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE
    records = run_experiment_sweep(
        specs, args.t, args.epsilon, mode=args.mode,
        stop_floor=args.floor, budget_ops=_budget(args),
    )
    for r in records:
        ratio = "" if r.ratio is None else f" ratio={r.ratio:.2f}"
        print(f"{r.spec.label()} -> {r.outcome} size={r.witness_size}{ratio}")
    outcomes = Counter(r.outcome for r in records)
    print("summary: " + ", ".join(f"{k} {outcome}" for outcome, k in sorted(outcomes.items())))
    if args.csv_out:
        write_records_csv(records, args.csv_out)
    if args.json_out:
        write_records_json(records, args.json_out)
    successes = sum(1 for r in records if r.outcome in ("minor", "subdivision"))
    return EXIT_WITNESS if successes == len(records) and records else EXIT_NOT_FOUND


if __name__ == "__main__":
    sys.exit(main())
