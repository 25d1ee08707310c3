"""minorkit benchmark: time to a certified witness, witness size and memory.

    python3 perfbench/run.py --workload minor-sparse --seed 1 --seconds 36 --trace 0

Run from the root of a checkout.  The set-up makes the workload's inputs
from ``--seed``.  The measured phase then calls the pipeline on every input
in turn (one round), round after round, for about ``--seconds`` seconds, and
never stops inside a round.  Every witness is then checked by
``checker.py``, which does not use minorkit.  The last line of standard
output is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` alternates
untraced and traced rounds and reports the per-module metrics of
``tracer.py`` (one set-up plus one round) and the tracing overhead.  Spans
of a traced run are also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import numpy as np

import checker
import workloads
from tracer import Tracer
from workloads import EPSILON

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_ROUNDS = 3  # rounds of a plain run, so each input's median has three calls
MIN_TRACED_PAIRS = 2  # untraced-plus-traced round pairs of a traced run


def _process_age_s() -> float:
    """Seconds since this process started, as the kernel counts them."""
    with open("/proc/self/stat") as fh:
        start_ticks = int(fh.read().rsplit(")", 1)[1].split()[19])
    with open("/proc/uptime") as fh:
        uptime = float(fh.read().split()[0])
    return max(uptime - start_ticks / os.sysconf("SC_CLK_TCK"), 0.0)


def import_program():
    """Import minorkit from this checkout's ``src``, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import minorkit

    if not Path(minorkit.__file__).resolve().is_relative_to(src):
        raise ImportError(f"minorkit imported from {minorkit.__file__}, not from {src}")
    return minorkit


def canonical_witness(res):
    """``(kind, witness)`` in plain tuples, or ``None`` when the call gave no
    certified witness.  A minor is its branch sets; a subdivision is its
    corners plus the sorted ``((i, j), path)`` items."""
    if res.outcome == "minor":
        model = res.model if res.model is not None else res.minor_model
        return "minor", tuple(tuple(sorted(b)) for b in model.branch_sets)
    if res.outcome == "subdivision":
        model = res.model
        paths = tuple(sorted((key, tuple(p.vertices)) for key, p in model.edge_paths.items()))
        return "subdivision", (tuple(model.corners), paths)
    return None


class Bench:
    def __init__(self, mk, workload: str, seed: int, tracer=None):
        self.mk = mk
        self.tracer = tracer
        self.specs = workloads.workload_inputs(workload, seed)
        self.graphs = []
        self.expected = []  # (n, m, edge hash) for text-loaded inputs
        self.program_setup_s = 0.0
        for spec in self.specs:
            if spec.family in ("pockets", "gnp_text"):
                u, v = workloads.dense_edges(spec)
                self.expected.append((spec.n, len(u), checker.edge_hash(spec.n, u, v)))
                text = workloads.edge_list_text(spec.n, u, v)
                g = self._setup_call("graph.parse", mk.parse_graph_text, text)
            else:
                self.expected.append(None)
                gspec = mk.GeneratorSpec(family=spec.family, n=spec.n, param=spec.param, seed=spec.seed)
                g = self._setup_call("generate.generate", mk.generate, gspec, with_girth=False).graph
            self.graphs.append(g)
        self.results = [[] for _ in self.specs]  # (canonical witness, total_vertices, (kept, delta)) or None

    def _setup_call(self, name, fn, *args, **kwargs):
        start = time.perf_counter()
        if self.tracer is not None:
            out = self.tracer.call(name, fn, *args, **kwargs)
        else:
            out = fn(*args, **kwargs)
        self.program_setup_s += time.perf_counter() - start
        return out

    def _pipeline(self, spec, g):
        if spec.call == "minor":
            return self.mk.find_minor_pipeline(g, spec.t, EPSILON)
        mode = "subdivision" if spec.call == "subdivision" else "minor_or_subdivision"
        return self.mk.find_subdivision_pipeline(g, spec.t, EPSILON, mode=mode)

    def round(self, times):
        """Call the pipeline once on every input; append each call's seconds to ``times``."""
        for i, (spec, g) in enumerate(zip(self.specs, self.graphs)):
            gc.collect()
            start = time.perf_counter()
            res = self._pipeline(spec, g)
            times[i].append(time.perf_counter() - start)
            witness = canonical_witness(res)
            if witness is None:
                self.results[i].append(None)
            else:
                extraction = (res.extraction.subgraph.new_to_old, res.params.delta)
                self.results[i].append((witness, res.witness_size, extraction))

    def attempted(self) -> int:
        return sum(len(r) for r in self.results)

    def failed(self) -> int:
        return sum(1 for rs in self.results for r in rs if r is None)


def solve_seconds(times) -> float:
    """Sum over inputs of the median seconds per call."""
    return sum(statistics.median(ts) for ts in times)


def check_outputs(bench: Bench) -> list:
    """Every independent check of inputs and witnesses; returns the problems."""
    problems = []
    for spec, g, expected, results in zip(bench.specs, bench.graphs, bench.expected, bench.results):
        where = f"{spec.label} (seed {spec.seed})"
        indptr = np.concatenate(([0], np.cumsum(g.degrees())))
        indices = np.concatenate([g.neighbors(x) for x in range(g.n)])
        u, v, bad = checker.edges_from_csr(g.n, indptr, indices)
        problems += [f"{where}: input {p}" for p in bad]
        if expected is not None:
            problems += [f"{where}: {p}" for p in checker.check_same_graph(*expected, g.n, u, v)]
        es = checker.EdgeSet(g.n, u, v)
        if spec.family == "gnp_avg_degree":
            problems += [f"{where}: {p}" for p in checker.check_gnp_edge_count(spec.n, spec.param, es.m)]
        elif spec.family == "random_regular":
            problems += [f"{where}: {p}" for p in checker.check_regular(es, int(spec.param))]
        done = [r for r in results if r is not None]
        if len(done) < len(results):
            # a call that stalls adds nothing to witness_vertices, so a stall must not pass
            problems.append(f"{where}: {len(results) - len(done)} of {len(results)} calls "
                            "gave no certified witness")
        if not done:
            continue
        if any(r[0] != done[0][0] or r[2][0] != done[0][2][0] for r in done[1:]):
            problems.append(f"{where}: repeated calls gave different witnesses")
        (kind, witness), size, (kept, delta) = done[0]
        if kind == "minor":
            problems += [f"{where}: {p}" for p in checker.check_minor(es, spec.t, witness)]
        else:
            corners, paths = witness
            problems += [f"{where}: {p}" for p in checker.check_subdivision(es, spec.t, corners, dict(paths))]
        if checker.witness_vertex_count(kind, witness) != size:
            problems.append(f"{where}: total_vertices {size} differs from the witness")
        small_set = spec.call != "minor"  # the subdivision pipelines extract in small-set mode
        problems += [f"{where}: {p}" for p in checker.check_extraction(es, kept, delta, small_set)]
    return problems


def witness_vertices(bench: Bench) -> int:
    return sum(next((r[1] for r in rs if r is not None), 0) for rs in bench.results)


def measure(bench: Bench, seconds: float, traced: bool):
    """Run whole rounds for about ``seconds``, but at least ``MIN_ROUNDS``;
    with ``traced``, alternate an untraced and a traced round, at least
    ``MIN_TRACED_PAIRS`` of each.  A round starts only if one more round of
    the last round's length still fits.  Returns ``(untraced times, traced
    times, index of the first span of each traced round)``."""
    plain = [[] for _ in bench.specs]
    with_spans = [[] for _ in bench.specs]
    marks = []
    start = time.perf_counter()
    rounds = 0
    least = MIN_TRACED_PAIRS if traced else MIN_ROUNDS
    while True:
        r0 = time.perf_counter()
        bench.round(plain)
        if traced:
            marks.append(len(bench.tracer.spans))
            bench.tracer.install()
            try:
                bench.round(with_spans)
            finally:
                bench.tracer.uninstall()
        rounds += 1
        took = time.perf_counter() - r0
        if rounds >= least and time.perf_counter() - start + took > seconds:
            return plain, with_spans, marks


# (metric, span names, field, unit)
LAYER_METRICS = [
    ("graph.construct_s", ("graph.construct",), "self_s", "s"),
    ("graph.construct_calls", ("graph.construct",), "calls", "count"),
    ("graph.construct_edges", ("graph.construct",), "edges", "count"),
    ("graph.induced_subgraph_s", ("graph.induced_subgraph",), "self_s", "s"),
    ("graph.induced_subgraph_calls", ("graph.induced_subgraph",), "calls", "count"),
    ("graph.bfs_levels_s", ("graph.bfs_levels",), "self_s", "s"),
    ("graph.bfs_levels_calls", ("graph.bfs_levels",), "calls", "count"),
    ("graph.bfs_parents_s", ("graph.bfs_parents",), "self_s", "s"),
    ("graph.bfs_parents_calls", ("graph.bfs_parents",), "calls", "count"),
    ("graph.parse_s", ("graph.parse",), "self_s", "s"),
    ("generate.generate_s", ("generate.generate",), "self_s", "s"),
    ("expansion.extract_s", ("expansion.extract",), "self_s", "s"),
    ("expansion.extract_steps", ("expansion.extract",), "steps", "count"),
    ("expansion.violator_search_s", ("expansion.violator_search",), "self_s", "s"),
    ("expansion.violator_searches", ("expansion.violator_search",), "calls", "count"),
    ("expansion.violators_found", ("expansion.violator_search",), "found", "count"),
    ("expansion.dichotomy_s", ("expansion.dichotomy",), "self_s", "s"),
    ("expansion.dichotomy_steps", ("expansion.dichotomy",), "calls", "count"),
    ("minor.build_s", ("minor.build",), "self_s", "s"),
    ("minor.build_calls", ("minor.build",), "calls", "count"),
    ("routing.grow_balls_s", ("routing.grow_balls",), "self_s", "s"),
    ("routing.grow_balls_calls", ("routing.grow_balls",), "calls", "count"),
    ("routing.paths_s", ("routing.paths",), "self_s", "s"),
    ("subdivision.split_s", ("subdivision.split",), "self_s", "s"),
    ("subdivision.units_sparse_s", ("subdivision.units_sparse",), "self_s", "s"),
    ("subdivision.units_dense_s", ("subdivision.units_dense",), "self_s", "s"),
    ("subdivision.connect_s", ("subdivision.connect",), "self_s", "s"),
    ("subdivision.units_built", ("subdivision.units_sparse", "subdivision.units_dense"), "units", "count"),
    ("subdivision.units_wanted", ("subdivision.units_sparse", "subdivision.units_dense"), "wanted", "count"),
    ("verify.certify_s", ("verify.certify",), "self_s", "s"),
    ("verify.certify_calls", ("verify.certify",), "calls", "count"),
]


def layer_metrics(tracer, marks) -> dict:
    """Set-up spans plus the traced rounds' spans divided by their number."""
    setup = tracer.summary(0, marks[0])
    rounds = tracer.summary(marks[0])
    out = {}
    for metric, names, field, unit in LAYER_METRICS:
        value = sum(setup.get(n, {}).get(field, 0.0) for n in names)
        value += sum(rounds.get(n, {}).get(field, 0.0) for n in names) / len(marks)
        out[metric] = {"value": int(value) if unit == "count" and value == int(value) else value, "unit": unit}
    return out


def write_spans(tracer, workload: str, seed: int):
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    path = out_dir / f"spans-{workload}-seed{seed}.json"
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "parent", "start", "end", "counters"], "spans": tracer.spans}, fh)
    return path


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        mk = import_program()
    except ImportError as exc:
        print(f"cannot import minorkit from this checkout: {exc}", file=sys.stderr)
        return 2
    setup_s = _process_age_s()  # interpreter start and every import
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()  # set-up spans: generate, parse and Graph construction
    try:
        bench = Bench(mk, args.workload, args.seed, tracer)
    finally:
        if tracer is not None:
            tracer.uninstall()
    setup_s += bench.program_setup_s

    plain, with_spans, marks = measure(bench, args.seconds, bool(args.trace))
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    problems = check_outputs(bench)
    for spec, ts, rs in zip(bench.specs, plain, bench.results):
        sizes = {r[1] for r in rs if r is not None}
        print(f"{spec.label} t={spec.t} seed={spec.seed}: median {statistics.median(ts):.4f} s "
              f"of calls {[round(x, 3) for x in ts]}, witness sizes {sorted(sizes)}", file=sys.stderr)
    for p in problems:
        print(f"CHECK FAILED: {p}", file=sys.stderr)

    if args.trace:
        metrics = layer_metrics(tracer, marks)
        traced, untraced = solve_seconds(with_spans), solve_seconds(plain)
        metrics["trace.solve_s"] = {"value": traced, "unit": "s"}
        metrics["trace.untraced_solve_s"] = {"value": untraced, "unit": "s"}
        metrics["trace.overhead_pct"] = {"value": 100.0 * (traced / untraced - 1.0), "unit": "%"}
        print(f"spans written to {write_spans(tracer, args.workload, args.seed)}", file=sys.stderr)
    else:
        metrics = {
            "setup_s": {"value": setup_s, "unit": "s"},
            "solve_s": {"value": solve_seconds(plain), "unit": "s"},
            "witness_vertices": {"value": witness_vertices(bench), "unit": "vertices"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({
        "correct": not problems,
        "attempted": bench.attempted(),
        "failed": bench.failed(),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
