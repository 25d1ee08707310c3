"""The benchmark's traced run wraps minorkit functions by module attribute.

``perfbench/tracer.py`` replaces names such as ``minorkit.subdivision.bfs_parents``
in the namespaces of the calling modules.  A rename in minorkit breaks
``perfbench/run.py --trace 1`` without failing any other test, so these tests
check that every hook point resolves, is wrapped on install and is restored
on uninstall.  The tracer is loaded from its file and never modified.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
GOLDEN_PATH = Path(__file__).resolve().parent / "golden" / "test_golden.py"

# hook points the traced benchmark reports on; each must keep its name
REQUIRED = [
    ("expansion", "induced_subgraph"),
    ("graph", "bfs_levels"),
    ("expansion", "bfs_levels"),
    ("minor", "bfs_levels"),
    ("subdivision", "bfs_levels"),
    ("graph", "bfs_parents"),
    ("routing", "bfs_parents"),
    ("subdivision", "bfs_parents"),
    ("minor", "path_through_scaffold"),
    ("subdivision", "path_through_scaffold"),
    ("minor", "backtrack_chain"),
    ("subdivision", "backtrack_chain"),
    ("minor", "entry_path"),
    ("subdivision", "trim_to_size"),
    ("minor", "grow_balls_to_common_hub"),
    ("subdivision", "grow_balls_to_common_hub"),
]


def load_file(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no cache file next to the tracer
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = saved
    return module


@pytest.fixture(scope="module")
def tracer_module():
    return load_file("perfbench_tracer", TRACER_PATH)


SPECS = [
    ("gnp_avg_degree", 300, 12.0, 1),
    ("random_regular", 120, 6.0, 1),
    ("dense_blobs", 120, 0.5, 3),
    ("grid_torus", 64, 0.0, 1),
]


@pytest.mark.parametrize("family,n,param,blobs", SPECS)
def test_construct_spans_count_edges(tracer_module, family, n, param, blobs):
    # every graph is built through Graph.__init__, so each build shows as one
    # graph.construct span carrying its edge count
    minorkit = importlib.import_module("minorkit")
    expansion = importlib.import_module("minorkit.expansion")
    spec = minorkit.GeneratorSpec(family=family, n=n, param=param, blob_count=blobs, seed=5)
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        g = minorkit.generate(spec, with_girth=False).graph
        sub = expansion.induced_subgraph(g, range(0, n, 2))
    finally:
        tracer.uninstall()
    names = [span[0] for span in tracer.spans]
    assert names == ["graph.construct", "graph.induced_subgraph", "graph.construct"]
    assert tracer.spans[0][4] == {"edges": g.edge_count} and g.edge_count > 0
    assert tracer.spans[2][1] == 1  # built inside the induced_subgraph span
    assert tracer.spans[2][4] == {"edges": sub.graph.edge_count} and sub.graph.edge_count > 0


def test_parsed_text_is_one_construct_span(tracer_module):
    # the text reader hands one id array to Graph, so parsing shows as one
    # graph.construct span carrying the parsed graph's edge count
    minorkit = importlib.import_module("minorkit")
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        g = minorkit.parse_graph_text("# n = 5\n0 1\n1 2\n2 0\n3 4\n1 0\n")
    finally:
        tracer.uninstall()
    construct = [span for span in tracer.spans if span[0] == "graph.construct"]
    assert len(construct) == 1
    assert construct[0][4] == {"edges": g.edge_count} and g.edge_count == 4


def hook_points(tracer_module):
    return [site for _name, _counter, sites in tracer_module.PATCHES for site in sites]


def test_required_hook_points_are_patched(tracer_module):
    assert set(REQUIRED) <= set(hook_points(tracer_module))


def test_every_hook_point_resolves_wraps_and_restores(tracer_module):
    sites = hook_points(tracer_module)
    originals = {}
    for module, attr in sites:
        mod = importlib.import_module(f"minorkit.{module}")
        assert callable(getattr(mod, attr, None)), f"minorkit.{module}.{attr} is missing"
        originals[(module, attr)] = getattr(mod, attr)
    graph_cls = importlib.import_module("minorkit.graph").Graph
    init = graph_cls.__init__

    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        for (module, attr), original in originals.items():
            wrapped = getattr(importlib.import_module(f"minorkit.{module}"), attr)
            assert wrapped is not original
            assert wrapped.__wrapped__ is original
        assert graph_cls.__init__ is not init
    finally:
        tracer.uninstall()

    for (module, attr), original in originals.items():
        assert getattr(importlib.import_module(f"minorkit.{module}"), attr) is original
    assert graph_cls.__init__ is init


# one golden spec per hub-round construction, with the route it takes:
# staged minor, dense units, sparse units joined by the unit connection
TRACED_SPECS = [
    (("minor", 4, "gnp_avg_degree", 200, 30.0, 1, 1), None),
    (("subdivision", 3, "gnp_avg_degree", 1000, 400.0, 1, 1), "dense"),
    (("subdivision", 3, "random_regular", 600, 12.0, 1, 3), "sparse"),
]


@pytest.mark.parametrize("spec,route", TRACED_SPECS)
def test_ball_growth_and_routing_are_traced(tracer_module, spec, route):
    # ball growth and routing must run from the patched namespaces, or the
    # benchmark's routing layers read zero
    golden = load_file("golden_specs", GOLDEN_PATH)
    assert spec in golden.SPECS
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        fingerprint = golden.fingerprint(spec)
    finally:
        tracer.uninstall()
    assert fingerprint["outcome"] in ("minor", "subdivision")
    assert fingerprint["route"] == route
    summary = tracer.summary()
    for layer in ("routing.grow_balls", "routing.paths"):
        assert summary.get(layer, {}).get("calls", 0) > 0, f"no {layer} span"


def test_sparse_direct_route_is_traced(tracer_module):
    # the sparse route's split, unit build and corner-ball BFS must stay
    # reachable under the names the benchmark wraps, or its per-layer
    # figures for this route read zero
    golden = load_file("golden_specs", GOLDEN_PATH)
    spec = ("subdivision", 3, "gnp_avg_degree", 240, 60.0, 1, 9)
    assert spec in golden.SPECS
    tracer = tracer_module.Tracer()
    tracer.install()
    try:
        fingerprint = golden.fingerprint(spec)
    finally:
        tracer.uninstall()
    assert (fingerprint["outcome"], fingerprint["route"]) == ("subdivision", "sparse-direct")
    summary = tracer.summary()
    for layer in ("subdivision.split", "subdivision.units_sparse", "graph.bfs_parents"):
        assert summary.get(layer, {}).get("calls", 0) > 0, f"no {layer} span"


# (verify.certify, expansion.extract, minor.build) calls per golden spec,
# by its (outcome, route): a certify, extract or build call moved out of the
# patched namespaces zeroes the benchmark's layer without failing elsewhere
SPAN_COUNTS = {
    ("minor", None): (2, 1, 1),
    ("handoff", None): (0, 1, 0),
    ("handoff", ""): (0, 1, 0),
    ("subdivision", "dense"): (6, 1, 0),
    ("subdivision", "sparse-direct"): (2, 1, 0),
    ("subdivision", "sparse"): (7, 1, 0),
    ("minor", "minor-fallback"): (2, 1, 1),
}


def test_golden_specs_keep_their_span_counts(tracer_module):
    golden = load_file("golden_specs", GOLDEN_PATH)
    for spec in golden.SPECS:
        tracer = tracer_module.Tracer()
        tracer.install()
        try:
            res = golden.run_spec(spec)
        finally:
            tracer.uninstall()
        summary = tracer.summary()
        counts = tuple(summary.get(layer, {}).get("calls", 0)
                       for layer in ("verify.certify", "expansion.extract", "minor.build"))
        assert counts == SPAN_COUNTS[(res.outcome, res.route)], spec
