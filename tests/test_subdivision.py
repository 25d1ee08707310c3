"""Degree split, corner balls, unit builders, edge coloring, unit connection."""

import math
import random
import re
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    ConstructionStalled,
    ExpansionParams,
    Graph,
    Path,
    SubdivisionModel,
    Unit,
    build_units_dense,
    build_units_sparse,
    connect_units,
    derived_scales,
    find_subdivision_pipeline,
    kt_edge_coloring,
    split_by_degree,
    verify_subdivision,
    verify_unit,
)
from minorkit.expansion import DerivedScales
from minorkit.graph import bfs_parents, first_exit
from minorkit.subdivision import (
    CASE_SPARSE,
    CASE_STARS,
    DegreeSplit,
    _ConnectState,
    _path_to_neighbor,
    _probe_corner_balls,
    _rest_max_degree,
    _sparse_p_step,
    _sparse_q_step,
    log2m,
    unit_set_size,
)

from conftest import blobs, complete_graph, gnp, regular, star_graph
from test_graph import bfs_parents_reference, parent_chain


def sub_params(t, n, delta=1 / 3):
    return ExpansionParams.for_subdivision(t=t, delta=delta, ambient_n=n)


STALL_KEYS = {"stage", "covered", "routed", "pruned_to", "needed", "ball_sizes"}


def disjoint_copies(count, size, edges):
    """``count`` disjoint copies of a ``size``-vertex graph given by its edges."""
    return Graph(count * size, [(b + u, b + v) for b in range(0, count * size, size)
                                for u, v in edges])


def assert_hub_stall(err, stage, covered, needed):
    diag = err.value.diagnostics
    assert set(diag) == STALL_KEYS
    assert err.value.stage == diag["stage"] == stage
    assert (diag["covered"], diag["needed"]) == (covered, needed)


def planted_hub_graph(n=4096, base_degree=10, hubs=40, hub_degree=120, seed=11):
    rng = random.Random(seed)
    base = regular(n, base_degree, seed=5)
    edges = set(base.edges())
    centers = rng.sample(range(n), hubs)
    hubset = set(centers)
    others = [v for v in range(n) if v not in hubset]
    for c in centers:
        for v in rng.sample(others, hub_degree):
            if v != c:
                edges.add((min(c, v), max(c, v)))
    return Graph(n, edges)


def funnel_graph(t=3, blob_size=90, blob_degree=6, blob_count=6, seed=13):
    """Low-degree blobs all attached to t cut vertices (the funnel)."""
    rng = random.Random(seed)
    n = t + blob_count * blob_size
    edges = []
    for b in range(blob_count):
        offset = t + b * blob_size
        for v in range(blob_size):
            for _ in range(blob_degree // 2):
                w = rng.randrange(blob_size)
                if w != v:
                    a, c = offset + min(v, w), offset + max(v, w)
                    edges.append((a, c))
        # every blob touches every cut vertex several times
        for cut in range(t):
            for v in rng.sample(range(blob_size), 8):
                edges.append((cut, offset + v))
    return Graph(n, edges)


def hub_graph(n, avg_degree, hubs, seed):
    """G(n, p) plus ``hubs`` vertices joined to random sets of about the star
    threshold or more, so that the split takes a few stars."""
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    edges = {(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p}
    thr = log2m(n)
    for c in rng.sample(range(n), min(hubs, n)):
        for v in rng.sample(range(n), rng.randint(max(0, min(thr - 2, n - 1)), n - 1)):
            if v != c:
                edges.add((min(c, v), max(c, v)))
    return Graph(n, sorted(edges))


# the greedy star extraction before it went to arrays, kept as its reference:
# a Python scan for the first vertex of largest residual degree, then one
# decrement per edge from the star to a live vertex
def split_by_degree_reference(h, sigma, min_stars=None):
    m = h.n
    thr = log2m(m)
    target = max(1, math.floor(m ** (6.0 * sigma)), min_stars or 1)
    removed = set()
    deg = {v: h.degree(v) for v in range(m)}
    stars = []
    while len(stars) < target:
        candidate = None
        for v in range(m):
            if v in removed:
                continue
            if deg[v] >= thr and (candidate is None or deg[v] > deg[candidate]):
                candidate = v
        if candidate is None:
            return DegreeSplit(
                kind=CASE_SPARSE,
                x=frozenset().union(*[{c} | s for c, s in stars]) if stars else frozenset(),
                stars=tuple(stars),
                threshold=thr,
            )
        members = [int(w) for w in h.neighbors(candidate) if int(w) not in removed][:thr]
        star = frozenset(members) | {candidate}
        stars.append((candidate, frozenset(members)))
        removed |= star
        for u in star:
            for w in h.neighbors(u):
                w = int(w)
                if w in deg and w not in removed:
                    deg[w] -= 1
    return DegreeSplit(kind=CASE_STARS, stars=tuple(stars), threshold=thr)


# the rest-degree check of build_units_sparse before it went to arrays
def rest_max_degree_reference(h, x):
    degs = h.degrees().astype(np.int64).copy()
    for v in x:
        degs[v] = 0
    for v in x:
        for w in h.neighbors(v):
            if int(w) not in x:
                degs[int(w)] -= 1
    rest = [int(degs[v]) for v in range(h.n) if v not in x]
    return max(rest) if rest else 0


class TestSplitByDegree:
    @settings(max_examples=60, deadline=None)
    @given(st.integers(12, 90), st.floats(0.0, 12.0), st.integers(0, 8), st.integers(0, 10**6),
           st.sampled_from([1 / 300, 1 / 30, 0.1]), st.none() | st.integers(1, 12))
    def test_matches_loop_reference(self, n, avg_degree, hubs, seed, sigma, min_stars):
        g = hub_graph(n, avg_degree, hubs, seed)
        assert split_by_degree(g, sigma, min_stars) == split_by_degree_reference(g, sigma, min_stars)

    def test_low_degree_graph_is_sparse_with_empty_x(self):
        g = regular(64, 3, seed=1)
        split = split_by_degree(g, sigma=1 / 300)
        assert split.kind == CASE_SPARSE
        assert split.x == frozenset()

    def test_clique_yields_stars(self):
        g = complete_graph(50)  # threshold ceil(log^2 50) = 16 <= 49
        split = split_by_degree(g, sigma=1 / 300)
        assert split.kind == CASE_STARS
        c, members = split.stars[0]
        assert len(members) == split.threshold
        assert c not in members

    def test_hub_forest_exhausts_into_x(self):
        # stars around the hubs, then nothing high-degree remains
        hub_size = log2m(64)
        g = Graph(
            64,
            [(0, i) for i in range(1, hub_size + 2)]
            + [(32, 32 + i) for i in range(1, hub_size + 2)],
        )
        split = split_by_degree(g, sigma=1 / 300, min_stars=5)
        assert split.kind == CASE_SPARSE
        assert 0 in split.x and 32 in split.x
        assert len(split.x) <= 5 * (1 + split.threshold)

    def test_star_target_respects_min_stars(self):
        g = planted_hub_graph(n=1024, base_degree=8, hubs=24, hub_degree=70, seed=3)
        split = split_by_degree(g, sigma=1 / 300, min_stars=8)
        assert split.kind == CASE_STARS
        assert len(split.stars) >= 8
        seen = set()
        for c, members in split.stars:
            star = {c} | members
            assert not (seen & star)
            seen |= star


class TestEdgeColoring:
    @pytest.mark.parametrize("t", [2, 3, 7])
    def test_small_cases(self, t):
        color, tag = kt_edge_coloring(t)
        assert len(color) == t * (t - 1) // 2
        assert max(color.values()) <= t
        for (a, b), (c, d) in combinations(sorted(color), 2):
            if {a, b} & {c, d}:
                assert color[(a, b)] != color[(c, d)]
        assert len({(color[k], tag[k]) for k in color}) == len(color)

    def test_all_t_up_to_24(self):
        for t in range(2, 25):
            color, tag = kt_edge_coloring(t)
            by_vertex = {}
            for (a, b), c in color.items():
                assert (c, tag[(a, b)]) is not None
                for v in (a, b):
                    assert c not in by_vertex.setdefault(v, set())
                    by_vertex[v].add(c)
            assert len({(color[k], tag[k]) for k in color}) == len(color)

    def test_t1_rejected(self):
        with pytest.raises(ValueError):
            kt_edge_coloring(1)


class TestDenseUnits:
    def test_trivial_t1(self):
        g = planted_hub_graph()
        p = sub_params(1, g.n)
        d = derived_scales(g.n, p)
        split = split_by_degree(g, p.sigma, min_stars=10)
        assert split.kind == CASE_STARS
        units = build_units_dense(g, split, 1, d, p, max_units=1)
        assert len(units) == 1
        unit = units[0]
        assert unit.t == 1
        assert len(unit.spokes) == 1
        assert verify_unit(g, unit, d).valid

    def test_planted_hubs_t3(self):
        g = planted_hub_graph()
        p = sub_params(3, g.n)
        d = derived_scales(g.n, p)
        split = split_by_degree(g, p.sigma, min_stars=18)
        assert split.kind == CASE_STARS
        units = build_units_dense(g, split, 3, d, p, max_units=4)
        assert len(units) >= 1
        seen = set()
        for u in units:
            assert verify_unit(g, u, d).valid
            assert not (seen & u.vertices())
            seen |= u.vertices()

    def test_round_stall_carries_common_keys(self):
        # six disjoint 4-leaf stars: no ball leaves its star, so the
        # round-1 hub covers one ball where t+1 are needed
        g = disjoint_copies(6, 5, [(0, j) for j in range(1, 5)])
        split = DegreeSplit(kind=CASE_STARS, threshold=4,
                            stars=[(c, range(c + 1, c + 5)) for c in range(0, 30, 5)])
        p = sub_params(3, g.n)
        with pytest.raises(ConstructionStalled) as err:
            build_units_dense(g, split, 3, derived_scales(g.n, p), p, max_units=1)
        assert_hub_stall(err, 1, 1, 4)

    @pytest.mark.parametrize("sigma", [0.6, 0.65])
    def test_sets_above_star_size_rejected(self, sigma):
        # sigma this large asks for unit sets above the star size, and a
        # unit set is trimmed out of one star
        g = gnp(1000, 400, seed=1)
        split = split_by_degree(g, 1 / 300, min_stars=18)
        p = ExpansionParams(delta=0.3, eta=1 / 2700, ambient_n=g.n, t=3, sigma=sigma)
        assert split.kind == CASE_STARS and unit_set_size(g.n, sigma) > split.threshold + 1
        with pytest.raises(ValueError, match="star size"):
            build_units_dense(g, split, 3, derived_scales(g.n, p), p, max_units=2)

    def test_wrong_split_kind_rejected(self):
        g = regular(64, 3, seed=1)
        split = split_by_degree(g, sigma=1 / 300)
        p = sub_params(2, 64)
        with pytest.raises(ValueError):
            build_units_dense(g, split, 2, derived_scales(64, p), p)


class TestSparseRouteArrays:
    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 90), st.floats(0.0, 20.0), st.integers(0, 10**6), st.data())
    def test_rest_degree_matches_loop_reference(self, n, avg_degree, seed, data):
        g = hub_graph(n, avg_degree, 2, seed)
        x = data.draw(st.sets(st.integers(0, n - 1)))
        assert _rest_max_degree(g, x) == rest_max_degree_reference(g, x)

    @pytest.mark.parametrize("seed", range(4))
    def test_over_threshold_message_unchanged(self, seed):
        g = hub_graph(60, 30.0, 6, seed)
        x = set(random.Random(seed).sample(range(60), 5))
        rest = rest_max_degree_reference(g, x)
        thr = log2m(60)
        assert rest > thr
        p = sub_params(3, 60)
        message = f"max degree {rest} of h - x exceeds the threshold {thr}"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            build_units_sparse(g, x, 3, derived_scales(60, p), p)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 40), st.floats(0.5, 10.0), st.integers(0, 10**6), st.data())
    def test_stopped_reroute_matches_full_radius(self, n, avg_degree, seed, data):
        # the re-route stops at the first layer that reaches a neighbor of b;
        # the reference runs every layer and then takes the earliest exit
        g = hub_graph(n, avg_degree, 0, seed)
        vertex = st.integers(0, n - 1)
        v = data.draw(vertex)
        near = [int(w) for w in g.neighbors(v)]
        # half the draws make the seed itself a neighbor of b
        b = data.draw(st.sampled_from(near) if near and data.draw(st.booleans())
                      else vertex.filter(lambda u: u != v))
        avoid = data.draw(st.sets(vertex, max_size=n // 2)) - {v}
        if data.draw(st.booleans()):
            avoid |= {b}  # as on the sparse route, where b lies in x
        radius = data.draw(st.integers(0, 5))
        ref_levels, ref_parents = bfs_parents_reference(g, [v], avoid=avoid, radius=radius)
        levels = np.full(n, -1, dtype=np.int32)
        levels[list(ref_levels)] = list(ref_levels.values())
        ex = first_exit(g, levels, [b])
        expected = None if ex is None else Path(tuple(parent_chain(ref_parents, ex[1])) + (b,))
        assert _path_to_neighbor(g, v, avoid, b, radius) == expected


class TestSparseUnits:
    def test_funnel_routes_to_direct_subdivision(self):
        g = funnel_graph(t=3)
        p = sub_params(3, g.n)
        d = derived_scales(g.n, p)
        x = frozenset(range(3))  # the cut vertices
        got = build_units_sparse(g, x, 3, d, p, degree_floor=3.0, max_units=4)
        assert isinstance(got, SubdivisionModel)
        assert set(got.corners) <= set(range(3))
        report = verify_subdivision(g, got)
        assert report.valid
        assert got.total_vertices <= 3 * 3 * max(d.l, 1) + 3

    def test_bounded_degree_units_route(self):
        g = regular(1024, 10, seed=6)
        p = sub_params(3, 1024)
        d = derived_scales(1024, p)
        got = build_units_sparse(g, frozenset(), 3, d, p, degree_floor=3.0, max_units=4)
        assert isinstance(got, list) and len(got) >= 1
        for u in got:
            assert verify_unit(g, u, d).valid

    def test_t2_direct_route_is_a_path(self):
        g = funnel_graph(t=2, blob_count=4)
        p = sub_params(2, g.n)
        d = derived_scales(g.n, p)
        got = build_units_sparse(g, frozenset(range(2)), 2, d, p, degree_floor=3.0)
        assert isinstance(got, SubdivisionModel)
        assert got.t == 2
        assert len(got.edge_paths) == 1
        assert verify_subdivision(g, got).valid

    def test_corner_growth_stall_carries_common_keys(self):
        # four disjoint 8-cycles with one inward corner each: the balls never
        # meet, so the hub covers one where two are needed
        g = disjoint_copies(4, 8, [(j, (j + 1) % 8) for j in range(8)])
        p = sub_params(3, g.n)
        d = derived_scales(g.n, p)
        centers = {i: 8 * i for i in range(4)}
        pockets = {i: frozenset({8 * i, 8 * i + 1}) for i in range(4)}
        balls = {i: bfs_parents(g, [v], radius=d.l) for i, v in centers.items()}
        state = _ConnectState(indices=[0, 1, 2, 3])
        with pytest.raises(ConstructionStalled) as err:
            _sparse_p_step(g, set(), state, centers, pockets, balls, [0, 1, 2, 3],
                           1, d, p, 3, 2)
        assert_hub_stall(err, ("p", 1), 1, 2)
        assert state.indices == [0, 1, 2, 3] and not state.paths

    def test_q_step_reroute_avoids_paths_taken_earlier(self):
        # corners 2 and 3 both exit through 1 into b = 0; corner 2 keeps its
        # probe path 2-1-0, so corner 3's ball meets a taken vertex and it
        # re-routes around it, 3-4-5-0, instead of crossing at 1
        g = Graph(6, [(0, 1), (1, 2), (1, 3), (3, 4), (4, 5), (5, 0)])
        d = DerivedScales(f_m=0.1, k=10, l=3, m=6)
        state = _ConnectState(indices=[0, 1])
        centers = {0: 2, 1: 3}
        exits, balls = _probe_corner_balls(g, {0}, {0}, state, centers, d)
        assert exits == {0: (1, 1, 0), 1: (1, 1, 0)}
        _sparse_q_step(g, {0}, state, centers, exits, balls, 1, d, 2)
        assert state.qpaths == {(1, 0): Path((2, 1, 0)), (1, 1): Path((3, 4, 5, 0))}
        assert state.bhubs == [0]

    def test_degree_violation_of_split_contract(self):
        g = complete_graph(60)
        p = sub_params(3, 60)
        d = derived_scales(60, p)
        with pytest.raises(ValueError, match="max degree"):
            build_units_sparse(g, frozenset(), 3, d, p)


class TestConnectUnits:
    def _units(self, t=3, count=5):
        g = regular(2048, 10, seed=8)
        p = sub_params(t, 2048)
        d = derived_scales(2048, p)
        units = build_units_sparse(g, frozenset(), t, d, p, degree_floor=3.0, max_units=count)
        assert isinstance(units, list)
        return g, p, d, units

    def test_t2_two_units_single_path(self):
        g, p, d, units = self._units(t=2, count=3)
        assert len(units) >= 3
        model = connect_units(g, units[:3], 2, d, p)
        assert len(model.edge_paths) == 1
        assert verify_subdivision(g, model).valid

    def test_t3_end_to_end(self):
        g, p, d, units = self._units(t=3, count=5)
        assert len(units) >= 4
        model = connect_units(g, units, 3, d, p)
        report = verify_subdivision(g, model)
        assert report.valid
        assert model.total_vertices <= 16 * d.k * 9

    def test_step_stall_carries_common_keys(self):
        # four disjoint spiders (a corner with three 2-edge legs, each leg
        # ending in an edge that is the unit's set): the balls never meet, so
        # step (1, 1) covers one unit where t are needed
        spider = [(0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 6), (0, 7), (7, 8), (8, 9)]
        g = disjoint_copies(4, 10, spider)
        p = sub_params(3, g.n)
        units = [
            Unit(corner=c, spokes=[Path((c, c + a, c + a + 1)) for a in (1, 4, 7)],
                 sets=[{c + a + 1, c + a + 2} for a in (1, 4, 7)],
                 centers=[c + a + 1 for a in (1, 4, 7)], sigma=p.sigma)
            for c in range(0, 40, 10)
        ]
        with pytest.raises(ConstructionStalled) as err:
            connect_units(g, units, 3, derived_scales(g.n, p), p)
        assert_hub_stall(err, (1, 1), 1, 3)

    def test_too_few_units_rejected(self):
        g, p, d, units = self._units(t=3, count=5)
        with pytest.raises(ValueError, match="at least"):
            connect_units(g, units[:2], 3, d, p)

    def test_state_drops_paths_by_the_index_ending_their_key(self):
        # unit rounds key paths (round, idx), the connection (alpha, beta, unit)
        path = Path((0, 1))
        state = _ConnectState(indices=[0, 1, 2, 3])
        state.paths = {(1, 3): path, (1, 2): path, (1, 2, 0): path, (2, 1, 3): path}
        state.qpaths = {(1, 0): path, (2, 1): path}
        state.drop_to([3, 0])
        assert state.indices == [0, 3]
        assert list(state.paths) == [(1, 3), (1, 2, 0), (2, 1, 3)]
        assert list(state.qpaths) == [(1, 0)]

    def test_non_disjoint_units_rejected(self):
        g, p, d, units = self._units(t=3, count=5)
        with pytest.raises(ValueError, match="disjoint"):
            connect_units(g, [units[0], units[0], units[1], units[2]], 3, d, p)


class TestSubdivisionPipeline:
    def test_dense_random_graph(self):
        g = gnp(2048, 60, seed=0)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0)
        assert res.outcome == "subdivision"
        report = verify_subdivision(g, res.model)
        assert report.valid
        assert res.model.total_vertices <= 16 * res.scales.k * 9

    def test_minor_or_subdivision_on_blobs(self):
        from minorkit import verify_minor_model

        g = blobs(200, 0.8, 5, seed=2)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0, mode="minor_or_subdivision")
        assert res.outcome in ("subdivision", "minor", "handoff")
        if res.outcome == "minor":
            assert verify_minor_model(g, res.model).valid
        elif res.outcome == "subdivision":
            assert verify_subdivision(g, res.model).valid
        else:
            assert res.brute_force_answer in (True, None)

    def test_plain_mode_never_emits_minor_fallback(self):
        g = blobs(200, 0.8, 5, seed=2)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0, mode="subdivision")
        assert res.outcome != "minor"  # the minor fallback did not fire
        assert res.outcome in ("subdivision", "handoff", "stalled")

    def test_too_few_units_falls_back_to_minor(self):
        # with max_units=3 the dense route builds 3 units, one short of t+1
        from minorkit import verify_minor_model

        g = gnp(1000, 400, seed=1)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0, mode="minor_or_subdivision", max_units=3)
        assert (res.outcome, res.route) == ("minor", "minor-fallback")
        assert verify_minor_model(g, res.model).valid
        assert res.diagnostics == {"units": 3, "needed": 4}

    def test_fallback_keeps_the_unit_stall_diagnostics(self):
        g = blobs(600, 0.6, 3, seed=7)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0, mode="minor_or_subdivision")
        assert (res.outcome, res.route) == ("minor", "minor-fallback")
        assert "harvested 1 corner pockets" in res.detail
        assert res.diagnostics["pockets"] == 1 and "forbidden" in res.diagnostics

    def test_both_sparse_steps_stalling_report_both(self):
        from conftest import random_tree

        res = find_subdivision_pipeline(random_tree(300, seed=4), 3, epsilon=1.0)
        assert (res.outcome, res.route) == ("stalled", "sparse")
        assert res.detail == "no exits available for a corner-to-boundary step"
        first = res.diagnostics.pop("first_step")
        assert res.diagnostics == {"survivors": 13}
        assert first["stage"] == ("p", 2) and "hub covers 1 balls" in first["detail"]
        assert set(first["diagnostics"]) == STALL_KEYS

    def test_too_few_units_stalls_in_plain_mode(self):
        g = gnp(1000, 400, seed=1)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0, max_units=3)
        assert (res.outcome, res.route) == ("stalled", "dense")
        assert res.outcome != "minor"  # the minor fallback did not fire
        assert "only 3 units built" in res.detail

    def test_t2_yields_path(self):
        g = gnp(512, 20, seed=1)
        res = find_subdivision_pipeline(g, 2, epsilon=1.0)
        assert res.outcome == "subdivision"
        assert res.model.t == 2
        assert verify_subdivision(g, res.model).valid

    def test_sparse_low_density_stalls_or_hands_off(self):
        from conftest import random_tree

        g = random_tree(200, seed=9)
        res = find_subdivision_pipeline(g, 3, epsilon=1.0)
        assert res.outcome in ("stalled", "handoff")

    def test_unknown_mode_rejected(self):
        g = complete_graph(8)
        with pytest.raises(ValueError):
            find_subdivision_pipeline(g, 3, 1.0, mode="nope")

    def test_determinism(self):
        g = gnp(1024, 60, seed=4)
        r1 = find_subdivision_pipeline(g, 3, epsilon=1.0)
        r2 = find_subdivision_pipeline(g, 3, epsilon=1.0)
        assert r1.outcome == r2.outcome == "subdivision"
        assert r1.model.corners == r2.model.corners
        assert r1.model.edge_paths == r2.model.edge_paths


class TestUnitJson:
    def test_round_trip(self):
        u = Unit(
            corner=0,
            spokes=(Path((0, 1)), Path((0, 2))),
            sets=(frozenset({1}), frozenset({2})),
            centers=(1, 2),
            sigma=0.01,
        )
        assert Unit.from_json_dict(u.to_json_dict()) == u

    def test_degenerate_star_unit_is_valid(self):
        g = star_graph(4)
        u = Unit(
            corner=0,
            spokes=(Path((0, 1)), Path((0, 2))),
            sets=(frozenset({1}), frozenset({2})),
            centers=(1, 2),
            sigma=0.01,
        )
        p = sub_params(2, 5)
        assert verify_unit(g, u, derived_scales(5, p)).valid
