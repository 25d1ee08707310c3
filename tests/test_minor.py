"""Nice-set harvesting, conflict pruning, and the staged minor construction."""

import math
from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    ConstructionStalled,
    ExpansionParams,
    Graph,
    Path,
    build_small_minor,
    caro_wei_bound,
    conflict_prune,
    derived_scales,
    find_minor_pipeline,
    find_nice_sets,
    greedy_independent_set,
    set_radius_center,
    verify_minor_model,
)
from minorkit.minor import route_and_prune

from conftest import (
    blobs,
    complete_graph,
    cycle_graph,
    gnp,
    grid_graph,
    petersen_graph,
    random_tree,
)


def minor_params(t, m, delta=0.2):
    return ExpansionParams.for_minor(t=t, delta=delta, ambient_n=m)


STALL_KEYS = {"stage", "covered", "routed", "pruned_to", "needed", "ball_sizes"}


def disjoint_cliques(count, size):
    return Graph(count * size, [(b + u, b + v) for b in range(0, count * size, size)
                                for u, v in combinations(range(size), 2)])


class TestFindNiceSets:
    def test_complete_graph_disjoint_pairs(self):
        g = complete_graph(12)
        p = minor_params(2, 12)
        d = derived_scales(12, p)
        sets = find_nice_sets(g, count=3, size=2, d=d, p=p)
        assert len(sets) == 3
        seen = set()
        for ns in sets:
            assert len(ns.vertices) == 2
            assert ns.radius_bound <= 1
            assert not (seen & ns.vertices)
            seen |= ns.vertices

    def test_torus_sets_have_tiny_radius(self):
        from minorkit import GeneratorSpec, generate

        g = generate(GeneratorSpec(family="grid_torus", n=1024), with_girth=False).graph
        p = minor_params(3, 1024)
        d = derived_scales(1024, p)
        size = math.floor(1024**0.25)  # 5
        sets = find_nice_sets(g, count=5, size=size, d=d, p=p)
        assert len(sets) == 5
        for ns in sets:
            _, radius = set_radius_center(g, ns.vertices)
            assert radius <= 2
            assert ns.radius_bound <= d.k

    def test_expander_sets_verified_radius(self):
        g = gnp(4096, 16, seed=12)
        p = minor_params(4, 4096)
        d = derived_scales(4096, p)
        sets = find_nice_sets(g, count=8, size=8, d=d, p=p)
        assert len(sets) == 8
        for ns in sets:
            center, radius = set_radius_center(g, ns.vertices)
            assert radius <= ns.radius_bound <= d.k
            assert ns.center in ns.vertices

    def test_respects_forbidden(self):
        g = complete_graph(10)
        p = minor_params(2, 10)
        d = derived_scales(10, p)
        sets = find_nice_sets(g, count=2, size=2, d=d, p=p, forbidden=set(range(6)))
        assert all(ns.vertices <= set(range(6, 10)) for ns in sets)

    def test_exhausted_graph_errors(self):
        g = complete_graph(5)
        p = minor_params(2, 5)
        d = derived_scales(5, p)
        with pytest.raises(ValueError, match="exhausted"):
            find_nice_sets(g, count=1, size=2, d=d, p=p, forbidden=set(range(5)))


class TestGreedyIndependentSet:
    def test_cycle_nine(self):
        adj = {i: {(i - 1) % 9, (i + 1) % 9} for i in range(9)}
        got = greedy_independent_set(adj)
        assert len(got) == 4
        for u in got:
            assert not (adj[u] & set(got))

    @settings(max_examples=80, deadline=None)
    @given(st.data())
    def test_caro_wei_bound_holds(self, data):
        n = data.draw(st.integers(1, 40))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        adj = {v: set() for v in range(n)}
        for (u, v), keep in zip(pairs, mask):
            if keep:
                adj[u].add(v)
                adj[v].add(u)
        got = greedy_independent_set(adj)
        assert len(got) >= math.ceil(caro_wei_bound(adj))
        for u in got:
            assert not (adj[u] & (set(got) - {u}))


class TestConflictPrune:
    def test_all_disjoint_keeps_everything(self):
        sets = [frozenset({i}) for i in range(6)]
        paths = [Path((10 + i,)) for i in range(6)]
        assert conflict_prune(sets, paths, path_len_bound=3) == list(range(6))

    def test_cycle_conflict_structure(self):
        # P_i hits S_{i+1 mod 9}: the conflict graph is a 9-cycle
        sets = [frozenset({i}) for i in range(9)]
        paths = [Path((20 + i, (i + 1) % 9)) for i in range(9)]
        kept = conflict_prune(sets, paths, path_len_bound=1)
        assert len(kept) >= math.ceil(9 / 5)
        assert len(kept) == 4  # the greedy on C_9 keeps every other vertex
        for i in kept:
            for j in kept:
                if i != j:
                    assert not (sets[i] & set(paths[j].vertices))

    def test_random_instances_bound_and_disjointness(self):
        import random

        rng = random.Random(42)
        for trial in range(30):
            s = rng.randrange(5, 40)
            bound = rng.randrange(1, 7)
            sets = []
            base = 0
            for _i in range(s):
                size = rng.randrange(1, 4)
                sets.append(frozenset(range(base, base + size)))
                base += size
            paths = []
            for _i in range(s):
                length = rng.randrange(0, bound + 1)
                verts = rng.sample(range(base + 1000, base + 3000), length + 1)
                # sprinkle some real collisions with the sets
                if rng.random() < 0.6:
                    verts[rng.randrange(len(verts))] = rng.randrange(0, base)
                paths.append(Path(tuple(verts)))
            kept = conflict_prune(sets, paths, bound)
            assert len(kept) >= math.ceil(s / (2 * bound + 3))
            for i in kept:
                for j in kept:
                    if i != j:
                        assert not (sets[i] & set(paths[j].vertices))

    def test_cross_check_exhaustive_maximum(self):
        # greedy result is within the exhaustive maximum independent set
        import random
        from itertools import combinations as combos

        rng = random.Random(7)
        for _ in range(10):
            s = rng.randrange(4, 12)
            bound = 2
            sets = [frozenset({i}) for i in range(s)]
            paths = []
            for i in range(s):
                hit = rng.randrange(0, s)
                verts = (100 + i, hit) if hit != i else (100 + i,)
                paths.append(Path(verts))
            kept = conflict_prune(sets, paths, bound)
            conflict = {i: set() for i in range(s)}
            for j, p in enumerate(paths):
                for i in range(s):
                    if i != j and (sets[i] & set(p.vertices) or sets[j] & set(paths[i].vertices)):
                        conflict[i].add(j)
                        conflict[j].add(i)
            best = 0
            for r in range(s, 0, -1):
                if any(
                    all(b not in conflict[a] for a, b in combos(group, 2))
                    for group in combos(range(s), r)
                ):
                    best = r
                    break
            assert len(kept) <= best
            assert best >= math.ceil(s / (2 * bound + 3))

    def test_rejects_overlapping_sets(self):
        with pytest.raises(ValueError):
            conflict_prune([frozenset({1}), frozenset({1})], [Path((5,)), Path((6,))], 2)

    def test_rejects_overlong_path(self):
        with pytest.raises(ValueError):
            conflict_prune([frozenset({1})], [Path((2, 3, 4))], 1)


class _Balls:
    sizes = {0: 3, 1: 4, 2: 5, 3: 6}


class TestRouteAndPrune:
    sets = {i: frozenset({10 * i, 10 * i + 1}) for i in range(4)}

    def run(self, need, paths):
        return route_and_prune("s", 99, [0, 1, 2, 3], _Balls(), need,
                               lambda i, hub, fam: paths[i], self.sets, 3)

    def test_keeps_routed_paths_in_index_order(self):
        paths = {0: Path((0, 99)), 1: None, 2: Path((20, 5, 6, 7, 99)), 3: Path((30, 99))}
        kept = self.run(2, paths)
        # None and the path over the length bound are dropped before pruning
        assert list(kept.items()) == [(0, paths[0]), (3, paths[3])]

    def test_stall_after_pruning_counts_each_step(self):
        # every path runs through set 0, so the conflict graph is a star
        paths = {0: Path((0, 99)), 1: Path((10, 0, 99)), 2: Path((20, 1, 99)), 3: None}
        with pytest.raises(ConstructionStalled) as err:
            self.run(3, paths)
        assert err.value.stage == "s"
        assert err.value.diagnostics == {
            "stage": "s", "covered": 4, "routed": 3, "pruned_to": 2, "needed": 3,
            "ball_sizes": _Balls.sizes,
        }

    def test_stall_before_routing(self):
        with pytest.raises(ConstructionStalled) as err:
            self.run(5, {})
        assert err.value.diagnostics["covered"] == 4
        assert err.value.diagnostics["routed"] == 0


class TestBuildSmallMinor:
    def test_t2_on_any_connected_graph(self):
        g = grid_graph(4, 4)
        p = minor_params(2, 16)
        d = derived_scales(16, p)
        model = build_small_minor(g, 2, d, p)
        assert verify_minor_model(g, model).valid

    def test_c9_model_covers_whole_cycle_or_stalls(self):
        # exhaustive fact (see test_verify): a K_3 model in C_9 covers all 9
        g = cycle_graph(9)
        p = minor_params(3, 9)
        d = derived_scales(9, p)
        try:
            model = build_small_minor(g, 3, d, p)
        except ConstructionStalled:
            return
        assert verify_minor_model(g, model).valid
        assert model.total_vertices == 9

    def test_end_to_end_on_expander(self):
        g = gnp(2048, 40, seed=21)
        p = minor_params(4, 2048, delta=0.1)
        d = derived_scales(2048, p)
        model = build_small_minor(g, 4, d, p)
        report = verify_minor_model(g, model)
        assert report.valid
        assert model.total_vertices <= 4 * d.k * 16

    def test_stage_stall_carries_common_keys(self):
        # two nice sets per clique, and balls never leave their clique, so
        # the stage-0 hub covers 2 balls where 3 are needed
        g = disjoint_cliques(8, 5)
        p = minor_params(4, g.n)
        with pytest.raises(ConstructionStalled) as err:
            build_small_minor(g, 4, derived_scales(g.n, p), p)
        diag = err.value.diagnostics
        assert set(diag) == STALL_KEYS
        assert (err.value.stage, diag["stage"], diag["covered"], diag["needed"]) == (0, 0, 2, 3)
        assert diag["routed"] == diag["pruned_to"] == 0

    def test_stall_carries_diagnostics(self):
        g = cycle_graph(30)
        p = minor_params(4, 30)
        d = derived_scales(30, p)
        with pytest.raises(ConstructionStalled) as err:
            build_small_minor(g, 4, d, p)
        assert err.value.diagnostics


class TestMinorPipeline:
    def test_blob_family(self):
        g = blobs(200, 0.8, 5, seed=2)
        res = find_minor_pipeline(g, 4, epsilon=1.0)
        assert res.outcome == "minor"
        assert verify_minor_model(g, res.model).valid

    def test_random_graph_end_to_end(self):
        g = gnp(4096, 30, seed=5)
        res = find_minor_pipeline(g, 4, epsilon=1.0)
        assert res.outcome == "minor"
        assert res.model.total_vertices <= 60
        assert verify_minor_model(g, res.model).valid

    def test_big_tree_stalls(self):
        g = random_tree(300, seed=4)
        res = find_minor_pipeline(g, 3, epsilon=1.0)
        assert res.outcome == "stalled"
        assert res.model is None
        assert set(res.diagnostics) == STALL_KEYS
        assert "diagnostics" not in res.detail and "ball_sizes" not in res.detail

    def test_small_tree_hands_off_to_oracle(self):
        g = random_tree(10, seed=4)
        res = find_minor_pipeline(g, 3, epsilon=1.0)
        assert res.outcome == "handoff"
        assert res.brute_force_answer is False

    def test_small_clique_handoff_positive(self):
        g = complete_graph(8)
        res = find_minor_pipeline(g, 4, epsilon=1.0)
        assert res.outcome == "handoff"
        assert res.brute_force_answer is True

    def test_determinism(self):
        g = gnp(512, 25, seed=3)
        r1 = find_minor_pipeline(g, 3, epsilon=1.0)
        r2 = find_minor_pipeline(g, 3, epsilon=1.0)
        assert r1.outcome == r2.outcome == "minor"
        assert r1.model.branch_sets == r2.model.branch_sets


class TestModelJson:
    def test_round_trip(self):
        g = petersen_graph()
        from minorkit import MinorModel

        model = MinorModel(3, (frozenset({0}), frozenset({1}), frozenset(range(2, 10))))
        again = MinorModel.from_json_dict(model.to_json_dict())
        assert again == model
        assert again.total_vertices == 10
