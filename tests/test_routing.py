"""The bit-parallel ball family and the set-local scaffold paths against the
per-ball and whole-graph code they replaced, kept here as references."""

import random
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import GeneratorSpec, Graph, Path, generate
from minorkit import graph as graph_module
from minorkit.graph import _layer_step, _mask, first_exit, reached_in_order
from minorkit.routing import (
    BallFamily,
    backtrack_chain,
    entry_path,
    grow_balls_to_common_hub,
    path_through_scaffold,
    trim_to_size,
)

from test_graph import bfs_parents_reference, parent_chain


# the per-ball family that the bit-parallel one replaced: each ball keeps its
# own level array and blocked mask and runs its own layer step per round
class BallFamilyReference:
    def __init__(self, g, seed_sets, avoid_common=(), avoid_extra=None):
        self.g = g
        self.indices = sorted(seed_sets)
        self.levels = {}
        self.frontiers = {}
        self.sizes = {}
        self.coverage = np.zeros(g.n, dtype=np.int16)
        self._blocked = {}
        common = _mask(g.n, avoid_common)
        for i in self.indices:
            seeds = sorted(int(v) for v in seed_sets[i])
            lv = np.full(g.n, -1, dtype=np.int32)
            lv[seeds] = 0
            blocked = common | _mask(g.n, (avoid_extra or {}).get(i, ()))
            if blocked[seeds].any():
                raise ValueError(f"seed of ball {i} lies in its avoid set")
            self.levels[i] = lv
            self.frontiers[i] = np.asarray(seeds, dtype=np.int64)
            self.sizes[i] = len(seeds)
            self.coverage[seeds] += 1
            self._blocked[i] = blocked
        self.radius = 0

    def grow_round(self):
        grew = False
        for i in self.indices:
            frontier = self.frontiers[i]
            if not len(frontier):
                continue
            new = _layer_step(self.g, frontier, self.levels[i], self._blocked[i])
            self.levels[i][new] = self.radius + 1
            self.coverage[new] += 1
            self.frontiers[i] = new
            self.sizes[i] += len(new)
            grew = grew or len(new) > 0
        if grew:
            self.radius += 1
        return grew

    def best_hub(self, forbid_mask=None):
        if forbid_mask is None:
            hub = int(np.argmax(self.coverage))
            return hub, int(self.coverage[hub])
        masked = np.where(forbid_mask, np.int16(-1), self.coverage)
        hub = int(np.argmax(masked))
        return hub, int(masked[hub])

    def covered_indices(self, v):
        return [i for i in self.indices if self.levels[i][v] >= 0]


def grow_balls_reference(g, seed_sets, avoid_common=(), avoid_extra=None, radius_cap=None,
                         size_cap=None, forbid=None):
    fam = BallFamilyReference(g, seed_sets, avoid_common, avoid_extra)
    mask = _mask(g.n, forbid) if forbid is not None and len(forbid) else None
    want = len(fam.indices)
    while True:
        hub, cov = fam.best_hub(mask)
        if cov >= want:
            break
        if radius_cap is not None and fam.radius >= radius_cap:
            break
        if size_cap is not None and all(fam.sizes[i] >= size_cap for i in fam.indices):
            break
        if not fam.grow_round():
            break
    hub, cov = fam.best_hub(mask)
    if cov <= 0:
        return hub, [], fam
    return hub, fam.covered_indices(hub), fam


def backtrack_chain_reference(g, levels, end):
    r = int(levels[end])
    chain = [int(end)]
    v = int(end)
    while r > 0:
        v = next(int(w) for w in g.neighbors(v) if levels[w] == r - 1)
        chain.append(v)
        r -= 1
    chain.reverse()
    return chain


def family_levels(fam, i):
    """Ball ``i``'s level array read off the family's round records."""
    lv = np.full(fam.g.n, -1, dtype=np.int32)
    everyone = np.arange(fam.g.n)
    for r in range(fam.radius + 1):
        lv[fam.reached_at(i, r, everyone)] = r
    return lv


def random_graph(n, avg_degree, seed):
    rng = random.Random(seed)
    p = min(1.0, avg_degree / max(n - 1, 1))
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n) if rng.random() < p])


def torus(n):
    return generate(GeneratorSpec(family="grid_torus", n=n, param=0.0, seed=0),
                    with_girth=False).graph


@st.composite
def families(draw, max_balls=8):
    """A graph, seed sets, common and per-ball avoid sets: every seed lies
    outside its own avoid sets, balls may share seeds and block each other."""
    g = draw(st.one_of(
        st.builds(random_graph, st.integers(2, 60), st.floats(0.5, 8.0), st.integers(0, 10**6)),
        st.sampled_from([16, 36, 64]).map(torus),
    ))
    vertex = st.integers(0, g.n - 1)
    common = draw(st.sets(vertex, max_size=g.n // 4))
    free = st.sampled_from(sorted(set(range(g.n)) - common) or [0])
    count = draw(st.integers(1, max_balls))
    indices = draw(st.lists(st.integers(0, 500), min_size=count, max_size=count, unique=True))
    seed_sets = {i: draw(st.sets(free, min_size=0 if common else 1, max_size=4)) - common
                 for i in indices}
    avoid_extra = {i: draw(st.sets(vertex, max_size=g.n // 3)) - seed_sets[i]
                   for i in indices if draw(st.booleans())}
    return g, seed_sets, common, avoid_extra


def assert_same_family(fam, ref):
    assert fam.indices == ref.indices
    assert fam.radius == ref.radius
    assert fam.sizes == ref.sizes
    assert fam.coverage.tolist() == ref.coverage.tolist()
    for i in ref.indices:
        assert family_levels(fam, i).tolist() == ref.levels[i].tolist()


class TestBallFamily:
    @settings(max_examples=120, deadline=None)
    @given(families(), st.data())
    def test_rounds_match_per_ball_growth(self, drawn, data):
        g, seed_sets, common, avoid_extra = drawn
        fam = BallFamily(g, seed_sets, common, avoid_extra)
        ref = BallFamilyReference(g, seed_sets, common, avoid_extra)
        forbid = _mask(g.n, data.draw(st.sets(st.integers(0, g.n - 1))))
        while True:
            assert_same_family(fam, ref)
            assert fam.best_hub() == ref.best_hub()
            assert fam.best_hub(forbid) == ref.best_hub(forbid)
            for v in range(g.n):
                assert fam.covered_indices(v) == ref.covered_indices(v)
            grew = ref.grow_round()
            assert fam.grow_round() == grew
            if not grew:
                break
        assert fam.grow_round() is False

    @settings(max_examples=40, deadline=None)
    @given(st.integers(65, 140), st.integers(0, 10**6), st.data())
    def test_more_than_64_balls_use_more_words(self, count, seed, data):
        g = random_graph(90, 3.0, seed)
        rng = random.Random(seed)
        seed_sets = {i: {rng.randrange(g.n)} for i in range(count)}
        avoid_extra = {i: {rng.randrange(g.n) for _ in range(5)} - seed_sets[i]
                       for i in range(0, count, 3)}
        fam = BallFamily(g, seed_sets, (), avoid_extra)
        ref = BallFamilyReference(g, seed_sets, (), avoid_extra)
        assert fam._closed.shape[0] == -(-count // 64)
        while ref.grow_round():
            assert fam.grow_round()
            assert_same_family(fam, ref)
        hub = data.draw(st.integers(0, g.n - 1))
        assert fam.covered_indices(hub) == ref.covered_indices(hub)

    @settings(max_examples=80, deadline=None)
    @given(families(), st.none() | st.integers(0, 6), st.none() | st.integers(1, 40), st.data())
    def test_hub_search_matches_with_caps(self, drawn, radius_cap, size_cap, data):
        g, seed_sets, common, avoid_extra = drawn
        forbid = data.draw(st.none() | st.sets(st.integers(0, g.n - 1)))
        hub, covered, fam = grow_balls_to_common_hub(
            g, seed_sets, common, avoid_extra, radius_cap, size_cap, forbid)
        ref_hub, ref_covered, ref = grow_balls_reference(
            g, seed_sets, common, avoid_extra, radius_cap, size_cap, forbid)
        assert (hub, covered) == (ref_hub, ref_covered)
        assert_same_family(fam, ref)
        for i in covered:
            assert backtrack_chain(fam, i, hub) == backtrack_chain_reference(g, ref.levels[i], hub)

    def test_long_diameter_torus_rounds_push(self):
        # a 4096-vertex torus grown from two far corners: every round's
        # frontier is small, so every round takes the push direction
        g = torus(4096)
        seed_sets = {0: {0}, 1: {2080}, 2: {1000, 3000}}
        hub, covered, fam = grow_balls_to_common_hub(g, seed_sets, avoid_common={64, 65})
        ref_hub, ref_covered, ref = grow_balls_reference(g, seed_sets, avoid_common={64, 65})
        assert (hub, covered) == (ref_hub, ref_covered) and fam.radius == ref.radius > 20
        assert_same_family(fam, ref)

    @pytest.mark.parametrize("n,count", [(4096, 1), (4096, 9), (4096, 70), (300, 40)])
    def test_records_cost_at_most_five_bytes_per_vertex_and_ball(self, n, count):
        # the per-ball family kept a 4-byte level array and a 1-byte blocked
        # mask per ball; grown until every ball stops, the records hold at
        # most 4 bytes per vertex a ball reached, the closed words at most 1
        # byte per vertex and ball, and a round stored ball by ball one
        # 8-byte offset per ball
        g = torus(n) if n == 4096 else random_graph(n, 6.0, 3)
        rng = random.Random(count)
        fam = BallFamily(g, {i: {rng.randrange(n)} for i in range(count)})
        while fam.grow_round():
            pass
        records = sum(verts.nbytes + (0 if fresh is None else fresh.nbytes)
                      for verts, fresh, _ in fam._rounds)
        assert records <= 4 * sum(fam.sizes.values()) <= 4 * n * count
        assert fam._closed.nbytes <= n * count
        for _, fresh, offsets in fam._rounds:
            assert (fresh is None) != (offsets is None)
            assert offsets is None or offsets.nbytes == 8 * (count + 1)

    @pytest.mark.parametrize("common,extra,bad", [
        ({3}, {}, 1), ((), {2: {7}}, 2), ({5}, {2: {7}}, 1), ((), {1: {9}, 2: {7}}, 2),
    ])
    def test_seed_inside_its_avoid_set(self, common, extra, bad):
        g = random_graph(12, 4.0, 1)
        seed_sets = {1: {3, 5}, 2: {7}, 4: {0}}
        with pytest.raises(ValueError) as err:
            BallFamily(g, seed_sets, common, extra)
        assert str(err.value) == f"seed of ball {bad} lies in its avoid set"
        with pytest.raises(ValueError, match=f"seed of ball {bad} lies"):
            BallFamilyReference(g, seed_sets, common, extra)


class TestBallFamilyAtTinyPullChunks:
    # pull chunks of a few entries: rows straddle chunks, a row outgrows one
    # (the torus's rows hold 4, a random graph's up to a dozen), and
    # degree-0 vertices have no row
    @settings(max_examples=80, deadline=None)
    @given(families(), st.sampled_from([1, 3, 8]))
    def test_rounds_match_per_ball_growth(self, drawn, chunk):
        g, seed_sets, common, avoid_extra = drawn
        with mock.patch.object(graph_module, "_PULL_CHUNK", chunk):
            fam = BallFamily(g, seed_sets, common, avoid_extra)
            ref = BallFamilyReference(g, seed_sets, common, avoid_extra)
            while ref.grow_round():
                assert fam.grow_round()
                assert_same_family(fam, ref)
            assert fam.grow_round() is False

    @settings(max_examples=30, deadline=None)
    @given(st.integers(65, 140), st.floats(0.0, 4.0), st.integers(0, 10**6), st.sampled_from([1, 5]))
    def test_more_than_64_balls_use_more_words(self, count, avg_degree, seed, chunk):
        g = random_graph(90, avg_degree, seed)
        rng = random.Random(seed)
        seed_sets = {i: {rng.randrange(g.n)} for i in range(count)}
        with mock.patch.object(graph_module, "_PULL_CHUNK", chunk):
            fam = BallFamily(g, seed_sets)
            ref = BallFamilyReference(g, seed_sets)
            assert fam._closed.shape[0] == -(-count // 64) >= 2
            while ref.grow_round():
                assert fam.grow_round()
                assert_same_family(fam, ref)
            assert fam.grow_round() is False


# the scaffold routines as they ran on bfs_parents(allowed=...), a whole-graph
# BFS through the allowed set only, here on the loop reference: level and
# parent arrays, -1 where unreached and at the seeds
def bfs_allowed(g, seeds, allowed, target=None):
    ref_levels, ref_parents = bfs_parents_reference(g, seeds, target=target, allowed=set(allowed))
    levels = np.full(g.n, -1, dtype=np.int32)
    parents = np.full(g.n, -1, dtype=np.int64)
    for v, r in ref_levels.items():
        levels[v] = r
        parents[v] = ref_parents[v]
    return levels, parents


def path_through_scaffold_reference(g, scaffold, src, dst) -> Optional[Path]:
    levels, parents = bfs_allowed(g, [src], set(scaffold) | {src, dst}, target=dst)
    if levels[dst] < 0:
        return None
    return Path(tuple(parent_chain(parents, dst)))


def entry_path_reference(g, scaffold, source, target_set, target_center, max_len=None):
    if source in target_set:
        return path_through_scaffold_reference(g, target_set, source, target_center)
    levels, parents = bfs_allowed(g, [source], (set(scaffold) - set(target_set)) | {source})
    entry = first_exit(g, levels, target_set)
    if entry is None:
        return None
    _r, u, w = entry
    inside = path_through_scaffold_reference(g, target_set, w, target_center)
    if inside is None:
        return None
    verts = tuple(parent_chain(parents, u)) + tuple(inside.vertices)
    if max_len is not None and len(verts) - 1 > max_len:
        return None
    return Path(verts)


def trim_to_size_reference(g, members, center, size):
    levels, _ = bfs_allowed(g, [center], members)
    ranked = reached_in_order(levels)
    if len(ranked) < size:
        raise ValueError("set too small to trim to requested size")
    return frozenset(ranked[:size].tolist())


graphs = st.builds(random_graph, st.integers(2, 50), st.floats(0.5, 10.0), st.integers(0, 10**6))


class TestScaffoldPaths:
    @settings(max_examples=200, deadline=None)
    @given(graphs, st.data())
    def test_path_through_scaffold(self, g, data):
        vertex = st.integers(0, g.n - 1)
        scaffold = data.draw(st.sets(vertex))
        src, dst = data.draw(vertex), data.draw(vertex)
        assert (path_through_scaffold(g, scaffold, src, dst)
                == path_through_scaffold_reference(g, scaffold, src, dst))

    @settings(max_examples=200, deadline=None)
    @given(graphs, st.data())
    def test_entry_path(self, g, data):
        vertex = st.integers(0, g.n - 1)
        scaffold = data.draw(st.sets(vertex))
        target_set = data.draw(st.sets(vertex, min_size=1))
        center = data.draw(st.sampled_from(sorted(target_set)))
        source = data.draw(vertex)
        max_len = data.draw(st.none() | st.integers(0, 8))
        assert (entry_path(g, scaffold, source, target_set, center, max_len)
                == entry_path_reference(g, scaffold, source, target_set, center, max_len))

    @settings(max_examples=150, deadline=None)
    @given(graphs, st.data())
    def test_trim_to_size(self, g, data):
        members = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        center = data.draw(st.sampled_from(sorted(members)))
        size = data.draw(st.integers(1, len(members) + 1))
        try:
            expected = trim_to_size_reference(g, members, center, size)
        except ValueError as exc:
            with pytest.raises(ValueError, match=str(exc)):
                trim_to_size(g, members, center, size)
        else:
            assert trim_to_size(g, members, center, size) == expected
