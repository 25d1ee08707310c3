"""Graph generators: reproducibility, realized statistics, girth measurement."""

import importlib
import math
import random
from itertools import chain

import numpy as np
import pytest

from minorkit import GeneratorSpec, Graph, generate, girth
from minorkit.generate import _pair_from_linear, _shuffle

from conftest import complete_graph, cycle_graph, path_graph, petersen_graph, random_tree


class TestSpecs:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="mystery", n=5)

    def test_file_family_needs_path(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="file")

    @pytest.mark.parametrize("spec,message", [
        (dict(family="grid_torus", n=2**32), "outside 1..2147483647"),
        (dict(family="gnp_avg_degree", n=2**31, param=4.0), "outside 1..2147483647"),
        (dict(family="dense_blobs", n=10, param=0.5, blob_count=10**9), "outside 1..n = 10"),
        (dict(family="dense_blobs", n=10, param=0.5, blob_count=0), "blob_count = 0 outside"),
        (dict(family="random_regular", n=0, param=3), "n = 0 outside"),
        (dict(family="random_regular", n=10, param=2.5), r"regular degree 2\.5 is not a whole number >= 0"),
        (dict(family="random_regular", n=10, param=-2), "regular degree -2"),
        (dict(family="random_regular", n=10, param=float("nan")), "regular degree nan"),
        (dict(family="gnp_avg_degree", n=10, param=-3.0), r"average degree -3\.0 is not >= 0"),
        (dict(family="gnp_avg_degree", n=10, param=float("nan")), "average degree nan"),
    ])
    def test_out_of_range_spec_rejected(self, spec, message):
        # only the specs are built: a generator never sees these values
        with pytest.raises(ValueError, match=message):
            GeneratorSpec(**spec)
        with pytest.raises(ValueError, match=message):
            GeneratorSpec.from_json_dict(spec)

    def test_largest_specs_accepted(self):
        assert GeneratorSpec(family="grid_torus", n=2**31 - 1).n == 2**31 - 1
        assert GeneratorSpec(family="dense_blobs", n=10, param=0.5, blob_count=10).blob_count == 10
        assert GeneratorSpec(family="random_regular", n=10, param=3.0).param == 3.0
        assert GeneratorSpec(family="random_regular", n=10, param=0).param == 0
        assert GeneratorSpec(family="gnp_avg_degree", n=10, param=0.0).param == 0.0
        # blob_count belongs to dense_blobs alone
        assert GeneratorSpec(family="gnp_avg_degree", n=10, blob_count=0).blob_count == 0

    def test_json_round_trip(self):
        spec = GeneratorSpec(family="dense_blobs", n=100, param=0.5, blob_count=4, seed=9)
        assert GeneratorSpec.from_json_dict(spec.to_json_dict()) == spec


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            GeneratorSpec(family="gnp_avg_degree", n=300, param=12.0, seed=7),
            GeneratorSpec(family="random_regular", n=100, param=3, seed=7),
            GeneratorSpec(family="dense_blobs", n=120, param=0.7, blob_count=3, seed=7),
        ],
    )
    def test_same_spec_same_edges(self, spec):
        g1 = generate(spec, with_girth=False).graph
        g2 = generate(spec, with_girth=False).graph
        assert sorted(g1.edges()) == sorted(g2.edges())

    def test_different_seed_different_edges(self):
        a = generate(GeneratorSpec(family="gnp_avg_degree", n=300, param=12.0, seed=1), with_girth=False).graph
        b = generate(GeneratorSpec(family="gnp_avg_degree", n=300, param=12.0, seed=2), with_girth=False).graph
        assert sorted(a.edges()) != sorted(b.edges())


class TestFamilies:
    def test_gnp_realized_degree_near_target(self):
        built = generate(GeneratorSpec(family="gnp_avg_degree", n=4000, param=25.0, seed=3), with_girth=False)
        assert abs(built.realized_avg_degree - 25.0) < 1.5

    def test_regular_graph_is_regular(self):
        g = generate(GeneratorSpec(family="random_regular", n=100, param=3, seed=7), with_girth=False).graph
        assert set(int(d) for d in g.degrees()) == {3}

    def test_regular_infeasible_parity(self):
        with pytest.raises(ValueError, match="even"):
            generate(GeneratorSpec(family="random_regular", n=5, param=3, seed=0))

    def test_torus_4x4(self):
        built = generate(GeneratorSpec(family="grid_torus", n=16))
        g = built.graph
        assert g.edge_count == 32
        assert set(int(d) for d in g.degrees()) == {4}
        assert built.girth == 4

    def test_torus_requires_square(self):
        with pytest.raises(ValueError):
            generate(GeneratorSpec(family="grid_torus", n=10))

    def test_blobs_realized_density(self):
        built = generate(GeneratorSpec(family="dense_blobs", n=200, param=0.8, blob_count=5, seed=2), with_girth=False)
        # five G(40, 0.8) blobs: expected average degree 0.8 * 39 = 31.2
        assert abs(built.realized_avg_degree - 31.2) < 2.5
        # no edges between blobs
        for u, v in built.graph.edges():
            assert u // 40 == v // 40

    def test_file_family_round_trip(self, tmp_path):
        from minorkit.graph import to_edge_list_text

        g = petersen_graph()
        path = tmp_path / "pet.txt"
        path.write_text(to_edge_list_text(g))
        again = generate(GeneratorSpec(family="file", path=str(path)), with_girth=True)
        assert sorted(again.graph.edges()) == sorted(g.edges())
        assert again.girth == 5


class TestGirth:
    def test_cycles(self):
        for n in (3, 5, 64, 257):
            assert girth(cycle_graph(n)) == n

    def test_acyclic_is_none(self):
        assert girth(path_graph(6)) is None
        assert girth(Graph(4)) is None

    def test_known_graphs(self):
        assert girth(complete_graph(4)) == 3
        assert girth(petersen_graph()) == 5

    def test_triangle_plus_long_cycle(self):
        # shortest cycle is found even when a much longer one dominates
        edges = [(i, (i + 1) % 50) for i in range(50)] + [(0, 2)]
        assert girth(Graph(50, edges)) == 3

    def test_even_girth_detected(self):
        # complete bipartite K_2,3 has girth 4, caught by cross-layer edges
        g = Graph(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)])
        assert girth(g) == 4

    def test_matches_loop_reference(self):
        # random sparse graphs and trees with a few chords, against the
        # per-root loop BFS that girth used before it ran on the CSR kernel
        rng = random.Random(5)
        for _ in range(300):
            n = rng.randint(1, 40)
            edges = {(rng.randrange(i), i) for i in range(1, n)} if rng.random() < 0.6 else set()
            for _ in range(rng.randint(0, 2 * n if not edges else 3)):
                u, v = rng.randrange(n), rng.randrange(n)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = Graph(n, edges)
            assert girth(g) == girth_reference(g), sorted(edges)


    def test_matches_loop_reference_on_tori_cycles_and_trees(self):
        # tori have even girth 4 (3 at side 3) and many vertices with two
        # neighbors one layer down, odd cycles only an edge inside a layer,
        # trees neither
        graphs = [generate(GeneratorSpec(family="grid_torus", n=side * side), with_girth=False).graph
                  for side in range(3, 9)]
        graphs += [cycle_graph(n) for n in range(3, 42, 2)]
        graphs += [random_tree(n, seed) for n in (1, 2, 7, 30) for seed in range(3)]
        for g in graphs:
            assert girth(g) == girth_reference(g), g


def girth_reference(g):
    best = math.inf
    for root in range(g.n):
        dist = {root: 0}
        parent = {root: -1}
        frontier = [root]
        while frontier:
            nxt = []
            for u in frontier:
                for w in map(int, g.neighbors(u)):
                    if w not in dist:
                        dist[w] = dist[u] + 1
                        parent[w] = u
                        nxt.append(w)
                    elif w != parent[u] and parent[w] != u:
                        best = min(best, dist[u] + dist[w] + 1)
            frontier = nxt
    return None if best == math.inf else best


# -- the set-up code before it ran on arrays, kept as references ------------


def pair_from_linear_reference(n, linear):
    b = 2.0 * n - 1.0
    i = ((b - np.sqrt(b * b - 8.0 * linear)) / 2.0).astype(np.int64)
    i = np.clip(i, 0, n - 2)
    for _ in range(2):  # fix float off-by-ones
        start = i * (2 * n - i - 1) // 2
        i = np.where(linear < start, i - 1, i)
        start = i * (2 * n - i - 1) // 2
        over = linear >= start + (n - 1 - i)
        i = np.where(over, i + 1, i)
    start = i * (2 * n - i - 1) // 2
    return np.column_stack((i, linear - start + i + 1))


def gnp_reference(n, avg_degree, seed):
    p = min(max(avg_degree / (n - 1), 0.0), 1.0)
    total = n * (n - 1) // 2
    gen = np.random.Generator(np.random.PCG64(seed))
    logq = math.log1p(-p)
    picked = []
    pos = -1
    batch = max(1024, int(total * p * 1.2) + 16)
    while pos < total:
        u = gen.random(batch)
        skips = np.floor(np.log1p(-u) / logq).astype(np.int64) + 1
        steps = np.cumsum(skips) + pos
        picked.append(steps[steps < total])
        if len(steps) and steps[-1] >= total:
            break
        pos = int(steps[-1]) if len(steps) else total
        batch = 1024
    lin = np.concatenate(picked)
    return Graph(n, pair_from_linear_reference(n, lin[lin < total]))


def random_regular_reference(n, d, seed, attempts):
    rng = random.Random(seed)

    def suitable(edges, potential):
        if not potential:
            return True
        verts = sorted(potential)
        for s1 in verts:
            for s2 in verts:
                if s1 == s2:
                    break
                if (s2, s1) not in edges:
                    return True
        return False

    def try_once():
        edges = set()
        stubs = list(range(n)) * d
        while stubs:
            potential = {}
            rng.shuffle(stubs)
            it = iter(stubs)
            for s1, s2 in zip(it, it):
                if s1 > s2:
                    s1, s2 = s2, s1
                if s1 != s2 and (s1, s2) not in edges:
                    edges.add((s1, s2))
                else:
                    potential[s1] = potential.get(s1, 0) + 1
                    potential[s2] = potential.get(s2, 0) + 1
            if not suitable(edges, potential):
                return None
            stubs = [v for v, k in sorted(potential.items()) for _ in range(k)]
        return edges

    for _ in range(attempts):
        edges = try_once()
        if edges is not None:
            pairs = np.fromiter(chain.from_iterable(edges), dtype=np.int64, count=2 * len(edges))
            return Graph(n, pairs.reshape(-1, 2))
    raise ValueError(f"no simple {d}-regular pairing on {n} vertices in {attempts} attempts")


def csr_bytes(g):
    return g._indptr.dtype, g._indptr.tobytes(), g._indices.dtype, g._indices.tobytes()


class TestArraySetUp:
    def test_pair_from_linear_matches_enumeration(self):
        rng = np.random.default_rng(0)
        for n in range(41):
            pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
            everything = _pair_from_linear(n, np.arange(len(pairs), dtype=np.int64))
            assert everything.shape == (len(pairs), 2) and everything.tolist() == [list(p) for p in pairs]
            for _ in range(5):  # strictly increasing subsets, as the callers draw them
                lin = np.flatnonzero(rng.random(len(pairs)) < rng.random())
                assert _pair_from_linear(n, lin).tolist() == [list(pairs[k]) for k in lin], n
                if n >= 2:
                    assert np.array_equal(_pair_from_linear(n, lin), pair_from_linear_reference(n, lin))

    def test_shuffle_replays_random_shuffle(self):
        for length in list(range(301)) + [163840]:
            mine, theirs = random.Random(length), random.Random(length)
            x, y = list(range(length)), list(range(length))
            _shuffle(x, mine.getrandbits)
            theirs.shuffle(y)
            assert x == y, length
            assert mine.random() == theirs.random(), length  # the same draws were used up

    @pytest.mark.parametrize("n,avg,seed", [
        (2, 0.5, 0), (2, 1.0, 0), (3, 1.0, 4), (40, 3.0, 1), (300, 12.0, 7), (1000, 0.01, 2),
        (4096, 60.0, 3), (16384, 40.0, 5), (50, 49.0, 0), (17, 100.0, 1),
    ])
    def test_gnp_matches_reference(self, n, avg, seed):
        g = generate(GeneratorSpec(family="gnp_avg_degree", n=n, param=avg, seed=seed), with_girth=False).graph
        if avg >= n - 1:  # the complete graph, built without draws
            assert g.edge_count == n * (n - 1) // 2
        else:
            assert csr_bytes(g) == csr_bytes(gnp_reference(n, avg, seed))

    def test_blobs_match_reference(self):
        for n, density, blobs, seed in [(120, 0.7, 3, 7), (600, 0.6, 3, 7), (1000, 0.05, 9, 1), (7, 1.0, 2, 0)]:
            g = generate(GeneratorSpec(family="dense_blobs", n=n, param=density, blob_count=blobs, seed=seed),
                         with_girth=False).graph
            sizes = [n // blobs + (i < n % blobs) for i in range(blobs)]
            pairs, offset = [np.empty((0, 2), dtype=np.int64)], 0
            for size, child in zip(sizes, np.random.SeedSequence(seed).spawn(blobs)):
                gen = np.random.Generator(np.random.PCG64(child))
                if size >= 2:
                    lin = np.flatnonzero(gen.random(size * (size - 1) // 2) < density)
                    pairs.append(pair_from_linear_reference(size, lin) + offset)
                offset += size
            assert csr_bytes(g) == csr_bytes(Graph(n, np.concatenate(pairs)))

    @pytest.mark.parametrize("n,d,seed", [
        (4, 1, 0), (4, 3, 0), (5, 2, 1), (6, 3, 2), (7, 4, 0), (8, 7, 3), (10, 3, 9), (12, 5, 4),
        (18, 14, 0), (18, 16, 0), (20, 18, 1), (30, 29, 2), (60, 57, 0), (60, 57, 3), (64, 3, 5),
        (100, 3, 7), (200, 6, 1), (300, 40, 2), (200, 199, 0), (2048, 80, 1), (2048, 80, 2),
        (2**14, 3, 11), (6, 2, 0), (13, 2, 1),
    ])
    def test_random_regular_matches_reference(self, monkeypatch, n, d, seed):
        # a small attempt cap keeps the hopeless specs fast; both sides use it.
        # (6, 2, 0) and (13, 2, 1) get stuck with exactly d leftover vertices
        attempts = 3 if n * d > 10**5 else 20
        monkeypatch.setattr(importlib.import_module("minorkit.generate"), "MAX_PAIRING_ATTEMPTS", attempts)
        try:
            expected = csr_bytes(random_regular_reference(n, d, seed, attempts))
        except ValueError as exc:
            expected = str(exc)
        try:
            got = csr_bytes(generate(GeneratorSpec(family="random_regular", n=n, param=d, seed=seed),
                                     with_girth=False).graph)
        except ValueError as exc:
            got = str(exc)
        assert got == expected
