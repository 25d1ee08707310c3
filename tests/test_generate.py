"""Graph generators: reproducibility, realized statistics, girth measurement."""

import math
import random

import pytest

from minorkit import GeneratorSpec, Graph, generate, girth

from conftest import complete_graph, cycle_graph, path_graph, petersen_graph


class TestSpecs:
    def test_unknown_family_rejected(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="mystery", n=5)

    def test_file_family_needs_path(self):
        with pytest.raises(ValueError):
            GeneratorSpec(family="file")

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
