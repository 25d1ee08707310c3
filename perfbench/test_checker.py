"""Self-tests of the benchmark's independent checker: it accepts sound
witnesses and rejects each kind of corrupted one.

    python3 perfbench/test_checker.py        (or: python3 -m pytest perfbench/test_checker.py)
"""

from __future__ import annotations

import sys

import numpy as np

import checker


def edge_set(n, edges):
    u, v = zip(*edges)
    return checker.EdgeSet(n, u, v)


# K4 minor with branch sets {0,1}, {2}, {3}, {4}; vertex 5 hangs off vertex 4
MINOR_GRAPH = edge_set(6, [(0, 1), (0, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4), (4, 5)])
MINOR = [(0, 1), (2,), (3,), (4,)]

# K3 subdivision with corners 0, 1, 2 and one interior vertex per path;
# 3-2 makes a second route through 3, and 1-6 hangs off without reaching 2
SUB_GRAPH = edge_set(7, [(0, 3), (3, 1), (0, 4), (4, 2), (1, 5), (5, 2), (3, 2), (1, 6)])
SUB_CORNERS = (0, 1, 2)
SUB_PATHS = {(0, 1): [0, 3, 1], (0, 2): [0, 4, 2], (1, 2): [1, 5, 2]}

# K4 on 0..3 with the path 3-4-5 attached: n=6, m=8, d(G)=8/3
DENSE_GRAPH = edge_set(6, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3), (3, 4), (4, 5)])


def test_sound_minor_accepted():
    assert checker.check_minor(MINOR_GRAPH, 4, MINOR) == []


def test_split_branch_set_rejected():
    split = [(0, 5), (2,), (3,), (1,)]  # 5 touches only 4, so {0, 5} is two pieces
    assert any("not connected" in p for p in checker.check_minor(MINOR_GRAPH, 4, split))


def test_missing_cross_edge_rejected():
    no_edge = [(0,), (2,), (3,), (4,)]  # 0 is adjacent to neither 3 nor 4
    problems = checker.check_minor(MINOR_GRAPH, 4, no_edge)
    assert "no edge between branch sets 0 and 2" in problems
    assert "no edge between branch sets 0 and 3" in problems


def test_overlapping_branch_sets_rejected():
    overlap = [(0, 1), (0, 2), (3,), (4,)]
    assert any("overlap" in p for p in checker.check_minor(MINOR_GRAPH, 4, overlap))


def test_sound_subdivision_accepted():
    assert checker.check_subdivision(SUB_GRAPH, 3, SUB_CORNERS, SUB_PATHS) == []


def test_paths_sharing_interior_vertex_rejected():
    shared = dict(SUB_PATHS)
    shared[(1, 2)] = [1, 3, 2]
    problems = checker.check_subdivision(SUB_GRAPH, 3, SUB_CORNERS, shared)
    assert any("share vertex 3" in p for p in problems)


def test_path_step_not_an_edge_rejected():
    broken = dict(SUB_PATHS)
    broken[(1, 2)] = [1, 6, 2]
    problems = checker.check_subdivision(SUB_GRAPH, 3, SUB_CORNERS, broken)
    assert "path 1-2 step 6-2 is not an edge" in problems


def test_path_through_corner_and_missing_pair_rejected():
    through = {(0, 1): [0, 3, 1], (0, 2): [0, 3, 1, 5, 2]}
    problems = checker.check_subdivision(SUB_GRAPH, 3, SUB_CORNERS, through)
    assert "no path for corners 1-2" in problems
    assert any("passes through corner 1" in p for p in problems)


def test_dense_extraction_accepted():
    assert checker.check_extraction(DENSE_GRAPH, [0, 1, 2, 3], 0.1, small_set=False) == []


def test_subgraph_below_density_bound_rejected():
    problems = checker.check_extraction(DENSE_GRAPH, [3, 4, 5], 0.1, small_set=False)
    assert any("density" in p for p in problems)


def test_small_set_mode_uses_the_looser_bound():
    # d(H) = 4/3 for the path 3-4-5: below (1 - 0.3) * 8/3, above (1 - 0.6) * 8/3
    assert any("density" in p for p in checker.check_extraction(DENSE_GRAPH, [3, 4, 5], 0.3, False))
    assert checker.check_extraction(DENSE_GRAPH, [3, 4, 5], 0.3, small_set=True) == []


def test_min_degree_below_half_average_rejected():
    problems = checker.check_extraction(DENSE_GRAPH, [0, 1, 2, 3, 4], 0.1, small_set=False)
    assert any("min degree 1" in p for p in problems)


def test_csr_faults_detected():
    indptr = np.array([0, 1, 2, 2])
    assert "adjacency not symmetric" in checker.edges_from_csr(3, indptr, np.array([1, 2]))[2]
    assert "self-loop" in checker.edges_from_csr(3, np.array([0, 1, 1, 1]), np.array([0]))[2]
    twice = checker.edges_from_csr(2, np.array([0, 2, 4]), np.array([1, 1, 0, 0]))[2]
    assert any("repeated edge" in p for p in twice)


def test_parsed_graph_mismatch_rejected():
    u, v = np.array([0, 1]), np.array([1, 2])
    digest = checker.edge_hash(3, u, v)
    assert checker.check_same_graph(3, 2, digest, 3, u, v) == []
    assert checker.check_same_graph(3, 2, digest, 3, np.array([0, 0]), np.array([1, 2])) != []
    assert checker.check_same_graph(3, 2, digest, 4, u, v) != []


def test_gnp_edge_count_far_from_mean_rejected():
    assert checker.check_gnp_edge_count(1000, 40, 20_000) == []
    assert checker.check_gnp_edge_count(1000, 40, 19_000) != []


def test_witness_vertex_count():
    assert checker.witness_vertex_count("minor", MINOR) == 5
    assert checker.witness_vertex_count("subdivision", (SUB_CORNERS, tuple(SUB_PATHS.items()))) == 6


if __name__ == "__main__":
    tests = [(name, fn) for name, fn in sorted(globals().items()) if name.startswith("test_")]
    failed = 0
    for name, fn in tests:
        try:
            fn()
            print(f"PASS {name}")
        except AssertionError as exc:
            failed += 1
            print(f"FAIL {name}: {exc!r}")
    print(f"{len(tests) - failed} passed, {failed} failed")
    sys.exit(1 if failed else 0)
