"""Core graph representation and primitive operations."""

import random
import tracemalloc
from collections import deque
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    GeneratorSpec,
    Graph,
    Path,
    average_degree,
    generate,
    induced_subgraph,
    neighborhood,
    parse_graph_text,
)
from minorkit import graph as graph_module
from minorkit.graph import (
    _bfs,
    _mask,
    bfs_layer_sizes,
    bfs_levels,
    bfs_parents,
    bfs_within,
    eccentricity_within,
    exit_map,
    first_exit,
    first_exit_on_map,
    is_connected_set,
    neighbor_counts,
    to_edge_list_text,
    walk_down,
    within_levels,
)

from conftest import complete_graph, cycle_graph, path_graph, petersen_graph, random_tree, star_graph


# independent reference BFS used as the oracle for distance checks
def bfs_oracle(adjacency, sources, banned=frozenset()):
    dist = {}
    dq = deque()
    for s in sources:
        if s not in banned:
            dist[s] = 0
            dq.append(s)
    while dq:
        u = dq.popleft()
        for w in adjacency[u]:
            if w not in dist and w not in banned:
                dist[w] = dist[u] + 1
                dq.append(w)
    return dist


def graphs_strategy(max_n=9):
    @st.composite
    def build(draw):
        n = draw(st.integers(min_value=1, max_value=max_n))
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        return Graph(n, [p for p, keep in zip(pairs, mask) if keep])

    return build()


class TestGraphConstruction:
    def test_rejects_self_loop(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            Graph(3, [(0, 3)])

    def test_deduplicates_parallel_edges(self):
        g = Graph(3, [(0, 1), (1, 0), (0, 1)])
        assert g.edge_count == 1
        assert list(g.neighbors(0)) == [1]

    def test_adjacency_symmetric_and_sorted(self):
        g = Graph(5, [(3, 1), (1, 0), (4, 1)])
        assert list(g.neighbors(1)) == [0, 3, 4]
        assert all(1 in set(map(int, g.neighbors(v))) for v in (0, 3, 4))

    def test_edge_count_is_half_degree_sum(self):
        g = petersen_graph()
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.edge_count


# the per-edge loop that the array constructor replaced, kept as its reference
def csr_reference(n, edges):
    eu, ev = [], []
    for u, v in edges:
        u, v = int(u), int(v)
        if u == v:
            raise ValueError(f"self-loop at vertex {u}")
        if not (0 <= u < n and 0 <= v < n):
            raise ValueError(f"edge ({u},{v}) out of range 0..{n - 1}")
        eu.append(u)
        ev.append(v)
    if not eu:
        return np.zeros(n + 1, dtype=np.int64), np.empty(0, dtype=np.int32)
    u = np.asarray(eu + ev, dtype=np.int64)
    v = np.asarray(ev + eu, dtype=np.int64)
    key = np.unique(u * n + v)
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
    return indptr, (key % n).astype(np.int32)


def assert_csr_equal(g, indptr, indices):
    assert g._indptr.dtype == np.int64 and g._indices.dtype == np.int32
    assert np.array_equal(g._indptr, indptr)
    assert np.array_equal(g._indices, indices)
    assert g.edge_count == len(indices) // 2


class TestArrayConstruction:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 30), st.data())
    def test_matches_loop_reference(self, n, data):
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=80))
        indptr, indices = csr_reference(n, pairs)
        flipped = [(v, u) for u, v in pairs]
        for edges in (pairs, set(pairs), pairs + flipped, flipped, iter(pairs),
                      np.array(pairs, dtype=np.int64).reshape(-1, 2),
                      np.array(flipped, dtype=np.int32).reshape(-1, 2)):
            assert_csr_equal(Graph(n, edges), indptr, indices)

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 12), st.data())
    def test_bad_pairs_raise_like_the_loop(self, n, data):
        vertex = st.integers(-2, n + 2)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex), min_size=1, max_size=12))
        try:
            indptr, indices = csr_reference(n, pairs)
        except ValueError as exc:
            for edges in (pairs, np.array(pairs)):
                with pytest.raises(ValueError) as raised:
                    Graph(n, edges)
                assert str(raised.value) == str(exc)  # the same first bad pair
        else:
            assert_csr_equal(Graph(n, np.array(pairs)), indptr, indices)

    @pytest.mark.parametrize("edges", [[(0, 1, 2)], [(0,)], [()], [(0, 1), (1, 2, 0)],
                                       np.zeros((2, 3), dtype=np.int64), np.array([0, 1])])
    def test_rejects_input_that_is_not_pairs(self, edges):
        with pytest.raises(ValueError):
            Graph(3, edges)

    @pytest.mark.parametrize("n", [2**31, 10**12])
    def test_rejects_vertex_count_beyond_int32_ids(self, n):
        with pytest.raises(ValueError, match="outside 0..2147483647"):
            Graph(n, [(0, 1)])


# the int64 key build that the one-sort build replaced, kept as its reference
def build_csr_reference(n, pairs):
    u, v = pairs[:, 0], pairs[:, 1]
    key = np.sort(np.concatenate((u * n + v, v * n + u)))
    key = key[np.diff(key, prepend=key[:1] - 1) != 0]
    indptr = np.zeros(n + 1, dtype=np.int64)
    if n:
        np.cumsum(np.bincount(key // n, minlength=n), out=indptr[1:])
        key = key % n
    return indptr, key.astype(np.int32)


class TestOneSortBuild:
    @pytest.mark.parametrize("n", [0, 1, 2, 3, 2**16 - 1, 2**16, 2**16 + 1])
    @pytest.mark.parametrize("m", [0, 1, 7, 5000])
    def test_matches_int64_reference(self, n, m):
        # 32-bit keys up to n = 2^16, 64-bit above; repeats in both
        # orientations; most vertices of the large n have no edge
        rng = np.random.default_rng(n * 31 + m)
        pairs = rng.integers(0, max(n, 1), size=(m, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.concatenate((pairs, pairs[::3, ::-1], pairs[::4], [[n - 1, 0]] if n > 1 else np.empty((0, 2), int)))
        rng.shuffle(pairs)
        indptr, indices = build_csr_reference(n, pairs)
        assert_csr_equal(Graph(n, pairs), indptr, indices)
        if n >= 2**16:
            assert (np.diff(indptr) == 0).any()  # isolated vertices

    def test_key_width_edges(self):
        # the largest key without a loop on 2^16 vertices: (2^16 - 1) * 2^16 + 2^16 - 2 = 2^32 - 2
        n = 2**16
        g = Graph(n, [(n - 1, n - 2), (0, n - 1), (n - 1, 0)])
        assert g.neighbors(n - 1).tolist() == [0, n - 2]
        assert g.neighbors(0).tolist() == [n - 1]
        assert g.edge_count == 2


class TestAverageDegree:
    def test_cycle_is_two_regular(self):
        assert average_degree(cycle_graph(5)) == 2

    def test_complete_graph(self):
        assert average_degree(complete_graph(4)) == 3

    def test_star_exact_rational(self):
        # K_{1,3}: 2*3/4 by hand count
        assert average_degree(star_graph(3)) == Fraction(3, 2)

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError, match="empty graph"):
            average_degree(Graph(0))


class TestNeighborhood:
    def test_path_middle(self):
        g = path_graph(3)
        assert neighborhood(g, {1}) == {0, 2}

    def test_triangle_with_avoid(self):
        g = complete_graph(3)
        assert neighborhood(g, {0, 1}, avoid={2}) == frozenset()

    def test_petersen_single_vertex(self):
        g = petersen_graph()
        assert neighborhood(g, {0}) == set(map(int, g.neighbors(0)))

    def test_overlap_errors(self):
        with pytest.raises(ValueError):
            neighborhood(path_graph(3), {0}, avoid={0})

    @settings(max_examples=60, deadline=None)
    @given(graphs_strategy(), st.data())
    def test_disjoint_from_inputs(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1), max_size=g.n))
        rest = sorted(set(range(g.n)) - s)
        mask = data.draw(st.lists(st.booleans(), min_size=len(rest), max_size=len(rest)))
        avoid = {v for v, keep in zip(rest, mask) if keep}
        out = neighborhood(g, s, avoid)
        assert out.isdisjoint(s | avoid)


class TestSetRadiusCenter:
    def test_singleton(self):
        assert eccentricity_within(path_graph(5), {3}, 3) == 0

    def test_path_center(self):
        g = path_graph(3)
        assert [eccentricity_within(g, {0, 1, 2}, v) for v in range(3)] == [2, 1, 2]

    def test_random_tree_matches_all_pairs_oracle(self):
        g = random_tree(9, seed=5)
        members = set(range(9))
        adj = [list(map(int, g.neighbors(v))) for v in range(g.n)]
        for v in sorted(members):
            dist = bfs_oracle(adj, [v])
            assert eccentricity_within(g, members, v) == max(dist[u] for u in members)


class TestInducedSubgraph:
    def test_full_set_isomorphic_copy(self):
        g = petersen_graph()
        sub = induced_subgraph(g, range(10))
        assert sub.graph.edge_count == g.edge_count
        assert list(sub.new_to_old) == list(range(10))

    def test_k5_minus_vertex_is_k4(self):
        sub = induced_subgraph(complete_graph(5), {0, 2, 3, 4})
        assert sub.graph.n == 4
        assert sub.graph.edge_count == 6

    def test_empty_errors(self):
        with pytest.raises(ValueError):
            induced_subgraph(complete_graph(3), set())

    @settings(max_examples=40, deadline=None)
    @given(graphs_strategy(), st.data())
    def test_edges_match_membership_filter(self, g, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1, max_size=g.n))
        sub = induced_subgraph(g, s)
        # oracle: filter the original edge list by membership
        expect = {(u, v) for u, v in g.edges() if u in s and v in s}
        got = {
            (sub.new_to_old[u], sub.new_to_old[v]) for u, v in sub.graph.edges()
        }
        assert got == expect
        assert_relabel_map(sub, {v: i for i, v in enumerate(sorted(s))})

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.floats(0.5, 8.0), st.integers(0, 10**6), st.data())
    def test_matches_loop_reference(self, n, avg_degree, seed, data):
        g = random_graph(n, avg_degree, seed)
        s = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        (indptr, indices), new_to_old, old_to_new = induced_reference(g, s)
        for members in (s, sorted(s), np.array(sorted(s), dtype=np.int64)):
            sub = induced_subgraph(g, members)
            assert_csr_equal(sub.graph, indptr, indices)
            assert list(sub.new_to_old) == list(new_to_old)
            assert_relabel_map(sub, old_to_new)

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 30), st.floats(0.5, 6.0), st.integers(0, 10**6), st.data())
    def test_matches_loop_reference_with_lonely_ends(self, n, avg_degree, seed, data):
        # vertices 0 and n + 1 are kept, but their only neighbors (if any) are
        # not, so the first and last kept rows of the slice are empty
        core = random_graph(n, avg_degree, seed)
        inner = st.integers(1, n)
        hooks = [data.draw(st.none() | inner) for _ in range(2)]
        edges = [(u + 1, v + 1) for u, v in core.edges()]
        edges += [(end, hook) for end, hook in zip((0, n + 1), hooks) if hook is not None]
        g = Graph(n + 2, edges)
        s = data.draw(st.sets(inner)) - set(hooks) | {0, n + 1}
        (indptr, indices), new_to_old, old_to_new = induced_reference(g, s)
        sub = induced_subgraph(g, s)
        assert_csr_equal(sub.graph, indptr, indices)
        assert sub.graph.degree(0) == sub.graph.degree(len(s) - 1) == 0
        assert list(sub.new_to_old) == list(new_to_old)
        assert_relabel_map(sub, old_to_new)


def assert_relabel_map(sub, old_to_new):
    # a compact int32 map, strictly increasing, that undoes the relabelling
    ids = list(sub.new_to_old)
    assert sub.new_to_old.typecode == "i" and sub.new_to_old.itemsize == 4
    assert all(a < b for a, b in zip(ids, ids[1:]))
    assert len(ids) == len(old_to_new)
    assert all(sub.new_to_old[new] == old for old, new in old_to_new.items())


# the per-vertex loop that mask-and-relabel replaced, kept as its reference
def induced_reference(g, s):
    new_to_old = sorted({int(v) for v in s})
    old_to_new = {v: i for i, v in enumerate(new_to_old)}
    eu, ev = [], []
    for v in new_to_old:
        for w in map(int, g.neighbors(v)):
            if w > v and w in old_to_new:
                eu.append(old_to_new[v])
                ev.append(old_to_new[w])
    return csr_reference(len(new_to_old), zip(eu, ev)), tuple(new_to_old), old_to_new


class TestPathType:
    def test_rejects_repeats(self):
        with pytest.raises(ValueError):
            Path((0, 1, 0))

    def test_length_and_validity(self):
        g = path_graph(4)
        p = Path((0, 1, 2))
        assert p.length == 2
        assert p.valid_in(g)
        assert not Path((0, 2)).valid_in(g)


class TestParsing:
    def test_edge_list_with_comments(self):
        g = parse_graph_text("# comment\n0 1\n1 2\n")
        assert (g.n, g.edge_count) == (3, 2)

    def test_dimacs_one_based(self):
        g = parse_graph_text("c header\np edge 4 2\ne 1 2\ne 3 4\n")
        assert (g.n, g.edge_count) == (4, 2)
        assert g.has_edge(0, 1) and g.has_edge(2, 3)

    def test_roundtrip(self):
        g = petersen_graph()
        again = parse_graph_text(to_edge_list_text(g))
        assert sorted(again.edges()) == sorted(g.edges())

    def test_bad_line_errors(self):
        with pytest.raises(ValueError):
            parse_graph_text("0\n")

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_edge_list_matches_loop_reference(self, data):
        n = data.draw(st.integers(2, 30))
        vertex = st.integers(0, n - 1)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=40))
        lines = [render_ids(data, (u, v)) for u, v in pairs]
        text = join_lines(data, interleave(data, lines, FILLER_LINES))
        assert_parses_like_reference(text)

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_dimacs_matches_loop_reference(self, data):
        n = data.draw(st.integers(2, 30))
        vertex = st.integers(1, n)
        pairs = data.draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]),
                                   max_size=40))
        lines = [render_ids(data, (u, v), first="e") for u, v in pairs]
        other = FILLER_LINES + ["n 1 5", "x", "e1 2 3", "p edge 9 9", "v 1 2 3"]
        body = interleave(data, lines, other)
        head = data.draw(st.lists(st.sampled_from(FILLER_LINES), max_size=3))
        text = join_lines(data, head + [f"  p edge {n} {len(pairs)}"] + body)
        assert_parses_like_reference(text)

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_bad_lines_raise_like_the_loop(self, data):
        dimacs = data.draw(st.booleans())
        good = st.tuples(st.integers(1, 6), st.integers(1, 6)).filter(lambda e: e[0] != e[1])
        bad = st.sampled_from(["5", "x 1", "1 y", "1.0 2", "0x1 2", "-1 2", "2 -3", "3 3", "+2 1",
                               "1 2#x", "# 1 2", "1e3 2", "07 1", "c\t1 2", "cx 1 2"])
        lines = data.draw(st.lists(st.one_of(good.map(lambda e: f"{e[0]} {e[1]}"), bad),
                                   min_size=1, max_size=12))
        if dimacs:
            lines = ["p edge 8 0"] + ["e " + ln for ln in lines]
        text = join_lines(data, lines)
        try:
            reference = parse_graph_text_reference(text)
        except IndexError:
            assert dimacs  # a truncated DIMACS edge line, now named
            with pytest.raises(ValueError, match="bad edge line: 'e "):
                parse_graph_text(text)
        except ValueError as exc:
            with pytest.raises(ValueError) as raised:
                parse_graph_text(text)
            expected = str(exc)  # the same first bad line
            # the loop named an id outside 1..n as the 0-based Graph edge it
            # had made of it; the reader names it as the file has it
            graph_error = expected.startswith(("edge (", "self-loop at"))
            outside = first_dimacs_id_outside(text, 8) if dimacs and graph_error else None
            if outside:
                expected = f"DIMACS vertex id {outside[0]} outside 1..8 in line {outside[1]!r}"
            assert str(raised.value) == expected
        else:
            g = parse_graph_text(text)
            assert g.n == reference.n
            assert_csr_equal(g, reference._indptr, reference._indices)

    @pytest.mark.parametrize("text,named", [
        ("p edge 3 1\ne -9223372036854775808 1\n", "-9223372036854775808 outside 1..3 in line 'e -9223372036854775808 1'"),
        ("p edge 3 1\ne 0 1\n", "0 outside 1..3 in line 'e 0 1'"),
        ("p edge 3 1\ne 1 5\n", "5 outside 1..3 in line 'e 1 5'"),
        ("p edge 3 2\ne 1 2\n  e 3  +04\n", "+04 outside 1..3 in line 'e 3  +04'"),
    ])
    def test_dimacs_id_outside_range_is_named_as_written(self, text, named):
        with pytest.raises(ValueError) as err:
            parse_graph_text(text)
        assert str(err.value) == f"DIMACS vertex id {named}"

    @pytest.mark.parametrize("text", ["p edge 3 1\ne 1\n", "p edge 3 1\ne\n"])
    def test_truncated_dimacs_edge_line_is_named(self, text):
        with pytest.raises(ValueError, match=r"bad edge line: 'e( 1)?'"):
            parse_graph_text(text)

    # Python's int takes these tokens and the loop accepted them (the huge
    # ids then failed as a vertex count); numpy's int64 reader does not, so
    # the array reader names them
    @pytest.mark.parametrize("token", ["1_000", "٣", "100000000000000000000", "9223372036854775808"])
    def test_ids_int_takes_but_int64_reader_rejects(self, token):
        text = f"0 1\n2 {token} extra\n"
        try:
            assert parse_graph_text_reference(text).n == int(token) + 1
        except ValueError as exc:
            assert "outside 0..2147483647" in str(exc)
        with pytest.raises(ValueError) as raised:
            parse_graph_text(text)
        assert str(raised.value) == f"vertex id '{token}' is not a decimal int64 in line '2 {token} extra'"

    def test_huge_negative_id_is_negative(self):
        text = "0 1\n2 -100000000000000000000\n"
        for parse in (parse_graph_text_reference, parse_graph_text):
            with pytest.raises(ValueError, match="^edge-list vertices must be non-negative$"):
                parse(text)


# the per-line loop that the array reader replaced, kept as its reference
# (a truncated DIMACS edge line raised IndexError here)
def first_dimacs_id_outside(text, n):
    """``(token, line)`` of the first DIMACS edge id outside ``1..n``, or None."""
    for ln in map(str.strip, text.splitlines()):
        parts = ln.split()
        if parts[:1] == ["e"]:
            for tok in parts[1:3]:
                if not 1 <= int(tok) <= n:
                    return tok, ln
    return None


def parse_graph_text_reference(text):
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith(("#", "c ")) and ln != "c"]
    if not lines:
        return Graph(0)
    if lines[0].startswith("p "):
        header = lines[0].split()
        if len(header) < 4 or header[0] != "p":
            raise ValueError(f"bad DIMACS header: {lines[0]!r}")
        edges = []
        for ln in lines[1:]:
            parts = ln.split()
            if parts[0] != "e":
                continue
            edges.append((int(parts[1]) - 1, int(parts[2]) - 1))
        return Graph(int(header[2]), edges)
    edges = []
    top = -1
    for ln in lines:
        parts = ln.split()
        if len(parts) < 2:
            raise ValueError(f"bad edge line: {ln!r}")
        u, v = int(parts[0]), int(parts[1])
        if u < 0 or v < 0:
            raise ValueError("edge-list vertices must be non-negative")
        edges.append((u, v))
        top = max(top, u, v)
    return Graph(top + 1, edges)


SPACES = [" ", "\t", "  ", "　", "\x1f", "\xa0"]
FILLER_LINES = ["", "   ", "\t", "#", "# n = 5, m = 2", "  #0 1", "c", "c 0 1", " c  x", "c\t"]


def render_ids(data, ids, first=None):
    """One line holding ``ids``: random spacing, signs, leading zeros, an
    optional leading ``first`` token and optional extra columns."""
    space = st.sampled_from(SPACES)
    tokens = [first] if first else []
    tokens += [data.draw(st.sampled_from(["", "+", "0", "00"])) + str(v) for v in ids]
    tokens += data.draw(st.lists(st.sampled_from(["7", "x", "#", "# note", "-1", "1.5"]), max_size=2))
    line = "".join(tok + data.draw(space) for tok in tokens[:-1]) + tokens[-1]
    edge = st.sampled_from([""] + SPACES)
    return data.draw(edge) + line + data.draw(edge)


def interleave(data, lines, filler):
    out = []
    for ln in lines:
        out += data.draw(st.lists(st.sampled_from(filler), max_size=2))
        out.append(ln)
    return out


def join_lines(data, lines):
    return "".join(ln + data.draw(st.sampled_from(["\n", "\r\n", "\r", "\x0b"])) for ln in lines)


def assert_parses_like_reference(text):
    reference = parse_graph_text_reference(text)
    g = parse_graph_text(text)
    assert g.n == reference.n
    assert_csr_equal(g, reference._indptr, reference._indices)


def test_mask_takes_python_and_numpy_ints():
    want = [False, True, False, True, True]
    for vertices in ([1, 3, 4], {np.int32(1), np.int64(3), 4}, (v for v in np.array([4, 1, 3])),
                     np.array([3, 4, 1], dtype=np.int32), frozenset({4, 3, 1})):
        assert _mask(5, vertices).tolist() == want
    assert not _mask(3, ()).any()


def test_bfs_levels_stop_size_completes_layer():
    g = star_graph(8)
    levels = bfs_levels(g, [0], stop_size=3)
    # the whole first layer is taken even though 3 vertices were enough
    assert (levels >= 0).sum() == 9


# the loop BFS that the CSR kernel replaced, kept as its reference: layers in
# ascending id order, and the first (smallest-id) parent found wins; a target
# set stops the walk once any of its vertices is reached
def bfs_parents_reference(g, seeds, avoid=(), radius=None, target=None, allowed=None, stop_size=None):
    levels = {v: 0 for v in sorted(set(seeds))}
    parents = {v: -1 for v in levels}
    frontier = sorted(levels)
    stop_at = {target} if isinstance(target, int) else set(target or ())
    r = 0
    while frontier:
        if radius is not None and r >= radius:
            break
        if stop_at & set(levels):
            break
        if stop_size is not None and len(levels) >= stop_size:
            break
        nxt = []
        for u in frontier:
            for w in map(int, g.neighbors(u)):
                if w in levels or w in avoid or (allowed is not None and w not in allowed):
                    continue
                levels[w] = r + 1
                parents[w] = u
                nxt.append(w)
        frontier = sorted(nxt)
        r += 1
    return levels, parents


def parent_chain(parents, end):
    """The path ``[seed, ..., end]`` that a reference's parent map (a dict or
    an array, -1 at the seeds) gives."""
    chain = [int(end)]
    while parents[chain[-1]] != -1:
        chain.append(int(parents[chain[-1]]))
    return chain[::-1]


# first_exit as it was before its three min-reductions: one lexsort of the
# (level, u, w) triples over the targets' rows
def first_exit_lexsort_reference(g, levels, targets, max_level=None):
    targets = np.array(sorted(targets), dtype=np.int64)
    if not len(targets):
        return None
    rows = [g.neighbors(w) for w in targets]
    flat = np.concatenate(rows)
    lv = levels[flat]
    ok = lv >= 0
    if max_level is not None:
        ok &= lv <= max_level
    if not ok.any():
        return None
    lv, u, w = lv[ok], flat[ok], np.repeat(targets, [len(r) for r in rows])[ok]
    best = np.lexsort((w, u, lv))[0]
    return int(lv[best]), int(u[best]), int(w[best])


def random_graph(n, avg_degree, seed):
    rng = random.Random(seed)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    p = min(1.0, avg_degree / max(n - 1, 1))
    return Graph(n, [e for e in pairs if rng.random() < p])


class TestBfsKernel:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.floats(0.5, 8.0), st.integers(0, 10**6), st.data())
    def test_matches_loop_reference(self, n, avg_degree, seed, data):
        g = random_graph(n, avg_degree, seed)
        vertex = st.integers(0, n - 1)
        seeds = data.draw(st.sets(vertex, min_size=1, max_size=3))
        avoid = data.draw(st.sets(vertex, max_size=n // 3)) - seeds
        radius = data.draw(st.none() | st.integers(0, 6))
        target = data.draw(st.none() | vertex | st.lists(vertex, max_size=4))
        stop_size = data.draw(st.none() | st.integers(1, n))
        levels = bfs_parents(
            g, seeds, avoid=avoid, radius=radius, stop_size=stop_size,
            target=np.array(target, dtype=np.int32) if isinstance(target, list) else target)
        ref_levels, ref_parents = bfs_parents_reference(
            g, seeds, avoid=avoid, radius=radius, target=target, stop_size=stop_size)
        assert {v: int(levels[v]) for v in np.flatnonzero(levels >= 0)} == ref_levels
        # the path read down the levels is the reference's parent chain
        for v in ref_levels:
            assert (walk_down(g, v, levels[v], lambda r, ids: levels[ids] == r)
                    == parent_chain(ref_parents, v))
        plain = bfs_levels(g, seeds, avoid=avoid, radius=radius, stop_size=stop_size)
        ref_plain, _ = bfs_parents_reference(g, seeds, avoid=avoid, radius=radius, stop_size=stop_size)
        assert {v: int(plain[v]) for v in np.flatnonzero(plain >= 0)} == ref_plain

    @settings(max_examples=100, deadline=None)
    @given(st.integers(1, 40), st.floats(0.5, 8.0), st.integers(0, 10**6), st.data())
    def test_mask_avoid_matches_id_avoid(self, n, avg_degree, seed, data):
        # the sparse route passes one mask that also blocks each corner's own
        # seed; a seed is visited anyway, so the search is the one without it
        g = random_graph(n, avg_degree, seed)
        vertex = st.integers(0, n - 1)
        v = data.draw(vertex)
        avoid = data.draw(st.sets(vertex, max_size=n // 2)) | {v}
        radius = data.draw(st.none() | st.integers(0, 6))
        target = data.draw(st.none() | vertex)
        stop_size = data.draw(st.none() | st.integers(1, n))
        mask = _mask(n, avoid)
        kwargs = dict(radius=radius, target=target, stop_size=stop_size)
        levels = bfs_parents(g, [v], avoid=mask, **kwargs)
        assert np.array_equal(levels, bfs_parents(g, [v], avoid=avoid, **kwargs))
        assert np.array_equal(levels, bfs_parents(g, [v], avoid=avoid - {v}, **kwargs))
        assert mask.tolist() == [u in avoid for u in range(n)]  # read, never changed

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.floats(0.5, 10.0), st.integers(0, 10**6), st.data())
    def test_bfs_within_matches_loop_reference(self, n, avg_degree, seed, data):
        # seeds outside the member set still start the walk, as allowed=
        # did; a target inside the set stops it between layers
        g = random_graph(n, avg_degree, seed)
        vertex = st.integers(0, n - 1)
        members = data.draw(st.sets(vertex))
        seeds = data.draw(st.sets(vertex, min_size=1, max_size=3))
        target = data.draw(st.none() | st.sampled_from(sorted(members | seeds)))
        verts, levels = bfs_within(g, members, seeds, target=target)
        ref_levels, ref_parents = bfs_parents_reference(g, seeds, target=target, allowed=members)
        assert verts.tolist() == sorted(members | seeds)
        assert {int(verts[j]): int(levels[j]) for j in np.flatnonzero(levels >= 0)} == ref_levels
        level_of = within_levels(verts, levels)
        assert level_of(np.arange(n)).tolist() == [ref_levels.get(v, -1) for v in range(n)]
        for v in ref_levels:
            assert (walk_down(g, v, ref_levels[v], lambda r, ids: level_of(ids) == r)
                    == parent_chain(ref_parents, v))

    @settings(max_examples=150, deadline=None)
    @given(st.integers(1, 40), st.floats(0.5, 8.0), st.integers(0, 10**6), st.data())
    def test_eccentricity_matches_whole_graph_kernel(self, n, avg_degree, seed, data):
        # the set-local verifier checks against the whole-graph BFS they ran
        # on before, including a start vertex outside the set
        g = random_graph(n, avg_degree, seed)
        members = data.draw(st.sets(st.integers(0, n - 1), min_size=1))
        v = data.draw(st.integers(0, n - 1))
        levels = _bfs(g, [v], ~_mask(n, members))
        reached = int(np.count_nonzero(levels >= 0))
        assert eccentricity_within(g, members, v) == (
            int(levels.max()) if reached == len(members) else None)
        levels = _bfs(g, [min(members)], ~_mask(n, members))
        assert is_connected_set(g, members) == (int(np.count_nonzero(levels >= 0)) == len(members))

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.floats(0.5, 8.0), st.integers(0, 10**6), st.data())
    def test_first_exit_is_earliest_adjacent_vertex(self, n, avg_degree, seed, data):
        g = random_graph(n, avg_degree, seed)
        source = data.draw(st.integers(0, n - 1))
        targets = data.draw(st.sets(st.integers(0, n - 1))) - {source}
        max_level = data.draw(st.none() | st.integers(0, 4))
        levels = bfs_parents(g, [source], avoid=targets)
        expected = None
        for u in sorted(np.flatnonzero(levels >= 0).tolist(), key=lambda u: (int(levels[u]), u)):
            hits = [int(w) for w in g.neighbors(u) if int(w) in targets]
            if hits and (max_level is None or levels[u] <= max_level):
                expected = (int(levels[u]), u, min(hits))
                break
        assert first_exit(g, levels, targets, max_level) == expected
        assert first_exit_lexsort_reference(g, levels, targets, max_level) == expected

    @settings(max_examples=100, deadline=None)
    @given(st.integers(2, 40), st.floats(0.5, 10.0), st.integers(0, 10**6), st.data())
    def test_exit_map_matches_first_exit(self, n, avg_degree, seed, data):
        # targets may lie inside the ball, as they do not in the sparse route,
        # and dense draws give many exits on one level
        g = random_graph(n, avg_degree, seed)
        vertex = st.integers(0, n - 1)
        targets = data.draw(st.sets(vertex))
        avoid = data.draw(st.sets(vertex, max_size=n // 2))
        source = data.draw(vertex.filter(lambda v: v not in avoid))
        max_level = data.draw(st.none() | st.integers(0, 4))
        levels = bfs_parents(g, [source], avoid=avoid)
        exits = exit_map(g, targets)
        assert exits.tolist() == [
            min((int(w) for w in g.neighbors(v) if int(w) in targets), default=-1) for v in range(n)]
        assert (first_exit_on_map(levels, exits, max_level)
                == first_exit(g, levels, targets, max_level)
                == first_exit_lexsort_reference(g, levels, targets, max_level))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(1, 40), st.floats(0.0, 8.0), st.integers(0, 10**6), st.data())
    def test_neighbor_counts_match_loop(self, n, avg_degree, seed, data):
        g = random_graph(n, avg_degree, seed)
        vertices = data.draw(st.sets(st.integers(0, n - 1)))
        assert neighbor_counts(g, vertices).tolist() == [
            sum(int(w) in vertices for w in g.neighbors(v)) for v in range(n)]

    @settings(max_examples=80, deadline=None)
    @given(st.integers(1, 90), st.floats(0.0, 4.0), st.integers(0, 10**6),
           st.sampled_from([1, 45, 64, 65]), st.data())
    def test_layer_sizes_match_single_source_bfs(self, n, avg_degree, seed, count, data):
        # sparse draws are disconnected with isolated vertices (no edges at all
        # at average degree 0); half the time one more isolated vertex comes last
        g = random_graph(n, avg_degree, seed)
        if data.draw(st.booleans()):
            g = Graph(n + 1, list(g.edges()))
        seeds = data.draw(st.lists(st.integers(0, g.n - 1), min_size=count, max_size=count))
        sizes = bfs_layer_sizes(g, seeds)
        assert len(sizes) == count
        for v, got in zip(seeds, sizes):
            levels = bfs_levels(g, [v])
            assert got.tolist() == np.bincount(levels[levels >= 0]).tolist()

    @pytest.mark.parametrize("side,count", [(16, 70), (40, 130)])
    def test_layer_sizes_on_torus(self, side, count):
        # a torus's frontiers stay small for many layers, so a chunk of few
        # seeds pushes and a chunk of 64 soon pulls; repeated seeds included
        g = generate(GeneratorSpec(family="grid_torus", n=side * side), with_girth=False).graph
        rng = random.Random(side)
        seeds = [rng.randrange(g.n) for _ in range(count)]
        for v, got in zip(seeds, bfs_layer_sizes(g, seeds)):
            levels = bfs_levels(g, [v])
            assert got.tolist() == np.bincount(levels).tolist()

    def test_seed_inside_avoid_errors(self):
        with pytest.raises(ValueError, match="avoid"):
            bfs_levels(path_graph(3), [1], avoid={1})


# -- row-chunked kernels -----------------------------------------------------


def gather_reference(g, vertices):
    # the whole-array gather the clipped read replaced: int64 offsets, checked reads
    starts = g._indptr[vertices]
    counts = g._indptr[vertices + 1] - starts
    offs = (starts - (counts.cumsum() - counts)).repeat(counts)
    return g._indices[offs + np.arange(len(offs))], counts


@st.composite
def chunked_graphs(draw):
    """Small graphs for chunk sizes of a few entries: sparse draws have
    degree-0 vertices (and no edges at all at average degree 0), and half of
    them get a last vertex, a hub, whose row outgrows a chunk of up to 8."""
    n = draw(st.integers(1, 40))
    g = random_graph(n, draw(st.floats(0.0, 6.0)), draw(st.integers(0, 10**6)))
    if draw(st.booleans()):
        spokes = draw(st.sets(st.integers(0, n - 1), min_size=min(n, 9)))
        g = Graph(n + 1, list(g.edges()) + [(v, n) for v in spokes])
    return g


def tiny_chunks(size):
    return mock.patch.object(graph_module, "_PULL_CHUNK", size)


class TestRowChunks:
    @settings(max_examples=100, deadline=None)
    @given(chunked_graphs(), st.sampled_from([1, 2, 8]), st.sampled_from([1, 64, 65, 130]), st.data())
    def test_layer_sizes_match_single_source_bfs(self, g, chunk, count, data):
        # 65 and 130 seeds run a second chunk of seeds on the same pull buffer
        seeds = data.draw(st.lists(st.integers(0, g.n - 1), min_size=count, max_size=count))
        with tiny_chunks(chunk):
            sizes = bfs_layer_sizes(g, seeds)
        assert len(sizes) == count
        for v, got in zip(seeds, sizes):
            levels = bfs_levels(g, [v])
            assert got.tolist() == np.bincount(levels[levels >= 0]).tolist()

    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_pull_chunks_cover_every_row_once(self, chunk):
        # rows straddle chunks, a row of 10 outgrows every chunk size here,
        # and vertices 0 and 12 have no row at all
        edges = [(6, v) for v in range(1, 12) if v != 6] + [(1, 2), (2, 3), (3, 4), (9, 11)]
        g = Graph(13, edges)
        with tiny_chunks(chunk):
            pull = graph_module._pull_rows(g, 2, np.uint8)
        assert pull.rows.tolist() == [v for v in range(g.n) if g.degree(v)]
        # consecutive chunks: rows a:b own the entries e0:e1, from (0, 0) to the end
        cuts = [(0, 0)] + [(b, e1) for _a, b, _e0, e1 in pull.chunks]
        assert [(a, e0) for a, _b, e0, _e1 in pull.chunks] == cuts[:-1]
        assert cuts[-1] == (len(pull.rows), len(g._indices))
        for a, b, e0, e1 in pull.chunks:
            assert b - a == 1 or e1 - e0 <= chunk
            assert (pull.starts[a:b] + e0).tolist() == g._indptr[pull.rows[a:b]].tolist()
        assert len(pull.buf) == 2 * max(e1 - e0 for _a, _b, e0, e1 in pull.chunks)

    def test_edgeless_graph_pulls_nothing(self):
        g = Graph(5)
        with tiny_chunks(2):
            assert [s.tolist() for s in bfs_layer_sizes(g, [0, 3, 3])] == [[1], [1], [1]]
            assert graph_module._pull_rows(g, 1, np.uint64).chunks == []

    @settings(max_examples=100, deadline=None)
    @given(chunked_graphs(), st.sampled_from([1, 2, 8]), st.data())
    def test_induced_subgraph_matches_loop_reference(self, g, chunk, data):
        s = data.draw(st.sets(st.integers(0, g.n - 1), min_size=1))
        (indptr, indices), new_to_old, old_to_new = induced_reference(g, s)
        with tiny_chunks(chunk):
            sub = induced_subgraph(g, s)
        assert_csr_equal(sub.graph, indptr, indices)
        assert list(sub.new_to_old) == list(new_to_old)
        assert_relabel_map(sub, old_to_new)

    @pytest.mark.parametrize("kept", [
        range(13),  # all kept
        [4],  # one kept
        [0, 12, 5],  # kept isolated vertices, and a kept vertex whose row loses every entry
        [6, 0, 2, 3, 9, 10, 11],  # the hub's row of 10 is larger than a chunk
        [1, 2, 3, 4, 6],  # a path whose rows straddle chunks
    ])
    @pytest.mark.parametrize("chunk", [1, 3, 8])
    def test_induced_subgraph_edge_cases(self, kept, chunk):
        g = Graph(13, [(6, v) for v in range(1, 12) if v != 6] + [(1, 2), (2, 3), (3, 4), (9, 11)])
        (indptr, indices), new_to_old, old_to_new = induced_reference(g, kept)
        with tiny_chunks(chunk):
            sub = induced_subgraph(g, kept)
        assert_csr_equal(sub.graph, indptr, indices)
        assert list(sub.new_to_old) == list(new_to_old)

    @settings(max_examples=100, deadline=None)
    @given(chunked_graphs(), st.data())
    def test_gather_matches_int64_reference(self, g, data):
        # repeated and unsorted vertices, as some callers pass them
        vertices = np.array(data.draw(st.lists(st.integers(0, g.n - 1), max_size=3 * g.n)), dtype=np.int64)
        flat, counts = graph_module._gather(g, vertices)
        ref_flat, ref_counts = gather_reference(g, vertices)
        assert flat.dtype == ref_flat.dtype == np.int32
        assert flat.tolist() == ref_flat.tolist() and counts.tolist() == ref_counts.tolist()

    def test_gather_still_checks_vertex_ids(self):
        with pytest.raises(IndexError):
            graph_module._gather(path_graph(4), np.array([1, 4]))


def traced_peak(f):
    """Bytes ``f()`` allocated at its peak, its result included, and the result."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = f()
        return tracemalloc.get_traced_memory()[1] - base, result
    finally:
        tracemalloc.stop()


class TestMemoryGuard:
    # G(2^14, avg 40): a whole-graph gather of one uint64 word per row entry
    # takes 2m * 8 = 5.2 MB; these peaks are deterministic, no timing
    @pytest.fixture(scope="class")
    def g(self):
        return generate(GeneratorSpec(family="gnp_avg_degree", n=2**14, param=40.0, seed=1),
                        with_girth=False).graph

    def test_layer_sizes_stay_well_below_a_whole_graph_gather(self, g):
        seeds = list(range(0, g.n, 256))  # 64 seeds: one bit-parallel search
        peak, _ = traced_peak(lambda: bfs_layer_sizes(g, seeds))
        assert peak < len(g._indices) * 8 // 2

    @pytest.mark.parametrize("dropped", [[], [5, 77, 300, 4000, 9000, 16000]])
    def test_induced_subgraph_is_its_output_plus_one_chunk(self, g, dropped):
        # extraction keeps almost every vertex.  One chunk's temporaries are
        # 16 bytes per entry (the intp offsets, then a gather's intp copy of
        # its int32 ids); the per-vertex arrays are the kept ids, their row
        # ends (8 bytes each) and the relabel map (4 bytes)
        keep = np.setdiff1d(np.arange(g.n), dropped)
        peak, sub = traced_peak(lambda: induced_subgraph(g, keep))
        output = sub.graph._indices.nbytes + sub.graph._indptr.nbytes + 4 * len(sub.new_to_old)
        assert peak <= output + 16 * graph_module._PULL_CHUNK + 24 * g.n
