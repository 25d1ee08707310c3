"""Expansion rates, the density dichotomy, and extraction."""

import math
import random
from fractions import Fraction
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from minorkit import (
    ExpansionParams,
    FindDenseQuery,
    Graph,
    average_degree,
    check_expansion_function,
    derived_scales,
    dichotomy_step,
    expansion_function_f,
    extract_expander,
    find_violating_set,
    induced_subgraph,
    neighborhood,
)
from minorkit.expansion import (
    BRANCH_CONTRACT,
    BRANCH_DROP,
    MODE_BELOW_THRESHOLD,
    MODE_PLAIN,
    DEFAULT_BUDGET_OPS,
    _LOCAL_SEARCH_OPS,
    _LOCAL_SEARCH_SEEDS,
    _LOCAL_SEARCH_SIZE,
    DerivedScales,
    _heuristic_violator,
    _local_search,
    small_set_rate,
)
from minorkit.graph import bfs_levels

from conftest import complete_graph, gnp, two_cliques_bridge


def params(delta=0.1, eta=1 / 8, n=1000, t=1):
    return ExpansionParams(delta=delta, eta=eta, ambient_n=n, t=t)


class TestRateFunction:
    def test_at_ambient_order_second_term_dominates(self):
        p = params(delta=0.1, eta=1 / 32, n=10**6)
        got = expansion_function_f(10**6, p)
        second = 0.1 * (1 / 32) / 8.0  # log m / log n = 1
        first = 0.1 * (1 / 32) ** 2 / (32 * math.log(math.log(4 * 10**6)) ** 2)
        assert got == pytest.approx(max(first, second), rel=1e-12)

    def test_frozen_high_precision_value(self):
        # frozen from a 50-digit evaluation: the second branch dominates and
        # equals delta*eta*log(1e3)/(8*log(1e6)) = 0.1/512 exactly
        p = params(delta=0.1, eta=1 / 32, n=10**6)
        assert expansion_function_f(1000, p) == pytest.approx(1.953125e-4, rel=1e-12)

    def test_branch_monotonicity_sweep(self):
        # the max combines a decreasing and an increasing branch
        p = params(delta=0.1, eta=1 / 32, n=10**6)
        ms = [10, 100, 1000, 10**4, 10**5, 10**6]
        first = [p.delta * p.eta**2 / (32 * math.log(math.log(4 * m)) ** 2) for m in ms]
        second = [p.delta * p.eta * math.log(m) / (8 * math.log(10**6)) for m in ms]
        assert all(a >= b for a, b in zip(first, first[1:]))
        assert all(a <= b for a, b in zip(second, second[1:]))
        for m, f1, f2 in zip(ms, first, second):
            assert expansion_function_f(m, p) == pytest.approx(max(f1, f2), rel=1e-12)

    def test_small_m_errors(self):
        with pytest.raises(ValueError):
            expansion_function_f(2, params())

    def test_m_beyond_ambient_errors(self):
        with pytest.raises(ValueError):
            expansion_function_f(2000, params(n=1000))


class TestCheckExpansionFunction:
    def test_builtin_rate_accepted_on_grid(self):
        for n in (10**3, 10**6):
            for delta in (0.05, 0.2):
                for eta in (1 / 8, 1 / 32):
                    rep = check_expansion_function(params(delta, eta, n), n)
                    assert rep.ok, (n, delta, eta, rep.witness, rep.sum_value)
                    assert rep.sum_value <= delta / 2

    def test_constant_function_fails_sum_condition(self):
        delta = 0.3
        rep = check_expansion_function(params(delta, 1 / 8, 10**6), 10**6, f=lambda m: delta)
        assert not rep.sum_ok
        assert rep.sum_value == pytest.approx(rep.term_count * delta)
        assert not rep.ok

    def test_sum_value_matches_independent_summation(self):
        # frozen from a 50-digit direct summation: y = 143, 142 terms
        rep = check_expansion_function(params(0.2, 1 / 24, 10**9), 10**9)
        assert rep.term_count == 142
        assert rep.sum_value == pytest.approx(0.047484582234409018, rel=1e-10)
        assert rep.ok


class TestDichotomy:
    def test_two_cliques_drop_branch(self):
        k5s = Graph(10, list(combinations(range(5), 2)) + [(u + 5, v + 5) for u, v in combinations(range(5), 2)])
        q = FindDenseQuery(gamma=0.5, s=frozenset(range(5)))
        step = dichotomy_step(k5s, q, average_degree(k5s))
        assert step.branch == BRANCH_DROP
        assert step.density_after == 4

    def test_pendant_tail_drop(self):
        # K_5 plus a two-vertex pendant tail; a single pendant vertex has
        # |N(S)| = |S| = 1 and so never satisfies the gamma < 1 hypothesis
        g = Graph(7, list(combinations(range(5), 2)) + [(4, 5), (5, 6)])
        q = FindDenseQuery(gamma=0.9, s=frozenset({5, 6}))
        step = dichotomy_step(g, q, Fraction(2 * 12, 7))
        assert step.branch == BRANCH_DROP
        assert step.density_after == 4 > Fraction(24, 7)

    def test_contract_branch_on_dense_pocket(self):
        # K_6 glued to a long path: dropping the clique would lower density
        edges = list(combinations(range(6), 2)) + [(5 + i, 6 + i) for i in range(20)]
        g = Graph(26, edges)
        q = FindDenseQuery(gamma=0.5, s=frozenset(range(6)))
        c = average_degree(g)
        step = dichotomy_step(g, q, c)
        assert step.branch == BRANCH_CONTRACT
        assert step.density_after >= (1 - Fraction(1, 2)) * c

    def test_non_violating_set_errors(self):
        g = complete_graph(5)
        with pytest.raises(ValueError, match="not a violating set"):
            dichotomy_step(g, FindDenseQuery(gamma=0.1, s=frozenset({0})), average_degree(g))

    @settings(max_examples=120, deadline=None)
    @given(st.data())
    def test_one_branch_always_holds(self, data):
        n = data.draw(st.integers(4, 8))
        pairs = list(combinations(range(n), 2))
        mask = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        g = Graph(n, [p for p, keep in zip(pairs, mask) if keep])
        if g.edge_count == 0:
            return
        s = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        gamma = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
        if len(neighborhood(g, s)) >= gamma * len(s):
            return
        c = average_degree(g)
        step = dichotomy_step(g, FindDenseQuery(gamma=gamma, s=frozenset(s)), c)
        if step.branch == BRANCH_DROP:
            assert step.density_after >= c
        else:
            assert step.density_after >= (1 - Fraction(gamma)) * c


    @settings(max_examples=150, deadline=None)
    @given(st.integers(3, 30), st.floats(0.5, 5.0), st.integers(0, 10**6), st.data())
    def test_densities_match_induced_subgraph_reference(self, n, avg_degree, seed, data):
        g = gnp(n, avg_degree, seed)
        if g.edge_count == 0:
            return
        s = data.draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=n - 1))
        gamma = data.draw(st.sampled_from([0.1, 0.3, 0.5, 0.7, 0.9]))
        if len(neighborhood(g, s)) >= gamma * len(s):
            return
        c = average_degree(g)
        step = dichotomy_step(g, FindDenseQuery(gamma=gamma, s=frozenset(s)), c)
        assert (step.branch, step.kept.tolist(), step.density_after) == \
            dichotomy_reference(g, s, c)
        kept = induced_subgraph(g, step.kept).graph
        assert step.density_after == Fraction(2 * kept.edge_count, kept.n)


# the rule that built both induced subgraphs, kept as the reference
def dichotomy_reference(g, s, c):
    rest = set(range(g.n)) - set(s)
    if rest:
        sub = induced_subgraph(g, rest).graph
        if Fraction(2 * sub.edge_count, sub.n) >= c:
            return BRANCH_DROP, sorted(rest), Fraction(2 * sub.edge_count, sub.n)
    ball = set(s) | neighborhood(g, s)
    sub = induced_subgraph(g, ball).graph
    return BRANCH_CONTRACT, sorted(ball), Fraction(2 * sub.edge_count, sub.n)


# the set-based local search that the mask version replaced, kept as its reference
def local_search_reference(h, seed, cap, size_cap_local, violation, budget):
    if budget <= 0:
        return None
    s = {seed}
    boundary = {int(w) for w in h.neighbors(seed)}
    spent = 0
    while len(s) < size_cap_local and boundary and spent < budget:
        best = None
        for u in sorted(boundary):
            gain = sum(1 for w in h.neighbors(u) if int(w) not in s and int(w) not in boundary)
            spent += h.degree(u)
            if best is None or (gain, u) < best:
                best = (gain, u)
            if spent >= budget:
                break
        u = best[1]
        s.add(u)
        boundary.discard(u)
        boundary.update(int(w) for w in h.neighbors(u) if int(w) not in s)
        if len(s) <= cap:
            gamma = violation(len(s), len(boundary))
            if gamma is not None:
                return FindDenseQuery(gamma=gamma, s=frozenset(s))
    return None


class TestLocalSearch:
    @settings(max_examples=150, deadline=None)
    @given(st.integers(2, 80), st.floats(0.5, 12.0), st.integers(0, 10**6), st.data())
    def test_matches_set_reference(self, n, avg_degree, seed, data):
        h = gnp(n, avg_degree, seed)
        vertex = data.draw(st.integers(0, n - 1))
        cap = data.draw(st.integers(1, n))
        size_cap_local = data.draw(st.integers(1, 40))
        budget = data.draw(st.integers(-1, 3000))
        fire_at = data.draw(st.none() | st.integers(1, 40))
        runs = []
        for search in (_local_search, local_search_reference):
            calls = []

            def violation(size, nb_size):
                # records every priced step; reports a violation on call ``fire_at``
                calls.append((size, nb_size))
                return 0.5 if len(calls) == fire_at else None

            runs.append((search(h, vertex, cap, size_cap_local, violation, budget), calls))
        assert runs[0] == runs[1]


# the sequential seed sweep that the batched replay replaced, kept as its
# reference; it also reports whether the budget broke off the sweep
def heuristic_violator_reference(h, cap, violation, budget_ops):
    m = h.n
    budget = budget_ops if budget_ops is not None else DEFAULT_BUDGET_OPS
    spent = 0
    degs = h.degrees()
    order = sorted(range(m), key=lambda v: (int(degs[v]), v))
    stride = max(1, m // 24)
    seeds = order[:16] + order[-4:] + list(range(0, m, stride))
    seen = set()
    local_tries = 0
    for v in seeds:
        if v in seen:
            continue
        seen.add(v)
        if spent >= budget:
            return None, True
        levels = bfs_levels(h, [v])
        spent += int(degs[v]) + 1
        reached = np.flatnonzero(levels >= 0)
        spent += len(reached)
        if len(reached) < m:
            comp_size = len(reached)
            for size in (comp_size, m - comp_size):
                gamma = violation(size, 0)
                if gamma is not None:
                    members = reached if size == comp_size else np.flatnonzero(levels < 0)
                    return FindDenseQuery(gamma=gamma, s=frozenset(map(int, members))), False
        lv = levels[reached]
        counts = np.bincount(lv)
        prefix = np.cumsum(counts)
        for r in range(len(counts) - 1):
            gamma = violation(int(prefix[r]), int(counts[r + 1]))
            if gamma is not None:
                members = reached[lv <= r]
                return FindDenseQuery(gamma=gamma, s=frozenset(map(int, members))), False
        if local_tries < _LOCAL_SEARCH_SEEDS:
            local_tries += 1
            size_cap_local = min(cap, _LOCAL_SEARCH_SIZE)
            local_budget = min(budget - spent, _LOCAL_SEARCH_OPS)
            q = _local_search(h, v, cap, size_cap_local, violation, local_budget)
            if q is not None:
                return q, False
            spent += local_budget
    return None, False


@st.composite
def planted_cut_graphs(draw):
    """Random blocks joined by a few bridges: sparse cuts, often several components."""
    sizes = draw(st.lists(st.integers(1, 30), min_size=1, max_size=4))
    rng = random.Random(draw(st.integers(0, 10**6)))
    edges, base = [], 0
    for size in sizes:
        p = draw(st.floats(0.0, 1.0))
        edges += [(u + base, v + base) for u, v in combinations(range(size), 2) if rng.random() < p]
        base += size
    vertex = st.integers(0, base - 1)
    edges += draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=3))
    return Graph(base, edges)


class TestHeuristicViolator:
    @settings(max_examples=150, deadline=None)
    @given(planted_cut_graphs(), st.floats(1e-4, 1.5), st.data())
    def test_replay_matches_sequential_reference(self, h, rate, data):
        # rates down to the pipelines' scale, where no local search can
        # succeed and they are skipped, and small-set closures with delta up
        # to 0.99, where only the small-set branch lets a one-vertex boundary
        # violate; the reference always runs its local searches
        m = h.n
        cap = data.draw(st.integers(1, m))
        small = data.draw(st.none() | st.tuples(st.integers(1, m), st.floats(0.01, 0.99)))
        budgets = [1, m, 5 * m, 20 * m, None, data.draw(st.integers(0, 700_000))]

        def violation(size, nb_size):
            if size <= cap and nb_size < rate * size:
                return rate
            if small is not None:
                cap3, delta = small
                if size <= cap3 and nb_size < small_set_rate(size, delta) * size:
                    return small_set_rate(size, delta)
            return None

        for budget in budgets:
            got = _heuristic_violator(h, cap, violation, budget)
            assert got == heuristic_violator_reference(h, cap, violation, budget)

    @pytest.mark.parametrize("cap3", [61, 70])
    def test_small_set_only_violator_is_found_by_local_search(self, cap3):
        # a 61-cycle whose even vertices meet a hub, which alone leads on to
        # a 40-clique: every BFS ball takes in the hub long before the cycle,
        # but the greedy local search from vertex 1 grows the whole cycle, a
        # 61-set whose boundary is the hub.  Only the small-set rate counts
        # that as a violation, and only at sizes below the search's cap of 96
        edges = [(v, (v + 1) % 61) for v in range(61)] + [(v, 61) for v in range(0, 61, 2)]
        edges += [(61, 62), (61, 63)] + list(combinations(range(62, 102), 2))
        h = Graph(102, edges)

        def violation(size, nb_size):
            if size <= 101 and nb_size < 1e-4 * size:
                return 1e-4
            if size <= cap3 and nb_size < small_set_rate(size, 0.99) * size:
                return small_set_rate(size, 0.99)
            return None

        got = _heuristic_violator(h, 101, violation, None)
        assert got == heuristic_violator_reference(h, 101, violation, None)
        assert got[0].s == frozenset(range(61))

    @settings(max_examples=60, deadline=None)
    @given(planted_cut_graphs())
    def test_budget_stops_exactly_before_the_last_seed(self, h):
        # with nothing to find, each seed costs degree + 1 + reached count and
        # each of the first 8 seeds' local searches takes its full share; a
        # budget of exactly the work before the last seed stops there
        m = h.n
        degs = h.degrees()
        order = sorted(range(m), key=lambda v: (int(degs[v]), v))
        stride = max(1, m // 24)
        seeds = list(dict.fromkeys(order[:16] + order[-4:] + list(range(0, m, stride))))
        if len(seeds) < 2:
            return
        work = sum(int(degs[v]) + 1 + int(np.count_nonzero(bfs_levels(h, [v]) >= 0))
                   for v in seeds[:-1])
        budget = work + _LOCAL_SEARCH_OPS * min(_LOCAL_SEARCH_SEEDS, len(seeds) - 1)
        never = lambda size, nb_size: None  # noqa: E731
        for b, expected in ((budget, (None, True)), (budget + 1, (None, False))):
            assert _heuristic_violator(h, m, never, b) == expected
            assert heuristic_violator_reference(h, m, never, b) == expected


class TestFindViolatingSet:
    def test_complete_graph_has_none_at_pipeline_rates(self):
        # with the built-in rate any violator would need an empty neighborhood
        g = complete_graph(8)
        p = params(delta=0.3, eta=1 / 8, n=8)
        d = derived_scales(8, p)
        assert find_violating_set(g, d, p) is None

    def test_two_cliques_bridge_found_at_rate_half(self):
        g = two_cliques_bridge(6)
        d = DerivedScales(f_m=0.5, k=10, l=2, m=12)
        q = find_violating_set(g, d, params(n=12))
        assert q is not None
        # the find is a genuine violator living inside one clique side
        assert len(neighborhood(g, q.s)) < q.gamma * len(q.s)
        assert q.s <= frozenset(range(6)) or q.s <= frozenset(range(6, 12))

    def test_single_vertex_none(self):
        p = params(n=1)
        assert find_violating_set(Graph(1), derived_scales(3, params(n=3)), p) is None

    def test_heuristic_finds_disconnection(self):
        # two large blobs joined by nothing: the component cut is found
        g = Graph(60, list(combinations(range(30), 2)) + [(u + 30, v + 30) for u, v in combinations(range(30), 2)])
        p = params(delta=0.2, eta=1 / 8, n=60)
        d = derived_scales(60, p)
        q = find_violating_set(g, d, p)
        assert q is not None
        assert len(neighborhood(g, q.s)) == 0

    def test_small_set_mode_catches_small_pocket(self):
        # a 4-clique hanging off nothing: small-set condition applies
        edges = list(combinations(range(40), 2)) + [(u + 40, v + 40) for u, v in combinations(range(4), 2)]
        g = Graph(44, edges)
        p = params(delta=0.3, eta=1 / 300, n=44)
        d = derived_scales(44, p)
        q = find_violating_set(g, d, p, small_set_mode=True)
        assert q is not None
        assert len(neighborhood(g, q.s)) < q.gamma * len(q.s)


class TestExtractExpander:
    def test_clique_unchanged(self):
        g = complete_graph(10)
        res = extract_expander(g, params(delta=0.1, eta=1 / 8, n=10), stop_floor=4)
        assert res.graph.n == 10
        assert res.achieved_density == 9
        assert res.trace == []

    def test_pendant_path_is_peeled(self):
        edges = list(combinations(range(8), 2)) + [(7 + i, 8 + i) for i in range(20)]
        g = Graph(28, edges)
        res = extract_expander(g, params(delta=0.3, eta=1 / 8, n=28), stop_floor=4)
        assert res.graph.n == 8
        assert res.graph.edge_count == 28
        peels = [s for s in res.trace if s[0] == "min_degree_peel"]
        assert len(peels) == 20
        assert res.mode == MODE_PLAIN

    @pytest.mark.parametrize("small_set", [False, True])
    def test_density_guarantee_random_graph(self, small_set):
        g = gnp(1000, 20, seed=9)
        delta = 0.1
        p = params(delta=delta, eta=1 / 32, n=1000)
        res = extract_expander(g, p, small_set_mode=small_set)
        factor = 1 - (2 if small_set else 1) * Fraction(delta)
        assert res.achieved_density >= factor * res.input_density
        if res.graph.n > 1:
            assert 2 * res.graph.min_degree() >= res.achieved_density

    def test_blob_union_drops_to_one_blob(self):
        from conftest import blobs

        g = blobs(150, 0.8, 3, seed=4)
        p = params(delta=0.2, eta=1 / 8, n=150)
        res = extract_expander(g, p)
        # the union of equal dense blobs resolves to (roughly) one blob
        assert res.graph.n <= 60
        assert res.achieved_density >= (1 - Fraction(1, 5)) * res.input_density

    def test_search_budget_exhausted_flag(self):
        g = gnp(300, 20, seed=3)
        p = params(delta=0.1, eta=1 / 8, n=300)
        cut_short = extract_expander(g, p, budget_ops=1)
        assert (cut_short.mode, cut_short.search_budget_exhausted) == (MODE_PLAIN, True)
        full = extract_expander(g, p)
        assert (full.mode, full.search_budget_exhausted) == (MODE_PLAIN, False)

    def test_below_threshold_mode(self):
        g = complete_graph(6)
        res = extract_expander(g, params(n=6), stop_floor=32)
        assert res.mode == MODE_BELOW_THRESHOLD

    def test_empty_graph_errors(self):
        with pytest.raises(ValueError):
            extract_expander(Graph(0), params())


class TestTraceOutput:
    def test_trace_json_shape(self):
        edges = list(combinations(range(8), 2)) + [(7, 8), (8, 9)]
        g = Graph(10, edges)
        res = extract_expander(g, params(delta=0.3, eta=1 / 8, n=10), stop_floor=4)
        rows = res.trace_json()
        assert all(
            set(r) == {"step", "action", "set_size", "density_before", "density_after"}
            for r in rows
        )
        assert [r["step"] for r in rows] == list(range(len(rows)))
