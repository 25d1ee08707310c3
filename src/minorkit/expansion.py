"""Expansion rates and expander extraction.

The central objects are:

* :class:`ExpansionParams` - the scalar knobs (delta, eta, sigma, t, ambient
  graph order) for a run, in one of two flavors: minor mode (eta = 1/8t) or
  subdivision mode (eta = 1/300t^3, with an extra small-set expansion
  condition).
* :func:`expansion_function_f` - the rate function
  ``max(delta*eta^2 / (32 (log log 4m)^2), delta*eta*log m / (8 log n))``.
* :func:`extract_expander` - the density-preserving peel/contract loop: while
  the minimum degree is below half the average, peel; otherwise look for a
  vertex set with too-small neighborhood and either drop it or contract to its
  ball (:func:`dichotomy_step`), whichever preserves density.

All density comparisons are exact rational arithmetic.  Every routine here is
deterministic: tie-breaks are by smallest vertex id and the search budget is
counted in work units, not wall-clock time.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional

import numpy as np

from .errors import InvariantViolation
from .graph import (
    Graph,
    InducedSubgraph,
    _gather,
    _mask,
    bfs_layer_sizes,
    bfs_levels,
    induced_subgraph,
)

MODE_PLAIN = "plain_expander"
MODE_SMALL_SET = "small_set_expander"
MODE_BELOW_THRESHOLD = "below_threshold"

DEFAULT_STOP_FLOOR = 32
DEFAULT_BUDGET_OPS = 2_000_000
# deterministic stand-in for a milliseconds budget: work units per ms
OPS_PER_MS = 2000

_EXHAUSTIVE_LIMIT = 18


@dataclass(frozen=True)
class ExpansionParams:
    """Scalar parameters of a run."""

    delta: float
    eta: float
    ambient_n: int
    t: int = 1
    sigma: float = 0.0

    def __post_init__(self):
        if not (0.0 < self.delta < 1.0):
            raise ValueError("delta must be in (0,1)")
        if not (0.0 < self.eta < 1.0):
            raise ValueError("eta must be in (0,1)")
        if self.ambient_n < 1:
            raise ValueError("ambient_n must be positive")
        if self.t < 1:
            raise ValueError("t must be >= 1")

    @classmethod
    def for_minor(cls, t: int, delta: float, ambient_n: int) -> "ExpansionParams":
        return cls(delta=delta, eta=1.0 / (8 * t), ambient_n=ambient_n, t=t,
                   sigma=1.0 / (100 * t))

    @classmethod
    def for_subdivision(cls, t: int, delta: float, ambient_n: int) -> "ExpansionParams":
        return cls(delta=delta, eta=1.0 / (300 * t ** 3), ambient_n=ambient_n, t=t,
                   sigma=1.0 / (100 * t))


@dataclass(frozen=True)
class DerivedScales:
    """Scales derived from (m, params): rate f(m), radius budget k, corner radius l."""

    f_m: float
    k: int
    l: int
    m: int


def _rate_at(m: float, delta: float, eta: float, ambient_n: int) -> float:
    """The rate function, defined for any real m >= 1."""
    first = delta * eta * eta / (32.0 * math.log(math.log(4.0 * m)) ** 2)
    second = delta * eta * math.log(m) / (8.0 * math.log(ambient_n))
    return max(first, second)


def expansion_function_f(m: int, p: ExpansionParams) -> float:
    """Rate function f(m) = max(de^2/32(loglog 4m)^2, de log m / 8 log n)."""
    if m < 3:
        raise ValueError("m must be at least 3")
    if m > p.ambient_n:
        raise ValueError("m exceeds ambient graph order")
    return _rate_at(float(m), p.delta, p.eta, p.ambient_n)


def small_set_rate(set_size: int, delta: float) -> float:
    """Extra expansion rate required of sets with at most m^(1/3) vertices."""
    return delta / (20.0 * math.log(math.log(4.0 * set_size)) ** 2)


def derived_scales(m: int, p: ExpansionParams) -> DerivedScales:
    f_m = expansion_function_f(m, p)
    k = math.ceil(4.0 * math.log(m) / f_m)
    l = max(1, math.floor(math.log(math.log(m)) ** 2))
    return DerivedScales(f_m=f_m, k=k, l=l, m=m)


def size_cap(m: int, eta: float) -> int:
    """floor(m^(1-eta)): the largest set size the expander condition covers."""
    return math.floor(m ** (1.0 - eta))


def small_size_cap(m: int) -> int:
    return math.floor(m ** (1.0 / 3.0))


# -- expansion-function checker -----------------------------------------------


@dataclass
class ExpansionCheckReport:
    ok: bool
    sandwich_ok: bool
    sum_ok: bool
    sum_value: float
    sum_bound: float
    term_count: int
    witness: Optional[tuple] = None

    @property
    def margin(self) -> float:
        return self.sum_bound - self.sum_value


def check_expansion_function(
    p: ExpansionParams, n: int, f: Optional[Callable[[float], float]] = None
) -> ExpansionCheckReport:
    """Check the two defining conditions of a usable rate function.

    (a) for sampled triples a <= b <= c in [1, n], the value at the middle
        point is at most the sum of the values at the surrounding points
        (automatic for a max of a decreasing and an increasing function, and
        exactly what the extraction telescoping uses); and
    (b) sum over x = 0..y-2 of f(n^((1-eta/2)^x)) is at most delta/2, with
        y = floor(-log log n / log(1 - eta/2)).

    ``f`` defaults to the built-in rate function with ambient order ``n``.
    Failures are reported with the offending triple / the sum value rather
    than raised.
    """
    if n < 16:
        raise ValueError("n must be at least 16")
    if f is None:
        f = lambda m: _rate_at(m, p.delta, p.eta, n)  # noqa: E731

    grid = _sample_grid(n)
    sandwich_ok = True
    witness = None
    vals = {a: f(a) for a in grid}
    for i, a in enumerate(grid):
        for j in range(i, len(grid)):
            b = grid[j]
            for c in grid[j:]:
                if vals[b] > vals[a] + vals[c] + 1e-12:
                    sandwich_ok = False
                    witness = (a, b, c, vals[a], vals[b], vals[c])
                    break
            if witness:
                break
        if witness:
            break

    y = math.floor(-math.log(math.log(n)) / math.log(1.0 - p.eta / 2.0))
    total = 0.0
    q = 1.0
    terms = 0
    for _x in range(0, max(0, y - 1)):  # x = 0 .. y-2
        total += f(n ** q)
        q *= 1.0 - p.eta / 2.0
        terms += 1
    bound = p.delta / 2.0
    sum_ok = total <= bound
    return ExpansionCheckReport(
        ok=sandwich_ok and sum_ok,
        sandwich_ok=sandwich_ok,
        sum_ok=sum_ok,
        sum_value=total,
        sum_bound=bound,
        term_count=terms,
        witness=witness,
    )


def _sample_grid(n: int) -> list:
    pts = {1.0, 2.0, 3.0, math.e, 4.0, float(n), n / 2.0, math.sqrt(n)}
    # geometric sweep plus corner values near the crossover of the two branches
    x = 1.0
    while x < n:
        pts.add(min(float(n), x))
        x *= 2.9
    for q in (0.1, 0.25, 0.5, 0.75, 0.9, 0.99):
        pts.add(max(1.0, n ** q))
    return sorted(v for v in pts if 1.0 <= v <= n)


# -- dichotomy ----------------------------------------------------------------


@dataclass(frozen=True)
class FindDenseQuery:
    """A vertex set violating the expansion rate, with the rate it violates."""

    gamma: float
    s: frozenset


BRANCH_DROP = "drop_S"
BRANCH_CONTRACT = "contract_to_ball"


@dataclass(frozen=True)
class DichotomyStep:
    """The branch taken and ``kept``, the sorted ids of the vertices it keeps."""

    branch: str
    kept: np.ndarray
    set_size: int
    density_before: Fraction
    density_after: Fraction


def _row_sums(values: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """Sums of ``values`` over consecutive rows of the given lengths."""
    ends = np.cumsum(counts)
    totals = np.concatenate(([0], np.cumsum(values)))
    return totals[ends] - totals[ends - counts]


def dichotomy_step(g: Graph, q: FindDenseQuery, c: Fraction) -> DichotomyStep:
    """Apply the density dichotomy to a violating set.

    Given S with |N(S)| < gamma |S| and c = d(G): either d(G - S) >= c (drop
    the set) or d(B(S)) >= (1 - gamma) c (contract to the ball around S).
    One of the two always holds; the chosen branch's guarantee is asserted.
    Both densities come from edge counts over the rows of B(S) = S + N(S).
    """
    if not q.s:
        raise ValueError("empty violating set")
    in_s = _mask(g.n, q.s)
    s = np.flatnonzero(in_s)
    in_ball = in_s.copy()
    in_ball[_gather(g, s)[0]] = True
    ball = np.flatnonzero(in_ball)
    if len(ball) - len(s) >= q.gamma * len(s):
        raise ValueError("not a violating set")
    c = Fraction(c)
    flat, counts = _gather(g, ball)
    owner_in_s = np.repeat(in_s[ball], counts)
    inside_s = int(np.count_nonzero(owner_in_s & in_s[flat])) // 2  # e(S)
    touching_s = int(np.count_nonzero(owner_in_s)) - inside_s  # e(S) + e(S, N(S))
    if len(s) < g.n:
        d_rest = Fraction(2 * (g.edge_count - touching_s), g.n - len(s))
        if d_rest >= c:
            return DichotomyStep(BRANCH_DROP, np.flatnonzero(~in_s), len(s), c, d_rest)
    d_ball = Fraction(int(np.count_nonzero(in_ball[flat])), len(ball))
    if d_ball < (1 - Fraction(q.gamma)) * c:
        raise InvariantViolation(
            f"dichotomy guarantee failed: d(ball)={d_ball} < (1-{q.gamma})*{c}"
        )
    return DichotomyStep(BRANCH_CONTRACT, ball, len(s), c, d_ball)


# -- violating-set search -----------------------------------------------------


def find_violating_set(
    h: Graph,
    d: DerivedScales,
    p: ExpansionParams,
    small_set_mode: bool = False,
    budget_ops: Optional[int] = None,
    report: Optional[dict] = None,
) -> Optional[FindDenseQuery]:
    """Look for a set whose neighborhood is smaller than the required rate.

    Searches for S with |S| <= m^(1-eta) and |N(S)| < f(m)|S|; in small-set
    mode additionally for S with |S| <= m^(1/3) and
    |N(S)| < delta/(20 (log log 4|S|)^2) |S|.  Exhaustive over all subsets for
    m <= 18 (a violating set need not be connected); above that a budgeted
    heuristic sweep: BFS-layer cuts from a deterministic seed schedule plus a
    greedy low-boundary local search from the first 8 seeds.  The local
    searches run only when some size up to min(m^(1-eta), 96) violates with a
    one-vertex boundary, since a connected set with an empty boundary is a
    component the layer sweep has already priced (see
    :func:`_heuristic_violator`); with the pipelines' delta of at most 1/2
    none does, so they never run there.  Returns None when nothing is found,
    in which case the graph is treated as an empirical expander.  When the
    heuristic sweep runs and a ``report`` dict is given, it sets
    ``report["budget_exhausted"]``: whether the work budget ended the sweep
    before every seed was tried.
    """
    m = h.n
    if m == 0:
        raise ValueError("empty graph")
    if m == 1:
        return None
    cap = size_cap(m, p.eta)
    cap3 = small_size_cap(m) if small_set_mode else 0
    rate = d.f_m

    def violation(size: int, nb_size: int) -> Optional[float]:
        if size <= cap and nb_size < rate * size:
            return rate
        if small_set_mode and size <= cap3 and nb_size < small_set_rate(size, p.delta) * size:
            return small_set_rate(size, p.delta)
        return None

    if m <= _EXHAUSTIVE_LIMIT:
        return _exhaustive_violator(h, cap, violation)
    q, exhausted = _heuristic_violator(h, cap, violation, budget_ops)
    if report is not None:
        report["budget_exhausted"] = exhausted
    return q


def _exhaustive_violator(h: Graph, cap: int, violation) -> Optional[FindDenseQuery]:
    # subset DP over bitmasks: nb[mask] accumulates the union of neighborhoods
    m = h.n
    adj = [0] * m
    for v in range(m):
        for w in h.neighbors(v):
            adj[v] |= 1 << int(w)
    nb = [0] * (1 << m)
    for mask in range(1, 1 << m):
        lsb = mask & -mask
        nb[mask] = nb[mask ^ lsb] | adj[lsb.bit_length() - 1]
        size = mask.bit_count()
        if size > cap:
            continue
        nb_size = (nb[mask] & ~mask).bit_count()
        gamma = violation(size, nb_size)
        if gamma is not None:
            s = frozenset(i for i in range(m) if mask >> i & 1)
            return FindDenseQuery(gamma=gamma, s=s)
    return None


_LOCAL_SEARCH_SEEDS = 8
_LOCAL_SEARCH_SIZE = 96
_LOCAL_SEARCH_OPS = 60_000


def _heuristic_violator(h: Graph, cap: int, violation, budget_ops) -> tuple:
    """The budgeted seed sweep; returns ``(query or None, budget_exhausted)``.

    ``budget_exhausted`` is True when the budget ran out before every seed
    was tried.  The layer sizes of all seeds come from one bit-parallel
    batch; the loop then spends and checks seed by seed, in schedule order.

    ``violation(size, nb_size)`` must be pure and monotone in ``nb_size``
    (a violation at some boundary size is one at every smaller size), as
    :func:`find_violating_set`'s closure is.  A local search is then skipped
    when it cannot succeed: no size it reaches violates with a one-vertex
    boundary, and it cannot reach all m vertices.  It grows a connected set,
    so a set with an empty boundary is its seed's whole component, whose cut
    the sweep has already priced with ``violation(size, 0)``.  A skipped
    search still counts its try and its full share of the budget, so the
    budget and every later seed see the same work as when it runs.
    """
    m = h.n
    budget = budget_ops if budget_ops is not None else DEFAULT_BUDGET_OPS
    spent = 0
    degs = h.degrees()
    order = np.argsort(degs, kind="stable").tolist()  # by (degree, id)
    stride = max(1, m // 24)
    seeds = list(dict.fromkeys(order[:16] + order[-4:] + list(range(0, m, stride))))
    size_cap_local = min(cap, _LOCAL_SEARCH_SIZE)
    local_can_find = size_cap_local >= m or any(
        violation(size, 1) is not None for size in range(2, size_cap_local + 1))
    local_tries = 0
    for v, counts in zip(seeds, bfs_layer_sizes(h, seeds)):
        if spent >= budget:
            return None, True
        # BFS-layer cuts: the neighborhood of the radius-r ball is exactly
        # the next BFS layer, so one traversal prices every prefix cut.
        reached = int(counts.sum())
        spent += int(degs[v]) + 1 + reached
        if reached < m:
            # disconnected: the component (or its complement) is its own cut
            for size in (reached, m - reached):
                gamma = violation(size, 0)
                if gamma is not None:
                    levels = bfs_levels(h, [v])
                    members = np.flatnonzero(levels >= 0 if size == reached else levels < 0)
                    return FindDenseQuery(gamma=gamma, s=frozenset(members.tolist())), False
        prefix = np.cumsum(counts)
        for r in range(len(counts) - 1):
            gamma = violation(int(prefix[r]), int(counts[r + 1]))
            if gamma is not None:
                members = np.flatnonzero(bfs_levels(h, [v], radius=r) >= 0)
                return FindDenseQuery(gamma=gamma, s=frozenset(members.tolist())), False
        if local_tries < _LOCAL_SEARCH_SEEDS:
            local_tries += 1
            local_budget = min(budget - spent, _LOCAL_SEARCH_OPS)
            if local_can_find:
                q = _local_search(h, v, cap, size_cap_local, violation, local_budget)
                if q is not None:
                    return q, False
            spent += local_budget
    return None, False


def _local_search(h: Graph, seed: int, cap: int, size_cap_local: int, violation, budget: int) -> Optional[FindDenseQuery]:
    """Greedy boundary-minimizing growth from a seed vertex.

    Grows only up to a small size: roomy sparse cuts are the BFS layer
    sweep's job, this hunts local pockets.
    """
    if budget <= 0:
        return None
    in_s = _mask(h.n, [seed])
    in_b = _mask(h.n, h.neighbors(seed))
    degs = h.degrees()
    size, spent = 1, 0
    while size < size_cap_local and in_b.any() and spent < budget:
        # price the sorted boundary up to the vertex whose degree uses up the budget
        boundary = np.flatnonzero(in_b)
        cost = np.cumsum(degs[boundary])
        priced = min(int(np.searchsorted(cost, budget - spent)) + 1, len(boundary))
        spent += int(cost[priced - 1])
        flat, counts = _gather(h, boundary[:priced])
        gains = _row_sums(~(in_s[flat] | in_b[flat]), counts)
        u = boundary[np.argmin(gains)]  # least gain, then least id
        in_s[u] = True
        in_b[h.neighbors(u)] = True
        in_b &= ~in_s
        size += 1
        if size <= cap:
            gamma = violation(size, int(np.count_nonzero(in_b)))
            if gamma is not None:
                return FindDenseQuery(gamma=gamma, s=frozenset(np.flatnonzero(in_s).tolist()))
    return None


# -- extraction ---------------------------------------------------------------


@dataclass
class ExtractionResult:
    """Outcome of the peel/contract loop.

    ``subgraph.graph`` is the extracted graph; ``subgraph.new_to_old`` maps
    its ids into the input graph.  ``mode`` is one of ``plain_expander``,
    ``small_set_expander`` or ``below_threshold``.
    ``search_budget_exhausted`` is True when the last violating-set search,
    the one that found nothing, ran out of work budget before trying every
    seed: the expander verdict then rests on a cut-short search.
    """

    subgraph: InducedSubgraph
    mode: str
    trace: list = field(default_factory=list)
    achieved_density: Fraction = Fraction(0)
    input_density: Fraction = Fraction(0)
    search_budget_exhausted: bool = False

    @property
    def graph(self) -> Graph:
        return self.subgraph.graph

    def trace_json(self) -> list:
        return [
            {
                "step": i,
                "action": action,
                "set_size": size,
                "density_before": str(before),
                "density_after": str(after),
            }
            for i, (action, size, before, after) in enumerate(self.trace)
        ]


def extract_expander(
    g: Graph,
    p: ExpansionParams,
    small_set_mode: bool = False,
    stop_floor: int = DEFAULT_STOP_FLOOR,
    budget_ops: Optional[int] = None,
) -> ExtractionResult:
    """Extract a density-comparable subgraph that expands empirically.

    Loop: peel minimum-degree vertices while min degree < d/2 (smallest id
    first); then search for a violating set and apply the dichotomy; stop when
    no violator is found, or when the graph is at most the practical floor
    ``max(t+1, stop_floor)`` (mode ``below_threshold``; the theoretical
    thresholds 2^(16/eta) / 2^(24/eta) are astronomically large, so the floor
    is what actually fires at realistic sizes).

    The output satisfies d(H) >= (1-delta) d(G) in plain mode and
    >= (1-2 delta) d(G) in small-set mode, and min degree >= d(H)/2; both are
    asserted exactly (rational arithmetic) and raise InvariantViolation on
    failure, which would indicate a bug.
    """
    if g.n == 0:
        raise ValueError("empty graph")
    floor_n = max(p.t + 1, stop_floor)
    input_density = Fraction(2 * g.edge_count, g.n)
    trace = []
    budget_exhausted = False

    alive = np.ones(g.n, dtype=bool)
    deg = g.degrees().astype(np.int64)
    n_cur = g.n
    e_cur = g.edge_count

    heap = list(zip(deg.tolist(), range(g.n)))
    heapq.heapify(heap)

    def peel_phase():
        nonlocal n_cur, e_cur
        # peel while deg < d/2 = e/n, i.e. while deg*n < e
        while n_cur > 1:
            while heap and (not alive[heap[0][1]] or heap[0][0] != deg[heap[0][1]]):
                heapq.heappop(heap)
            if not heap:
                break
            dmin, v = heap[0]
            if dmin * n_cur >= e_cur:
                break
            heapq.heappop(heap)
            before = Fraction(2 * e_cur, n_cur)
            alive[v] = False
            n_cur -= 1
            e_cur -= dmin
            for w in g.neighbors(v):
                w = int(w)
                if alive[w]:
                    deg[w] -= 1
                    heapq.heappush(heap, (int(deg[w]), w))
            trace.append(("min_degree_peel", 1, before, Fraction(2 * e_cur, n_cur)))

    while True:
        peel_phase()
        members = np.flatnonzero(alive)
        sub = induced_subgraph(g, members)
        if n_cur <= floor_n or n_cur < 3:
            mode = MODE_BELOW_THRESHOLD
            break
        scales = derived_scales(sub.graph.n, p)
        search = {"budget_exhausted": False}
        q = find_violating_set(sub.graph, scales, p, small_set_mode, budget_ops, report=search)
        if q is None:
            budget_exhausted = search["budget_exhausted"]
            mode = MODE_SMALL_SET if small_set_mode else MODE_PLAIN
            break
        before = Fraction(2 * e_cur, n_cur)
        step = dichotomy_step(sub.graph, q, before)
        survivors = members[step.kept]
        alive[:] = False
        alive[survivors] = True
        # recompute degrees/counters on the survivor set
        flat, counts = _gather(g, survivors)
        deg[:] = 0
        deg[survivors] = _row_sums(alive[flat], counts)
        e_cur = int(deg.sum()) // 2
        n_cur = len(survivors)
        heap = list(zip(deg[survivors].tolist(), survivors.tolist()))
        heapq.heapify(heap)
        action = "cut_drop" if step.branch == BRANCH_DROP else "cut_contract"
        trace.append((action, step.set_size, before, Fraction(2 * e_cur, n_cur)))

    achieved = Fraction(2 * sub.graph.edge_count, sub.graph.n)
    result = ExtractionResult(
        subgraph=sub,
        mode=mode,
        trace=trace,
        achieved_density=achieved,
        input_density=input_density,
        search_budget_exhausted=budget_exhausted,
    )
    guarantee = (1 - (2 if small_set_mode else 1) * Fraction(p.delta)) * input_density
    if achieved < guarantee:
        raise InvariantViolation(
            f"extraction lost too much density: {achieved} < {guarantee}"
        )
    if sub.graph.n > 1 and 2 * sub.graph.min_degree() < achieved:
        raise InvariantViolation("extraction stopped with min degree below half average")
    return result
