"""The benchmark's inputs, made from the workload seed.

Sparse inputs come from minorkit's own ``generate``; that call is part of
the set-up the benchmark times.  Dense inputs come from the benchmark's own
seeded numpy generator: they are written as edge-list text and the program
reads them with ``parse_graph_text``, so the benchmark knows the exact edge
set the parsed graph must have.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

EPSILON = 1.0  # the density margin the acceptance criteria use


@dataclass(frozen=True)
class InputSpec:
    """One pipeline input: how to make the graph and which call to run on it.

    ``call`` is ``minor`` (``find_minor_pipeline``), ``subdivision``
    (``find_subdivision_pipeline``) or ``either`` (the same in
    ``minor_or_subdivision`` mode).
    """

    label: str
    call: str
    t: int
    family: str  # gnp_avg_degree / random_regular (generate) or pockets / gnp_text (parsed)
    n: int
    param: float
    seed: int
    pockets: int = 1
    low: float = 0.0  # density of the sparsest pocket; ``param`` is the densest
    apexes: int = 0  # vertices 0..apexes-1 are joined to every vertex (gnp_text)


def _input_seeds(seed: int, count: int) -> list:
    rng = np.random.default_rng(seed % 2**64)  # numpy takes no negative seed
    return [int(s) for s in rng.integers(0, 2**31 - 1, size=count)]


def workload_inputs(name: str, seed: int) -> list:
    """The inputs of a workload; the same seed gives the same inputs."""
    if name == "minor-sparse":
        s = _input_seeds(seed, 4)
        return [InputSpec(f"gnp(2^14, avg 40) #{i}", "minor", 4, "gnp_avg_degree", 2**14, 40.0, s[i])
                for i in range(4)]
    if name == "subdivision-sparse":
        s = _input_seeds(seed, 4)
        return [spec for i in range(2) for spec in (
            InputSpec(f"gnp(2^12, avg 60) #{i}", "subdivision", 3, "gnp_avg_degree", 2**12, 60.0, s[2 * i]),
            InputSpec(f"regular(2^11, 80) #{i}", "subdivision", 3, "random_regular", 2**11, 80.0, s[2 * i + 1]),
        )]
    if name == "dense-either":
        s = _input_seeds(seed, 6)
        return [spec for i in range(2) for spec in (
            InputSpec(f"6 pockets of 200, p=0.55..0.8 #{i}", "either", 3, "pockets", 1200, 0.8, s[3 * i],
                      pockets=6, low=0.55),
            InputSpec(f"8 pockets of 150, p=0.6..0.8 #{i}", "either", 4, "pockets", 1200, 0.8, s[3 * i + 1],
                      pockets=8, low=0.6),
            InputSpec(f"gnp(1000, avg 400) + 24 apexes #{i}", "either", 3, "gnp_text", 1000, 400.0,
                      s[3 * i + 2], apexes=24),
        )]
    raise ValueError(f"unknown workload {name!r}")


WORKLOADS = ("minor-sparse", "subdivision-sparse", "dense-either")


def dense_edges(spec: InputSpec) -> tuple:
    """Edge arrays ``(u, v)`` with ``u < v`` for a text-loaded input.

    ``pockets``: ``spec.pockets`` disjoint equal blocks, block i a G(size,
    p_i) with p_i rising evenly from ``spec.low`` to ``spec.param``.  The
    pockets share no edge: already one or two edges between pockets make
    them expand at the rate the program tests, and then no cut fires.  With
    graded densities the extraction cuts the pockets away one at a time,
    sparsest first, so the number of cuts hardly depends on the seed; with
    equal densities it ranged from 1 to 6 over seeds, and the solve time
    with it.
    ``gnp_text``: G(n, p) with p = param / (n - 1), plus every edge at
    vertices ``0..spec.apexes-1``.  The apexes keep the dense unit route
    from depending on the seed: the star split puts them all in the first
    star, and the ball growth of every unit round takes the lowest-id fully
    covered vertex as its hub, which is then an apex.  Every unit then uses
    up 4 or 5 of the 18 stars, and four units were built on all 60 seeds
    tried.  On plain G(n, p) the fourth unit was not built on about 1 seed
    in 10.  The parser takes the vertex count from the highest id; vertex
    ``n - 1`` is joined to the apexes, so it always has an edge.
    """
    rng = np.random.Generator(np.random.PCG64(spec.seed))
    if spec.family == "gnp_text":
        blocks, densities = [spec.n], [spec.param / (spec.n - 1)]
    else:
        blocks = [spec.n // spec.pockets] * spec.pockets
        densities = np.linspace(spec.low, spec.param, spec.pockets)
    us, vs = [], []
    offset = 0
    for size, density in zip(blocks, densities):
        iu, ju = np.triu_indices(size, 1)
        keep = rng.random(len(iu)) < density
        if spec.apexes:
            keep |= iu < spec.apexes
        us.append(iu[keep] + offset)
        vs.append(ju[keep] + offset)
        offset += size
    return np.concatenate(us).astype(np.int64), np.concatenate(vs).astype(np.int64)


def edge_list_text(n: int, u, v) -> str:
    lines = [f"# n = {n}, m = {len(u)}"]
    lines.extend(map("{} {}".format, u.tolist(), v.tolist()))
    return "\n".join(lines) + "\n"
