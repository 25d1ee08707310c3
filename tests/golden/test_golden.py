"""Golden fingerprints: every pipeline output on a fixed set of specs.

Each spec is run through its pipeline and reduced to the outcome, the route,
the witness size, a sha256 of the canonical witness JSON, the length of the
extraction trace and the achieved density.  The stored file pins the
determinism contract: a refactor that changes any witness fails here.  A
change that alters outputs on purpose regenerates the file with

    PYTHONPATH=src python tests/golden/test_golden.py --regen

and says why in CHANGES.md.
"""

import hashlib
import json
import sys
from pathlib import Path

from minorkit import (
    GeneratorSpec,
    MinorModel,
    SubdivisionModel,
    find_minor_pipeline,
    find_subdivision_pipeline,
    generate,
)

GOLDEN = Path(__file__).with_name("fingerprints.json")

# (pipeline mode, t, family, n, param, blob_count, seed).  The extracted
# graphs range from 30 to 2047 vertices, on both sides of 256.
SPECS = [
    ("minor", 4, "gnp_avg_degree", 200, 30.0, 1, 1),
    ("minor", 4, "gnp_avg_degree", 1024, 40.0, 1, 1),
    ("minor", 4, "gnp_avg_degree", 300, 2.5, 1, 1),  # long peel trace
    ("minor", 5, "gnp_avg_degree", 2048, 40.0, 1, 4),
    ("minor", 4, "random_regular", 300, 20.0, 1, 2),
    ("minor", 3, "grid_torus", 100, 0.0, 1, 0),
    ("minor", 4, "dense_blobs", 600, 0.5, 3, 3),  # one violating-set cut
    ("minor", 4, "dense_blobs", 90, 0.9, 3, 1),  # handoff
    ("subdivision", 3, "gnp_avg_degree", 1000, 400.0, 1, 1),  # dense
    ("subdivision", 3, "gnp_avg_degree", 1024, 60.0, 1, 5),  # sparse-direct
    ("subdivision", 3, "gnp_avg_degree", 240, 60.0, 1, 9),  # sparse-direct
    ("subdivision", 3, "random_regular", 512, 60.0, 1, 6),  # sparse-direct
    ("subdivision", 3, "random_regular", 600, 12.0, 1, 3),  # sparse units, connected
    ("subdivision", 3, "dense_blobs", 90, 0.9, 3, 2),  # handoff
    ("minor_or_subdivision", 3, "dense_blobs", 600, 0.6, 3, 7),  # minor-fallback
    ("minor_or_subdivision", 3, "dense_blobs", 90, 0.9, 3, 3),  # fallback in the handoff graph
]


def spec_key(spec) -> str:
    mode, t, family, n, param, blobs, seed = spec
    return f"{mode} t={t} {family}(n={n},param={param},blobs={blobs},seed={seed})"


def graph_of(spec):
    _mode, _t, family, n, param, blobs, seed = spec
    return generate(
        GeneratorSpec(family=family, n=n, param=param, blob_count=blobs, seed=seed),
        with_girth=False,
    ).graph


def run_spec(spec):
    """The spec's pipeline result."""
    mode, t = spec[:2]
    g = graph_of(spec)
    if mode == "minor":
        return find_minor_pipeline(g, t, 1.0)
    return find_subdivision_pipeline(g, t, 1.0, mode=mode)


def fingerprint(spec) -> dict:
    res = run_spec(spec)
    witness = res.model
    canonical = json.dumps(
        witness.to_json_dict() if witness is not None else None,
        sort_keys=True, separators=(",", ":"),
    )
    return {
        "outcome": res.outcome,
        "route": res.route,
        "total_vertices": witness.total_vertices if witness is not None else None,
        "witness_sha256": hashlib.sha256(canonical.encode()).hexdigest(),
        "trace_length": len(res.extraction.trace),
        "achieved_density": str(res.extraction.achieved_density),
    }


def compute_all() -> dict:
    return {spec_key(spec): fingerprint(spec) for spec in SPECS}


def test_golden_fingerprints():
    stored = json.loads(GOLDEN.read_text())
    computed = compute_all()
    assert sorted(computed) == sorted(stored)
    changed = [key for key in computed if computed[key] != stored[key]]
    assert not changed, {key: (stored[key], computed[key]) for key in changed}


def test_model_is_the_certified_witness_of_the_outcome():
    # both pipelines put their witness, a fallback minor included, in model
    for spec in SPECS:
        res = run_spec(spec)
        assert (res.model is not None) == (res.outcome in ("minor", "subdivision")), spec
        assert isinstance(res.model, MinorModel) == (res.outcome == "minor"), spec
        assert isinstance(res.model, SubdivisionModel) == (res.outcome == "subdivision"), spec


if __name__ == "__main__":
    if sys.argv[1:] != ["--regen"]:
        sys.exit("usage: python tests/golden/test_golden.py --regen")
    GOLDEN.write_text(json.dumps(compute_all(), indent=1, sort_keys=True) + "\n")
