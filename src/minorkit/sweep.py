"""Experiment sweeps: run a pipeline per generator spec, certify, persist.

Records are deterministic functions of (spec, t, epsilon, mode) apart from
``runtime_ms``; nothing about control flow depends on the clock.  A witness
is recorded as a success only after the independent verifier accepted it, so
no record with outcome ``minor``/``subdivision`` ever carries
``verifier_valid == False``.

Sweep entries are independent of each other and could run on a worker pool;
they execute sequentially here and are reported in spec order regardless.
"""

from __future__ import annotations

import csv
import json
import math
import time
from dataclasses import dataclass
from typing import Optional

from .generate import GeneratorSpec, generate
from .minor import find_minor_pipeline
from .subdivision import (
    MODE_MINOR_OR_SUBDIVISION,
    MODE_SUBDIVISION,
    find_subdivision_pipeline,
)
from .verify import verify_minor_model, verify_subdivision

SWEEP_MODES = ("minor", MODE_SUBDIVISION, MODE_MINOR_OR_SUBDIVISION)

CSV_COLUMNS = [
    "family", "n", "param", "blob_count", "seed", "t", "epsilon", "mode",
    "delta", "eta", "sigma", "f_m", "k", "outcome", "witness_size", "log_n",
    "ratio", "runtime_ms", "verifier_valid", "search_budget_exhausted", "detail",
]


@dataclass
class ExperimentRecord:
    spec: GeneratorSpec
    t: int
    epsilon: float
    mode: str
    outcome: str  # minor | subdivision | handoff | stalled | error
    witness_size: Optional[int] = None
    log_n: float = 0.0
    ratio: Optional[float] = None
    runtime_ms: float = 0.0
    verifier_valid: bool = False
    delta: Optional[float] = None
    eta: Optional[float] = None
    sigma: Optional[float] = None
    f_m: Optional[float] = None
    k: Optional[int] = None
    search_budget_exhausted: Optional[bool] = None  # None when no extraction ran
    detail: str = ""

    def to_json_dict(self) -> dict:
        return {
            "spec": self.spec.to_json_dict(),
            "t": self.t,
            "epsilon": self.epsilon,
            "mode": self.mode,
            "outcome": self.outcome,
            "witness_size": self.witness_size,
            "log_n": self.log_n,
            "ratio": self.ratio,
            "runtime_ms": self.runtime_ms,
            "verifier_valid": self.verifier_valid,
            "delta": self.delta,
            "eta": self.eta,
            "sigma": self.sigma,
            "f_m": self.f_m,
            "k": self.k,
            "search_budget_exhausted": self.search_budget_exhausted,
            "detail": self.detail,
        }

    def csv_row(self) -> list:
        s = self.spec
        return [
            s.family, s.n, s.param, s.blob_count, s.seed, self.t, self.epsilon,
            self.mode, self.delta, self.eta, self.sigma, self.f_m, self.k, self.outcome,
            self.witness_size, f"{self.log_n:.6f}",
            "" if self.ratio is None else f"{self.ratio:.6f}",
            f"{self.runtime_ms:.3f}", self.verifier_valid,
            "" if self.search_budget_exhausted is None else self.search_budget_exhausted,
            self.detail,
        ]


def run_one(
    spec: GeneratorSpec,
    t: int,
    epsilon: float,
    mode: str = "minor",
    stop_floor: int = 32,
    budget_ops: Optional[int] = None,
) -> ExperimentRecord:
    if mode not in SWEEP_MODES:
        raise ValueError(f"unknown sweep mode {mode!r}")
    g = generate(spec, with_girth=False).graph
    start = time.perf_counter()
    record = ExperimentRecord(
        spec=spec, t=t, epsilon=epsilon, mode=mode, outcome="stalled",
        log_n=math.log(g.n) if g.n > 1 else 0.0,
    )
    if mode == "minor":
        res = find_minor_pipeline(g, t, epsilon, stop_floor=stop_floor, budget_ops=budget_ops)
    else:
        res = find_subdivision_pipeline(
            g, t, epsilon, mode=mode, stop_floor=stop_floor, budget_ops=budget_ops
        )
    record.runtime_ms = (time.perf_counter() - start) * 1000.0
    record.detail = res.detail
    if res.params is not None:
        record.delta = res.params.delta
        record.eta = res.params.eta
        record.sigma = res.params.sigma
    if res.scales is not None:
        record.f_m = res.scales.f_m
        record.k = res.scales.k
    if res.extraction is not None:
        record.search_budget_exhausted = res.extraction.search_budget_exhausted
    model = res.model
    if model is not None:
        verifier = verify_minor_model if res.outcome == "minor" else verify_subdivision
        report = verifier(g, model)
        if report.valid:
            record.outcome = res.outcome
            record.verifier_valid = True
            record.witness_size = model.total_vertices
            if record.log_n > 0:
                record.ratio = model.total_vertices / record.log_n
        else:
            # the pipeline certified this witness itself, so a rejection here
            # means the two checks disagree: a bug, not a stall
            record.outcome = "error"
            record.detail = f"verifier rejected the witness: {report.violations}"
    elif res.outcome == "handoff":
        record.outcome = "handoff"
        if res.brute_force_answer is not None:
            record.detail += f" | brute-force minor answer: {res.brute_force_answer}"
    return record


def run_experiment_sweep(
    specs: list,
    t: int,
    epsilon: float,
    mode: str = "minor",
    stop_floor: int = 32,
    budget_ops: Optional[int] = None,
) -> list:
    """Run the chosen pipeline for every spec; per-spec failures never abort the sweep."""
    records = []
    for spec in specs:
        try:
            records.append(run_one(spec, t, epsilon, mode, stop_floor, budget_ops))
        except Exception as exc:  # noqa: BLE001 - a bug or bad spec is an error, not a stall
            records.append(
                ExperimentRecord(
                    spec=spec, t=t, epsilon=epsilon, mode=mode,
                    outcome="error", detail=f"{type(exc).__name__}: {exc}",
                )
            )
    return records


def write_records_json(records: list, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in records], fh, indent=2)


def write_records_csv(records: list, path) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.csv_row())
