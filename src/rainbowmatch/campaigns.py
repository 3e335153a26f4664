"""Seeded experiment campaigns over random properly coloured instances.

A campaign sweeps minimum-degree values, generates seeded random graphs of
the order prescribed by the configuration, colours each one several times,
and asks the exact solver whether a rainbow matching of the target size
exists.  The exact solver is always the verdict; the rule engine runs
alongside as a reported metric.  Each colouring yields one record, built
once by a function that writes nothing; :func:`run_campaign` then reads the
violation lines, the witness files and the per-degree cells off the
records.  Two runs with equal configuration produce byte-identical result
files: every random choice flows from the master seed through
:func:`derive_seed`.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

from .auditor import chain_order
from .engine import run_engine
from .generators import greedy_proper_coloring, random_graph_min_degree
from .errors import WrongWitness
from .graphs import EdgeColoredGraph, bound_n, is_rainbow_matching, min_degree
from .io import dumps_graph, records_to_csv, to_json
from .solver import max_rainbow_matching, solve_decision

DEFAULT_NODE_BUDGET = 10 ** 8


def derive_seed(master_seed: int, *parts) -> int:
    """Stable per-instance seed: hash of the master seed and a label path."""
    text = ":".join([str(master_seed), *(str(p) for p in parts)])
    digest = hashlib.sha256(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big")


def lesaulnier_threshold(delta: int) -> int:
    """Guaranteed size for any properly coloured graph outside the
    exceptional family: half the minimum degree, rounded up."""
    return (delta + 1) // 2


def lesaulnier_exception(graph: EdgeColoredGraph) -> bool:
    """Exceptional instances exempt from the half-degree guarantee: the
    complete graph on 4 vertices, or order exactly minimum degree plus 2."""
    m = len(graph.edges)
    if graph.n == 4 and m == 6:
        return True
    return graph.n == min_degree(graph) + 2


def wang_threshold(delta: int) -> int:
    """Guaranteed size when the order is at least 8/5 of the minimum
    degree: three fifths of the degree, rounded down."""
    return 3 * delta // 5


def wang_applies(n: int, delta: int) -> bool:
    return 5 * n >= 8 * delta


@dataclass(frozen=True)
class CampaignConfig:
    """Fully determines a campaign; equal configs give identical files."""

    deltas: tuple[int, ...]
    n_rule: str = "bound"          # "bound", "bound+K", "bound-K", "fixed:N" or "chain"
    samples: int = 500
    recolorings: int = 3           # extra colourings per graph, beyond the first
    master_seed: int = 0
    engine_depth: int = 3
    node_budget: int = DEFAULT_NODE_BUDGET
    extra_edge_prob: float = 0.0

    def n_for(self, delta: int) -> int:
        rule = self.n_rule.strip()
        if rule.startswith("fixed:"):
            return int(rule[len("fixed:"):])
        if rule == "bound":
            return bound_n(delta)
        if rule == "chain":
            return chain_order(delta)
        if rule.startswith("bound+"):
            return bound_n(delta) + int(rule[len("bound+"):])
        if rule.startswith("bound-"):
            return bound_n(delta) - int(rule[len("bound-"):])
        raise ValueError(f"bad n_rule: {self.n_rule!r}")

    def config_hash(self) -> str:
        canon = json.dumps(to_json(self), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(canon.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class InstanceRecord:
    """One solved colouring; enough to replay it from the config alone."""

    config_hash: str
    delta: int
    n: int
    graph_index: int
    recoloring_index: int
    graph_seed: int
    color_seed: int
    edges: int
    status: str                    # "ok" or "inconclusive"
    found_size: int
    nodes: int
    theorem_applicable: bool
    theorem_ok: bool | None
    lesaulnier_flagged: bool
    lesaulnier_ok: bool | None
    wang_applicable: bool
    wang_ok: bool | None
    engine_size: int
    engine_steps: int


@dataclass(frozen=True)
class CellResult:
    delta: int
    n: int
    instances: int
    ok: int
    failures: int
    inconclusive: int
    success_fraction: float
    engine_success_fraction: float


@dataclass
class CampaignResult:
    config: CampaignConfig
    config_hash: str
    records: list[InstanceRecord]
    cells: list[CellResult]
    violations: list[str]
    witness_files: list[str]


def _verdict(size: int, optimal: bool, need: int) -> bool | None:
    """Whether a rainbow matching of size ``need`` exists: True on a
    witness, False once the search that found ``size`` ran to exhaustion,
    None (unknown) otherwise."""
    if size >= need:
        return True
    return False if optimal else None


def _checked(graph: EdgeColoredGraph, res):
    """``res``, once its witness is a rainbow matching of ``res.size``
    edges in ``graph``; every True verdict rests on a checked witness.
    Raises :class:`WrongWitness` otherwise, so a wrong one is never counted."""
    if len(res.best) != res.size or not is_rainbow_matching(graph, res.best):
        raise WrongWitness(f"size {res.size} reported with witness {res.best!r}")
    return res


def _instance_record(graph: EdgeColoredGraph, flagged: bool,
                     config: CampaignConfig, ids: tuple) -> InstanceRecord:
    """The record of one colouring: solve it exactly, run the engine and
    apply the weaker-bound checks.  ``flagged`` is
    :func:`lesaulnier_exception` of the graph; ``ids`` holds the record's
    first seven fields, which identify it: config hash, delta, n, graph and
    recolouring index, graph and colour seed."""
    delta = ids[1]
    res = final = _checked(graph, solve_decision(graph, delta, config.node_budget))
    nodes = res.nodes_explored
    if res.size < delta and res.optimal:
        # Definite negative; get the true optimum for the weaker checks.
        final = _checked(graph, max_rainbow_matching(graph, config.node_budget))
        nodes += final.nodes_explored
    theorem_ok = _verdict(res.size, res.optimal, delta)
    eng = run_engine(graph, delta, config.engine_depth,
                     node_budget=config.node_budget)
    return InstanceRecord(
        *ids, edges=len(graph.edges),
        status="ok" if theorem_ok or final.optimal else "inconclusive",
        found_size=final.size, nodes=nodes,
        theorem_applicable=graph.n >= bound_n(delta), theorem_ok=theorem_ok,
        lesaulnier_flagged=flagged,
        lesaulnier_ok=_verdict(final.size, final.optimal, lesaulnier_threshold(delta)),
        wang_applicable=wang_applies(graph.n, delta),
        wang_ok=_verdict(final.size, final.optimal, wang_threshold(delta)),
        engine_size=eng.size, engine_steps=len(eng.trace))


def _violations(rec: InstanceRecord) -> list[str]:
    """The guarantees ``rec`` breaks, in theorem, LeSaulnier, Wang order."""
    if False not in (rec.theorem_ok, rec.lesaulnier_ok, rec.wang_ok):
        return []
    return [kind for kind, broken in (
        ("theorem", rec.theorem_applicable and rec.theorem_ok is False),
        ("lesaulnier", rec.lesaulnier_ok is False and not rec.lesaulnier_flagged),
        ("wang", rec.wang_applicable and rec.wang_ok is False)) if broken]


def run_campaign(config: CampaignConfig, out_dir: str | Path | None = None) -> CampaignResult:
    """Run the full sweep.  ``out_dir`` (optional) receives witness dumps
    for any violated guarantee; it is created with the first one."""
    if len(set(config.deltas)) != len(config.deltas):
        raise ValueError(f"repeated minimum degree in {list(config.deltas)}")
    if config.samples < 1:
        raise ValueError(f"samples must be at least 1, got {config.samples}")
    if config.recolorings < 0:
        raise ValueError(f"recolorings must be at least 0, got {config.recolorings}")
    config_hash = config.config_hash()
    records, cells, violations, witness_files = [], [], [], []
    for delta in config.deltas:
        n = config.n_for(delta)
        cell = []
        for i in range(config.samples):
            gseed = derive_seed(config.master_seed, "graph", delta, n, i)
            base = random_graph_min_degree(n, delta, gseed, config.extra_edge_prob)
            for j in range(config.recolorings + 1):
                cseed = derive_seed(config.master_seed, "color", delta, n, i, j)
                graph = greedy_proper_coloring(base, cseed)
                if j == 0:
                    # The order, edge count and minimum degree are the base
                    # graph's, whatever the colouring.
                    flagged = lesaulnier_exception(graph)
                rec = _instance_record(graph, flagged, config,
                                       (config_hash, delta, n, i, j, gseed, cseed))
                cell.append(rec)
                for kind in _violations(rec):
                    violations.append(f"{kind} violation: delta={delta} n={n} graph={i} "
                                      f"recoloring={j} size={rec.found_size}")
                    if out_dir is not None:
                        Path(out_dir).mkdir(parents=True, exist_ok=True)
                        path = Path(out_dir) / (f"witness-{kind}-{config_hash}-d{delta}"
                                                f"-n{n}-g{i}-c{j}.txt")
                        path.write_text(dumps_graph(graph), encoding="utf-8")
                        witness_files.append(str(path))
        verdicts = [r.theorem_ok for r in cell]
        ok, total = verdicts.count(True), len(cell)
        cells.append(CellResult(
            delta=delta, n=n, instances=total, ok=ok,
            failures=verdicts.count(False), inconclusive=verdicts.count(None),
            success_fraction=ok / total,
            engine_success_fraction=sum(r.engine_size >= delta for r in cell) / total))
        records += cell
    return CampaignResult(config, config_hash, records, cells, violations, witness_files)


def campaign_to_json(result: CampaignResult) -> str:
    payload = {
        "config": to_json(result.config),
        "config_hash": result.config_hash,
        "cells": to_json(result.cells),
        "instances": to_json(result.records),
        "violations": result.violations,
        "witness_files": [Path(p).name for p in result.witness_files],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_campaign_files(result: CampaignResult, out_dir: str | Path,
                         fmt: str = "csv") -> list[Path]:
    """Write the result files; returns the paths written."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        files = (("cells.csv", records_to_csv(result.cells, CellResult,
                                              config_hash=result.config_hash)),
                 ("instances.csv", records_to_csv(result.records, InstanceRecord)))
    elif fmt == "json":
        files = (("campaign.json", campaign_to_json(result)),)
    else:
        raise ValueError(f"unknown format: {fmt!r}")
    for name, text in files:
        (out / name).write_text(text, encoding="utf-8")
    return [out / name for name, _ in files]
