import gc
import json

import pytest

from rainbowmatch import (
    CampaignConfig,
    CellResult,
    Matching,
    SolveResult,
    WrongWitness,
    audit_stuck_state,
    bound_n,
    build_graph,
    campaign_to_json,
    campaigns,
    count_rainbow_matchings,
    derive_seed,
    dumps_graph,
    greedy_proper_coloring,
    lesaulnier_exception,
    lesaulnier_threshold,
    max_rainbow_matching,
    parse_graph,
    random_graph_min_degree,
    records_to_csv,
    run_campaign,
    run_engine,
    solve_decision,
    to_json,
    wang_applies,
    wang_threshold,
    write_campaign_files,
)

from conftest import (
    c4,
    cells_csv,
    instances_csv,
    k4_one_factorization,
    k33_cyclic,
    no_solver,
)


# ------------------------------------------------------------ seed derivation

def test_derive_seed_is_stable_and_sensitive():
    a = derive_seed(0, "graph", 2, 7, 0)
    assert a == derive_seed(0, "graph", 2, 7, 0)
    assert 0 <= a < 2 ** 64
    others = {
        derive_seed(0, "graph", 2, 7, 1),
        derive_seed(0, "color", 2, 7, 0),
        derive_seed(1, "graph", 2, 7, 0),
    }
    assert a not in others and len(others) == 3


# ------------------------------------------------------- weaker-bound checks

def test_thresholds():
    assert [lesaulnier_threshold(d) for d in (1, 2, 3, 4, 5, 10)] == [1, 1, 2, 2, 3, 5]
    assert [wang_threshold(d) for d in (1, 2, 3, 4, 5, 10)] == [0, 1, 1, 2, 3, 6]
    assert wang_applies(8, 5) and not wang_applies(7, 5)
    assert wang_applies(16, 10) and not wang_applies(15, 10)


def test_lesaulnier_exception_membership():
    assert lesaulnier_exception(k4_one_factorization())        # complete on 4
    assert lesaulnier_exception(c4())                          # n = delta + 2
    assert not lesaulnier_exception(k33_cyclic())
    path = build_graph(3, [(0, 1, 1), (1, 2, 2)])
    assert lesaulnier_exception(path)                          # 3 = 1 + 2


# --------------------------------------------------------------- configuration

def test_n_rule_parsing():
    cfg = CampaignConfig(deltas=(2, 3))
    assert cfg.n_for(2) == bound_n(2) == 7
    assert CampaignConfig(deltas=(2,), n_rule="bound+2").n_for(2) == 9
    assert CampaignConfig(deltas=(2,), n_rule="bound-1").n_for(3) == 10
    assert CampaignConfig(deltas=(2,), n_rule="fixed:9").n_for(5) == 9
    chain = CampaignConfig(deltas=(2,), n_rule="chain")
    assert [chain.n_for(d) for d in (2, 6, 20)] == [7, 24, 85]
    with pytest.raises(ValueError, match="delta must be at least 2"):
        chain.n_for(1)
    with pytest.raises(ValueError):
        CampaignConfig(deltas=(2,), n_rule="twice").n_for(2)


def test_config_hash_tracks_content():
    base = CampaignConfig(deltas=(2, 3), samples=5)
    same = CampaignConfig(deltas=(2, 3), samples=5)
    assert base.config_hash() == same.config_hash()
    assert len(base.config_hash()) == 12
    assert int(base.config_hash(), 16) >= 0
    changed = CampaignConfig(deltas=(2, 3), samples=6)
    assert base.config_hash() != changed.config_hash()


# -------------------------------------------------------------- campaign runs

SMALL = CampaignConfig(deltas=(2,), samples=3, recolorings=1, master_seed=7)


def test_small_campaign_shape_and_success():
    result = run_campaign(SMALL)
    assert result.config_hash == SMALL.config_hash()
    assert len(result.records) == 3 * 2
    assert len(result.cells) == 1
    cell = result.cells[0]
    assert (cell.delta, cell.n) == (2, 7)
    assert cell.instances == 6 and cell.failures == 0
    assert cell.success_fraction == 1.0       # order meets the proven bound
    assert result.violations == [] and result.witness_files == []
    for rec in result.records:
        assert rec.status == "ok" and rec.theorem_applicable
        assert rec.theorem_ok and rec.lesaulnier_ok and rec.wang_ok
        assert rec.found_size >= 2 and rec.engine_size >= 0


def test_node_budget_hit_is_inconclusive_never_ok_or_failure():
    config = CampaignConfig(deltas=(2, 3), samples=3, recolorings=1,
                            master_seed=7, node_budget=1)
    result = run_campaign(config)
    assert len(result.records) == 2 * 3 * 2
    for rec in result.records:
        assert rec.status == "inconclusive" and rec.theorem_ok is None
    for cell in result.cells:
        assert (cell.ok, cell.failures) == (0, 0)
        assert cell.inconclusive == cell.instances
    assert result.violations == [] and result.witness_files == []


def _wrong_witness(graph, k, *args, **kwargs):
    """A solver that reports size k with k edges that all meet vertex 0."""
    edges = [e for e in graph.edges if e[0] == 0][:k]
    return SolveResult(Matching(edges), k, True, 1)


def test_wrong_witness_raises_and_is_never_counted(monkeypatch):
    monkeypatch.setattr(campaigns, "solve_decision", _wrong_witness)
    with pytest.raises(WrongWitness):
        run_campaign(SMALL)


def _tally(records, delta, n):
    """The cell that ``records`` of one minimum degree make, counted here."""
    verdicts = [r.theorem_ok for r in records]
    total = len(records)
    engine_ok = sum(1 for r in records if r.engine_size >= delta)
    return CellResult(delta, n, total, verdicts.count(True), verdicts.count(False),
                      verdicts.count(None), verdicts.count(True) / total,
                      engine_ok / total)


def assert_cells_tally_records(result):
    assert [(c.delta, c.n) for c in result.cells] == [
        (d, result.config.n_for(d)) for d in result.config.deltas]
    for cell in result.cells:
        mine = [r for r in result.records if r.delta == cell.delta]
        assert cell == _tally(mine, cell.delta, cell.n)


# Proven order (theorem applicable) and order 6, where the theorem does not
# apply, some graphs of minimum degree 2 are LeSaulnier exceptions and
# Wang's bound does not apply at minimum degree 4.
VIOLATING = (CampaignConfig(deltas=(2, 3), samples=2, recolorings=1, master_seed=1),
             CampaignConfig(deltas=(2, 4), n_rule="fixed:6", samples=4,
                            recolorings=1, master_seed=1))


def test_violations_and_witnesses_are_read_off_the_records(tmp_path, monkeypatch):
    # With the stand-in every verdict is a proven no, so each record breaks
    # each guarantee that applies to its graph.
    monkeypatch.setattr(campaigns, "solve_decision", no_solver)
    monkeypatch.setattr(campaigns, "max_rainbow_matching", no_solver)
    seen = set()
    for k, config in enumerate(VIOLATING):
        out = tmp_path / f"witness-{k}"
        result = run_campaign(config, out)
        h = config.config_hash()
        assert len(result.records) == (len(config.deltas) * config.samples
                                       * (config.recolorings + 1))
        lines, names = [], []
        for rec in result.records:
            assert rec.theorem_ok is rec.lesaulnier_ok is rec.wang_ok is False
            base = random_graph_min_degree(rec.n, rec.delta, rec.graph_seed,
                                           config.extra_edge_prob)
            graph = greedy_proper_coloring(base, rec.color_seed)
            kinds = [kind for kind, applies in (
                ("theorem", rec.n >= bound_n(rec.delta)),
                ("lesaulnier", not lesaulnier_exception(graph)),
                ("wang", wang_applies(rec.n, rec.delta))) if applies]
            seen.update(kinds)
            seen.update(f"no {kind}" for kind in ("theorem", "lesaulnier", "wang")
                        if kind not in kinds)
            for kind in kinds:
                lines.append(f"{kind} violation: delta={rec.delta} n={rec.n} "
                             f"graph={rec.graph_index} recoloring={rec.recoloring_index} "
                             f"size=0")
                name = (f"witness-{kind}-{h}-d{rec.delta}-n{rec.n}"
                        f"-g{rec.graph_index}-c{rec.recoloring_index}.txt")
                names.append(name)
                assert parse_graph((out / name).read_text(encoding="utf-8")) == graph
        assert result.violations == lines
        assert result.witness_files == [str(out / name) for name in names]
        assert sorted(p.name for p in out.iterdir()) == sorted(names)
        assert_cells_tally_records(result)
        # Without a directory the same violations are reported and nothing
        # is written, not even in the working directory.
        cwd = tmp_path / f"cwd-{k}"
        cwd.mkdir()
        monkeypatch.chdir(cwd)
        bare = run_campaign(config)
        assert bare.violations == lines and bare.witness_files == []
        assert bare.records == result.records and bare.cells == result.cells
        assert list(cwd.iterdir()) == []
    assert seen == {"theorem", "lesaulnier", "wang",
                    "no theorem", "no lesaulnier", "no wang"}


def test_cells_tally_their_records():
    # A 3-node budget leaves witnessed records, unknown ones and proven noes.
    config = CampaignConfig(deltas=(2, 3), n_rule="fixed:5", samples=4,
                            recolorings=1, master_seed=3, node_budget=3)
    result = run_campaign(config)
    assert {r.theorem_ok for r in result.records} == {True, False, None}
    assert_cells_tally_records(result)
    assert_cells_tally_records(run_campaign(SMALL))


def test_repeated_delta_is_rejected():
    with pytest.raises(ValueError, match="repeated minimum degree"):
        run_campaign(CampaignConfig(deltas=(2, 3, 2), samples=1))


def test_campaign_is_reproducible_byte_for_byte():
    first = run_campaign(SMALL)
    second = run_campaign(SMALL)
    assert cells_csv(first) == cells_csv(second)
    assert instances_csv(first) == instances_csv(second)
    assert campaign_to_json(first) == campaign_to_json(second)


def test_record_replays_from_its_seeds():
    result = run_campaign(SMALL)
    rec = result.records[0]
    base = random_graph_min_degree(rec.n, rec.delta, rec.graph_seed,
                                   SMALL.extra_edge_prob)
    graph = greedy_proper_coloring(base, rec.color_seed)
    assert len(graph.edges) == rec.edges
    res = solve_decision(graph, rec.delta, SMALL.node_budget)
    assert (res.size >= rec.delta) == (rec.theorem_ok is True)


def test_campaign_json_payload_is_complete():
    payload = json.loads(campaign_to_json(run_campaign(SMALL)))
    assert payload["config"]["deltas"] == [2]
    assert payload["config_hash"] == SMALL.config_hash()
    assert len(payload["instances"]) == 6 and len(payload["cells"]) == 1
    assert payload["violations"] == []
    row = payload["instances"][0]
    for key in ("graph_seed", "color_seed", "status", "found_size",
                "engine_size", "engine_steps"):
        assert key in row


def test_csv_shapes():
    result = run_campaign(SMALL)
    cells_lines = cells_csv(result).splitlines()
    assert cells_lines[0].startswith("config_hash,delta,n,instances,ok")
    assert len(cells_lines) == 2
    inst_lines = instances_csv(result).splitlines()
    assert len(inst_lines) == 7
    assert inst_lines[1].count(",") == inst_lines[0].count(",")
    # booleans encode as 1/0 and unknowns as empty cells
    fields = inst_lines[1].split(",")
    assert set(fields[11:17]) <= {"0", "1", ""}


def test_write_campaign_files(tmp_path):
    result = run_campaign(SMALL)
    csv_paths = write_campaign_files(result, tmp_path / "csv", fmt="csv")
    assert sorted(p.name for p in csv_paths) == ["cells.csv", "instances.csv"]
    json_paths = write_campaign_files(result, tmp_path / "json", fmt="json")
    assert [p.name for p in json_paths] == ["campaign.json"]
    assert json.loads(json_paths[0].read_text())["config_hash"] == result.config_hash
    with pytest.raises(ValueError):
        write_campaign_files(result, tmp_path / "bad", fmt="xml")


def _every_path():
    """Parse, every solve, the counter, the engine, an audit and a small
    campaign."""
    base = random_graph_min_degree(16, 4, 1)
    graph = parse_graph(dumps_graph(greedy_proper_coloring(base, 1)))
    max_rainbow_matching(graph)
    solve_decision(graph, 4)
    count_rainbow_matchings(graph, 2)
    run_engine(graph, 4)
    audit_stuck_state(k4_one_factorization(), 2)
    run_campaign(CampaignConfig(deltas=(2, 3), samples=2, recolorings=1,
                                master_seed=1))


def test_no_path_changes_the_garbage_collector_state():
    # Graphs hold no collector-tracked object per edge end; no path may
    # get the same effect by switching the collector off or moving its
    # thresholds, from the default state or any other.
    state = (gc.isenabled(), gc.get_threshold())
    try:
        for enabled, threshold in [(True, (700, 10, 10)), (False, (5, 3, 2))]:
            (gc.enable if enabled else gc.disable)()
            gc.set_threshold(*threshold)
            _every_path()
            assert (gc.isenabled(), gc.get_threshold()) == (enabled, threshold)
    finally:
        (gc.enable if state[0] else gc.disable)()
        gc.set_threshold(*state[1])
