import gc
import json

import pytest

from rainbowmatch import (
    CampaignConfig,
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

from conftest import c4, cells_csv, instances_csv, k4_one_factorization, k33_cyclic


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
