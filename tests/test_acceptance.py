"""Acceptance suite: one test per shipped guarantee, each printing a
single PASS/FAIL line with the measured numbers.

Run with ``pytest tests/test_acceptance.py`` (plain ``pytest`` includes
it).  The campaign and corpus fixtures are shared across criteria, so the
whole file stays in the minutes range.
"""

import pytest

from rainbowmatch import (
    CampaignConfig,
    bound_n,
    campaign_to_json,
    certify_counting_bound,
    count_rainbow_matchings,
    count_transversals,
    cyclic_square,
    dumps_graph,
    greedy_proper_coloring,
    is_rainbow_matching,
    latin_to_graph,
    lesaulnier_threshold,
    max_rainbow_matching,
    min_degree,
    random_graph_min_degree,
    random_latin,
    replay_trace,
    run_campaign,
    run_engine,
    wang_applies,
    wang_threshold,
)

from conftest import (
    brute_max_rainbow,
    cells_csv,
    independent_is_proper,
    instances_csv,
    k4_one_factorization,
)

CAMPAIGN_CONFIG = CampaignConfig(deltas=(2, 3, 4), samples=500, recolorings=3,
                                 master_seed=0)


@pytest.fixture(scope="module")
def campaign():
    return run_campaign(CAMPAIGN_CONFIG)


@pytest.fixture(scope="module")
def corpus_with_optima(small_corpus):
    return [(g, brute_max_rainbow(g)) for g in small_corpus]


def report(capsys, number: int, ok: bool, detail: str) -> None:
    with capsys.disabled():
        print(f"ACCEPTANCE {number}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, detail


def test_acceptance_1_theorem_campaign(campaign, capsys):
    total = len(campaign.records)
    failures = sum(1 for r in campaign.records if r.theorem_ok is not True)
    expected = sum(CAMPAIGN_CONFIG.samples * (CAMPAIGN_CONFIG.recolorings + 1)
                   for _ in CAMPAIGN_CONFIG.deltas)
    ok = total == expected and failures == 0
    ok = ok and all(c.n == bound_n(c.delta) for c in campaign.cells)
    report(capsys, 1, ok,
           f"size-delta rainbow matching in {total - failures}/{total} "
           f"instances at the proven order (deltas 2,3,4; zero tolerance)")


def test_acceptance_2_oracle_equivalence(corpus_with_optima, capsys):
    mismatches = 0
    for graph, truth in corpus_with_optima:
        res = max_rainbow_matching(graph)
        if not (res.optimal and res.size == truth
                and is_rainbow_matching(graph, res.best)
                and len(res.best) == truth):
            mismatches += 1
    total = len(corpus_with_optima)
    report(capsys, 2, mismatches == 0,
           f"exact solver agrees with subset enumeration on "
           f"{total - mismatches}/{total} random instances")


def test_acceptance_3_engine_soundness(corpus_with_optima, capsys):
    bad = 0
    for graph, truth in corpus_with_optima:
        eng = run_engine(graph, min_degree(graph) if graph.n else 0)
        sound = (is_rainbow_matching(graph, eng.best)
                 and all(graph.has_edge(u, v, c) for u, v, c in eng.best.edges)
                 and eng.size <= truth
                 and replay_trace(eng.trace) == eng.best)
        for step in eng.trace[1:]:
            if step.added or step.removed:
                sound = sound and len(step.added) - len(step.removed) == 1
        if not sound:
            bad += 1
    total = len(corpus_with_optima)
    report(capsys, 3, bad == 0,
           f"engine output valid, dominated by the optimum, each rule step "
           f"nets +1 and traces replay on {total - bad}/{total} instances")


def test_acceptance_4_known_values(capsys):
    k4 = max_rainbow_matching(k4_one_factorization())
    checks = [k4.optimal and k4.size == 1]
    expected = {3: 3, 4: 0, 5: 15}
    for n, want in expected.items():
        square = cyclic_square(n)
        direct = count_transversals(square)
        via_graph = count_rainbow_matchings(latin_to_graph(square), n)
        checks.append(direct == want and via_graph == want)
    report(capsys, 4, all(checks),
           "complete-graph optimum 1 and cyclic transversal counts "
           "3/0/15 confirmed by both counters")


def test_acceptance_5_weaker_bounds(campaign, capsys):
    unflagged = 0
    for r in campaign.records:
        if r.lesaulnier_ok is False and not r.lesaulnier_flagged:
            unflagged += 1
        if r.wang_applicable and r.wang_ok is False:
            unflagged += 1
        if r.status == "ok" and not r.lesaulnier_flagged:
            if r.found_size < lesaulnier_threshold(r.delta):
                unflagged += 1
        if r.status == "ok" and wang_applies(r.n, r.delta):
            if r.found_size < wang_threshold(r.delta):
                unflagged += 1
    ok = unflagged == 0 and campaign.violations == []
    report(capsys, 5, ok,
           f"half-degree and three-fifths guarantees hold with "
           f"{unflagged} unflagged violations across "
           f"{len(campaign.records)} campaign instances")


def test_acceptance_6_counting_certification(capsys):
    worst_margin = None
    failed = []
    for delta in range(2, 201):
        res = certify_counting_bound(delta)
        if not (res.holds and res.margin > 0 and res.forms_agree):
            failed.append(delta)
        if worst_margin is None or res.margin < worst_margin:
            worst_margin = res.margin
    report(capsys, 6, not failed,
           f"counting bound certified for all degrees 2..200, "
           f"smallest margin {worst_margin} (> 0 required)")


def test_acceptance_7_generator_contracts(capsys):
    bad = 0
    for seed in range(10_000):
        n = 5 + seed % 8
        delta = 1 + seed % min(4, n - 1)
        base = random_graph_min_degree(n, delta, seed)
        graph = greedy_proper_coloring(base, seed)
        if not independent_is_proper(graph.n, graph.edges):
            bad += 1
        elif min_degree(graph) < delta:
            bad += 1
        elif seed % 100 == 0:
            again = greedy_proper_coloring(
                random_graph_min_degree(n, delta, seed), seed)
            if dumps_graph(again) != dumps_graph(graph):
                bad += 1
    cfg = CampaignConfig(deltas=(2,), samples=3, recolorings=1, master_seed=9)
    first, second = run_campaign(cfg), run_campaign(cfg)
    reproducible = (cells_csv(first) == cells_csv(second)
                    and instances_csv(first) == instances_csv(second)
                    and campaign_to_json(first) == campaign_to_json(second))
    ok = bad == 0 and reproducible
    report(capsys, 7, ok,
           f"{10_000 - bad}/10000 generated colourings proper with the "
           f"promised minimum degree; repeated seeds byte-identical")


def test_acceptance_8_odd_order_transversals(capsys):
    missing = 0
    for n in (1, 3, 5, 7):
        for i in range(50):
            if count_transversals(random_latin(n, 1_000 * n + i)) < 1:
                missing += 1
    even_bad = [n for n in (2, 4, 6, 8)
                if count_transversals(cyclic_square(n)) != 0]
    ok = missing == 0 and not even_bad
    report(capsys, 8, ok,
           f"all 200 random odd-order squares have a transversal "
           f"({missing} missing); even cyclic orders 2..8 have none")
