import hashlib
import json
from pathlib import Path

import pytest

from rainbowmatch import (
    campaigns,
    dumps_graph,
    dumps_square,
    greedy_proper_coloring,
    latin_to_graph,
    parse_graph,
    random_graph_min_degree,
    random_latin,
)
from rainbowmatch import cli
from rainbowmatch.campaigns import DEFAULT_NODE_BUDGET
from rainbowmatch.cli import build_parser, main
from rainbowmatch.latin import cyclic_square

from conftest import (
    as_pinned_audit,
    c4,
    fresh_interpreter,
    k4_one_factorization,
    k33_cyclic,
    no_solver,
    pendant_star,
)


@pytest.fixture
def k4_file(tmp_path):
    path = tmp_path / "k4.txt"
    path.write_text(dumps_graph(k4_one_factorization()))
    return str(path)


@pytest.fixture
def k33_file(tmp_path):
    path = tmp_path / "k33.txt"
    path.write_text(dumps_graph(k33_cyclic()))
    return str(path)


@pytest.fixture
def pend_file(tmp_path):
    path = tmp_path / "pend.txt"
    path.write_text(dumps_graph(pendant_star()))
    return str(path)


# -------------------------------------------------------------------- solve

def test_solve_text_output(k4_file, capsys):
    assert main(["solve", k4_file]) == 0
    out = capsys.readouterr().out
    assert "n=4 m=6 min_degree=3 colours=3" in out
    assert "optimum 1" in out
    assert "witness: (" in out and "nodes " in out


def test_solve_json_output(k33_file, capsys):
    assert main(["solve", k33_file, "--format", "json", "--engine"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["optimum"] == 3 and payload["optimal"] is True
    assert len(payload["witness"]) == 3
    assert payload["engine"]["target"] == 3
    assert payload["engine"]["size"] == 3
    assert payload["engine"]["gap"] == 0


def test_solve_engine_trace_lines(tmp_path, capsys):
    path = tmp_path / "c4.txt"
    path.write_text(dumps_graph(c4((1, 2, 3, 2))))
    assert main(["solve", str(path), "--engine", "--trace", "--target", "2"]) == 0
    out = capsys.readouterr().out
    trace_lines = [ln for ln in out.splitlines() if ln.startswith("{")]
    assert trace_lines, "expected JSON trace lines"
    for line in trace_lines:
        assert "rule" in json.loads(line)


def test_solve_budget_stops_the_engine(pend_file, capsys):
    # The depth-1 exchange needs 6 core nodes on this graph.
    assert main(["solve", pend_file, "--engine", "--target", "2",
                 "--budget", "5", "--trace"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "engine 1 of target 2" in lines
    assert json.loads(lines[-1]) == {"rule": "R-exchange-1", "removed": [],
                                     "added": [], "note": "node budget hit"}


def test_solve_rejects_negative_budget_and_depth(k4_file, capsys):
    # A negative budget must not pass for "node budget exceeded"; 0 does.
    for flags, message in [(["--budget", "-3"], "node budget must be at least 0"),
                           (["--engine", "--depth", "-1"],
                            "exchange depth must be at least 0")]:
        assert main(["solve", k4_file, *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
    assert main(["solve", k4_file, "--budget", "0"]) == 0
    assert "best_found 0 (node budget exceeded)" in capsys.readouterr().out


def test_solve_reports_parse_error_with_line(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("g 4\ne 0 1\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "line 2" in err


def test_solve_rejects_improper_colouring(tmp_path, capsys):
    path = tmp_path / "improper.txt"
    path.write_text("g 3\ne 0 1 5\ne 1 2 5\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "5" in err
    # A repeated vertex pair, listed in either orientation.
    path.write_text("g 3\ne 0 1 5\ne 1 2 6\ne 1 0 7\n")
    assert main(["solve", str(path)]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "appears more than once" in err


def test_solve_rejects_non_integer_json_values(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"n": 3, "edges": [[0, 1, 1.5]]}))
    assert main(["solve", str(path)]) == 2
    assert "error:" in capsys.readouterr().err


def test_solve_missing_file(capsys):
    assert main(["solve", "/nonexistent/graph.txt"]) == 2
    assert "error:" in capsys.readouterr().err


# ------------------------------------------------------------------- verify

def test_verify_small_campaign(tmp_path, capsys):
    args = ["verify", "--deltas", "2", "--samples", "2", "--recolorings", "1",
            "--seed", "5"]
    assert main(args + ["--out", str(tmp_path / "a")]) == 0
    out = capsys.readouterr().out
    assert out.startswith("config ")
    assert "delta=2 n=7 instances=4 ok=4 failures=0" in out
    assert main(args + ["--out", str(tmp_path / "b")]) == 0
    for name in ("cells.csv", "instances.csv"):
        first = (tmp_path / "a" / name).read_bytes()
        second = (tmp_path / "b" / name).read_bytes()
        assert first == second and first


def test_verify_json_output_file(tmp_path, capsys):
    assert main(["verify", "--deltas", "2", "--samples", "1",
                 "--recolorings", "0", "--out", str(tmp_path),
                 "--format", "json"]) == 0
    payload = json.loads((tmp_path / "campaign.json").read_text())
    assert len(payload["instances"]) == 1


def test_verify_empty_deltas(capsys):
    # An empty sweep would print a clean report having checked nothing.
    for deltas in ("", "5..2"):
        assert main(["verify", "--deltas", deltas, "--samples", "1"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: empty list")


def test_verify_rejects_counts_that_check_nothing(tmp_path, capsys):
    # A probability outside [0, 1] would run as 0 or 1 under its own config
    # hash, a negative budget would leave every instance inconclusive, and a
    # negative depth would run no exchange.
    for flags, message in [
            (["--samples", "0"], "samples must be at least 1"),
            (["--samples", "-1"], "samples must be at least 1"),
            (["--samples", "1", "--recolorings", "-1"],
             "recolorings must be at least 0"),
            (["--prob", "-0.5"],
             "extra edge probability must lie in [0, 1], got -0.5"),
            (["--prob", "nan"], "extra edge probability must lie in [0, 1], got nan"),
            (["--prob", "1.5"], "extra edge probability must lie in [0, 1], got 1.5"),
            (["--budget", "-1"], "node budget must be at least 0, got -1"),
            (["--depth", "-2"], "exchange depth must be at least 0, got -2")]:
        assert main(["verify", "--deltas", "2", "--samples", "2",
                     "--recolorings", "0", "--seed", "1",
                     "--out", str(tmp_path), *flags]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"error: {message}")
        assert not any(tmp_path.iterdir())


@pytest.mark.parametrize("flags, message", [
    pytest.param(["--prob", "7"],
                 "extra edge probability must lie in [0, 1], got 7.0", id="prob=7"),
    pytest.param(["--n-rule", "bogus"], "bad n_rule: 'bogus'", id="n-rule=bogus"),
    # The chain order starts at d = 2, as the certificate does.
    pytest.param(["--n-rule", "chain", "--deltas", "1"], "delta must be at least 2",
                 id="n-rule=chain,deltas=1")])
def test_verify_rejected_run_leaves_no_out_dir(flags, message, tmp_path, capsys):
    out = tmp_path / "newdir"
    assert main(["verify", "--deltas", "2", "--samples", "2",
                 "--recolorings", "0", "--out", str(out), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"
    assert not out.exists()


def test_verify_at_the_chain_order(capsys):
    assert main(["verify", "--n-rule", "chain", "--deltas", "2..6",
                 "--samples", "2", "--seed", "1"]) == 0
    cells = [dict(field.split("=") for field in line.split())
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("delta=")]
    assert [cell["n"] for cell in cells] == ["7", "11", "16", "20", "24"]
    for cell in cells:
        assert (cell["instances"], cell["ok"], cell["failures"],
                cell["inconclusive"]) == ("8", "8", "0", "0")


def test_verify_rejects_repeated_delta(tmp_path, capsys):
    assert main(["verify", "--deltas", "2,2", "--samples", "3",
                 "--recolorings", "1", "--out", str(tmp_path)]) == 2
    assert capsys.readouterr().err.startswith("error: repeated minimum degree")
    assert not any(tmp_path.iterdir())


def test_verify_cell_counts_partition_the_instances(tmp_path, capsys):
    # A 3-node budget leaves proven noes whose optimum search ran out: each
    # counts once, as a failure, and not also as inconclusive.
    assert main(["verify", "--deltas", "2,3", "--n-rule", "fixed:5",
                 "--samples", "4", "--recolorings", "1", "--seed", "3",
                 "--budget", "3", "--out", str(tmp_path)]) == 0
    cells = [dict(field.split("=") for field in line.split())
             for line in capsys.readouterr().out.splitlines()
             if line.startswith("delta=")]
    assert len(cells) == 2
    for cell in cells:
        assert (int(cell["ok"]) + int(cell["failures"])
                + int(cell["inconclusive"])) == int(cell["instances"])
    assert (cells[1]["failures"], cells[1]["inconclusive"]) == ("8", "0")


# ------------------------------------------------------------------ certify

CERTIFY_DELTA_2_LINE = ("delta=2 holds worst_n=6 threshold=13/2 margin=1/2 "
                        "worst=(good=0,nice=0,class=2,touched=1) "
                        "tuples=1")


def test_certify_range(capsys):
    assert main(["certify", "2..5"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == 4
    assert all("holds" in line for line in lines)
    assert lines[0] == CERTIFY_DELTA_2_LINE


def test_certify_runs_without_numpy():
    # numpy = None in sys.modules makes every "import numpy" raise.
    proc = fresh_interpreter("import sys\n"
                             "sys.modules['numpy'] = None\n"
                             "import rainbowmatch, rainbowmatch.cli\n"
                             "sys.exit(rainbowmatch.cli.main(['certify', '2..5']))\n")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[0] == CERTIFY_DELTA_2_LINE


@pytest.mark.parametrize("deltas", ["5..2", ","])
def test_certify_rejects_empty_range(deltas, capsys):
    # An empty range must not read as a passed certificate.
    assert main(["certify", deltas]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: empty list")


def test_certify_rejects_degenerate_delta(capsys):
    assert main(["certify", "1"]) == 2
    assert "error:" in capsys.readouterr().err


def test_certify_has_no_cap_option(capsys):
    # No admissible class size exceeds 2d - 2, so there is no cap to set.
    assert main(["certify", "5", "--a-cap", "40"]) == 1
    assert "unrecognized arguments: --a-cap 40" in capsys.readouterr().err


# -------------------------------------------------------------------- latin

def test_latin_cyclic_counts(capsys):
    assert main(["latin", "--cyclic", "4"]) == 0
    assert "order 4 transversals 0" in capsys.readouterr().out
    assert main(["latin", "--cyclic", "3", "--crosscheck"]) == 0
    assert "order 3 transversals 3" in capsys.readouterr().out


def test_latin_from_file_with_graph_dump(tmp_path, capsys):
    path = tmp_path / "z5.txt"
    path.write_text(dumps_square(cyclic_square(5)))
    assert main(["latin", "--file", str(path), "--to-graph"]) == 0
    out = capsys.readouterr().out
    assert "order 5 transversals 15" in out
    graph_text = out.split("transversals 15\n", 1)[1]
    assert parse_graph(graph_text).n == 10


def test_latin_random_sampling(capsys):
    assert main(["latin", "--random", "3", "--samples", "4",
                 "--crosscheck"]) == 0
    assert "odd_zero_transversal 0" in capsys.readouterr().out


def test_latin_crosscheck_mismatch_exits_3(capsys, monkeypatch):
    # A graph-side count one too high must be caught, not printed.
    real = cli.count_rainbow_matchings
    monkeypatch.setattr(cli, "count_rainbow_matchings",
                        lambda graph, size: real(graph, size) + 1)
    assert main(["latin", "--cyclic", "5", "--crosscheck"]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "crosscheck mismatch: 15 vs 16\n"
    assert main(["latin", "--random", "7", "--samples", "2",
                 "--crosscheck"]) == 3
    captured = capsys.readouterr()
    square = random_latin(7, 0)
    count = real(latin_to_graph(square), 7)
    assert captured.out == ""
    assert captured.err == (f"crosscheck mismatch on sample 0: {count} vs {count + 1}\n"
                            + dumps_square(square))


def test_latin_random_rejects_samples_below_one(capsys):
    for samples in ("0", "-3"):
        assert main(["latin", "--random", "5", "--samples", samples]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: samples must be at least 1")


def test_latin_requires_exactly_one_source(capsys):
    assert main(["latin"]) == 2
    capsys.readouterr()
    assert main(["latin", "--cyclic", "3", "--random", "3"]) == 2
    capsys.readouterr()
    assert main(["latin", "--file", "/nonexistent/sq.txt"]) == 2


@pytest.mark.parametrize("text", [
    "2\n1 2\n1 2\n",          # repeated row
    "3\n1 2 3\n2 3\n3 1 2\n",  # short row
    "2\n1 2\n2 x\n",          # bad symbol
    "two\n1 2\n2 1\n",        # bad header
    "0\n",                     # empty square
    "",
])
def test_latin_file_with_bad_square_exits_2(tmp_path, capsys, text):
    path = tmp_path / "bad.txt"
    path.write_text(text)
    assert main(["latin", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error:")


# -------------------------------------------------------------------- audit

def test_audit_stuck_instance(k4_file, capsys):
    assert main(["audit", k4_file, "--target", "2"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 2
    assert payload["engine"]["size"] == 1
    assert all(c["holds"] for c in payload["checks"])
    assert payload["applicable_rules"] == []


def test_audit_reports_not_stuck(k33_file, capsys):
    assert main(["audit", k33_file]) == 0
    assert capsys.readouterr().out.startswith("not stuck:")


def test_audit_explicit_state_flags_violations(tmp_path, capsys):
    path = tmp_path / "gadget.txt"
    path.write_text("g 8\ne 0 1 1\ne 2 3 1\ne 4 5 1\ne 0 6 2\ne 1 7 3\n")
    rc = main(["audit", str(path), "--target", "2",
               "--matching", "0,1,1", "--mono-color", "2"])
    captured = capsys.readouterr()
    assert rc == 3
    assert "mono-color-multiplicity" in captured.err
    payload = json.loads(captured.out)
    assert "mono" in payload["applicable_rules"]


def test_audit_rejects_negative_depth_with_a_matching(tmp_path, capsys):
    # With --matching no engine runs, but the rule list still needs a depth.
    path = tmp_path / "gadget.txt"
    path.write_text("g 8\ne 0 1 1\ne 2 3 1\ne 4 5 1\ne 0 6 2\ne 1 7 3\n")
    assert main(["audit", str(path), "--target", "2", "--matching", "0,1,1",
                 "--mono-color", "2", "--depth", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: exchange depth must be at least 0, got -1\n"


def test_audit_budget_bounds_the_rule_checks(pend_file, capsys):
    # The depth-1 exchange that swaps 01 for two edges needs 6 core nodes.
    argv = ["audit", pend_file, "--target", "2", "--matching", "0,1,1"]
    assert main(argv + ["--budget", "5"]) == 2
    assert capsys.readouterr().err.startswith("error: BudgetExceeded")
    assert main(argv + ["--budget", "6"]) == 3
    assert "exchange" in json.loads(capsys.readouterr().out)["applicable_rules"]


def test_audit_target_must_match_the_explicit_matching(pend_file, capsys):
    assert main(["audit", pend_file, "--target", "5",
                 "--matching", "0,1,1"]) == 2
    assert "error: InvalidState" in capsys.readouterr().err


def test_audit_explicit_target_defaults_past_the_matching(pend_file, capsys):
    # The minimum degree is 1; vertex reduce at 3 needs degree above 6.
    assert main(["audit", pend_file, "--matching", "0,2,2 1,5,5"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] == 3
    assert payload["applicable_rules"] == []


def test_audit_rejects_bad_matching_string(k4_file, capsys):
    assert main(["audit", k4_file, "--matching", "0,1"]) == 2
    assert "error:" in capsys.readouterr().err


# ----------------------------------------------------------------- plumbing

def test_no_command_prints_usage(capsys):
    assert main([]) == 1
    assert main(["frobnicate"]) == 1


def test_no_command_exits_1_with_usage_on_stderr(capsys):
    assert main([]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: rainbowmatch ")


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert "solve" in capsys.readouterr().out


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_verify_budget_default_is_the_campaign_default():
    assert build_parser().parse_args(["verify"]).budget == DEFAULT_NODE_BUDGET


def test_shared_parser_keeps_calls_apart(tmp_path, capsys):
    # Non-default flags in one call must not become the next call's
    # defaults: the plain call writes what a fresh interpreter writes.
    plain = ["verify", "--deltas", "2,3", "--samples", "2",
             "--recolorings", "1", "--seed", "4"]
    assert main(plain + ["--format", "json", "--depth", "1",
                         "--n-rule", "bound+1",
                         "--out", str(tmp_path / "flags")]) == 0
    flagged = capsys.readouterr().out
    here, fresh = tmp_path / "here", tmp_path / "fresh"
    assert main(plain + ["--out", str(here)]) == 0
    out = capsys.readouterr().out
    proc = fresh_interpreter(
        "import sys, rainbowmatch.cli\n"
        f"sys.exit(rainbowmatch.cli.main({plain + ['--out', str(fresh)]!r}))\n")
    assert proc.returncode == 0, proc.stderr
    assert out.startswith("config ") and out == proc.stdout
    assert flagged.splitlines()[0] != out.splitlines()[0]
    names = sorted(p.name for p in here.iterdir())
    assert names == ["cells.csv", "instances.csv"]
    assert names == sorted(p.name for p in fresh.iterdir())
    for name in names:
        assert (here / name).read_bytes() == (fresh / name).read_bytes()


def test_usage_error_and_help_leave_the_next_call_alone(capsys):
    argv = ["verify", "--deltas", "2", "--samples", "2", "--recolorings", "1"]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(["verify", "--samples", "x"]) == 1
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(argv) == 0
    assert capsys.readouterr().out == first


# ------------------------------------------------------------------- pins

def test_cli_result_files_are_pinned(tmp_path, capsys, monkeypatch, k4_file,
                                     pend_file):
    # sha256 of every result the CLI writes, taken before the result
    # records shared one writer.  Each entry joins stdout and the files the
    # command wrote, in name order.  The two "verify budget" digests were
    # retaken when a cell's inconclusive count became the records whose
    # theorem verdict is unknown: its proven noes no longer count there.
    # The audit digests were taken while each report carried the
    # always-true good-nice-inclusion check and no order_bound field;
    # as_pinned_audit puts the one back and drops the other first.
    def run(argv, code=0, out_dir=None):
        assert main(argv) == code
        text = capsys.readouterr().out
        if argv[0] == "audit":
            payload = as_pinned_audit(json.loads(text))
            text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
        if out_dir is not None:
            for path in sorted(Path(out_dir).iterdir()):
                text += f"== {path.name}\n" + path.read_text()
        return hashlib.sha256(text.encode()).hexdigest()

    verify = ["verify", "--deltas", "2,3", "--recolorings", "1"]
    digests = {}
    for fmt in ("csv", "json"):
        out = tmp_path / f"plain-{fmt}"
        digests[f"verify {fmt}"] = run(
            verify + ["--samples", "3", "--seed", "7", "--out", str(out),
                      "--format", fmt], out_dir=out)
        # A 3-node budget leaves witnessed records, unknown ones, and proven
        # noes whose optimum search ran out.
        out = tmp_path / f"budget-{fmt}"
        digests[f"verify budget {fmt}"] = run(
            verify + ["--n-rule", "fixed:5", "--samples", "4", "--seed", "3",
                      "--budget", "3", "--out", str(out), "--format", fmt],
            out_dir=out)
    rnd = tmp_path / "random.txt"
    rnd.write_text(dumps_graph(greedy_proper_coloring(
        random_graph_min_degree(16, 4, 5), 5)))
    for name, argv in (("k4", [k4_file]), ("random", [str(rnd)]),
                       ("pend", [pend_file, "--target", "2", "--budget", "5"])):
        digests[f"solve {name}"] = run(
            ["solve", *argv, "--engine", "--format", "json"])
    k66 = tmp_path / "k66.txt"
    k66.write_text(dumps_graph(latin_to_graph(cyclic_square(6))))
    gadget = tmp_path / "gadget.txt"
    gadget.write_text("g 8\ne 0 1 1\ne 2 3 1\ne 4 5 1\ne 0 6 2\ne 1 7 3\n")
    digests["certify"] = run(["certify", "2..600"])
    digests["audit k4"] = run(["audit", k4_file, "--target", "2"])
    digests["audit k66"] = run(["audit", str(k66), "--target", "6"])
    digests["audit gadget"] = run(
        ["audit", str(gadget), "--target", "2", "--matching", "0,1,1",
         "--mono-color", "2"], code=3)
    # Only a wrong solver can break the guarantees, so one stands in here to
    # drive the violation lines and the witness dumps.
    monkeypatch.setattr(campaigns, "solve_decision", no_solver)
    monkeypatch.setattr(campaigns, "max_rainbow_matching", no_solver)
    for fmt in ("csv", "json"):
        out = tmp_path / f"witness-{fmt}"
        digests[f"verify witness {fmt}"] = run(
            verify + ["--samples", "2", "--seed", "1", "--out", str(out),
                      "--format", fmt], code=3, out_dir=out)
    assert digests == {
        "audit gadget":
            "ebaf4c107bb4a8dda386ec75939587493d9f30113de48fee3e823eddc1f1cadb",
        "audit k4":
            "b3948c2a983d24a4628975ba467105a7638c7893cc094956aae2fbaf3ec26137",
        "audit k66":
            "17f2a8f924e4b1db5589177560663fd323b8bfddba559e4b8bc576b1c1999f5c",
        "certify":
            "b997640e0c459c8008e3a1159547466e18e94ae5b101131302e9aa4b1f6ce449",
        "solve k4":
            "2c0347c088abf273071a932eb3f74dfb5dc11a1a6bcee87c055ebc617ff47682",
        "solve pend":
            "cd5bf47484481c0cf8622e23dd91702eac8e63772a85fd469541158a3b28b285",
        "solve random":
            "0974cf326b98053ed2577851c6051a9216b38d068d9b702206019b74a1721126",
        "verify budget csv":
            "5b89398ee4552640113fc60667733c9afb9d47d4fc67cc5d8efc1dbd17aec47d",
        "verify budget json":
            "d0dfccae05106cd6d94f9a8d62e99fbef519235bcbbfec47406a4a01e21024da",
        "verify csv":
            "98a0ad04cc61a46d9bcf7c518c26d29a81b2185950b7f2e001f9b67170270ecd",
        "verify json":
            "411ba256c2d1dfa3e6d28020c862ebeca8fa88f3d3d05f4fb9220c38a39f1d49",
        "verify witness csv":
            "86a26ce58955d8cc8911e78dd5bc3c52cb6f3a2aa327ce3fd684b7b503a7cd39",
        "verify witness json":
            "5155befda07f46c0e07e773d6d198d63377957f1af1e5d50dd2e6e3212b6384b",
    }
