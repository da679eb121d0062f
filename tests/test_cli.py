import json

import pytest

from edgesym import cli, layered
from edgesym.cli import main, scan_exit_code
from edgesym.distinguishing import BudgetExceededError
from edgesym.graph import complete, cycle, parse_graph6, petersen, serialize_graph6


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_gen_petersen(capsys):
    code, out, _ = run(capsys, "gen", "petersen")
    assert code == 0
    g = parse_graph6(out.strip())
    assert g.n == 10 and g.edge_count == 15


def test_gen_cycle(capsys):
    code, out, _ = run(capsys, "gen", "cycle", "5")
    assert code == 0
    assert out.strip() == serialize_graph6(cycle(5))


def test_gen_random_regular_deterministic(capsys):
    code1, out1, _ = run(capsys, "gen", "random-regular", "10", "3", "--seed", "7")
    code2, out2, _ = run(capsys, "gen", "random-regular", "10", "3", "--seed", "7")
    assert code1 == code2 == 0 and out1 == out2


def test_gen_regular_all(capsys):
    code, out, _ = run(capsys, "gen", "regular-all", "6", "3")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_gen_bad_params(capsys):
    code, _, err = run(capsys, "gen", "cycle", "two")
    assert code == 2 and "error" in err
    code, _, err = run(capsys, "gen", "nonsense")
    assert code == 2


def test_colour_petersen_json(capsys):
    code, out, _ = run(capsys, "colour", "--gen", "petersen")
    assert code == 0
    payload = json.loads(out)
    assert payload["colours_used"] <= 3
    assert payload["distinguishing"] is True
    assert payload["blue_rule_ok"] is True
    assert len(payload["colouring"]) == 15


def test_colour_k2_exit_code(capsys):
    code, _, err = run(capsys, "colour", "--g6", serialize_graph6(complete(2)))
    assert code == 3


def test_colour_c4_uses_three(capsys):
    code, out, _ = run(capsys, "colour", "--gen", "cycle 4")
    assert code == 0
    payload = json.loads(out)
    assert payload["colours_used"] == 3


@pytest.mark.parametrize("stage, error", [
    ("assign_decorations", layered.DecorationShortageError(1, (4,), 2, 1)),
    ("check_step_properties", layered.StepPropertyError(1, ["broken"])),
], ids=["decoration-shortage", "step-property"])
def test_colour_failed_construction_exit_code(capsys, monkeypatch, stage, error):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(layered, stage, fail)
    code, out, err = run(capsys, "colour", "--gen", "petersen")
    assert code == 5 and out == ""
    assert err.startswith("error: layer 1: ") and err.count("\n") == 1
    assert "Traceback" not in err


def test_colour_failed_component_check_prints_one_line(capsys, monkeypatch):
    # slice 1 of G]~v~w induces a regular component that is coloured on its own
    check = layered.check_step_properties

    def fail_inside(state, i):
        return ["broken"] if state.graph.n == 6 else check(state, i)

    monkeypatch.setattr(layered, "check_step_properties", fail_inside)
    code, out, err = run(capsys, "colour", "--g6", "G]~v~w")
    assert code == 5 and out == ""
    assert err.startswith("error: layer 0: broken (") and err.count("\n") == 1
    assert "while colouring component" in err


@pytest.mark.parametrize("argv, name", [
    (["colour", "--gen", "petersen"], "colour_regular"),
    (["dprime", "--gen", "petersen"], "distinguishing_index_with_witness"),
    (["aut", "--gen", "petersen"], "group_order"),
    (["scan", "--file", "-"], "scan_rows"),
], ids=["colour", "dprime", "aut", "scan"])
@pytest.mark.parametrize("error, expected", [
    (BudgetExceededError("budget gone"), 4),
    (layered.VerificationError("check failed"), 5),
], ids=["budget", "verification"])
def test_every_command_maps_errors_to_the_same_exit_codes(
    capsys, monkeypatch, argv, name, error, expected
):
    def fail(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, name, fail)
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (expected, "", f"error: {error}\n")


def test_colour_rejects_non_regular(capsys):
    code, out, err = run(capsys, "colour", "--gen", "complete-bipartite 2 4")
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and "regular" in err


def test_colour_dot_output(capsys):
    code, out, _ = run(capsys, "colour", "--gen", "cycle 6", "--format", "dot")
    assert code == 0
    assert out.startswith("graph g {") and "color=" in out


def test_colour_text_output(capsys):
    code, out, _ = run(capsys, "colour", "--gen", "cycle 6", "--format", "text")
    assert code == 0
    assert "colours_used" in out


def test_dprime_k6(capsys):
    code, out, _ = run(capsys, "dprime", "--gen", "complete 6")
    assert code == 0
    assert json.loads(out)["dprime"] == 2


def test_dprime_c5(capsys):
    code, out, _ = run(capsys, "dprime", "--gen", "cycle 5", "--witness")
    assert code == 0
    payload = json.loads(out)
    assert payload["dprime"] == 3
    assert len(payload["witness_colouring"]) == 5


def test_dprime_k2_not_distinguishable(capsys):
    code, out, _ = run(capsys, "dprime", "--g6", serialize_graph6(complete(2)))
    assert code == 3
    assert json.loads(out)["dprime"] == "not_distinguishable"


def test_dprime_budget_exit(capsys):
    code, _, err = run(capsys, "dprime", "--gen", "cycle 5", "--budget", "2")
    assert code == 4


def test_dprime_max_colours_exceeded(capsys):
    code, out, _ = run(capsys, "dprime", "--gen", "complete-bipartite 1 5")
    assert code == 0
    assert json.loads(out)["dprime"] == ">3"


def test_scan_known_exception_exit_zero(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(
        "\n".join(serialize_graph6(g) for g in [cycle(5), complete(6), petersen()]) + "\n"
    )
    code, out, _ = run(capsys, "scan", "--file", str(corpus))
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [r["status"] for r in rows] == ["known_exception", "ok", "ok"]


def test_scan_jsonl_round_trip(tmp_path, capsys):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(serialize_graph6(petersen()) + "\n")
    code, out, _ = run(capsys, "scan", "--file", str(corpus), "--witness")
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert rows[0]["dprime"] == 2
    from edgesym.colouring import EdgeColouring
    from edgesym.distinguishing import is_distinguishing

    w = EdgeColouring.from_json(rows[0]["witness_colouring"])
    assert is_distinguishing(petersen(), w)


def test_scan_exit_code_on_doctored_report():
    # a hypothetical 5-regular graph with index 3 must trip the exit code
    assert scan_exit_code({"unexpected_exception", "ok"}) == 5
    assert scan_exit_code({"ok"}) == 0


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_malformed_line_becomes_error_row(tmp_path, capsys, monkeypatch, jobs):
    import os

    # two cores, so that --jobs 2 scans in a pool on any host
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(2)), raising=False)
    corpus = tmp_path / "corpus.g6"
    c5, pet = serialize_graph6(cycle(5)), serialize_graph6(petersen())
    # "?" parses to the graph with no vertices, which has no index
    corpus.write_text(f"first!\n{c5}\nnot_g6!\n\n?\n{pet}\nlast!\n")
    code, out, _ = run(capsys, "scan", "--file", str(corpus), "--jobs", jobs)
    assert code == 2
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["graph6"], r["status"]) for r in rows] == [
        ("first!", "error"), (c5, "known_exception"), ("not_g6!", "error"), ("?", "error"),
        (pet, "ok"), ("last!", "error"),
    ]
    assert [rows[k]["line"] for k in (0, 2, 5)] == [1, 3, 7]
    assert all("alphabet" in rows[k]["error"] for k in (0, 2, 5))
    assert rows[3] == {"graph6": "?", "n": 0, "degree": 0, "dprime": None,
                       "status": "error", "error": "empty graph"}
    assert "line" not in rows[1] and "line" not in rows[4]
    # malformed lines ahead of a single graph fill the pool's first places
    corpus.write_text(f"first!\nsecond!\n{pet}\n")
    serial, result = (run(capsys, "scan", "--file", str(corpus), "--jobs", j) for j in ("1", jobs))
    assert result == serial
    assert [(r["graph6"], r["status"]) for r in map(json.loads, serial[1].splitlines())] == [
        ("first!", "error"), ("second!", "error"), (pet, "ok"),
    ]


def test_scan_rows_keep_input_order_with_more_workers_than_cores(tmp_path, capsys, monkeypatch):
    # the pool's feeder thread reads the lines, malformed ones included, while
    # the main thread prints: with four workers on the host's cores and
    # frequent thread switches, every row must still come out in its line's
    # place, as in the serial scan
    import os
    import random
    import sys
    from pathlib import Path

    corpus_g6 = Path(__file__).resolve().parents[1] / "perfbench" / "data" / "corpus.g6"
    lines = corpus_g6.read_text().split()
    rng = random.Random(7)
    for k in sorted(rng.sample(range(len(lines) + 1), 60), reverse=True):
        lines[k:k] = ["bad!"] * rng.randint(1, 3)
    corpus = tmp_path / "corpus.g6"
    corpus.write_text("\n".join(lines) + "\n")
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)), raising=False)
    outs = []
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for jobs in ("1", "4"):
            code, out, _ = run(capsys, "scan", "--file", str(corpus), "--jobs", jobs)
            assert code == 2
            outs.append(out)
    finally:
        sys.setswitchinterval(interval)
    rows = [json.loads(line) for line in outs[0].splitlines()]
    assert [r["graph6"] for r in rows] == lines
    assert outs[1] == outs[0]


@pytest.mark.parametrize("jobs", ["0", "-3"])
def test_scan_rejects_jobs_below_one(tmp_path, capsys, jobs):
    corpus = tmp_path / "corpus.g6"
    corpus.write_text(serialize_graph6(cycle(5)) + "\n")
    code, out, err = run(capsys, "scan", "--file", str(corpus), "--jobs", jobs)
    assert code == 2 and out == "" and "jobs" in err


def test_scan_exit_code_unexpected_beats_malformed():
    assert scan_exit_code({"error"}) == 2
    assert scan_exit_code({"error", "unexpected_exception"}) == 5


def test_aut_petersen(capsys):
    code, out, _ = run(capsys, "aut", "--gen", "petersen")
    assert code == 0
    payload = json.loads(out)
    assert payload["group_order"] == 120
    assert payload["stabiliser_orbit_sizes"] == [1, 3, 6]


def test_aut_complete5(capsys):
    code, out, _ = run(capsys, "aut", "--gen", "complete 5")
    assert code == 0
    assert json.loads(out)["group_order"] == 120


def test_aut_spider_order_one(capsys):
    from edgesym.graph import spider

    code, out, _ = run(capsys, "aut", "--g6", serialize_graph6(spider([1, 2, 3])))
    assert code == 0
    assert json.loads(out)["group_order"] == 1


def test_aut_size_guard(capsys):
    code, _, err = run(capsys, "aut", "--gen", "cycle 65")
    assert code == 2 and "at most 64 vertices" in err
    code, out, _ = run(capsys, "aut", "--gen", "cycle 20")
    assert code == 0 and json.loads(out)["group_order"] == 40


@pytest.mark.parametrize("command", ["colour", "dprime", "aut"])
def test_empty_graph_is_an_input_error(capsys, command):
    # "?" parses to the graph with no vertices
    code, out, err = run(capsys, command, "--g6", "?")
    assert code == 2 and not out and err == "error: empty graph\n"


@pytest.mark.parametrize("spec", ["cycle 6", "complete 5", "petersen"])
@pytest.mark.parametrize("root", ["99", "-1"])
def test_colour_root_out_of_range_exit_code(capsys, spec, root):
    code, out, err = run(capsys, "colour", "--gen", spec, "--root", root)
    assert code == 2 and not out and "outside vertex range" in err


def test_bad_graph6_input(capsys):
    code, _, err = run(capsys, "dprime", "--g6", "@@##")
    assert code == 2


def test_stdin_input(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO(serialize_graph6(cycle(6)) + "\n"))
    code, out, _ = run(capsys, "dprime", "--file", "-")
    assert code == 0
    assert json.loads(out)["dprime"] == 2


def test_scan_reads_corpus_from_stdin(capsys, monkeypatch):
    import io

    corpus = "\n".join(serialize_graph6(g) for g in [cycle(5), petersen()]) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO(corpus))
    code, out, _ = run(capsys, "scan", "--file", "-")
    assert code == 0
    rows = [json.loads(line) for line in out.strip().splitlines()]
    assert [(r["graph6"], r["status"]) for r in rows] == [
        (serialize_graph6(cycle(5)), "known_exception"),
        (serialize_graph6(petersen()), "ok"),
    ]


def test_long_form_graph6_through_gen_scan_and_colour(capsys, monkeypatch):
    import io

    code, out, _ = run(capsys, "gen", "cycle", "70")
    line = out.strip()
    assert code == 0 and line[0] == "~" and parse_graph6(line) == cycle(70)
    for max_n in ("10", "100"):  # past max_n, then past the search guard
        monkeypatch.setattr("sys.stdin", io.StringIO(line + "\n"))
        code, out, _ = run(capsys, "scan", "--file", "-", "--max-n", max_n)
        rows = [json.loads(row) for row in out.strip().splitlines()]
        assert code == 0 and [(r["graph6"], r["status"]) for r in rows] == [
            (line, "skipped_too_large")
        ]
    code, out, err = run(capsys, "colour", "--g6", line)
    assert code == 2 and not out and "at most 64 vertices" in err


@pytest.mark.parametrize("command", ["colour", "scan"])
def test_missing_input_file(tmp_path, capsys, command):
    missing = tmp_path / "absent.g6"
    code, out, err = run(capsys, command, "--file", str(missing))
    assert code == 2 and out == ""
    assert "error" in err and "absent.g6" in err


@pytest.mark.parametrize("jobs", ["1", "2"])
def test_scan_into_a_reader_that_stops_early_exits_quietly(tmp_path, jobs):
    # `edgesym scan ... | head -1`: the reader takes one row and closes the
    # pipe long before the twenty corpora are scanned; the scan exits 141
    # (128 + SIGPIPE) and writes nothing to stderr
    import os
    import subprocess
    import sys
    from pathlib import Path

    root = Path(__file__).resolve().parents[1]
    corpus = tmp_path / "corpora.g6"
    corpus.write_text((root / "perfbench" / "data" / "corpus.g6").read_text() * 20)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [str(root / "src"), os.environ.get("PYTHONPATH")])))
    argv = [sys.executable, "-m", "edgesym.cli", "scan", "--file", "-", "--jobs", jobs]
    with corpus.open() as stdin, subprocess.Popen(
        argv, stdin=stdin, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env
    ) as proc:
        row = json.loads(proc.stdout.readline())
        proc.stdout.close()
        try:
            _, err = proc.communicate(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    assert row["status"] in ("ok", "known_exception")
    assert (proc.returncode, err) == (141, b"")
