"""Command line interface: subcommands, exit codes and report files."""

import json

from wachsposets import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_enumerate_counts(capsys):
    code, out, _ = run(capsys, "enumerate", "B", "3")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 16
    assert "[-1,-2,-3]" in lines and "[1,2,3]" in lines
    code, out, _ = run(capsys, "enumerate", "A", "4")
    assert code == 0
    assert out.splitlines() == sorted(out.splitlines())
    assert "2143" in out.splitlines()


def test_enumerate_respects_cap(capsys):
    code, _, err = run(capsys, "enumerate", "A", "9")
    assert code == 3
    assert "unsafe-large" in err
    code, out, _ = run(capsys, "enumerate", "A", "9", "--unsafe-large")
    assert code == 0
    assert len(out.splitlines()) == 1920


def test_unknown_ids_are_usage_errors(capsys):
    code, _, err = run(capsys, "check", "theorem", "no-such-id")
    assert code == 2
    assert "graded-A" in err
    code, _, err = run(capsys, "check", "conjecture", "bogus")
    assert code == 2
    code, _, _ = run(capsys, "enumerate", "C", "3")
    assert code == 2


def test_check_theorem_pass(capsys):
    code, out, _ = run(capsys, "check", "theorem", "graded-A", "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert any(line.startswith("graded-A A n=4 PASS") for line in lines)


def test_check_conjecture_pass(capsys):
    code, out, _ = run(capsys, "check", "conjecture", "mobiusA",
                       "--max-n", "4")
    assert code == 0
    assert all("PASS" in line for line in out.splitlines())


def test_check_cap_requires_override(capsys):
    code, _, err = run(capsys, "check", "theorem", "order-A",
                       "--max-n", "12")
    assert code == 3
    assert "unsafe-large" in err


def test_hasse_dot_file(tmp_path, capsys):
    path = tmp_path / "w4.dot"
    code, _, _ = run(capsys, "hasse", "A", "4", "--dot", str(path))
    assert code == 0
    dot = path.read_text()
    assert dot.count("->") == 9
    assert "rank=same" in dot
    code, out, _ = run(capsys, "hasse", "A", "4", "--order", "weakR")
    assert code == 0
    assert out.startswith("digraph")


def test_report_schema_and_determinism(tmp_path, capsys):
    paths = [tmp_path / "r1.json", tmp_path / "r2.json"]
    reports = []
    for path in paths:
        code, out, _ = run(capsys, "report", "--json", str(path),
                           "--max-n-a", "3", "--max-n-b", "2")
        assert code == 0
        assert "0 failing" in out
        data = json.loads(path.read_text())
        assert data["version"] == 1
        assert data["checks"]
        for entry in data["checks"]:
            assert set(entry) == {"id", "kind", "n", "status", "witness",
                                  "millis"}
            assert entry["status"] == "pass"
        keys = [(e["id"], e["kind"], e["n"]) for e in data["checks"]]
        assert keys == sorted(keys)
        reports.append(data)
    # deterministic apart from the recorded runtimes
    assert _strip_millis(reports[0]) == _strip_millis(reports[1])


def _strip_millis(report):
    return [{k: v for k, v in e.items() if k != "millis"}
            for e in report["checks"]]


def test_pooled_report_equals_serial(tmp_path, capsys, monkeypatch):
    reports = []
    for threads in ("1", "2"):
        monkeypatch.setenv("WACHS_THREADS", threads)
        path = tmp_path / f"r{threads}.json"
        code, _, _ = run(capsys, "report", "--json", str(path),
                         "--max-n-a", "4", "--max-n-b", "3")
        assert code == 0
        reports.append(json.loads(path.read_text()))
    assert _strip_millis(reports[0]) == _strip_millis(reports[1])


def test_ranks_below_one_are_usage_errors(capsys):
    for argv in (("enumerate", "A", "0"), ("enumerate", "A", "-3"),
                 ("enumerate", "B", "0"), ("hasse", "A", "0"),
                 ("check", "theorem", "graded-A", "--max-n", "0"),
                 ("check", "theorem", "graded-A", "--max-n", "-1"),
                 ("check", "conjecture", "mobiusA", "--max-n", "0"),
                 ("report", "--json", "unused.json", "--max-n-a", "0")):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert out == ""
        assert "at least 1" in err


def test_empty_sweeps_are_usage_errors(capsys):
    # the type-B Moebius closed form starts at n = 2
    code, out, err = run(capsys, "check", "theorem", "mobius-B",
                         "--max-n", "1")
    assert code == 2
    assert out == ""
    assert "no cells" in err


def test_bad_thread_counts_are_usage_errors(capsys, monkeypatch):
    for value in ("abc", "0", "-2", ""):
        monkeypatch.setenv("WACHS_THREADS", value)
        code, out, err = run(capsys, "check", "theorem", "graded-A",
                             "--max-n", "2")
        assert code == 2, value
        assert out == ""
        assert "WACHS_THREADS" in err


def test_fixed_rank_checks_honour_max_n(capsys):
    # nongraded-remark runs at n = 6 only, nongraded-weakL at A 5 and B 3
    for argv in (("nongraded-remark", "--max-n", "2"),
                 ("nongraded-weakL", "--max-n", "1")):
        code, out, err = run(capsys, "check", "theorem", *argv)
        assert code == 2, argv
        assert out == ""
        assert "no cells" in err
    code, out, _ = run(capsys, "check", "theorem", "nongraded-weakL",
                       "--max-n", "4")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("nongraded-weakL B n=3 PASS")
