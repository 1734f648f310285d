"""Command line interface: subcommands, exit codes and report files."""

import json
import os
import subprocess
import sys

from wachsposets import checks, cli, posets, wachs


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


def test_enumerate_prints_the_comma_form_in_word_order(capsys):
    code, out, _ = run(capsys, "enumerate", "A", "10", "--unsafe-large")
    assert code == 0
    lines = out.splitlines()
    words = [tuple(map(int, line.split(","))) for line in lines]
    assert len(lines) == 3840 and len(set(lines)) == 3840
    assert words == sorted(words) and all(len(w) == 10 for w in words)
    assert lines[0] == "1,2,3,4,5,6,7,8,9,10"


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


def test_failing_check_exits_1(capsys, monkeypatch):
    monkeypatch.setattr(wachs, "mobius_closed", lambda kind, n: {})
    code, out, _ = run(capsys, "check", "theorem", "mobius-A", "--max-n", "3")
    assert code == 1
    lines = [line.split(" [")[0] for line in out.splitlines()]
    assert "mobius-A A n=1 FAIL (mu(e, 1))" in lines
    assert not checks.run_cell(("mobius-A", "A", 2)).ok


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


def test_validation_cap_exits_3_after_printing_finished_cells(capsys,
                                                              monkeypatch):
    # A7 has 192 elements: the Bruhat poset build stops at the cap
    monkeypatch.setattr(posets, "VALIDATION_CAP", 100)
    checks.bruhat_poset.cache_clear()
    code, out, err = run(capsys, "check", "theorem", "order-A",
                         "--max-n", "7")
    checks.bruhat_poset.cache_clear()
    assert code == 3
    assert [line.split(" [")[0] for line in out.splitlines()] == [
        f"order-A A n={n} PASS" for n in range(1, 7)]
    assert err == "error: 192 elements exceeds the validation cap 100\n"


def _grade_a8_as_ungraded(monkeypatch):
    """Make the grading report A8 ungraded, at its first cover; return
    that cover's keys."""
    real, a8 = posets.grade, checks.bruhat_poset("A", 8)
    gap = tuple(a8.elements[k] for k in a8.covers[0])

    def grade(p):
        g = real(p)
        return g if p is not a8 else g._replace(graded=False, rank=None,
                                                witness=gap)

    monkeypatch.setattr(posets, "grade", grade)
    monkeypatch.setattr(checks, "grade", grade)
    return gap


def test_a_property_the_poset_engine_rejects_fails_the_cell(tmp_path, capsys,
                                                            monkeypatch):
    gap = _grade_a8_as_ungraded(monkeypatch)
    # characteristic_polynomial raises PosetError on an ungraded poset
    code, out, err = run(capsys, "check", "theorem", "charpoly-A")
    assert (code, err) == (1, "")
    assert [line.split(" [")[0] for line in out.splitlines()] == [
        f"charpoly-A A n={n} PASS" for n in range(1, 8)] + [
        "charpoly-A A n=8 FAIL (poset is not graded)"]
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "report", "--json", str(path))
    assert code == 1
    assert out.endswith(": 134 checks, 2 failing\n")
    failing = {(c["id"], c["kind"], c["n"]): c["witness"]
               for c in json.loads(path.read_text())["checks"]
               if c["status"] != "pass"}
    assert failing == {("charpoly-A", "A", 8): "poset is not graded",
                       ("graded-A", "A", 8): f"cover gap at {gap}"}


def test_report_past_the_validation_cap_exits_3_and_writes_nothing(
        tmp_path, capsys, monkeypatch):
    # the cap error is not a property failure: it still stops the run
    monkeypatch.setattr(posets, "VALIDATION_CAP", 100)
    checks.bruhat_poset.cache_clear()
    checks.weak_poset.cache_clear()
    path = tmp_path / "report.json"
    code, out, err = run(capsys, "report", "--json", str(path))
    checks.bruhat_poset.cache_clear()
    checks.weak_poset.cache_clear()
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and err.endswith("validation cap 100\n")
    assert not path.exists()


def test_importing_the_cli_skips_the_dataclasses_chain():
    # a fresh interpreter, so that nothing the tests loaded is counted
    probe = ("import sys; before = set(sys.modules); "
             "import wachsposets.cli; "
             "print(' '.join(sorted(set(sys.modules) - before)))")
    out = subprocess.run([sys.executable, "-c", probe], check=True,
                         capture_output=True, text=True,
                         env={**os.environ,
                              "PYTHONPATH": os.pathsep.join(sys.path)}).stdout
    added = set(out.split())
    # the start path loads the package and these modules, and no other
    names = "bruhat checks cli columns perms posets wachs weak".split()
    assert {name for name in added if name.startswith("wachsposets")} == \
        {"wachsposets", *(f"wachsposets.{name}" for name in names)}
    assert not added & {"dataclasses", "inspect"}
