import hashlib
import json
from pathlib import Path

import pytest

from pgarcs import arcs, cli
from pgarcs.arcs import CORPUS, admitted_group, corpus_text, format_arc_file, load_corpus_arc, verify_arc
from pgarcs.classify import enumerate_cyclic_classes, format_class_list
from pgarcs.condense import parse_system
from pgarcs.geometry import build_plane
from pgarcs.group import format_group_file, make_element, transpose_element
from pgarcs.solver import IlpModel, Solution, exhaustive_oracle


def run(capsys, argv):
    rc = cli.main(argv)
    out, err = capsys.readouterr()
    return rc, out, err


def test_solve_deterministic_replays(tmp_path, capsys):
    system = tmp_path / "q3_r2.sys"
    assert cli.main(["condense", "--q", "3", "--r", "2", "--out", str(system)]) == cli.EXIT_OK
    capsys.readouterr()
    argv = ["solve", "--system", str(system), "--budget", "10", "--deterministic"]
    first = run(capsys, argv)
    assert first == run(capsys, argv)
    rc, out, _ = first
    assert rc == cli.EXIT_OK
    report = json.loads(out)
    assert (report["ell"], report["status"], report["objective"]) == (13, "Optimal", 4)
    assert "time" not in report
    assert report["meta"]["inputs"] == {str(system): hashlib.sha256(system.read_bytes()).hexdigest()}
    # without the flag the same report carries the solve's time
    rc, out, _ = run(capsys, argv[:-1])
    timed = json.loads(out)
    assert rc == cli.EXIT_OK and timed["time"] >= 0
    assert {k: v for k, v in timed.items() if k != "time"} == report


def test_solve_reports_the_digest_of_the_bytes_it_solved(tmp_path, capsys, monkeypatch):
    system = tmp_path / "q3_r2.sys"
    assert cli.main(["condense", "--q", "3", "--r", "2", "--out", str(system)]) == cli.EXIT_OK
    capsys.readouterr()
    solved = system.read_bytes()

    def rewritten_meanwhile(model, budget):
        system.write_text("ell=1 q=3 r=2\n")
        return Solution(x=(1,) * model.n, objective=sum(model.w), status="Optimal")

    monkeypatch.setattr(cli, "solve_max", rewritten_meanwhile)
    rc, out, _ = run(capsys, ["solve", "--system", str(system)])
    assert rc == cli.EXIT_OK and system.read_bytes() != solved
    assert json.loads(out)["meta"]["inputs"] == {str(system): hashlib.sha256(solved).hexdigest()}


@pytest.mark.parametrize("command", ("verify", "code", "condense"))
def test_each_input_is_read_once_and_digested_as_read(tmp_path, capsys, monkeypatch, command):
    pa = load_corpus_arc("q25_r3_n39.arc")
    arcfile = corpus_file(tmp_path, "plain.arc", format_arc_file(pa.spec, pa.arc.points, 3, pa.arc.plane))
    group = tmp_path / "gens.grp"
    group.write_text(format_group_file(pa.group.generators))
    paths = {"verify": [arcfile, str(group)], "code": [arcfile], "condense": [str(group)]}[command]
    argv = {"verify": [arcfile, "--group"], "code": [], "condense": ["--q", "25", "--r", "3", "--group"]}[command]
    opened = []
    monkeypatch.setattr(cli, "open", lambda path, mode: opened.append((path, mode)) or open(path, mode), raising=False)
    rc, out, err = run(capsys, [command, *argv, paths[-1]])
    assert (rc, opened) == (cli.EXIT_OK, [(path, "rb") for path in paths])
    report = json.loads(err if command == "condense" else out)
    assert report["meta"]["inputs"] == {path: hashlib.sha256(Path(path).read_bytes()).hexdigest() for path in paths}


def test_a_crlf_arc_file_reads_as_its_lf_copy(tmp_path, capsys):
    text = corpus_text("q25_r3_n39.arc")
    lf, crlf = tmp_path / "lf.arc", tmp_path / "crlf.arc"
    lf.write_bytes(text.encode())
    crlf.write_bytes(text.replace("\n", "\r\n").encode())
    for command in ("verify", "code"):
        reports = [json.loads(run(capsys, [command, str(path)])[1]) for path in (lf, crlf)]
        for report in reports:
            del report["meta"]["inputs"]
        assert reports[0] == reports[1]


def test_a_file_that_is_no_utf_8_is_an_error(tmp_path, capsys):
    arcfile = tmp_path / "latin1.arc"
    arcfile.write_bytes(b"q=5\nr=2 # \xe9\npoints:\n(1,0,0)\n")
    rc, out, err = run(capsys, ["verify", str(arcfile)])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err == f"error: {arcfile}: 'utf-8' codec can't decode byte 0xe9 in position 10: invalid continuation byte\n"


@pytest.mark.parametrize(
    ("q", "r", "extra", "want"),
    (
        (3, 2, ["--target", "4"], (cli.EXIT_OK, "FeasibleFound", None)),
        (3, 2, ["--target", "5"], (cli.EXIT_OK, "ProvedInfeasible", 93)),  # m_2(2,3) = 4
        (4, 3, ["--target", "10", "--budget", "0"], (cli.EXIT_INCONCLUSIVE, "Timeout", None)),
    ),
)
def test_solve_with_a_target(tmp_path, capsys, q, r, extra, want):
    system = tmp_path / "full.sys"
    assert cli.main(["condense", "--q", str(q), "--r", str(r), "--out", str(system)]) == cli.EXIT_OK
    capsys.readouterr()
    rc, out, _ = run(capsys, ["solve", "--system", str(system), "--deterministic", *extra])
    report = json.loads(out)
    rc_want, status, nodes = want
    assert (rc, report["status"]) == (rc_want, status)
    if nodes is not None:
        assert report["nodes"] == nodes
    model = IlpModel(parse_system(system.read_text()))
    x = tuple(int(v) for v in report["x"])
    assert model.check_feasible(x) and model.objective(x) == report["objective"]
    if status == "FeasibleFound":
        assert report["objective"] >= int(extra[1])


# m_r(2,q) of the full plane, no group: 2^(q^2+q+1) point sets at most
@pytest.mark.parametrize(("q", "r", "optimum"), ((2, 2, 4), (2, 3, 7), (3, 2, 4), (3, 3, 9), (4, 2, 6), (4, 3, 9)))
def test_condense_then_solve_matches_the_exhaustive_oracle(tmp_path, capsys, q, r, optimum):
    system = tmp_path / "full.sys"
    assert cli.main(["condense", "--q", str(q), "--r", str(r), "--out", str(system)]) == cli.EXIT_OK
    capsys.readouterr()
    rc, out, _ = run(capsys, ["solve", "--system", str(system), "--deterministic"])
    report = json.loads(out)
    assert (rc, report["status"]) == (cli.EXIT_OK, "Optimal")
    model = IlpModel(parse_system(system.read_text()))
    assert report["objective"] == exhaustive_oracle(model).objective == optimum
    x = tuple(int(v) for v in report["x"])
    assert model.check_feasible(x) and model.objective(x) == optimum


EXCLUDE_Q3 = ["exclude", "--q", "3", "--r", "2", "--n", "5", "--budget-per-class", "10"]


def progress_line(c, times=False):
    """The stderr line of `pgarcs exclude` for the class record c."""
    if c["implied_by"] is not None:
        return f"class {c['id']} order {c['order']}: {c['status']} implied by class {c['implied_by']}"
    line = f"class {c['id']} order {c['order']} ell {c['ell']}: {c['status']} nodes={c['nodes']}"
    return line + f" time={c['time']}" if times else line


@pytest.mark.parametrize("command", (["solve", "--system", "x.sys"], EXCLUDE_Q3))
def test_threads_flag_is_rejected(capsys, command):
    with pytest.raises(SystemExit) as exc:
        cli.main(command + ["--threads", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err


def test_exclude_deterministic_replays(tmp_path, capsys):
    # m_2(2,3) = 4, so no (5,2)-arc exists and every class is excluded
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic"])
    path = tmp_path / "report.json"
    assert run(capsys, EXCLUDE_Q3 + ["--deterministic", "--out", str(path)]) == (rc, "", err)
    assert path.read_text() == out
    assert rc == cli.EXIT_OK
    report = json.loads(out)
    assert report["verdict"] == "RigidOrNonexistent"
    assert len(report["classes"]) == 11
    assert report["excluded"] == [c["id"] for c in report["classes"]]
    assert all("time" not in c for c in report["classes"])
    # the variable permutations the branch and bound started from: the
    # involution's centralizer GL(2,3) acts on its 9 orbits through 24
    symmetry = {c["id"]: c["symmetry"] for c in report["classes"]}
    assert symmetry[1] == 24
    assert all(v >= 1 for v in symmetry.values())
    assert err.splitlines() == [progress_line(c) for c in report["classes"]]


def test_exclude_progress_lines_carry_class_times(capsys):
    rc, out, err = run(capsys, EXCLUDE_Q3)
    assert rc == cli.EXIT_OK
    classes = json.loads(out)["classes"]
    assert len(classes) == 11
    assert err.splitlines() == [progress_line(c, times=True) for c in classes]
    # an implied class names the solve its exclusion rests on, and has no time
    implied = [line for line in err.splitlines() if " implied by class " in line]
    assert len(implied) == sum(c["implied_by"] is not None for c in classes) == 7
    assert all("time=" not in line and "ell" not in line for line in implied)


def test_exclude_resume_reads_records_written_without_symmetry(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    old = {"id": 1, "order": 2, "ell": 9, "status": "ProvedInfeasible", "objective": 4, "nodes": 7, "time": 0.1}
    path.write_text(json.dumps({"key": "q=3 r=2 n=5", "classes": {"1": old}}))
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--resume", str(path)])
    assert rc == cli.EXIT_OK
    first = json.loads(out)["classes"][0]
    assert (first["id"], first["nodes"], first["symmetry"]) == (1, 7, 1)
    assert len(err.splitlines()) == 10  # class 1 is not solved again


def test_exclude_resumes_from_the_checkpoint_it_wrote(tmp_path, capsys):
    # implied records name a lower class solved ProvedInfeasible, so the
    # checks on resume accept every record the sweep writes
    path = tmp_path / "checkpoint.json"
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--resume", str(path)])
    saved = path.read_bytes()
    assert any(c["implied_by"] is not None for c in json.loads(saved)["classes"].values())
    assert run(capsys, EXCLUDE_Q3 + ["--deterministic", "--resume", str(path)]) == (rc, out, "")
    assert path.read_bytes() == saved


def test_exclude_resume_retries_a_timeout_only_under_a_larger_budget(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    timeout = {"ell": 9, "status": "Timeout", "objective": 4, "nodes": 7, "symmetry": 1, "time": 1.0, "implied_by": None}
    records = {"1": {**timeout, "id": 1, "order": 2, "budget": 1.0}, "2": {**timeout, "id": 2, "order": 3, "budget": 10.0}}
    path.write_text(json.dumps({"key": "q=3 r=2 n=5", "classes": records}))
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--resume", str(path)])
    report = json.loads(out)
    status = {c["id"]: c["status"] for c in report["classes"]}
    assert (status[1], status[2]) == ("ProvedInfeasible", "Timeout")
    assert (rc, report["undecided"], report["verdict"]) == (cli.EXIT_INCONCLUSIVE, [2], "RigidOrListedGroups")
    assert len(err.splitlines()) == 10  # class 2 is kept, class 1 solved again
    saved = json.loads(path.read_text())["classes"]
    assert saved["2"] == records["2"]
    assert {c["budget"] for c in saved.values()} == {10.0}


def test_exclude_skip_keeps_a_checkpointed_record(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    saved = {"id": 1, "order": 2, "ell": 9, "status": "ProvedInfeasible", "objective": 4, "nodes": 7, "symmetry": 24}
    saved.update(time=0.1, implied_by=None, budget=10.0)
    path.write_text(json.dumps({"key": "q=3 r=2 n=5", "classes": {"1": saved}}))
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--skip", "1", "--resume", str(path)])
    report = json.loads(out)
    assert report["classes"][0] == {k: v for k, v in saved.items() if k != "time"}
    assert (rc, report["verdict"], report["undecided"]) == (cli.EXIT_OK, "RigidOrNonexistent", [])
    assert len(err.splitlines()) == 10  # class 1 is neither solved nor skipped
    assert json.loads(path.read_text())["classes"]["1"] == saved


@pytest.mark.parametrize(
    ("skip", "message"),
    (
        ("99", "skip ids [99] are not nontrivial classes of PGL(3,3)"),
        ("0", "skip ids [0] are not nontrivial classes of PGL(3,3)"),
        ("1,12,-1", "skip ids [-1, 12] are not nontrivial classes of PGL(3,3)"),
        ("1,x", "--skip 1,x: class ids are comma-separated integers"),
    ),
)
def test_exclude_refuses_a_skip_id_that_is_no_class(tmp_path, capsys, skip, message):
    # before any solve: no checkpoint is written, and none is touched
    path = tmp_path / "checkpoint.json"
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--skip", skip, "--resume", str(path)])
    assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: {message}\n")
    assert not path.exists()
    saved = json.dumps({"key": "q=3 r=2 n=5", "classes": {}})
    path.write_text(saved)
    assert run(capsys, EXCLUDE_Q3 + ["--skip", skip, "--resume", str(path)])[:2] == (cli.EXIT_ERROR, "")
    assert path.read_text() == saved


EXCLUDE_Q5_N6 = ["exclude", "--q", "5", "--r", "2", "--n", "6", "--budget-per-class", "2", "--deterministic"]


def test_exclude_lists_found_witnesses_as_realized(capsys):
    # m_2(2,5) = 6: five classes admit a 6-arc, every other class is excluded
    rc, out, _ = run(capsys, EXCLUDE_Q5_N6)
    report = json.loads(out)
    status = {c["id"]: c["status"] for c in report["classes"]}
    assert report["realized"] == [i for i, s in status.items() if s == "FeasibleFound"] == [1, 2, 5, 7, 8]
    assert all(c["objective"] == 6 for c in report["classes"] if c["status"] == "FeasibleFound")
    assert report["excluded"] == [i for i, s in status.items() if s == "ProvedInfeasible"]
    assert report["undecided"] == []
    assert (rc, report["verdict"]) == (cli.EXIT_OK, "RigidOrListedGroups")
    # a skipped class stays undecided
    rc, out, _ = run(capsys, EXCLUDE_Q5_N6 + ["--skip", "3"])
    report = json.loads(out)
    assert (report["realized"], report["undecided"]) == ([1, 2, 5, 7, 8], [3])
    assert 3 not in report["excluded"]
    assert rc == cli.EXIT_INCONCLUSIVE


def test_exclude_with_no_exclusion_is_inconclusive(capsys):
    # r = q + 1: the whole plane is a (13,4)-arc, so every class is realized
    rc, out, _ = run(capsys, ["exclude", "--q", "3", "--r", "4", "--n", "13", "--deterministic"])
    report = json.loads(out)
    assert (rc, report["verdict"], len(report["realized"])) == (cli.EXIT_INCONCLUSIVE, "Inconclusive", 11)
    assert report["excluded"] == report["undecided"] == []


def test_exclude_needs_a_positive_target(capsys):
    rc, out, err = run(capsys, ["exclude", "--q", "3", "--r", "2", "--n", "0"])
    assert (rc, out, err) == (cli.EXIT_ERROR, "", "error: n=0: the target must be at least 1\n")


@pytest.mark.parametrize("budget", ("inf", "nan"))
def test_solve_and_exclude_need_a_finite_budget(tmp_path, capsys, budget):
    system = tmp_path / "q3_r2.sys"
    assert cli.main(["condense", "--q", "3", "--r", "2", "--out", str(system)]) == cli.EXIT_OK
    capsys.readouterr()
    message = "the budget must be a finite number of seconds"
    rc, out, err = run(capsys, ["solve", "--system", str(system), "--budget", budget])
    assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: budget={budget}: {message}\n")
    path = tmp_path / "checkpoint.json"
    argv = ["exclude", "--q", "3", "--r", "2", "--n", "5", "--budget-per-class", budget, "--resume", str(path)]
    assert run(capsys, argv) == (cli.EXIT_ERROR, "", f"error: budget_per_class={budget}: {message}\n")
    assert not path.exists()


def test_exclude_refuses_the_checkpoint_of_another_sweep(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    argv = ["exclude", "--q", "5", "--r", "2", "--budget-per-class", "10", "--deterministic", "--resume", str(path)]
    assert run(capsys, argv + ["--n", "7"])[0] == cli.EXIT_OK
    saved = path.read_bytes()
    assert len(json.loads(saved)["classes"]) == 29
    rc, out, err = run(capsys, argv + ["--n", "6"])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err == f"error: checkpoint {path} is for sweep 'q=5 r=2 n=7', not 'q=5 r=2 n=6'\n"
    assert path.read_bytes() == saved
    # a file with no key is refused the same way
    path.write_text(json.dumps({"classes": {}}))
    rc, out, err = run(capsys, argv + ["--n", "7"])
    assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: checkpoint {path} is for sweep None, not 'q=5 r=2 n=7'\n")
    assert path.read_text() == json.dumps({"classes": {}})


# a q=3 checkpoint whose class 1 is solved ProvedInfeasible, with more records
CHECKPOINT_Q3 = '{"key": "q=3 r=2 n=5", "classes": {"1": {"id": 1, "status": "ProvedInfeasible", "implied_by": null}, %s}}'
IMPLIED = ": class %r is %s implied by %s, not a lower solved exclusion"


@pytest.mark.parametrize(
    ("text", "message"),
    (
        ("[]", " is not a JSON object with a 'classes' object"),
        ('{"key": "q=3 r=2 n=5", "classes": []}', " is not a JSON object with a 'classes' object"),
        ('{"key": "q=3 r=2 n=5", "classes": {"1": []}}', ": class '1' is not an integer id with an id and status record"),
        ('{"key": "q=3 r=2 n=5", "classes": {"1": {"id": 1}}}', ": class '1' is not an integer id with an id and status record"),
        (
            '{"key": "q=3 r=2 n=5", "classes": {"x": {"id": 1, "status": "Timeout"}}}',
            ": class 'x' is not an integer id with an id and status record",
        ),
        (
            '{"key": "q=3 r=2 n=5", "classes": {"2": {"id": 99, "status": "ProvedInfeasible"}}}',
            ": class '2' holds the record of class 99",
        ),
        (
            '{"key": "q=3 r=2 n=5", "classes": {"2": {"id": 2, "status": "Timeout"}, "02": {"id": 2, "status": "ProvedInfeasible"}}}',
            ": class '02' holds the record of class 2",
        ),
        (
            '{"key": "q=3 r=2 n=5", "classes": {"2": {"id": 2, "status": "Timeout", "budget": "x"}}}',
            ": class '2' has budget 'x', not a number",
        ),
        (
            '{"key": "q=3 r=2 n=5", "classes": {"3": {"id": 3, "status": "Bogus"}}}',
            ": class '3' has status 'Bogus', not one of ('ProvedInfeasible', 'FeasibleFound', 'Timeout', 'Skipped')",
        ),
        (CHECKPOINT_Q3 % '"2": {"id": 2, "status": "ProvedInfeasible", "implied_by": 99}', IMPLIED % ("2", "ProvedInfeasible", 99)),
        (CHECKPOINT_Q3 % '"2": {"id": 2, "status": "ProvedInfeasible", "implied_by": 2}', IMPLIED % ("2", "ProvedInfeasible", 2)),
        (CHECKPOINT_Q3 % '"2": {"id": 2, "status": "ProvedInfeasible", "implied_by": "1"}', IMPLIED % ("2", "ProvedInfeasible", "'1'")),
        (CHECKPOINT_Q3 % '"2": {"id": 2, "status": "Timeout", "implied_by": 1}', IMPLIED % ("2", "Timeout", 1)),
        (
            CHECKPOINT_Q3.replace("ProvedInfeasible", "Timeout", 1) % '"2": {"id": 2, "status": "ProvedInfeasible", "implied_by": 1}',
            IMPLIED % ("2", "ProvedInfeasible", 1),
        ),
        (
            CHECKPOINT_Q3 % '"2": {"id": 2, "status": "ProvedInfeasible", "implied_by": 1}, "3": '
            '{"id": 3, "status": "ProvedInfeasible", "implied_by": 2}',
            IMPLIED % ("3", "ProvedInfeasible", 2),
        ),
        ("not json", " is not JSON: Expecting value: line 1 column 1 (char 0)"),
        (b"\xff\xfe\x00", " is not JSON: 'utf-8' codec can't decode byte 0xff in position 0: invalid start byte"),
    ),
    ids=(
        "file-list",
        "classes-list",
        "record-list",
        "record-without-status",
        "class-key-x",
        "record-of-another-class",
        "second-key-for-a-class",
        "budget-not-a-number",
        "status-unknown",
        "implied-by-no-class",
        "implied-by-itself",
        "implied-by-no-integer",
        "implied-timeout",
        "implied-by-a-timeout",
        "implied-by-an-implied-class",
        "not-json",
        "not-utf-8",
    ),
)
def test_exclude_refuses_a_checkpoint_of_another_shape(tmp_path, capsys, text, message):
    path = tmp_path / "checkpoint.json"
    data = text if isinstance(text, bytes) else text.encode()
    path.write_bytes(data)
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--resume", str(path)])
    assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: checkpoint {path}{message}\n")
    assert path.read_bytes() == data


@pytest.mark.parametrize("argv", (["tables"], ["condense", "--q", "3", "--r", "2"]))
def test_out_into_a_missing_directory_is_an_error(tmp_path, capsys, argv):
    rc, out, err = run(capsys, argv + ["--out", str(tmp_path / "missing" / "report")])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err.startswith("error: [Errno 2] No such file or directory")


def test_condense_reads_a_field_spec_as_its_order(tmp_path, capsys):
    spec, order = tmp_path / "spec.sys", tmp_path / "order.sys"
    argv = ["condense", "--r", "3", "--out"]
    assert cli.main(argv + [str(spec), "--field", "p=2 e=2 poly=1,1,1"]) == cli.EXIT_OK
    assert cli.main(argv + [str(order), "--q", "4"]) == cli.EXIT_OK
    assert spec.read_text() == order.read_text()
    assert spec.read_text().startswith("ell=21 q=4 r=3\n")


@pytest.mark.parametrize("fields", ([], ["--q", "5", "--field", "p=2 e=2 poly=1,1,1"]))
def test_condense_needs_exactly_one_of_q_and_field(capsys, fields):
    with pytest.raises(SystemExit) as exc:
        cli.main(["condense", "--r", "2"] + fields)
    assert exc.value.code == 2
    assert "--q" in capsys.readouterr().err


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize(
    ("text", "message"),
    (
        ("", "empty condensed system"),
        ("ell=1 q=2\nw: 1\n3\n", "line 1: header has no r="),
        ("ell=1 q=2 r=1\n3\n", "missing weight line"),
        ("ell=0 q=2 r=1\nw:\n", "line 1: ell=0 must be at least 1"),
        ("ell=1 q=2 r=0\nw: 7\n3\n", "line 1: r=0 out of range 1..3"),
        ("ell=1 q=2 r=4\nw: 7\n3\n", "line 1: r=4 out of range 1..3"),
        ("ell=1 q=2 r=1\nw: 7\n3\n4 5 6\n", "more matrix rows than ell=1"),
        ("ell=1 q=2 r=1\nw: x\n3\n", "line 2: expected integers, got 'x'"),
        ("ell=1 q=2 r=1\nw: 7\n3 y\n", "line 3: expected integers, got '3 y'"),
        # a header, weight or row error names its own line, blank lines counted
        ("\n\nell=1 q=2 r=x\nw: 7\n3\n", "line 3: bad r value 'x'"),
        ("\n\nell=1 q=2\nw: 7\n3\n", "line 3: header has no r="),
        ("\n\nell=1 q=2 r=1 7\nw: 7\n3\n", "line 3: expected key=value, got '7'"),
        ("ell=2 q=2 r=1\n\nw: 7\n3 0\n0 3\n", "line 3: 1 weights, expected ell=2"),
        ("ell=2 q=2 r=1\nw: 1 6\n3 0\n3\n", "line 4: 1 entries in a matrix row, expected ell=2"),
        ("ell=2 q=2 r=1\nw: 1 6\n3 0\n", "1 matrix rows, expected ell=2"),
        ("ell=1 q=2 r=1\nw: -7\n3\n", "line 2: weights must be nonnegative, got -7"),
        ("ell=2 q=2 r=1\nw: 1 6\n3 0\n0 -3\n", "line 4: entries in a matrix row must be nonnegative, got -3"),
    ),
)
def test_solve_rejects_malformed_systems(tmp_path, capsys, text, message):
    system = tmp_path / "bad.sys"
    system.write_text(text)
    rc, out, err = run(capsys, ["solve", "--system", str(system)])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err == f"error: {system}: {message}\n"


def test_solve_reports_a_matrix_entry_past_int64(tmp_path, capsys):
    system = tmp_path / "big.sys"
    for text, message in (
        (f"ell=1 q=2 r=1\nw: 1\n{2**63}\n", f"line 3: entries in a matrix row must be below 2**63, got {2**63}"),
        (f"ell=1 q=2 r=1\nw: {2**63}\n1\n", f"line 2: weights must be below 2**63, got {2**63}"),
    ):
        system.write_text(text)
        rc, out, err = run(capsys, ["solve", "--system", str(system)])
        assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: {system}: {message}\n")


def test_solve_refuses_a_system_its_lp_cannot_hold(tmp_path, capsys):
    # weights summing past the certificate's int64 range, and a matrix
    # entry past what HiGHS takes: errors, not a verdict or a traceback
    system = tmp_path / "big.sys"
    for text, message in (
        (
            f"ell=3 q=2 r=1\nw: {2**43} {2**43} 1\n1 1 0\n1 1 0\n0 0 1\n",
            f"the weights sum to {2**44 + 1}, not below 2**43: the LP certificate scales them by 2**20 in int64",
        ),
        (f"ell=1 q=2 r=1\nw: 1\n{2**50}\n", "HiGHS rejected the LP relaxation"),
    ):
        system.write_text(text)
        rc, out, err = run(capsys, ["solve", "--system", str(system), "--target", str(2**43 + 1), "--deterministic"])
        assert (rc, out, err) == (cli.EXIT_ERROR, "", f"error: {message}\n")


def corpus_file(tmp_path, name, text=None):
    path = tmp_path / name
    path.write_text(corpus_text(name) if text is None else text)
    return str(path)


def test_verify_and_code_on_a_corpus_arc(tmp_path, capsys):
    arcfile = corpus_file(tmp_path, "q25_r3_n39.arc")
    rc, out, _ = run(capsys, ["verify", arcfile])
    report = json.loads(out)
    assert rc == cli.EXIT_OK
    assert (report["n"], report["max_multiplicity"], report["r_claimed"]) == (39, 3, 3)
    assert (report["group_admitted"], report["convention"]) == (True, "column")
    rc, out, _ = run(capsys, ["code", arcfile])
    code = json.loads(out)
    assert rc == cli.EXIT_OK
    assert (code["n"], code["k"], code["d"], code["n_minus_r"]) == (39, 3, 36, 36)


def test_only_verify_admits_the_group_block(tmp_path, capsys, monkeypatch):
    calls = []

    def counted(arc, generators):
        calls.append(len(generators))
        return admitted_group(arc, generators)

    monkeypatch.setattr(arcs, "admitted_group", counted)
    arcfile = corpus_file(tmp_path, "q25_r3_n39.arc")
    assert run(capsys, ["code", arcfile])[0] == cli.EXIT_OK
    assert calls == []
    rc, out, _ = run(capsys, ["verify", arcfile])
    assert (rc, json.loads(out)["group_admitted"], len(calls)) == (cli.EXIT_OK, True, 1)


def test_verify_group_file_with_transposed_generators(tmp_path, capsys):
    pa = load_corpus_arc("q25_r3_n39.arc")
    spec = pa.spec
    arcfile = corpus_file(tmp_path, "plain.arc", format_arc_file(spec, pa.arc.points, 3, pa.arc.plane))
    group = tmp_path / "rows.grp"
    group.write_text(format_group_file([transpose_element(spec, g) for g in pa.group.generators]))
    rc, out, _ = run(capsys, ["verify", arcfile, "--group", str(group)])
    report = json.loads(out)
    assert rc == cli.EXIT_OK
    assert (report["group_admitted"], report["convention"]) == (True, "row")


# verify reports the admission its parse or admitted_group found, which is
# what verify_arc finds for that group: True (bundled block, --group under
# the transposed convention), False (a --group no convention admits, exit
# 1) or None (a bare arc file)
@pytest.mark.parametrize(("case", "admitted"), (("bundled", True), ("row", True), ("neither", False), ("bare", None)))
def test_verify_reports_the_admission_verify_arc_finds(tmp_path, capsys, case, admitted):
    pa = load_corpus_arc("q25_r3_n39.arc")
    spec, arc = pa.spec, pa.arc
    argv, group = ["verify", corpus_file(tmp_path, "plain.arc", format_arc_file(spec, arc.points, 3, arc.plane))], None
    if case == "bundled":
        argv, group = ["verify", corpus_file(tmp_path, "q25_r3_n39.arc")], pa.group
    elif case != "bare":
        shear = make_element(spec, ((1, 0, 0), (0, 1, 0), (0, 1, 1)))
        gens = [transpose_element(spec, g) for g in pa.group.generators] if case == "row" else [shear]
        path = tmp_path / "gens.grp"
        path.write_text(format_group_file(gens))
        argv += ["--group", str(path)]
        group = admitted_group(arc, gens)[0]
    rc, out, _ = run(capsys, argv)
    assert json.loads(out)["group_admitted"] is verify_arc(arc, group).group_admitted is admitted
    assert rc == (cli.EXIT_ERROR if admitted is False else cli.EXIT_OK)


def test_tables_verifies_every_row_with_one_plane_per_field(capsys, monkeypatch):
    built = []

    def counted(spec):
        built.append(spec)
        return build_plane(spec)

    monkeypatch.setattr(arcs, "build_plane", counted)
    rc, out, _ = run(capsys, ["tables"])
    report = json.loads(out)
    assert (rc, report["all_verified"]) == (cli.EXIT_OK, True)
    assert [row["verified"] for row in report["improved_bounds"]] == [True] * len(CORPUS) == [True] * 7
    assert len(built) == len(set(built)) == len({q for q, *_ in CORPUS.values()}) == 5


def test_verify_rejects_a_malformed_arc_file(tmp_path, capsys):
    arcfile = corpus_file(tmp_path, "bad.arc", "q=5\nr=2\npoints:\n(1,0,0) (1,2)\n")
    rc, out, err = run(capsys, ["verify", arcfile])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err.startswith(f"error: {arcfile}: line 4: malformed point tuple")


def test_a_bad_group_file_is_named(tmp_path, capsys):
    # verify reads two files: the error names the one at fault
    arcfile = corpus_file(tmp_path, "q25_r3_n39.arc")
    group = tmp_path / "bad.grp"
    group.write_text("1 0 0 0 1 0 0 0 1\n1 0\n")
    message = f"error: {group}: line 2: expected 9 matrix entries, got 2\n"
    assert run(capsys, ["verify", arcfile, "--group", str(group)]) == (cli.EXIT_ERROR, "", message)
    assert run(capsys, ["condense", "--q", "25", "--r", "3", "--group", str(group)]) == (cli.EXIT_ERROR, "", message)


def test_classify_writes_the_class_list_and_its_summary(tmp_path, capsys):
    path = tmp_path / "classes.txt"
    rc, out, err = run(capsys, ["classify", "--q", "3", "--out", str(path)])
    assert (rc, err) == (cli.EXIT_OK, "")
    listed = format_class_list(enumerate_cyclic_classes(3))
    assert path.read_text() == listed
    summary = json.loads(out)
    assert (summary["classes_total"], summary["classes_nontrivial"], summary["cyclic_subgroup_classes"]) == (12, 11, 8)
    # without --out the list goes to stdout and the summary to stderr
    assert run(capsys, ["classify", "--q", "3"]) == (cli.EXIT_OK, listed, out)


@pytest.mark.parametrize("q", ("4", "17"))
def test_classify_rejects_a_non_prime_or_too_large_order(capsys, q):
    rc, out, err = run(capsys, ["classify", "--q", q])
    assert (rc, out) == (cli.EXIT_ERROR, "")
    assert err.startswith("error: ")
