import json

from pgarcs import cli


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
    fields = dict(line.split("=", 1) for line in out.splitlines())
    assert (fields["ell"], fields["status"], fields["objective"]) == ("13", "Optimal", "4")
    assert "time" not in fields


EXCLUDE_Q3 = ["exclude", "--q", "3", "--r", "2", "--n", "5", "--budget-per-class", "10"]


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
    assert err.splitlines() == [
        f"class {c['id']} order {c['order']} ell {c['ell']}: ProvedInfeasible nodes={c['nodes']}"
        for c in report["classes"]
    ]


def test_exclude_progress_lines_carry_class_times(capsys):
    rc, out, err = run(capsys, EXCLUDE_Q3)
    assert rc == cli.EXIT_OK
    classes = json.loads(out)["classes"]
    assert len(classes) == 11
    assert err.splitlines() == [
        f"class {c['id']} order {c['order']} ell {c['ell']}: {c['status']} nodes={c['nodes']} time={c['time']}"
        for c in classes
    ]


def test_exclude_resume_reads_records_written_without_symmetry(tmp_path, capsys):
    path = tmp_path / "checkpoint.json"
    old = {"id": 1, "order": 2, "ell": 9, "status": "ProvedInfeasible", "objective": 4, "nodes": 7, "time": 0.1}
    path.write_text(json.dumps({"key": "q=3 r=2 n=5", "classes": {"1": old}}))
    rc, out, err = run(capsys, EXCLUDE_Q3 + ["--deterministic", "--resume", str(path)])
    assert rc == cli.EXIT_OK
    first = json.loads(out)["classes"][0]
    assert (first["id"], first["nodes"], first["symmetry"]) == (1, 7, 1)
    assert len(err.splitlines()) == 10  # class 1 is not solved again
