import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

from fanfree.cli import main
from fanfree.model import dumps, from_json_dict, load, save


def test_gen_then_check_round_trip(tmp_path, capsys):
    out = tmp_path / "d.json"
    assert main(["gen", "--family", "straight-extremal", "--n", "6",
                 "--out", str(out)]) == 0
    assert main(["check", "--input", str(out), "--k", "2"]) == 0
    # without --out, gen prints the document itself
    capsys.readouterr()
    assert main(["gen", "--family", "straight-extremal", "--n", "6"]) == 0
    printed = capsys.readouterr().out
    assert dumps(from_json_dict(json.loads(printed))) + "\n" == printed == out.read_text()


def test_round_trip_equals_in_memory(tmp_path):
    from fanfree.constructions import gen_straight_extremal

    d = gen_straight_extremal(8)
    path = tmp_path / "d.json"
    save(d, path)
    assert dumps(load(path)) == dumps(d)


def test_check_reports_witness(tmp_path, fan_fixture):
    path = tmp_path / "fan.json"
    save(fan_fixture, path)
    payload_path = tmp_path / "out.json"
    code = main(["check", "--input", str(path), "--k", "2",
                 "--json", str(payload_path)])
    assert code == 1
    payload = json.loads(payload_path.read_text())
    assert payload["witnesses"] == [{"crosser": 2, "apex": 0, "fan": [0, 1]}]
    # bounds reports the fan as its verdict; a fan is no falsification
    assert main(["bounds", "--input", str(path), "--json", str(payload_path)]) == 0
    assert json.loads(payload_path.read_text())["verdict"] == "has-fan-crossing"


def test_star_search_prints_maximum(capsys):
    assert main(["star-search", "--m", "3", "--k", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1"


def test_star_search_json_payload(tmp_path, capsys):
    from fanfree.star import max_arrows

    out = tmp_path / "s.json"
    assert main(["star-search", "--m", "5", "--k", "2", "--json", str(out)]) == 0
    assert capsys.readouterr().out.strip() == "4"
    payload = json.loads(out.read_text())
    seconds = payload.pop("seconds")
    assert isinstance(seconds, float) and seconds >= 0
    assert payload == {
        "schema": 1,
        "m": 5,
        "k": 2,
        "maximum": 4,
        "nodes": 63,
        "configs": [
            {"m": 5, "arrows": [list(a) for a in c.arrows]}
            for c in max_arrows(5, 2).configs
        ],
    }


def test_star_search_budget_exhaustion_is_exit_3():
    assert main(["star-search", "--m", "6", "--k", "2", "--budget", "1"]) == 3


def test_budget_below_one_is_a_usage_error(capsys):
    for budget in ("0", "-1"):
        assert main(["star-search", "--m", "6", "--k", "2", "--budget", budget]) == 2
        assert "budget must be >= 1" in capsys.readouterr().err


def _run_python(*args):
    """``python *args`` in a fresh process that imports fanfree from this
    checkout's src/ (ahead of any inherited PYTHONPATH)."""
    src = Path(__file__).resolve().parent.parent / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_python_dash_m_fanfree_runs_the_cli(tmp_path):
    out = tmp_path / "s.json"
    proc = _run_python("-m", "fanfree", "star-search", "--m", "4", "--k", "2",
                       "--json", str(out))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "2"
    payload = json.loads(out.read_text())
    assert (payload["m"], payload["k"], payload["maximum"]) == (4, 2, 2)
    assert payload["configs"]


def test_fanfree_imports_no_third_party_module_and_no_dataclasses():
    # the same check as the CI step: the package has no runtime dependency,
    # and its value types and records generate no code at import
    proc = _run_python("-c", (
        "import sys, fanfree, fanfree.cli, fanfree.repro; "
        "bad = sorted({'numpy', 'networkx', 'hypothesis', 'pytest', 'dataclasses'}"
        " & set(sys.modules)); assert not bad, bad"))
    assert proc.returncode == 0, proc.stderr


def test_star_search_class_filter(capsys):
    assert main(["star-search", "--m", "3", "--k", "3", "--class", "3,0,0"]) == 0
    assert capsys.readouterr().out.strip() == "3"


def test_usage_error_is_exit_2():
    assert main(["check"]) == 2
    assert main(["gen", "--family", "straight-extremal"]) == 2
    assert main(["gen", "--family", "quad-extremal", "--n", "9"]) == 2
    assert main(["gen", "--family", "bogus"]) == 2
    assert main(["star-search", "--m", "4", "--class", "2,2"]) == 2
    assert main(["star-search", "--m", "5", "--class", "1,1,3", "--long-only"]) == 2
    # the battery has no node budget: every claim runs to its end
    assert main(["repro", "--budget", "1"]) == 2


def test_a_document_of_the_wrong_kind_is_exit_2(tmp_path, capsys):
    graph = tmp_path / "graph.json"
    graph.write_text(json.dumps({"n": 3, "edges": [[0, 1]]}))
    for command in ("check", "audit"):
        assert main([command, "--input", str(graph)]) == 2
        assert "has no drawing data" in capsys.readouterr().err
    abstract = tmp_path / "abstract.json"
    abstract.write_text(json.dumps({"n": 4, "edges": [[0, 1], [2, 3]], "crossings": [[0, 1]]}))
    assert main(["render", "--input", str(abstract), "--out", str(tmp_path / "d.svg")]) == 2
    assert "needs a drawing with coordinates" in capsys.readouterr().err


def test_audit_command(tmp_path):
    out = tmp_path / "d.json"
    main(["gen", "--family", "straight-extremal", "--n", "9", "--out", str(out)])
    report = tmp_path / "rep.json"
    assert main(["audit", "--input", str(out), "--k", "2",
                 "--report", str(report)]) == 0
    rep = json.loads(report.read_text())
    assert rep["ok"] and rep["euler_ok"]


def test_bounds_command(tmp_path, capsys):
    assert main(["bounds", "--n", "7", "--k", "2"]) == 0
    assert "19" in capsys.readouterr().out
    # 3(k-1)(n-2) for k >= 3, with no exact value
    assert main(["bounds", "--n", "9", "--k", "3"]) == 0
    assert capsys.readouterr().out == "bound 42\n"


def test_bounds_input_detects_a_straight_line_drawing(tmp_path):
    # a drawing with coordinates is judged against 4n-9 without --straight;
    # the straight-line extremal drawing on 30 vertices meets it exactly
    src = tmp_path / "d.json"
    assert main(["gen", "--family", "straight-extremal", "--n", "30",
                 "--out", str(src)]) == 0
    out = tmp_path / "bounds.json"
    assert main(["bounds", "--input", str(src), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["straight"] is True
    assert payload["bound"] == 111 and payload["edges"] == 111
    assert payload["verdict"] == "extremal"
    # K_4 drawn without crossings: 6 edges, below 4n-9 = 7 but the exact
    # maximum on 4 vertices
    k4 = tmp_path / "k4.json"
    k4.write_text(json.dumps({
        "n": 4,
        "edges": [[0, 1], [0, 2], [0, 3], [1, 2], [1, 3], [2, 3]],
        "coords": [[0, 1, 0, 1], [6, 1, 0, 1], [0, 1, 6, 1], [1, 1, 1, 1]],
    }))
    assert main(["bounds", "--input", str(k4), "--json", str(out)]) == 0
    payload = json.loads(out.read_text())
    assert payload["straight"] is True and payload["bound"] == 7
    assert payload["verdict"] == "extremal"


def test_bounds_falsification_archives_counterexample(tmp_path, monkeypatch):
    # an input whose crossing relation lies (K7, "no crossings") must be
    # archived and flagged, and --json still writes the verdict
    from fanfree.model import AbstractDrawing, CrossingRelation, Graph

    monkeypatch.chdir(tmp_path)
    k7 = Graph(7, tuple((u, v) for u in range(7) for v in range(u + 1, 7)))
    save(AbstractDrawing(k7, CrossingRelation(), "external"), tmp_path / "lie.json")
    assert json.loads((tmp_path / "lie.json").read_text())["crossings"] == []
    code = main(["bounds", "--input", str(tmp_path / "lie.json"), "--k", "2",
                 "--json", "lie-bounds.json"])
    assert code == 1
    assert (tmp_path / "falsification.json").exists()
    assert json.loads((tmp_path / "lie-bounds.json").read_text())["verdict"] == "falsification"


def test_bounds_without_n_or_input_is_a_usage_error(capsys):
    assert main(["bounds"]) == 2
    assert "--n or --input" in capsys.readouterr().err


def test_audit_of_an_abstract_drawing_reports_the_edge_limit(tmp_path, capsys):
    """Without coordinates the audit checks only the edge count, and says so."""
    src = tmp_path / "q12.json"
    assert main(["gen", "--family", "quad-extremal", "--n", "12", "--out", str(src)]) == 0
    capsys.readouterr()
    assert main(["audit", "--input", str(src)]) == 0
    assert capsys.readouterr().out == "audit passed: 40 edges, within the edge limit 40\n"


def test_audit_and_bounds_agree_on_k7_minus_an_edge(tmp_path, monkeypatch):
    """K_7 minus an edge, with no crossings: its 20 edges meet 4n-8 but
    exceed the exact maximum 4n-9 = 19 at n = 7, so both commands call the
    fan-free input a falsification."""
    monkeypatch.chdir(tmp_path)
    edges = [[u, v] for u in range(7) for v in range(u + 1, 7)][1:]
    (tmp_path / "k7e.json").write_text(json.dumps({"n": 7, "edges": edges, "crossings": []}))
    report = tmp_path / "audit.json"
    assert main(["audit", "--input", "k7e.json", "--report", str(report)]) == 1
    rep = json.loads(report.read_text())
    assert rep["edge_bound"] == 19 and not rep["edge_bound_ok"]
    assert main(["bounds", "--input", "k7e.json"]) == 1
    assert (tmp_path / "falsification.json").exists()
    assert (tmp_path / "falsification-1.json").exists()


def test_audit_and_bounds_agree_on_generated_families(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    for family, k in (
        (["--family", "quad-extremal", "--n", "12"], 2),
        (["--family", "straight-extremal", "--n", "9"], 2),
        (["--family", "grid", "--side", "5", "--k", "5"], 5),
        (["--family", "kq-subdivision", "--q", "5"], 2),
        (["--family", "tri-plus-dual", "--rows", "4", "--cols", "4"], 4),
    ):
        assert main(["gen", *family, "--out", "d.json"]) == 0
        assert main(["audit", "--input", "d.json", "--k", str(k)]) == 0
        assert main(["bounds", "--input", "d.json", "--k", str(k)]) == 0
    assert not list(tmp_path.glob("falsification*.json"))


def test_render_svg_structure(tmp_path):
    src = tmp_path / "d.json"
    main(["gen", "--family", "kq-subdivision", "--q", "4", "--out", str(src)])
    svg = tmp_path / "d.svg"
    assert main(["render", "--input", str(src), "--out", str(svg)]) == 0
    root = ET.parse(svg).getroot()
    ns = "{http://www.w3.org/2000/svg}"
    d = load(src)
    assert len(root.findall(f"{ns}circle")) == d.graph.n
    assert len(root.findall(f"{ns}line")) == len(d.graph.edges)


def test_repro_fast_battery_known_status(tmp_path):
    # every claim passes; the three base-case rows off the reference table
    # (see README, "Base-case table") pass on their certificates, which
    # their details name
    out = tmp_path / "claims.json"
    assert main(["repro", "--out", str(out)]) == 0
    claims = json.loads(out.read_text())["claims"]
    assert all(c["status"] == "pass" for c in claims)
    certified = sorted(c["name"] for c in claims if "certified" in c["detail"])
    assert certified == [
        "star classes: A(2,1,0) at k=3 against reference 2",
        "star classes: A(2,1,1) at k=3 against reference 4",
        "star classes: A(3,1,0) at k=3 against reference 4",
    ]


def test_generator_fault_fails_its_claim_and_the_battery_goes_on(tmp_path, monkeypatch):
    # a generator self-check that fails inside a claim fails that claim with
    # the error's message; the other claims still run and --out is written.
    # n = 25 is a size only the quad-family claim generates
    import fanfree.constructions as fc

    real = fc.gen_quad_extremal

    def broken(n):
        if n == 25:
            raise fc.ConstructionError("quad n=25: self-check failed")
        return real(n)

    monkeypatch.setattr(fc, "gen_quad_extremal", broken)
    out = tmp_path / "claims.json"
    assert main(["repro", "--out", str(out)]) == 1
    claims = json.loads(out.read_text())["claims"]
    assert len(claims) == 22
    assert [(c["name"], c["detail"]) for c in claims if c["status"] != "pass"] == [
        ("constructions: quadrangulation family attains 4n-8",
         "quad n=25: self-check failed")]


def test_fault_injection_fails_the_battery(monkeypatch):
    # an off-by-one in a closed form must flip its claim to FAIL
    import fanfree.bounds as fb
    from fanfree.repro import claim_bounds_table

    real = fb.upper_bound

    def broken(n, k, straight=False):
        return real(n, k, straight) + (1 if k == 2 and not straight else 0)

    monkeypatch.setattr(fb, "upper_bound", broken)
    claims = claim_bounds_table()
    assert claims[0].status == "fail"


def test_base_case_faults_fail_their_claims(monkeypatch):
    # a reference raised by one, witnesses whose realizations report a fan,
    # and an enumerator that disagrees with the search each fail their rows
    import fanfree.repro as fr
    import fanfree.star as fs

    def failing_rows():
        claims = fr.claim_base_cases()
        return [c.name.split()[2] for c in claims if c.status == "fail"]

    formula = fs.base_case_formula
    monkeypatch.setattr(fs, "base_case_formula", lambda h, lam, nu, k: (
        formula(h, lam, nu, k) + ((h, lam, nu) == (3, 0, 0))))
    assert failing_rows() == ["A(3,0,0)"]
    monkeypatch.undo()

    monkeypatch.setattr(fr, "find_k_fans", lambda g, c, k: ["a fan"])
    assert failing_rows() == ["A(3,1,0)", "A(2,1,1)"]
    monkeypatch.undo()

    table = fr.brute_class_table
    monkeypatch.setattr(fr, "brute_class_table", lambda m, k: {**table(m, k), (4, 0, 0): 5})
    assert failing_rows() == ["A(4,0,0)"]


def test_malformed_input_is_exit_2(tmp_path, capsys):
    # rejected by the loader, before any check can read past the graph, with
    # a message that names the problem and no traceback
    coords = [[0, 1, 0, 1], [1, 1, 0, 1], [0, 1, 1, 1]]
    for data, message in (
        ({"n": 3, "edges": [[-1, 2]], "coords": coords}, "outside [0, 3)"),
        ({"n": 3, "edges": [[0, 0]], "coords": coords}, "self-loop"),
        ({"n": 4, "edges": [[0, 1], [2, 3]], "crossings": [[0, 5]]},
         "outside the edge range"),
        ([{"n": 3, "edges": []}], "must be a JSON object, got list"),
        ({"edges": [[0, 1]], "coords": coords}, "has no 'n'"),
        ({"n": 3, "coords": coords}, "has no 'edges'"),
        ({"n": 3, "edges": [[0, 1]], "coords": [[0, 0, 0, 1]] + coords[1:]},
         "coords[0] has a zero denominator"),
        ({"n": 3, "edges": [[0, 1]], "coords": [[0.5, 1, 0, 1]] + coords[1:]},
         "coords[0] must be a list of 4 integers"),
        ({"n": 3, "edges": [[0, 1]], "coords": [[0, 1, 0]] + coords[1:]},
         "coords[0] must be a list of 4 integers"),
        ({"n": 3, "edges": [[0, 1]], "coords": coords[1:]}, "2 coordinate rows for 3 vertices"),
        ({"n": 2, "edges": [[0, 1]], "crossings": [], "provenance": [1]},
         "provenance must be a string"),
        # each table's rows are named with the loader's wording
        ({"n": 3, "edges": [[0, 1.5]]}, "edges[0] must be a list of 2 integers, got [0, 1.5]"),
        ({"n": 3, "edges": [[0, 1, 2]]}, "edges[0] must be a list of 2 integers, got [0, 1, 2]"),
        ({"n": 3, "edges": [[0, 1], 5]}, "edges[1] must be a list of 2 integers, got 5"),
        ({"n": 3, "edges": {"a": 1}}, "edges must be a list, got dict"),
        ({"n": 4, "edges": [[0, 1], [2, 3]], "crossings": [[0, True]]},
         "crossings[0] must be a list of 2 integers, got [0, True]"),
    ):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        for command in ("check", "audit"):
            assert main([command, "--input", str(path)]) == 2, (command, data)
            err = capsys.readouterr().err
            assert err.startswith("error: ") and message in err, (command, err)


def test_coords_and_crossings_together_is_exit_2(tmp_path, capsys):
    # the loader rejects the document instead of dropping its crossings
    path = tmp_path / "both.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [[0, 1], [2, 3]],
        "coords": [[0, 1, 0, 1], [2, 1, 2, 1], [0, 1, 2, 1], [2, 1, 0, 1]],
        "crossings": [[0, 1]],
    }))
    for command in ("check", "audit"):
        assert main([command, "--input", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "both 'coords' and 'crossings'" in err, err


def test_non_simple_drawing_is_exit_2_everywhere(tmp_path, capsys):
    # two vertices on one point: no command reads a crossing relation of it
    path = tmp_path / "coincident.json"
    path.write_text(json.dumps({
        "n": 4, "edges": [[0, 1], [2, 3]],
        "coords": [[0, 1, 0, 1], [2, 1, 0, 1], [0, 1, 0, 1], [1, 1, 3, 1]],
    }))
    for argv in (
        ["check", "--input", str(path)],
        ["bounds", "--input", str(path)],
        ["render", "--input", str(path), "--out", str(tmp_path / "d.svg")],
        ["audit", "--input", str(path)],
    ):
        assert main(argv) == 2, argv
        assert "not simple" in capsys.readouterr().err, argv


def test_unexpected_exception_is_exit_4(monkeypatch, capsys):
    # an internal fault must not look like a witness (exit 1)
    import fanfree.cli as cli

    def broken(*args, **kwargs):
        raise KeyError("slot")

    monkeypatch.setattr(cli._star, "max_arrows", broken)
    assert main(["star-search", "--m", "3"]) == 4
    assert "internal error: KeyError" in capsys.readouterr().err
