from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from bipspec import bigraph, eccode, expansion, spectra
from bipspec.cli import run
from bipspec.vsplit import vertex_split

GOLDEN = Path(__file__).parent / "golden"


def _write_graph(tmp_path: Path, g, name: str = "graph.bip") -> str:
    path = tmp_path / name
    path.write_text(bigraph.write_edge_list(g), encoding="utf-8")
    return str(path)


def test_gen_complete_stdout(capsys):
    assert run(["gen", "--complete", "8", "4"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("bip 8 4\n")
    assert out.count("\ne ") == 32


def test_gen_tree_deterministic(tmp_path):
    a, b = tmp_path / "a.bip", tmp_path / "b.bip"
    assert run(["gen", "--tree", "10", "--mode", "balanced", "--seed", "4", "--out", str(a)]) == 0
    assert run(["gen", "--tree", "10", "--mode", "balanced", "--seed", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    g = bigraph.read_edge_list(a.read_text(encoding="utf-8"))
    assert (g.n1, g.n2, g.m) == (5, 5, 9)


def test_spectrum_command(tmp_path, capsys):
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(8, 4))
    out_json = tmp_path / "spec.json"
    assert run(["spectrum", "--graph", graph, "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    finding = report["findings"][0]
    assert finding["type"] == "spectrum"
    assert finding["kind"] == "adjacency"
    assert finding["eigenvalues"][0] == pytest.approx(math.sqrt(32), abs=1e-8)
    assert report["exit_status"] == 0


def test_bounds_p4_clean(tmp_path):
    graph = _write_graph(tmp_path, bigraph.path_graph(4))
    out_json = tmp_path / "bounds.json"
    assert run(["bounds", "--graph", graph, "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    assert report["violations"] == []
    bound_ids = [f["bound_id"] for f in report["findings"] if f["type"] == "bound"]
    assert bound_ids == [
        "T1.iii",
        "T1.iv",
        "Cor-regular-adj",
        "T2-tree",
        "T9-tree",
        "T5.ii",
        "Cor-regular-lap",
        "Note-complete-lap",
    ]


def test_bounds_p20_audit(tmp_path):
    graph = _write_graph(tmp_path, bigraph.path_graph(20), "p20.bip")
    out_json = tmp_path / "bounds.json"
    assert run(["bounds", "--graph", graph, "--json", str(out_json)]) == 1
    report = json.loads(out_json.read_text(encoding="utf-8"))
    violated = {f["bound_id"] for f in report["violations"] if f["type"] == "bound"}
    assert {"T1.iii", "T1.iv", "T2-tree", "T9-tree", "T5.ii"} <= violated
    t1 = next(f for f in report["findings"] if f.get("bound_id") == "T1.iii")
    assert t1["observed"] == pytest.approx(2 * math.cos(2 * math.pi / 21), abs=1e-6)
    assert t1["bound"] == pytest.approx(1.9, abs=1e-6)
    chains = [f for f in report["violations"] if f["type"] == "interlacing"]
    assert chains and all(not f["claimed_chain_holds"] for f in chains)
    assert report["exit_status"] == 1


def test_bounds_golden_json(tmp_path):
    graph = _write_graph(tmp_path, bigraph.path_graph(4), "p4.bip")
    out_json = tmp_path / "bounds.json"
    run(["bounds", "--graph", graph, "--json", str(out_json)])
    produced = json.loads(out_json.read_text(encoding="utf-8"))
    golden = json.loads((GOLDEN / "bounds_p4.json").read_text(encoding="utf-8"))
    # inputs echo the (temporary) graph path; everything else must be frozen
    produced["inputs"]["graph"] = "p4.bip"
    assert produced == golden


@pytest.mark.parametrize("name", ["tree30", "dense22"])
def test_bounds_and_split_golden_bytes(tmp_path, monkeypatch, name):
    # a 30-vertex tree and a 22-vertex dense graph: large enough that the
    # order of the Jacobi rotations reaches every reported eigenvalue
    (tmp_path / f"{name}.bip").write_bytes((GOLDEN / f"{name}.bip").read_bytes())
    monkeypatch.chdir(tmp_path)
    run(["bounds", "--graph", f"{name}.bip", "--json", "bounds.json"])
    run(["split", "--graph", f"{name}.bip", "--k", "2", "--json", "split.json"])
    assert (tmp_path / "bounds.json").read_bytes() == (GOLDEN / f"bounds_{name}.json").read_bytes()
    assert (tmp_path / "split.json").read_bytes() == (GOLDEN / f"split_k2_{name}.json").read_bytes()


def _count_calls(monkeypatch, fn) -> list:
    """Count calls of fn through every bipspec binding of it."""
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    for name, module in list(sys.modules.items()):
        if name == "bipspec" or name.startswith("bipspec."):
            for attr, obj in list(vars(module).items()):
                if obj is fn:
                    monkeypatch.setattr(module, attr, counted)
    return calls


def test_each_matrix_solved_once_per_command(tmp_path, monkeypatch):
    eig = _count_calls(monkeypatch, spectra.symmetric_eigenvalues)
    kappa = _count_calls(monkeypatch, bigraph.edge_connectivity)
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(5, 5))
    assert run(["bounds", "--graph", graph]) == 0
    assert (len(eig), len(kappa)) == (2, 0)
    eig.clear()
    assert run(["split", "--graph", graph, "--k", "2"]) == 0
    assert (len(eig), len(kappa)) == (1, 1)


def test_expansion_gamma_enumerates_once(tmp_path, monkeypatch):
    g = vertex_split(bigraph.complete_bipartite(8, 4)).split_graph
    graph = _write_graph(tmp_path, g)
    expected = expansion.lossless_parameters(g, 0.25).to_json_dict()
    calls = _count_calls(monkeypatch, expansion.vertex_expansion)
    out_json = tmp_path / "exp.json"
    assert run(["expansion", "--graph", graph, "--gamma", "0.25", "--json", str(out_json)]) == 0
    assert len(calls) == 1
    lossless = json.loads(out_json.read_text(encoding="utf-8"))["findings"][1]
    assert lossless == {"type": "lossless", **expected}
    # --cap 2 is the cap gamma gives, so the report is reused; --cap 3 is not
    calls.clear()
    assert run(["expansion", "--graph", graph, "--cap", "2", "--gamma", "0.25"]) == 0
    assert len(calls) == 1
    calls.clear()
    assert run(["expansion", "--graph", graph, "--cap", "3", "--gamma", "0.25", "--json", str(out_json)]) == 0
    assert len(calls) == 2
    lossless = json.loads(out_json.read_text(encoding="utf-8"))["findings"][1]
    assert lossless == {"type": "lossless", **expected}


def test_each_parity_check_matrix_reduced_once_per_command(tmp_path, monkeypatch):
    forward = _count_calls(monkeypatch, eccode._gf2_echelon)
    back = _count_calls(monkeypatch, eccode._gf2_back_substitute)
    graph = _write_graph(tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)).split_graph)
    out_json = tmp_path / "code.json"
    assert run(["code", "--graph", graph, "--json", str(out_json)]) == 0
    # d = 4 comes from collisions among H's columns, so the basis is never read
    assert (len(forward), len(back)) == (1, 0)
    assert json.loads(out_json.read_text(encoding="utf-8"))["findings"][0]["true_distance"] == 4
    forward.clear()
    back.clear()
    assert run(["code", "--pipeline", "8"]) == 0
    assert (len(forward), len(back)) == (1, 0)
    # the [15, 7, 5] BCH code: row r of H is 11010001 at bits r..r+7, and
    # d = 5 is enumerated from the basis, which continues from the forward pass
    forward.clear()
    bch = bigraph.build(15, 8, [(r + i, r) for r in range(8) for i in (0, 1, 3, 7)])
    graph = _write_graph(tmp_path, bch, "bch.bip")
    assert run(["code", "--graph", graph, "--json", str(out_json)]) == 0
    assert (len(forward), len(back)) == (1, 1)
    assert json.loads(out_json.read_text(encoding="utf-8"))["findings"][0]["true_distance"] == 5


def test_code_beyond_enumeration_never_derives_the_basis(tmp_path, monkeypatch):
    forward = _count_calls(monkeypatch, eccode._gf2_echelon)
    back = _count_calls(monkeypatch, eccode._gf2_back_substitute)
    nullspace = _count_calls(monkeypatch, eccode._nullspace)
    g = bigraph.build(30, 2, [(u, 0) for u in range(30)])  # rank 1, dimension 29
    graph = _write_graph(tmp_path, g)
    out_json = tmp_path / "code.json"
    alist, pchk = tmp_path / "code.alist", tmp_path / "code.pchk"
    argv = ["code", "--graph", graph, "--json", str(out_json), "--alist", str(alist), "--pchk", str(pchk)]
    assert run(argv) == 0
    entry = json.loads(out_json.read_text(encoding="utf-8"))["findings"][0]
    assert (entry["dimension"], "true_distance" in entry) == (29, False)
    assert (len(forward), len(back), len(nullspace)) == (1, 0, 0)
    assert eccode.read_alist(alist.read_text(encoding="utf-8")) == eccode.parity_check_from_graph(g)


def test_split_command_files_and_checks(tmp_path):
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(5, 5))
    out_json = tmp_path / "split.json"
    base = tmp_path / "split_out"
    status = run(
        ["split", "--graph", graph, "--k", "2", "--out", str(base), "--json", str(out_json)]
    )
    assert status == 0
    split_graph = bigraph.read_edge_list((base.with_suffix(".bip")).read_text(encoding="utf-8"))
    assert (split_graph.n1, split_graph.n2, split_graph.m) == (5, 10, 25)
    sidecar = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    assert set(sidecar) == {"mapping", "rule", "warnings"}
    report = json.loads(out_json.read_text(encoding="utf-8"))
    kinds = [f["type"] for f in report["findings"]]
    assert kinds == ["split", "connectivity-criterion", "connectivity-criterion"]
    r1 = report["findings"][1]
    assert r1["criterion_met"] and r1["conclusion_holds"]


def test_split_seeded_random_byte_identical(tmp_path):
    graph = _write_graph(tmp_path, bigraph.random_tree(12, "balanced", 7))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["split", "--graph", graph, "--rule", "seeded-random", "--seed", "3"]
    assert run(argv + ["--json", str(out1)]) == run(argv + ["--json", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_expansion_command(tmp_path):
    split_graph = _write_graph(
        tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)).split_graph
    )
    out_json = tmp_path / "exp.json"
    assert run(["expansion", "--graph", split_graph, "--gamma", "0.25", "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    exp = report["findings"][0]
    assert exp["type"] == "expansion"
    assert exp["alpha"] == 2.5
    lossless = report["findings"][1]
    assert lossless["type"] == "lossless"
    assert lossless["epsilon"] == 0.375


@pytest.mark.parametrize("gamma", ["inf", "-inf", "nan"])
def test_expansion_rejects_nonfinite_gamma(tmp_path, capsys, gamma):
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(4, 4))
    assert run(["expansion", "--graph", graph, f"--gamma={gamma}"]) == 2
    assert run(["expansion", "--graph", graph, "--cap", "2", f"--gamma={gamma}"]) == 2
    assert "gamma" in capsys.readouterr().err


def test_expansion_huge_gamma_caps_at_the_side_size(tmp_path, capsys):
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(4, 3))
    out_json = tmp_path / "exp.json"
    assert run(["expansion", "--graph", graph, "--gamma", "1e308", "--json", str(out_json)]) == 0
    findings = json.loads(out_json.read_text(encoding="utf-8"))["findings"]
    assert findings[0]["cap"] == 4 and findings[0]["exhaustive"]
    assert findings[1]["type"] == "lossless" and findings[1]["alpha"] == 0.75
    assert run(["expansion", "--graph", graph, "--side", "right", "--gamma", "1e308"]) == 0
    assert run(["expansion", "--graph", graph, "--gamma=-1e308"]) == 2
    assert "subset cap must be >= 1" in capsys.readouterr().err


def test_expansion_gamma_on_edgeless_graph_is_an_input_error(tmp_path, capsys):
    graph = tmp_path / "empty.bip"
    graph.write_text("bip 3 3\n", encoding="utf-8")
    assert run(["expansion", "--graph", str(graph), "--gamma", "0.5"]) == 2
    assert "left degree D is 0" in capsys.readouterr().err


def test_internal_error_exits_3_with_traceback(tmp_path, monkeypatch, capsys):
    def broken(M):
        raise RuntimeError("solver bug")

    monkeypatch.setattr(spectra, "symmetric_eigenvalues", broken)
    graph = _write_graph(tmp_path, bigraph.path_graph(4))
    assert run(["spectrum", "--graph", graph]) == 3
    err = capsys.readouterr().err
    assert "Traceback" in err and "RuntimeError: solver bug" in err


def test_code_pipeline_json(tmp_path):
    out_json = tmp_path / "code.json"
    assert run(["code", "--pipeline", "8", "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    code = next(f for f in report["findings"] if f["type"] == "code")
    assert code["block_length"] == 8
    distance = next(f for f in report["findings"] if f["type"] == "distance")
    assert distance["lemma_bound"] == 2.5
    assert distance["cor8_bound"] == 2.5
    assert distance["bound_holds"] is True
    rule = next(f for f in report["findings"] if f["type"] == "n2-rule")
    assert rule["feasible"] is False


def test_code_graph_and_formats(tmp_path):
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(2, 1))
    pchk = tmp_path / "code.pchk"
    alist = tmp_path / "code.alist"
    assert run(["code", "--graph", graph, "--pchk", str(pchk), "--alist", str(alist)]) == 0
    assert pchk.read_text(encoding="utf-8") == "pchk 1 2\n11\n"
    assert alist.read_text(encoding="utf-8").splitlines()[0] == "2 1"


def test_usage_errors(tmp_path):
    assert run(["frobnicate"]) == 2
    assert run(["bounds"]) == 2  # --graph required
    assert run(["bounds", "--graph", "/nonexistent/file.bip"]) == 2
    assert run(["gen", "--tree", "7", "--mode", "average"]) == 2  # infeasible n
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(3, 3))
    assert run(["expansion", "--graph", graph]) == 2  # neither --cap nor --gamma
    bad = tmp_path / "bad.bip"
    bad.write_text("bip 2 2\ne 0 9\n", encoding="utf-8")
    assert run(["spectrum", "--graph", str(bad)]) == 2


def test_gen_json_envelope(tmp_path):
    out = tmp_path / "gen.json"
    assert run(["gen", "--complete", "3", "2", "--out", str(tmp_path / "g.bip"), "--json", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["findings"] == [{"type": "graph", "n1": 3, "n2": 2, "m": 6}]
    assert report["violations"] == []


def test_run_report_schema(tmp_path):
    graph = _write_graph(tmp_path, bigraph.path_graph(4))
    out_json = tmp_path / "r.json"
    run(["bounds", "--graph", graph, "--json", str(out_json)])
    report = json.loads(out_json.read_text(encoding="utf-8"))
    assert set(report) == {"command", "inputs", "findings", "violations", "exit_status"}
    assert report["command"] == "bounds"
