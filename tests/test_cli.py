from __future__ import annotations

import contextlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

from bipspec import acceptance, bigraph, cli, eccode, expansion, spectra, vsplit
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


def test_package_root_holds_only_version():
    # names are imported from their modules: the root binds __version__
    # alone and loads no submodule and no numpy
    code = (
        "import sys, bipspec; "
        "print(sorted(k for k in vars(bipspec) if not (k.startswith('__') and k.endswith('__')))); "
        "print(sorted(m for m in sys.modules if m.startswith('bipspec.') or m == 'numpy')); "
        "print(bipspec.__version__)"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True).stdout
    assert out.splitlines() == ["[]", "[]", "0.1.0"]


def test_spectrum_command(tmp_path, capsys):
    g = bigraph.complete_bipartite(8, 4)
    graph = _write_graph(tmp_path, g)
    out_json = tmp_path / "spec.json"
    for kind in spectra.MATRIX_BUILDERS:
        assert run(["spectrum", "--graph", graph, "--matrix", kind, "--json", str(out_json)]) == 0
        report = json.loads(out_json.read_text(encoding="utf-8"))
        finding = report["findings"][0]
        assert finding["type"] == "spectrum"
        # the finding's kind is the --matrix argument, and its spectrum is that matrix's
        assert finding["kind"] == kind
        expected = spectra.symmetric_eigenvalues(spectra.MATRIX_BUILDERS[kind](g)).eigenvalues
        assert finding["eigenvalues"] == list(expected)
        assert report["exit_status"] == 0
    assert run(["spectrum", "--graph", graph, "--json", str(out_json)]) == 0
    finding = json.loads(out_json.read_text(encoding="utf-8"))["findings"][0]
    assert finding["kind"] == "adjacency"
    assert finding["eigenvalues"][0] == pytest.approx(math.sqrt(32), abs=1e-8)


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


def test_code_golden_bytes(tmp_path, monkeypatch):
    # the 13-bit code of dense22.bip through both writers, the n1 = 12
    # pipeline, whose distance comes from the collision search, and the
    # acceptance suite's report, whose C9 and C11 read the n1 = 8 pipeline
    (tmp_path / "dense22.bip").write_bytes((GOLDEN / "dense22.bip").read_bytes())
    monkeypatch.chdir(tmp_path)
    run(["code", "--graph", "dense22.bip", "--json", "c.json", "--pchk", "c.pchk", "--alist", "c.alist"])
    run(["code", "--pipeline", "12", "--json", "p.json"])
    run(["verify-all", "--json", "v.json"])
    for produced, golden in (
        ("c.json", "code_dense22.json"),
        ("c.pchk", "code_dense22.pchk"),
        ("c.alist", "code_dense22.alist"),
        ("p.json", "code_pipeline12.json"),
        ("v.json", "verify_all.json"),
    ):
        assert (tmp_path / produced).read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_expansion_and_code_never_build_the_biadjacency(tmp_path, monkeypatch):
    # the exact search, the sampler and the code read bit rows packed from
    # the edge keys, so each report is the golden one with no dense matrix:
    # a right-side cap, a gamma on a left-regular split (lossless included),
    # side 26 at cap 13 (past the subset budget, so sampled) and two codes
    for name in ("dense22.bip", "split8.bip", "tree52.bip"):
        (tmp_path / name).write_bytes((GOLDEN / name).read_bytes())
    monkeypatch.chdir(tmp_path)

    def refuse(self):
        raise AssertionError("a dense biadjacency matrix was built")

    monkeypatch.setattr(bigraph.BipartiteGraph, "biadjacency", refuse)
    for argv, golden in (
        (
            ["expansion", "--graph", "dense22.bip", "--side", "right", "--cap", "4"],
            "expansion_dense22_right_cap4.json",
        ),
        (["expansion", "--graph", "split8.bip", "--gamma", "0.25"], "expansion_split8_gamma.json"),
        (["expansion", "--graph", "tree52.bip", "--cap", "13"], "expansion_tree52_sampled.json"),
        (["code", "--graph", "dense22.bip"], "code_dense22.json"),
        (["code", "--pipeline", "8"], "code_pipeline8.json"),
    ):
        assert run([*argv, "--json", "out.json"]) == 0, argv
        assert (tmp_path / "out.json").read_bytes() == (GOLDEN / golden).read_bytes(), golden


def test_only_the_split_command_checks_connectivity(tmp_path, monkeypatch):
    # the definition's preconditions, a connected base graph among them, are
    # checked by `split` alone: the pipeline and the acceptance criteria
    # that split a graph run no BFS over it
    monkeypatch.chdir(tmp_path)

    def refuse(self):
        raise AssertionError("connectivity was checked")

    monkeypatch.setattr(bigraph.BipartiteGraph, "is_connected", refuse)
    eccode.construct_expander_code(8)
    for criterion in (acceptance.criterion_6, acceptance.criterion_8, acceptance.criterion_9):
        assert criterion().passed, criterion.__name__
    assert run(["code", "--pipeline", "12", "--json", "p.json"]) == 0
    assert (tmp_path / "p.json").read_bytes() == (GOLDEN / "code_pipeline12.json").read_bytes()


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


def test_verify_all_makes_each_input_once(monkeypatch):
    # the suite's own eigensolves reach each matrix once, its graphs are
    # drawn once and its code is built once, from cold caches and warm ones;
    # C4 and C10 run commands through cli.run, which solve their own inputs
    # (C10 runs one command twice on purpose)
    eig = _count_calls(monkeypatch, spectra.symmetric_eigenvalues)
    draws = _count_calls(monkeypatch, acceptance._random_connected_bipartite)
    pipelines = _count_calls(monkeypatch, eccode.construct_expander_code)
    nested: set[int] = set()  # indices in eig of the solves inside cli.run
    real_run = cli.run

    def nested_run(argv):
        start = len(eig)
        try:
            return real_run(argv)
        finally:
            nested.update(range(start, len(eig)))

    monkeypatch.setattr(cli, "run", nested_run)
    for cache in (acceptance._spectrum, acceptance._quotient_graphs, acceptance._pipeline):
        cache.cache_clear()
    for cold in (True, False):
        for counts in (eig, draws, pipelines, nested):
            counts.clear()
        assert run(["verify-all"]) == 0
        own = [M.data.tobytes() for i, (M,) in enumerate(eig) if i not in nested]
        assert len(own) == len(set(own))
        assert len(nested) == 4  # C4's two spectra of P_20, C10's two splits
        # C2 and C3 share 200 graphs, and C5 draws 30 of its own
        assert (len(draws), len(pipelines)) == ((230, 1) if cold else (30, 0))
        assert cold or not own


def test_each_graph_derives_its_adjacency_once_per_command(tmp_path, monkeypatch):
    built = _count_calls(monkeypatch, bigraph._vertex_adjacency)
    k55 = _write_graph(tmp_path, bigraph.complete_bipartite(5, 5), "k55.bip")
    k84_split = _write_graph(tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)), "s.bip")
    # (command, neighbour-tuple builds); only the connectivity walks build
    # them, while degrees, expansion rows, the writer and H read the keys
    for argv, builds in [
        (["split", "--graph", k55, "--k", "2"], 2),  # the base graph and its split
        (["expansion", "--graph", k84_split, "--cap", "3", "--gamma", "0.25"], 0),
        (["expansion", "--graph", k84_split, "--cap", "3"], 0),
        (["bounds", "--graph", k55], 1),
        (["code", "--pipeline", "8"], 0),  # the split's preconditions go unchecked
        (["gen", "--complete", "6", "4", "--out", str(tmp_path / "g.bip")], 0),
    ]:
        built.clear()
        assert run(argv) == 0
        graphs = [id(g) for (g,) in built]
        assert len(set(graphs)) == len(graphs) == builds, argv  # at most once per graph


def test_expansion_gamma_enumerates_once(tmp_path, monkeypatch):
    g = vertex_split(bigraph.complete_bipartite(8, 4))
    graph = _write_graph(tmp_path, g)
    expected = expansion.lossless_parameters(g, 0.25)._asdict()
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
    graph = _write_graph(tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)))
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
    assert alist.read_text(encoding="utf-8") == eccode.write_alist(eccode.parity_check_from_graph(g))


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


def test_split_sidecar_schema_and_mapping(tmp_path):
    # the copies of right vertex j are right vertices j and n2 + j
    for (m, n), rule in (((6, 3), "round-robin"), ((5, 5), "seeded-random")):
        graph = _write_graph(tmp_path, bigraph.complete_bipartite(m, n))
        base = tmp_path / "split_out"
        assert run(["split", "--graph", graph, "--rule", rule, "--out", str(base)]) == 0
        sidecar = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
        assert set(sidecar) == {"mapping", "rule", "warnings"}
        assert sidecar["mapping"] == [[j, n + j] for j in range(n)]
        assert sidecar["rule"] == rule
        g = bigraph.complete_bipartite(m, n)
        assert sidecar["warnings"] == vsplit.split_warnings(g, vertex_split(g, rule))


def test_split_counts_isolated_right_vertices_in_one_warning(tmp_path, capsys):
    graph = tmp_path / "sparse.bip"
    graph.write_text("bip 1000 1000\ne 0 0\n", encoding="ascii")
    base = tmp_path / "split_out"
    assert run(["split", "--graph", str(graph), "--out", str(base)]) == 0
    warning = "right vertices of degree 0: 999 (first 1); their copies are isolated"
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if "degree 0" in line] == [f"  warning: {warning}"]
    sidecar = json.loads(base.with_suffix(".json").read_text(encoding="utf-8"))
    assert [w for w in sidecar["warnings"] if "degree 0" in w] == [warning]


def test_split_seeded_random_byte_identical(tmp_path):
    graph = _write_graph(tmp_path, bigraph.random_tree(12, "balanced", 7))
    out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["split", "--graph", graph, "--rule", "seeded-random", "--seed", "3"]
    assert run(argv + ["--json", str(out1)]) == run(argv + ["--json", str(out2)])
    assert out1.read_bytes() == out2.read_bytes()


def test_expansion_command(tmp_path):
    split_graph = _write_graph(tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)))
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


def test_code_pipeline_beyond_side_24_is_exhaustive(tmp_path):
    out_json = tmp_path / "code.json"
    assert run(["code", "--pipeline", "26", "--json", str(out_json)]) == 0
    report = json.loads(out_json.read_text(encoding="utf-8"))
    lossless = next(f for f in report["findings"] if f["type"] == "lossless")
    assert lossless["alpha"] == 7.0  # (n1 + 2) / 4
    assert lossless["exhaustive"] is True


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


# the findings the CLI builds from a report's fields, by finding type
_REPORT_OF_FINDING = {
    "bound": spectra.BoundReport,
    "interlacing": spectra.InterlacingReport,
    "connectivity-criterion": vsplit.ConnectivityCriterionReport,
    "lossless": expansion.LosslessParams,
    "distance": eccode.DistanceReport,
    "n2-rule": eccode.N2RuleDiagnostic,
    "criterion": acceptance.CriterionResult,
}


def test_findings_hold_exactly_their_reports_fields(tmp_path):
    graph = _write_graph(tmp_path, vertex_split(bigraph.complete_bipartite(8, 4)))
    out_json = tmp_path / "r.json"
    seen = set()
    for argv in (
        ["bounds", "--graph", graph],
        ["split", "--graph", graph, "--k", "2"],
        ["expansion", "--graph", graph, "--gamma", "0.25"],
        ["code", "--pipeline", "12"],
        ["verify-all"],
    ):
        run([*argv, "--json", str(out_json)])
        for finding in json.loads(out_json.read_text(encoding="utf-8"))["findings"]:
            report = _REPORT_OF_FINDING.get(finding["type"])
            if report is not None:
                assert set(finding) - {"type"} == set(report._fields), finding
                seen.add(finding["type"])
    assert seen == set(_REPORT_OF_FINDING)
    assert all(issubclass(report, tuple) for report in _REPORT_OF_FINDING.values())


# every report record of the library
_RECORDS = (
    bigraph.DegreeProfile,
    spectra.SpectrumReport,
    spectra.Quotient2x2,
    spectra.InterlacingReport,
    spectra.BoundReport,
    expansion.ExpansionReport,
    expansion.LosslessParams,
    vsplit.ConnectivityCriterionReport,
    eccode.DistanceReport,
    eccode.N2RuleDiagnostic,
    eccode.ExpanderCodePipeline,
    acceptance.CriterionResult,
)


@pytest.mark.parametrize("record", _RECORDS, ids=lambda record: record.__name__)
def test_report_records_are_immutable(record):
    names = list(record.__annotations__)
    report = record(*names)  # each field holds its own name
    for name in names:
        with pytest.raises(AttributeError):
            setattr(report, name, None)
        assert getattr(report, name) == name


def test_verify_all_prints_only_its_own_lines(capsys):
    assert run(["verify-all"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[-1] == "no violations"
    assert [line.split()[0] for line in lines[:-1]] == [f"C{i}" for i in range(1, 12)]
    assert all(line.endswith(": PASS") for line in lines[:-1])


def test_generators_refuse_before_building_an_edge_set(monkeypatch, capsys):
    built = []

    def recorder(*args):
        built.append(args)
        raise AssertionError("an edge set was built")

    # complete_bipartite builds its edges with frozenset; the pipeline's base
    # graph is built by complete_bipartite as eccode binds it
    monkeypatch.setattr(bigraph, "frozenset", recorder, raising=False)
    monkeypatch.setattr(eccode, "complete_bipartite", recorder)
    assert run(["gen", "--complete", "100000", "100000"]) == 2
    assert run(["code", "--pipeline", "20000"]) == 2
    assert run(["code", "--pipeline", "4414"]) == 2  # the smallest even n1 over the budget
    assert run(["code", "--pipeline", "1" + "0" * 400]) == 2
    budget = f"exceeds the budget of {expansion.SUBSET_BUDGET} subsets"
    assert capsys.readouterr().err.splitlines() == [
        f"error: 10000000000 edges exceed the limit {bigraph.MAX_EDGES}",
        f"error: exhaustive enumeration infeasible: side size 20000, cap 2 {budget}",
        f"error: exhaustive enumeration infeasible: side size 4414, cap 2 {budget}",
        f"error: n1 = 1{'0' * 400} exceeds the side limit {bigraph.MAX_SIDE}",
    ]
    assert built == []


@pytest.mark.parametrize(
    "argv, shape",
    [
        (["spectrum"], "200000 x 200000 adjacency matrix"),
        (["bounds"], "200000 x 200000 adjacency matrix"),
        (["code"], "100000 x 100000 parity-check matrix"),
        (["split", "--k", "2"], "300000 x 300000 adjacency matrix"),
        (["expansion", "--cap", "1"], "100000 x 100000 biadjacency matrix"),
        (["expansion", "--side", "right", "--cap", "1"], "100000 x 100000 biadjacency matrix"),
    ],
)
def test_oversized_dense_matrices_are_refused_before_allocation(
    tmp_path, monkeypatch, capsys, argv, shape
):
    # a 24-byte edge list within MAX_SIDE whose dense matrices hold 10^10 cells
    graph = tmp_path / "big.bip"
    graph.write_text("bip 100000 100000\ne 0 0\n", encoding="ascii")
    zeros, oversized = np.zeros, []

    def recording_zeros(shape, *args, **kwargs):
        if math.prod(np.atleast_1d(shape)) > bigraph.MAX_DENSE_CELLS:
            oversized.append(shape)
            raise AssertionError(f"a dense {shape} matrix was allocated")
        return zeros(shape, *args, **kwargs)

    monkeypatch.setattr(np, "zeros", recording_zeros)
    assert run([argv[0], "--graph", str(graph), *argv[1:]]) == 2
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"error: a {shape} exceeds the limit of {bigraph.MAX_DENSE_CELLS} cells"
    )
    assert oversized == []


# The six files the CLI writes, by the suffix of the file and the command
# line that writes it to `target` (split --out takes the name without suffix).
_OUTPUTS = {
    "json": (".json", lambda graph, target: ["code", "--pipeline", "8", "--json", target]),
    "gen-out": (".bip", lambda graph, target: ["gen", "--complete", "3", "2", "--out", target]),
    "split-bip": (".bip", lambda graph, target: ["split", "--graph", graph, "--out", target[:-4]]),
    "split-json": (".json", lambda graph, target: ["split", "--graph", graph, "--out", target[:-5]]),
    "pchk": (".pchk", lambda graph, target: ["code", "--graph", graph, "--pchk", target]),
    "alist": (".alist", lambda graph, target: ["code", "--graph", graph, "--alist", target]),
}


def _output_case(tmp_path: Path, output: str):
    """The output's target path, a function running its command to a path,
    and the bytes a run to a fresh path writes."""
    suffix, argv = _OUTPUTS[output]
    graph = _write_graph(tmp_path, bigraph.complete_bipartite(5, 5))

    def write(target: Path) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return run(argv(graph, str(target)))

    fresh = tmp_path / "fresh" / f"o{suffix}"
    fresh.parent.mkdir()
    assert write(fresh) in (0, 1)
    return tmp_path / f"o{suffix}", write, fresh.read_bytes()


@pytest.mark.parametrize("output", _OUTPUTS)
def test_output_overwrites_an_existing_file(tmp_path, output):
    target, write, expected = _output_case(tmp_path, output)
    # 64 KB, longer than every output, then one byte, shorter than every one
    for old in (bytes(range(256)) * 256, b"x"):
        target.write_bytes(old)
        hard_link = tmp_path / "hard"
        os.link(target, hard_link)
        assert write(target) in (0, 1)
        assert target.read_bytes() == expected
        assert hard_link.read_bytes() == expected
        hard_link.unlink()
    real = tmp_path / "real"
    real.write_bytes(b"y" * 65536)
    target.unlink()
    target.symlink_to(real)
    assert write(target) in (0, 1)
    assert target.is_symlink() and real.read_bytes() == expected


@pytest.mark.parametrize("output", _OUTPUTS)
def test_only_reports_are_rewritten_without_truncating_first(tmp_path, output, monkeypatch):
    target, write, _ = _output_case(tmp_path, output)
    opened = []
    real_open = os.open

    def recording_open(path, flags, *args):
        opened.append((Path(path).name, bool(flags & os.O_TRUNC)))
        return real_open(path, flags, *args)

    monkeypatch.setattr(os, "open", recording_open)
    assert write(target) in (0, 1)
    # a .bip, .pchk or .alist file is read back by later commands, so it is
    # truncated to zero first; a .json report is overwritten in place
    assert (target.name, target.suffix != ".json") in opened


@pytest.mark.parametrize("output", _OUTPUTS)
def test_output_streams_to_a_fifo(tmp_path, output):
    target, write, expected = _output_case(tmp_path, output)
    os.mkfifo(target)
    received = []
    reader = threading.Thread(target=lambda: received.append(target.read_bytes()))
    reader.start()
    try:
        status = write(target)
    finally:
        reader.join(timeout=30)
        if reader.is_alive():  # the command never opened the FIFO
            os.close(os.open(target, os.O_WRONLY | os.O_NONBLOCK))
            reader.join(timeout=30)
    assert status in (0, 1)
    assert received == [expected]


@pytest.mark.parametrize("output", _OUTPUTS)
def test_output_errors_are_those_of_a_truncating_write(tmp_path, output, capsys):
    target, write, _ = _output_case(tmp_path, output)
    missing = tmp_path / "missing" / target.name
    target.mkdir()
    # split writes its .bip first, so a missing directory fails there
    first_missing = missing.with_suffix(".bip") if output.startswith("split") else missing
    for path, failing in ((missing, first_missing), (target, target)):
        with pytest.raises(OSError) as refused:
            failing.write_text("", encoding="utf-8")
        capsys.readouterr()
        assert write(path) == 2
        assert capsys.readouterr().err == f"error: {refused.value}\n"


@pytest.mark.parametrize("output", _OUTPUTS)
def test_new_output_mode_follows_the_umask(tmp_path, output):
    target, write, _ = _output_case(tmp_path, output)
    for mask in (0o027, 0o002):
        old = os.umask(mask)
        try:
            assert write(target) in (0, 1)
        finally:
            os.umask(old)
        assert stat.S_IMODE(target.stat().st_mode) == 0o666 & ~mask
        target.unlink()


# The exit contract over generated command lines.  Tokens in braces name
# files the test makes for each example: {graph} holds a small generated
# graph, {malformed} generated text, {binary} bytes that are not UTF-8,
# {dir} a directory, {out} a writable directory; {missing} does not exist.
# Each flag has a strategy for values the command accepts and one for values
# it must refuse; numbers stay small, so every command finishes in
# milliseconds.
_BAD_FILE = st.sampled_from(["{malformed}", "{binary}", "{dir}", "{missing}/g.bip"])
_GOOD_OUT = st.sampled_from(["{out}/r", "{out}/r.json"])
_BAD_OUT = st.sampled_from(["{dir}", "{missing}/r.json", ""])
# a 400-digit integer has no float: --seed and --cap accept one, and every
# other integer flag refuses it
_BAD_INT = st.sampled_from(["-3", "-1", "0", "x", "1.5", "", "9" * 400])
_BAD_CHOICE = st.sampled_from(["bogus", ""])


def _flag(name: str, good, bad=_BAD_INT):
    return name, good, bad


def _ints(lo: int, hi: int, count: int = 1):
    return st.lists(st.integers(lo, hi), min_size=count, max_size=count)


_GRAPH = _flag("--graph", st.just("{graph}"), _BAD_FILE)
_JSON = _flag("--json", _GOOD_OUT, _BAD_OUT)
# command: (flags of which exactly one is required, optional flags)
_FLAGS = {
    "gen": (
        [
            _flag("--complete", _ints(1, 6, 2), _ints(-2, 0, 2)),
            _flag("--path", _ints(2, 20)),
            _flag("--tree", _ints(2, 20)),
        ],
        [
            _flag("--mode", st.sampled_from(bigraph.TREE_MODES), _BAD_CHOICE),
            _flag("--seed", _ints(0, 9)),
            _flag("--out", _GOOD_OUT, _BAD_OUT),
            _JSON,
        ],
    ),
    "spectrum": (
        [_GRAPH],
        [
            _flag("--matrix", st.sampled_from(["adjacency", "laplacian", "signless-laplacian"]), _BAD_CHOICE),
            _JSON,
        ],
    ),
    "bounds": ([_GRAPH], [_JSON]),
    "split": (
        [_GRAPH],
        [
            _flag("--rule", st.sampled_from(vsplit.SPLIT_RULES), _BAD_CHOICE),
            _flag("--seed", _ints(0, 9)),
            _flag("--k", _ints(1, 4)),
            _flag("--out", _GOOD_OUT, _BAD_OUT),
            _JSON,
        ],
    ),
    "expansion": (
        [_GRAPH],
        [
            _flag("--side", st.sampled_from(expansion.SIDES), _BAD_CHOICE),
            _flag("--cap", _ints(1, 6)),
            _flag(
                "--gamma",
                st.floats(0.05, 1.0),
                st.sampled_from(["nan", "inf", "-inf", "1e308", "-1", "0", "x", ""]),
            ),
            _flag("--seed", _ints(0, 9)),
            _JSON,
        ],
    ),
    "code": (
        [_flag("--pipeline", st.integers(4, 12).map(lambda h: [2 * h]), _ints(-2, 7)), _GRAPH],
        [_flag("--pchk", _GOOD_OUT, _BAD_OUT), _flag("--alist", _GOOD_OUT, _BAD_OUT), _JSON],
    ),
    # a valid verify-all runs the whole acceptance suite (about 1 s), so it
    # is drawn only with a stray token and run in full once, as an example
    "verify-all": ([], [_JSON]),
}
_STRAY = st.sampled_from(["--bogus", "--json", "--graph", "--help", "-", "extra", "--k=x"])


@st.composite
def _argv(draw) -> list[str]:
    """A command line: every flag valid, or some flags invalid, missing,
    repeated or stray."""
    command = draw(st.sampled_from([*_FLAGS, "frobnicate"]))
    required, optional = _FLAGS.get(command, ([], []))
    valid = command != "verify-all" and draw(st.booleans())
    chosen = [draw(st.sampled_from(required))] if required else []
    if not valid:
        chosen = draw(st.lists(st.sampled_from(required + optional), max_size=3)) if required else []
    chosen += [flag for flag in optional if draw(st.booleans())]
    argv = [command]
    for name, good, bad in chosen:
        value = draw(good if valid or draw(st.booleans()) else bad)
        argv += [name, *map(str, value if isinstance(value, list) else [value])]
    if not valid and draw(st.booleans()) or command == "verify-all":
        argv.insert(draw(st.integers(1, len(argv))), draw(_STRAY))
    return argv


@st.composite
def _small_graph(draw) -> bigraph.BipartiteGraph:
    n1, n2 = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    cells = [(u, v) for u in range(n1) for v in range(n2)]
    return bigraph.build(n1, n2, draw(st.lists(st.sampled_from(cells), unique=True)))


@settings(max_examples=300, deadline=None)
@example(argv=["verify-all", "--json", "{out}/v.json"], graph=bigraph.path_graph(4), malformed="")
@example(argv=["split", "--graph", "{graph}", "--k", "1" + "0" * 400], graph=bigraph.path_graph(4), malformed="")
@given(
    argv=_argv(),
    graph=st.one_of(_small_graph(), st.integers(2, 12).map(bigraph.path_graph)),
    malformed=st.one_of(
        st.text(max_size=30),
        st.sampled_from(["bip 2 2\ne 0 9\n", "bip 0 1\n", "bip 2 2\ne 0 0\ne 0 0\n", "bip 1 1\n"]),
    ),
)
def test_every_command_line_exits_0_1_or_2(argv, graph, malformed):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "out").mkdir()
        (root / "dir").mkdir()
        (root / "graph.bip").write_text(bigraph.write_edge_list(graph), encoding="utf-8")
        (root / "malformed.bip").write_text(malformed, encoding="utf-8")
        (root / "binary.bip").write_bytes(b"bip 2 2\n\xff\xfe e 0 0\n")
        names = {
            "{graph}": "graph.bip",
            "{malformed}": "malformed.bip",
            "{binary}": "binary.bip",
            "{dir}": "dir",
            "{out}": "out",
            "{missing}": "missing",
        }
        resolved = []
        for token in argv:
            for name, path in names.items():
                token = token.replace(name, str(root / path))
            resolved.append(token)
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            status = run(resolved)
    event(f"{argv[0]} exit {status}")
    assert status in (0, 1, 2), (resolved, sink.getvalue()[-2000:])
