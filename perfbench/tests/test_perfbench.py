"""Fast checks of the benchmark itself: oracles, span arithmetic, seeded
inputs, and the metric names against BENCHMARK.json."""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harness
import oracles
import spans
import workloads
from bipspec import cli

ROOT = Path(__file__).resolve().parents[2]
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _run(argv: list[str], path: Path) -> dict:
    assert cli.run(argv + ["--json", str(path)]) in (0, 1)
    return json.loads(path.read_text(encoding="utf-8"))


@pytest.fixture
def graph(tmp_path):
    g = workloads.dense_connected(7, 5, random.Random(3))
    path = tmp_path / "g.bip"
    path.write_text(g.text(), encoding="utf-8")
    return g, str(path)


# ------------------------------------------------------------------ oracles


def test_oracles_accept_the_program_and_reject_perturbed_answers(graph, tmp_path):
    g, path = graph

    bounds = _run(["bounds", "--graph", path], tmp_path / "b.json")
    assert oracles.check_bounds(bounds, g) == []
    bounds["findings"][0]["observed"] += 1e-6
    assert oracles.check_bounds(bounds, g)

    spectrum = _run(["spectrum", "--graph", path, "--matrix", "laplacian"], tmp_path / "s.json")
    assert oracles.check_spectrum(spectrum, g, "laplacian") == []
    spectrum["findings"][0]["residual"] = 1e-7
    assert oracles.check_spectrum(spectrum, g, "laplacian")

    split = _run(["split", "--graph", path, "--k", "2"], tmp_path / "p.json")
    assert oracles.check_split(split, g, 2) == []
    split["findings"][1]["measured_kappa"] += 1
    assert oracles.check_split(split, g, 2)

    expansion = _run(["expansion", "--graph", path, "--cap", "3"], tmp_path / "e.json")
    assert oracles.check_expansion(expansion, g, 3, None) == []
    expansion["findings"][0]["alpha"] += 0.5
    assert oracles.check_expansion(expansion, g, 3, None)

    code = _run(["code", "--graph", path], tmp_path / "c.json")
    assert oracles.check_code(code, g, {}) == []
    code["findings"][0]["rank"] -= 1
    assert oracles.check_code(code, g, {})


def test_code_oracle_rejects_a_wrong_distance(tmp_path):
    g = workloads.code_with_dimension(20, 8, random.Random(1))
    path = tmp_path / "g.bip"
    path.write_text(g.text(), encoding="utf-8")
    code = _run(["code", "--graph", str(path)], tmp_path / "c.json")
    assert oracles.check_code(code, g, {}) == []
    code["findings"][0]["true_distance"] += 1
    assert oracles.check_code(code, g, {})


def test_decoder_oracle_rejects_a_word_with_nonzero_syndrome():
    g = workloads.Graph.of(3, 1, [(0, 0), (1, 0)])  # single check: x0 + x1 = 0
    assert oracles.check_decoded(g, [("decoded", np.array([1, 1, 0], dtype=np.uint8))]) == []
    assert oracles.check_decoded(g, [("decoded", np.array([1, 0, 0], dtype=np.uint8))])
    assert oracles.check_decoded(g, [("failed", np.array([1, 0, 0], dtype=np.uint8))]) == []


def test_pipeline_oracle_accepts_the_program(tmp_path):
    report = _run(["code", "--pipeline", "10"], tmp_path / "p.json")
    assert oracles.check_pipeline(report, 10) == []
    report["findings"][2]["true_distance"] = 1
    assert oracles.check_pipeline(report, 10)


# -------------------------------------------------------------------- spans


def test_self_time_subtracts_the_union_of_children_clipped_to_the_parent():
    s = spans.Span
    tree = [
        s("root", 0.0, 10.0, None, "i"),
        s("a", 1.0, 4.0, 0, "i"),
        s("a.child", 2.0, 3.0, 1, "i"),
        s("b", 3.0, 6.0, 0, "i"),  # overlaps a: the union [1, 6] counts once
        s("c", 8.0, 12.0, 0, "i"),  # only [8, 10] lies inside root
        s("leaf", 5.0, 5.5, None, "j"),
    ]
    assert spans.self_times(tree) == pytest.approx([3.0, 2.0, 1.0, 3.0, 4.0, 0.5])


def test_tracer_patches_every_binding_and_restores_them():
    from bipspec import bigraph, vsplit

    original = bigraph.edge_connectivity
    tracer = spans.Tracer()
    with tracer.installed():
        assert vsplit.edge_connectivity is bigraph.edge_connectivity
        assert vsplit.edge_connectivity is not original
        tracer.begin_instance("x")
        g = bigraph.complete_bipartite(3, 3)
        assert vsplit.edge_connectivity(g) == 3
        vsplit.edge_connectivity(g)
    assert vsplit.edge_connectivity is original and bigraph.edge_connectivity is original
    metrics = spans.layer_metrics(tracer)
    assert metrics["bigraph.edge_connectivity.flows_computed"] == 2 * 5
    assert metrics["bigraph.edge_connectivity.repeat_ratio"] == 0.5
    assert [sp.name for sp in tracer.spans if sp.parent is None] == ["bigraph.complete_bipartite"] + [
        "bigraph.edge_connectivity"
    ] * 2


# ------------------------------------------------------------------- inputs


def _inputs(workload: str, seed: int, workdir: Path) -> tuple[dict[str, bytes], list[bytes]]:
    pool = workloads.build(workload, seed, workdir)
    files = {p.name: p.read_bytes() for p in sorted(workdir.iterdir())}
    words = [word.tobytes() for inst in pool for _, word in inst.words]
    return files, words


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs_and_another_seed_other_inputs(workload, tmp_path):
    a = _inputs(workload, 5, tmp_path / "a")
    assert a == _inputs(workload, 5, tmp_path / "b")
    assert a != _inputs(workload, 6, tmp_path / "c")


def test_code_plan_has_the_scheduled_dimensions(tmp_path):
    pool = workloads.build("code-audit", 1, tmp_path)
    dims = [inst.graph.n1 - workloads.gf2_rank(workloads.parity_rows(inst.graph))
            for inst in pool if inst.family == "distance"]
    assert dims == [k for _, k in workloads.DISTANCE_PLAN]


def test_tail_percentile_keeps_ten_samples_beyond():
    assert harness.tail_percentile(19) is None
    assert harness.tail_percentile(20) == 50
    assert harness.tail_percentile(40) == 75
    assert harness.tail_percentile(100) == 90
    assert harness.tail_percentile(1000) == 99
    values = list(range(1, 101))
    assert harness.nearest_rank(values, 90) == 90


def test_host_speed_scales_by_the_neighbouring_reference_runs(monkeypatch):
    runs = iter([0.004, 0.002, 0.006])
    monkeypatch.setattr(harness, "probe", lambda: next(runs))
    speed = harness.HostSpeed()
    # the first piece of work sits between reference runs of 4 and 2 ms, the second
    # between 2 and 6 ms; each run serves both of its neighbours
    assert speed.scale(0.3) == pytest.approx(0.3 * harness.PROBE_REF_S / 0.003)
    assert speed.scale(0.3) == pytest.approx(0.3 * harness.PROBE_REF_S / 0.004)
    assert speed.probes == [0.004, 0.002, 0.006]


# -------------------------------------------------------------------- names


def test_names_match_benchmark_json():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.WORKLOADS)
    for section, table in (("end_to_end", harness.END_TO_END), ("per_layer", spans.PER_LAYER)):
        declared = {m["name"]: (m["unit"], m["better"]) for m in BENCHMARK[section]}
        assert declared == table
    layer = set(spans.layer_metrics(spans.Tracer())) | {"trace.overhead_frac"}
    assert layer == set(spans.PER_LAYER)


@pytest.mark.parametrize("trace", ["0", "1"])
def test_a_short_run_emits_every_declared_metric(trace):
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "small-batch", "--seed", "1",
         "--seconds", "0.2", "--trace", trace],
        cwd=ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    result = json.loads(done.stdout.splitlines()[-1])
    section = "per_layer" if trace == "1" else "end_to_end"
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in BENCHMARK[section]
    }
