"""The acceptance suite: every exit criterion as a callable check.

Each criterion function measures its claim at the stated tolerance and
returns a CriterionResult; run_all() executes the lot.  The pytest module
tests/test_acceptance.py asserts these results one by one, and the CLI's
verify-all subcommand prints them, so both front ends share one
implementation and one set of numbers.

All randomness is seeded inside each criterion, which makes every check
reproducible run to run.
"""

from __future__ import annotations

import cmath
import json
import math
import random
import tempfile
from dataclasses import dataclass, field
from itertools import combinations
from pathlib import Path

import numpy as np

from . import bigraph, eccode, spectra, vsplit
from .bigraph import BipartiteGraph, build, complete_bipartite, path_graph


@dataclass
class CriterionResult:
    cid: str
    name: str
    passed: bool
    details: dict = field(default_factory=dict)

    def to_json_dict(self) -> dict:
        return {
            "criterion": self.cid,
            "name": self.name,
            "passed": self.passed,
            "details": self.details,
        }


def _random_connected_bipartite(rng: random.Random, max_n: int = 12) -> BipartiteGraph:
    """Connected bipartite graph on at most max_n vertices: random spanning
    tree plus random extra edges."""
    n = rng.randint(2, max_n)
    n1 = rng.randint(1, n - 1)
    n2 = n - n1
    edges = set(bigraph._tree_edges(rng, n1, n2))
    for u in range(n1):
        for v in range(n2):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return build(n1, n2, edges)


def _random_min_degree4(rng: random.Random) -> BipartiteGraph:
    """Random bipartite graph with minimum degree at least 4 (reject/retry)."""
    while True:
        n1 = rng.randint(5, 9)
        n2 = rng.randint(5, 9)
        edges = [(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.75]
        g = build(n1, n2, edges)
        if g.degree_profile().delta >= 4:
            return g


def criterion_1() -> CriterionResult:
    """Eigensolver oracle: paths and complete bipartite closed forms, 1e-8."""
    worst = 0.0
    checked = 0
    for n in range(3, 21):
        rep = spectra.symmetric_eigenvalues(spectra.adjacency_matrix(path_graph(n)))
        closed = sorted((2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)), reverse=True)
        worst = max(worst, max(abs(a - b) for a, b in zip(rep.eigenvalues, closed)))
        checked += 1
    for m in range(1, 9):
        for n in range(1, 9):
            rep = spectra.symmetric_eigenvalues(spectra.adjacency_matrix(complete_bipartite(m, n)))
            s = math.sqrt(m * n)
            closed = [s] + [0.0] * (m + n - 2) + [-s]
            worst = max(worst, max(abs(a - b) for a, b in zip(rep.eigenvalues, closed)))
            checked += 1
    return CriterionResult(
        "C1",
        "eigensolver-oracle",
        worst <= 1e-8,
        {"instances": checked, "worst_error": worst},
    )


def criterion_2() -> CriterionResult:
    """Quotient closed forms exact and lifted spectra within 1e-8, 200 graphs."""
    rng = random.Random(20260201)
    failures: list[str] = []
    worst_lifted = 0.0
    for i in range(200):
        g = _random_connected_bipartite(rng)
        qa = spectra.bipartite_quotient(g, "adjacency")
        eta = g.m / math.sqrt(g.n1 * g.n2)
        if qa.eta1 != eta or qa.eta2 != -eta:
            failures.append(f"graph {i}: adjacency quotient eigenvalues not exact")
        ql = spectra.bipartite_quotient(g, "laplacian")
        theta = g.m * g.n / (g.n1 * g.n2)
        if ql.eta1 != theta or ql.eta2 != 0.0:
            failures.append(f"graph {i}: laplacian quotient eigenvalues not exact")
        lifted = spectra.lifted_matrix_spectrum(g, "adjacency")
        expected = sorted([eta] + [0.0] * (g.n - 2) + [-eta], reverse=True)
        err = max(abs(a - b) for a, b in zip(lifted.eigenvalues, expected))
        worst_lifted = max(worst_lifted, err, lifted.residual)
        if err > 1e-8 or lifted.residual > 1e-8:
            failures.append(f"graph {i}: lifted adjacency spectrum off by {err}")
        lifted_l = spectra.lifted_matrix_spectrum(g, "laplacian")
        expected_l = [theta] + [0.0] * (g.n - 1)
        err_l = max(abs(a - b) for a, b in zip(lifted_l.eigenvalues, expected_l))
        worst_lifted = max(worst_lifted, err_l, lifted_l.residual)
        if err_l > 1e-8 or lifted_l.residual > 1e-8:
            failures.append(f"graph {i}: lifted laplacian spectrum off by {err_l}")
    return CriterionResult(
        "C2",
        "quotient-closed-forms",
        not failures,
        {"graphs": 200, "worst_lifted_error": worst_lifted, "failures": failures[:5]},
    )


def criterion_3() -> CriterionResult:
    """Valid-form interlacing never fails on the 200 graphs (tolerance 1e-9)."""
    rng = random.Random(20260201)
    violations: list[str] = []
    for i in range(200):
        g = _random_connected_bipartite(rng)
        full = spectra.symmetric_eigenvalues(spectra.adjacency_matrix(g))
        q = spectra.bipartite_quotient(g, "adjacency")
        rep = spectra.interlacing_check(full, q)
        if not rep.valid_form_holds:
            violations.append(f"graph {i}: {rep.witnesses}")
    return CriterionResult(
        "C3",
        "valid-interlacing",
        not violations,
        {"graphs": 200, "violations": violations[:5]},
    )


def criterion_4() -> CriterionResult:
    """Counterexample audit: `bounds` on P_20 reports T1.iii and T5.ii violated."""
    from . import cli

    expected_lambda2 = 2 * math.cos(2 * math.pi / 21)
    expected_mu2 = 2 - 2 * math.cos(18 * math.pi / 20)
    with tempfile.TemporaryDirectory() as tmp:
        graph_file = Path(tmp) / "p20.bip"
        json_file = Path(tmp) / "report.json"
        graph_file.write_text(bigraph.write_edge_list(path_graph(20)), encoding="utf-8")
        status = cli.run(["bounds", "--graph", str(graph_file), "--json", str(json_file)])
        report = json.loads(json_file.read_text(encoding="utf-8"))
    by_id = {f["bound_id"]: f for f in report["findings"] if f.get("type") == "bound"}
    t1 = by_id["T1.iii"]
    t5 = by_id["T5.ii"]
    checks = {
        "exit_status_1": status == 1,
        "t1_violated": not t1["holds"],
        "t1_observed": abs(t1["observed"] - expected_lambda2) <= 1e-6,
        "t1_bound": abs(t1["bound"] - 1.9) <= 1e-6,
        "t5_violated": not t5["holds"],
        "t5_observed": abs(t5["observed"] - expected_mu2) <= 1e-6,
        "t5_bound": abs(t5["bound"] - 3.8) <= 1e-6,
    }
    return CriterionResult(
        "C4",
        "counterexample-audit",
        all(checks.values()),
        {
            "checks": checks,
            "observed_lambda2": t1["observed"],
            "observed_mu2": t5["observed"],
            "exit_status": status,
        },
    )


def _symmetry_corpus() -> list[BipartiteGraph]:
    rng = random.Random(20260303)
    corpus = [path_graph(n) for n in range(3, 13)]
    corpus += [complete_bipartite(m, n) for m in range(1, 7) for n in range(1, 7)]
    corpus += [_random_connected_bipartite(rng) for _ in range(30)]
    corpus += [bigraph.random_tree(n, "balanced", seed) for n, seed in [(6, 1), (9, 2), (12, 3)]]
    corpus += [
        vsplit.vertex_split(complete_bipartite(8, 4)),
        vsplit.vertex_split(complete_bipartite(5, 5)),
    ]
    return corpus


def criterion_5() -> CriterionResult:
    """Adjacency spectra symmetric about 0; Laplacian == signless Laplacian."""
    worst_sym = 0.0
    worst_lq = 0.0
    corpus = _symmetry_corpus()
    for g in corpus:
        lam = spectra.symmetric_eigenvalues(spectra.adjacency_matrix(g)).eigenvalues
        n = len(lam)
        worst_sym = max(worst_sym, max(abs(lam[i] + lam[n - 1 - i]) for i in range(n)))
        mu = spectra.symmetric_eigenvalues(spectra.laplacian_matrix(g)).eigenvalues
        nu = spectra.symmetric_eigenvalues(spectra.signless_laplacian_matrix(g)).eigenvalues
        worst_lq = max(worst_lq, max(abs(a - b) for a, b in zip(mu, nu)))
    return CriterionResult(
        "C5",
        "bipartite-spectral-symmetry",
        worst_sym <= 1e-8 and worst_lq <= 1e-8,
        {"instances": len(corpus), "worst_symmetry": worst_sym, "worst_lap_vs_signless": worst_lq},
    )


def criterion_6() -> CriterionResult:
    """Vertex-split invariants on 100 seeded random graphs with delta >= 4."""
    rng = random.Random(20260404)
    failures: list[str] = []
    for i in range(100):
        g = _random_min_degree4(rng)
        split = vsplit.vertex_split(g, "round-robin", 0)
        if split.m != g.m:
            failures.append(f"graph {i}: edge count {split.m} != {g.m}")
        if split.degree_profile().left_degrees != g.degree_profile().left_degrees:
            failures.append(f"graph {i}: left degrees changed")
        right_deg = g.degree_profile().right_degrees
        B = split.biadjacency()  # columns j and n2 + j are the halves of y_j
        half_deg = B.sum(axis=0).tolist()
        for j, d in enumerate(right_deg):
            da, db = half_deg[j], half_deg[g.n2 + j]
            if da + db != d or abs(da - db) != d % 2:
                failures.append(f"graph {i}: split of y{j} has degrees ({da}, {db})")
        if not np.any(B[:, : g.n2].any(axis=1) & B[:, g.n2 :].any(axis=1)):
            failures.append(f"graph {i}: N(Y_a) and N(Y_b) disjoint")
    return CriterionResult(
        "C6",
        "vertex-split-invariants",
        not failures,
        {"graphs": 100, "failures": failures[:5]},
    )


def criterion_7() -> CriterionResult:
    """K_{5,5} split: lambda2' matches the circulant oracle; kappa' >= 2."""
    g = complete_bipartite(5, 5)
    split = vsplit.vertex_split(g, "round-robin", 0)
    report = vsplit.theorem_r1_check(g, split, 2, vsplit.measure_split(split))
    # independent oracle: the round-robin split of K_{5,5} is a pair of
    # circulants over Z_5, so its singular values have a closed form
    singular = sorted(
        (
            math.sqrt(
                abs(1 + w + w**2) ** 2 + abs(w**3 + w**4) ** 2
            )
            for w in (cmath.exp(2j * math.pi * k / 5) for k in range(5))
        ),
        reverse=True,
    )
    oracle_lambda2 = singular[1]
    checks = {
        "lambda2_matches_oracle": abs(report.lambda2_prime - oracle_lambda2) <= 1e-8,
        "threshold": abs(report.threshold - 3 / math.sqrt(2)) <= 1e-12,
        "threshold_rounded": abs(report.threshold - 2.12132) <= 1e-5,
        "kappa_at_least_2": report.measured_kappa >= 2,
    }
    return CriterionResult(
        "C7",
        "k55-connectivity-example",
        all(checks.values()),
        {
            "checks": checks,
            "lambda2_prime": report.lambda2_prime,
            "circulant_oracle": oracle_lambda2,
            # externally reported value for a differently assigned split of
            # K_{5,5}; recorded as a comparison, never a gate
            "comparison_lambda2": 2.34,
            "threshold": report.threshold,
            "measured_kappa": report.measured_kappa,
        },
    )


def criterion_8() -> CriterionResult:
    """Expansion of split K_{8,4}: alpha = 2.5 at cap 2, epsilon = 0.375."""
    from . import expansion

    split = vsplit.vertex_split(complete_bipartite(8, 4), "round-robin", 0)
    B = split.biadjacency()
    min_pair = min(int(np.count_nonzero(B[a] | B[b])) for a, b in combinations(range(8), 2))
    params = expansion.lossless_parameters(split, 1 / 4)
    checks = {
        "all_pairs_reach_5": min_pair >= 5,
        "alpha_25": params.alpha == 2.5,
        "alpha_formula": params.alpha == (8 + 2) / 4,
        "epsilon_0375": params.epsilon == 0.375,
        "epsilon_formula": params.epsilon == (8 - 2) / (2 * 8),
        "epsilon_below_half": params.epsilon < 0.5,
        "exhaustive": params.exhaustive,
    }
    return CriterionResult(
        "C8",
        "split-k84-expansion",
        all(checks.values()),
        {"checks": checks, "min_pair_neighborhood": min_pair, "alpha": params.alpha, "epsilon": params.epsilon},
    )


def criterion_9() -> CriterionResult:
    """Code pipeline n1 = 8: weights, codeword count, bounds, distance."""
    pipe = eccode.construct_expander_code(8)
    H = pipe.code.H
    # independent null-space count: every vector of GF(2)^8
    count = sum(1 for i in range(1 << 8) if not (H @ np.array([i >> b & 1 for b in range(8)], dtype=np.uint8) % 2).any())
    d = pipe.report.true_distance
    checks = {
        "H_shape": H.shape == (8, 8),
        "row_weights_4": all(int(x) == 4 for x in H.sum(axis=1)),
        "col_weights_4": all(int(x) == 4 for x in H.sum(axis=0)),
        "codeword_count": count == 2 ** (8 - pipe.code.rank),
        "lemma_bound": pipe.report.lemma_bound == 2.5,
        "cor8_bound": pipe.report.cor8_bound == 2.5,
        "premises_verified": pipe.report.premises_verified,
        "distance_exceeds_bound": pipe.code.dimension == 0 or (d is not None and d >= 3),
    }
    return CriterionResult(
        "C9",
        "code-pipeline-n8",
        all(checks.values()),
        {
            "checks": checks,
            "rank": pipe.code.rank,
            "dimension": pipe.code.dimension,
            "codewords": count,
            "true_distance": d,
        },
    )


def criterion_10() -> CriterionResult:
    """Seeded commands are byte-deterministic; edge lists round-trip exactly."""
    from . import cli

    with tempfile.TemporaryDirectory() as tmp:
        tree_file = Path(tmp) / "tree.bip"
        tree = bigraph.random_tree(12, "balanced", 7)
        tree_file.write_text(bigraph.write_edge_list(tree), encoding="utf-8")
        out1 = Path(tmp) / "a.json"
        out2 = Path(tmp) / "b.json"
        argv = ["split", "--graph", str(tree_file), "--rule", "seeded-random", "--seed", "3", "--k", "2"]
        s1 = cli.run(argv + ["--json", str(out1)])
        s2 = cli.run(argv + ["--json", str(out2)])
        identical = out1.read_bytes() == out2.read_bytes()
        text = bigraph.write_edge_list(tree)
        roundtrip = bigraph.write_edge_list(bigraph.read_edge_list(text)) == text
    checks = {
        "same_exit": s1 == s2,
        "byte_identical_json": identical,
        "edge_list_roundtrip": roundtrip,
    }
    return CriterionResult("C10", "determinism", all(checks.values()), {"checks": checks})


def criterion_11() -> CriterionResult:
    """Decoder soundness and single-bit correction on the pipeline code."""
    pipe = eccode.construct_expander_code(8)
    code = pipe.code
    words = eccode.codewords(code)
    rng = random.Random(20260606)
    failures: list[str] = []
    # soundness on arbitrary received words
    for _ in range(100):
        received = [rng.randint(0, 1) for _ in range(code.n)]
        decoded, status = eccode.bit_flip_decode(code, received, max_iters=50)
        if status == "decoded" and (code.H @ decoded % 2).any():
            failures.append(f"decoded output not a codeword for received {received}")
    # single-bit corruptions of randomly chosen codewords
    corrected = 0
    attempts = 0
    for _ in range(50):
        c = words[rng.randrange(len(words))]
        pos = rng.randrange(code.n)
        received = c.copy()
        received[pos] ^= 1
        dists = sorted(int(((w + received) % 2).sum()) for w in words)
        unique = len(dists) == 1 or dists[0] < dists[1]
        if not unique:
            continue
        attempts += 1
        decoded, status = eccode.bit_flip_decode(code, received, max_iters=50)
        if status == "decoded" and np.array_equal(decoded, c):
            corrected += 1
        else:
            failures.append(f"failed to correct flip at {pos}")
    return CriterionResult(
        "C11",
        "decoder-soundness",
        not failures and corrected == attempts,
        {"failures": failures[:5], "single_bit_corrected": corrected, "attempts": attempts},
    )


CRITERIA = (
    criterion_1,
    criterion_2,
    criterion_3,
    criterion_4,
    criterion_5,
    criterion_6,
    criterion_7,
    criterion_8,
    criterion_9,
    criterion_10,
    criterion_11,
)


def run_all() -> list[CriterionResult]:
    return [fn() for fn in CRITERIA]
