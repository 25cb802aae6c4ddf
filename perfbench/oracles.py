"""Independent checks of every report the benchmark's instances produce.

Nothing here calls bipspec.  Eigenvalues come from LAPACK
(`numpy.linalg.eigvalsh`), edge connectivity from networkx, expansion from a
level-by-level bitmask enumerator, and GF(2) rank, null space and minimum
distance from Python-int bitmask elimination.  Each check returns a list of
problems; an empty list means the report is correct.
"""

from __future__ import annotations

import math

import numpy as np

from workloads import Graph, Instance, complete, gf2_rank, parity_rows, vertex_split

EIG_TOL = 1e-8
RESIDUAL_GATE = 1e-8
REPORT_TOL = 1e-9
ALPHA_TOL = 1e-12
MAX_ENUM_DIMENSION = 20

# observed eigenvalue behind each bound: (matrix, index into the descending spectrum)
BOUND_EIGENVALUE = {
    "T1.iii": ("adjacency", 1),
    "T1.iv": ("adjacency", -2),
    "Cor-regular-adj": ("adjacency", 1),
    "T2-tree": ("adjacency", 1),
    "T9-tree": ("adjacency", -2),
    "T5.ii": ("laplacian", 1),
    "Cor-regular-lap": ("laplacian", 1),
    "Note-complete-lap": ("laplacian", 1),
}
UPPER_BOUNDS = {"T1.iii", "Cor-regular-adj", "T2-tree", "T5.ii", "Cor-regular-lap", "Note-complete-lap"}


# ------------------------------------------------------------------ spectra


def matrix(g: Graph, kind: str) -> np.ndarray:
    A = np.zeros((g.n1 + g.n2, g.n1 + g.n2))
    for u, v in g.edges:
        A[u, g.n1 + v] = A[g.n1 + v, u] = 1.0
    if kind == "adjacency":
        return A
    D = np.diag(A.sum(axis=1))
    return D - A if kind == "laplacian" else D + A


def spectrum(g: Graph, kind: str) -> np.ndarray:
    """Descending eigenvalues by LAPACK."""
    return np.linalg.eigvalsh(matrix(g, kind))[::-1]


def check_spectrum(report: dict, g: Graph, kind: str) -> list[str]:
    (f,) = report["findings"]
    problems = []
    if f["residual"] > RESIDUAL_GATE:
        problems.append(f"residual {f['residual']} exceeds {RESIDUAL_GATE}")
    want = spectrum(g, kind)
    got = np.array(f["eigenvalues"])
    if got.shape != want.shape or np.max(np.abs(got - want)) > EIG_TOL:
        problems.append(f"{kind} spectrum differs from eigvalsh")
    return problems


def check_bounds(report: dict, g: Graph) -> list[str]:
    spectra = {kind: spectrum(g, kind) for kind in ("adjacency", "laplacian")}
    problems = []
    for f in report["findings"]:
        if f["type"] == "bound":
            kind, idx = BOUND_EIGENVALUE[f["bound_id"]]
            if abs(f["observed"] - spectra[kind][idx]) > EIG_TOL:
                problems.append(f"{f['bound_id']}: observed {f['observed']} != {spectra[kind][idx]}")
            slack = f["bound"] - f["observed"] if f["bound_id"] in UPPER_BOUNDS else f["observed"] - f["bound"]
            if f["holds"] != (slack >= -REPORT_TOL):
                problems.append(f"{f['bound_id']}: holds={f['holds']} disagrees with slack {slack}")
        elif f["type"] == "interlacing":
            problems += _check_interlacing(f, g, spectra[f["flavor"]])
    return problems


def _check_interlacing(f: dict, g: Graph, lam: np.ndarray) -> list[str]:
    m, n = len(g.edges), len(lam)
    if f["flavor"] == "adjacency":
        e1, e2 = m / math.sqrt(g.n1 * g.n2), -m / math.sqrt(g.n1 * g.n2)
    else:
        e1, e2 = m * n / (g.n1 * g.n2), 0.0
    t = REPORT_TOL
    valid = lam[0] >= e1 - t and e1 >= lam[n - 2] - t and lam[1] >= e2 - t and e2 >= lam[n - 1] - t
    chain = lam[0] >= e1 - t and e1 >= lam[1] - t and lam[n - 2] >= e2 - t and e2 >= lam[n - 1] - t
    if (f["valid_form_holds"], f["claimed_chain_holds"]) != (valid, chain):
        return [f"interlacing ({f['flavor']}) flags differ from eigvalsh"]
    return []


def check_split(report: dict, g: Graph, k: int) -> list[str]:
    import networkx as nx

    split = vertex_split(g, "round-robin")
    findings = report["findings"]
    problems = []
    head = findings[0]
    if (head["n1"], head["n2_prime"], head["m"]) != (split.n1, split.n2, len(split.edges)):
        problems.append("split sizes differ from the round-robin split")
    lambda2 = spectrum(split, "adjacency")[1]
    G = nx.Graph()
    G.add_nodes_from(range(split.n1 + split.n2))
    G.add_edges_from((u, split.n1 + v) for u, v in split.edges)
    kappa = nx.edge_connectivity(G)
    for f in findings[1:]:
        if abs(f["lambda2_prime"] - lambda2) > EIG_TOL:
            problems.append(f"{f['theorem']}: lambda2_prime {f['lambda2_prime']} != {lambda2}")
        if f["measured_kappa"] != kappa:
            problems.append(f"{f['theorem']}: measured_kappa {f['measured_kappa']} != networkx {kappa}")
        if f["criterion_met"] != (f["lambda2_prime"] >= f["threshold"] - REPORT_TOL):
            problems.append(f"{f['theorem']}: criterion_met disagrees with lambda2_prime")
        if f["conclusion_holds"] != (f["measured_kappa"] >= k):
            problems.append(f"{f['theorem']}: conclusion_holds disagrees with kappa")
    if len(findings) != 3:
        problems.append(f"expected a split and two criterion findings, got {len(findings)}")
    return problems


# ---------------------------------------------------------------- expansion


def min_expansion(g: Graph, cap: int) -> float:
    """min |N(S)|/|S| over left subsets 1 <= |S| <= cap, level by level.

    Subsets of size s are kept as (largest member, neighbourhood bitmask)
    arrays and extended by every larger vertex, so each subset is built once
    from its prefix.
    """
    masks = np.zeros(g.n1, dtype=np.uint64)
    for u, v in g.edges:
        masks[u] |= np.uint64(1) << np.uint64(v)
    if g.n2 > 64:
        raise ValueError("bitmask enumerator supports at most 64 right vertices")
    last = np.arange(g.n1)
    union = masks.copy()
    best = math.inf
    for size in range(1, min(cap, g.n1) + 1):
        if size > 1:
            grown = [(np.full(int((last < j).sum()), j), union[last < j] | masks[j]) for j in range(g.n1)]
            last = np.concatenate([x for x, _ in grown])
            union = np.concatenate([y for _, y in grown])
        best = min(best, int(np.bitwise_count(union).min()) / size)
    return best


def check_expansion(report: dict, g: Graph, cap: int, gamma: float | None) -> list[str]:
    findings = report["findings"]
    f = findings[0]
    problems = []
    want_cap = min(cap, g.n1)
    if f["cap"] != want_cap or not f["exhaustive"]:
        problems.append(f"expected an exhaustive report at cap {want_cap}")
    left = g.left_neighbors()
    witness = f["witness"]
    reached = len(set().union(*(left[v] for v in witness))) if witness else 0
    if not witness or len(witness) > want_cap or abs(f["alpha"] - reached / len(witness)) > ALPHA_TOL:
        problems.append(f"alpha {f['alpha']} is not |N(witness)|/|witness| for {witness}")
    alpha = min_expansion(g, want_cap)
    if abs(f["alpha"] - alpha) > ALPHA_TOL:
        problems.append(f"alpha {f['alpha']} != enumerated {alpha}")
    if gamma is not None:
        problems += check_lossless(findings[1], g, gamma)
    elif len(findings) != 1:
        problems.append("unexpected findings beyond the expansion report")
    return problems


def check_lossless(f: dict, g: Graph, gamma: float) -> list[str]:
    degree = {len(nb) for nb in g.left_neighbors()}
    (D,) = degree
    alpha = min_expansion(g, math.floor(gamma * g.n1))
    if f["D"] != D or abs(f["alpha"] - alpha) > ALPHA_TOL or abs(f["epsilon"] - (1 - alpha / D)) > ALPHA_TOL:
        return [f"lossless parameters {f} differ from D={D}, alpha={alpha}"]
    return []


# -------------------------------------------------------------------- codes


def nullspace(rows: list[int], n: int) -> list[int]:
    """Null-space basis over GF(2) by reduced row echelon form on int masks."""
    pivots: dict[int, int] = {}  # pivot column -> fully reduced row
    for row in rows:
        for col, prow in pivots.items():
            if row >> col & 1:
                row ^= prow
        if row:
            col = (row & -row).bit_length() - 1
            for c in list(pivots):
                if pivots[c] >> col & 1:
                    pivots[c] ^= row
            pivots[col] = row
    basis = []
    for free in (c for c in range(n) if c not in pivots):
        vec = 1 << free
        for col, prow in pivots.items():
            if prow >> free & 1:
                vec |= 1 << col
        basis.append(vec)
    return basis


def min_distance(rows: list[int], n: int) -> int:
    """Minimum nonzero codeword weight, spanning all 2^k codewords in numpy."""
    basis = nullspace(rows, n)
    if n > 64:
        raise ValueError("codeword enumerator supports block length at most 64")
    words = np.zeros(1, dtype=np.uint64)
    for vec in basis:
        words = np.concatenate([words, words ^ np.uint64(vec)])
    return int(np.bitwise_count(words[1:]).min())


def expected_distance(rows: list[int], n: int) -> int | None:
    """Enumerated minimum distance; None where the program does not
    enumerate (dimension 0 or above 20)."""
    k = n - gf2_rank(rows)
    return min_distance(rows, n) if 1 <= k <= MAX_ENUM_DIMENSION else None


def check_code_entry(f: dict, rows: list[int], n: int) -> list[str]:
    rank = gf2_rank(rows)
    if (f["block_length"], f["check_count"], f["rank"], f["dimension"]) != (n, len(rows), rank, n - rank):
        return [f"code sizes {f} differ from n={n}, rank={rank}"]
    return []


def check_code(report: dict, g: Graph, files: dict[str, str]) -> list[str]:
    (f,) = report["findings"]
    rows = parity_rows(g)
    problems = check_code_entry(f, rows, g.n1)
    d = expected_distance(rows, g.n1)
    if f.get("true_distance") != d:
        problems.append(f"true_distance {f.get('true_distance')} != enumerated {d}")
    if "pchk" in files:
        lines = files["pchk"].splitlines()
        want = [f"pchk {g.n2} {g.n1}"] + ["".join(str(r >> u & 1) for u in range(g.n1)) for r in rows]
        if lines != want:
            problems.append("pchk file does not encode H")
    if "alist" in files:
        lines = files["alist"].splitlines()
        cols = [[v + 1 for v in range(g.n2) if rows[v] >> u & 1] for u in range(g.n1)]
        if [[int(x) for x in ln.split()] for ln in lines[4 : 4 + g.n1]] != cols:
            problems.append("alist file does not encode H")
    return problems


def check_pipeline(report: dict, n1: int) -> list[str]:
    by_type = {f["type"]: f for f in report["findings"]}
    split = vertex_split(complete(n1, n1 // 2), "round-robin")
    rows = parity_rows(split)
    problems = check_code_entry(by_type["code"], rows, split.n1)
    dist = by_type["distance"]
    want_d = expected_distance(rows, split.n1)
    if dist["true_distance"] != want_d:
        problems.append(f"pipeline true_distance {dist['true_distance']} != {want_d}")
    problems += check_lossless(by_type["lossless"], split, 1.0 / (n1 // 2))
    if dist["premises_verified"] and want_d is not None:
        if dist["bound_holds"] != (want_d >= dist["lemma_bound"] - 1e-9):
            problems.append("bound_holds disagrees with the enumerated distance")
    return problems


def check_decoded(g: Graph, results: list[tuple[str, np.ndarray]]) -> list[str]:
    """Every word the decoder calls "decoded" satisfies H w = 0."""
    rows = parity_rows(g)
    problems = []
    for i, (status, word) in enumerate(results):
        if status == "decoded":
            w = int("".join(str(int(b)) for b in word[::-1]), 2)
            if any((r & w).bit_count() % 2 for r in rows):
                problems.append(f"word {i} is marked decoded but has a nonzero syndrome")
    return problems


# ----------------------------------------------------------------- dispatch


def check_instance(inst: Instance, reports: list[dict], files: dict[str, str],
                   decoded: list[tuple[str, np.ndarray]]) -> list[str]:
    """Check one executed instance: its reports in step order, the extra
    output files by suffix, and the decoder results."""
    problems = []
    for step, report in zip(inst.steps, reports):
        command = step.argv[0]
        if command == "spectrum":
            problems += check_spectrum(report, inst.graph, inst.params["matrix"])
        elif command == "bounds":
            problems += check_bounds(report, inst.graph)
        elif command == "split":
            problems += check_split(report, inst.graph, int(step.argv[step.argv.index("--k") + 1]))
        elif command == "expansion":
            problems += check_expansion(report, inst.graph, inst.params["cap"], inst.params["gamma"])
        elif "--pipeline" in step.argv:
            problems += check_pipeline(report, inst.params["pipeline"])
        else:
            problems += check_code(report, inst.graph, files)
    return problems + check_decoded(inst.graph, decoded)
