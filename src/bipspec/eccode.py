"""GF(2) linear codes from bipartite factor graphs.

Orientation: left vertices are variable bits, right vertices are parity
checks, so H[j][i] = 1 exactly when edge (i, j) is present.  The code is the
null space of H over GF(2); there is no generator-matrix path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bigraph import BipartiteGraph, complete_bipartite
from .expansion import LosslessParams, lossless_parameters
from .vsplit import VertexSplitResult, vertex_split

MAX_ENUM_DIMENSION = 20


@dataclass(frozen=True)
class LinearCode:
    """Parity-check view of a binary linear code.

    n is the block length (columns of H), check_count the number of rows.
    dimension = n - rank over GF(2); rate = dimension / n.
    """

    H: np.ndarray
    n: int
    check_count: int
    rank: int
    dimension: int
    rate: float

    @classmethod
    def from_matrix(cls, H: np.ndarray) -> LinearCode:
        H = np.asarray(H, dtype=np.uint8) % 2
        rows, cols = H.shape
        r = gf2_rank(H)
        H.setflags(write=False)
        return cls(H, cols, rows, r, cols - r, (cols - r) / cols)

    def to_json_dict(self) -> dict:
        return {
            "block_length": self.n,
            "check_count": self.check_count,
            "rank": self.rank,
            "dimension": self.dimension,
            "rate": self.rate,
        }


def parity_check_from_graph(g: BipartiteGraph) -> LinearCode:
    """Parity-check matrix of the factor graph: bits = X, checks = Y."""
    H = np.zeros((g.n2, g.n1), dtype=np.uint8)
    for i, j in g.edges:
        H[j, i] = 1
    return LinearCode.from_matrix(H)


def _gf2_rref(H: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Reduced row-echelon form over GF(2) with the pivot column list.

    Pivots follow the leftmost-lowest rule: columns are scanned left to
    right, and the pivot is the first remaining row holding a 1.
    """
    M = (np.asarray(H, dtype=np.uint8) % 2).copy()
    rows, cols = M.shape
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        pivot = -1
        for rr in range(r, rows):
            if M[rr, c]:
                pivot = rr
                break
        if pivot == -1:
            continue
        if pivot != r:
            M[[r, pivot]] = M[[pivot, r]]
        for rr in range(rows):
            if rr != r and M[rr, c]:
                M[rr] ^= M[r]
        pivot_cols.append(c)
        r += 1
        if r == rows:
            break
    return M, pivot_cols


def gf2_rank(H: np.ndarray) -> int:
    """Rank over GF(2) by Gaussian elimination (deterministic pivoting)."""
    return len(_gf2_rref(H)[1])


def gf2_nullspace(H: np.ndarray) -> np.ndarray:
    """Basis of the null space over GF(2), one vector per row, shape (k, n)."""
    M, pivot_cols = _gf2_rref(H)
    cols = M.shape[1]
    free_cols = [c for c in range(cols) if c not in pivot_cols]
    basis = np.zeros((len(free_cols), cols), dtype=np.uint8)
    for idx, f in enumerate(free_cols):
        basis[idx, f] = 1
        for row, pc in enumerate(pivot_cols):
            basis[idx, pc] = M[row, f]
    return basis


def min_distance(code: LinearCode) -> int | None:
    """Minimum Hamming weight over nonzero codewords, by full enumeration.

    Returns None for the zero-dimensional code (distance undefined) and
    refuses when 2^k exceeds 2^20.  Enumeration walks a Gray code over the
    null-space basis so each step XORs a single basis vector.
    """
    k = code.dimension
    if k == 0:
        return None
    if k > MAX_ENUM_DIMENSION:
        raise ValueError(
            f"minimum-distance enumeration infeasible: 2^{k} codewords "
            f"(limit 2^{MAX_ENUM_DIMENSION})"
        )
    basis_rows = gf2_nullspace(code.H)
    masks = [int("".join("1" if b else "0" for b in row[::-1]), 2) for row in basis_rows]
    acc = 0
    best = code.n + 1
    for i in range(1, 1 << k):
        acc ^= masks[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
    return best


def distance_bounds(n1: int, d1: int, gamma: float, epsilon: float) -> tuple[float, float]:
    """Distance lower bounds: general 2*gamma*(1-epsilon)*n1 and the
    specialized n1*(n1+2)/(2*d1^2).

    With gamma = 1/d1, epsilon = (n1-2)/(2*n1), and d1 = n1/2 the two
    coincide (the specialized bound is the general one at those parameters).
    """
    if n1 < 1 or d1 < 1 or gamma <= 0:
        raise ValueError(f"parameters must be positive, got n1={n1}, d1={d1}, gamma={gamma}")
    if epsilon >= 1:
        raise ValueError(f"epsilon must be < 1, got {epsilon}")
    lemma = 2 * gamma * (1 - epsilon) * n1
    cor8 = n1 * (n1 + 2) / (2 * d1 * d1)
    return lemma, cor8


def bit_flip_decode(
    code: LinearCode, received, max_iters: int
) -> tuple[np.ndarray, str]:
    """Sequential bit-flip decoding.

    Each iteration flips the single bit with the largest margin of
    unsatisfied over satisfied incident checks (ties to the lowest index);
    decoding stops when the syndrome vanishes, when no bit has a positive
    margin, or after max_iters flips.  Status "decoded" guarantees
    H @ word = 0 over GF(2).
    """
    word = np.asarray(received, dtype=np.uint8) % 2
    if word.shape != (code.n,):
        raise ValueError(f"received word must have length {code.n}, got shape {word.shape}")
    word = word.copy()
    H = code.H.astype(np.int64)
    col_weight = H.sum(axis=0)
    flips = 0
    while True:
        syndrome = H @ word % 2
        if not syndrome.any():
            return word, "decoded"
        if flips >= max_iters:
            return word, "failed"
        unsat = H.T @ syndrome
        margin = 2 * unsat - col_weight
        best = int(np.argmax(margin))
        if margin[best] <= 0:
            return word, "failed"
        word[best] ^= 1
        flips += 1


@dataclass(frozen=True)
class DistanceReport:
    """Brute-force distance next to the expander bounds.

    bound_holds is None (not applicable) unless the expansion premises were
    verified and the true distance was computable.
    """

    true_distance: int | None
    lemma_bound: float
    cor8_bound: float
    premises_verified: bool
    bound_holds: bool | None

    def to_json_dict(self) -> dict:
        return {
            "true_distance": self.true_distance,
            "lemma_bound": self.lemma_bound,
            "cor8_bound": self.cor8_bound,
            "premises_verified": self.premises_verified,
            "bound_holds": self.bound_holds,
        }


@dataclass(frozen=True)
class N2RuleDiagnostic:
    """Feasibility diagnostic for the divisor-based n2 selection rule.

    The rule asks for the largest divisor of n1^2/2 strictly between
    (n1+2)/4 and n1/2, yet the construction also needs left degree
    d1 = n1/2 <= n2 in a simple graph, which no such divisor satisfies.
    The pipeline therefore uses n2 = n1/2 and keeps this diagnostic.
    """

    n1: int
    candidates: tuple[int, ...]
    chosen: int | None
    d1: int
    feasible: bool
    note: str

    def to_json_dict(self) -> dict:
        return {
            "n1": self.n1,
            "candidates": list(self.candidates),
            "chosen": self.chosen,
            "d1": self.d1,
            "feasible": self.feasible,
            "note": self.note,
        }


def n2_selection_rule(n1: int) -> N2RuleDiagnostic:
    if n1 < 2 or n1 % 2:
        raise ValueError(f"n1 must be even and >= 2, got {n1}")
    target = n1 * n1 // 2
    low, high = (n1 + 2) / 4, n1 / 2
    candidates = tuple(x for x in range(1, target + 1) if target % x == 0 and low < x < high)
    chosen = max(candidates) if candidates else None
    d1 = n1 // 2
    feasible = chosen is not None and d1 <= chosen
    if chosen is None:
        note = f"no divisor of {target} lies strictly between {low} and {high}"
    elif not feasible:
        note = f"chosen n2 = {chosen} cannot host left degree d1 = {d1} in a simple graph"
    else:
        note = ""
    return N2RuleDiagnostic(n1, candidates, chosen, d1, feasible, note)


@dataclass(frozen=True)
class ExpanderCodePipeline:
    """Everything the expander-code construction produces for one n1."""

    code: LinearCode
    report: DistanceReport
    params: LosslessParams
    base: BipartiteGraph
    split: VertexSplitResult
    epsilon_target: float
    n2_rule: N2RuleDiagnostic


def construct_expander_code(n1: int) -> ExpanderCodePipeline:
    """Build the code on the split of K_{n1, n1/2} and measure everything.

    The base graph is the complete bipartite K_{n1, n1/2} (left degree
    d1 = n1/2), split with the canonical round-robin rule; bits are the n1
    left vertices and the 2 * n1/2 = n1 split right vertices are the checks.
    Expansion is measured exhaustively at gamma = 1/d1 (subsets of size at
    most 2) and both distance bounds are evaluated against the brute-force
    minimum distance when the dimension permits.
    """
    if n1 < 8 or n1 % 2:
        raise ValueError(f"n1 must be even and >= 8, got {n1}")
    base = complete_bipartite(n1, n1 // 2)
    split = vertex_split(base, "round-robin", 0)
    code = parity_check_from_graph(split.split_graph)
    d1 = n1 // 2
    gamma = 1.0 / d1
    params = lossless_parameters(split.split_graph, gamma)
    lemma, cor8 = distance_bounds(n1, d1, gamma, params.epsilon)
    epsilon_target = (n1 - 2) / (2 * n1)
    premises = params.exhaustive and params.epsilon < 0.5
    true_distance = min_distance(code) if code.dimension <= MAX_ENUM_DIMENSION else None
    if premises and true_distance is not None:
        bound_holds: bool | None = true_distance >= lemma - 1e-9
    else:
        bound_holds = None
    report = DistanceReport(true_distance, lemma, cor8, premises, bound_holds)
    return ExpanderCodePipeline(
        code, report, params, base, split, epsilon_target, n2_selection_rule(n1)
    )


def write_pchk(code: LinearCode) -> str:
    """Dense text serialization: `pchk <rows> <cols>` then 0/1 rows."""
    lines = [f"pchk {code.check_count} {code.n}"]
    lines += ["".join(str(int(x)) for x in row) for row in code.H]
    return "\n".join(lines) + "\n"


def read_pchk(text: str) -> LinearCode:
    stripped = (raw.strip() for raw in text.splitlines())
    lines = [ln for ln in stripped if ln and not ln.startswith("#")]
    if not lines or not lines[0].startswith("pchk"):
        raise ValueError("missing 'pchk <rows> <cols>' header")
    _, rows_s, cols_s = lines[0].split()
    rows, cols = int(rows_s), int(cols_s)
    if len(lines) != rows + 1:
        raise ValueError(f"expected {rows} matrix rows, got {len(lines) - 1}")
    H = np.zeros((rows, cols), dtype=np.uint8)
    for r, line in enumerate(lines[1:]):
        if len(line) != cols or set(line) - {"0", "1"}:
            raise ValueError(f"row {r}: expected {cols} characters of 0/1")
        H[r] = [int(ch) for ch in line]
    return LinearCode.from_matrix(H)


def write_alist(code: LinearCode) -> str:
    """Sparse alist serialization (columns first, 1-based indices, unpadded)."""
    H = code.H
    rows, cols = H.shape
    col_lists = [list(np.nonzero(H[:, c])[0] + 1) for c in range(cols)]
    row_lists = [list(np.nonzero(H[r, :])[0] + 1) for r in range(rows)]
    out = [
        f"{cols} {rows}",
        f"{max((len(c) for c in col_lists), default=0)} "
        f"{max((len(r) for r in row_lists), default=0)}",
        " ".join(str(len(c)) for c in col_lists),
        " ".join(str(len(r)) for r in row_lists),
    ]
    out += [" ".join(str(i) for i in c) for c in col_lists]
    out += [" ".join(str(i) for i in r) for r in row_lists]
    return "\n".join(out) + "\n"


def read_alist(text: str) -> LinearCode:
    """Parse the alist format, reading every line by its position.

    An empty line is an empty entry list (an all-zero column or row), and a
    0 entry is MacKay-style padding.  The row lists must describe the same
    matrix as the column lists.  Malformed text raises ValueError naming
    the alist line.
    """
    lines = text.splitlines()

    def ints(i: int, what: str) -> list[int]:
        if i >= len(lines):
            raise ValueError(f"alist line {i + 1} ({what}) is missing")
        try:
            return [int(x) for x in lines[i].split()]
        except ValueError:
            raise ValueError(f"alist line {i + 1} ({what}): expected integers") from None

    def entries(i: int, what: str, weight: int, limit: int) -> list[int]:
        found = [x for x in ints(i, what) if x != 0]
        if any(not 1 <= x <= limit for x in found):
            raise ValueError(f"alist line {i + 1} ({what}): index outside 1..{limit}")
        if len(found) != weight or len(set(found)) != weight:
            raise ValueError(f"alist line {i + 1} ({what}): weight mismatch, expected {weight}")
        return found

    header = ints(0, "'<cols> <rows>' header")
    if len(header) != 2 or min(header) < 0:
        raise ValueError("alist line 1: expected '<cols> <rows>'")
    cols, rows = header
    col_weights = ints(2, "column weights")
    if len(col_weights) != cols:
        raise ValueError(f"expected {cols} column weights, got {len(col_weights)}")
    row_weights = ints(3, "row weights")
    if len(row_weights) != rows:
        raise ValueError(f"expected {rows} row weights, got {len(row_weights)}")
    H = np.zeros((rows, cols), dtype=np.uint8)
    for c in range(cols):
        for r in entries(4 + c, f"column {c} entries", col_weights[c], rows):
            H[r - 1, c] = 1
    for r in range(rows):
        i = 4 + cols + r
        found = entries(i, f"row {r} entries", row_weights[r], cols)
        if sorted(found) != [c + 1 for c in np.flatnonzero(H[r])]:
            raise ValueError(f"alist line {i + 1} (row {r} entries) disagrees with the column lists")
    return LinearCode.from_matrix(H)


def codewords(code: LinearCode) -> list[np.ndarray]:
    """All 2^k codewords by spanning the null-space basis (k <= 20 only)."""
    k = code.dimension
    if k > MAX_ENUM_DIMENSION:
        raise ValueError(f"codeword enumeration infeasible: 2^{k}")
    basis = gf2_nullspace(code.H)
    out = []
    for i in range(1 << k):
        w = np.zeros(code.n, dtype=np.uint8)
        for b in range(k):
            if i >> b & 1:
                w ^= basis[b]
        out.append(w)
    return out
