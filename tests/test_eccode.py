from __future__ import annotations

import random
import re
import tracemalloc
from itertools import product

import numpy as np
import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from bipspec import bigraph, eccode
from bipspec.bigraph import build, complete_bipartite
from bipspec.eccode import (
    LinearCode,
    N2RuleDiagnostic,
    _gf2_back_substitute,
    _gf2_echelon,
    _small_distance,
    bit_flip_decode,
    codewords,
    construct_expander_code,
    distance_bounds,
    min_distance,
    parity_check_from_graph,
    n2_selection_rule,
    write_alist,
    write_pchk,
)
from bipspec.vsplit import vertex_split
from edge_views import edge_pairs


def _gf2_rref(H: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The nonzero RREF rows the basis is read from, with their pivot
    columns: the forward elimination on the code keys (H^T's flat indices
    of its ones), then back-substitution."""
    rows, cols = H.shape
    return _gf2_back_substitute(_gf2_echelon(np.flatnonzero(H.T), rows, cols), cols)


def _brute_codeword_count(H: np.ndarray) -> int:
    """Independent oracle: count null-space vectors over all of GF(2)^n."""
    rows, cols = H.shape
    return sum(1 for v in product((0, 1), repeat=cols) if not (H @ np.array(v) % 2).any())


def _brute_min_weight(H: np.ndarray) -> int | None:
    rows, cols = H.shape
    weights = [
        sum(v)
        for v in product((0, 1), repeat=cols)
        if any(v) and not (H @ np.array(v) % 2).any()
    ]
    return min(weights) if weights else None


def test_single_parity_check_code():
    g = complete_bipartite(2, 1)
    code = parity_check_from_graph(g)
    assert code.H.tolist() == [[1, 1]]
    assert (code.n, code.check_count, code.rank, code.dimension) == (2, 1, 1, 1)
    assert min_distance(code) == 2


def test_k11_zero_dimensional_code():
    code = parity_check_from_graph(complete_bipartite(1, 1))
    assert code.H.tolist() == [[1]]
    assert code.dimension == 0
    assert min_distance(code) is None


def test_parity_check_orientation():
    split = vertex_split(complete_bipartite(8, 4))
    code = parity_check_from_graph(split)
    assert code.H.shape == (8, 8)
    assert all(int(x) == 4 for x in code.H.sum(axis=1))
    assert all(int(x) == 4 for x in code.H.sum(axis=0))
    # H[j][i] = 1 iff edge (i, j)
    for i, j in edge_pairs(split):
        assert code.H[j, i] == 1


def test_gf2_rank_basics():
    assert LinearCode.from_matrix(np.eye(5, dtype=np.uint8)).rank == 5
    assert LinearCode.from_matrix(np.zeros((3, 4), dtype=np.uint8)).rank == 0
    assert LinearCode.from_matrix(np.array([[1, 1], [1, 1]], dtype=np.uint8)).rank == 1


def test_gf2_rank_vs_nullspace_count():
    rng = random.Random(6)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        H = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        rank = LinearCode.from_matrix(H).rank
        assert _brute_codeword_count(H) == 2 ** (cols - rank)


def test_gf2_nullspace_spans_kernel():
    rng = random.Random(12)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(2, 8)
        H = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        basis = LinearCode.from_matrix(H).basis
        assert basis.shape[0] == cols - LinearCode.from_matrix(H).rank
        assert not (H @ basis.T % 2).any()
        assert LinearCode.from_matrix(basis).rank == basis.shape[0]  # basis rows are independent


def test_min_distance_matches_brute_force():
    split = vertex_split(complete_bipartite(8, 4))
    code = parity_check_from_graph(split)
    assert min_distance(code) == _brute_min_weight(code.H) == 4


def test_min_distance_refuses_large_dimension():
    code = LinearCode.from_matrix(np.zeros((1, 25), dtype=np.uint8))
    with pytest.raises(ValueError, match="infeasible"):
        min_distance(code)


def test_codeword_count_is_power_of_dimension():
    split = vertex_split(complete_bipartite(8, 4))
    code = parity_check_from_graph(split)
    words = codewords(code)
    assert len(words) == 2**code.dimension
    assert len({tuple(w) for w in words}) == len(words)
    for w in words:
        assert not (code.H @ w % 2).any()


def test_rate_lower_bound():
    rng = random.Random(15)
    for _ in range(10):
        m, n = rng.randint(2, 6), rng.randint(2, 6)
        code = parity_check_from_graph(complete_bipartite(m, n))
        assert code.rate >= 1 - code.check_count / code.n - 1e-12


def test_distance_bounds_agreement():
    lemma, cor8 = distance_bounds(8, 4, 1 / 4, 0.375)
    assert lemma == 2.5
    assert cor8 == 2.5

    lemma, cor8 = distance_bounds(16, 8, 1 / 8, (16 - 2) / (2 * 16))
    assert lemma == cor8 == 2.25

    lemma, cor8 = distance_bounds(12, 6, 1 / 6, 5 / 12)
    assert lemma == pytest.approx(2 * 14 / 12, abs=1e-12)
    assert cor8 == pytest.approx(2 * 14 / 12, abs=1e-12)
    assert lemma == pytest.approx(cor8, rel=1e-12)

    lemma, _ = distance_bounds(10, 5, 1.0, 0.0)
    assert lemma == 20.0


def test_distance_bounds_contract():
    with pytest.raises(ValueError, match="positive"):
        distance_bounds(0, 4, 0.25, 0.3)
    with pytest.raises(ValueError, match="epsilon"):
        distance_bounds(8, 4, 0.25, 1.5)


def test_bit_flip_identity_on_codewords():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    for w in codewords(code):
        decoded, status = bit_flip_decode(code, w, max_iters=0)
        assert status == "decoded"
        assert np.array_equal(decoded, w)


def test_bit_flip_single_errors():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    words = codewords(code)
    for c in words:
        for pos in range(code.n):
            received = c.copy()
            received[pos] ^= 1
            decoded, status = bit_flip_decode(code, received, max_iters=20)
            assert status == "decoded"
            assert np.array_equal(decoded, c), (c.tolist(), pos)


def test_bit_flip_soundness_on_noise():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    rng = random.Random(21)
    for _ in range(200):
        received = [rng.randint(0, 1) for _ in range(code.n)]
        decoded, status = bit_flip_decode(code, received, max_iters=30)
        if status == "decoded":
            assert not (code.H @ decoded % 2).any()


def test_bit_flip_zero_code_failure():
    code = parity_check_from_graph(complete_bipartite(1, 1))
    decoded, status = bit_flip_decode(code, [1], max_iters=0)
    assert status == "failed"


def test_bit_flip_reads_integers_mod_2():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    rng = random.Random(3)
    for _ in range(20):
        bits = [rng.randint(0, 1) for _ in range(code.n)]
        wide = [b + 2 * rng.randint(-200, 200) for b in bits]
        expected, expected_status = bit_flip_decode(code, np.array(bits, dtype=np.uint8), 20)
        arrays = (np.array(wide), np.array(wide, dtype=np.int16), np.array(bits, dtype=bool))
        for received in (wide, *arrays):
            decoded, status = bit_flip_decode(code, received, 20)
            assert status == expected_status and np.array_equal(decoded, expected)
    eye = LinearCode.from_matrix(np.eye(2, dtype=np.uint8))
    for received in ([256, 0], [-1, 0], np.array([256, 1]), [2**63 - 1, 0]):
        decoded, _ = bit_flip_decode(eye, received, 0)
        assert decoded.tolist() == [int(x) % 2 for x in received]
    for received in ([1.0, 0.0], np.zeros(2), ["1", "0"]):
        with pytest.raises(ValueError, match="must hold integers"):
            bit_flip_decode(eye, received, 5)


def test_pipeline_n8():
    pipe = construct_expander_code(8)
    assert pipe.code.H.shape == (8, 8)
    assert pipe.params.epsilon == (8 - 2) / (2 * 8) == 0.375
    assert pipe.report.lemma_bound == pipe.report.cor8_bound == 2.5
    assert pipe.report.premises_verified
    assert pipe.report.true_distance == 4
    assert pipe.report.bound_holds is True


def test_pipeline_distance_law_various_sizes():
    for n1 in (8, 12, 16):
        pipe = construct_expander_code(n1)
        assert pipe.params.epsilon < 0.5
        assert pipe.report.premises_verified
        if pipe.code.dimension >= 1:
            assert pipe.report.true_distance is not None
            assert pipe.report.true_distance >= pipe.report.lemma_bound - 1e-9


def test_pipeline_contract():
    with pytest.raises(ValueError, match="even"):
        construct_expander_code(9)
    with pytest.raises(ValueError):
        construct_expander_code(6)


def test_n2_selection_rule_infeasible():
    for n1 in (8, 12, 16, 20):
        diag = n2_selection_rule(n1)
        assert not diag.feasible
        assert diag.note
    # n1 = 12: divisors of 72 strictly between 3.5 and 6 -> just 4
    assert n2_selection_rule(12).candidates == (4,)
    assert n2_selection_rule(8).chosen is None


def _full_scan_rule(n1: int) -> N2RuleDiagnostic:
    """The rule as it first ran: every x in 1..n1^2/2 tested for a divisor
    strictly between (n1+2)/4 and n1/2."""
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


def test_n2_selection_rule_matches_the_full_divisor_scan():
    for n1 in range(2, 401, 2):
        assert n2_selection_rule(n1) == _full_scan_rule(n1), n1


def _per_entry_pchk(H: np.ndarray) -> str:
    """The pchk text written one entry at a time."""
    rows, cols = H.shape
    return f"pchk {rows} {cols}\n" + "".join(
        "".join(str(int(x)) for x in row) + "\n" for row in H
    )


def test_pchk_roundtrip():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    text = write_pchk(code)
    assert text.startswith("pchk 8 8\n")
    assert text == _per_entry_pchk(code.H)


def test_alist_roundtrip():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)))
    text = write_alist(code)
    assert text.splitlines()[0] == "8 8"
    assert text == _nonzero_write_alist(code)


def test_alist_roundtrip_all_zero_column():
    # an all-zero column is an empty entry line
    code = LinearCode.from_matrix(np.array([[1, 0, 1], [1, 0, 0]], dtype=np.uint8))
    assert write_alist(code) == "3 2\n2 2\n2 0 1\n2 1\n1 2\n\n1\n1 3\n1\n"


def test_pchk_roundtrip_at_decoder_size():
    code = _regular_code(1200, random.Random(21))
    assert write_pchk(code) == _per_entry_pchk(code.H)
    assert write_pchk(code).startswith("pchk 600 1200\n")


def test_pchk_of_zero_rows():
    code = LinearCode.from_matrix(np.zeros((0, 3), dtype=np.uint8))
    assert write_pchk(code) == "pchk 0 3\n"


def _random_code(data, max_rows: int, max_cols: int) -> LinearCode:
    rows = data.draw(st.integers(0, max_rows), label="rows")
    cols = data.draw(st.integers(1, max_cols), label="cols")
    density = data.draw(st.sampled_from([0.0, 0.1, 0.5, 1.0]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    return LinearCode.from_matrix((rng.random((rows, cols)) < density).astype(np.uint8))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_pchk_write_read_roundtrip(data):
    code = _random_code(data, 40, 90)
    assert write_pchk(code) == _per_entry_pchk(code.H)


def test_from_matrix_rejects_zero_columns():
    with pytest.raises(ValueError, match="block length"):
        LinearCode.from_matrix(np.zeros((2, 0), dtype=np.uint8))


def test_from_matrix_names_the_shape_of_a_matrix_that_is_not_2d():
    for H, shape in (([1, 0, 1], (3,)), (np.zeros((2, 2, 2), dtype=np.uint8), (2, 2, 2)), (1, ())):
        with pytest.raises(ValueError, match=re.escape(f"must be 2-D, got shape {shape}")):
            LinearCode.from_matrix(H)


def test_bit_flip_rejects_max_iters_that_is_not_a_count():
    code = LinearCode.from_matrix(np.eye(2, dtype=np.uint8))
    for max_iters in (-1, 2.5, True, "3", None):
        with pytest.raises(ValueError, match="max_iters must be an int >= 0"):
            bit_flip_decode(code, [1, 0], max_iters)
    assert bit_flip_decode(code, [1, 0], 0)[1] == "failed"
    assert bit_flip_decode(code, [1, 0], np.int64(1))[1] == "decoded"


def test_code_from_graph_builds_h_only_when_it_is_read():
    # a decoder-size factor graph: 1200 bits of weight 3 over 600 checks
    rng = random.Random(21)
    g = build(1200, 600, [(bit, check) for bit in range(1200) for check in rng.sample(range(600), 3)])
    word = np.zeros(1200, dtype=np.uint8)
    word[rng.sample(range(1200), 12)] = 1
    tracemalloc.start()
    try:
        code = parity_check_from_graph(g)
        assert (code.check_count, code.n) == (600, 1200) and code.rank <= 600
        assert "H" not in vars(code)
        with pytest.raises(ValueError, match="infeasible"):
            min_distance(code)
        assert "H" not in vars(code)
        write_alist(code)
        assert "H" not in vars(code)
        bit_flip_decode(code, word, 1200)
        assert "H" not in vars(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 600 * 1200
    # past 91 bits min_distance enumerates the basis, also without H
    small = build(100, 90, [(u, v) for u in range(100) for v in range(90) if rng.random() < 0.5])
    code = parity_check_from_graph(small)
    assert 1 <= code.dimension <= 20
    distance = min_distance(code)
    assert "H" not in vars(code)
    assert distance == _gray_min_weight(_int_nullspace(code.H), code.n)
    assert code.H is code.H and not code.H.flags.writeable
    assert np.array_equal(code.H, small.biadjacency().T)


def test_decoder_reads_the_incidence_lists_in_place():
    # the code and error word of test_code_from_graph_builds_h_only_when_it_is_read;
    # with the incidence lists built, a decode allocates no copy of them
    # (m = 3,600 ones at 8 bytes an entry per list)
    rng = random.Random(21)
    g = build(1200, 600, [(bit, check) for bit in range(1200) for check in rng.sample(range(600), 3)])
    word = np.zeros(1200, dtype=np.uint8)
    word[rng.sample(range(1200), 12)] = 1
    code = parity_check_from_graph(g)
    code._incidence
    tracemalloc.start()
    try:
        decoded, status = bit_flip_decode(code, word, 1200)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 8 * g.m
    expected, expected_status = _dense_bit_flip(code.H, word, 1200)
    assert status == expected_status and np.array_equal(decoded, expected)


def test_pchk_is_written_from_the_keys_without_h():
    rng = random.Random(5)
    rows, cols = 1000, 2000
    g = build(cols, rows, [(bit, check) for bit in range(cols) for check in rng.sample(range(rows), 3)])
    code = parity_check_from_graph(g)
    tracemalloc.start()
    try:
        text = write_pchk(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert "H" not in vars(code)
    assert peak < 3 * rows * (cols + 1)
    head = f"pchk {rows} {cols}\n"
    assert text.startswith(head) and len(text) == len(head) + rows * (cols + 1)
    body = np.frombuffer(text[len(head) :].encode("ascii"), dtype=np.uint8).reshape(rows, cols + 1)
    assert (body[:, -1] == ord("\n")).all()
    assert np.array_equal(body[:, :-1] - ord("0"), code.H)


# ------------------------------------------------------------------ oracles
#
# Independent references for the numpy kernels: GF(2) elimination on Python
# int rows, and the per-element loops the kernels replaced.


def _int_rows(H: np.ndarray) -> list[int]:
    """Row r as an int whose bit c is H[r, c]."""
    return [sum(1 << c for c in np.flatnonzero(row).tolist()) for row in np.asarray(H) % 2]


def _int_rref(H: np.ndarray) -> tuple[list[int], list[int]]:
    """The (unique) RREF rows and pivot columns by leading-bit insertion.

    The leading bit of a row is its lowest set bit, i.e. its leftmost column.
    """
    basis: dict[int, int] = {}
    for row in _int_rows(H):
        while row:
            lead = (row & -row).bit_length() - 1
            if lead not in basis:
                basis[lead] = row
                break
            row ^= basis[lead]
    for lead in sorted(basis):
        for other in basis:
            if other != lead and basis[other] >> lead & 1:
                basis[other] ^= basis[lead]
    pivots = sorted(basis)
    return [basis[p] for p in pivots], pivots


def _int_nullspace(H: np.ndarray) -> list[int]:
    """Null-space basis: per free column f, bit f plus the pivots whose RREF row holds f."""
    rows, pivots = _int_rref(H)
    free = [c for c in range(H.shape[1]) if c not in pivots]
    return [
        (1 << f) | sum(1 << p for p, row in zip(pivots, rows) if row >> f & 1) for f in free
    ]


def _packed_rref(H: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """The per-column packed-word elimination the RREF used before it moved
    to int rows: per pivot column, one vectorised pivot search over uint64
    words and one XOR of the pivot row into every other row holding a 1."""
    M = np.asarray(H, dtype=np.uint8) % 2
    rows, cols = M.shape
    packed = np.zeros((rows, -(-cols // 64) * 8), dtype=np.uint8)
    packed[:, : -(-cols // 8)] = np.packbits(M, axis=1, bitorder="little")
    P = packed.view(np.dtype("<u8"))
    pivot_cols: list[int] = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        word = c >> 6
        column = P[:, word] & np.uint64(1 << (c & 63))
        pivot = r + int(column[r:].argmax())
        if not column[pivot]:
            continue
        if pivot != r:
            P[[r, pivot]] = P[[pivot, r]]
            column[pivot] = column[r]
        column[r] = 0
        P[np.flatnonzero(column), word:] ^= P[r, word:]
        pivot_cols.append(c)
        r += 1
    M = np.unpackbits(P.view(np.uint8), axis=1, count=cols, bitorder="little")
    return M, pivot_cols


def _basis_from_rref(M: np.ndarray, pivots: list[int]) -> np.ndarray:
    """Null-space basis read off an RREF, one free column at a time."""
    free = [c for c in range(M.shape[1]) if c not in pivots]
    basis = np.zeros((len(free), M.shape[1]), dtype=np.uint8)
    for i, f in enumerate(free):
        basis[i, f] = 1
        for row, p in enumerate(pivots):
            basis[i, p] = M[row, f]
    return basis


def _assert_matches_packed_rref(H: np.ndarray) -> tuple[np.ndarray, list[int]]:
    expected, expected_pivots = _packed_rref(H)
    M, pivots = _gf2_rref(H)
    assert pivots == expected_pivots
    assert M.shape == (len(pivots), H.shape[1]) and M.dtype == expected.dtype == np.uint8
    assert np.array_equal(M, expected[: len(pivots)]) and not expected[len(pivots):].any()
    return M, pivots


def _gray_min_weight(masks: list[int], n: int) -> int:
    """The Gray-code enumerator min_distance used before it was vectorised."""
    acc = 0
    best = n + 1
    for i in range(1, 1 << len(masks)):
        acc ^= masks[(i & -i).bit_length() - 1]
        w = acc.bit_count()
        if w < best:
            best = w
    return best


def _dense_bit_flip(H: np.ndarray, received, max_iters: int) -> tuple[np.ndarray, str]:
    """The dense decoder loop bit_flip_decode used before it went incremental."""
    word = (np.asarray(received, dtype=np.uint8) % 2).copy()
    H = H.astype(np.int64)
    col_weight = H.sum(axis=0)
    flips = 0
    while True:
        syndrome = H @ word % 2
        if not syndrome.any():
            return word, "decoded"
        if flips >= max_iters:
            return word, "failed"
        margin = 2 * (H.T @ syndrome) - col_weight
        best = int(np.argmax(margin))
        if margin[best] <= 0:
            return word, "failed"
        word[best] ^= 1
        flips += 1


def _elimination_cases():
    rng = np.random.default_rng(41)
    cases = []
    for cols in (1, 5, 63, 64, 65, 129):
        for rows in (1, cols // 2 + 1, cols + 7):  # rows > cols in the last
            for p in (0.05, 0.5):
                H = (rng.random((rows, cols)) < p).astype(np.uint8)
                if rows > 2:
                    H[rows // 2] = 0  # a zero row
                    H[-1] = H[0]  # a duplicate row
                if cols > 2:
                    H[:, cols // 3] = 0  # a zero column
                cases.append(H)
    cases.append(np.zeros((3, 64), dtype=np.uint8))
    cases.append(np.ones((70, 65), dtype=np.uint8))
    return cases


def test_rref_rank_nullspace_match_int_elimination():
    for H in _elimination_cases():
        rows, pivots = _int_rref(H)
        M, pivot_cols = _gf2_rref(H)
        assert pivot_cols == pivots
        assert _int_rows(M) == rows
        assert M.shape == (len(rows), H.shape[1]) and M.dtype == np.uint8
        assert LinearCode.from_matrix(H).rank == len(pivots)
        basis = LinearCode.from_matrix(H).basis
        assert basis.shape == (H.shape[1] - len(pivots), H.shape[1])
        assert _int_rows(basis) == _int_nullspace(H)


def test_rref_matches_packed_elimination():
    for H in _elimination_cases():
        _assert_matches_packed_rref(H)


@pytest.mark.parametrize("seed", range(6))
def test_rref_matches_packed_elimination_at_decoder_size(seed):
    code = _regular_code((800, 1000, 1200)[seed % 3], random.Random(seed))
    _assert_matches_packed_rref(code.H)


def test_rref_of_zero_rows():
    M, pivots = _gf2_rref(np.zeros((0, 13), dtype=np.uint8))
    assert (M.shape, M.dtype, pivots) == ((0, 13), np.uint8, [])
    _assert_matches_packed_rref(np.zeros((0, 13), dtype=np.uint8))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_rref_property_matches_packed_elimination(data):
    rows = data.draw(st.integers(1, 80), label="rows")
    cols = data.draw(st.integers(1, 200), label="cols")
    density = data.draw(st.sampled_from([0.02, 0.1, 0.5, 0.95]), label="density")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    H = (rng.random((rows, cols)) < density).astype(np.uint8)
    index = st.integers(0, rows - 1)
    for r in data.draw(st.lists(index, max_size=3), label="zero rows"):
        H[r] = 0
    for r in data.draw(st.lists(index, max_size=3), label="all-ones rows"):
        H[r] = 1
    for r, s in data.draw(st.lists(st.tuples(index, index), max_size=3), label="duplicates"):
        H[r] = H[s]
    M, pivots = _assert_matches_packed_rref(H)
    code = LinearCode.from_matrix(H)
    assert code.rank == len(pivots)
    assert np.array_equal(code.basis, _basis_from_rref(M, pivots))


def test_rref_leaves_input_unchanged():
    H = np.array([[0, 1, 1], [1, 1, 0]], dtype=np.uint8)
    _gf2_rref(H)
    assert H.tolist() == [[0, 1, 1], [1, 1, 0]]


def _code_of_dimension(n: int, k: int, p: float, rng: np.random.Generator) -> LinearCode:
    """A code with H = [I | A] up to a column permutation, so dimension k exactly."""
    H = np.zeros((n - k, n), dtype=np.uint8)
    H[:, : n - k] = np.eye(n - k, dtype=np.uint8)
    H[:, n - k:] = rng.random((n - k, k)) < p
    return LinearCode.from_matrix(H[:, rng.permutation(n)])


def test_min_distance_matches_brute_force_small_codes():
    rng = np.random.default_rng(8)
    for _ in range(20):
        n = int(rng.integers(2, 15))
        H = (rng.random((int(rng.integers(1, n + 2)), n)) < rng.choice([0.2, 0.5])).astype(np.uint8)
        code = LinearCode.from_matrix(H)
        assert min_distance(code) == _brute_min_weight(code.H)


@pytest.mark.parametrize("n", [63, 64, 65, 130])
def test_min_distance_matches_gray_code_enumerator(n):
    rng = np.random.default_rng(n)
    for k, p in ((1, 0.5), (7, 0.1), (12, 0.3), (13, 0.05), (17, 0.2), (20, 0.1)):
        code = _code_of_dimension(n, k, p, rng)
        assert code.dimension == k
        assert min_distance(code) == _gray_min_weight(_int_nullspace(code.H), n)


def _cyclic_parity_check(n: int, g: int) -> np.ndarray:
    """H of the cyclic [n, n - deg g] code with generator polynomial g (bit i
    is the coefficient of x^i): row r holds h(x) = (x^n + 1) / g(x), highest
    coefficient first, at columns r .. r + deg h."""
    h, rest = 0, (1 << n) | 1
    while rest.bit_length() >= g.bit_length():
        shift = rest.bit_length() - g.bit_length()
        h |= 1 << shift
        rest ^= g << shift
    assert rest == 0
    k = h.bit_length() - 1
    H = np.zeros((n - k, n), dtype=np.uint8)
    for r in range(n - k):
        H[r, r : r + k + 1] = [h >> (k - i) & 1 for i in range(k + 1)]
    return H


BCH_15_7 = _cyclic_parity_check(15, 0b111010001)  # [15, 7, 5]
BCH_31_21 = _cyclic_parity_check(31, 0b11101101001)  # [31, 21, 5], g = m1 * m3
HAMMING_7_4 = np.array([[(c >> b) & 1 for c in range(1, 8)] for b in range(3)], dtype=np.uint8)


def _extended(H: np.ndarray) -> np.ndarray:
    """H of the code extended by an overall parity bit, which makes an odd
    distance even."""
    rows, n = H.shape
    extended = np.zeros((rows + 1, n + 1), dtype=np.uint8)
    extended[:rows, :n] = H
    extended[rows] = 1
    return extended


def _small_distance_cases():
    """(name, H) for codes of dimension 1..20 whose distances run 1..5 and
    beyond.  The [31, 21] BCH code shortened to 30, 26 and 23 bits (k = 20,
    16, 13 > 12) has d = 5, which stops the Gray code early.  Up to 91
    columns (4095 pairs) min_distance runs the collision search first; the
    92-bit code is past that, so it is enumerated alone."""
    rng = np.random.default_rng(10)
    zero_column = (rng.random((6, 12)) < 0.5).astype(np.uint8)
    zero_column[:, 7] = 0
    repeated = (rng.random((8, 14)) < 0.5).astype(np.uint8)
    repeated[:, 11] = repeated[:, 2]
    cases = [
        ("zero column", zero_column),
        ("repeated column", repeated),
        ("Hamming [7,4,3]", HAMMING_7_4),
        ("extended Hamming [8,4,4]", _extended(HAMMING_7_4)),
        ("BCH [15,7,5]", BCH_15_7),
        ("extended BCH [16,7,6]", _extended(BCH_15_7)),
        *((f"shortened BCH [{31 - s},{21 - s}]", BCH_31_21[:, s:]) for s in (1, 5, 8)),
    ]
    for n, k in ((20, 5), (36, 12), (44, 14), (64, 20), (91, 20), (92, 17)):
        cases.append((f"random [{n},{k}]", _code_of_dimension(n, k, 0.5, rng).H))
    return cases


def test_min_distance_matches_gray_code_enumerator_at_every_small_distance():
    distances = []
    for name, H in _small_distance_cases():
        code = LinearCode.from_matrix(H)
        assert 1 <= code.dimension <= 20, name
        expected = _gray_min_weight(_int_nullspace(code.H), code.n)
        assert min_distance(code) == expected, name
        assert _small_distance(code) == (expected if expected <= 4 else None), name
        distances.append(expected)
    assert set(range(1, 6)) <= set(distances) and max(distances) >= 6


def _round_robin_code(n1: int) -> LinearCode:
    return parity_check_from_graph(vertex_split(complete_bipartite(n1, n1 // 2), "round-robin", 0))


def test_round_robin_split_has_distance_four():
    # every window of h = n1/2 cyclic checks holds one of i, i + h and one of
    # i + 1, i + h + 1, so those four columns of H sum to zero
    for n1 in (8, 26, 64, 100):
        code = _round_robin_code(n1)
        h = n1 // 2
        for i in range(n1):
            word = np.zeros(n1, dtype=np.uint8)
            word[[i, (i + 1) % n1, (i + h) % n1, (i + h + 1) % n1]] = 1
            assert not (code.H.astype(int) @ word % 2).any()
        assert _small_distance(code) == 4
    assert _round_robin_code(100).dimension > 20
    for n1 in range(8, 43, 2):
        assert min_distance(_round_robin_code(n1)) == 4


def _regular_code(n: int, rng: random.Random) -> LinearCode:
    """Column weight 3 over n/2 checks, like the benchmark's decoder codes."""
    H = np.zeros((n // 2, n), dtype=np.uint8)
    for bit in range(n):
        H[rng.sample(range(n // 2), 3), bit] = 1
    return LinearCode.from_matrix(H)


def test_bit_flip_matches_dense_loop():
    rng = random.Random(33)
    statuses = set()
    for n in (200, 300, 400):
        code = _regular_code(n, rng)
        for rate in (0.01, 0.02, 0.03, 0.05, 0.2):
            word = np.zeros(n, dtype=np.uint8)
            word[rng.sample(range(n), round(rate * n))] = 1
            for max_iters in (0, 1, 5, n):
                decoded, status = bit_flip_decode(code, word, max_iters)
                expected, expected_status = _dense_bit_flip(code.H, word, max_iters)
                assert status == expected_status
                assert np.array_equal(decoded, expected)
                assert decoded.dtype == np.uint8
                statuses.add((status, max_iters == 0))
    # decoded and failed words both occur, with and without any flip allowed
    assert {("decoded", False), ("failed", False), ("failed", True)} <= statuses


def test_bit_flip_margin_tie_goes_to_lowest_index():
    code = LinearCode.from_matrix(np.eye(2, dtype=np.uint8))
    # both bits see one unsatisfied check and no satisfied one: margin 1 each
    decoded, status = bit_flip_decode(code, [1, 1], max_iters=1)
    assert (decoded.tolist(), status) == ([0, 1], "failed")
    assert _dense_bit_flip(code.H, [1, 1], 1)[0].tolist() == [0, 1]
    decoded, status = bit_flip_decode(code, [1, 1], max_iters=5)
    assert (decoded.tolist(), status) == ([0, 0], "decoded")
    code = LinearCode.from_matrix(np.array([[1, 1]], dtype=np.uint8))
    assert bit_flip_decode(code, [0, 1], max_iters=1)[0].tolist() == [1, 1]


def test_bit_flip_leaves_received_word_unchanged():
    code = _regular_code(40, random.Random(2))
    received = np.zeros(40, dtype=np.uint8)
    received[[3, 17]] = 1
    bit_flip_decode(code, received, 40)
    assert np.flatnonzero(received).tolist() == [3, 17]


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bit_flip_property_matches_dense_loop(data):
    rows = data.draw(st.integers(1, 6), label="rows")
    cols = data.draw(st.integers(1, 9), label="cols")
    row = st.lists(st.integers(0, 1), min_size=cols, max_size=cols)
    H = np.array(data.draw(st.lists(row, min_size=rows, max_size=rows), label="H"), dtype=np.uint8)
    word = data.draw(row, label="word")
    max_iters = data.draw(st.integers(0, 12), label="max_iters")
    code = LinearCode.from_matrix(H)
    decoded, status = bit_flip_decode(code, word, max_iters)
    expected, expected_status = _dense_bit_flip(H, word, max_iters)
    assert status == expected_status
    assert np.array_equal(decoded, expected)
    if status == "decoded":
        assert not (H.astype(int) @ decoded % 2).any()


def test_reused_and_fresh_codes_decode_like_the_dense_loop():
    rng = random.Random(71)
    for n in (120, 300):
        code = _regular_code(n, rng)
        for rate in (0.01, 0.03, 0.1, 0.3):
            word = np.zeros(n, dtype=np.uint8)
            word[rng.sample(range(n), round(rate * n))] = 1
            for max_iters in (0, 3, n):
                reused = bit_flip_decode(code, word, max_iters)
                fresh = bit_flip_decode(LinearCode.from_matrix(code.H), word, max_iters)
                expected, expected_status = _dense_bit_flip(code.H, word, max_iters)
                for decoded, status in (reused, fresh):
                    assert status == expected_status
                    assert np.array_equal(decoded, expected)


def test_bit_flip_matches_dense_loop_at_decoder_size():
    rng = random.Random(97)
    statuses = set()
    for n in (800, 1000, 1200):
        code = _regular_code(n, rng)
        for rate in (0.01, 0.02, 0.03):
            word = np.zeros(n, dtype=np.uint8)
            word[rng.sample(range(n), round(rate * n))] = 1
            for max_iters in (0, 1, n):
                decoded, status = bit_flip_decode(code, word, max_iters)
                expected, expected_status = _dense_bit_flip(code.H, word, max_iters)
                assert (status, decoded.dtype) == (expected_status, np.uint8)
                assert np.array_equal(decoded, expected)
                statuses.add((status, "n" if max_iters == n else max_iters))
    assert statuses == {("failed", 0), ("failed", 1), ("decoded", "n"), ("failed", "n")}


def _dense_flip_events(H: np.ndarray, received, max_iters: int) -> set[str]:
    """What the dense decoder loop passes through, in the terms of a queue of
    margins: a top margin shared by bits of different column weights
    ("tie"), a positive margin that moves before its bit flips ("stale"),
    a top margin below the previous one ("lower top"), and an all-zero
    column ("zero column")."""
    word = np.asarray(received, dtype=np.uint8) % 2
    H = H.astype(np.int64)
    col_weight = H.sum(axis=0)
    events = {"zero column"} if (col_weight == 0).any() else set()
    margin = best = None
    for _ in range(max_iters):
        syndrome = H @ word % 2
        if not syndrome.any():
            break
        new = 2 * (H.T @ syndrome) - col_weight
        if margin is not None:
            moved = (margin > 0) & (new != margin)
            moved[best] = False
            if moved.any():
                events.add("stale")
            if new.max() < margin.max():
                events.add("lower top")
        margin = new
        if margin.max() <= 0:
            break
        if len(set(col_weight[margin == margin.max()].tolist())) > 1:
            events.add("tie")
        best = int(np.argmax(margin))
        word[best] ^= 1
    return events


def _mixed_weight_H(rng: random.Random) -> np.ndarray:
    rows, cols = rng.randint(1, 10), rng.randint(1, 16)
    H = np.zeros((rows, cols), dtype=np.uint8)
    for c in range(cols):
        H[rng.sample(range(rows), rng.randint(0, min(6, rows))), c] = 1
    return H


def test_bit_flip_matches_dense_loop_over_mixed_column_weights():
    rng = random.Random(13)
    seen = set()
    for _ in range(300):
        H = _mixed_weight_H(rng)
        word = [rng.randint(0, 1) for _ in range(H.shape[1])]
        max_iters = rng.randint(0, H.shape[1] + 2)
        decoded, status = bit_flip_decode(LinearCode.from_matrix(H), word, max_iters)
        expected, expected_status = _dense_bit_flip(H, word, max_iters)
        assert status == expected_status
        assert np.array_equal(decoded, expected)
        seen |= _dense_flip_events(H, word, max_iters)
    assert seen == {"tie", "stale", "lower top", "zero column"}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_bit_flip_property_over_mixed_column_weights(data):
    rows = data.draw(st.integers(1, 10), label="rows")
    cols = data.draw(st.integers(1, 16), label="cols")
    H = np.zeros((rows, cols), dtype=np.uint8)
    for c in range(cols):
        checks = st.lists(st.integers(0, rows - 1), max_size=6, unique=True)
        H[data.draw(checks, label=f"column {c}"), c] = 1
    word = data.draw(st.lists(st.integers(0, 1), min_size=cols, max_size=cols), label="word")
    max_iters = data.draw(st.integers(0, cols + 2), label="max_iters")
    decoded, status = bit_flip_decode(LinearCode.from_matrix(H), word, max_iters)
    expected, expected_status = _dense_bit_flip(H, word, max_iters)
    assert status == expected_status
    assert np.array_equal(decoded, expected)
    for name in _dense_flip_events(H, word, max_iters):
        event(name)


def test_basis_is_derived_on_first_read():
    H = np.array([[1, 1, 0, 1], [0, 1, 1, 1]], dtype=np.uint8)
    code = LinearCode.from_matrix(H)
    assert (code.rank, code.dimension) == (2, 2)
    assert "basis" not in vars(code)
    basis = code.basis
    assert code.basis is basis and not basis.flags.writeable and not code.H.flags.writeable
    assert np.array_equal(basis, _basis_from_rref(*_gf2_rref(H)))


def _nonzero_write_alist(code: LinearCode) -> str:
    """The writer write_alist replaced: one np.nonzero per column and per row."""
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


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_alist_writer_matches_per_column_writer(data):
    code = _random_code(data, 12, 15)
    text = write_alist(code)
    assert text == _nonzero_write_alist(code)


def test_parity_check_matrix_is_the_transposed_biadjacency():
    # the code of the graph and the code of its matrix are one code: the same
    # keys, and every form derived from them alike
    rng = random.Random(5)
    for n1, n2, p in ((1, 1, 0.0), (3, 5, 0.5), (17, 9, 0.2), (64, 40, 0.1)):
        g = build(n1, n2, [(u, v) for u in range(n1) for v in range(n2) if rng.random() < p])
        code, fresh = parity_check_from_graph(g), LinearCode.from_matrix(g.biadjacency().T)
        assert np.array_equal(code.keys, fresh.keys) and code.rank == fresh.rank
        for H in (code.H, fresh.H):
            assert H.dtype == np.uint8 and H.flags.c_contiguous and not H.flags.writeable
            assert np.array_equal(H, g.biadjacency().T)
        assert all(np.array_equal(a, b) for a, b in zip(code._incidence, fresh._incidence, strict=True))
        assert write_pchk(code) == write_pchk(fresh) and write_alist(code) == write_alist(fresh)
        if code.dimension <= 20:
            assert min_distance(code) == min_distance(fresh)


def test_a_code_from_a_graph_transposes_no_key(monkeypatch):
    # the code's keys are the graph's own edge keys, and neither the code nor
    # its rank, distance or pchk writer groups them by check; the alist
    # writer and the decoder share one grouping, kept on the code
    rng = random.Random(21)
    g = build(1200, 600, [(bit, check) for bit in range(1200) for check in rng.sample(range(600), 3)])
    bch = build(15, 8, [(r + i, r) for r in range(8) for i in (0, 1, 3, 7)])  # [15, 7, 5]
    word = np.zeros(1200, dtype=np.uint8)
    word[rng.sample(range(1200), 12)] = 1
    calls = []
    grouped = bigraph._incidence

    def counted(keys, rows, cols):
        calls.append(keys)
        return grouped(keys, rows, cols)

    for module in (bigraph, eccode):
        monkeypatch.setattr(module, "_incidence", counted)
    code = parity_check_from_graph(g)
    assert np.shares_memory(code.keys, g.keys)
    assert code.rank <= 600
    assert min_distance(parity_check_from_graph(bch)) == 5
    write_pchk(code)
    assert calls == []
    write_alist(code)
    bit_flip_decode(code, word, 1200)
    assert len(calls) == 1 and calls[0] is code.keys
    g.is_connected()
    assert len(calls) == 2  # the graph's walks group through the same counter
