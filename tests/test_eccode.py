from __future__ import annotations

import random
from itertools import product

import numpy as np
import pytest

from bipspec.bigraph import complete_bipartite
from bipspec.eccode import (
    LinearCode,
    bit_flip_decode,
    codewords,
    construct_expander_code,
    distance_bounds,
    gf2_nullspace,
    gf2_rank,
    min_distance,
    parity_check_from_graph,
    read_alist,
    read_pchk,
    n2_selection_rule,
    write_alist,
    write_pchk,
)
from bipspec.vsplit import vertex_split


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
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    code = parity_check_from_graph(split)
    assert code.H.shape == (8, 8)
    assert all(int(x) == 4 for x in code.H.sum(axis=1))
    assert all(int(x) == 4 for x in code.H.sum(axis=0))
    # H[j][i] = 1 iff edge (i, j)
    for i, j in split.edges:
        assert code.H[j, i] == 1


def test_gf2_rank_basics():
    assert gf2_rank(np.eye(5, dtype=np.uint8)) == 5
    assert gf2_rank(np.zeros((3, 4), dtype=np.uint8)) == 0
    assert gf2_rank(np.array([[1, 1], [1, 1]], dtype=np.uint8)) == 1


def test_gf2_rank_vs_nullspace_count():
    rng = random.Random(6)
    for _ in range(20):
        rows, cols = rng.randint(1, 6), rng.randint(1, 8)
        H = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        rank = gf2_rank(H)
        assert _brute_codeword_count(H) == 2 ** (cols - rank)


def test_gf2_nullspace_spans_kernel():
    rng = random.Random(12)
    for _ in range(10):
        rows, cols = rng.randint(1, 5), rng.randint(2, 8)
        H = np.array([[rng.randint(0, 1) for _ in range(cols)] for _ in range(rows)], dtype=np.uint8)
        basis = gf2_nullspace(H)
        assert basis.shape[0] == cols - gf2_rank(H)
        assert not (H @ basis.T % 2).any()
        assert gf2_rank(basis) == basis.shape[0]  # basis rows are independent


def test_min_distance_matches_brute_force():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
    code = parity_check_from_graph(split)
    assert min_distance(code) == _brute_min_weight(code.H) == 4


def test_min_distance_refuses_large_dimension():
    code = LinearCode.from_matrix(np.zeros((1, 25), dtype=np.uint8))
    with pytest.raises(ValueError, match="infeasible"):
        min_distance(code)


def test_codeword_count_is_power_of_dimension():
    split = vertex_split(complete_bipartite(8, 4)).split_graph
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
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)).split_graph)
    for w in codewords(code):
        decoded, status = bit_flip_decode(code, w, max_iters=0)
        assert status == "decoded"
        assert np.array_equal(decoded, w)


def test_bit_flip_single_errors():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)).split_graph)
    words = codewords(code)
    for c in words:
        for pos in range(code.n):
            received = c.copy()
            received[pos] ^= 1
            decoded, status = bit_flip_decode(code, received, max_iters=20)
            assert status == "decoded"
            assert np.array_equal(decoded, c), (c.tolist(), pos)


def test_bit_flip_soundness_on_noise():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)).split_graph)
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


def test_pipeline_n8():
    pipe = construct_expander_code(8)
    assert pipe.base.n1 == 8 and pipe.base.n2 == 4
    assert pipe.code.H.shape == (8, 8)
    assert pipe.params.epsilon == pipe.epsilon_target == 0.375
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


def test_pchk_roundtrip():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)).split_graph)
    text = write_pchk(code)
    assert text.startswith("pchk 8 8\n")
    again = read_pchk(text)
    assert np.array_equal(again.H, code.H)
    assert write_pchk(again) == text


def test_alist_roundtrip():
    code = parity_check_from_graph(vertex_split(complete_bipartite(8, 4)).split_graph)
    text = write_alist(code)
    first = text.splitlines()[0]
    assert first == "8 8"
    again = read_alist(text)
    assert np.array_equal(again.H, code.H)


def test_pchk_rejects_garbage():
    with pytest.raises(ValueError, match="header"):
        read_pchk("nope\n")
    with pytest.raises(ValueError, match="0/1"):
        read_pchk("pchk 1 2\n2x\n")
    with pytest.raises(ValueError, match="rows"):
        read_pchk("pchk 2 2\n11\n")


def test_pchk_skips_indented_comment():
    code = read_pchk("pchk 1 2\n  # indented comment\n11\n")
    assert code.H.tolist() == [[1, 1]]


def test_alist_rejects_truncated_text():
    with pytest.raises(ValueError, match="line 1"):
        read_alist("")
    with pytest.raises(ValueError, match="line 3"):
        read_alist("2 1\n1 1\n")


def test_alist_rejects_weight_mismatch():
    with pytest.raises(ValueError, match="column weights"):
        read_alist("2 1\n1 2\n1\n2\n1\n1 2\n")
    with pytest.raises(ValueError, match="weight mismatch"):
        read_alist("2 1\n1 2\n1 1\n2\n1\n\n1 2\n")


def test_alist_roundtrip_all_zero_column():
    code = LinearCode.from_matrix(np.array([[1, 0, 1], [1, 0, 0]], dtype=np.uint8))
    again = read_alist(write_alist(code))
    assert again.H.tolist() == [[1, 0, 1], [1, 0, 0]]


def test_alist_rejects_index_above_rows():
    with pytest.raises(ValueError, match=r"alist line 5 \(column 0 entries\): index outside 1..1"):
        read_alist("2 1\n1 1\n1 1\n1\n5\n1\n1 2\n")


def test_alist_rejects_row_lists_that_disagree():
    # the row weight says 1 but the row lists both columns
    with pytest.raises(ValueError, match=r"alist line 7 \(row 0 entries\): weight mismatch"):
        read_alist("2 1\n1 1\n1 1\n1\n1\n1\n1 2\n")
    # weights agree, but row 0 names column 2 where the columns put column 1
    with pytest.raises(ValueError, match=r"alist line 7 \(row 0 entries\) disagrees"):
        read_alist("2 2\n1 1\n1 1\n1 1\n1\n2\n2\n1\n")
    # a correct row half is accepted, with MacKay zero padding
    assert read_alist("2 2\n1 1\n1 1\n1 1\n1\n2\n1\n2\n").H.tolist() == [[1, 0], [0, 1]]
    assert read_alist("2 1\n1 2\n1 1\n2\n1 0\n1\n1 2\n").H.tolist() == [[1, 1]]
