from __future__ import annotations

import json
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bipspec import spectra
from bipspec.bigraph import build, complete_bipartite, path_graph, random_tree, write_edge_list
from bipspec.cli import run
from bipspec.spectra import (
    BoundReport,
    SymmetricMatrix,
    adjacency_matrix,
    bipartite_quotient,
    bound_suite,
    eigenvalue_clusters,
    interlacing_check,
    laplacian_matrix,
    lifted_matrix_spectrum,
    signless_laplacian_matrix,
    symmetric_eigenvalues,
)
from edge_views import edge_pairs


def _random_connected(rng: random.Random, max_n: int = 12):
    n = rng.randint(2, max_n)
    n1 = rng.randint(1, n - 1)
    n2 = n - n1
    edges = {(0, 0)}
    lu, ru = 1, 1
    while lu + ru < n:
        if lu < n1 and (ru >= n2 or rng.random() < 0.5):
            edges.add((lu, rng.randrange(ru)))
            lu += 1
        else:
            edges.add((rng.randrange(lu), ru))
            ru += 1
    for u in range(n1):
        for v in range(n2):
            if (u, v) not in edges and rng.random() < 0.3:
                edges.add((u, v))
    return build(n1, n2, edges)


# --- graph matrices ---


def test_k11_matrices():
    g = complete_bipartite(1, 1)
    assert adjacency_matrix(g).data.tolist() == [[0, 1], [1, 0]]
    assert laplacian_matrix(g).data.tolist() == [[1, -1], [-1, 1]]


def test_p3_signless_diagonal():
    Q = signless_laplacian_matrix(path_graph(3)).data
    assert sorted(np.diag(Q).tolist()) == [1, 1, 2]


def test_adjacency_block_structure():
    g = complete_bipartite(3, 2)
    A = adjacency_matrix(g).data
    assert not A[:3, :3].any()
    assert not A[3:, 3:].any()
    assert A[:3, 3:].all()


def test_symmetric_matrix_rejects_asymmetry():
    with pytest.raises(ValueError, match="symmetric"):
        SymmetricMatrix(np.array([[0.0, 1.0], [0.5, 0.0]]))


def test_symmetric_matrix_keeps_a_private_copy():
    a = np.array([[2.0, 1.0], [1.0, 3.0]])
    M = SymmetricMatrix(a)
    assert a.flags.writeable
    assert not M.data.flags.writeable
    with pytest.raises(ValueError, match="read-only"):
        M.data[0, 0] = 5.0
    a[0, 0] = 5.0
    assert M.data.tolist() == [[2.0, 1.0], [1.0, 3.0]]
    root = math.sqrt(5.0)
    assert symmetric_eigenvalues(M).eigenvalues == pytest.approx(((5 + root) / 2, (5 - root) / 2))


# --- eigensolver ---


def test_solver_path_closed_forms():
    for n in (4, 7, 20):
        rep = symmetric_eigenvalues(adjacency_matrix(path_graph(n)))
        closed = sorted((2 * math.cos(k * math.pi / (n + 1)) for k in range(1, n + 1)), reverse=True)
        assert max(abs(a - b) for a, b in zip(rep.eigenvalues, closed)) <= 1e-8
        assert rep.residual <= 1e-8
        assert rep.iterations <= 100


def test_solver_complete_bipartite_closed_form():
    rep = symmetric_eigenvalues(adjacency_matrix(complete_bipartite(8, 4)))
    s = math.sqrt(32)
    expected = [s] + [0.0] * 10 + [-s]
    assert max(abs(a - b) for a, b in zip(rep.eigenvalues, expected)) <= 1e-8


def test_solver_reads_the_matrix_in_place():
    # the 400 + 400 perfect matching: the solve's own arrays take about
    # 5 n^2 * 8 bytes, and a copy of the float64 matrix would add one more
    n = 800
    M = adjacency_matrix(build(400, 400, [(v, v) for v in range(400)]))
    tracemalloc.start()
    try:
        rep = symmetric_eigenvalues(M)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 5.5 * n * n * 8
    assert rep.eigenvalues == (1.0,) * 400 + (-1.0,) * 400
    assert not M.data.flags.writeable


def test_solver_p4_values():
    rep = symmetric_eigenvalues(adjacency_matrix(path_graph(4)))
    golden = (1.6180339887498949, 0.6180339887498949, -0.6180339887498949, -1.6180339887498949)
    assert rep.eigenvalues == pytest.approx(golden, abs=1e-8)


def test_solver_p20_lambda2():
    rep = symmetric_eigenvalues(adjacency_matrix(path_graph(20)))
    assert rep.eigenvalues[1] == pytest.approx(2 * math.cos(2 * math.pi / 21), abs=1e-8)


def test_solver_matches_lapack_on_random_graphs():
    rng = random.Random(11)
    for _ in range(20):
        g = _random_connected(rng)
        for builder in (adjacency_matrix, laplacian_matrix):
            M = builder(g)
            rep = symmetric_eigenvalues(M)
            ref = np.linalg.eigvalsh(M.data)[::-1]
            assert max(abs(a - b) for a, b in zip(rep.eigenvalues, ref)) <= 1e-8


def test_solver_descending_and_traces():
    rng = random.Random(4)
    for _ in range(10):
        g = _random_connected(rng)
        lam = symmetric_eigenvalues(adjacency_matrix(g)).eigenvalues
        assert all(lam[i] >= lam[i + 1] for i in range(len(lam) - 1))
        assert abs(sum(lam)) <= 1e-8
        assert abs(sum(x * x for x in lam) - 2 * g.m) <= 1e-6
        mu = symmetric_eigenvalues(laplacian_matrix(g)).eigenvalues
        assert abs(sum(mu) - 2 * g.m) <= 1e-6
        assert mu[-1] >= -1e-8
        assert abs(mu[-1]) <= 1e-8


def _assert_matches_lapack(M: SymmetricMatrix) -> None:
    rep = symmetric_eigenvalues(M)
    ref = np.linalg.eigvalsh(M.data)[::-1]
    assert len(rep.eigenvalues) == M.order
    assert max(abs(a - b) for a, b in zip(rep.eigenvalues, ref)) <= 1e-10
    assert list(rep.eigenvalues) == sorted(rep.eigenvalues, reverse=True)
    assert rep.residual <= 1e-8


def test_solver_shifted_path_on_custom_matrices():
    # no split point leaves both diagonal blocks zero: negative and nonzero
    # diagonals, dense and sparse, indefinite and definite
    rng = np.random.default_rng(5)
    for n in (2, 3, 5, 8, 13):
        X = rng.normal(size=(n, n))
        _assert_matches_lapack(SymmetricMatrix(X + X.T))
        D = np.diag(rng.uniform(-6.0, -1.0, size=n))
        _assert_matches_lapack(SymmetricMatrix(D + (X + X.T) / 4))
    _assert_matches_lapack(SymmetricMatrix(np.diag([-3.0, 2.0, 0.0, 7.5])))
    _assert_matches_lapack(SymmetricMatrix(np.array([[0.0, 1.0], [1.0, -2.0]])))
    _assert_matches_lapack(SymmetricMatrix(np.array([[0.0, 0.0], [0.0, 5.0]])))


def test_solver_rank_deficient_and_disconnected_graphs():
    graphs = [
        complete_bipartite(1, 9),  # star
        complete_bipartite(9, 1),
        complete_bipartite(3, 7),
        complete_bipartite(6, 6),
        random_tree(17, "balanced", 3),
        random_tree(16, "unbalanced", 1),
        build(4, 6, [(0, 0), (1, 1), (1, 2)]),  # isolated vertices on both sides
        build(5, 3, [(0, 0), (0, 1), (3, 2), (4, 2)]),  # two components
        build(3, 5, []),  # no edges at all
    ]
    for g in graphs:
        for builder in (adjacency_matrix, laplacian_matrix, signless_laplacian_matrix):
            _assert_matches_lapack(builder(g))
    zero = symmetric_eigenvalues(SymmetricMatrix(np.zeros((2, 2))))
    assert zero.eigenvalues == (0.0, 0.0)
    assert zero.residual == 0.0


def test_solver_both_orientations_and_order_one():
    rng = random.Random(6)
    for n1, n2 in ((3, 11), (11, 3), (7, 8), (8, 7)):
        edges = {(u, v) for u in range(n1) for v in range(n2) if rng.random() < 0.4}
        g = build(n1, n2, edges | {(0, 0)})
        rep = symmetric_eigenvalues(adjacency_matrix(g))
        _assert_matches_lapack(adjacency_matrix(g))
        # +-sigma pairs plus |n1 - n2| zeros, in that order
        zeros = rep.eigenvalues[min(n1, n2) : max(n1, n2)]
        assert zeros == (0.0,) * abs(n1 - n2)
    one = symmetric_eigenvalues(SymmetricMatrix(np.array([[-2.5]])))
    assert one.eigenvalues == (-2.5,)
    assert one.residual == 0.0


def test_solver_matches_lapack_at_n120():
    rng = random.Random(120)
    g = random_tree(120, "balanced", 12)
    edges = set(edge_pairs(g)) | {(rng.randrange(g.n1), rng.randrange(g.n2)) for _ in range(120)}
    g = build(g.n1, g.n2, edges)
    _assert_matches_lapack(adjacency_matrix(g))
    _assert_matches_lapack(laplacian_matrix(g))


# ------------------------------------------------------------------ oracles
#
# The one-sided Jacobi kernel as it was before it stopped accumulating V:
# the rotations of each step were applied to the stacked rows [w_j | v_j].
# The W half of that update is the arithmetic the kernel still performs, so
# every singular value, eigenvalue and sweep count must come out equal.


def _oracle_round_robin(k: int) -> list[tuple[np.ndarray, np.ndarray]]:
    players = np.arange(k + k % 2)
    half = len(players) // 2
    steps = []
    for _ in range(len(players) - 1):
        p, q = players[:half], players[::-1][:half]
        real = (p < k) & (q < k)
        steps.append((p[real], q[real]))
        players = np.concatenate((players[:1], players[-1:], players[1:-1]))
    return steps


def _oracle_jacobi(G: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """Returns W^T, V^T and the sweep count."""
    m, k = G.shape
    Y = np.hstack((G.T, np.eye(k)))
    eps = np.finfo(float).eps
    tol = math.sqrt(m) * eps
    floor = (eps * float(np.linalg.norm(G, "fro"))) ** 2
    steps = _oracle_round_robin(k)
    for sweep in range(1, spectra.JACOBI_MAX_SWEEPS + 1):
        rotated = False
        for p, q in steps:
            Yp, Yq = Y[p], Y[q]
            Wp, Wq = Yp[:, :m], Yq[:, :m]
            a = np.einsum("ij,ij->i", Wp, Wp)
            b = np.einsum("ij,ij->i", Wq, Wq)
            c = np.einsum("ij,ij->i", Wp, Wq)
            rot = np.abs(c) > np.maximum(tol * np.sqrt(a * b), floor)
            if not rot.any():
                continue
            if not rot.all():
                p, q, Yp, Yq, a, b, c = p[rot], q[rot], Yp[rot], Yq[rot], a[rot], b[rot], c[rot]
            rotated = True
            zeta = (b - a) / (2.0 * c)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = (cs * t)[:, None]
            cs = cs[:, None]
            Y[p] = cs * Yp - sn * Yq
            Y[q] = sn * Yp + cs * Yq
        if not rotated:
            return Y[:, :m], Y[:, m:], sweep
    raise AssertionError("oracle did not converge")


def _oracle_corpus() -> list[SymmetricMatrix]:
    rng = random.Random(2024)
    graphs = []
    for _ in range(24):
        n1, n2, p = rng.randint(1, 25), rng.randint(1, 25), rng.choice((0.1, 0.3, 0.6, 0.9))
        edges = {(u, v) for u in range(n1) for v in range(n2) if rng.random() < p}
        graphs.append(build(n1, n2, edges))
    for mode in ("balanced", "unbalanced"):
        graphs += [random_tree(n, mode, n) for n in (2, 9, 24, 37)]
    graphs += [complete_bipartite(m, n) for m, n in ((1, 1), (1, 12), (5, 5), (9, 4), (3, 20))]
    # disconnected: components side by side, isolated vertices, no edges at all
    graphs += [
        build(9, 8, [(u, v) for u in range(4) for v in range(3)]
              + [(u, v) for u in range(5, 9) for v in range(4, 8)]),
        build(12, 10, [(u, u % 10) for u in range(0, 12, 3)]),
        build(6, 7, []),
    ]
    matrices = [
        builder(g)
        for g in graphs
        for builder in (adjacency_matrix, laplacian_matrix, signless_laplacian_matrix)
    ]
    nrng = np.random.default_rng(2024)
    for n in (1, 2, 3, 6, 11, 19, 30):
        X = nrng.integers(-9, 10, size=(n, n)).astype(float)
        Y = X[: n // 2 + 1]
        matrices.append(SymmetricMatrix((X + X.T) / 7.0))  # indefinite
        matrices.append(SymmetricMatrix((X @ X.T) * 0.125))  # PSD
        matrices.append(SymmetricMatrix((Y.T @ Y) / 3.0))  # PSD, rank deficient
    return matrices


def test_kernel_matches_v_accumulating_oracle_on_w():
    rng = np.random.default_rng(7)
    for m, k in ((1, 1), (5, 1), (6, 4), (9, 9), (25, 17), (40, 40)):
        G = rng.integers(-4, 5, size=(m, k)).astype(float) * 0.75
        Wt, sweeps = spectra._one_sided_jacobi(G)
        oracle_Wt, oracle_Vt, oracle_sweeps = _oracle_jacobi(G)
        assert sweeps == oracle_sweeps
        assert np.array_equal(Wt, oracle_Wt)
        assert np.allclose(G @ oracle_Vt.T, oracle_Wt.T)


@st.composite
def _kernel_inputs(draw):
    """1-24 rows and 1-24 columns of entries -4..4 times 0.75, each column
    fresh, zero or a repeat of an earlier one: a zero column's pairs stay
    idle while the others rotate, so steps rotate only some of their pairs."""
    m = draw(st.integers(1, 24))
    columns: list[list[int]] = []
    for _ in range(draw(st.integers(1, 24))):
        kind = draw(st.sampled_from(("fresh", "fresh", "zero", "repeat")))
        if kind == "zero":
            columns.append([0] * m)
        elif kind == "repeat" and columns:
            columns.append(draw(st.sampled_from(columns)))
        else:
            columns.append(draw(st.lists(st.integers(-4, 4), min_size=m, max_size=m)))
    return np.array(columns, dtype=float).T * 0.75


@settings(max_examples=300, deadline=None)
@given(_kernel_inputs())
def test_kernel_matches_v_accumulating_oracle_on_drawn_matrices(G):
    Wt, sweeps = spectra._one_sided_jacobi(G)
    oracle_Wt, _, oracle_sweeps = _oracle_jacobi(G)
    assert sweeps == oracle_sweeps
    assert np.array_equal(Wt, oracle_Wt)


def test_kernel_takes_no_blas_norm(monkeypatch):
    # ||G||_F sets the rotation floor, so it is summed by einsum: BLAS's
    # ddot may sum in another order and move the floor by an ulp
    G = np.random.default_rng(3).integers(-4, 5, size=(14, 11)).astype(float)
    G[:, 4] = 0.0
    G[:, 7] = G[:, 2]
    oracle_Wt, _, oracle_sweeps = _oracle_jacobi(G)

    def refuse(*args, **kwargs):
        raise AssertionError("numpy.linalg.norm called")

    monkeypatch.setattr(np.linalg, "norm", refuse)
    Wt, sweeps = spectra._one_sided_jacobi(G)
    assert sweeps == oracle_sweeps
    assert np.array_equal(Wt, oracle_Wt)


def test_kernel_never_mutates_the_cached_steps():
    before = [pq.copy() for pq, _ in spectra._round_robin(9)]
    spectra._one_sided_jacobi(np.random.default_rng(1).normal(size=(12, 9)))
    steps = spectra._round_robin(9)
    assert steps is spectra._round_robin(9)
    for (pq, _), b in zip(steps, before):
        assert np.array_equal(pq, b)
        assert not pq.flags.writeable
    pairs = {tuple(sorted((int(pq[i]), int(pq[h + i])))) for pq, h in steps for i in range(h)}
    assert pairs == {(i, j) for i in range(9) for j in range(i + 1, 9)}


def test_eigenvalues_and_sweeps_match_v_accumulating_oracle(monkeypatch):
    corpus = _oracle_corpus()
    new = [symmetric_eigenvalues(M) for M in corpus]
    monkeypatch.setattr(spectra, "_one_sided_jacobi", lambda G: _oracle_jacobi(G)[::2])
    old = [symmetric_eigenvalues(M) for M in corpus]
    for a, b in zip(new, old):
        assert a.eigenvalues == b.eigenvalues
        assert a.iterations == b.iterations


# ---------------------------------------------- certificate on the shifted route


def _loop_bipartite_split(A: np.ndarray) -> int | None:
    """The block-by-block split search the solver ran before it read the
    nonzeros."""
    for p in range(1, A.shape[0]):
        if A[:p, :p].any():
            return None  # the leading block only grows with p
        if not A[p:, p:].any():
            return p
    return None


@st.composite
def _symmetric_01(draw) -> np.ndarray:
    """A symmetric 0/1 matrix of order 1-8: random, or with both diagonal
    blocks of a drawn split cleared, then with or without diagonal entries,
    and with some rows (and their columns) zeroed."""
    n = draw(st.integers(1, 8))
    bits = st.lists(st.booleans(), min_size=n, max_size=n)
    A = np.triu(np.array(draw(st.lists(bits, min_size=n, max_size=n)), dtype=float), 1)
    if draw(st.booleans()):
        p = draw(st.integers(1, n))
        A[:p, :p] = A[p:, p:] = 0.0
    A += A.T
    if draw(st.booleans()):
        A[np.diag_indices(n)] = draw(bits)
    for r in draw(st.sets(st.integers(0, n - 1), max_size=2)):
        A[r, :] = A[:, r] = 0.0
    return A


@settings(max_examples=500, deadline=None)
@given(_symmetric_01())
def test_bipartite_split_matches_the_block_loop(A):
    assert spectra._bipartite_split(A) == _loop_bipartite_split(A)


def _assert_certified(M: SymmetricMatrix) -> None:
    rep = symmetric_eigenvalues(M)
    ref = np.linalg.eigvalsh(M.data)[::-1]
    assert max(abs(a - b) for a, b in zip(rep.eigenvalues, ref)) <= 1e-10
    assert rep.residual <= 1e-8


def test_certificate_three_components_on_shifted_route():
    edges = [(0, 0), (1, 0), (1, 1), (2, 2), (3, 2), (3, 3), (4, 3), (5, 4), (6, 5), (5, 5)]
    g = build(7, 6, edges)
    assert spectra._bipartite_split(laplacian_matrix(g).data) is None
    for builder in (laplacian_matrix, signless_laplacian_matrix):
        M = builder(g)
        _assert_certified(M)
        assert sum(abs(x) <= 1e-10 for x in symmetric_eigenvalues(M).eigenvalues) == 3


def test_certificate_zero_matrix_is_exactly_zero():
    for n in (1, 2, 5):
        rep = symmetric_eigenvalues(SymmetricMatrix(np.zeros((n, n))))
        assert rep.eigenvalues == (0.0,) * n
        assert rep.residual == 0.0


def _weak_link_laplacian(weight: float) -> np.ndarray:
    """Weighted Laplacian of two integer-weighted blocks joined by one weak
    edge: PSD with Gershgorin bound 0, so the shifted route solves it
    unshifted, and its second-smallest eigenvalue is about weight * 0.3."""
    n = 9
    W = np.zeros((n, n))
    rng = random.Random(9)
    for block in (range(0, 4), range(4, n)):
        for i in block:
            for j in block:
                if i < j:
                    W[i, j] = W[j, i] = rng.randint(1, 6)
    W[3, 4] = W[4, 3] = weight
    return np.diag(W.sum(axis=1)) - W


@pytest.mark.parametrize("split", ["sqrt-eps", "route"])
@pytest.mark.parametrize("side", [0.9, 1.1])
def test_certificate_eigenvalue_at_the_split(split, side):
    eps = np.finfo(float).eps
    scale = math.sqrt(eps) if split == "sqrt-eps" else eps ** (2 / 3)
    probe = 2.0**-20
    slope = np.linalg.eigvalsh(_weak_link_laplacian(probe))[1] / probe
    target = side * scale * np.linalg.norm(_weak_link_laplacian(0.0), "fro")
    # a multiple of 2^-60 keeps every row sum of the Laplacian exact
    L = _weak_link_laplacian(round(target / slope * 2.0**60) * 2.0**-60)
    mu2 = np.linalg.eigvalsh(L)[1]
    ratio = mu2 / (scale * np.linalg.norm(L, "fro"))
    assert ratio == pytest.approx(side, rel=0.02)
    _assert_certified(SymmetricMatrix(L))


_BAND = pytest.mark.xfail(
    strict=True,
    raises=spectra.ConvergenceError,
    reason="ROADMAP item 5: a singular value of B in about (0.4, 1) sqrt(eps) ||B||_F fails the 1e-8 gate",
)


@pytest.mark.parametrize(
    "f", [0.3, pytest.param(0.5, marks=_BAND), pytest.param(0.7, marks=_BAND), pytest.param(0.9, marks=_BAND), 1.1]
)
def test_certificate_band_on_the_bipartite_route(f):
    # B = U diag(3, 2, 1, sigma) V^T with sigma = f sqrt(eps) ||(3, 2, 1)||:
    # U is the first four columns of the 8 x 8 Sylvester Hadamard matrix
    # over sqrt(8), V its leading 4 x 4 block over 2, both exactly orthogonal
    H = np.array([[1.0]])
    for _ in range(3):
        H = np.block([[H, H], [H, -H]])
    sigma = f * math.sqrt(np.finfo(float).eps) * math.sqrt(14)
    U, V = H[:, :4] / math.sqrt(8), H[:4, :4] / 2
    B = U @ np.diag([3.0, 2.0, 1.0, sigma]) @ V.T
    A = np.block([[np.zeros((8, 8)), B], [B.T, np.zeros((4, 4))]])
    assert spectra._bipartite_split(A) == 8
    rep = symmetric_eigenvalues(SymmetricMatrix(A))
    assert np.allclose(rep.eigenvalues, np.linalg.eigvalsh(A)[::-1], rtol=0, atol=1e-8)
    assert rep.residual <= 1e-8


# ------------------------------------ norm-ordered QR before the shifted route


def test_qr_preconditioning_cuts_the_sweeps_on_a_tree():
    # 16 sweeps on the Laplacian itself
    rep = symmetric_eigenvalues(laplacian_matrix(random_tree(200, "balanced", 7)))
    assert rep.iterations <= 12


def _random_bipartite(n: int, p: float, seed: int):
    rng = random.Random(seed)
    n1 = n // 2
    return build(n1, n - n1, {(u, v) for u in range(n1) for v in range(n - n1) if rng.random() < p})


@pytest.mark.parametrize("n", [60, 120, 200])
def test_laplacian_certified_at_desk_sizes(n):
    for g in (random_tree(n, "balanced", n), random_tree(n, "unbalanced", n), _random_bipartite(n, 0.2, n)):
        _assert_certified(laplacian_matrix(g))


@st.composite
def _block_graphs(draw):
    """Up to three blocks side by side, each with its own edges drawn, and up
    to two isolated vertices on each side: several components and isolated
    vertices (an empty block is isolated vertices too) are drawn often."""
    n1 = n2 = 0
    edges = []
    for _ in range(draw(st.integers(1, 3))):
        a, b = draw(st.integers(1, 5)), draw(st.integers(1, 5))
        pairs = [(n1 + u, n2 + v) for u in range(a) for v in range(b)]
        edges += draw(st.lists(st.sampled_from(pairs), unique=True))
        n1, n2 = n1 + a, n2 + b
    return build(n1 + draw(st.integers(0, 2)), n2 + draw(st.integers(0, 2)), edges)


@settings(max_examples=300, deadline=None)
@given(_block_graphs())
def test_laplacian_and_signless_laplacian_spectra_are_bit_identical(g):
    # Q = S L S with S = diag(+-1): the same spectrum, and the solve keeps
    # it to the last bit only while each pivot sign comes from the diagonal
    lap = symmetric_eigenvalues(laplacian_matrix(g))
    signless = symmetric_eigenvalues(signless_laplacian_matrix(g))
    assert lap.eigenvalues == signless.eigenvalues


def test_householder_skips_zero_columns():
    # left vertices 3, 4 and right vertex 2 are isolated: their zero columns
    # come last in the norm order, and the reflectors of the first two of
    # them are skipped
    g = build(5, 3, [(0, 0), (1, 0), (1, 1), (2, 1)])
    G = laplacian_matrix(g).data
    perm = np.argsort(-np.einsum("ij,ij->j", G, G), kind="stable")
    A = G[np.ix_(perm, perm)]
    R = spectra._householder_r(A.copy())
    assert np.array_equal(np.tril(R, -1), np.zeros_like(R))
    assert not R[-3:].any()
    assert np.allclose(R.T @ R, A.T @ A, atol=1e-12)
    for builder in (laplacian_matrix, signless_laplacian_matrix):
        _assert_certified(builder(g))


def test_k11_and_a_shifted_custom_matrix_certified():
    # K_{1,1} takes one reflector; the custom matrix's Gershgorin shift is -6.5
    A = np.array([[4.0, 1.0, -2.0, 0.0], [1.0, -3.0, 0.5, 2.0], [-2.0, 0.5, 1.0, -1.0], [0.0, 2.0, -1.0, 0.25]])
    diag = np.diag(A)
    assert np.min(diag - (np.abs(A).sum(axis=1) - np.abs(diag))) == -6.5
    k11 = complete_bipartite(1, 1)
    for M in (laplacian_matrix(k11), signless_laplacian_matrix(k11), SymmetricMatrix(A)):
        _assert_certified(M)


def test_eigenvalue_clusters():
    rep = symmetric_eigenvalues(adjacency_matrix(complete_bipartite(4, 4)))
    clusters = eigenvalue_clusters(rep.eigenvalues)
    assert [count for _, count in clusters] == [1, 6, 1]


# --- quotient matrices ---


def test_quotient_k84():
    q = bipartite_quotient(complete_bipartite(8, 4), "adjacency")
    assert q.eta1 == 32 / math.sqrt(32)
    assert q.eta2 == -q.eta1
    assert (q.b11, q.b12, q.b21, q.b22) == (0.0, 4.0, 8.0, 0.0)


def test_quotient_p4_both_flavors():
    g = path_graph(4)
    qa = bipartite_quotient(g, "adjacency")
    assert (qa.eta1, qa.eta2) == (1.5, -1.5)
    ql = bipartite_quotient(g, "laplacian")
    assert (ql.eta1, ql.eta2) == (3.0, 0.0)


def test_quotient_invariants():
    rng = random.Random(8)
    for _ in range(25):
        g = _random_connected(rng)
        q = bipartite_quotient(g, "adjacency")
        assert q.eta1 + q.eta2 == 0.0
        assert q.eta1 * q.eta2 == pytest.approx(-(g.m**2) / (g.n1 * g.n2), rel=1e-12)
        ql = bipartite_quotient(g, "laplacian")
        assert ql.eta1 + ql.eta2 == g.m * g.n / (g.n1 * g.n2)


def test_quotient_degenerate_empty():
    # a graph without edges takes the m = 0 path
    empty = build(2, 2, [])
    for flavor in ("adjacency", "laplacian"):
        q = bipartite_quotient(empty, flavor)
        assert q.as_array().tolist() == [[0.0, 0.0], [0.0, 0.0]]
        assert (q.eta1, q.eta2, q.flavor) == (0.0, 0.0, flavor)


# --- lifted spectrum ---


def test_lifted_k84():
    rep = lifted_matrix_spectrum(complete_bipartite(8, 4), "adjacency")
    s = 32 / math.sqrt(32)
    assert rep.eigenvalues[0] == pytest.approx(s, abs=1e-12)
    assert rep.eigenvalues[-1] == pytest.approx(-s, abs=1e-12)
    assert all(x == 0.0 for x in rep.eigenvalues[1:-1])
    assert rep.residual <= 1e-8


def test_lifted_rank_at_most_two():
    rng = random.Random(17)
    for _ in range(10):
        g = _random_connected(rng)
        q = bipartite_quotient(g, "adjacency")
        S = np.zeros((g.n, 2))
        S[: g.n1, 0] = 1 / math.sqrt(g.n1)
        S[g.n1 :, 1] = 1 / math.sqrt(g.n2)
        C = S @ q.as_array() @ S.T
        assert np.linalg.matrix_rank(C) <= 2


def test_lifted_p20_feeds_counterexample():
    g = path_graph(20)
    lifted = lifted_matrix_spectrum(g, "adjacency")
    lam2 = symmetric_eigenvalues(adjacency_matrix(g)).eigenvalues[1]
    assert lifted.eigenvalues[0] == pytest.approx(1.9, abs=1e-12)
    assert lam2 > lifted.eigenvalues[0]


def test_lifted_laplacian_shape():
    g = path_graph(5)
    rep = lifted_matrix_spectrum(g, "laplacian")
    theta1 = g.m * g.n / (g.n1 * g.n2)
    assert rep.eigenvalues[0] == pytest.approx(theta1, abs=1e-12)
    assert all(x == 0.0 for x in rep.eigenvalues[1:])
    assert rep.residual <= 1e-8


def test_lifted_empty_graph_is_all_zero():
    for flavor in ("adjacency", "laplacian"):
        rep = lifted_matrix_spectrum(build(2, 3, []), flavor)
        assert rep.eigenvalues == (0.0,) * 5 and rep.residual == 0.0


# --- interlacing ---


def test_interlacing_p4_both_hold():
    g = path_graph(4)
    rep = interlacing_check(
        symmetric_eigenvalues(adjacency_matrix(g)), bipartite_quotient(g, "adjacency")
    )
    assert rep.valid_form_holds
    assert rep.claimed_chain_holds
    assert rep.witnesses == ()


def test_interlacing_p20_chain_fails():
    g = path_graph(20)
    rep = interlacing_check(
        symmetric_eigenvalues(adjacency_matrix(g)), bipartite_quotient(g, "adjacency")
    )
    assert rep.valid_form_holds
    assert not rep.claimed_chain_holds
    assert any("eta_1" in w for w in rep.witnesses)


def test_interlacing_k84_both_hold():
    g = complete_bipartite(8, 4)
    rep = interlacing_check(
        symmetric_eigenvalues(adjacency_matrix(g)), bipartite_quotient(g, "adjacency")
    )
    assert rep.valid_form_holds
    assert rep.claimed_chain_holds


def test_interlacing_valid_form_on_random_graphs():
    rng = random.Random(23)
    for _ in range(40):
        g = _random_connected(rng)
        for flavor, matrix in (("adjacency", adjacency_matrix), ("laplacian", laplacian_matrix)):
            rep = interlacing_check(
                symmetric_eigenvalues(matrix(g)), bipartite_quotient(g, flavor)
            )
            assert rep.valid_form_holds, (flavor, edge_pairs(g))


def test_interlacing_chain_fails_exactly_when_an_inner_bound_fails():
    # the chain's inner inequalities are T1.iii and T1.iv (adjacency) and
    # T5.ii (Laplacian), bounds with no preconditions, so a failed chain
    # never changes a command's exit status on its own
    rng = random.Random(20260201)  # the 200 graphs of acceptance criterion C2
    graphs = [_random_connected(rng) for _ in range(200)]
    graphs += [path_graph(n) for n in range(2, 41)]
    graphs += [
        random_tree(n, mode, seed)
        for n in range(4, 30, 3)
        for mode in ("balanced", "unbalanced")
        for seed in range(3)
    ]
    chain_failures = 0
    for g in graphs:
        adj = symmetric_eigenvalues(adjacency_matrix(g))
        lap = symmetric_eigenvalues(laplacian_matrix(g))
        reports = {r.bound_id: r for r in bound_suite(g, adj, lap)}
        assert all(reports[b].preconditions_met for b in ("T1.iii", "T1.iv", "T5.ii"))
        adj_chain = interlacing_check(adj, bipartite_quotient(g, "adjacency")).claimed_chain_holds
        lap_chain = interlacing_check(lap, bipartite_quotient(g, "laplacian")).claimed_chain_holds
        assert adj_chain == (reports["T1.iii"].holds and reports["T1.iv"].holds), edge_pairs(g)
        assert lap_chain == reports["T5.ii"].holds, edge_pairs(g)
        chain_failures += not (adj_chain and lap_chain)
    assert chain_failures > 50


# --- bipartite symmetry and L vs Q ---


def test_bipartite_spectrum_symmetric_and_lap_equals_signless():
    rng = random.Random(31)
    for _ in range(15):
        g = _random_connected(rng)
        lam = symmetric_eigenvalues(adjacency_matrix(g)).eigenvalues
        n = len(lam)
        assert max(abs(lam[i] + lam[n - 1 - i]) for i in range(n)) <= 1e-8
        mu = symmetric_eigenvalues(laplacian_matrix(g)).eigenvalues
        nu = symmetric_eigenvalues(signless_laplacian_matrix(g)).eigenvalues
        assert max(abs(a - b) for a, b in zip(mu, nu)) <= 1e-8


# --- bound suite ---


def _suite(g) -> list[BoundReport]:
    """bound_suite on g with both of its spectra solved, as `bounds` calls it."""
    adjacency = symmetric_eigenvalues(adjacency_matrix(g))
    return bound_suite(g, adjacency, symmetric_eigenvalues(laplacian_matrix(g)))


def _by_id(reports: list[BoundReport]) -> dict[str, BoundReport]:
    return {r.bound_id: r for r in reports}


def test_bound_suite_p4():
    reports = _by_id(_suite(path_graph(4)))
    t1 = reports["T1.iii"]
    assert t1.bound == pytest.approx(1.5, abs=1e-12)
    assert t1.observed == pytest.approx(0.6180339887498949, abs=1e-8)
    assert t1.holds
    assert all(r.holds for r in reports.values())


def test_bound_suite_p20_violations():
    reports = _by_id(_suite(path_graph(20)))
    t1 = reports["T1.iii"]
    assert not t1.holds
    assert t1.bound == pytest.approx(1.9, abs=1e-6)
    assert t1.observed == pytest.approx(2 * math.cos(2 * math.pi / 21), abs=1e-6)
    t5 = reports["T5.ii"]
    assert not t5.holds
    assert t5.bound == pytest.approx(3.8, abs=1e-6)
    assert t5.observed == pytest.approx(2 - 2 * math.cos(18 * math.pi / 20), abs=1e-6)
    assert not reports["T2-tree"].holds
    assert not reports["T9-tree"].holds


def test_bound_suite_tree_bound_value_odd_n():
    g = random_tree(9, "balanced", 2)
    reports = _by_id(_suite(g))
    assert reports["T2-tree"].bound == pytest.approx(2 * 8 / math.sqrt(80), abs=1e-12)
    assert reports["T2-tree"].holds


def test_bound_suite_preconditions():
    reports = _by_id(_suite(path_graph(4)))
    assert not reports["Cor-regular-adj"].preconditions_met
    assert "regular" in reports["Cor-regular-adj"].notes
    assert reports["T2-tree"].preconditions_met

    k33 = complete_bipartite(3, 3)
    reports = _by_id(_suite(k33))
    assert reports["Cor-regular-adj"].preconditions_met
    assert reports["Note-complete-lap"].preconditions_met
    # complete bipartite: mu_2 <= n with m = n1*n2
    assert reports["Note-complete-lap"].holds


def test_bound_suite_disconnected_flagged():
    g = build(2, 2, [(0, 0), (1, 1)])
    reports = _by_id(_suite(g))
    assert "disconnected" in reports["T1.iii"].notes
    assert not reports["T2-tree"].preconditions_met


def test_bound_suite_rejects_empty():
    with pytest.raises(ValueError, match="nonempty"):
        _suite(build(2, 2, []))


def _findings(tmp_path, command: str, g) -> list[dict]:
    """The findings of the CLI's `command` on g, read from its --json report."""
    graph, out = tmp_path / "g.bip", tmp_path / "report.json"
    graph.write_text(write_edge_list(g), encoding="utf-8")
    assert run([command, "--graph", str(graph), "--json", str(out)]) == 0
    return json.loads(out.read_text(encoding="utf-8"))["findings"]


def test_bound_report_schema(tmp_path):
    bounds = [f for f in _findings(tmp_path, "bounds", path_graph(4)) if f["type"] == "bound"]
    assert len(bounds) == 8
    for rep in bounds:
        assert set(rep) - {"type"} == {"bound_id", "bound", "observed", "holds", "preconditions_met", "notes"}


def test_spectrum_report_schema(tmp_path):
    [rep] = _findings(tmp_path, "spectrum", path_graph(4))
    assert rep["type"] == "spectrum"
    assert set(rep) - {"type"} == {"kind", "eigenvalues", "residual"}
