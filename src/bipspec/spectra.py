"""Dense symmetric eigensolving and bipartite quotient-matrix reports.

One eigen-kernel serves every spectrum: one-sided (Hestenes) Jacobi, which
rotates pairs of columns of a matrix G until they are orthogonal, W = G V.
Only W is kept: V is never formed, and the eigenvectors are recovered from
W after convergence (Drmac and Veselic 2008).  The column pairs are visited
in the round-robin parallel ordering of Brent and Luk (1985); each step
gathers its rows of W^T as one (2, h, rows) block, takes the Gram entries
in one einsum and all the rotations in another, and scatters them back.
A pair is left alone once |w_p . w_q| <= sqrt(rows) eps ||w_p||
||w_q|| or <= (eps ||G||_F)^2, and sweeps stop when none rotates (at most
100).  Demmel and Veselic (1992) analyse the accuracy of the method.
symmetric_eigenvalues picks the matrix G from M's data:

- If some split point leaves both diagonal blocks of M zero (every
  adjacency matrix of a bipartite graph), G is the off-diagonal block B,
  transposed so the shorter side gives the columns.  The spectrum is
  +-sigma_j(B) plus |n1 - n2| zeros, with eigenvectors (u_j, +-v_j)/sqrt(2)
  for u_j = w_j/sigma_j and v_j = G^T u_j/sigma_j.
- Otherwise M is shifted by its Gershgorin lower bound to a positive
  semidefinite matrix, whose singular values are its eigenvalues (the
  shift is 0 for Laplacians).  That matrix is permuted symmetrically to
  put its columns in decreasing norm, and G is R^T for the permuted
  matrix's Householder QR, which converges in about a quarter fewer sweeps
  (Drmac and Veselic 2008).  The eigenvectors are w_j/sigma_j with their
  rows permuted back.

Every returned spectrum carries a residual certified against the full
matrix, at most 1e-8 relative to max(1, ||M||_F), by one certificate on
both routes: eigenpair residuals for the eigenvectors recovered from W, and
a collective bound for the eigenvalues too small to recover them.  No
LAPACK-style solver is used on this path; the QR, the rotations and the
||G||_F that sets the floor and the splits use einsum and ufuncs only.

Quotient matrices of the bipartition are 2x2 with closed-form eigenvalues;
the lifted n x n counterparts are materialized explicitly and verified
numerically.  The bound suite turns each second-eigenvalue inequality into a
checkable report: bounds whose preconditions fail are still evaluated, only
flagged, because the point of the reports is observation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .bigraph import BipartiteGraph, check_dense

JACOBI_MAX_SWEEPS = 100
RESIDUAL_GATE = 1e-8
REPORT_TOL = 1e-9

QUOTIENT_FLAVORS = ("adjacency", "laplacian")


class ConvergenceError(RuntimeError):
    """Raised when Jacobi sweeps do not converge or a residual fails its gate."""


@dataclass(frozen=True, eq=False)
class SymmetricMatrix:
    """Square real matrix, exactly symmetric by construction."""

    data: np.ndarray

    def __post_init__(self) -> None:
        # a private read-only copy: the caller's array stays writeable, and
        # writing to it later cannot change this matrix
        d = np.array(self.data)
        if d.ndim != 2 or d.shape[0] != d.shape[1]:
            raise ValueError(f"expected a square matrix, got shape {d.shape}")
        if not np.array_equal(d, d.T):
            raise ValueError("matrix is not exactly symmetric")
        d.setflags(write=False)
        object.__setattr__(self, "data", d)

    @property
    def order(self) -> int:
        return self.data.shape[0]


def adjacency_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    """Block matrix [[0, B], [B^T, 0]] with left vertices indexed first."""
    check_dense(g.n, g.n, "adjacency matrix")
    B = g.biadjacency()
    A = np.zeros((g.n, g.n))
    A[: g.n1, g.n1 :] = B
    A[g.n1 :, : g.n1] = B.T
    return SymmetricMatrix(A)


def laplacian_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    A = adjacency_matrix(g).data
    L = np.diag(A.sum(axis=1)) - A
    return SymmetricMatrix(L)


def signless_laplacian_matrix(g: BipartiteGraph) -> SymmetricMatrix:
    A = adjacency_matrix(g).data
    Q = np.diag(A.sum(axis=1)) + A
    return SymmetricMatrix(Q)


# each matrix kind of a graph, by its name; `spectrum --matrix` takes the name
MATRIX_BUILDERS = {
    "adjacency": adjacency_matrix,
    "laplacian": laplacian_matrix,
    "signless-laplacian": signless_laplacian_matrix,
}


class SpectrumReport(NamedTuple):
    """Full real spectrum, descending, with solver diagnostics.

    residual bounds, relative to max(1, ||M||_F), the eigenpair residuals
    ||M v - lambda v|| and the collective term of the eigenvalues certified
    without an eigenvector; it is certified to be at most 1e-8.  iterations,
    the sweep count, is left out of the CLI's `spectrum` finding.
    """

    eigenvalues: tuple[float, ...]
    residual: float
    iterations: int


@functools.lru_cache(maxsize=64)
def _round_robin(k: int) -> tuple[tuple[np.ndarray, int], ...]:
    """Brent-Luk round-robin ordering of the column pairs of k columns.

    Each step is a set of h disjoint pairs (pq[i], pq[h + i]); the k' - 1
    steps of a sweep (k' = k rounded up to even) meet every pair exactly
    once.  Player 0 stays put and the others rotate one place per step; with
    k odd, the player paired with the phantom k sits the step out.  The
    arrays are shared between calls, so they are read-only; an ordering
    takes about 8 k^2 bytes, so only the 64 most recent sizes are kept.
    """
    players = np.arange(k + k % 2)
    half = len(players) // 2
    steps = []
    for _ in range(len(players) - 1):
        p, q = players[:half], players[::-1][:half]
        real = (p < k) & (q < k)
        pq = np.concatenate((p[real], q[real]))
        pq.setflags(write=False)
        steps.append((pq, len(pq) // 2))
        players = np.concatenate((players[:1], players[-1:], players[1:-1]))
    return tuple(steps)


def _one_sided_jacobi(G: np.ndarray) -> tuple[np.ndarray, int]:
    """Orthogonalize the columns of G by Hestenes rotations: W = G V.

    Returns W^T (row j holds w_j) and the sweep count; V is never formed.
    A pair is rotated while |w_p . w_q| exceeds both sqrt(m) eps ||w_p||
    ||w_q|| (m rows) and the absolute floor (eps ||G||_F)^2; the floor stops
    the sweeps on rank-deficient G, whose null columns never become
    relatively orthogonal; ||G||_F is summed by einsum, not BLAS.  Each
    step gathers its rows as a (2, h, m) block, p over q; one einsum gives
    every pair's a, c and b, one more applies every rotation, each entry
    summed as the separate row products summed it (no fused multiply-add).
    """
    m, k = G.shape
    Y = G.T.copy()
    eps = np.finfo(float).eps
    tol = math.sqrt(m) * eps
    floor = (eps * math.sqrt(float(np.einsum("ij,ij->", G, G)))) ** 2
    steps = _round_robin(k)
    for sweep in range(1, JACOBI_MAX_SWEEPS + 1):
        rotated = False
        for pq, h in steps:
            Z = Y[pq].reshape(2, h, m)
            gram = np.einsum("aij,bij->abi", Z, Z)
            a, b, c = gram[0, 0], gram[1, 1], gram[0, 1]
            rot = np.abs(c) > np.maximum(tol * np.sqrt(a * b), floor)
            count = np.count_nonzero(rot)
            if count == 0:
                continue
            if count < h:
                pq = pq[np.concatenate((rot, rot))]
                Z, a, b, c = Z[:, rot], a[rot], b[rot], c[rot]
            rotated = True
            zeta = (b - a) / (2.0 * c)
            t = np.copysign(1.0, zeta) / (np.abs(zeta) + np.hypot(1.0, zeta))
            cs = 1.0 / np.sqrt(1.0 + t * t)
            sn = cs * t
            Y[pq] = np.einsum("abh,bhm->ahm", np.array(((cs, -sn), (sn, cs))), Z).reshape(-1, m)
        if not rotated:
            return Y, sweep
    raise ConvergenceError(f"one-sided Jacobi still rotating after {JACOBI_MAX_SWEEPS} sweeps")


def _bipartite_split(A: np.ndarray) -> int | None:
    """First p in 1..n-1 with A[:p, :p] and A[p:, p:] both zero, if any.

    The trailing block is zero once p exceeds min(i, j) at every nonzero
    (i, j), and the leading block while p stays at most max(i, j)."""
    i, j = np.nonzero(A)
    p = int(np.minimum(i, j).max(initial=0)) + 1
    return p if p < A.shape[0] and p <= np.maximum(i, j).min(initial=A.shape[0]) else None


def _certificate(M: np.ndarray, X: np.ndarray, vals: np.ndarray, rest: float) -> float:
    """Residual certified for a spectrum of the symmetric matrix M.

    The columns of X are eigenvector approximations with eigenvalues vals;
    each pair is certified by ||M x_j - vals_j x_j||.  Every other claimed
    eigenvalue, at most rest in absolute value, is certified collectively by
    ||M (I - X X^T)||_F + rest over the complement of X.
    """
    MX = M @ X
    pairs = np.linalg.norm(MX - X * vals[None, :], axis=0)
    others = float(np.linalg.norm(M - MX @ X.T, "fro")) + rest
    return max(float(pairs.max(initial=0.0)), others)


def _bipartite_spectrum(A: np.ndarray, p: int) -> tuple[np.ndarray, float, int]:
    """Spectrum of [[0, B], [B^T, 0]] from the singular values of B.

    Returns the descending eigenvalues, the certified residual and the
    sweep count.  B is transposed so its shorter side gives the columns of
    G; the eigenvalues are +-sigma_j plus |n1 - n2| zeros.  Each of the r
    pairs with sigma_j above sqrt(eps) ||G||_F is certified through its
    eigenvectors (u_j, +-v_j)/sqrt(2), where u_j = w_j/sigma_j and
    v_j = G^T u_j/sigma_j; the remaining (near-)zero eigenvalues are
    certified collectively (see _certificate).
    """
    n = A.shape[0]
    B = A[:p, p:]
    transposed = B.shape[1] > B.shape[0]
    G = B.T if transposed else B
    Wt, sweeps = _one_sided_jacobi(G)
    sigma = np.linalg.norm(Wt, axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma, Wt = sigma[order], Wt[order]
    k = len(sigma)
    # + 0.0 turns the -0.0 of an exact zero singular value into 0.0
    vals = np.concatenate((sigma, np.zeros(n - 2 * k), -sigma[::-1])) + 0.0

    big = sigma > math.sqrt(np.finfo(float).eps) * math.sqrt(float(np.einsum("ij,ij->", G, G)))
    r = int(big.sum())
    U = Wt[:r] / sigma[:r, None]
    V = (U @ G) / sigma[:r, None]
    left, right = (V, U) if transposed else (U, V)
    X = np.zeros((n, 2 * r))
    X[:p, :r] = X[:p, r:] = left.T
    X[p:, :r] = right.T
    X[p:, r:] = -right.T
    X /= math.sqrt(2.0)
    pair_vals = np.concatenate((sigma[:r], -sigma[:r]))
    return vals, _certificate(A, X, pair_vals, float(sigma[r:].max(initial=0.0))), sweeps


def _householder_r(R: np.ndarray) -> np.ndarray:
    """Overwrite the square R with the R of its Householder QR and return it.

    Q is never formed.  Column k is reflected onto -copysign(||x||, x_0) e_0,
    where x is its part on and below the diagonal; a zero x is skipped.
    Only einsum and ufuncs are used, so no BLAS kernel decides a bit of R.
    """
    n = R.shape[0]
    for k in range(n - 1):
        x = R[k:, k]
        norm = math.sqrt(float(np.einsum("i,i->", x, x)))
        if norm == 0.0:
            continue
        alpha = -math.copysign(norm, x[0])
        v = x.copy()
        v[0] -= alpha
        # v.v = 2 norm (norm + |x_0|), so I - v v^T / (norm (norm + |x_0|))
        beta = 1.0 / (norm * (norm + abs(x[0])))
        w = np.einsum("i,ij->j", v, R[k:, k + 1 :]) * beta
        R[k:, k + 1 :] -= np.multiply.outer(v, w)
        R[k, k] = alpha
        R[k + 1 :, k] = 0.0
    return R


def _shifted_spectrum(A: np.ndarray) -> tuple[np.ndarray, float, int]:
    """Spectrum of a general symmetric A, made PSD by a Gershgorin shift.

    G = A - s I with s the Gershgorin lower bound is positive semidefinite,
    so its singular values sigma_j are its eigenvalues, and the eigenvalues
    of A are sigma_j + s.  G is preconditioned before the kernel runs
    (Drmac and Veselic 2008): one symmetric permutation P orders its
    columns by decreasing norm, with the rows permuted alike so each pivot
    starts on the diagonal, and the kernel rotates the columns of R^T for
    the Householder QR P^T G P = Q R, which needs about a quarter fewer
    sweeps than G itself.  From R^T = W V^T, P^T G P = (Q V) diag(sigma)
    U^T with U = W/sigma, and U holds the eigenvectors of P^T G P, so P U
    holds G's.  The pivot sign is taken from the diagonal, which a
    Laplacian and its signless twin S L S (S = diag(+-1), bipartite graph)
    share bit for bit, so their spectra come out equal.  Returns the
    descending eigenvalues, the certified residual and the sweep count.
    Each sigma_j above eps^(2/3) ||G||_F is certified against G through its
    column of P U, the rest collectively (see _certificate).  The
    collective term costs about twice the largest sigma_j it covers, so the
    split must sit well under the 1e-8 gate, which the bipartite route's
    sqrt(eps) ~ 1.5e-8 does not; w_j/sigma_j stays accurate far below it.
    The rotation floor keeps the certified vectors orthogonal to
    (eps ||G||_F / split)^2 = eps^(2/3).
    """
    diag = np.diag(A)
    shift = float(np.min(diag - (np.abs(A).sum(axis=1) - np.abs(diag))))
    G = A - shift * np.eye(A.shape[0])
    perm = np.argsort(-np.einsum("ij,ij->j", G, G), kind="stable")
    R = _householder_r(G[np.ix_(perm, perm)])
    Wt, sweeps = _one_sided_jacobi(R.T)
    sigma = np.linalg.norm(Wt, axis=1)
    order = np.argsort(-sigma, kind="stable")
    sigma, Wt = sigma[order], Wt[order]

    big = sigma > np.finfo(float).eps ** (2 / 3) * math.sqrt(float(np.einsum("ij,ij->", G, G)))
    r = int(big.sum())
    X = np.empty((len(perm), r))
    X[perm] = (Wt[:r] / sigma[:r, None]).T
    residual = _certificate(G, X, sigma[:r], float(sigma[r:].max(initial=0.0)))
    return sigma + shift, residual, sweeps


def symmetric_eigenvalues(M: SymmetricMatrix) -> SpectrumReport:
    """Full spectrum of a symmetric matrix by one-sided Jacobi.

    When some split point leaves both diagonal blocks of M zero (every
    adjacency matrix of a bipartite graph), the off-diagonal block is
    solved and its singular values give the spectrum; otherwise M itself is
    solved after a Gershgorin shift.  Raises ConvergenceError if rotations
    are still needed after 100 sweeps, or if the certified residual exceeds
    the 1e-8 gate.
    """
    A = np.asarray(M.data, dtype=float)  # read in place; no route writes it
    p = _bipartite_split(A)
    if p is None:
        vals, residual, sweeps = _shifted_spectrum(A)
    else:
        vals, residual, sweeps = _bipartite_spectrum(A, p)
    residual /= max(1.0, float(np.linalg.norm(A, "fro")))
    if residual > RESIDUAL_GATE:
        raise ConvergenceError(f"eigenpair residual {residual:.3e} exceeds 1e-8 gate")
    return SpectrumReport(tuple(float(x) for x in vals), residual, sweeps)


def eigenvalue_clusters(eigenvalues) -> list[tuple[float, int]]:
    """Group a descending spectrum into (value, multiplicity) clusters of
    values within 1e-8 of the cluster's first."""
    clusters: list[tuple[float, int]] = []
    for x in eigenvalues:
        if clusters and abs(clusters[-1][0] - x) <= 1e-8:
            clusters[-1] = (clusters[-1][0], clusters[-1][1] + 1)
        else:
            clusters.append((x, 1))
    return clusters


class Quotient2x2(NamedTuple):
    """Bipartite quotient matrix with closed-form eigenvalues (descending)."""

    b11: float
    b12: float
    b21: float
    b22: float
    eta1: float
    eta2: float
    flavor: str

    def as_array(self) -> np.ndarray:
        return np.array([[self.b11, self.b12], [self.b21, self.b22]])


def bipartite_quotient(g: BipartiteGraph, flavor: str) -> Quotient2x2:
    """Quotient of the adjacency or Laplacian matrix over the bipartition.

    Adjacency flavor has eigenvalues +-m/sqrt(n1*n2); Laplacian flavor has
    eigenvalues {m*n/(n1*n2), 0}.  Both are closed forms, never iterated.
    An empty graph (m = 0) yields the zero quotient.
    """
    if flavor not in QUOTIENT_FLAVORS:
        raise ValueError(f"unknown quotient flavor {flavor!r}")
    n1, n2, m = g.n1, g.n2, g.m
    if m == 0:
        return Quotient2x2(0.0, 0.0, 0.0, 0.0, 0.0, 0.0, flavor)
    if flavor == "adjacency":
        eta1 = m / math.sqrt(n1 * n2)
        return Quotient2x2(0.0, m / n1, m / n2, 0.0, eta1, -eta1, flavor)
    theta1 = m * g.n / (n1 * n2)
    return Quotient2x2(m / n1, -m / n1, -m / n2, m / n2, theta1, 0.0, flavor)


def lifted_matrix_spectrum(g: BipartiteGraph, flavor: str) -> SpectrumReport:
    """Spectrum of the lifted quotient S B_Q S^T, verified numerically.

    S is the normalized characteristic matrix of the bipartition, so the
    lifted matrix has the quotient eigenvalues plus zeros: {eta1, 0^(n-2),
    eta2} for the adjacency flavor and {theta1, 0^(n-1)} for the Laplacian
    flavor.  The report's residual certifies every claimed eigenpair against
    the materialized matrix: quotient eigenvectors lift through S, and the
    orthogonal complement of range(S) is annihilated, which covers the zero
    eigenvalues collectively.
    """
    q = bipartite_quotient(g, flavor)
    n1, n2, n = g.n1, g.n2, g.n
    S = np.zeros((n, 2))
    S[:n1, 0] = 1.0 / math.sqrt(n1)
    S[n1:, 1] = 1.0 / math.sqrt(n2)
    C = S @ q.as_array() @ S.T
    norm_c = float(np.linalg.norm(C, "fro"))

    # the Laplacian's eta2 is 0.0, so both flavors claim the same shape
    claimed = [q.eta1] + [0.0] * (n - 2) + [q.eta2]

    residuals = []
    for eig in (q.eta1, q.eta2):
        # the quotient's eigenvector (b12, eig - b11) is nonzero unless m = 0
        v = S @ (np.array([q.b12, eig - q.b11]) if g.m else np.array([1.0, 0.0]))
        v /= np.linalg.norm(v)
        residuals.append(float(np.linalg.norm(C @ v - eig * v)))
    # ||C (I - S S^T)||_F bounds the residual of every zero eigenpair drawn
    # from the complement of range(S)
    P = np.eye(n) - S @ S.T
    residuals.append(float(np.linalg.norm(C @ P, "fro")))
    residual = max(residuals) / max(1.0, norm_c)
    if residual > RESIDUAL_GATE:
        raise ConvergenceError(f"lifted spectrum residual {residual:.3e} exceeds gate")
    return SpectrumReport(tuple(claimed), residual, 0)


class InterlacingReport(NamedTuple):
    """Juxtaposes the valid two-sided interlacing with the stronger chain.

    valid_form_holds checks lambda_i >= eta_i >= lambda_(n-2+i) for i = 1, 2
    (the t = 2 quotient form); claimed_chain_holds checks the stronger chain
    lambda_1 >= eta_1 >= lambda_2 and lambda_(n-1) >= eta_2 >= lambda_n.
    The chain is an observable, not an invariant: instances violate it.
    flavor is the quotient's.
    """

    flavor: str
    valid_form_holds: bool
    claimed_chain_holds: bool
    witnesses: tuple[str, ...]


def interlacing_check(full: SpectrumReport, q: Quotient2x2) -> InterlacingReport:
    lam = full.eigenvalues
    n = len(lam)
    if n < 2:
        raise ValueError("interlacing check needs order >= 2")
    tol = REPORT_TOL
    e1, e2 = q.eta1, q.eta2
    valid_checks = [
        (lam[0] >= e1 - tol, f"valid form: lambda_1={lam[0]!r} < eta_1={e1!r}"),
        (e1 >= lam[n - 2] - tol, f"valid form: eta_1={e1!r} < lambda_(n-1)={lam[n-2]!r}"),
        (lam[1] >= e2 - tol, f"valid form: lambda_2={lam[1]!r} < eta_2={e2!r}"),
        (e2 >= lam[n - 1] - tol, f"valid form: eta_2={e2!r} < lambda_n={lam[n-1]!r}"),
    ]
    chain_checks = [
        (lam[0] >= e1 - tol, f"chain: lambda_1={lam[0]!r} < eta_1={e1!r}"),
        (e1 >= lam[1] - tol, f"chain: eta_1={e1!r} < lambda_2={lam[1]!r}"),
        (lam[n - 2] >= e2 - tol, f"chain: lambda_(n-1)={lam[n-2]!r} < eta_2={e2!r}"),
        (e2 >= lam[n - 1] - tol, f"chain: eta_2={e2!r} < lambda_n={lam[n-1]!r}"),
    ]
    witnesses = tuple(msg for ok, msg in valid_checks + chain_checks if not ok)
    return InterlacingReport(
        q.flavor,
        all(ok for ok, _ in valid_checks),
        all(ok for ok, _ in chain_checks),
        witnesses,
    )


class BoundReport(NamedTuple):
    """One eigenvalue bound evaluated against the solver-observed value.

    holds is bound - observed >= -REPORT_TOL for upper bounds and
    observed - bound >= -REPORT_TOL for lower bounds.
    """

    bound_id: str
    bound: float
    observed: float
    holds: bool
    preconditions_met: bool
    notes: str = ""


def _upper(bound_id: str, bound: float, observed: float, pre: bool, notes: str) -> BoundReport:
    return BoundReport(bound_id, bound, observed, bound - observed >= -REPORT_TOL, pre, notes)


def _lower(bound_id: str, bound: float, observed: float, pre: bool, notes: str) -> BoundReport:
    return BoundReport(bound_id, bound, observed, observed - bound >= -REPORT_TOL, pre, notes)


def bound_suite(
    g: BipartiteGraph, adjacency: SpectrumReport, laplacian: SpectrumReport
) -> list[BoundReport]:
    """Evaluate every second-eigenvalue bound on g.

    adjacency and laplacian are g's solved spectra.  Inapplicable bounds
    (unmet preconditions) are still evaluated observationally with
    preconditions_met = False.  Reports on disconnected input carry a note,
    since most of the bounds presume connectivity.
    """
    if g.m == 0:
        raise ValueError("bound suite needs a nonempty graph")
    n1, n2, n, m = g.n1, g.n2, g.n, g.m
    lam = adjacency.eigenvalues
    mu = laplacian.eigenvalues
    profile = g.degree_profile()
    connected = g.is_connected()
    regular = profile.is_regular
    complete = m == n1 * n2
    base_note = "" if connected else "input graph is disconnected"

    def notes(*extra: str) -> str:
        return "; ".join(x for x in (base_note, *extra) if x)

    reg_note = "" if regular else "requires a regular bipartite graph"
    conn_note = "" if connected else "requires a connected graph"
    comp_note = "" if complete else "requires a complete bipartite graph"
    if connected and m != n - 1:
        # order-only bounds are tight on minimally connected graphs
        conn_note = "graph is not minimally connected (m > n - 1)"

    sq = m / math.sqrt(n1 * n2)
    if n % 2:
        tree_bound = 2 * (n - 1) / math.sqrt(n * n - 1)
    else:
        tree_bound = 2 * (n - 1) / n

    return [
        _upper("T1.iii", sq, lam[1], True, notes()),
        _lower("T1.iv", -sq, lam[n - 2], True, notes()),
        _upper("Cor-regular-adj", m / n1, lam[1], regular, notes(reg_note)),
        _upper("T2-tree", tree_bound, lam[1], connected, notes(conn_note)),
        _lower("T9-tree", -tree_bound, lam[n - 2], connected, notes(conn_note)),
        _upper("T5.ii", m * n / (n1 * n2), mu[1], True, notes()),
        _upper("Cor-regular-lap", 2 * m / n1, mu[1], regular, notes(reg_note)),
        _upper("Note-complete-lap", float(n), mu[1], complete, notes(comp_note)),
    ]
