"""Seeded inputs for the benchmark workloads.

Every input is generated here from the workload seed with `random.Random`,
without calling bipspec, so a change to the program under test cannot change
what it is fed.  A workload is a *pool* of instances; the runner audits the
whole pool in rounds.  The sizes in each pool follow a fixed schedule and the
seed only picks the random structure, so the cost of a pool barely depends
on the seed.

An instance is one input audited the way a user would audit it: a fixed list
of `bipspec` command lines (each writing a `--json` report), plus, in the
decoder family of `code-audit`, noisy words handed to
`eccode.bit_flip_decode`.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

WORKLOADS = ("spectral-audit", "expansion-audit", "code-audit", "small-batch")


@dataclass(frozen=True)
class Graph:
    """Bipartite graph as generated: left 0..n1-1, right 0..n2-1, sorted edges."""

    n1: int
    n2: int
    edges: tuple[tuple[int, int], ...]

    @classmethod
    def of(cls, n1: int, n2: int, edges) -> Graph:
        return cls(n1, n2, tuple(sorted(set(edges))))

    def text(self) -> str:
        lines = [f"bip {self.n1} {self.n2}"] + [f"e {u} {v}" for u, v in self.edges]
        return "\n".join(lines) + "\n"

    def left_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n1)]
        for u, v in self.edges:
            adj[u].append(v)
        return adj

    def right_neighbors(self) -> list[list[int]]:
        adj: list[list[int]] = [[] for _ in range(self.n2)]
        for u, v in self.edges:
            adj[v].append(u)
        return adj


@dataclass
class Step:
    """One command line; `report` is the `--json` path it writes."""

    argv: list[str]
    report: str
    files: tuple[str, ...] = ()  # further outputs (pchk, alist) the oracle reads


@dataclass
class Instance:
    iid: str
    family: str
    graph: Graph | None
    steps: list[Step]
    params: dict = field(default_factory=dict)
    # decoder family: (error rate, received word) pairs, each decoded with
    # max_iters equal to the block length
    words: list[tuple[float, np.ndarray]] = field(default_factory=list)


# --------------------------------------------------------------- generators


def spanning_tree(n1: int, n2: int, rng: random.Random) -> set[tuple[int, int]]:
    """Random spanning tree: vertices join in random order, each attached to
    a random vertex of the other side that has already joined."""
    placed = ([0], [0])
    edges = {(0, 0)}
    order = [(0, u) for u in range(1, n1)] + [(1, v) for v in range(1, n2)]
    rng.shuffle(order)
    for side, x in order:
        y = rng.choice(placed[1 - side])
        edges.add((x, y) if side == 0 else (y, x))
        placed[side].append(x)
    return edges


def dense_connected(n1: int, n2: int, rng: random.Random, min_right: int = 4) -> Graph:
    """Spanning tree plus random edges until every right vertex has degree at
    least `min_right`, so a vertex split leaves no isolated copy."""
    edges = spanning_tree(n1, n2, rng)
    degree = [0] * n2
    for _, v in edges:
        degree[v] += 1
    for v in range(n2):
        while degree[v] < min(min_right, n1):
            u = rng.randrange(n1)
            if (u, v) not in edges:
                edges.add((u, v))
                degree[v] += 1
    return Graph.of(n1, n2, edges)


def left_regular(n1: int, n2: int, d: int, rng: random.Random) -> Graph:
    return Graph.of(n1, n2, [(u, v) for u in range(n1) for v in rng.sample(range(n2), d)])


def irregular(n1: int, n2: int, dlo: int, dhi: int, rng: random.Random) -> Graph:
    """Left degrees cycle through dlo..dhi, so the edge count is fixed by the
    sizes and only the neighbours are random."""
    edges = []
    for u in range(n1):
        edges += [(u, v) for v in rng.sample(range(n2), dlo + u % (dhi - dlo + 1))]
    return Graph.of(n1, n2, edges)


def complete(m: int, n: int) -> Graph:
    return Graph.of(m, n, [(u, v) for u in range(m) for v in range(n)])


def vertex_split(g: Graph, rule: str, rng: random.Random | None = None) -> Graph:
    """Split right vertex j into j (taking ceil(d/2) of its sorted neighbours)
    and n2 + j (taking the rest), by the rule's choice of the first half.

    round-robin takes the cyclic window starting at offset j, contiguous the
    first half, seeded-random a random sample.  The oracle uses the
    round-robin rule to rebuild what `bipspec split` audits.
    """
    edges = []
    for j, nb in enumerate(g.right_neighbors()):
        d = len(nb)
        da = (d + 1) // 2
        if d == 0:
            first: set[int] = set()
        elif rule == "round-robin":
            first = {nb[(j + t) % d] for t in range(da)}
        elif rule == "contiguous":
            first = set(nb[:da])
        else:
            first = set(rng.sample(nb, da))
        edges += [(u, j if u in first else g.n2 + j) for u in nb]
    return Graph.of(g.n1, 2 * g.n2, edges)


def parity_rows(g: Graph) -> list[int]:
    """Parity checks (right vertices) as bitmasks over the bits (left vertices)."""
    rows = [0] * g.n2
    for u, v in g.edges:
        rows[v] |= 1 << u
    return rows


def gf2_rank(rows: list[int]) -> int:
    """GF(2) rank of int-bitmask rows by elimination on the leading bit."""
    pivots: dict[int, int] = {}  # leading bit -> row
    for row in rows:
        while row:
            lead = row.bit_length() - 1
            if lead not in pivots:
                pivots[lead] = row
                break
            row ^= pivots[lead]
    return len(pivots)


def code_with_dimension(n1: int, k: int, rng: random.Random) -> Graph:
    """Column-weight-3 factor graph (bits left, checks right) of dimension k."""
    n2 = n1 - k
    while True:
        g = left_regular(n1, n2, 3, rng)
        if gf2_rank(parity_rows(g)) == n2:
            return g


# ------------------------------------------------------------------ pools
#
# Schedules fix the sizes of every pool.  They keep a 27-second run at
# five or more rounds on a 2-vCPU host, with the kernels, not the command
# line, taking most of the time outside small-batch (see README.md).

# (family, order n, left side n1).  The middle of the pool is a block of
# like graphs, four dense at n = 22 and four trees at n = 30, which cost about
# the same: the median and p75 then fall among several graphs of one size,
# not on one or two graphs whose cost moves with their random structure.
SPECTRAL_PLAN = (
    ("tree", 20, 14),
    ("tree", 24, 17),
    *(("dense", 22, 13),) * 4,
    *(("tree", 30, 15),) * 4,
    ("dense", 28, 16),
    ("dense", 30, 17),
)

# (input family, left side, subset cap, also run --gamma)
EXPANSION_PLAN = (
    ("split-round-robin", 16, 8, True),
    ("irregular", 18, 8, False),
    ("split-contiguous", 20, 6, True),
    ("irregular", 22, 6, False),
    ("split-seeded-random", 24, 5, True),
    ("irregular", 19, 7, False),
    ("left-regular", 20, 6, True),
    ("left-regular", 16, 9, False),
)

# distance family: (bits, code dimension); decoder family: bits
DISTANCE_PLAN = ((36, 12), (38, 15), (40, 18), (40, 20), (42, 20), (44, 20))
DECODER_SIZES = (800, 880, 960, 1040, 1120, 1200)
DECODER_RATES = (0.01, 0.02, 0.03)
DECODER_WORDS_PER_RATE = 2

SMALL_COUNT = 44
SPECTRUM_MATRICES = ("adjacency", "laplacian", "signless-laplacian")


def build(workload: str, seed: int, workdir: Path) -> list[Instance]:
    """Generate the workload's pool, writing every input file under workdir."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")
    workdir.mkdir(parents=True, exist_ok=True)
    rng = random.Random(f"{workload}/{seed}")
    make_pool = {
        "spectral-audit": _spectral,
        "expansion-audit": _expansion,
        "code-audit": _code,
        "small-batch": _small,
    }[workload]
    return make_pool(rng, workdir)


def _write(workdir: Path, iid: str, g: Graph) -> str:
    path = workdir / f"{iid}.bip"
    path.write_text(g.text(), encoding="utf-8")
    return str(path)


def _report(workdir: Path, iid: str, name: str) -> str:
    return str(workdir / f"{iid}.{name}.json")


def _spectral(rng: random.Random, workdir: Path) -> list[Instance]:
    pool = []
    for i, (family, n, n1) in enumerate(SPECTRAL_PLAN):
        iid = f"s{i:02d}"
        if family == "dense":
            g = dense_connected(n1, n - n1, rng)
        else:
            g = Graph.of(n1, n - n1, spanning_tree(n1, n - n1, rng))
        path = _write(workdir, iid, g)
        bounds, split = _report(workdir, iid, "bounds"), _report(workdir, iid, "split")
        steps = [
            Step(["bounds", "--graph", path, "--json", bounds], bounds),
            Step(["split", "--graph", path, "--k", "2", "--json", split], split),
        ]
        pool.append(Instance(iid, family, g, steps))
    return pool


def _expansion(rng: random.Random, workdir: Path) -> list[Instance]:
    pool = []
    for i, (family, side, cap, with_gamma) in enumerate(EXPANSION_PLAN):
        iid = f"e{i:02d}"
        if family.startswith("split-"):
            g = vertex_split(complete(side, side // 2), family[len("split-"):], rng)
        elif family == "left-regular":
            g = left_regular(side, side, 4, rng)
        else:
            g = irregular(side, side, 2, 6, rng)
        path = _write(workdir, iid, g)
        report = _report(workdir, iid, "expansion")
        argv = ["expansion", "--graph", path, "--cap", str(cap), "--json", report]
        params = {"cap": cap, "gamma": None}
        if with_gamma:
            # floor(gamma * side) == cap, so --gamma repeats the same enumeration
            gamma = (cap + 0.5) / side
            argv += ["--gamma", repr(gamma)]
            params["gamma"] = gamma
        pool.append(Instance(iid, family, g, [Step(argv, report)], params))
    return pool


def _code(rng: random.Random, workdir: Path) -> list[Instance]:
    pool = []
    for i, ((bits, k), n) in enumerate(zip(DISTANCE_PLAN, DECODER_SIZES)):
        iid = f"d{i:02d}"
        g = code_with_dimension(bits, k, rng)
        path = _write(workdir, iid, g)
        report, pipe = _report(workdir, iid, "code"), _report(workdir, iid, "pipeline")
        pchk, alist = str(workdir / f"{iid}.pchk"), str(workdir / f"{iid}.alist")
        n1 = rng.choice(range(8, 25, 2))
        steps = [
            Step(
                ["code", "--graph", path, "--json", report, "--pchk", pchk, "--alist", alist],
                report,
                (pchk, alist),
            ),
            Step(["code", "--pipeline", str(n1), "--json", pipe], pipe),
        ]
        pool.append(Instance(iid, "distance", g, steps, {"pipeline": n1}))

        iid = f"b{i:02d}"
        g = left_regular(n, n // 2, 3, rng)
        path = _write(workdir, iid, g)
        report = _report(workdir, iid, "code")
        words = []
        for rate in DECODER_RATES:
            for _ in range(DECODER_WORDS_PER_RATE):
                # errors on the all-zero codeword, at an exact weight
                word = np.zeros(n, dtype=np.uint8)
                word[rng.sample(range(n), round(rate * n))] = 1
                words.append((rate, word))
        steps = [Step(["code", "--graph", path, "--json", report], report)]
        pool.append(Instance(iid, "decoder", g, steps, words=words))
    return pool


def _small(rng: random.Random, workdir: Path) -> list[Instance]:
    pool = []
    for i in range(SMALL_COUNT):
        iid = f"m{i:02d}"
        n = 6 + i % 11
        n1 = (n + 1) // 2 + i % 2
        kind = i % 3
        if kind == 0:
            family, g = "dense", dense_connected(n1, n - n1, rng, min_right=2)
        elif kind == 1:
            family, g = "tree", Graph.of(n1, n - n1, spanning_tree(n1, n - n1, rng))
        else:
            family, g = "complete", complete(n1, n - n1)
        path = _write(workdir, iid, g)
        matrix = SPECTRUM_MATRICES[i % 3]
        names = ("spectrum", "bounds", "split", "expansion", "code")
        reports = {name: _report(workdir, iid, name) for name in names}
        steps = [
            Step(["spectrum", "--graph", path, "--matrix", matrix, "--json", reports["spectrum"]],
                 reports["spectrum"]),
            Step(["bounds", "--graph", path, "--json", reports["bounds"]], reports["bounds"]),
            Step(["split", "--graph", path, "--k", "2", "--json", reports["split"]], reports["split"]),
            Step(["expansion", "--graph", path, "--cap", "3", "--json", reports["expansion"]],
                 reports["expansion"]),
            Step(["code", "--graph", path, "--json", reports["code"]], reports["code"]),
        ]
        pool.append(Instance(iid, family, g, steps, {"cap": 3, "gamma": None, "matrix": matrix}))
    return pool
