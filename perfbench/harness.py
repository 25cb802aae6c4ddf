"""Closed-loop measurement of one workload: rounds over the pool, oracle
checks, metrics, provenance and the result line.

One process, one instance in flight.  A *round* audits every instance of the
pool once, in pool order.  Rounds repeat until `--seconds` have passed and
at least MIN_ROUNDS are done (the last round finishes), so every instance
runs equally often and the metrics do not depend on where the clock stopped.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

import oracles
import spans
import workloads
from bipspec import cli, eccode

# relative to the repository root, so report paths (and digests) do not
# depend on where the checkout lives
OUT_DIR = Path("perfbench", "out")

# name -> (unit, better)
END_TO_END = {
    "instances_per_s": ("1/s", "higher"),
    "instance_s.p50": ("s", "lower"),
    "instance_s.tail": ("s", "lower"),
    "setup_s": ("s", "lower"),
    "peak_rss_mb": ("MB", "lower"),
}
TAIL_LADDER = (99, 95, 90, 75, 50)
TAIL_BEYOND = 10
SETUP_SAMPLES = 7
MIN_ROUNDS = 5
SETUP_CODE = "import time; t = time.perf_counter(); import bipspec.cli; print(time.perf_counter() - t)"
CALIBRATION_LOOPS = 5
# The time of the reference work (`probe`) on an uncontended core of the
# host the bounds were set on (2-vCPU Xeon, Python 3.11, numpy 2.4).  Scaled
# times read as seconds on that host at that speed.
PROBE_REF_S = 0.0042


# -------------------------------------------------------------- statistics


def tail_percentile(n: int) -> int | None:
    """Highest ladder percentile with at least 10 samples beyond it (nearest rank)."""
    for p in TAIL_LADDER:
        if n - math.ceil(p * n / 100) >= TAIL_BEYOND:
            return p
    return None


def nearest_rank(values: list[float], p: int) -> float:
    ordered = sorted(values)
    return ordered[math.ceil(p * len(ordered) / 100) - 1]


def calibrate() -> float:
    """Median wall time (ms) of a fixed pure-Python loop; diagnostic only."""
    times = []
    for _ in range(CALIBRATION_LOOPS):
        t0 = perf_counter()
        acc = 0
        for i in range(200_000):
            acc += i * i
        times.append((perf_counter() - t0) * 1e3)
    return statistics.median(times)


# Fixed inputs of the reference work.
_REF_MATRIX = (lambda m: m + m.T)(np.random.default_rng(0).random((16, 16)))
_REF_SETS = (lambda rng: [frozenset(rng.sample(range(64), 6)) for _ in range(64)])(random.Random(0))
_REF_DOC = {"findings": [{"name": f"f{i}", "value": i / 7, "items": list(range(i % 9))} for i in range(40)]}


def _reference_work() -> float:
    """A fixed mix of the kinds of work bipspec does: a Python integer loop,
    Jacobi-style rotations of a small numpy matrix, unions of small sets and
    a JSON round trip.  A tight loop alone slows less than bipspec does when
    other tenants contend for the core, so it cancels only about half of a
    slow stretch; this mix tracks bipspec more closely (perfbench/README.md
    gives the measurements)."""
    acc = 0
    for i in range(40_000):
        acc += i * i
    A = _REF_MATRIX.copy()
    for p in range(15):
        for q in range(p + 1, 16):
            apq = A[p, q]
            t = math.copysign(1.0, apq) / (abs(apq) + math.hypot(1.0, apq))
            c = 1.0 / math.hypot(1.0, t)
            s = t * c
            col_p = A[:, p].copy()
            A[:, p] = c * col_p - s * A[:, q]
            A[:, q] = s * col_p + c * A[:, q]
    for j in range(1500):
        acc += len(_REF_SETS[j % 64] | _REF_SETS[j * 7 % 64] | _REF_SETS[j * 13 % 64])
    json.loads(json.dumps(_REF_DOC))
    return acc + float(A[0, 0])


def probe() -> float:
    """Seconds the fixed reference work takes right now."""
    t0 = perf_counter()
    _reference_work()
    return perf_counter() - t0


class HostSpeed:
    """Scales wall times to the reference host speed.

    A shared host runs the same code up to half again as slow for stretches
    of seconds to minutes.  The reference work (`probe`) runs before and
    after each timed piece of work (one run serves both neighbours), and the
    work's wall time is scaled by PROBE_REF_S over the mean of the two.  The
    reference is the benchmark's own code, so a change to the program moves
    the scaled times in the same proportion as the wall times; a slow
    stretch moves both the work and the reference and cancels.
    """

    def __init__(self) -> None:
        self.last = probe()
        self.probes = [self.last]

    def scale(self, seconds: float) -> float:
        after = probe()
        factor = PROBE_REF_S / ((self.last + after) / 2)
        self.last = after
        self.probes.append(after)
        return seconds * factor


def setup_sample(src: Path) -> float:
    """Seconds a fresh interpreter spends importing bipspec.cli."""
    env = dict(os.environ, PYTHONPATH=str(src))
    done = subprocess.run(
        [sys.executable, "-c", SETUP_CODE], env=env, capture_output=True, text=True, timeout=60, check=True
    )
    return float(done.stdout)


# ---------------------------------------------------------------- auditing


@dataclass
class Outputs:
    """What an instance wrote and decoded, as the oracle reads it."""

    reports: list[bytes]
    files: dict[str, str]
    decoded: list[tuple[str, np.ndarray]]

    def digest(self) -> str:
        h = hashlib.sha256()
        for blob in self.reports:
            h.update(blob)
        for name in sorted(self.files):
            h.update(self.files[name].encode())
        for status, word in self.decoded:
            h.update(status.encode() + word.tobytes())
        return h.hexdigest()


@dataclass
class Outcome:
    wall: float
    error: str | None


class Audit:
    """Runs a pool's instances and keeps what the oracle and metrics need."""

    def __init__(self, pool: list[workloads.Instance]) -> None:
        self.pool = pool
        self.codes = {}
        for inst in pool:
            if inst.words:
                H = np.zeros((inst.graph.n2, inst.graph.n1), dtype=np.uint8)
                for u, v in inst.graph.edges:
                    H[v, u] = 1
                self.codes[inst.iid] = eccode.LinearCode.from_matrix(H)
        # first successful outputs per instance, with their digest
        self.first: dict[str, tuple[str, Outputs]] = {}
        self.problems: dict[str, list[str]] = {}
        self.executions: list[tuple[str, Outcome]] = []

    def execute(self, inst: workloads.Instance, tracer: spans.Tracer | None = None) -> Outcome:
        if tracer is not None:
            tracer.begin_instance(inst.iid)
        code = self.codes.get(inst.iid)
        sink = io.StringIO()
        error, statuses, results = None, [], []
        t0 = perf_counter()
        try:
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                for step in inst.steps:
                    statuses.append(cli.run(step.argv))
                for _, word in inst.words:
                    results.append(eccode.bit_flip_decode(code, word, code.n))
        except Exception as exc:  # an uncaught program error is a failed instance
            error = f"{type(exc).__name__}: {exc}"
        wall = perf_counter() - t0
        if error is None and any(s not in (0, 1) for s in statuses):
            error = f"exit statuses {statuses}: {sink.getvalue()[-300:]}"
        if error is None:
            outputs = Outputs(
                [Path(step.report).read_bytes() for step in inst.steps],
                {Path(f).suffix[1:]: Path(f).read_text(encoding="utf-8") for step in inst.steps for f in step.files},
                [(status, word) for word, status in results],
            )
            exits = [json.loads(blob)["exit_status"] for blob in outputs.reports]
            digest = outputs.digest()
            if exits != statuses:
                error = f"report exit_status {exits} != process status {statuses}"
            elif self.first.setdefault(inst.iid, (digest, outputs))[0] != digest:
                error = "outputs differ from the instance's first execution"
        out = Outcome(wall, error)
        self.executions.append((inst.iid, out))
        return out

    def check(self) -> None:
        """Run the oracle on each instance's first successful outputs."""
        for inst in self.pool:
            if inst.iid not in self.first:
                continue
            outputs = self.first[inst.iid][1]
            try:
                reports = [json.loads(blob) for blob in outputs.reports]
                problems = oracles.check_instance(inst, reports, outputs.files, outputs.decoded)
            except (KeyError, ValueError, IndexError, TypeError) as exc:
                problems = [f"report could not be checked: {type(exc).__name__}: {exc}"]
            if problems:
                self.problems[inst.iid] = problems

    def failed(self, iid: str, out: Outcome) -> bool:
        return out.error is not None or iid in self.problems

    def failures(self) -> list[str]:
        notes = [f"{iid}: {out.error}" for iid, out in self.executions if out.error]
        notes += [f"{iid}: {p}" for iid, problems in self.problems.items() for p in problems]
        return notes

    def reports_digest(self) -> tuple[str, dict[str, str]]:
        """Digest of every --json report, per instance and over the pool."""
        per = {}
        for inst in self.pool:
            if inst.iid in self.first:
                h = hashlib.sha256()
                for blob in self.first[inst.iid][1].reports:
                    h.update(blob)
                per[inst.iid] = h.hexdigest()
        total = hashlib.sha256("".join(per[k] for k in sorted(per)).encode()).hexdigest()
        return total, per

    def decoder_curve(self) -> dict[str, float]:
        """Share of noisy words decoded, per error rate."""
        tally: dict[float, list[int]] = {}
        for inst in self.pool:
            if inst.iid not in self.first:
                continue
            for (rate, _), (status, _) in zip(inst.words, self.first[inst.iid][1].decoded):
                t = tally.setdefault(rate, [0, 0])
                t[0] += status == "decoded"
                t[1] += 1
        return {str(rate): ok / n for rate, (ok, n) in sorted(tally.items())}


# ------------------------------------------------------------- measurement


def _costs(walls: dict[str, list[float]]) -> dict[str, float]:
    """Each instance's median execution over the run."""
    return {iid: statistics.median(w) for iid, w in walls.items()}


def measure(audit: Audit, seconds: float, src: Path) -> tuple[dict, dict]:
    """Untraced rounds until `seconds` pass and at least MIN_ROUNDS are done,
    with set-up samples spread over them.

    Every execution and set-up sample is scaled to the reference host speed
    (`HostSpeed`).  An instance's cost is the median of its scaled
    executions (`_costs`); the time metrics are taken over the executions,
    each timed at its instance's cost.  The tail percentile is fixed by the
    guaranteed MIN_ROUNDS * pool size executions, so it is the same in
    every run of a workload.  The unscaled wall times, and the metrics
    computed from them, go to the results file.
    """
    speed = HostSpeed()
    raw_samples: list[float] = []
    samples: list[float] = []

    def sample_setup() -> None:
        raw_samples.append(setup_sample(src))
        samples.append(speed.scale(raw_samples[-1]))

    sample_setup()
    walls: dict[str, list[float]] = defaultdict(list)
    scaled: dict[str, list[float]] = defaultdict(list)
    rounds = 0
    start = perf_counter()
    while rounds < MIN_ROUNDS or perf_counter() - start < seconds:
        for inst in audit.pool:
            wall = audit.execute(inst).wall
            walls[inst.iid].append(wall)
            scaled[inst.iid].append(speed.scale(wall))
        rounds += 1
        marks_passed = int((perf_counter() - start) / seconds * (SETUP_SAMPLES - 1))
        while len(samples) <= min(marks_passed, SETUP_SAMPLES - 1):
            sample_setup()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    while len(samples) < SETUP_SAMPLES:
        sample_setup()
    audit.check()

    p = tail_percentile(MIN_ROUNDS * len(audit.pool))
    costs = _costs(scaled)
    # a failed execution counts as missing the tail
    ranked = [math.inf if audit.failed(iid, out) else costs[iid] for iid, out in audit.executions]
    tail = nearest_rank(ranked, p)
    metrics = {
        "instances_per_s": len(costs) / sum(costs.values()),
        "instance_s.p50": statistics.median(costs.values()),
        "instance_s.tail": tail if math.isfinite(tail) else None,
        "setup_s": statistics.median(samples),
        "peak_rss_mb": peak_rss_mb,
    }
    raw_costs = _costs(walls)
    raw_ranked = [raw_costs[iid] for iid, _ in audit.executions]
    detail = {
        "rounds": rounds,
        "tail": {"percentile": p, "samples": len(ranked)},
        "setup_samples_s": samples,
        "unscaled": {
            "instances_per_s": len(raw_costs) / sum(raw_costs.values()),
            "instance_s.p50": statistics.median(raw_costs.values()),
            "instance_s.tail": nearest_rank(raw_ranked, p),
            "setup_s": statistics.median(raw_samples),
        },
        "probe_s": {"reference": PROBE_REF_S, "median": statistics.median(speed.probes),
                    "min": min(speed.probes), "count": len(speed.probes)},
        "instance_walls_s": walls,
    }
    return metrics, detail


def measure_traced(audit: Audit, seconds: float) -> tuple[dict, dict]:
    """Rounds in which each instance runs untraced and then traced, until
    `seconds` pass (at least one round).

    Times are medians over the rounds of each round's traced totals; the
    computed counts come from the first round and must repeat in every
    other one.  Tracing overhead compares the instances' costs traced and
    untraced, measured moments apart.
    """
    plain: dict[str, list[float]] = defaultdict(list)
    traced: dict[str, list[float]] = defaultdict(list)
    passes = []
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        tracer = spans.Tracer()
        for inst in audit.pool:
            plain[inst.iid].append(audit.execute(inst).wall)
            with tracer.installed():
                traced[inst.iid].append(audit.execute(inst, tracer).wall)
        passes.append(spans.layer_metrics(tracer))
    audit.check()
    metrics = {}
    for name in passes[0]:
        values = [m[name] for m in passes]
        unit = spans.PER_LAYER[name][0]
        metrics[name] = statistics.median(values) if unit in ("s", "1/s") else values[0]
    metrics["trace.overhead_frac"] = sum(_costs(traced).values()) / sum(_costs(plain).values()) - 1
    counts_repeat = all(
        m[name] == passes[0][name] for m in passes for name in m if spans.PER_LAYER[name][0] in ("count", "ratio")
    )
    return metrics, {"rounds": len(passes), "counts_repeat": counts_repeat}


# -------------------------------------------------------------- provenance


def _git(root: Path, *args: str) -> str | None:
    # the ceiling keeps git from searching above the checkout
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(root.parent))
    try:
        done = subprocess.run(["git", *args], cwd=root, env=env, capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def provenance(root: Path, seed: int) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    head = _git(root, "rev-parse", "HEAD")
    status = _git(root, "status", "--porcelain") if head else None
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "git_head": head,
        "git_dirty": None if status is None else bool(status),
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "seed": seed,
    }


# -------------------------------------------------------------------- main


def parse_args(argv: list[str]) -> argparse.Namespace:
    p = argparse.ArgumentParser(description="Run one bipspec benchmark workload.")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv: list[str], root: Path) -> int:
    args = parse_args(argv)
    src = root / "src"
    calibration_before = calibrate()
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        t0 = perf_counter()
        pool = workloads.build(args.workload, args.seed, workdir)
        audit = Audit(pool)
        input_s = perf_counter() - t0
        audit.execute(pool[0])  # warm-up, not counted
        audit.executions.clear()
        if args.trace:
            metrics, detail = measure_traced(audit, args.seconds)
        else:
            metrics, detail = measure(audit, args.seconds, src)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(audit.executions)
    failed = sum(audit.failed(iid, out) for iid, out in audit.executions)
    units = {name: unit for name, (unit, _) in (spans.PER_LAYER if args.trace else END_TO_END).items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in units},
    }
    digest, per_instance = audit.reports_digest()
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "pool_size": len(pool),
        "input_generation_s": input_s,
        "failed_frac": failed / attempted,
        "failures": audit.failures()[:50],
        "reports_digest": digest,
        "instance_digests": per_instance,
        "decoder_curve": audit.decoder_curve(),
        "calibration_ms": {"before": calibration_before, "after": calibrate()},
        "provenance": provenance(root, args.seed),
        **detail,
        "result": result,
    }
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_file.write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")

    for name, m in result["metrics"].items():
        print(f"{name} = {m['value']} {m['unit']}")
    if "tail" in detail:
        print(f"instance_s.tail is p{detail['tail']['percentile']} of {detail['tail']['samples']} executions")
    print(f"failed_frac = {failed}/{attempted}; results in {out_file}")
    for note in record["failures"][:5]:
        print(f"  failure: {note}")
    print(json.dumps(result))
    return 0
