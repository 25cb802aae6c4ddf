"""Command-line front door.

Every number in the emitted reports comes from a library operation; the CLI
only orchestrates and serializes.  Exit codes separate observation from
misuse: 0 means no claim was violated on this input, 1 means at least one
report flagged a violated claim (data, not a crash), 2 means usage or input
error, and 3 means an internal error (a bug), with the traceback on stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import traceback
from pathlib import Path

from . import bigraph, eccode, expansion, spectra, vsplit

USAGE_ERROR = 2
INTERNAL_ERROR = 3


def _load_graph(path: str) -> bigraph.BipartiteGraph:
    return bigraph.read_edge_list(Path(path).read_text(encoding="utf-8"))


def _write(path: str | Path, text: str, *, in_place: bool) -> None:
    """Write text to path as UTF-8; every file the CLI writes goes through here.

    A report (`--json`, split's `.json` sidecar) is written in place: the
    file is opened without O_TRUNC and cut to the new length after the
    write, when the old file was longer.  On ext4 a file truncated to zero
    is written back when it is closed, which made each rewrite of an
    existing report 3-7 times slower.

    A graph or code file (`.bip`, `.pchk`, `.alist`) is truncated to zero
    first, as open(path, "w") does: a later command reads it back, and a
    crash can leave an in-place rewrite cut to its new length over old
    bytes, which for an edge list can still parse as a wrong graph.

    Either way the bytes, the inode (so symlinks are followed and hard links
    stay shared), a new file's mode (0o666 & ~umask) and every OSError are
    those of open(path, "w").  A FIFO or a terminal takes the bytes as a
    stream and is never cut.
    """
    data = text.encode("utf-8")
    flags = os.O_WRONLY | os.O_CREAT | (0 if in_place else os.O_TRUNC)
    fd = os.open(Path(path), flags, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view) :]
        # a truncate costs microseconds even to the current size, so only a
        # longer file is cut; a FIFO or a terminal reports size 0
        if in_place and os.fstat(fd).st_size > len(data):
            os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


def _is_violation(finding: dict) -> bool:
    kind = finding.get("type")
    if kind == "bound":
        return not finding["holds"] and finding["preconditions_met"]
    if kind == "interlacing":
        return not finding["valid_form_holds"] or not finding["claimed_chain_holds"]
    if kind == "connectivity-criterion":
        return finding["criterion_met"] and not finding["conclusion_holds"]
    if kind == "distance":
        return finding["bound_holds"] is False
    if kind == "criterion":
        return not finding["passed"]
    return False


def _emit(command: str, inputs: dict, findings: list[dict], json_path: str | None) -> int:
    """Print the violated claims and, given json_path, write the report there
    in place through _write; returns the exit status, 1 when a claim is
    violated and 0 otherwise."""
    violations = [f for f in findings if _is_violation(f)]
    status = 1 if violations else 0
    report = {
        "command": command,
        "inputs": inputs,
        "findings": findings,
        "violations": violations,
        "exit_status": status,
    }
    if json_path:
        _write(json_path, json.dumps(report, indent=2, sort_keys=True) + "\n", in_place=True)
    if violations:
        print(f"{len(violations)} violated claim(s) on this input:")
        for v in violations:
            label = v.get("bound_id") or v.get("theorem") or v.get("criterion") or v.get("type")
            print(f"  - {label}")
    else:
        print("no violations")
    return status


def _cmd_gen(args) -> int:
    if args.complete:
        g = bigraph.complete_bipartite(args.complete[0], args.complete[1])
        inputs = {"complete": args.complete}
    elif args.path is not None:
        g = bigraph.path_graph(args.path)
        inputs = {"path": args.path}
    else:
        g = bigraph.random_tree(args.tree, args.mode, args.seed)
        inputs = {"tree": args.tree, "mode": args.mode, "seed": args.seed}
    text = bigraph.write_edge_list(g)
    if args.out:
        _write(args.out, text, in_place=False)
        print(f"wrote {g.n1}+{g.n2} vertices, {g.m} edges to {args.out}")
    else:
        sys.stdout.write(text)
    if args.json:
        findings = [{"type": "graph", "n1": g.n1, "n2": g.n2, "m": g.m}]
        return _emit("gen", inputs, findings, args.json)
    return 0


def _cmd_spectrum(args) -> int:
    g = _load_graph(args.graph)
    builders = {
        "adjacency": spectra.adjacency_matrix,
        "laplacian": spectra.laplacian_matrix,
        "signless-laplacian": spectra.signless_laplacian_matrix,
    }
    report = spectra.symmetric_eigenvalues(builders[args.matrix](g))
    print(f"{args.matrix} spectrum of {g.n1}+{g.n2} vertices, {g.m} edges:")
    for value, count in spectra.eigenvalue_clusters(report.eigenvalues):
        mult = f" (x{count})" if count > 1 else ""
        print(f"  {value:.8f}{mult}")
    print(f"residual {report.residual:.2e} after {report.iterations} sweeps")
    findings = [{"type": "spectrum", **report.to_json_dict()}]
    return _emit("spectrum", {"graph": args.graph, "matrix": args.matrix}, findings, args.json)


def _cmd_bounds(args) -> int:
    g = _load_graph(args.graph)
    full = {
        "adjacency": spectra.symmetric_eigenvalues(spectra.adjacency_matrix(g)),
        "laplacian": spectra.symmetric_eigenvalues(spectra.laplacian_matrix(g)),
    }
    findings: list[dict] = []
    for rep in spectra.bound_suite(g, full["adjacency"], full["laplacian"]):
        findings.append({"type": "bound", **rep.to_json_dict()})
        mark = "ok " if rep.holds else "VIOLATED"
        pre = "" if rep.preconditions_met else " [preconditions unmet]"
        print(f"{rep.bound_id:18s} bound {rep.bound_value: .6f}  observed {rep.observed_value: .6f}  {mark}{pre}")
    for flavor, spectrum in full.items():
        q = spectra.bipartite_quotient(g, flavor)
        inter = spectra.interlacing_check(spectrum, q)
        findings.append({"type": "interlacing", "flavor": flavor, **inter.to_json_dict()})
        print(
            f"interlacing ({flavor}): valid form "
            f"{'holds' if inter.valid_form_holds else 'FAILS'}, chain "
            f"{'holds' if inter.claimed_chain_holds else 'FAILS'}"
        )
    return _emit("bounds", {"graph": args.graph}, findings, args.json)


def _cmd_split(args) -> int:
    g = _load_graph(args.graph)
    split = vsplit.vertex_split(g, args.rule, args.seed)
    print(f"split: {g.n1}+{g.n2} -> {split.n1}+{split.n2} vertices, {split.m} edges ({args.rule})")
    warnings = vsplit.split_warnings(g, split)
    for w in warnings:
        print(f"  warning: {w}")
    sidecar = vsplit.split_sidecar(g, args.rule, warnings)
    findings: list[dict] = [
        {"type": "split", "n1": split.n1, "n2_prime": split.n2, "m": split.m, **sidecar}
    ]
    if args.out:
        base = Path(args.out)
        _write(base.with_suffix(".bip"), bigraph.write_edge_list(split), in_place=False)
        _write(
            base.with_suffix(".json"),
            json.dumps(sidecar, indent=2, sort_keys=True) + "\n",
            in_place=True,
        )
        print(f"wrote {base.with_suffix('.bip')} and {base.with_suffix('.json')}")
    if args.k is not None:
        measured = vsplit.measure_split(split)
        for rep in (
            vsplit.theorem_r1_check(g, split, args.k, measured),
            vsplit.theorem_r2_check(g, args.k, measured),
        ):
            findings.append({"type": "connectivity-criterion", **rep.to_json_dict()})
            print(
                f"{rep.theorem}: lambda2'={rep.lambda2_prime:.6f} vs threshold {rep.threshold:.6f} "
                f"(criterion {'met' if rep.criterion_met else 'not met'}); "
                f"kappa'={rep.measured_kappa} (conclusion {'holds' if rep.conclusion_holds else 'fails'})"
            )
    inputs = {"graph": args.graph, "rule": args.rule, "seed": args.seed, "k": args.k}
    return _emit("split", inputs, findings, args.json)


def _cmd_expansion(args) -> int:
    g = _load_graph(args.graph)
    report = expansion.vertex_expansion(g, args.side, args.cap, gamma=args.gamma, seed=args.seed)
    print(
        f"alpha = {report.alpha:.6f} over {args.side} subsets up to size {report.subset_cap} "
        f"({'exhaustive' if report.exhaustive else 'sampled'}), witness {list(report.witness)}"
    )
    findings: list[dict] = [{"type": "expansion", **report.to_json_dict()}]
    if args.gamma is not None and g.degree_profile().is_left_regular and args.side == "left":
        params = expansion.lossless_parameters(g, args.gamma, report)
        findings.append({"type": "lossless", **params.to_json_dict()})
        print(f"lossless parameters: D={params.D} alpha={params.alpha:.6f} epsilon={params.epsilon:.6f}")
    inputs = {"graph": args.graph, "side": args.side, "cap": args.cap, "gamma": args.gamma, "seed": args.seed}
    return _emit("expansion", inputs, findings, args.json)


def _cmd_code(args) -> int:
    findings: list[dict] = []
    if args.pipeline is not None:
        pipe = eccode.construct_expander_code(args.pipeline)
        code = pipe.code
        findings.append({"type": "code", **code.to_json_dict()})
        findings.append({"type": "lossless", **pipe.params.to_json_dict()})
        findings.append({"type": "distance", **pipe.report.to_json_dict()})
        findings.append({"type": "n2-rule", **pipe.n2_rule.to_json_dict()})
        inputs = {"pipeline": args.pipeline}
        print(
            f"pipeline n1={args.pipeline}: H is {code.check_count}x{code.n}, rank {code.rank}, "
            f"dimension {code.dimension}, rate {code.rate:.4f}"
        )
        print(
            f"bounds: lemma {pipe.report.lemma_bound} / specialized {pipe.report.cor8_bound}; "
            f"true distance {pipe.report.true_distance} "
            f"(premises {'verified' if pipe.report.premises_verified else 'unverified'})"
        )
    else:
        g = _load_graph(args.graph)
        code = eccode.parity_check_from_graph(g)
        entry = {"type": "code", **code.to_json_dict()}
        if 1 <= code.dimension <= eccode.MAX_ENUM_DIMENSION:
            entry["true_distance"] = eccode.min_distance(code)
        findings.append(entry)
        inputs = {"graph": args.graph}
        print(
            f"code: H is {code.check_count}x{code.n}, rank {code.rank}, dimension {code.dimension}"
            + (f", distance {entry['true_distance']}" if "true_distance" in entry else "")
        )
    if args.pchk:
        _write(args.pchk, eccode.write_pchk(code), in_place=False)
        print(f"wrote {args.pchk}")
    if args.alist:
        _write(args.alist, eccode.write_alist(code), in_place=False)
        print(f"wrote {args.alist}")
    return _emit("code", inputs, findings, args.json)


def _cmd_verify_all(args) -> int:
    from . import acceptance

    findings = []
    for result in acceptance.run_all():
        findings.append({"type": "criterion", **result.to_json_dict()})
        print(f"{result.cid:4s} {result.name}: {'PASS' if result.passed else 'FAIL'}")
    return _emit("verify-all", {}, findings, args.json)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # built once per process: parsing leaves the parser unchanged, and a
    # fresh one per run is garbage held in reference cycles until the next
    # full collection, which grows the peak memory of a long-lived caller
    parser = argparse.ArgumentParser(
        prog="bipspec",
        description="Bipartite spectra, quotient bounds, vertex splits, and expander codes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph and write its edge list")
    kind = p.add_mutually_exclusive_group(required=True)
    kind.add_argument("--complete", nargs=2, type=int, metavar=("M", "N"))
    kind.add_argument("--path", type=int, metavar="N")
    kind.add_argument("--tree", type=int, metavar="N")
    p.add_argument("--mode", choices=bigraph.TREE_MODES, default="balanced")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", metavar="FILE")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_gen)

    p = sub.add_parser("spectrum", help="eigenvalues of a graph matrix")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument(
        "--matrix",
        choices=("adjacency", "laplacian", "signless-laplacian"),
        default="adjacency",
    )
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_spectrum)

    p = sub.add_parser("bounds", help="evaluate every eigenvalue bound report")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_bounds)

    p = sub.add_parser("split", help="vertex-split a graph")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--rule", choices=vsplit.SPLIT_RULES, default="round-robin")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--k", type=int, help="also run the connectivity criteria at this k")
    p.add_argument("--out", metavar="BASE", help="write BASE.bip and BASE.json")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_split)

    p = sub.add_parser("expansion", help="measure vertex expansion")
    p.add_argument("--graph", required=True, metavar="FILE")
    p.add_argument("--side", choices=expansion.SIDES, default="left")
    p.add_argument("--cap", type=int)
    p.add_argument("--gamma", type=float)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_expansion)

    p = sub.add_parser("code", help="parity-check code from a factor graph")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--pipeline", type=int, metavar="N1")
    source.add_argument("--graph", metavar="FILE")
    p.add_argument("--pchk", metavar="FILE", help="write the dense pchk format")
    p.add_argument("--alist", metavar="FILE", help="write the sparse alist format")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_code)

    p = sub.add_parser("verify-all", help="run the full acceptance suite")
    p.add_argument("--json", metavar="PATH")
    p.set_defaults(fn=_cmd_verify_all)

    return parser


def run(argv: list[str]) -> int:
    """Parse argv and execute; returns the process exit status."""
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        return args.fn(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR
    except Exception:  # any other exception is a bug, never a finding
        traceback.print_exc()
        return INTERNAL_ERROR


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
