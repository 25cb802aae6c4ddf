"""Acceptance gate: one test per criterion, each printing a pass/fail line.

The checks live in bipspec.acceptance so the CLI's verify-all subcommand runs
exactly the same code; here each criterion is asserted individually with its
measured details in the failure message.
"""

from __future__ import annotations

import json

import pytest

from bipspec import acceptance


def _check(result: acceptance.CriterionResult) -> None:
    line = f"ACCEPTANCE {result.criterion} {result.name}: {'PASS' if result.passed else 'FAIL'}"
    print(line)
    assert result.passed, f"{line}\ndetails: {json.dumps(result.details, default=str, indent=2)}"


def test_criterion_1_eigensolver_oracle():
    _check(acceptance.criterion_1())


def test_criterion_2_quotient_closed_forms():
    _check(acceptance.criterion_2())


def test_criterion_3_valid_interlacing():
    _check(acceptance.criterion_3())


def test_criterion_4_counterexample_audit():
    _check(acceptance.criterion_4())


def test_criterion_5_spectral_symmetry():
    _check(acceptance.criterion_5())


def test_criterion_6_vertex_split_invariants():
    _check(acceptance.criterion_6())


def test_criterion_7_k55_connectivity():
    _check(acceptance.criterion_7())


def test_criterion_8_split_k84_expansion():
    _check(acceptance.criterion_8())


def test_criterion_9_code_pipeline():
    _check(acceptance.criterion_9())


def test_criterion_10_determinism():
    _check(acceptance.criterion_10())


def test_criterion_11_decoder_soundness():
    _check(acceptance.criterion_11())


def test_verify_all_cli(tmp_path):
    from bipspec.cli import run

    out = tmp_path / "verify.json"
    status = run(["verify-all", "--json", str(out)])
    report = json.loads(out.read_text(encoding="utf-8"))
    criteria = [f for f in report["findings"] if f["type"] == "criterion"]
    assert len(criteria) == 11
    assert status == 0
    assert all(c["passed"] for c in criteria)
