"""Acceptance gate: one test per graded criterion, run at full strength.

Each test calls the corresponding checker from noisy_control.verification
with the frozen seed and prints its pass/fail line, so `pytest -v -s
tests/test_acceptance.py` doubles as the human-readable scorecard.  The
thresholds live in the checkers themselves; the asserts here restate them so
a failure names the number that moved.
"""

import hashlib
import json

from noisy_control import verification

SEED = 0

# sha256 of render_report(verify_all(seed=0, profile="quick")), so a refactor
# that moves any report byte fails here.  Criterion 4's regressions sum through
# BLAS, so the digest holds per OpenBLAS build and CPU kernel: it was recorded
# with OpenBLAS 0.3.31 on its SkylakeX kernel, where 1 and 2 threads give the
# same bytes and OPENBLAS_CORETYPE=Haswell gives 49520acc... (ROADMAP item 5).
QUICK_REPORT_SHA256 = "defd9ca73071c15987526c4cc0a8631246babc43e21dc493f2aa7b786f569b85"


def _run(fn):
    result = fn(seed=SEED, profile="full")
    print()
    print(result.one_line())
    return result


def test_criterion_1_memory_reduction_is_exact():
    r = _run(verification.criterion_1_reduction)
    assert r.passed
    assert r.statistic == 0.0  # window vs running-integral difference, bitwise
    assert r.details["states_bitwise"]


def test_criterion_2_adjoint_residual_halves_with_the_step():
    r = _run(verification.criterion_2_residual_order)
    assert r.passed
    assert 0.7 <= r.statistic <= 1.3  # log2 residual ratio across m=8 -> 16
    assert r.details["limit_deviation"] <= 1e-12
    assert r.details["sup_m16"] < r.details["sup_m8"]


def test_criterion_3_window_bridge_identities():
    r = _run(verification.criterion_3_bridge)
    assert r.passed
    assert r.statistic <= 1e-10  # worst of the q2 / driver reconstruction gaps
    assert r.details["q2_zero_case"] == 0.0


def test_criterion_4_regression_recovers_closed_forms():
    r = _run(verification.criterion_4_regression)
    assert r.passed
    assert r.details["linear_p_rel_rms"] <= 0.05
    assert r.details["jump_p1_rel_rms"] <= 0.01
    assert max(r.details["jump_zero_rms"].values()) <= 0.02
    assert r.details["max_condition"] < 1e13


def test_criterion_5_three_derivative_routes_agree():
    r = _run(verification.criterion_5_directional)
    assert r.passed
    assert r.statistic <= 1.0  # worst pairwise gap over its tolerance
    for fixture in ("linear-noisy-memory", "consumption"):
        assert r.details[fixture]["gaps"]


def test_criterion_6_duality_and_clark_ocone():
    r = _run(verification.criterion_6_duality)
    assert r.passed
    assert r.statistic <= 4.0  # worst duality z-score over the battery
    assert 0.35 <= r.details["clark_ocone_ratio"] <= 0.65


def test_criterion_7_maximum_principle_roundtrip():
    r = _run(verification.criterion_7_max_principle)
    assert r.passed
    assert r.statistic <= 1e-10  # first-order condition inversion residual
    assert r.details["worst_spike_gain_minus_2se"] <= 0.0
    assert r.details["scaled_control_statistic"] > 5.0


def test_criterion_8_generalized_memory_kernel():
    r = _run(verification.criterion_8_generalized_kernel)
    assert r.passed
    assert r.details["mu_bitwise"]
    assert 0.7 <= r.statistic <= 1.3  # accumulated-defect order across m=8 -> 16


def test_criterion_9_reports_are_reproducible():
    r = _run(verification.criterion_9_determinism)
    assert r.passed
    assert r.details["reports_identical"]
    assert r.details["negative_control_rel_rms"] > 0.01


def test_full_suite_summary():
    """End-to-end: the aggregate runner agrees with the per-criterion tests."""
    results, report = verification.verify_all(seed=SEED, profile="quick")
    print()
    print(verification.render_report(report))
    assert report["passed"]
    assert len(report["criteria"]) == 9
    assert [c["index"] for c in report["criteria"]] == list(range(1, 10))
    # the serialized report carries no timing, so a rerun is byte-identical
    blob = json.dumps(report, sort_keys=True)
    _, report2 = verification.verify_all(seed=SEED, profile="quick")
    assert json.dumps(report2, sort_keys=True) == blob
    rendered = verification.render_report(report).encode()
    assert hashlib.sha256(rendered).hexdigest() == QUICK_REPORT_SHA256
