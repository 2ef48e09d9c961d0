"""Acceptance suite: one test per headline criterion, each printing a
PASS/FAIL line.  Every criterion runs the ``fanfree repro`` claims at its
own sizes and seeds; the claims in ``fanfree.repro`` hold all the checks.
Values are exact; the only tolerance is each criterion's wall-clock limit
on the total time of its claims.

Criterion 3 checks the class-constrained star search against the
brute-force enumerator on the nine base cases at k = 3, and the bound_b
inequality on each.  Three rows differ from the reference table in
``base_case_formula``; their claims pass only with a certificate (an empty
class, or witnesses above the reference that realize without a 3-fan) and
name it in their details.  See the README, "Base-case table".
"""

from fanfree.repro import (
    STAR_SMALL,
    claim_audit,
    claim_base_cases,
    claim_bounds_table,
    claim_falsification_guard,
    claim_k_families,
    claim_oracle,
    claim_quad_family,
    claim_star_maxima,
    claim_star_range,
    claim_straight_family,
)

QUAD_SIZES = (8,) + tuple(range(10, 61))
STRAIGHT_SIZES = tuple(range(6, 61))


def _report_claims(cid: str, claims, limit: float):
    seconds = sum(c.seconds for c in claims)
    ok = seconds < limit and all(c.status == "pass" for c in claims)
    detail = "; ".join(f"{c.status.upper()} {c.name}: {c.detail}" for c in claims)
    print(f"ACCEPTANCE {cid}: {'PASS' if ok else 'FAIL'} in {seconds:.1f}s of {limit:.0f}s - {detail}")
    assert ok, f"{cid}: {detail} ({seconds:.1f}s, limit {limit:.0f}s)"


def test_c01_star_puzzle_exact_values():
    _report_claims("C1", claim_star_maxima(STAR_SMALL), 1.0)


def test_c02_star_conjecture_probe():
    _report_claims("C2", claim_star_range((5, 6, 7, 8)), 900.0)


def test_c03_base_case_table():
    _report_claims("C3", claim_base_cases(), 300.0)


def test_c04_quad_extremal_family():
    _report_claims("C4", claim_quad_family(QUAD_SIZES), 60.0)


def test_c05_straight_extremal_family():
    _report_claims("C5", claim_straight_family(STRAIGHT_SIZES), 120.0)


def test_c06_decomposition_audit():
    _report_claims("C6", claim_audit(STRAIGHT_SIZES, samples=200, seed=612612), 300.0)


def test_c07_k_at_least_three_families():
    _report_claims("C7", claim_k_families(), 120.0)


def test_c08_bounds_table_and_nonexistence():
    _report_claims("C8", claim_bounds_table(), 60.0)


def test_c09_oracle_equivalence():
    _report_claims("C9", claim_oracle(500, 909090), 300.0)


def test_c10_falsification_guard():
    _report_claims("C10", claim_falsification_guard((6, 8, 20, 23, 41, 60)), 120.0)
