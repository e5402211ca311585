"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines alongside the pytest verdicts.
"""

from fractions import Fraction

from at4tools.at4 import (
    At4Params,
    EQUALITY,
    feasible_r,
    fundamental_bound_check,
    intersection_array,
)
from at4tools.exactnum import prime_power_base, primes_upto
from at4tools.graphcheck import audit_family_graph, verify_srg
from at4tools.higman import (
    alpha1_candidates,
    exclusion_arithmetic,
    spectrum_bounds,
)
from at4tools.srg import SrgParams, family_multiplicities, local_family_params, srg_spectrum

from oracles import AutProfile, alpha1_expressions_consistent, chi_filter


def test_criterion_1_soicher_array():
    arr = intersection_array(At4Params(2, 3))
    assert arr.b == (56, 45, 16, 1)
    assert arr.c == (1, 8, 45, 56)
    print("criterion 1 (distance-transitive 486-vertex array reproduced): PASS")


def test_criterion_2_fundamental_bound_equality():
    checked = 0
    for p in range(2, 101):
        for r in feasible_r(p):
            arr = intersection_array(At4Params(p, r))
            theta1 = -1 + arr.b[1] // (p + 1)
            theta4 = -1 - arr.b[1] // (p + 1)
            assert fundamental_bound_check(arr.b[0], arr.a[1], arr.b[1], theta1, theta4) == EQUALITY
            checked += 1
    # spot value at p = 2: both sides equal -25200/121
    shift = Fraction(56, 11)
    lhs = (14 + shift) * (-16 + shift)
    rhs = Fraction(-56 * 10 * 45, 11**2)
    assert lhs == rhs == Fraction(-25200, 121)
    print(f"criterion 2 (fundamental bound equality on {checked} arrays, p <= 100): PASS")


def test_criterion_3_family_spectrum():
    for p in range(2, 201):
        spec = srg_spectrum(local_family_params(p))
        n1, n2 = family_multiplicities(p)
        assert spec.k == p * (p + 3) and not spec.conference
        assert (spec.theta_pos, spec.m_pos) == (p, n1)
        assert (spec.theta_neg, spec.m_neg) == (-(p + 2), n2)
    print("criterion 3 (family spectrum for p in 2..200): PASS")


def test_criterion_4_gewirtz_end_to_end(gewirtz, gewirtz_witnesses):
    assert verify_srg(gewirtz) == SrgParams(56, 10, 0, 2)
    assert len(set(gewirtz_witnesses)) >= 100
    report = audit_family_graph(gewirtz, 2, gewirtz_witnesses)
    assert not report["failures"] and report["passed"] == len(gewirtz_witnesses)
    ident = tuple(range(56))
    for sigma in gewirtz_witnesses:
        if sigma != ident:
            assert sum(sigma[v] == v for v in range(56)) <= 14
    print(
        f"criterion 4 (56-vertex witness: self-validated, {report['total']} automorphisms "
        "audited, fixed subgraphs <= 14): PASS"
    )


def test_criterion_5_alpha1_closed_case_and_agreement():
    assert set(alpha1_candidates(3, 23, 0)) == frozenset({23})
    pairs = 0
    for p in range(3, 51):
        if not prime_power_base(p):
            continue
        for ell in primes_upto((p + 2) ** 2 - 2):
            assert alpha1_expressions_consistent(p, ell)
            pairs += 1
    print(
        "criterion 5 (alpha1 = 23 at the closed case; both expressions agree on "
        f"{pairs} (p, order) pairs across all fixed-point counts): PASS"
    )


def test_criterion_6_exclusion_arithmetic():
    expected_s = {3: 23, 5: 47, 11: 167, 17: 359, 27: 839}
    for p, s in expected_s.items():
        rep = exclusion_arithmetic(p)
        assert rep["verdict"] == "pass"
        assert rep["data"]["s"] == s and rep["data"]["s_prime"] and rep["data"]["q_prime"]
    for p in (4, 8, 9, 16, 25):
        rep = exclusion_arithmetic(p)
        assert rep["verdict"] == "fail"
        assert not (rep["data"]["q_prime"] and rep["data"]["s_prime"])
    print("criterion 6 (primality gates at p in {3,5,11,17,27} and their prime-power foils): PASS")


def test_criterion_7_spectrum_bound_consistency():
    checked = 0
    for p in range(3, 201):
        if not prime_power_base(p):
            continue
        bounds = spectrum_bounds(p)
        assert bounds is not None
        lower, edge, above = bounds
        upper = edge + above
        assert set(lower) <= set(upper)
        assert set(primes_upto(p)) <= set(upper)
        assert upper == sorted(set(upper))
        checked += 1
    print(f"criterion 7 (spectrum sandwich holds at {checked} prime powers p <= 200): PASS")


def test_criterion_8_brute_force_oracle_p3():
    v = local_family_params(3).v
    assert v == 115
    for ell in (2, 3, 5, 23):
        passing: dict[int, set[int]] = {}
        for a0 in range(24):
            good = set()
            for a1 in range(v - a0 + 1):
                profile = AutProfile(ell, a0, a1, v - a0 - a1)
                if chi_filter(3, profile).ok:
                    good.add(a1)
            passing[a0] = good
        for a0 in range(24):
            enum = set(alpha1_candidates(3, ell, a0))
            assert enum <= passing[a0]
    print("criterion 8 (exhaustive p = 3 profile scan dominates the congruence enumeration): PASS")
