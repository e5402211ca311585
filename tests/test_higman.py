import math
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from at4tools.exactnum import factorize, is_prime, mult_order, primes_upto
from at4tools.higman import (
    FAIL,
    INAPPLICABLE,
    PASS,
    alpha1_candidates,
    alpha1_residues,
    block_size_filter,
    centralizer_filter,
    chi_numerators,
    cover_congruences,
    cover_fix_bound,
    cover_order_classification,
    exclusion_arithmetic,
    local_fixed_structure,
    solvable_cases,
    spectrum_bounds,
    subconstituent_congruences,
)
from at4tools.at4 import At4Params, IntersectionArray, PerP, closed_forms, feasible_r, intersection_array
from at4tools.srg import local_family_params

from oracles import (
    AutProfile,
    alpha1_expressions_consistent,
    chi_filter,
    chi_values,
    gl_order,
    rational_chi_filter,
    rational_chi_values,
    second_eigenmatrix,
)


def test_chi_values_examples():
    assert chi_values(2, AutProfile(1, 56, 0, 0)) == (Fraction(35), Fraction(20))
    assert chi_values(3, AutProfile(23, 0, 23, 92)) == (Fraction(0), Fraction(-1))
    chi1, _ = chi_values(3, AutProfile(5, 0, 115, 0))
    assert chi1 == Fraction(23, 2)


def test_chi_values_requires_full_profile():
    with pytest.raises(ValueError):
        chi_values(2, AutProfile(2, 1, 2, 3))


def test_chi_values_match_eigenmatrix_route():
    # independent route: chi_i = (1/v) sum_j Q[i][j] alpha_j
    for p in (2, 3, 5, 8):
        v = local_family_params(p).v
        q = second_eigenmatrix(p)
        for profile in [(v, 0, 0), (0, v, 0), (1, p * (p + 3), v - 1 - p * (p + 3)), (0, 2 * (p + 1), v - 2 * (p + 1))]:
            aut = AutProfile(2, *profile)
            chi1, chi2 = chi_values(p, aut)
            assert chi1 == sum(q.rows[1][j] * profile[j] for j in range(3)) / v
            assert chi2 == sum(q.rows[2][j] * profile[j] for j in range(3)) / v


def test_chi_filter_examples():
    assert chi_filter(3, AutProfile(23, 0, 23, 92)).ok
    bad = chi_filter(3, AutProfile(5, 0, 115, 0))
    assert not bad.ok and "chi1-non-integral" in bad.reasons
    assert chi_filter(2, AutProfile(2, 56, 0, 0)).ok
    with pytest.raises(ValueError):
        chi_filter(3, AutProfile(4, 0, 23, 92))


def test_alpha1_candidates_closed_case():
    assert set(alpha1_candidates(3, 23, 0)) == frozenset({23})


def test_alpha1_candidates_small_cases():
    assert set(alpha1_candidates(3, 5, 0)) == frozenset({15, 55, 95})
    assert set(alpha1_candidates(3, 2, 0)) == frozenset()


def test_alpha1_candidates_validation():
    with pytest.raises(ValueError):
        alpha1_candidates(2, 5, 0)
    with pytest.raises(ValueError):
        alpha1_candidates(3, 4, 0)
    with pytest.raises(ValueError):
        alpha1_candidates(3, 5, 24)  # above (p+2)^2 - 2 = 23


def test_alpha1_candidates_against_single_expression_sets():
    # the enumeration equals the intersection of the two single-congruence
    # solution sets, is contained in each, and is non-empty exactly when
    # both congruences agree
    for p in (3, 4, 5, 9):
        v = local_family_params(p).v
        bound = (p + 2) ** 2 - 2
        for ell in [q for q in primes_upto(40)]:
            for fix in (0, 1, 2, 7, bound):
                r1, r2, m = alpha1_residues(p, ell, fix)
                top = v - fix
                set1 = set(range(r1, top + 1, m))
                set2 = set(range(r2, top + 1, m))
                enum = set(alpha1_candidates(p, ell, fix))
                assert enum == set1 & set2
                assert enum <= set1 and enum <= set2
                assert bool(enum) == ((v - fix) % ell == 0)


def test_alpha1_expressions_consistent_small():
    for p in (3, 4, 5):
        for ell in primes_upto((p + 2) ** 2 - 2):
            assert alpha1_expressions_consistent(p, ell)


def test_alpha1_candidates_equal_chi_passing_set():
    # the congruence enumeration is not merely contained in the set of
    # profiles passing the character filter: the two coincide exactly
    v = local_family_params(3).v
    for ell in (2, 3, 5, 23):
        for a0 in (0, 5, 23):
            passing = {
                a1
                for a1 in range(v - a0 + 1)
                if chi_filter(3, AutProfile(ell, a0, a1, v - a0 - a1)).ok
            }
            assert set(alpha1_candidates(3, ell, a0)) == passing


PRIME_POWERS = [p for p in range(3, 1001) if PerP(p).base]
PRIMES_TO_2000 = primes_upto(2000)


@settings(max_examples=1000, deadline=None)
@given(st.data())
def test_alpha1_candidates_match_chi_filter_up_to_p_1000(data):
    # differential check of the residue class against the character filter
    # it encodes, at prime powers p far beyond the exhaustive p = 3 case
    p = data.draw(st.sampled_from(PRIME_POWERS), label="p")
    s = (p + 2) ** 2 - 2
    v = local_family_params(p).v
    # p + 2 <= 1002 is among the primes to 2000 when it is prime
    orders = [ell for ell in PRIMES_TO_2000 if ell <= s]
    if s > 2000 and is_prime(s):
        orders.append(s)
    ell = data.draw(st.sampled_from(orders), label="ell")
    # the class is empty unless ell divides v - fix, so some draws keep to
    # the fix that it divides
    r = v % ell
    fix = data.draw(st.integers(0, s) | st.integers(0, (s - r) // ell).map(lambda t: r + t * ell), label="fix")
    members = alpha1_candidates(p, ell, fix)
    a1s = [data.draw(st.integers(0, v - fix), label="uniform a1")]
    if members:
        a1 = members[data.draw(st.integers(0, len(members) - 1), label="member index")]
        a1s += [a1 - 1, a1, a1 + 1]
    for a1 in a1s:
        if 0 <= a1 <= v - fix:
            profile = AutProfile(ell, fix, a1, v - fix - a1)
            assert (a1 in members) == chi_filter(p, profile).ok, (p, ell, fix, a1)


@settings(max_examples=500, deadline=None)
@given(st.integers(2, 10**4), st.data())
def test_integer_characters_match_the_rational_route(p, data):
    # the numerators over 2(p+1)(p+2) and 2(p+1)s against the term-by-term
    # Fraction sums, on any distribution, on integral ones, and on the
    # alpha_1 class, whose members pass both congruences
    v = local_family_params(p).v
    s = (p + 2) ** 2 - 2
    ell = data.draw(st.sampled_from([q for q in PRIMES_TO_2000 if q <= s]), label="ell")
    # the class is empty unless fix <= s and ell divides v - fix
    r = v % ell
    fix = data.draw(st.integers(0, v) | st.integers(0, (s - r) // ell).map(lambda t: r + t * ell), label="fix")
    a1s = [data.draw(st.integers(0, v - fix), label="a1")]
    # chi_1 = ((p+2)fix + a1 - s) / (2(p+1)) and chi_1 + chi_2 = fix - 1, so
    # both are integers exactly on this class, whatever ell divides
    m = 2 * (p + 1)
    first = (s - (p + 2) * fix) % m
    if first <= v - fix:
        a1s.append(first + m * data.draw(st.integers(0, (v - fix - first) // m), label="integral a1"))
    if p > 2 and fix <= s:
        members = alpha1_candidates(p, ell, fix)
        if members:
            a1 = members[data.draw(st.integers(0, len(members) - 1), label="member index")]
            a1s += [a1 - 1, a1, a1 + 1]
    for a1 in a1s:
        if not 0 <= a1 <= v - fix:
            continue
        profile = AutProfile(ell, fix, a1, v - fix - a1)
        rational = rational_chi_values(p, profile)
        (num1, den1), (num2, den2) = chi_numerators(p, *profile.counts())
        assert (den1, den2) == (2 * (p + 1) * (p + 2), 2 * (p + 1) * s)
        assert num1 * rational[0].denominator == rational[0].numerator * den1
        assert num2 * rational[1].denominator == rational[1].numerator * den2
        assert chi_values(p, profile) == rational
        assert chi_filter(p, profile) == rational_chi_filter(p, profile)


def test_centralizer_alpha1_refinement():
    # feeding the claimed displacement count back through the character
    # congruences keeps only the orders dividing (p+1)/2: at p = 5 the
    # order 2 drops out even though it divides p+1
    assert centralizer_filter(PerP(3))["data"]["alpha1_admissible_orders"] == [2]
    assert centralizer_filter(PerP(5))["data"]["alpha1_admissible_orders"] == [3]
    assert centralizer_filter(PerP(11))["data"]["alpha1_admissible_orders"] == [2, 3]
    assert centralizer_filter(PerP(17))["data"]["alpha1_admissible_orders"] == [3]
    for p in (3, 5, 11, 17, 27):
        rep = centralizer_filter(PerP(p))
        fix = rep["data"]["fixed_set_size"]
        alpha1 = rep["data"]["alpha1"]
        for t in rep["data"]["alpha1_admissible_orders"]:
            assert alpha1 in alpha1_candidates(p, t, fix)
        assert rep["data"]["alpha1_admissible_orders"] == [
            t for t in rep["data"]["admissible_orders"] if (p + 1) // 2 % t == 0
        ]


def test_every_prime_of_p_plus_1_is_below_p_where_the_centralizer_filter_applies():
    # the filter applies only at a prime power p > 2 with s prime; s =
    # 2(2u^2 + 4u + 1) at p = 2u is even and above 2, so p is odd there, and
    # a prime of the even p + 1 is at most (p + 1)/2 < p: the filter's
    # admissible orders are all the primes of p + 1, with no test of t < p
    sympy = pytest.importorskip("sympy")
    u = sympy.Symbol("u")
    even = 2 * u
    assert sympy.expand(even**2 + 4 * even + 2 - 2 * (2 * u**2 + 4 * u + 1)) == 0
    applicable = 0
    for p in range(3, 3000):
        rep = centralizer_filter(PerP(p))
        if rep["verdict"] == INAPPLICABLE:
            continue
        applicable += 1
        primes = [t for t, _ in factorize(p + 1)]
        assert p % 2 == 1 and max(primes) <= (p + 1) // 2 < p
        assert rep["data"]["admissible_orders"] == primes
    assert applicable == 133


def test_local_fixed_structure_order_p():
    rep = local_fixed_structure(PerP(3), 3)
    assert rep["verdict"] == PASS
    assert rep["data"]["case"] == "order-p"
    assert rep["data"]["fix_residue_mod_p"] == 1
    assert rep["data"]["component_valencies"] == [6, 12]
    assert rep["data"]["min_component_order"] == 16
    assert not rep["data"]["fixed_point_free_possible"]


def test_local_fixed_structure_excluded_order():
    rep = local_fixed_structure(PerP(3), 7)
    assert rep["verdict"] == FAIL
    assert rep["data"]["fixed_points_possible"] is False
    assert rep["data"]["fixed_point_free_possible"] is False


def test_local_fixed_structure_small_and_gates():
    rep = local_fixed_structure(PerP(4), 2)
    assert rep["verdict"] == PASS and rep["data"]["case"] == "small-order"
    assert rep["data"]["fixed_point_free_possible"]  # order 2 with p even
    assert local_fixed_structure(PerP(6), 5)["verdict"] == INAPPLICABLE
    assert local_fixed_structure(PerP(2), 5)["verdict"] == INAPPLICABLE
    with pytest.raises(ValueError):
        local_fixed_structure(PerP(3), 4)


def test_cover_congruences_examples():
    assert cover_congruences(closed_forms(At4Params(3, 4)), 5) == (0, 4, 0, 3)
    assert cover_congruences(closed_forms(At4Params(2, 3)), 7) == (0, 0, 0, 2)


def test_subconstituent_congruences_examples():
    assert subconstituent_congruences(closed_forms(At4Params(3, 4)), 5) == (0, 0, 0, 3)
    assert subconstituent_congruences(closed_forms(At4Params(2, 3)), 7) == (4, 6, 1, 2)


def test_congruences_match_layer_sizes():
    # independent route: the residues are the distance-layer sizes mod ell
    for p in range(2, 31):
        for r in feasible_r(PerP(p)):
            cover = intersection_array(At4Params(p, r)).layer_sizes
            f = closed_forms(At4Params(p, r))
            sub = IntersectionArray(f.sub_b, f.sub_c).layer_sizes
            for ell in (2, 3, 5, 7, 11, 13):
                assert cover_congruences(f, ell) == tuple(k % ell for k in cover[1:])
                assert subconstituent_congruences(f, ell) == tuple(k % ell for k in sub[1:])


def test_cover_order_classification():
    rep = cover_order_classification(PerP(11), At4Params(11, 4))
    assert rep["data"]["fixed_point_orders"] == [2, 3, 5, 7, 11, 13, 167]
    assert rep["data"]["fixed_point_free_orders"] == [2, 3, 5]
    rep17 = cover_order_classification(PerP(17), At4Params(17, 3))
    assert 19 in rep17["data"]["fixed_point_orders"]
    assert 359 in rep17["data"]["fixed_point_orders"]
    assert rep17["data"]["fixed_point_free_orders"] == [2, 3, 7]
    rep27 = cover_order_classification(PerP(27), At4Params(27, 4))
    assert 29 in rep27["data"]["fixed_point_orders"]
    assert 839 in rep27["data"]["fixed_point_orders"]
    assert rep27["data"]["fixed_point_free_orders"] == [2, 7, 31]
    assert cover_order_classification(PerP(2), At4Params(2, 3))["verdict"] == INAPPLICABLE


def test_cover_order_case_split_is_exclusive():
    # the fixed-point-free orders never collide with order p+2 or with the
    # large divisors of (p+2)^2 - 2
    for p in range(3, 201):
        rec = PerP(p)
        if not rec.base:
            continue
        rs = feasible_r(rec)
        if not rs:
            continue
        rep = cover_order_classification(rec, At4Params(p, rs[0]))
        free = set(rep["data"]["fixed_point_free_orders"])
        s = (p + 2) ** 2 - 2
        big_divisors = {q for q in free if q > p and s % q == 0}
        assert p + 2 not in free
        assert not big_divisors


def test_case_report_without_data_gets_a_dict_of_its_own():
    inapplicable = centralizer_filter(PerP(4))
    assert inapplicable == {
        "label": "long-element-centralizer",
        "params": (4,),
        "verdict": INAPPLICABLE,
        "conditions": (),
        "data": {},
        "notes": ("requires (p+2)^2 - 2 = 34 prime",),
    }
    assert inapplicable["data"] is not centralizer_filter(PerP(4))["data"]


def test_cover_fix_bound():
    assert cover_fix_bound(At4Params(2, 3)) == 216
    assert cover_fix_bound(At4Params(3, 4)) == 560
    assert cover_fix_bound(At4Params(11, 3)) == 7020


def test_cover_fix_bound_is_r_times_quotient_bound():
    from at4tools.at4 import quotient_params
    from oracles import fixed_point_order_bound

    for p in (2, 3, 5, 11, 17):
        for r in feasible_r(PerP(p)):
            assert cover_fix_bound(At4Params(p, r)) == r * fixed_point_order_bound(quotient_params(p))


def test_block_size_filter():
    assert block_size_filter(PerP(3)) == (1, 5, 23)
    assert block_size_filter(PerP(2)) == (1, 2, 4, 7, 8, 14)
    assert block_size_filter(PerP(11)) == (1, 13, 167)


def test_centralizer_filter():
    rep = centralizer_filter(PerP(3))
    assert rep["verdict"] == PASS
    assert rep["data"]["admissible_orders"] == [2]
    assert rep["data"]["alpha1"] == 92
    assert centralizer_filter(PerP(11))["data"]["admissible_orders"] == [2, 3]
    assert centralizer_filter(PerP(11))["data"]["alpha1"] == 2004
    assert centralizer_filter(PerP(5))["data"]["admissible_orders"] == [2, 3]
    assert centralizer_filter(PerP(5))["data"]["alpha1"] == 282
    assert centralizer_filter(PerP(4))["verdict"] == INAPPLICABLE  # 34 composite


def test_solvable_cases_exclusions():
    rep11 = solvable_cases(PerP(11))
    assert rep11["verdict"] == FAIL
    assert not rep11["data"]["case_i"]["applicable"]  # 13 is not a power of 3
    branch = rep11["data"]["case_ii"][0]
    assert branch["t"] == 13 and branch["e"] >= 2 and not branch["q_composite"]
    rep3 = solvable_cases(PerP(3))
    assert rep3["verdict"] == FAIL
    assert not rep3["data"]["case_i"]["applicable"]  # 5 is not a power of 3
    assert not rep3["data"]["case_ii"][0]["q_composite"]


def test_solvable_cases_p25_both_branches_live():
    rep = solvable_cases(PerP(25))
    assert rep["verdict"] == PASS
    assert rep["data"]["case_i"]["applicable"]  # 27 = 3^3 and 727 = 1 mod 3
    assert rep["data"]["case_ii"][0]["survives"]
    assert solvable_cases(PerP(4))["verdict"] == INAPPLICABLE


def test_solvable_gl_divisibility_against_exact_orders():
    # the modular shortcut in the filter agrees with the literal group order
    for p in (3, 11):
        s = (p + 2) ** 2 - 2
        for branch in solvable_cases(PerP(p))["data"]["case_ii"]:
            t, e = branch["t"], branch["e"]
            assert mult_order(t, s, factorize(s - 1)) == e
            assert (gl_order(e, t) % s == 0) == branch["s_divides_gl_order"]


def test_edge_stabilizer_primes():
    # the edge-stabiliser bound is the part of the spectrum upper bound up to p
    def edge(p):
        bounds = spectrum_bounds(PerP(p))
        return None if bounds is None else bounds[1]

    assert edge(3) == [2, 3]
    assert edge(11) == [2, 3, 5, 7, 11]
    assert edge(27) == [2, 3, 5, 7, 11, 13, 17, 19, 23]
    assert edge(6) is None
    assert edge(2) is None


def test_spectrum_bounds_values():
    # (lower, edge, above): the upper bound is edge + above
    lower, edge, above = spectrum_bounds(PerP(11))
    assert lower == [2, 3, 5, 13, 167]
    assert edge + above == [2, 3, 5, 7, 11, 13, 167]
    lower3, edge3, above3 = spectrum_bounds(PerP(3))
    assert lower3 == [2, 5, 7, 23]
    assert edge3 + above3 == [2, 3, 5, 7, 23]
    lower5, edge5, above5 = spectrum_bounds(PerP(5))
    assert lower5 == [2, 3, 7, 47]
    assert edge5 + above5 == [2, 3, 5, 7, 47]
    assert spectrum_bounds(PerP(12)) is None


def test_exclusion_arithmetic_p11():
    rep = exclusion_arithmetic(PerP(11))
    assert rep["verdict"] == PASS
    assert rep["data"]["s"] == 167 and rep["data"]["s_prime"]
    assert rep["data"]["q"] == 13 and rep["data"]["q_prime"]
    assert rep["data"]["psl2_s_order"] == 2328648
    assert rep["data"]["gcd_s2_minus_1_q"] == 1
    assert rep["data"]["gcd_divides_3"]


def test_exclusion_arithmetic_p17_and_composite():
    assert exclusion_arithmetic(PerP(17))["data"]["s"] == 359
    assert exclusion_arithmetic(PerP(17))["verdict"] == PASS
    rep4 = exclusion_arithmetic(PerP(4))
    assert rep4["verdict"] == FAIL and not rep4["data"]["s_prime"]


def test_gcd_with_q_always_divides_3():
    # s = p^2 + 4p + 2 = q^2 - 2 with q = p + 2, so s = -2 (mod q) and
    # s^2 - 1 = 3 (mod q): the gcd of s^2 - 1 and q is the gcd of 3 and q
    # at every p, proven over Z[p] and checked on the reports up to 100
    sympy = pytest.importorskip("sympy")
    P = sympy.Symbol("p", integer=True)
    s, q = P**2 + 4 * P + 2, P + 2
    for dividend in (s + 2, s**2 - 1 - 3):
        quotient, remainder = sympy.div(dividend, q, P)
        assert remainder == 0
        assert all(c.is_integer for c in sympy.Poly(quotient, P).coeffs())
    for p in range(2, 101):
        assert PerP(p).s == s.subs(P, p)
        data = exclusion_arithmetic(PerP(p))["data"]
        assert data["gcd_divides_3"] and data["gcd_s2_minus_1_q"] == math.gcd(3, p + 2)


def test_s_is_1_mod_3_when_q_is_a_power_of_3():
    # p + 2 = 3^k gives s = 9^k - 2 and s - 1 = 3(3^(2k-1) - 1) for k >= 1,
    # so solvable_cases reads its branch one, which asks for s = 1 mod 3 as
    # well, off p + 2 being a power of 3 alone
    sympy = pytest.importorskip("sympy")
    P, K = sympy.symbols("p k", integer=True, positive=True)
    s = (P**2 + 4 * P + 2).subs(P, 3**K - 2)
    assert sympy.simplify(s - (9**K - 2)) == 0
    assert sympy.simplify((s - 1) / 3 - (3 ** (2 * K - 1) - 1)) == 0
    # p = 3^k - 2 >= 2 from k = 2 on
    for k in range(2, 10):
        assert PerP(3**k - 2).s % 3 == 1
