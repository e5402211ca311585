import copy
import pickle
from fractions import Fraction

import pytest

from at4tools.at4 import (
    At4Params,
    _params_violation,
    EQUALITY,
    IntersectionArray,
    PerP,
    STRICT,
    VIOLATED,
    closed_forms,
    feasible_r,
    fundamental_bound_check,
    intersection_array,
    quotient_params,
    records,
    second_subconstituent_quotient,
)
from at4tools.exactnum import exact_sqrt, factorize
from at4tools.srg import srg_spectrum

from oracles import antipodal_check


# Numeric oracle: the eigenvalues of an intersection array read from the
# characteristic polynomial of its tridiagonal matrix, and the local
# parameters read back from b_1 and two eigenvalues.  The package uses the
# closed forms instead; these tests hold them to this independent route.


def char_poly(arr: IntersectionArray) -> list[int]:
    """Characteristic polynomial of the tridiagonal intersection matrix,
    as integer coefficients in ascending degree order (monic)."""
    a = arr.a
    sub = arr.c  # entries below the diagonal: c_1..c_d
    sup = arr.b  # entries above the diagonal: b_0..b_{d-1}
    prev: list[int] = [1]
    cur: list[int] = [-a[0], 1]
    for i in range(1, arr.diameter + 1):
        # next = (x - a_i) * cur - b_{i-1} c_i * prev
        shifted = [0] + cur
        scaled = [a[i] * x for x in cur] + [0]
        offdiag = sup[i - 1] * sub[i - 1]
        nxt = [
            s - t - (offdiag * prev[j] if j < len(prev) else 0)
            for j, (s, t) in enumerate(zip(shifted, scaled))
        ]
        prev, cur = cur, nxt
    return cur


def _poly_eval(coeffs: list[int], x: int) -> int:
    out = 0
    for c in reversed(coeffs):
        out = out * x + c
    return out


def _deflate(coeffs: list[int], root: int) -> list[int]:
    # synthetic division by (x - root); remainder must vanish
    out = [0] * (len(coeffs) - 1)
    carry = 0
    for i in range(len(coeffs) - 1, 0, -1):
        carry = coeffs[i] + root * carry
        out[i - 1] = carry
    assert coeffs[0] + root * carry == 0, "not a root"
    return out


def charpoly_eigenvalues(arr: IntersectionArray, p: int) -> tuple[int, ...]:
    """All five eigenvalues of a candidate array at p, descending.

    Three are located independently: the valency, and theta_1/theta_4
    reconstructed by inverting the local-parameter relations with q = p + 2.
    Each is verified as a root of the characteristic polynomial computed
    from the array alone; the remaining two come from the deflated quadratic.
    """
    poly = char_poly(arr)
    b1 = arr.b[1]
    roots = [arr.b[0], -1 + b1 // (p + 1), -1 - b1 // (1 + p)]
    for root in roots:
        assert _poly_eval(poly, root) == 0, f"{root} is not an eigenvalue of {arr}"
        poly = _deflate(poly, root)
    # poly is now monic quadratic x^2 + ux + w
    u, w = poly[1], poly[0]
    disc = exact_sqrt(u * u - 4 * w)
    assert disc is not None and (u + disc) % 2 == 0, f"irrational middle eigenvalues for {arr}"
    roots += [(-u + disc) // 2, (-u - disc) // 2]
    assert len(set(roots)) == 5
    return tuple(sorted(roots, reverse=True))


def local_eigen_from_array(b1: int, theta1, theta4) -> tuple[Fraction, Fraction]:
    """Local eigenvalue parameters (p, q) recovered from b_1 and the second
    and last eigenvalues: p = -1 - b1/(1+theta4), q = 1 + b1/(1+theta1).

    b1 = 0 degenerates to (-1, 1), which no valid candidate attains."""
    if theta1 == -1 or theta4 == -1:
        raise ValueError("theta = -1 makes the local parameters undefined")
    return (-1 - Fraction(b1, 1 + theta4), 1 + Fraction(b1, 1 + theta1))


def test_params_validation():
    At4Params(2, 3)
    At4Params(3, 4)  # 2*3*4*5/4 = 30 is even
    with pytest.raises(ValueError):
        At4Params(1, 3)
    with pytest.raises(ValueError):
        At4Params(5, 2)  # r must exceed 2
    with pytest.raises(ValueError):
        At4Params(5, 7)  # r must be below p + 2
    with pytest.raises(ValueError):
        At4Params(11, 5)  # 5 does not divide 24
    with pytest.raises(ValueError):
        At4Params(5, 4)  # 420/4 = 105 is odd


def test_params_check_is_looked_up_on_the_class(monkeypatch):
    # a tracer replaces At4Params.__post_init__ to count constructions
    seen = []
    check = At4Params.__post_init__
    monkeypatch.setattr(At4Params, "__post_init__", lambda self: seen.append(tuple(self)) or check(self))
    At4Params(2, 3)
    with pytest.raises(ValueError):
        At4Params(5, 4)
    assert seen == [(2, 3), (5, 4)]


def test_records_are_immutable_tuples_with_their_repr():
    params = At4Params(2, 3)
    assert params == (2, 3) and hash(params) == hash((2, 3))
    assert repr(params) == "At4Params(p=2, r=3)"
    arr = intersection_array(params)
    assert repr(arr) == "IntersectionArray(b=(56, 45, 16, 1), c=(1, 8, 45, 56))"
    assert arr._asdict() == {
        "b": (56, 45, 16, 1),
        "c": (1, 8, 45, 56),
        "a": (0, 10, 32, 10, 0),
        "layer_sizes": (1, 56, 315, 112, 2),
    }
    for record in (params, arr):
        with pytest.raises(AttributeError):
            setattr(record, record._fields[0], ())
        assert copy.deepcopy(record) == record == pickle.loads(pickle.dumps(record))
    # _replace builds a new record through the same checks
    with pytest.raises(ValueError):
        params._replace(r=4)
    with pytest.raises(ValueError):
        arr._replace(c=(2, 8, 45, 56))
    assert arr._replace(b=(56, 45, 16, 2), c=(1, 8, 45, 28)).layer_sizes == (1, 56, 315, 112, 8)


def test_feasible_r():
    assert feasible_r(PerP(2)) == (3,)
    assert feasible_r(PerP(3)) == (4,)
    assert feasible_r(PerP(5)) == (3, 6)
    assert feasible_r(PerP(11)) == (3, 4, 6, 12)


def test_perp_base():
    assert PerP(27).base == (3, 3)
    assert PerP(12).base is None
    assert PerP(11).base == (11, 1)
    with pytest.raises(ValueError):
        PerP(1)


def test_perp_fields_and_lazy_factorizations():
    rec = PerP(11)
    assert (rec.p, rec.q, rec.s, rec.q_prime, rec.s_prime) == (11, 13, 167, True, True)
    assert (PerP(4).q_prime, PerP(4).s_prime) == (False, False)
    # only p is factorised on construction; any other number at first use
    assert dict(rec) == {11: [(11, 1)]}
    assert rec[12] == factorize(12) and rec[166] == factorize(166)
    assert [*rec] == [11, 12, 166]


def test_records_of_a_range_equal_the_records_built_alone():
    # 2..2100 spans three sieve segments; the others are windows of a scan
    for lo, hi in ((2, 2100), (10**6 - 3, 10**6 + 10), (10**9, 10**9 + 13), (10**12 - 5, 10**12 + 5)):
        recs = [*records(lo, hi)]
        assert [rec.p for rec in recs] == [*range(lo, hi + 1)]
        for rec in recs:
            p, alone = rec.p, PerP(rec.p)
            # p, p+1, p+2 and p+4 are held from the construction on
            assert dict(rec) == {n: alone[n] for n in (p, p + 1, p + 2, p + 4)}, p
            fields = ("p", "q", "s", "base", "q_prime", "s_prime")
            assert [getattr(rec, f) for f in fields] == [getattr(alone, f) for f in fields], p
    assert [*records(5, 4)] == []


def test_intersection_array_values():
    assert intersection_array(At4Params(2, 3)).b == (56, 45, 16, 1)
    assert intersection_array(At4Params(2, 3)).c == (1, 8, 45, 56)
    assert intersection_array(At4Params(11, 4)).b == (2171, 2016, 234, 1)
    assert intersection_array(At4Params(11, 4)).c == (1, 78, 2016, 2171)
    # direct substitution at (3, 4): c2 = 2*4*5/4 = 10, b2 = 3*10 = 30
    arr = intersection_array(At4Params(3, 4))
    assert arr.b == (115, 96, 30, 1) and arr.c == (1, 10, 96, 115)


def test_intersection_array_type_validation():
    with pytest.raises(ValueError):
        IntersectionArray((4, 2), (2, 1))  # c1 != 1
    with pytest.raises(ValueError):
        IntersectionArray((2, 3), (1, 1))  # a1 = 2 - 3 - 1 < 0
    with pytest.raises(ValueError):
        IntersectionArray((5, 3), (1, 2))  # layer size 5*3/2 not integral
    with pytest.raises(ValueError):
        IntersectionArray((4, 0), (1, 1))  # entries must be positive


def test_antipodal_check():
    arr = intersection_array(At4Params(2, 3))
    assert antipodal_check(arr) == (True, Fraction(3))
    arr34 = intersection_array(At4Params(3, 4))
    assert antipodal_check(arr34) == (True, Fraction(4))
    # formally valid diameter-4 array with b_0 != c_4
    not_antipodal = IntersectionArray((4, 2, 2, 2), (1, 1, 1, 2))
    assert antipodal_check(not_antipodal) == (False, None)


def test_quotient_params():
    assert quotient_params(2) == (162, 56, 10, 24)
    assert quotient_params(3) == (392, 115, 18, 40)
    assert quotient_params(11) == (16200, 2171, 154, 312)


def test_p_plus_1_is_a_candidate_r_at_every_p():
    # so no scan entry has an empty list of arrays: r = p + 1 divides
    # 2(p+1), lies strictly between 2 and p + 2, and 2p(p+1)(p+2)/r =
    # 2p(p+2) is even
    for p in range(2, 10**4 + 1):
        assert _params_violation(p, p + 1) is None


def test_second_subconstituent_quotient():
    assert second_subconstituent_quotient(2) == (105, 32, 4, 12)
    assert second_subconstituent_quotient(3) == (276, 75, 10, 24)
    assert second_subconstituent_quotient(5) == (1128, 245, 28, 60)


def test_second_subconstituent_array():
    f = closed_forms(At4Params(2, 3))
    assert f.sub_b == (32, 27, 8, 1) and f.sub_c == (1, 4, 27, 32)
    f = closed_forms(At4Params(3, 4))
    assert f.sub_b == (75, 64, 18, 1) and f.sub_c == (1, 6, 64, 75)
    f = closed_forms(At4Params(5, 3))
    assert f.sub_b == (245, 216, 40, 1) and f.sub_c == (1, 20, 216, 245)


def test_fundamental_bound_soicher_values():
    assert fundamental_bound_check(56, 10, 45, 14, -16) == EQUALITY
    shift = Fraction(56, 11)
    assert (14 + shift) * (-16 + shift) == Fraction(-25200, 121)
    assert Fraction(-56 * 10 * 45, 121) == Fraction(-25200, 121)


def test_fundamental_bound_perturbed():
    assert fundamental_bound_check(56, 10, 45, 15, -16) == VIOLATED
    assert fundamental_bound_check(56, 10, 45, 14, -15) == STRICT


def test_fundamental_bound_zero_a1():
    # right side vanishes when a1 = 0
    assert fundamental_bound_check(4, 0, 3, 2, -2) == STRICT
    assert fundamental_bound_check(4, 0, 3, 2, -5) == VIOLATED
    with pytest.raises(ValueError):
        fundamental_bound_check(4, -1, 3, 2, -2)


def test_local_eigen_from_array():
    assert local_eigen_from_array(45, 14, -16) == (Fraction(2), Fraction(4))
    assert local_eigen_from_array(96, 23, -25) == (Fraction(3), Fraction(5))
    assert local_eigen_from_array(0, 14, -16) == (Fraction(-1), Fraction(1))
    with pytest.raises(ValueError):
        local_eigen_from_array(45, -1, -16)


def test_triple_constant():
    assert closed_forms(At4Params(2, 3)).triple_constant == 2
    assert closed_forms(At4Params(3, 4)).triple_constant == 2
    assert closed_forms(At4Params(11, 3)).triple_constant == 8


def test_derived_counts():
    f = closed_forms(At4Params(2, 3))
    assert f.vertices == 486
    assert f.vertices // 3 == 162  # antipodal classes
    assert f.layer_sizes == (1, 56, 315, 112, 2)
    assert f.triple_constant == 2


def test_eigenvalues_soicher():
    arr = intersection_array(At4Params(2, 3))
    assert closed_forms(At4Params(2, 3)).eigenvalues == (56, 14, 2, -4, -16)
    assert charpoly_eigenvalues(arr, 2) == (56, 14, 2, -4, -16)


def test_eigenvalues_match_closed_form():
    # independent route over every candidate with p <= 100: the
    # characteristic polynomial of the validated tridiagonal array, against
    # the closed forms the reports use
    for p in range(2, 101):
        expected = ((p + 2) * (p * p + 4 * p + 2), p * p + 4 * p + 2, p, -(p + 2), -((p + 2) ** 2))
        for r in feasible_r(PerP(p)):
            params = At4Params(p, r)
            f = closed_forms(params)
            arr = intersection_array(params)
            assert f.eigenvalues == charpoly_eigenvalues(arr, p) == expected
            assert (f.a, f.layer_sizes, f.vertices) == (arr.a, arr.layer_sizes, sum(arr.layer_sizes))
            sub = IntersectionArray(f.sub_b, f.sub_c)  # validates integrality and a_i >= 0
            assert antipodal_check(sub) == (True, r)


def test_char_poly_petersen_style():
    # diameter-2 check on {3, 2; 1, 1}: eigenvalues 3, 1, -2
    poly = char_poly(IntersectionArray((3, 2), (1, 1)))
    assert len(poly) == 4 and poly[-1] == 1
    roots = {x for x in range(-10, 11) if sum(c * x**i for i, c in enumerate(poly)) == 0}
    assert roots == {3, 1, -2}


def test_generated_arrays_invariants():
    for p in range(2, 201):
        params_list = [At4Params(p, r) for r in feasible_r(PerP(p))]
        for params in params_list:
            arr = intersection_array(params)
            ok, r_back = antipodal_check(arr)
            assert ok and r_back == params.r
            sizes = arr.layer_sizes
            assert all(k > 0 for k in sizes)
            v = closed_forms(params).vertices
            assert v == sum(sizes)
            # quotient read off the array equals the closed-form quotient
            quot = (v // params.r, arr.b[0], arr.a[1], params.r * arr.c[1])
            assert quot == quotient_params(p)
            # the generic antipodal quotient mu = r*c2 agrees with 2(p+1)(p+2)
            assert params.r * arr.c[1] == 2 * (p + 1) * (p + 2)
            # second subconstituent is antipodal with the same index
            f = closed_forms(params)
            sub = IntersectionArray(f.sub_b, f.sub_c)
            ok2, r2 = antipodal_check(sub)
            assert ok2 and r2 == params.r
            # and its quotient, read off its array, is the closed-form one
            sub_quot = (sum(sub.layer_sizes) // params.r, sub.b[0], sub.a[1], params.r * sub.c[1])
            assert sub_quot == second_subconstituent_quotient(p)


def test_generated_arrays_are_tight():
    for p in range(2, 101):
        for r in feasible_r(PerP(p)):
            arr = intersection_array(At4Params(p, r))
            theta1 = -1 + arr.b[1] // (p + 1)
            theta4 = -1 - arr.b[1] // (p + 1)
            recovered = local_eigen_from_array(arr.b[1], theta1, theta4)
            assert recovered == (p, p + 2)
            assert fundamental_bound_check(arr.b[0], arr.a[1], arr.b[1], theta1, theta4) == EQUALITY


def test_quotient_spectra_agree():
    for p in (2, 3, 5, 11, 27):
        spec = srg_spectrum(quotient_params(p))
        assert (spec.theta_pos, spec.theta_neg) == (p, -((p + 2) ** 2))
        spec2 = srg_spectrum(second_subconstituent_quotient(p))
        assert (spec2.theta_pos, spec2.theta_neg) == (p, -(p * p + 2 * p + 2))
