import itertools
from fractions import Fraction

import pytest

from at4tools.srg import (
    SpectrumError,
    SrgParams,
    clique_bound,
    family_multiplicities,
    feasibility_basic,
    local_family_params,
    srg_spectrum,
)

from oracles import fixed_point_order_bound, second_eigenmatrix


def test_local_family_params():
    assert local_family_params(2) == (56, 10, 0, 2)
    assert local_family_params(3) == (115, 18, 1, 3)
    assert local_family_params(11) == (2171, 154, 9, 11)
    with pytest.raises(ValueError):
        local_family_params(1)


def test_spectrum_gewirtz_params():
    spec = srg_spectrum(SrgParams(56, 10, 0, 2))
    assert (spec.k, spec.theta_pos, spec.m_pos, spec.theta_neg, spec.m_neg) == (10, 2, 35, -4, 20)
    assert not spec.conference


def test_spectrum_p3_member():
    spec = srg_spectrum(SrgParams(115, 18, 1, 3))
    assert (spec.theta_pos, spec.m_pos, spec.theta_neg, spec.m_neg) == (3, 69, -5, 45)


def test_spectrum_conference_pentagon():
    spec = srg_spectrum(SrgParams(5, 2, 0, 1))
    assert spec.conference
    assert spec.theta_pos is None and spec.theta_neg is None
    assert spec.m_pos == spec.m_neg == 2


def test_spectrum_rejects_bad_identity():
    with pytest.raises(SpectrumError):
        srg_spectrum(SrgParams(8, 3, 0, 1))


def test_family_spectrum_formulas():
    for p in range(2, 201):
        params = local_family_params(p)
        spec = srg_spectrum(params)
        n1, n2 = family_multiplicities(p)
        assert spec.k == p * (p + 3)
        assert (spec.theta_pos, spec.m_pos) == (p, n1)
        assert (spec.theta_neg, spec.m_neg) == (-(p + 2), n2)
        assert 1 + spec.m_pos + spec.m_neg == params.v


def test_second_eigenmatrix_entries():
    q2 = second_eigenmatrix(2)
    assert q2.rows[0] == (1, 1, 1)
    assert q2.rows[1] == (Fraction(35), Fraction(7), Fraction(-7, 3))
    q3 = second_eigenmatrix(3)
    assert q3.rows[2] == (Fraction(45), Fraction(-25, 2), Fraction(15, 8))
    for p in (2, 5, 17, 40):
        assert second_eigenmatrix(p).entry(0, 0) == 1


def test_second_eigenmatrix_reproduces_characters_route():
    # weighting row i by the distance-class sizes gives (v, 0, 0)
    for p in range(2, 41):
        params = local_family_params(p)
        q = second_eigenmatrix(p)
        kvec = (1, params.k, params.v - params.k - 1)
        sums = [sum(kvec[j] * q.rows[i][j] for j in range(3)) for i in range(3)]
        assert sums == [params.v, 0, 0]


def test_second_eigenmatrix_orthogonality():
    # rows are orthogonal under the distance-class weights, with squared
    # norms v * (eigenspace dimension)
    for p in (2, 3, 5, 11, 17):
        params = local_family_params(p)
        q = second_eigenmatrix(p)
        n1, n2 = family_multiplicities(p)
        dims = (1, n1, n2)
        kvec = (1, params.k, params.v - params.k - 1)
        for i in range(3):
            for i2 in range(3):
                dot = sum(kvec[j] * q.rows[i][j] * q.rows[i2][j] for j in range(3))
                assert dot == (params.v * dims[i] if i == i2 else 0)


def test_second_eigenmatrix_column_orthogonality():
    # columns are orthogonal under inverse-multiplicity weights, with
    # squared norms v / (distance-class size)
    for p in (2, 3, 5, 11):
        params = local_family_params(p)
        q = second_eigenmatrix(p)
        n1, n2 = family_multiplicities(p)
        dims = (1, n1, n2)
        kvec = (1, params.k, params.v - params.k - 1)
        for j in range(3):
            for j2 in range(3):
                dot = sum(q.rows[i][j] * q.rows[i][j2] / Fraction(dims[i]) for i in range(3))
                assert dot == (Fraction(params.v, kvec[j]) if j == j2 else 0)


def test_clique_bound():
    assert clique_bound(2) == 16
    assert clique_bound(3) == 25
    assert clique_bound(11) == 169


def test_fixed_point_order_bound():
    assert fixed_point_order_bound(SrgParams(56, 10, 0, 2)) == 14
    assert fixed_point_order_bound(SrgParams(115, 18, 1, 3)) == 23
    # antipodal quotient instance at p = 3: (p+1)(p+2)(p+4)
    assert fixed_point_order_bound(SrgParams(392, 115, 18, 40)) == 140
    with pytest.raises(SpectrumError):
        fixed_point_order_bound(SrgParams(5, 2, 0, 1))


def test_fixed_point_order_bound_family_closed_form():
    for p in range(2, 201):
        assert fixed_point_order_bound(local_family_params(p)) == (p + 2) ** 2 - 2


def test_feasibility_basic():
    assert feasibility_basic(SrgParams(56, 10, 0, 2))["ok"]
    assert feasibility_basic(SrgParams(10, 3, 0, 1))["ok"]
    bad = feasibility_basic(SrgParams(8, 3, 0, 1))
    assert not bad["ok"] and "counting-identity" in bad["reasons"]


def test_negative_discriminant_is_a_spectrum_error():
    # (lam - mu)^2 + 4(k - mu) < 0 with the counting identity holding, also
    # with no negative entry: the screen fails them, it does not raise
    with pytest.raises(SpectrumError, match="negative discriminant"):
        srg_spectrum(SrgParams(1, 0, 0, 1))
    negative = 0
    for v, (k, lam, mu) in itertools.product(range(12), itertools.product(range(-4, 12), repeat=3)):
        params = SrgParams(v, k, lam, mu)
        verdict = feasibility_basic(params)
        if params.identity_holds() and (lam - mu) ** 2 + 4 * (k - mu) < 0:
            negative += 1
            assert not verdict["ok"] and "negative-discriminant" in verdict["reasons"]
    assert negative == 253


@pytest.mark.parametrize(
    "params, reasons",
    [
        # one tuple per spectrum failure that a search over v < 30 and
        # k, lam, mu in -4..29 reaches with the counting identity holding
        ((1, 0, 0, 1), ["negative-discriminant"]),
        ((7, 3, 0, 2), ["irrational-spectrum"]),
        ((1, 0, 0, 0), ["repeated-eigenvalue"]),
        ((5, 1, 0, 0), ["non-integral-multiplicities"]),
        ((0, -4, -2, 4), ["negative-parameter", "negative-multiplicity"]),
    ],
)
def test_feasibility_basic_names_the_spectrum_failure(params, reasons):
    params = SrgParams(*params)
    assert params.identity_holds()
    assert feasibility_basic(params) == {"ok": False, "reasons": reasons}
    with pytest.raises(SpectrumError) as err:
        srg_spectrum(params)
    assert err.value.reason == reasons[-1]
