"""Proof of the closed forms the reports use, as identities over Q[p, r, x].

The reports compute each closed form once and check none of them at run
time: this file is where they are proven, for every p.  The functions run
here on sympy symbols, so the formulas proven are the ones the program
evaluates.  ``at4.closed_forms`` is the composition of the per-p part of
the forms, ``at4.p_forms``, and their per-r part, ``at4.r_forms``, which
the scan writer prints; ``at4.quotient_params``,
``at4.second_subconstituent_quotient`` and ``srg.local_family_params`` run
at p = n + 2 with n >= 0, on which their refusal of p < 2 evaluates to
False.  The local graph's spectrum, multiplicities and fixed-point bound
s, and both quotients' spectra and multiplicities, are proven here rather
than solved per report.  sympy turns each floor division ``//`` into
``floor(...)``; the proof reads it as the exact quotient, and
``test_every_division_is_exact_for_a_candidate`` and ``exact_per_p`` show
that each quotient is an integer for every pair (p, r) that passes
``at4._params_violation``.
"""

import pytest

from at4tools import at4, srg

sympy = pytest.importorskip("sympy")

P, R, X, U = sympy.symbols("p r x u")
# p = n + 2 with n >= 0: the functions that refuse p < 2 run on it
N = sympy.Symbol("n", integer=True, nonnegative=True)
S = P**2 + 4 * P + 2
THETA = (P + 2) * S, S, P, -(P + 2), -((P + 2) ** 2)


def exact(value):
    """``value`` with every floor(q) read as the quotient q, in lowest terms."""
    return sympy.cancel(sympy.sympify(value).replace(sympy.floor, lambda q: q))


RAW = at4.closed_forms((P, R))
F = at4.ClosedForms(*(exact(v) if not isinstance(v, tuple) else tuple(map(exact, v)) for v in RAW))


def same(lhs, rhs) -> bool:
    return sympy.cancel(lhs - rhs) == 0


def integer_valued_multiple(q, unit) -> bool:
    """q = unit * f(p) for a polynomial f that takes integer values on every
    integer p: f of degree d is so exactly when f(0), ..., f(d) are integers."""
    f = sympy.cancel(q / unit)
    if not f.free_symbols <= {P} or not f.is_polynomial(P):
        return False
    degree = sympy.Poly(f, P).degree()
    return all(f.subs(P, i).is_integer for i in range(max(degree, 0) + 1))


def exact_per_p(values) -> tuple:
    """``values``, per-p forms made at p or at p = n + 2, as expressions in
    p with each floor read as its quotient, once each quotient is shown to
    be an integer-valued polynomial in p: each division is then exact."""
    values = [sympy.sympify(v).subs(N, P - 2) for v in values]
    for floor in set().union(*(v.atoms(sympy.floor) for v in values)):
        assert integer_valued_multiple(exact(floor.args[0]), 1), floor
    return tuple(map(exact, values))


def tridiagonal(b, c):
    """The intersection matrix with a_i = b_0 - b_i - c_i on the diagonal."""
    d = len(b)
    b0 = b[0]
    bb, cc = (*b, 0), (0, *c)
    m = sympy.zeros(d + 1, d + 1)
    for i in range(d + 1):
        m[i, i] = b0 - bb[i] - cc[i]
        if i < d:
            m[i, i + 1] = bb[i]
            m[i + 1, i] = cc[i + 1]
    return m


def char_poly(b, c):
    return tridiagonal(b, c).charpoly(X).as_expr()


def srg_spectrum_holds(v, k, lam, mu, theta, tau) -> bool:
    """theta and tau are the non-principal eigenvalues of an SRG(v, k, lam,
    mu): the roots of x^2 - (lam - mu) x - (k - mu)."""
    return same(theta + tau, lam - mu) and same(theta * tau, mu - k)


def test_eigenvalues_are_the_roots_of_the_characteristic_polynomial():
    assert all(map(same, F.eigenvalues, THETA))
    product = sympy.Mul(*(X - theta for theta in F.eigenvalues))
    assert same(char_poly(F.b, F.c), product)


def test_array_shape_and_a_from_its_definition():
    b, c = F.b, F.c
    # antipodal: b_i = c_{4-i} for i in {0, 1, 3}, and 1 + b_2/c_2 = r
    assert (b[0], b[1], b[3]) == (c[3], c[2], c[0]) and c[0] == 1
    assert same(1 + b[2] / c[1], R)
    definition = tuple(b[0] - bi - ci for bi, ci in zip((*b, 0), (0, *c)))
    assert all(map(same, F.a, definition))


def test_layer_sizes_and_vertex_count():
    b, c, k = F.b, F.c, F.layer_sizes
    # k_0 = 1 and k_{i+1} c_{i+1} = k_i b_i, the definition of the layer sizes
    assert k[0] == 1
    assert all(same(k[i + 1] * c[i], k[i] * b[i]) for i in range(4))
    closed = (1, b[0], b[0] * b[1] / c[1], (R - 1) * b[0], R - 1)
    assert all(map(same, k, closed))
    assert same(F.vertices, sum(k))
    assert same(F.vertices, R * (b[0] + 1) + b[0] * b[1] / c[1])


def test_per_p_part_is_free_of_r_and_per_r_part_is_not():
    # the scan writer fills the per-p values once per p and the per-r values
    # once per array: a per-p value must not vary with r, and a per-r value
    # that did not would be filled once per array for nothing
    per_p = at4.p_forms(P)
    per_r = at4.r_forms(per_p, R)
    assert all(R not in sympy.sympify(v).free_symbols for v in per_p)
    assert all(R in sympy.sympify(v).free_symbols for v in per_r)


def test_triple_constant_cross_check():
    a, c = F.a, F.c
    assert same(F.triple_constant, 2 * (P + 1) / R)
    assert same(c[1] * (a[1] - P) / a[2], 2 * (P + 1) / R)


def test_a_is_nonnegative_for_p_at_least_2():
    for ai in F.a:
        shifted = sympy.cancel(ai.subs(P, 2 + U))
        # a polynomial in u = p - 2 >= 0 (and r) with no negative coefficient
        assert all(coeff >= 0 for coeff in sympy.Poly(shifted, U, R).coeffs()), ai


def test_fundamental_bound_is_tight():
    # (theta_1 m + b0)(theta_4 m + b0) = -b0 a1 b1 with m = a1 + 1
    b0, b1, a1 = F.b[0], F.b[1], F.a[1]
    theta1, theta4 = F.eigenvalues[1], F.eigenvalues[4]
    m = a1 + 1
    assert same((theta1 * m + b0) * (theta4 * m + b0), -b0 * a1 * b1)


def quotient_of(b, c, sizes):
    """SRG parameters (v/r, b_0, a_1, r c_2) of the antipodal quotient of a
    diameter-4 antipodal r-cover."""
    return (sum(sizes) / R, b[0], b[0] - b[1] - 1, R * c[1])


def sub_layer_sizes():
    b, c = F.sub_b, F.sub_c
    sizes = [sympy.Integer(1)]
    for bi, ci in zip(b, c):
        sizes.append(sympy.cancel(sizes[-1] * bi / ci))
    return sizes


def test_quotient_spectra():
    quotient = tuple(map(sympy.cancel, quotient_of(F.b, F.c, F.layer_sizes)))
    second = tuple(map(sympy.cancel, quotient_of(F.sub_b, F.sub_c, sub_layer_sizes())))
    # the quotients do not depend on r, have the spectra that the docstrings
    # of quotient_params and second_subconstituent_quotient state, and are
    # what those two functions compute for every p
    assert all(R not in q.free_symbols for q in quotient + second)
    assert srg_spectrum_holds(*quotient, P, -((P + 2) ** 2))
    assert srg_spectrum_holds(*second, P, -(P**2 + 2 * P + 2))
    # the valency is the principal eigenvalue: the other two differ from it
    assert not same(quotient[1], P) and not same(second[1], P)
    assert all(map(same, exact_per_p(at4.quotient_params(N + 2)), quotient))
    assert all(map(same, exact_per_p(at4.second_subconstituent_quotient(N + 2)), second))
    for p in range(2, 41):
        assert at4.quotient_params(p) == tuple(q.subs(P, p) for q in quotient)
        assert at4.second_subconstituent_quotient(p) == tuple(
            q.subs(P, p) for q in second
        )


def srg_multiplicities(v, k, theta, tau):
    """The multiplicities of theta and tau in an SRG of order v and valency
    k: the solution of 1 + m + m' = v and k + m theta + m' tau = 0."""
    return (
        sympy.cancel((-k - (v - 1) * tau) / (theta - tau)),
        sympy.cancel((k + (v - 1) * theta) / (theta - tau)),
    )


@pytest.mark.parametrize(
    "quotient, eigenvalues, multiplicities",
    [
        (at4.quotient_params, (P, -((P + 2) ** 2)), ((P + 2) * (P + 3) * S / 2, (P + 1) * S / 2)),
        (
            at4.second_subconstituent_quotient,
            (P, -(P**2 + 2 * P + 2)),
            ((P + 1) * (P + 2) * S / 2, P * (P + 2) * (P + 3) / 2),
        ),
    ],
)
def test_quotient_multiplicities_are_integer_valued(quotient, eigenvalues, multiplicities):
    v, k, _, _ = exact_per_p(quotient(N + 2))
    got = srg_multiplicities(v, k, *eigenvalues)
    assert all(map(same, got, multiplicities))
    assert all(integer_valued_multiple(m, 1) for m in got)


def test_local_srg_counting_identity_and_eigenvalues():
    v, k, lam, mu = exact_per_p(srg.local_family_params(N + 2))
    assert same(k * (k - lam - 1), (v - k - 1) * mu)
    # what the bounds report prints as theta_pos and theta_neg
    assert srg_spectrum_holds(v, k, lam, mu, P, -(P + 2))
    assert not same(k, P)


def test_local_srg_multiplicities_are_family_multiplicities():
    v, k, _, _ = exact_per_p(srg.local_family_params(N + 2))
    n1, n2 = exact_per_p(srg.family_multiplicities(P))
    assert all(map(same, srg_multiplicities(v, k, P, -(P + 2)), (n1, n2)))
    assert integer_valued_multiple(n1, 1) and integer_valued_multiple(n2, 1)


def test_local_fix_bound_is_s():
    # mu v / (k - theta) with theta = p, the bound the reports print as s
    # (scan, profile and bounds) and the audit as (p + 2)^2 - 2
    v, k, _, mu = exact_per_p(srg.local_family_params(N + 2))
    assert same(mu * v / (k - P), S)
    assert same(S, (P + 2) ** 2 - 2)


def test_every_division_is_exact_for_a_candidate():
    # _params_violation admits (p, r) only when r | 2(p+1), so both
    # t = 2(p+1)/r and r are integers: every quotient the closed forms take
    # is an integer-valued polynomial, times one of them or alone
    t = 2 * (P + 1) / R
    floors = set()
    for value in RAW:
        for entry in value if isinstance(value, tuple) else (value,):
            floors |= sympy.sympify(entry).atoms(sympy.floor)
    assert floors
    for floor in floors:
        q = exact(floor.args[0])
        assert any(integer_valued_multiple(q, unit) for unit in (t, R, 1)), q
    # the antipodal class count is v/r
    assert same(F.vertices, R * F.antipodal_classes)


def test_proof_covers_the_integers():
    # the symbolic forms evaluated at integers give what the program computes
    for p in (2, 3, 5, 11, 27, 1000):
        for r in at4.feasible_r(at4.PerP(p)):
            ints = at4.closed_forms(at4.At4Params(p, r))
            for got, want in zip(F, ints):
                got = got if isinstance(got, tuple) else (got,)
                want = want if isinstance(want, tuple) else (want,)
                assert [g.subs({P: p, R: r}) for g in map(sympy.sympify, got)] == list(want)
