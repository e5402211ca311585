"""Differential tests of the per-p number theory against independent oracles:
sympy for primality, multiplicative orders, factorizations and divisors, the
literal existence conditions for feasible_r, and the character filter for
the alpha_1 residue class."""

import io
import json
import math
import time

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from at4tools import cli
from at4tools.at4 import PerP, feasible_r
from at4tools.exactnum import divisors, factorize, is_prime, mult_order, primes_upto
from at4tools.higman import alpha1_candidates, block_size_filter, spectrum_bounds
from at4tools.srg import local_family_params

from oracles import AutProfile, chi_filter


@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def family_order(p: int) -> int:
    """Order (p+2)s of the local graph, s = p^2 + 4p + 2."""
    return (p + 2) * (p * p + 4 * p + 2)


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=-5, max_value=10**6),
        st.integers(min_value=10**6, max_value=3 * 10**24),
    )
)
# strong pseudoprimes to the bases 2..7, 2..31 and 2..37: the Miller-Rabin
# rounds must reject each of them
@example(3215031751)
@example(3825123056546413051)
@example(318665857834031151167461)
@example(2**61 - 1)
def test_is_prime_matches_sympy(sympy, n):
    assert is_prime(n) == sympy.isprime(n)


@settings(max_examples=200, deadline=None)
@given(st.integers(min_value=2, max_value=10**9), st.integers(min_value=1, max_value=10**9))
@example(167, 13)
@example(2**31 - 1, 7)
def test_mult_order_matches_sympy(sympy, s, t):
    assume(math.gcd(t, s) == 1)
    # the exponent of the unit group mod s is a multiple of every order
    assert mult_order(t, s, factorize(int(sympy.reduced_totient(s)))) == sympy.n_order(t, s)


def check_against_sympy(sympy, n: int) -> None:
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert divisors(n) == sympy.divisors(n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=10**12 - 1))
def test_exactnum_matches_sympy_below_1e12(sympy, n):
    check_against_sympy(sympy, n)


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=2, max_value=10**5))
def test_exactnum_matches_sympy_on_family_orders(sympy, p):
    check_against_sympy(sympy, family_order(p))


def test_exactnum_matches_sympy_on_products_of_large_primes(sympy):
    # the cofactor test must not stop early on a composite cofactor
    for n in (999983 * 1000003, 999983**2, 2**61 - 1, 3 * 5 * 999983 * (2**61 - 1)):
        check_against_sympy(sympy, n)


@settings(max_examples=100, deadline=None)
@given(st.lists(st.integers(min_value=1, max_value=10**8), min_size=1, max_size=4))
@example([1000000006, 1000000012000000034])  # p + 2 and s at p = 1000000004
def test_divisors_of_several_factors_match_sympy(sympy, factors):
    assert divisors(math.prod(factors), *map(factorize, factors)) == sympy.divisors(math.prod(factors))


@settings(max_examples=25, deadline=None)
@given(
    st.integers(min_value=2**19, max_value=2**39),
    st.integers(min_value=2**19, max_value=2**39),
)
def test_factorize_matches_sympy_on_products_of_two_primes(sympy, x, y):
    # cofactors with two prime factors above the trial-division limit go to rho
    n = sympy.nextprime(x) * sympy.nextprime(y)
    assert factorize(n) == sorted(sympy.factorint(n).items())


def run_bounds(p: int) -> tuple[int, dict | None, float]:
    buf = io.StringIO()
    start = time.perf_counter()
    rc = cli.main(["--format", "json", "--deterministic", "bounds", str(p)], out=buf)
    return rc, json.loads(buf.getvalue()) if rc == 0 else None, time.perf_counter() - start


def test_bounds_with_two_large_cofactor_primes_finish(sympy):
    # p = 999999999989 is prime and s = 536281391 * 1864692709395169: trial
    # division alone must run to 5.4e8 to split (p+2)s
    p = 999999999989
    n = family_order(p)
    start = time.perf_counter()
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert time.perf_counter() - start < 10
    # its report would list every prime up to p, so it is refused at once
    rc, _, elapsed = run_bounds(p)
    assert rc == 2 and elapsed < 10
    # p - 1 is not a prime power and (p+1)s has the factors 10768462751 and
    # 31183265791, so the whole report is made
    rc, report, elapsed = run_bounds(p - 1)
    assert rc == 0 and elapsed < 10
    s = (p + 1) ** 2 - 2
    assert report["block_sizes"] == [d for d in sympy.divisors(family_order(p - 1)) if d <= s]


def test_bounds_at_a_large_composite_p_finish(sympy):
    # (p+2)s is about 1e27, past the reach of rho, and the least prime of
    # its cofactor is 500000003: factorising the product took 51 s, while
    # p + 2 and s factorise apart in well under a second
    p = 1000000004
    rc, report, elapsed = run_bounds(p)
    assert rc == 0 and elapsed < 5
    s = (p + 2) ** 2 - 2
    assert report["block_sizes"] == [d for d in sympy.divisors((p + 2) * s) if d <= s]


def test_spectrum_bounds_match_sympy(sympy):
    for p in [*range(3, 10**4 + 1), 1000003]:
        if len(sympy.factorint(p)) != 1:
            assert spectrum_bounds(PerP(p)) is None
            continue
        s = p * p + 4 * p + 2
        lower = sympy.primefactors((p + 2) * s * (p + 1) * (p + 4))
        upper = sorted(set(sympy.primerange(p + 3)) | set(sympy.primefactors(s * (p + 4))))
        edge = [q for q in upper if q <= p]
        assert spectrum_bounds(PerP(p)) == (lower, edge, upper[len(edge) :]), p


def test_feasible_r_matches_literal_conditions():
    for p in range(2, 2001):
        literal = tuple(
            r
            for r in range(3, p + 2)
            if 2 * (p + 1) % r == 0 and 2 * p * (p + 1) * (p + 2) // r % 2 == 0
        )
        assert feasible_r(PerP(p)) == literal, p


# r = 3 alone at p = 2; p + 1 = 2^39, whose divisors above 2 are all
# feasible; p + 1 = 999999999989 a prime, where r = p + 1 alone is
FEASIBLE_R_AT = {2: (3,), 2**39 - 1: tuple(2**k for k in range(2, 40)), 999999999988: (999999999989,)}


@settings(max_examples=200, deadline=None)
@given(
    st.one_of(
        st.integers(min_value=1, max_value=5 * 10**11).map(lambda k: 2 * k),
        st.integers(min_value=1, max_value=5 * 10**11 - 1).map(lambda k: 2 * k + 1),
    )
)
@example(2)
@example(2**39 - 1)
@example(999999999988)
def test_feasible_r_closed_form_up_to_10_12(sympy, p):
    # the literal conditions on each divisor of 2(p+1), from sympy
    literal = tuple(
        r for r in sympy.divisors(2 * (p + 1)) if 2 < r < p + 2 and 2 * p * (p + 1) * (p + 2) // r % 2 == 0
    )
    assert feasible_r(PerP(p)) == literal
    assert literal == FEASIBLE_R_AT.get(p, literal)


def test_block_size_filter_matches_sympy(sympy):
    for p in [*range(2, 301), 1000003]:
        s = p * p + 4 * p + 2
        expected = tuple(d for d in sympy.divisors(family_order(p)) if d <= s)
        assert block_size_filter(PerP(p)) == expected, p


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(primes_upto(47)),  # every prime up to s = 47 at p = 5
    st.integers(min_value=0, max_value=47),
)
def test_alpha1_class_equals_chi_passing_set(ell, fix):
    p = 5
    v = local_family_params(p).v
    passing = {
        a1 for a1 in range(v - fix + 1) if chi_filter(p, AutProfile(ell, fix, a1, v - fix - a1)).ok
    }
    assert set(alpha1_candidates(p, ell, fix)) == passing
