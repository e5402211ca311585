"""Differential tests of the per-p number theory against independent oracles:
sympy for factorizations and divisors, the literal existence conditions for
feasible_r, and the character filter for the alpha_1 residue class."""

import pytest
from hypothesis import given, settings, strategies as st

from at4tools.at4 import feasible_r
from at4tools.exactnum import divisors, factorize, prime_set, primes_upto
from at4tools.higman import (
    AutProfile,
    alpha1_candidates,
    block_size_filter,
    chi_filter,
    local_vertex_count,
)

@pytest.fixture(scope="module")
def sympy():
    return pytest.importorskip("sympy")


def family_order(p: int) -> int:
    """Order (p+2)s of the local graph, s = p^2 + 4p + 2."""
    return (p + 2) * (p * p + 4 * p + 2)


def check_against_sympy(sympy, n: int) -> None:
    assert factorize(n) == sorted(sympy.factorint(n).items())
    assert divisors(n) == sympy.divisors(n)
    assert prime_set(n) == frozenset(sympy.primefactors(n))


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


def test_feasible_r_matches_literal_conditions():
    for p in range(2, 2001):
        literal = tuple(
            r
            for r in range(3, p + 2)
            if 2 * (p + 1) % r == 0 and 2 * p * (p + 1) * (p + 2) // r % 2 == 0
        )
        assert feasible_r(p) == literal, p


def test_block_size_filter_matches_sympy(sympy):
    for p in [*range(2, 301), 1000003]:
        s = p * p + 4 * p + 2
        expected = tuple(d for d in sympy.divisors(family_order(p)) if d <= s)
        assert block_size_filter(p) == expected, p


@settings(max_examples=40, deadline=None)
@given(
    st.sampled_from(primes_upto(47)),  # every prime up to s = 47 at p = 5
    st.integers(min_value=0, max_value=47),
)
def test_alpha1_class_equals_chi_passing_set(ell, fix):
    p = 5
    v = local_vertex_count(p)
    passing = {
        a1 for a1 in range(v - fix + 1) if chi_filter(p, AutProfile(ell, fix, a1, v - fix - a1)).ok
    }
    assert set(alpha1_candidates(p, ell, fix)) == passing
