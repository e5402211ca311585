import pytest
from hypothesis import given, strategies as st

from at4tools.exactnum import (
    _MR_BASES,
    _MR_PREFIX_BOUNDS,
    _MR_PROVEN_BELOW,
    _MR_ROUNDS,
    _TRIAL_LIMIT,
    divisors,
    exact_sqrt,
    factorize,
    factorize_range,
    is_prime,
    mult_order,
    primes_upto,
)

from oracles import gl_order


def _trial_division(n):
    """Independent factorization oracle: plain trial division."""
    out = []
    d = 2
    while d * d <= n:
        e = 0
        while n % d == 0:
            n //= d
            e += 1
        if e:
            out.append((d, e))
        d += 1
    if n > 1:
        out.append((n, 1))
    return out


def test_factorize_examples():
    assert factorize(1) == []
    assert factorize(3432) == [(2, 3), (3, 1), (11, 1), (13, 1)]
    assert factorize(3432) == _trial_division(3432)
    assert factorize(167) == [(167, 1)]


def test_factorize_rejects_nonpositive():
    with pytest.raises(ValueError):
        factorize(0)
    with pytest.raises(ValueError):
        factorize(-5)


@given(st.integers(min_value=1, max_value=10**9))
def test_factorize_reconstructs(n):
    prod = 1
    prev = 0
    for p, e in factorize(n):
        assert p > prev and e >= 1 and is_prime(p)
        prev = p
        prod *= p**e
    assert prod == n


def test_prime_set():
    # the reports read the prime set of n as the primes of factorize(n)
    def prime_set(n):
        return {q for q, _ in factorize(n)}

    assert prime_set(1) == set()
    assert prime_set(180) == {2, 3, 5}
    assert prime_set(1008) == {2, 3, 7}
    assert factorize(180) == [(2, 2), (3, 2), (5, 1)]
    assert factorize(1008) == [(2, 4), (3, 2), (7, 1)]


def test_exact_sqrt_examples():
    assert exact_sqrt(0) == 0
    assert exact_sqrt(9) == 3
    assert exact_sqrt(8) is None
    with pytest.raises(ValueError):
        exact_sqrt(-1)


def test_exact_sqrt_all_small_squares():
    for d in range(100001):
        assert exact_sqrt(d * d) == d


def test_gl_order():
    assert gl_order(1, 3) == 2
    assert gl_order(2, 3) == 48
    assert gl_order(2, 13) == 26208
    with pytest.raises(ValueError):
        gl_order(0, 3)
    with pytest.raises(ValueError):
        gl_order(2, 4)


def test_gl_order_subgroup_divisibility():
    # the order of the (e-1)-dimensional group divides the e-dimensional one
    for t in (2, 3, 5, 13):
        for e in range(2, 6):
            assert gl_order(e, t) % gl_order(e - 1, t) == 0


def test_mult_order_examples():
    assert mult_order(1, 7, factorize(6)) == 1
    assert mult_order(3, 23, factorize(22)) == 11
    # any multiple of the order will do, and so will its factorization
    assert mult_order(3, 23, factorize(44)) == 11
    with pytest.raises(ValueError):
        mult_order(6, 9, factorize(6))
    # 5 is no multiple of the order 11 of 3 mod 23
    with pytest.raises(ValueError):
        mult_order(3, 23, factorize(5))


def test_mult_order_against_divisor_oracle():
    # smallest divisor d of 166 with 13^d = 1 mod 167
    oracle = min(d for d in divisors(166) if pow(13, d, 167) == 1)
    assert mult_order(13, 167, factorize(166)) == oracle


@given(
    st.sampled_from([p for p in primes_upto(2000) if p > 2]),
    st.integers(min_value=2, max_value=10**6),
)
def test_mult_order_divides_group_order(s, t):
    if t % s == 0:
        t += 1
    e = mult_order(t, s, factorize(s - 1))
    assert (s - 1) % e == 0
    assert pow(t, e, s) == 1
    # minimality against every proper divisor
    for d in divisors(e)[:-1]:
        assert pow(t, d, s) != 1


def test_primes_upto():
    assert primes_upto(1) == []
    assert primes_upto(30) == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29]


def test_divisors():
    assert divisors(1) == [1]
    assert divisors(56) == [1, 2, 4, 7, 8, 14, 28, 56]
    assert divisors(115) == [1, 5, 23, 115]
    # given the factorizations of its factors, n is not factorised again
    assert divisors(56, factorize(8), factorize(7)) == divisors(56, factorize(4), factorize(14)) == divisors(56)
    assert divisors(115, factorize(5), factorize(23), factorize(1)) == divisors(115)
    with pytest.raises(ValueError):
        divisors(0)
    with pytest.raises(ValueError):
        divisors(0, factorize(3))
    # factorizations that do not multiply to n
    with pytest.raises(ValueError):
        divisors(57, factorize(8), factorize(7))


def test_divisors_of_one_factorization():
    # one factorization is read as it is, with the same check on its product
    assert divisors(56, [(2, 3), (7, 1)]) == divisors(56)
    assert divisors(2**10 * 3, [(2, 10), (3, 1)]) == sorted(2**k * t for k in range(11) for t in (1, 3))
    assert divisors(1, []) == [1]
    with pytest.raises(ValueError):
        divisors(57, factorize(56))
    with pytest.raises(ValueError):
        divisors(56, [(2, 3)])


def test_is_prime_spot_checks():
    assert is_prime(2) and is_prime(167) and is_prime(839)
    assert not is_prime(1) and not is_prime(119) and not is_prime(34)


# psi_t, the least strong pseudoprime to the first t prime bases (OEIS A014233)
PSI = {
    1: 2047,
    2: 1373653,
    3: 25326001,
    4: 3215031751,
    5: 2152302898747,
    6: 3474749660383,
    7: 341550071728321,
    8: 341550071728321,
    9: 3825123056546413051,
    10: 3825123056546413051,
    11: 3825123056546413051,
    12: 318665857834031151167461,
}
FIRST_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _strong_probable_prime(n, a):
    """The strong test of the odd n > 2 to base a, by pow alone."""
    s = 0
    while (n - 1) % 2 ** (s + 1) == 0:
        s += 1
    d = (n - 1) // 2**s
    return pow(a, d, n) == 1 or any(pow(a, d * 2**r, n) == n - 1 for r in range(s))


def test_psi_t_is_a_strong_pseudoprime_to_its_first_t_bases():
    sympy = pytest.importorskip("sympy")
    assert FIRST_PRIMES == _MR_BASES
    for t, psi in PSI.items():
        assert not sympy.isprime(psi)
        assert all(_strong_probable_prime(psi, a) for a in FIRST_PRIMES[:t]), t
        # psi_t < psi_{t+1} exactly when psi_t fails base t + 1
        assert _strong_probable_prime(psi, FIRST_PRIMES[t]) == (PSI.get(t + 1) == psi), t
        assert not is_prime(psi)


def test_base_prefix_table():
    bounds, rounds = _MR_PREFIX_BOUNDS, _MR_ROUNDS
    assert all(a < b for a, b in zip(bounds, bounds[1:]))
    assert all(a < b for a, b in zip(rounds, rounds[1:]))
    assert len(rounds) == len(bounds) + 1 and rounds[-1] == len(_MR_BASES)
    assert bounds[-1] < _MR_PROVEN_BELOW
    # bound i is psi_t at the least t that reaches it
    for bound, t in zip(bounds, rounds):
        assert PSI[t] == bound and PSI.get(t - 1) != bound
    assert sorted(set(PSI.values())) == list(bounds)


def test_is_prime_around_each_psi_t():
    sympy = pytest.importorskip("sympy")
    for psi in PSI.values():
        for n in (psi - 2, psi, psi + 2):
            assert is_prime(n) == sympy.isprime(n), n


def test_is_prime_matches_the_sieve_below_two_million():
    # crosses 43^2 = 1849, where the Miller-Rabin rounds start, psi_1 and psi_2
    limit = 2 * 10**6
    assert [n for n in range(limit) if is_prime(n)] == primes_upto(limit - 1)


def test_factorize_at_the_end_of_the_prime_table():
    # 4093 is the last prime below 2^12, 4099 the first above it; 10007 * 10009
    # is left for rho
    sympy = pytest.importorskip("sympy")
    for n in (4093**2, 4093 * 4099, 4099**2, 10007 * 10009):
        assert factorize(n) == sorted(sympy.factorint(n).items()), n


def assert_windows(starts, widths=range(1, 15)):
    for lo in starts:
        for width in widths:
            hi = lo + width - 1
            assert factorize_range(lo, hi) == [factorize(n) for n in range(lo, hi + 1)], (lo, hi)


def test_factorize_range_on_every_small_window():
    expected = [factorize(n) for n in range(1, 20014)]
    for lo in range(1, 20001):
        for width in range(1, 15):
            assert factorize_range(lo, lo + width - 1) == expected[lo - 1 : lo - 1 + width], (lo, width)
    assert factorize_range(5, 4) == []
    with pytest.raises(ValueError):
        factorize_range(0, 3)


def test_factorize_range_at_the_square_of_each_sieve_prime():
    # t^2 is the least number whose cofactor would pass for a prime if the
    # sieve skipped t
    for t in primes_upto(_TRIAL_LIMIT):
        assert_windows([t * t - 2], [5])


def test_factorize_range_where_the_sieve_reaches_the_prime_table():
    # below 2^24 the sieve stops at isqrt(hi); from 2^24 on it uses the
    # whole table, and a cofactor from 4097^2 on goes past it, as 4099^2
    # and 4099 * 4111 do
    square = _TRIAL_LIMIT**2
    assert_windows(range(square - 14, square + 2))
    assert_windows(range(4099**2 - 14, 4099**2 + 2))
    assert_windows([4099 * 4111 - 7], [14, 300])


def test_factorize_range_near_powers_of_ten():
    # near 10^9 and 10^12 most cofactors are left for rho or are primes
    # past the table
    for power in (10**6, 10**9, 10**12):
        assert_windows([power - 7, power + 1000])
        assert_windows([power - 150], [300])


def test_factorize_range_past_the_proven_bound():
    # every number here has a small factor and leaves a cofactor that is 1
    # or a prime below 3.3e24: a cofactor past that bound would be divided
    # by odd numbers for hours, in factorize as in the window
    for n in (2**90, 3**60 * 5, 2**30 * 1000000000000000003, 7**40 * 4093):
        assert n > _MR_PROVEN_BELOW
        assert factorize_range(n, n) == [factorize(n)], n
    lo = 3317044064679887385962532
    assert_windows([lo], range(1, 5))
