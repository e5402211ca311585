"""Exact integer arithmetic: factorization, primality, multiplicative orders.

Everything in this package runs on plain Python integers; no floating
point is used anywhere.  Primality is deterministic Miller-Rabin on the
shortest prefix of the prime bases 2, 3, ..., 41 that is proven for n:
n below 43^2 costs only trial division by those bases, and n below 2.5e7
at most three rounds.  Factorization is trial division by the primes
below 2^12 that stops as soon as the remaining cofactor is 1 or a proven
prime, so its cost is set by the second-largest prime factor, not by the
square root of n.  Past 2^12 a composite cofactor below 3.3e24 is split by
Pollard-Brent rho instead, in time about the fourth root of the cofactor.
A window of consecutive numbers is factorised at once by a sieve over the
same primes, whose cofactors take the same route past 2^12.  Divisors of
n take the factorizations of its factors when the caller holds them, and
a multiplicative order takes the factorization of a multiple of it, so
that no number need be factorised twice.
"""

import math
from bisect import bisect_right
from itertools import compress

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The strong-pseudoprime test to the thirteen bases above has no false
# positive below this bound (Sorenson and Webster, 2017).
_MR_PROVEN_BELOW = 3317044064679887385961981
# psi_t, the least strong pseudoprime to the first t bases (OEIS A014233),
# at each t where it rises: the first _MR_ROUNDS[i] bases prove every n
# below _MR_PREFIX_BOUNDS[i] (Jaeschke 1993 up to psi_8, Jiang and Deng 2014
# to psi_11, Sorenson and Webster 2017 for psi_12), and n past the last
# bound takes all 13.
_MR_PREFIX_BOUNDS = (
    2047,
    1373653,
    25326001,
    3215031751,
    2152302898747,
    3474749660383,
    341550071728321,
    3825123056546413051,
    318665857834031151167461,
)
_MR_ROUNDS = (1, 2, 3, 4, 5, 6, 7, 9, 12, 13)


def is_prime(n: int) -> bool:
    """Return True if n is prime (deterministic for n < 3.3e24).

    After trial division by the thirteen bases, n < 43^2 is prime.  Past
    that, n is tested to the first t bases, t the least with n below psi_t,
    the least strong pseudoprime to the first t bases, and to all thirteen
    from psi_12 on."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    if n < 1849:
        # 43^2: n has no prime factor below 43
        return True
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES[: _MR_ROUNDS[bisect_right(_MR_PREFIX_BOUNDS, n)]]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _settled(n: int) -> bool:
    # Nothing is left for trial division: n is 1 or a proven prime.
    return n == 1 or (n < _MR_PROVEN_BELOW and is_prime(n))


def primes_upto(n: int) -> list[int]:
    """All primes <= n, via a byte sieve."""
    if n < 2:
        return []
    sieve = bytearray(b"\x01") * (n + 1)
    sieve[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(n) + 1):
        if sieve[p]:
            start = p * p
            sieve[start : n + 1 : p] = b"\x00" * ((n - start) // p + 1)
    return [*compress(range(n + 1), sieve)]


# Trial division past this bound hands a composite cofactor below
# _MR_PROVEN_BELOW to rho, whose cost grows as the square root of the least
# prime factor where trial division's grows as the factor itself.
_TRIAL_LIMIT = 1 << 12
# The odd primes below _TRIAL_LIMIT, the divisors trial division tries.
_TRIAL_PRIMES = tuple(primes_upto(_TRIAL_LIMIT)[1:])
# The primes a window sieve divides out: 2 and the trial primes.
_SIEVE_PRIMES = (2, *_TRIAL_PRIMES)


def _rho_divisor(n: int) -> int:
    """A proper divisor of the odd composite n: Pollard's rho with Brent's
    cycle search and gcds batched over 128 steps.  The start 2 and the
    constants c = 1, 2, ... are fixed, so the result is deterministic."""
    c = 0
    while True:
        c += 1
        y, r, q, g = 2, 1, 1, 1
        while g == 1:
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    q = q * (x - y) % n
                g = math.gcd(q, n)
                k += 128
            r *= 2
        if g == n:
            # the batch overshot: step again from its start, one gcd a step
            g = 1
            while g == 1:
                ys = (ys * ys + c) % n
                g = math.gcd(x - ys, n)
        if g != n:
            return g


def _rho_primes(n: int) -> list[int]:
    """Prime factors of the odd n < _MR_PROVEN_BELOW with multiplicity:
    every piece is split by rho until is_prime, which is a proof below that
    bound, accepts it."""
    out = []
    stack = [n]
    while stack:
        m = stack.pop()
        if is_prime(m):
            out.append(m)
        else:
            d = _rho_divisor(m)
            stack += (d, m // d)
    return out


def _past_table(n: int, out: list) -> list:
    """Append the prime factors of n >= 1, which has none below 2^12, to
    ``out`` as (prime, exponent) pairs, ascending, and return ``out``.  n
    that is 1 or a proven prime is appended as it is; a composite below
    3.3e24 is split by rho into proven primes.  A larger n is never taken
    as proven, so it is divided by the odd numbers past 2^12 until it drops
    below that bound: exact, but slow.  The one route past the prime table,
    for ``factorize`` and ``factorize_range`` alike."""
    p = _TRIAL_LIMIT + 1
    while not _settled(n) and p * p <= n:
        if n < _MR_PROVEN_BELOW:
            primes = _rho_primes(n)
            out += ((q, primes.count(q)) for q in sorted(set(primes)))
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
        p += 2
    if n > 1:
        out.append((n, 1))
    return out


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division by the primes below 2^12 stops once the cofactor is 1 or
    a proven prime; that test runs at the start and after each prime factor
    is removed.  A cofactor left past the table goes to ``_past_table``."""
    if n < 1:
        raise ValueError(f"factorize requires n >= 1, got {n}")
    out = []
    e = 0
    while n % 2 == 0:
        n //= 2
        e += 1
    if e:
        out.append((2, e))
    settled = _settled(n)
    for p in _TRIAL_PRIMES:
        if settled or p * p > n:
            break
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            settled = _settled(n)
    else:
        return _past_table(n, out)
    if n > 1:
        out.append((n, 1))
    return out


def factorize_range(lo: int, hi: int) -> list[list[tuple[int, int]]]:
    """``factorize(n)`` for each n in [lo, hi], in order, from one sieve.

    Each prime t up to min(isqrt(hi), 2^12) is divided out of its multiples
    in the window, found by stepping t from the first.  A cofactor left
    below (that bound + 1)^2 is 1 or a prime; a larger one, which occurs
    only once the bound is 2^12, goes to ``_past_table``, as it does in
    ``factorize``.  The work is about (hi - lo) log log hi divisions plus
    one step per sieving prime, and the cofactors past the table."""
    if lo < 1:
        raise ValueError(f"factorize_range requires lo >= 1, got {lo}")
    if hi < lo:
        return []
    width = hi - lo + 1
    rest = [*range(lo, hi + 1)]
    facs: list[list[tuple[int, int]]] = [[] for _ in rest]
    bound = min(math.isqrt(hi), _TRIAL_LIMIT)
    for t in _SIEVE_PRIMES[: bisect_right(_SIEVE_PRIMES, bound)]:
        for i in range(-lo % t, width, t):
            m, e = rest[i] // t, 1
            while m % t == 0:
                m //= t
                e += 1
            rest[i] = m
            facs[i].append((t, e))
    least_composite = (bound + 1) ** 2
    for m, fac in zip(rest, facs):
        if m >= least_composite:
            _past_table(m, fac)
        elif m > 1:
            fac.append((m, 1))
    return facs


def divisors(n: int, *factorizations: list[tuple[int, int]]) -> list[int]:
    """Sorted positive divisors of n >= 1.  n is factorised unless
    factorizations are given: then their exponents are added, and they must
    multiply to n, so a product past the reach of rho costs no more than the
    factorizations of its factors.  One factorization is read as it is."""
    if n < 1:
        raise ValueError(f"divisors requires n >= 1, got {n}")
    if len(factorizations) > 1:
        exponents: dict[int, int] = {}
        for fac in factorizations:
            for prime, e in fac:
                exponents[prime] = exponents.get(prime, 0) + e
        pairs = exponents.items()
    else:
        pairs = factorizations[0] if factorizations else factorize(n)
    out = [1]
    for prime, e in pairs:
        # each power of prime times the divisors so far, the last the largest
        step = out
        for _ in range(e):
            step = [d * prime for d in step]
            out += step
    if out[-1] != n:
        raise ValueError(f"the factorizations multiply to {out[-1]}, not {n}")
    out.sort()
    return out


def exact_sqrt(n: int) -> int | None:
    """Return d with d*d == n when n is a perfect square, else None."""
    if n < 0:
        raise ValueError(f"exact_sqrt requires n >= 0, got {n}")
    d = math.isqrt(n)
    return d if d * d == n else None


def mult_order(t: int, s: int, multiple: list[tuple[int, int]]) -> int:
    """Least e >= 1 with t**e congruent to 1 mod s, given the factorization
    ``multiple`` of a multiple of it, such as the group order s - 1 for a
    prime s; requires gcd(t, s) == 1."""
    if s < 2:
        raise ValueError(f"mult_order requires s >= 2, got {s}")
    if math.gcd(t, s) != 1:
        raise ValueError(f"mult_order requires gcd(t, s) = 1, got t={t}, s={s}")
    k = math.prod(q**e for q, e in multiple)
    if pow(t, k, s) != 1:
        raise ValueError(f"{k} is not a multiple of the order of {t} mod {s}")
    for q, _ in multiple:
        while k % q == 0 and pow(t, k // q, s) == 1:
            k //= q
    return k
