"""Exact integer arithmetic: factorization, primality, multiplicative orders.

Everything in this package runs on plain Python integers; no floating
point is used anywhere.  Factorization
is trial division that stops as soon as the remaining cofactor is 1 or a
proven prime (deterministic Miller-Rabin), so its cost is set by the
second-largest prime factor, not by the square root of n.  Past 2^12 a
composite cofactor below 3.3e24 is split by Pollard-Brent rho instead, in
time about the fourth root of the cofactor.  Divisors of a product are
built from the factorizations of its factors, taken apart.
"""

import functools
import math
from itertools import compress

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
# The strong-pseudoprime test to the thirteen bases above has no false
# positive below this bound (Sorenson and Webster, 2015).
_MR_PROVEN_BELOW = 3317044064679887385961981


def is_prime(n: int) -> bool:
    """Return True if n is prime (deterministic for n < 3.3e24)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
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


# Trial division past this bound hands a composite cofactor below
# _MR_PROVEN_BELOW to rho, whose cost grows as the square root of the least
# prime factor where trial division's grows as the factor itself.
_TRIAL_LIMIT = 1 << 12


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


def factorize(n: int) -> list[tuple[int, int]]:
    """Prime factorization of n >= 1 as (prime, exponent) pairs, ascending.

    Trial division stops once the cofactor is 1 or a proven prime; that
    test runs at the start and after each prime factor is removed.  Past
    2^12 a composite cofactor below 3.3e24 is split by rho into proven
    primes.  A larger cofactor is never taken as proven, so it is divided
    on until it drops below that bound: exact, but slow."""
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
    p = 3
    while not settled and p * p <= n:
        if p > _TRIAL_LIMIT and n < _MR_PROVEN_BELOW:
            primes = _rho_primes(n)
            out += ((q, primes.count(q)) for q in sorted(set(primes)))
            return out
        if n % p == 0:
            e = 0
            while n % p == 0:
                n //= p
                e += 1
            out.append((p, e))
            settled = _settled(n)
        p += 2
    if n > 1:
        out.append((n, 1))
    return out


def prime_set(n: int) -> frozenset[int]:
    """The set of prime divisors of n >= 1."""
    return frozenset(p for p, _ in factorize(n))


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


def divisors(*factors: int) -> list[int]:
    """Sorted positive divisors of the product of factors >= 1.  Each factor
    is factorised apart and the exponents are added, so a product past the
    reach of rho costs no more than its factors."""
    exponents: dict[int, int] = {}
    for n in factors:
        if n < 1:
            raise ValueError(f"divisors requires n >= 1, got {n}")
        for prime, e in factorize(n):
            exponents[prime] = exponents.get(prime, 0) + e
    out = [1]
    for prime, e in exponents.items():
        out = [d * prime**k for d in out for k in range(e + 1)]
    return sorted(out)


# A report tests the same p in several filters in turn; the few latest
# answers are kept so that p is factorised once per report.
@functools.lru_cache(maxsize=16)
def prime_power_base(n: int) -> tuple[int, int] | None:
    """Return (t, e) with t prime and t**e == n, or None if n is not a prime power."""
    if n < 2:
        raise ValueError(f"prime_power_base requires n >= 2, got {n}")
    fac = factorize(n)
    if len(fac) == 1:
        return fac[0]
    return None


def exact_sqrt(n: int) -> int | None:
    """Return d with d*d == n when n is a perfect square, else None."""
    if n < 0:
        raise ValueError(f"exact_sqrt requires n >= 0, got {n}")
    d = math.isqrt(n)
    return d if d * d == n else None


def _carmichael(n: int) -> int:
    # Exponent of the unit group mod n; mult_order uses it as a starting bound.
    lam = 1
    for p, e in factorize(n):
        if p == 2 and e >= 3:
            block = 2 ** (e - 2)
        else:
            block = (p - 1) * p ** (e - 1)
        lam = math.lcm(lam, block)
    return lam


def mult_order(t: int, s: int) -> int:
    """Least e >= 1 with t**e congruent to 1 mod s; requires gcd(t, s) == 1."""
    if s < 2:
        raise ValueError(f"mult_order requires s >= 2, got {s}")
    if math.gcd(t, s) != 1:
        raise ValueError(f"mult_order requires gcd(t, s) = 1, got t={t}, s={s}")
    k = _carmichael(s)
    for q in sorted(prime_set(k)):
        while k % q == 0 and pow(t, k // q, s) == 1:
            k //= q
    return k
