"""Parameter engine for antipodal tight diameter-4 graphs with q = p + 2.

A candidate is fixed by a pair (p, r): p >= 2 is the positive local
eigenvalue parameter (the negative one is -q = -(p+2)) and r is the
antipodality index.  Everything here is closed-form integer arithmetic:
intersection arrays, layer sizes, eigenvalues, antipodal quotient
parameters, second subconstituent parameters and the tightness
(fundamental bound) check.  The closed forms come in two parts: the
values that depend on p alone (``p_forms``) and those that depend on r
(``r_forms``), which ``compose`` places in one ``ClosedForms``, so that a
scan computes the first once per p.  No form is checked at run time:
tests/test_closed_forms.py proves the functions here, run on sympy
symbols, as identities over Q[p, r], and tests/test_at4.py checks them
against the characteristic polynomial of the tridiagonal intersection
matrix.
"""

from __future__ import annotations

from collections import namedtuple

from .exactnum import divisors, factorize, factorize_range, is_prime
from .srg import SrgParams


def _params_violation(p: int, r: int) -> str | None:
    """The first existence condition that (p, r) fails, or None if it is a
    candidate pair."""
    if p < 2:
        return f"p must be >= 2, got {p}"
    if not 2 < r < p + 2:
        return f"r must satisfy 2 < r < p+2, got r={r}, p={p}"
    if 2 * (p + 1) % r != 0:
        return f"r must divide 2(p+1), got r={r}, p={p}"
    if (2 * p * (p + 1) * (p + 2) // r) % 2 != 0:
        return f"2p(p+1)(p+2)/r must be even, got r={r}, p={p}"
    return None


class At4Params(namedtuple("At4Params", "p r")):
    """Candidate pair (p, r), a record: the tuple (p, r).

    Construction enforces the three existence conditions: 2 < r < p + 2,
    r | 2(p+1), and 2p(p+1)(p+2)/r even.  The first two make every array
    entry integral.  The check is ``__post_init__``, looked up on the class
    at each construction, where the benchmark's tracer replaces it to count
    the pairs made and refused: it stays a hook while that counter does.
    """

    __slots__ = ()

    def __new__(cls, p: int, r: int):
        self = super().__new__(cls, p, r)
        self.__post_init__()
        return self

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip the check
        return cls(*iterable)

    def __post_init__(self):
        reason = _params_violation(self.p, self.r)
        if reason is not None:
            raise ValueError(reason)


def _array_text(b: tuple[int, ...], c: tuple[int, ...]) -> str:
    return "{%s; %s}" % (",".join(map(str, b)), ",".join(map(str, c)))


class IntersectionArray(namedtuple("IntersectionArray", "b c a layer_sizes")):
    """Intersection array {b_0..b_{d-1}; c_1..c_d} of a distance-regular graph.

    ``IntersectionArray(b, c)`` validates positivity, a_i >= 0 and
    integrality of all distance-layer sizes, and keeps a_0..a_d and the
    layer sizes k_0..k_d that the validation computes: a_i = b_0 - b_i - c_i
    (b_d = 0, c_0 = 0), k_0 = 1 and k_{i+1} = k_i b_i / c_{i+1}.  Those two
    follow from b and c, so the repr shows only b and c.
    """

    __slots__ = ()

    def __new__(cls, b: tuple[int, ...], c: tuple[int, ...]):
        if len(b) != len(c) or not b:
            raise ValueError("need b_0..b_{d-1} and c_1..c_d of equal positive length")
        if min(b) <= 0 or min(c) <= 0:
            raise ValueError(f"array entries must be positive: {_array_text(b, c)}")
        if c[0] != 1:
            raise ValueError(f"c_1 must be 1: {_array_text(b, c)}")
        b0 = b[0]
        a = tuple(b0 - bi - ci for bi, ci in zip(b + (0,), (0,) + c))
        if min(a) < 0:
            raise ValueError(f"negative a_i: {_array_text(b, c)}")
        sizes = [1]
        for bi, ci in zip(b, c):
            num = sizes[-1] * bi
            if num % ci != 0:
                raise ValueError(f"non-integral layer size at distance {len(sizes)}: {_array_text(b, c)}")
            sizes.append(num // ci)
        return super().__new__(cls, b, c, a, tuple(sizes))

    @classmethod
    def _make(cls, iterable):
        # namedtuple's _make, and _replace through it, would skip the checks;
        # a and layer_sizes are computed again from b and c
        b, c, *_ = iterable
        return cls(b, c)

    def __getnewargs__(self):
        return (self.b, self.c)

    def __repr__(self) -> str:
        return f"IntersectionArray(b={self.b!r}, c={self.c!r})"

    @property
    def diameter(self) -> int:
        return len(self.c)

    def __str__(self) -> str:
        return _array_text(self.b, self.c)


class PerP(dict):
    """The arithmetic of one p >= 2 that every per-p report reads: ``p``,
    ``q`` = p + 2, ``s`` = p^2 + 4p + 2, ``base``, the pair (t, e) with t
    prime and t**e = p, or None when p is not a prime power, and the
    primality of q and s as ``q_prime`` and ``s_prime``.

    As a dict it maps each number n that a report factorises (p, p+1, p+2,
    p+4, s and s-1) to ``factorize(n)``.  ``PerP(p)`` makes each at first
    use: a record lives for one report of one p, so each number is
    factorised at most once, and one that the report never reads is never
    factorised.  ``PerP(p, *window)`` holds the factorizations ``window``
    of p, p+1, p+2 and p+4 from its construction on, as ``records`` gives
    them, and reads ``q_prime`` off that of p+2.  Either way s is
    factorised only at first use: a scan at a p that is not a prime power
    never factorises it.
    """

    __slots__ = ("p", "q", "s", "base", "q_prime", "s_prime")

    def __init__(self, p: int, *window: list[tuple[int, int]]):
        if p < 2:
            raise ValueError(f"p must be >= 2, got {p}")
        q = p + 2
        self.p, self.q, self.s = p, q, p * p + 4 * p + 2
        if window:
            self[p], self[p + 1], self[q], self[p + 4] = window
            self.q_prime = self[q] == [(q, 1)]
        else:
            self.q_prime = is_prime(q)
        fac = self[p]
        self.base = fac[0] if len(fac) == 1 else None
        self.s_prime = is_prime(self.s)

    def __missing__(self, n: int) -> list[tuple[int, int]]:
        fac = self[n] = factorize(n)
        return fac


# The most p whose records one sieve of ``records`` fills: the sieve holds
# this many numbers and four more, however long the range.
_SEGMENT = 1024


def records(lo: int, hi: int):
    """The records ``PerP(p)`` of p = lo..hi, in order, made one segment of
    at most _SEGMENT p at a time: one ``factorize_range`` over p..p+4 of
    the segment gives each record the factorizations of p, p+1, p+2 and
    p+4."""
    for start in range(lo, hi + 1, _SEGMENT):
        stop = min(start + _SEGMENT, hi + 1)
        facs = factorize_range(start, stop + 3)
        for i, p in enumerate(range(start, stop)):
            yield PerP(p, facs[i], facs[i + 1], facs[i + 2], facs[i + 4])


def feasible_r(rec: PerP) -> tuple[int, ...]:
    """All antipodality indices r admissible at the record's p: 2 < r < p+2,
    r | 2(p+1), and 2p(p+1)(p+2)/r even.

    For odd p, p and p+2 are odd, so v2(2p(p+1)(p+2)) = 1 + v2(p+1), v2
    the exponent of 2, and 2p(p+1)(p+2)/r is even iff v2(r) <= v2(p+1):
    the divisors r of 2(p+1) that pass are those of p+1, all below p+2.
    For even p, p+1 is odd and one of p, p+2 is divisible by 4, so
    v2(2p(p+1)(p+2)) >= 4 > v2(r) for every divisor r of 2(p+1): each
    passes, and those below p+2 are all but 2(p+1) itself.  Either way 1
    and 2 are the divisors not above 2, so r is a slice of one sorted
    divisor list, with no condition tested per r."""
    p = rec.p
    fac = rec[p + 1]
    if p % 2:
        return tuple(divisors(p + 1, fac)[2:])
    return tuple(divisors(2 * (p + 1), [(2, 1), *fac])[2:-1])


class ClosedForms(
    namedtuple(
        "ClosedForms", "b c a layer_sizes vertices antipodal_classes triple_constant eigenvalues sub_b sub_c"
    )
):
    """Every array quantity of a candidate (p, r).

    ``b`` and ``c`` are the intersection array, ``a`` is a_0..a_4 and
    ``layer_sizes`` is k_0..k_4; ``vertices`` is v, ``antipodal_classes``
    is v/r and ``triple_constant`` is 2(p+1)/r; ``eigenvalues`` are
    theta_0 > ... > theta_4; ``sub_b`` and ``sub_c`` are the array induced
    on the distance-2 graph of a vertex.
    """

    __slots__ = ()


class PForms(namedtuple("PForms", "p s b0 b1 a1 a2 antipodal_classes theta3 theta4 sub_b0 sub_b1")):
    """The closed forms of a candidate (p, r) that depend on p alone: p,
    s = theta_1, b_0 = theta_0, b_1, a_1, a_2, v/r, theta_3 = -(p+2),
    theta_4 = -(p+2)^2, and b_0 and b_1 of the second subconstituent.
    ``compose`` places them, with those of ``RForms``, in ``ClosedForms``."""

    __slots__ = ()


class RForms(namedtuple("RForms", "r c2 b2 k2 k3 k4 vertices triple_constant sub_c2 sub_b2")):
    """The closed forms of a candidate (p, r) that depend on r: r, c_2,
    b_2, k_2, k_3, k_4, v, 2(p+1)/r, and c_2 and b_2 of the second
    subconstituent."""

    __slots__ = ()


def p_forms(p) -> PForms:
    """The per-p part of the closed forms.  Like ``r_forms`` it runs on
    ints here and on sympy symbols in the proof test, which reads each floor
    division as an exact one: for a pair that passes _params_violation
    every division leaves no remainder."""
    s = p * p + 4 * p + 2
    b0 = (p + 2) * s
    b1 = (p + 3) * (p + 1) ** 2
    return PForms(
        p,
        s,
        b0,
        b1,
        b0 - b1 - 1,
        # a_2 = b_0 - b_2 - c_2 with b_2 + c_2 = r c_2 = 2(p+1)(p+2)
        b0 - 2 * (p + 1) * (p + 2),
        # v/r = b_0 + 1 + k_2/r, and k_2/r = s(p+1)(p+3)/2 = s(s+1)/2
        b0 + 1 + s * (s + 1) // 2,
        -(p + 2),
        -((p + 2) ** 2),
        p * (p + 2) ** 2,
        (p + 1) ** 3,
    )


def r_forms(pf: PForms, r) -> RForms:
    """The per-r part of the closed forms of (p, r), from the per-p part
    ``pf`` of p."""
    p, b0 = pf.p, pf.b0
    c2 = 2 * (p + 1) * (p + 2) // r
    k2 = b0 * pf.b1 // c2
    sub_c2 = 2 * p * (p + 1) // r
    return RForms(
        r, c2, (r - 1) * c2, k2, (r - 1) * b0, r - 1, r * (b0 + 1) + k2, 2 * (p + 1) // r, sub_c2, (r - 1) * sub_c2
    )


def compose(pf: PForms, rf: RForms) -> ClosedForms:
    """The closed forms of (p, r) from their per-p part ``pf`` and their
    per-r part ``rf``: each value is placed, none is computed, so that the
    places of the per-r values can be read off a composition of marks."""
    p, s, b0, b1, a1, a2, classes, theta3, theta4, sub_b0, sub_b1 = pf
    return ClosedForms(
        (b0, b1, rf.b2, 1),
        (1, rf.c2, b1, b0),
        # a_i = b_0 - b_i - c_i, with b_4 = c_0 = 0
        (0, a1, a2, a1, 0),
        (1, b0, rf.k2, rf.k3, rf.k4),
        rf.vertices,
        classes,
        rf.triple_constant,
        (b0, s, p, theta3, theta4),
        (sub_b0, sub_b1, rf.sub_b2, 1),
        (1, rf.sub_c2, sub_b1, sub_b0),
    )


def closed_forms(params) -> ClosedForms:
    """The closed forms of the pair (p, r), a validated ``At4Params`` or,
    in the proof test, a pair of sympy symbols: the composition of the
    per-p and the per-r part."""
    p, r = params
    pf = p_forms(p)
    return compose(pf, r_forms(pf, r))


def intersection_array(params: At4Params) -> IntersectionArray:
    """Diameter-4 intersection array of the candidate (p, r), validated."""
    f = closed_forms(params)
    return IntersectionArray(f.b, f.c)


def quotient_params(p: int) -> SrgParams:
    """SRG parameters (v/r, b_0, a_1, r c_2) of the antipodal quotient, read
    off the per-p closed forms (the quotient does not depend on r): r c_2 =
    2(p+1)(p+2).  Its non-principal eigenvalues are p and -(p+2)^2."""
    if p < 2:
        raise ValueError(f"quotient_params requires p >= 2, got {p}")
    pf = p_forms(p)
    return SrgParams(pf.antipodal_classes, pf.b0, pf.a1, 2 * (p + 1) * (p + 2))


def second_subconstituent_quotient(p: int) -> SrgParams:
    """The same for a second neighborhood in the antipodal quotient, read from
    the per-p forms of the second subconstituent: k_2/r = s(s+1)/2 vertices,
    b_0, a_1 = b_0 - b_1 - 1 and r c_2 = 2p(p+1).  Its non-principal
    eigenvalues are p and -(p^2+2p+2)."""
    if p < 2:
        raise ValueError(f"second_subconstituent_quotient requires p >= 2, got {p}")
    pf = p_forms(p)
    return SrgParams(pf.s * (pf.s + 1) // 2, pf.sub_b0, pf.sub_b0 - pf.sub_b1 - 1, 2 * p * (p + 1))


EQUALITY = "equality"
STRICT = "strict"
VIOLATED = "violated"


def fundamental_bound_check(b0: int, a1: int, b1: int, theta1, theta4) -> str:
    """Classify (theta1 + b0/(a1+1))(theta4 + b0/(a1+1)) against
    -b0*a1*b1/(a1+1)^2 exactly: both sides are multiplied by (a1+1)^2 > 0,
    which leaves integers for integer thetas.

    Returns "equality" (the tight case), "strict" when the left side
    exceeds the right, or "violated".
    """
    if a1 < 0:
        raise ValueError(f"a1 must be >= 0, got {a1}")
    m = a1 + 1
    lhs = (theta1 * m + b0) * (theta4 * m + b0)
    rhs = -b0 * a1 * b1
    if lhs == rhs:
        return EQUALITY
    return STRICT if lhs > rhs else VIOLATED
