"""Parameter engine for antipodal tight diameter-4 graphs with q = p + 2.

A candidate is fixed by a pair (p, r): p >= 2 is the positive local
eigenvalue parameter (the negative one is -q = -(p+2)) and r is the
antipodality index.  Everything here is closed-form integer and Fraction
arithmetic: intersection arrays, antipodal quotient parameters, second
subconstituent parameters, the tightness (fundamental bound) check, and an
independent eigenvalue route through the characteristic polynomial of the
tridiagonal intersection matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction

from .exactnum import divisors, exact_sqrt
from .srg import SrgParams, srg_spectrum


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


@dataclass(frozen=True)
class At4Params:
    """Candidate pair (p, r).

    Construction enforces the three existence conditions: 2 < r < p + 2,
    r | 2(p+1), and 2p(p+1)(p+2)/r even.  The first two make every array
    entry integral.
    """

    p: int
    r: int

    def __post_init__(self):
        reason = _params_violation(self.p, self.r)
        if reason is not None:
            raise ValueError(reason)

    @property
    def q(self) -> int:
        return self.p + 2


@dataclass(frozen=True)
class IntersectionArray:
    """Intersection array {b_0..b_{d-1}; c_1..c_d} of a distance-regular graph.

    Validates positivity, a_i >= 0 and integrality of all distance-layer
    sizes on construction, and keeps a_0..a_d and the layer sizes k_0..k_d
    that the validation computes: a_i = b_0 - b_i - c_i (b_d = 0, c_0 = 0),
    k_0 = 1 and k_{i+1} = k_i b_i / c_{i+1}.
    """

    b: tuple[int, ...]
    c: tuple[int, ...]
    a: tuple[int, ...] = field(init=False, repr=False, compare=False)
    layer_sizes: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if len(self.b) != len(self.c) or not self.b:
            raise ValueError("need b_0..b_{d-1} and c_1..c_d of equal positive length")
        if min(self.b) <= 0 or min(self.c) <= 0:
            raise ValueError(f"array entries must be positive: {self}")
        if self.c[0] != 1:
            raise ValueError(f"c_1 must be 1: {self}")
        b0 = self.b[0]
        a = tuple(b0 - b - c for b, c in zip(self.b + (0,), (0,) + self.c))
        if min(a) < 0:
            raise ValueError(f"negative a_i: {self}")
        sizes = [1]
        for b, c in zip(self.b, self.c):
            num = sizes[-1] * b
            if num % c != 0:
                raise ValueError(f"non-integral layer size at distance {len(sizes)}: {self}")
            sizes.append(num // c)
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "layer_sizes", tuple(sizes))

    @property
    def diameter(self) -> int:
        return len(self.c)

    @property
    def vertex_count(self) -> int:
        return sum(self.layer_sizes)

    def __str__(self) -> str:
        return "{%s; %s}" % (",".join(map(str, self.b)), ",".join(map(str, self.c)))


@dataclass(frozen=True)
class At4Derived:
    """Global counts attached to a candidate: vertex count, antipodal class
    count, the divisor bound r on the covering kernel, and the triple
    intersection constant 2(p+1)/r."""

    vertices: int
    classes: int
    kernel_order_divides: int
    triple_constant: int


def feasible_r(p: int) -> tuple[int, ...]:
    """All antipodality indices r admissible at p: 2 < r < p+2, r | 2(p+1),
    and 2p(p+1)(p+2)/r even."""
    if p < 2:
        raise ValueError(f"feasible_r requires p >= 2, got {p}")
    return tuple(r for r in divisors(2 * (p + 1)) if _params_violation(p, r) is None)


def intersection_array(params: At4Params) -> IntersectionArray:
    """Diameter-4 intersection array of the candidate (p, r)."""
    p, r = params.p, params.r
    b0 = (p + 2) * (p * p + 4 * p + 2)
    b1 = (p + 3) * (p + 1) ** 2
    c2 = 2 * (p + 1) * (p + 2) // r
    return IntersectionArray((b0, b1, (r - 1) * c2, 1), (1, c2, b1, b0))


def second_subconstituent_array(params: At4Params) -> IntersectionArray:
    """Intersection array induced on the distance-2 graph of a vertex."""
    p, r = params.p, params.r
    b0 = p * (p + 2) ** 2
    b1 = (p + 1) ** 3
    c2 = 2 * p * (p + 1) // r
    return IntersectionArray((b0, b1, (r - 1) * c2, 1), (1, c2, b1, b0))


def antipodal_check(arr: IntersectionArray) -> tuple[bool, Fraction | None]:
    """Test b_i = c_{4-i} for i in {0, 1, 3} on a diameter-4 array; when it
    holds, return the cover index r = 1 + b_2/c_2."""
    if arr.diameter != 4:
        raise ValueError(f"antipodal_check needs diameter 4, got {arr.diameter}")
    b, c = arr.b, arr.c
    if b[0] != c[3] or b[1] != c[2] or b[3] != c[0]:
        return (False, None)
    return (True, 1 + Fraction(b[2], c[1]))


def quotient_params(p: int) -> SrgParams:
    """SRG parameters of the antipodal quotient; the spectrum is verified to
    have non-principal eigenvalues p and -(p+2)^2."""
    if p < 2:
        raise ValueError(f"quotient_params requires p >= 2, got {p}")
    params = SrgParams(
        (p + 1) ** 2 * (p + 4) ** 2 // 2,
        (p + 2) * (p * p + 4 * p + 2),
        p * (p + 3),
        2 * (p + 1) * (p + 2),
    )
    spec = srg_spectrum(params)
    assert (spec.theta_pos, spec.theta_neg) == (p, -((p + 2) ** 2))
    return params


def second_subconstituent_quotient(p: int) -> SrgParams:
    """SRG parameters of a second neighborhood in the antipodal quotient;
    verified to have non-principal eigenvalues p and -(p^2+2p+2)."""
    if p < 2:
        raise ValueError(f"second_subconstituent_quotient requires p >= 2, got {p}")
    params = SrgParams(
        (p + 1) * (p + 3) * (p * p + 4 * p + 2) // 2,
        p * (p + 2) ** 2,
        p * p + p - 2,
        2 * p * (p + 1),
    )
    spec = srg_spectrum(params)
    assert (spec.theta_pos, spec.theta_neg) == (p, -(p * p + 2 * p + 2))
    return params


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


def local_eigen_from_array(b1: int, theta1, theta4) -> tuple[Fraction, Fraction]:
    """Local eigenvalue parameters (p, q) recovered from b_1 and the second
    and last eigenvalues: p = -1 - b1/(1+theta4), q = 1 + b1/(1+theta1).

    b1 = 0 degenerates to (-1, 1), which no valid candidate attains."""
    if theta1 == -1 or theta4 == -1:
        raise ValueError("theta = -1 makes the local parameters undefined")
    return (-1 - Fraction(b1, 1 + theta4), 1 + Fraction(b1, 1 + theta1))


def triple_constant(params: At4Params, arr: IntersectionArray | None = None) -> int:
    """The constant number 2(p+1)/r of common neighbors of an edge and a
    vertex at distance 2 from both ends, cross-checked as c2(a1-p)/a2.
    ``arr`` is the intersection array of ``params`` when the caller has
    already built it."""
    p, r = params.p, params.r
    value = 2 * (p + 1) // r
    if arr is None:
        arr = intersection_array(params)
    a = arr.a
    assert Fraction(arr.c[1] * (a[1] - p), a[2]) == value
    return value


def derived(params: At4Params, arr: IntersectionArray | None = None) -> At4Derived:
    """Vertex count and covering data, with the closed form
    v = r(b0+1) + b0*b1/c2 checked against the layer sizes.  ``arr`` is the
    intersection array of ``params`` when the caller has already built it."""
    if arr is None:
        arr = intersection_array(params)
    r = params.r
    num = arr.b[0] * arr.b[1]
    assert num % arr.c[1] == 0
    v = r * (arr.b[0] + 1) + num // arr.c[1]
    assert v == arr.vertex_count
    assert v % r == 0
    return At4Derived(v, v // r, r, triple_constant(params, arr))


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


def at4_eigenvalues(
    params: At4Params, arr: IntersectionArray | None = None
) -> tuple[int, int, int, int, int]:
    """All five eigenvalues of the candidate array, descending.

    Three are located independently: the valency, and theta_1/theta_4
    reconstructed by inverting the local-parameter relations.  Each is
    verified as a root of the characteristic polynomial computed from the
    array alone; the remaining two come from the deflated quadratic.
    ``arr`` is the intersection array of ``params`` when the caller has
    already built it.
    """
    if arr is None:
        arr = intersection_array(params)
    poly = char_poly(arr)
    b1 = arr.b[1]
    theta1 = -1 + b1 // (params.q - 1)
    theta4 = -1 - b1 // (1 + params.p)
    roots = [arr.b[0], theta1, theta4]
    for root in roots:
        if _poly_eval(poly, root) != 0:
            raise ArithmeticError(f"{root} is not an eigenvalue of {arr}")
        poly = _deflate(poly, root)
    # poly is now monic quadratic x^2 + ux + w
    u, w = poly[1], poly[0]
    disc = exact_sqrt(u * u - 4 * w)
    if disc is None or (u + disc) % 2 != 0:
        raise ArithmeticError(f"irrational middle eigenvalues for {arr}")
    roots += [(-u + disc) // 2, (-u - disc) // 2]
    assert len(set(roots)) == 5
    return tuple(sorted(roots, reverse=True))
