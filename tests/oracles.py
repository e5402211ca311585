"""Independent routes that the tests hold the program's results to.

None of these is reached by a command: each recomputes something the
program derives another way, so that the two can be compared.
* ``gl_order`` is the literal group order behind the modular shortcut of
  ``higman.solvable_cases``;
* ``second_eigenmatrix`` gives the character values of
  ``higman.chi_values`` as (1/v) sum_j Q[i][j] alpha_j;
* ``alpha1_expressions_consistent`` checks the two alpha_1 congruences of
  ``higman.alpha1_residues`` against divisibility of the displaced count;
* ``antipodal_check`` reads the cover index r back from an array;
* ``is_automorphism`` and ``alpha_profile`` measure a displacement profile
  from the all-pairs distance matrix, the route the audit avoids.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from at4tools.exactnum import is_prime
from at4tools.higman import alpha1_residues, local_vertex_count


def gl_order(e: int, t: int) -> int:
    """Order of the group of invertible e x e matrices over the t-element field.

    Equals the product of (t**e - t**i) for i in 0..e-1; t must be prime.
    """
    if e < 1:
        raise ValueError(f"gl_order requires e >= 1, got {e}")
    if not is_prime(t):
        raise ValueError(f"gl_order requires prime t, got {t}")
    q = t**e
    out = 1
    for i in range(e):
        out *= q - t**i
    return out


@dataclass(frozen=True)
class EigenmatrixQ:
    """Second eigenmatrix of the 3-class scheme of a family member.

    Rows are indexed by eigenspace (principal, positive, negative), columns
    by distance (0, 1, 2); every entry is an exact Fraction.
    """

    rows: tuple[tuple[Fraction, Fraction, Fraction], ...]

    def entry(self, i: int, j: int) -> Fraction:
        return self.rows[i][j]


def second_eigenmatrix(p: int) -> EigenmatrixQ:
    """Second eigenmatrix of the scheme on a family member, p >= 2."""
    if p < 2:
        raise ValueError(f"second_eigenmatrix requires p >= 2, got {p}")
    s = (p + 2) ** 2 - 2
    one = Fraction(1)
    rows = (
        (one, one, one),
        (
            Fraction((p + 3) * s, 2),
            Fraction((p + 2) ** 2, 2) - 1,
            Fraction(-s, 2 * (p + 1)),
        ),
        (
            Fraction((p + 1) * s, 2) - 1,
            Fraction(-((p + 2) ** 2), 2),
            Fraction(p * (p + 2), 2 * (p + 1)),
        ),
    )
    return EigenmatrixQ(rows)


def alpha1_expressions_consistent(p: int, ell: int) -> bool:
    """Check, for every fixed-point count up to the bound (p+2)^2 - 2, that
    the two alpha_1 congruences agree exactly when ell divides the number of
    displaced vertices v - fix.  Runs in O(p^2) integer operations."""
    if p <= 2:
        raise ValueError(f"requires p > 2, got {p}")
    if not is_prime(ell):
        raise ValueError(f"requires a prime order, got {ell}")
    v = local_vertex_count(p)
    r1, r2, m = alpha1_residues(p, ell, 0)
    step1 = (p + 2) % m
    step2 = p % m
    vres = v % ell
    for _ in range((p + 2) ** 2 - 1):
        if (r1 == r2) != (vres == 0):
            return False
        r1 -= step1
        if r1 < 0:
            r1 += m
        r2 += step2
        if r2 >= m:
            r2 -= m
        vres -= 1
        if vres < 0:
            vres += ell
    return True


def antipodal_check(arr) -> tuple[bool, Fraction | None]:
    """Test b_i = c_{4-i} for i in {0, 1, 3} on a diameter-4 array; when it
    holds, return the cover index r = 1 + b_2/c_2."""
    if arr.diameter != 4:
        raise ValueError(f"antipodal_check needs diameter 4, got {arr.diameter}")
    b, c = arr.b, arr.c
    if b[0] != c[3] or b[1] != c[2] or b[3] != c[0]:
        return (False, None)
    return (True, 1 + Fraction(b[2], c[1]))


def distances(g) -> tuple[tuple[int, ...], ...]:
    """All-pairs distance matrix, -1 for unreachable pairs."""
    return tuple(g.bfs_distances(v) for v in range(g.n))


def diameter(g) -> int:
    if g.n == 0 or not g.is_connected():
        raise ValueError("diameter needs a non-empty connected graph")
    return max(map(max, distances(g)))


def is_automorphism(g, sigma) -> bool:
    """True iff sigma is a bijection of the vertices mapping every edge to
    an edge; a bijection that does so preserves non-edges too."""
    if len(sigma) != g.n:
        raise ValueError(f"permutation length {len(sigma)} does not match n = {g.n}")
    if sorted(sigma) != list(range(g.n)):
        return False
    return all(sigma[v] in g.neighbors(sigma[u]) for u in range(g.n) for v in g.neighbors(u))


def alpha_profile(g, sigma) -> tuple[int, ...]:
    """Counts (alpha_0..alpha_d) of vertices moved to each distance by an
    automorphism of a connected graph."""
    if not is_automorphism(g, sigma):
        raise ValueError("sigma is not an automorphism")
    counts = [0] * (diameter(g) + 1)
    for row, image in zip(distances(g), sigma):
        counts[row[image]] += 1
    return tuple(counts)
