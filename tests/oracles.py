"""Independent routes that the tests hold the program's results to.

None of these is reached by a command: each recomputes something the
program derives another way, so that the two can be compared.
* ``gl_order`` is the literal group order behind the modular shortcut of
  ``higman.solvable_cases``;
* ``second_eigenmatrix`` gives the character values of ``chi_values``
  as (1/v) sum_j Q[i][j] alpha_j;
* ``alpha1_expressions_consistent`` checks the two alpha_1 congruences of
  ``higman.alpha1_residues`` against divisibility of the displaced count;
* ``antipodal_check`` reads the cover index r back from an array;
* ``is_automorphism`` and ``alpha_profile`` measure a displacement profile
  from the all-pairs distance matrix, the route the audit avoids;
* ``chi_values`` and ``chi_filter`` read the characters of an
  ``AutProfile`` from the integer pairs of ``higman.chi_numerators``, as
  Fractions and as the prime-order filter that the audit applies inline;
* ``rational_chi_values``, ``rational_chi_filter``, ``reference_codes``
  and ``reference_audit`` are the character sums in ``Fraction``
  arithmetic, the verdict on one profile and the audit loop that reads
  them, which ``higman.chi_numerators`` replaces by integers;
  the loop shares no kernel with the audit: it tests a bijection by
  sorting, an automorphism edge by edge (``is_automorphism``) and counts
  alpha_1 from ``g.neighbors``, where the audit translates byte tables or
  looks int edge codes up;
* ``reference_parse_graph`` parses a graph file one token at a time, each
  token by a full match of ASCII digits, and symmetrizes its rows through
  one set per vertex, where ``graphcheck.parse_graph`` reads each id by one
  lookup in a per-file table, sends only a line with a miss to its
  per-token loop, and tests symmetry by transposing the sorted rows;
* ``reference_parse_permutations`` reads each image of a permutation file
  as its own token, where ``graphcheck.parse_permutations`` looks every
  image up in that table and reads only a line with a miss whole.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from fractions import Fraction

import operator
import re

from at4tools.exactnum import is_prime
from at4tools.graphcheck import (
    MAX_VERTICES,
    GraphError,
    _content_lines,
    perm_order,
    verify_srg,
)
from at4tools.higman import alpha1_candidates, alpha1_residues, chi_numerators
from at4tools.srg import family_multiplicities, fixed_point_order_bound, local_family_params


class Verdict(namedtuple("Verdict", "ok reasons", defaults=((),))):
    """Pass/fail outcome ``ok`` of a chi filter, with a tuple of
    machine-readable ``reasons`` (default empty), one for every failure."""

    __slots__ = ()


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
    v = local_family_params(p).v
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


def bfs_distances(g, start: int) -> tuple[int, ...]:
    """Distances from start, -1 for unreachable vertices."""
    dist = [-1] * g.n
    dist[start] = 0
    frontier = [start]
    d = 0
    while frontier:
        d += 1
        nxt = []
        for v in frontier:
            for w in g.adj[v]:
                if dist[w] < 0:
                    dist[w] = d
                    nxt.append(w)
        frontier = nxt
    return tuple(dist)


def distances(g) -> tuple[tuple[int, ...], ...]:
    """All-pairs distance matrix, -1 for unreachable pairs."""
    return tuple(bfs_distances(g, v) for v in range(g.n))


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


class AutProfile(namedtuple("AutProfile", "order alpha0 alpha1 alpha2")):
    """Distance distribution (alpha_0, alpha_1, alpha_2) of an automorphism
    of a diameter-2 graph, together with the element's order."""

    __slots__ = ()

    def counts(self) -> tuple[int, int, int]:
        return (self.alpha0, self.alpha1, self.alpha2)


def _profile_counts(p: int, profile: AutProfile) -> tuple[int, int, int]:
    """The counts of a profile, checked to be a distribution on the local
    graph at p >= 2."""
    if p < 2:
        raise ValueError(f"chi_values requires p >= 2, got {p}")
    counts = profile.counts()
    if min(counts) < 0 or sum(counts) != local_family_params(p).v:
        raise ValueError(f"profile {counts} does not sum to v = {local_family_params(p).v}")
    return counts


def chi_values(p: int, profile: AutProfile) -> tuple[Fraction, Fraction]:
    """Characters of the permutation action projected to the two
    non-principal eigenspaces of the local graph, as exact rationals.

    chi_1 = ((p+3)a0/2 + a1/2 - a2/(2(p+1))) / (p+2)
    chi_2 = (p(p+3)a0/2 - (p+2)a1/2 + p*a2/(2(p+1))) / ((p+2)^2 - 2)
    """
    (num1, den1), (num2, den2) = chi_numerators(p, *_profile_counts(p, profile))
    return (Fraction(num1, den1), Fraction(num2, den2))


def chi_filter(p: int, profile: AutProfile) -> Verdict:
    """Integrality and order-divisibility filter on a prime-order profile.

    Passes iff chi_1 and chi_2 are integers and the element order divides
    both chi_1 - n1 and chi_2 - n2, where n1, n2 are the eigenspace
    dimensions.
    """
    ell = profile.order
    if not is_prime(ell):
        raise ValueError(f"chi_filter requires a prime order, got {ell}")
    (num1, den1), (num2, den2) = chi_numerators(p, *_profile_counts(p, profile))
    chi1, rem1 = divmod(num1, den1)
    chi2, rem2 = divmod(num2, den2)
    reasons = []
    if rem1:
        reasons.append("chi1-non-integral")
    if rem2:
        reasons.append("chi2-non-integral")
    if not reasons:
        n1, n2 = family_multiplicities(p)
        if (chi1 - n1) % ell:
            reasons.append("chi1-congruence")
        if (chi2 - n2) % ell:
            reasons.append("chi2-congruence")
    return Verdict(not reasons, tuple(reasons))


def rational_chi_values(p: int, profile) -> tuple[Fraction, Fraction]:
    """chi_1 and chi_2 of a profile summing to v, summed term by term in
    Fractions:

    chi_1 = ((p+3)a0/2 + a1/2 - a2/(2(p+1))) / (p+2)
    chi_2 = (p(p+3)a0/2 - (p+2)a1/2 + p*a2/(2(p+1))) / ((p+2)^2 - 2)
    """
    a0, a1, a2 = profile.counts()
    assert min(a0, a1, a2) >= 0 and a0 + a1 + a2 == local_family_params(p).v
    half = Fraction(1, 2)
    frac = Fraction(1, 2 * (p + 1))
    chi1 = ((p + 3) * a0 * half + a1 * half - a2 * frac) / (p + 2)
    chi2 = (p * (p + 3) * a0 * half - (p + 2) * a1 * half + p * a2 * frac) / ((p + 2) ** 2 - 2)
    return (chi1, chi2)


def rational_chi_filter(p: int, profile) -> Verdict:
    """The verdict of ``chi_filter`` on a prime-order profile, read
    from ``rational_chi_values``."""
    ell = profile.order
    chi1, chi2 = rational_chi_values(p, profile)
    n1, n2 = family_multiplicities(p)
    reasons = []
    if chi1.denominator != 1:
        reasons.append("chi1-non-integral")
    if chi2.denominator != 1:
        reasons.append("chi2-non-integral")
    if not reasons:
        if (int(chi1) - n1) % ell != 0:
            reasons.append("chi1-congruence")
        if (int(chi2) - n2) % ell != 0:
            reasons.append("chi2-congruence")
    return Verdict(not reasons, tuple(reasons))


def reference_codes(p: int, order: int, fix: int, adjacent: int) -> tuple[str, ...]:
    """The failure codes ``graphcheck.audit_family_graph`` gives an
    automorphism of order ``order`` with alpha_0 = fix and alpha_1 =
    adjacent, with the characters in Fractions."""
    params = local_family_params(p)
    bound = fixed_point_order_bound(params)
    codes = []
    if order > 1 and fix > bound:
        codes.append("fix-bound-exceeded")
    aut = AutProfile(order, fix, adjacent, params.v - fix - adjacent)
    chi1, chi2 = rational_chi_values(p, aut)
    if chi1.denominator != 1 or chi2.denominator != 1:
        codes.append("non-integral-character")
    elif is_prime(order):
        codes.extend(rational_chi_filter(p, aut).reasons)
        if p > 2 and fix <= bound and adjacent not in alpha1_candidates(p, order, fix):
            codes.append("alpha1-not-admissible")
    return tuple(codes)


def reference_audit(g, p: int, sigmas) -> tuple[tuple, tuple]:
    """(failures, orders) of ``graphcheck.audit_family_graph``, element by
    element with the characters in Fractions."""
    assert verify_srg(g) == local_family_params(p)
    n = g.n
    failures = []
    orders = []
    for idx, sigma in enumerate(sigmas):
        if len(sigma) != n or sorted(sigma) != list(range(n)):
            failures.append((idx, ("not-a-permutation",)))
            orders.append(0)
            continue
        if not is_automorphism(g, sigma):
            failures.append((idx, ("not-automorphism",)))
            orders.append(0)
            continue
        order = perm_order(sigma)
        orders.append(order)
        fix = sum(map(operator.eq, sigma, range(n)))
        adjacent = sum(sigma[u] in g.neighbors(u) for u in range(n))
        codes = reference_codes(p, order, fix, adjacent)
        if codes:
            failures.append((idx, codes))
    return tuple(failures), tuple(orders)


def _reference_rows(neighbours, warnings: list[str]) -> tuple[tuple[int, ...], ...]:
    """The sorted neighbour tuples of ``graphcheck.Graph(neighbours,
    warnings)``, built through one set per vertex."""
    sets = [set(nbrs) for nbrs in neighbours]
    n = len(sets)
    for i, nbrs in enumerate(sets):
        if nbrs and (min(nbrs) < 0 or max(nbrs) >= n):
            raise GraphError(f"vertex {i} has a neighbor out of range")
        if i in nbrs:
            raise GraphError(f"loop at vertex {i}")
        for j in sorted(nbrs):
            if i not in sets[j]:
                warnings.append(f"edge {i}-{j} listed only once; symmetrized")
                sets[j].add(i)
    return tuple(tuple(sorted(nbrs)) for nbrs in sets)


def _natural(tok: str) -> int | None:
    """The natural number a token of ASCII digits spells, or None for any
    other token and for one that int() refuses as too long."""
    if re.fullmatch("[0-9]+", tok):
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _quoted(text: str) -> str:
    """A refused token or line as an error message quotes it: whole up to 32
    characters, else its first 32, ``...`` and its length."""
    if len(text) > 32:
        return repr(text[:32]) + f"... ({len(text)} characters)"
    return repr(text)


def reference_parse_graph(text: str) -> tuple[tuple[tuple[int, ...], ...], tuple[str, ...]]:
    """(adj, warnings) of ``graphcheck.parse_graph(text)``, each listed
    neighbour read as its own token."""
    lines = list(_content_lines(text))
    if not lines:
        raise GraphError("empty input: expected header line 'n <count>'")
    lineno, header = lines[0]
    parts = header.split()
    n = _natural(parts[1]) if len(parts) == 2 and parts[0] == "n" else None
    if n is None:
        raise GraphError(f"line {lineno}: expected header 'n <count>', got {_quoted(header)}")
    if n > MAX_VERTICES:
        raise GraphError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}")
    listed: dict[int, list[int]] = {}
    for lineno, line in lines[1:]:
        head, sep, tail = line.partition(":")
        i = _natural(head.strip()) if sep else None
        if i is None:
            raise GraphError(f"line {lineno}: expected 'i: neighbors', got {_quoted(line)}")
        if i >= n:
            raise GraphError(f"line {lineno}: vertex {i} out of range for n = {n}")
        add = listed.setdefault(i, []).append
        for tok in tail.split():
            j = _natural(tok)
            if j is None:
                raise GraphError(f"line {lineno}: bad neighbor {_quoted(tok)}")
            if j >= n:
                raise GraphError(f"line {lineno}: neighbor {j} out of range for n = {n}")
            if j == i:
                raise GraphError(f"line {lineno}: loop at vertex {i}")
            add(j)
    warnings: list[str] = []
    adj = _reference_rows([listed.get(i, ()) for i in range(n)], warnings)
    return adj, tuple(warnings)


def reference_parse_permutations(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """``graphcheck.parse_permutations(text, n)``, each image read as its own
    token."""
    perms = []
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != n:
            raise GraphError(f"line {lineno}: expected {n} images, got {len(toks)}")
        images = []
        for tok in toks:
            image = _natural(tok)
            if image is None:
                raise GraphError(f"line {lineno}: bad image {_quoted(tok)}")
            images.append(image)
        perms.append(tuple(images))
    return tuple(perms)
