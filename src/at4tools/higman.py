"""Automorphism constraint engine for the (p, p+2, r) candidate family.

Character-sum integrality for the local strongly regular graph, congruence
enumeration of the distance distribution of a prime-order automorphism,
fixed-structure and order classifications, imprimitivity-block,
centralizer and solvability filters, and the derived prime-spectrum bounds
for stabilizers of a vertex-transitive group.  The check that the two
alpha_1 congruences agree for every fixed-point count is an oracle in
tests/oracles.py, which acceptance criterion 5 runs.

Conventions used throughout:

* the "local graph" is the SRG ((p+2)(p^2+4p+2), p(p+3), p-2, p);
* s = (p+2)^2 - 2 = p^2 + 4p + 2 is the largest admissible prime
  automorphism order of the local graph;
* the "cover" is the diameter-4 candidate itself, the "second
  subconstituent" the distance-2 graph of one of its vertices;
* alpha_j counts vertices displaced to distance j by an automorphism.

The filters that read primes of p and of the numbers near it take the
record ``at4.PerP(p)`` in place of p: it holds s, the prime-power base of
p and the factorizations of p+1, p+2, p+4, s and s-1, each made once per
record.  Those whose derivation needs p to be a prime power larger than 2
return an ``inapplicable`` report when that hypothesis fails
(``spectrum_bounds``, whose result is a tuple of lists, returns None), so
parameter scans can proceed without silently applying a constraint
outside its range of validity.
"""

from __future__ import annotations

import math
from bisect import bisect_right

from .at4 import At4Params, IntersectionArray, PerP, closed_forms, quotient_params
from .exactnum import divisors, is_prime, mult_order, primes_upto
from .srg import family_multiplicities, fixed_point_order_bound, local_family_params

PASS = "pass"
FAIL = "fail"
INAPPLICABLE = "inapplicable"


def _case(label: str, params: tuple, verdict: str, conditions=(), data=None, notes=()) -> dict:
    """The report of one case analysis: a verdict plus every condition that
    was checked, so a failing report doubles as an exclusion certificate.
    ``params`` is a tuple, ``conditions`` a tuple of ``{"code", "ok",
    "detail"}`` dicts, ``data`` a dict (a report made without one gets a new
    empty dict of its own) and ``notes`` a tuple of str."""
    return {
        "label": label,
        "params": params,
        "verdict": verdict,
        "conditions": conditions,
        "data": {} if data is None else data,
        "notes": notes,
    }


def _inapplicable(label: str, params: tuple, why: str) -> dict:
    return _case(label, params, INAPPLICABLE, notes=(why,))


# ---------------------------------------------------------------------------
# character sums on the local graph
# ---------------------------------------------------------------------------


def chi_numerators(p: int, a0: int, a1: int, a2: int) -> tuple[tuple[int, int], tuple[int, int]]:
    """chi_1 and chi_2 of the distance distribution (a0, a1, a2) on the
    local graph, each as an integer pair (numerator, denominator) over the
    common denominators 2(p+1)(p+2) and 2(p+1)s, s = (p+2)^2 - 2:

    chi_1 = ((p+1)((p+3)a0 + a1) - a2) / (2(p+1)(p+2))
    chi_2 = ((p+1)(p(p+3)a0 - (p+2)a1) + p*a2) / (2(p+1)s)

    A character is an integer iff ``divmod`` of its pair leaves remainder 0.
    The distribution is not checked here."""
    q = p + 1
    return (
        (q * ((p + 3) * a0 + a1) - a2, 2 * q * (p + 2)),
        (q * (p * (p + 3) * a0 - (p + 2) * a1) + p * a2, 2 * q * (p * p + 4 * p + 2)),
    )


# ---------------------------------------------------------------------------
# alpha_1 enumeration for prime-order automorphisms of the local graph
# ---------------------------------------------------------------------------


def alpha1_residues(p: int, ell: int, fix: int) -> tuple[int, int, int]:
    """Residues (r1, r2) mod 2(p+1)*ell required of alpha_1 by the two
    character congruences, for an element of prime order ell fixing exactly
    ``fix`` vertices.  Returns (r1, r2, modulus)."""
    n1, n2 = family_multiplicities(p)
    m = 2 * (p + 1) * ell
    r1 = (2 * (p + 1) * n1 - (p + 2) * fix + ((p + 2) ** 2 - 2)) % m
    r2 = (p * fix - 2 * (p + 1) * n2 + p * (p + 2)) % m
    return (r1, r2, m)


def alpha1_candidates(p: int, ell: int, fix: int) -> range:
    """All alpha_1 values in [0, v - fix] compatible with both character
    congruences for a prime order ell and fixed-point count ``fix``.

    The two congruences share the modulus 2(p+1)*ell; their intersection is
    a single residue class when they agree and empty otherwise, so the
    enumeration is complete by construction.  The class is returned as a
    ``range`` (``range(0)`` when empty): membership and size cost O(1) and
    iteration is lazy.  A positive ``fix`` must not exceed the
    fixed-subgraph bound (p+2)^2 - 2.
    """
    if p <= 2:
        raise ValueError(f"alpha1_candidates requires p > 2, got {p}")
    if not is_prime(ell):
        raise ValueError(f"alpha1_candidates requires a prime order, got {ell}")
    bound = (p + 2) ** 2 - 2
    if fix < 0 or fix > bound:
        raise ValueError(f"fixed-point count {fix} outside [0, {bound}]")
    r1, r2, m = alpha1_residues(p, ell, fix)
    if r1 != r2:
        return range(0)
    return range(r1, local_family_params(p).v - fix + 1, m)


# ---------------------------------------------------------------------------
# fixed-point structure in the local graph
# ---------------------------------------------------------------------------


def local_fixed_structure(rec: PerP, ell: int) -> dict:
    """Structural constraints on the fixed subgraph of an order-ell
    automorphism of the local graph, classified by how ell compares to p.

    * ell < p: no structural constraint beyond the character filter.
    * ell = p: the fixed-point count is 4 mod p, alpha_1 = p(fix + p + 2)
      mod 2p(p+1), and every non-trivial fixed component is amply regular
      with valency p*l for even l <= p+2 and order at least 4(p+1).
    * ell > p: a non-empty fixed set is impossible; the order can occur at
      all only fixed-point-freely, which needs ell | (p+2)^2 - 2 or
      ell | p+2.
    """
    if not is_prime(ell):
        raise ValueError(f"order must be prime, got {ell}")
    label = "local-fixed-structure"
    p, s = rec.p, rec.s
    if rec.base is None or p == 2:
        return _inapplicable(label, (p, ell), "requires p a prime power with p > 2")
    fpf_ok = (ell % 2 == 1 and (s % ell == 0 or (p + 2) % ell == 0)) or (
        ell == 2 and p % 2 == 0
    )
    if ell < p:
        return _case(
            label,
            (p, ell),
            PASS,
            data={
                "case": "small-order",
                "fix_bound": s,
                "fixed_points_possible": True,
                "fixed_point_free_possible": fpf_ok,
            },
        )
    if ell == p:
        return _case(
            label,
            (p, ell),
            PASS,
            data={
                "case": "order-p",
                "fix_bound": s,
                "fix_residue_mod_p": 4 % p,
                "alpha1_step": 2 * p * (p + 1),
                "alpha1_base": "p*(fix + p + 2)",
                "component_valencies": [p * l for l in range(2, p + 3, 2)],
                "min_component_order": 4 * (p + 1),
                "fixed_points_possible": True,
                "fixed_point_free_possible": False,
            },
            notes=("every fixed component is a single vertex or amply regular of diameter >= 3",),
        )
    cond = {
        "code": "fixed-point-free-order-admissible",
        "ok": fpf_ok,
        "detail": f"order {ell} > p must divide {s} or {p + 2} to act without fixed points",
    }
    return _case(
        label,
        (p, ell),
        PASS if fpf_ok else FAIL,
        conditions=(cond,),
        data={
            "case": "large-order",
            "fixed_points_possible": False,
            "fixed_point_free_possible": fpf_ok,
            "divides_s": s % ell == 0,
            "divides_q": (p + 2) % ell == 0,
        },
    )


# ---------------------------------------------------------------------------
# congruences and order classification on the cover
# ---------------------------------------------------------------------------


def _residues(sizes: tuple[int, ...], ell: int) -> tuple[int, ...]:
    if not is_prime(ell):
        raise ValueError(f"order must be prime, got {ell}")
    return tuple(k % ell for k in sizes)


def cover_congruences(p: int, r: int, ell: int) -> tuple[int, int, int, int]:
    """Residues mod ell of the fixed-set layer counts x_1..x_4 of a
    prime-order automorphism of the cover, measured from a fixed vertex:
    the layer sizes k_1..k_4 of the cover mod ell."""
    return _residues(closed_forms(At4Params(p, r)).layer_sizes[1:], ell)


def subconstituent_congruences(p: int, r: int, ell: int) -> tuple[int, int, int, int]:
    """Residues mod ell of the layer counts y_1..y_4 of the fixed set inside
    the second subconstituent, measured from a fixed vertex of it: the layer
    sizes of the second subconstituent's array mod ell."""
    f = closed_forms(At4Params(p, r))
    return _residues(IntersectionArray(f.sub_b, f.sub_c).layer_sizes[1:], ell)


def cover_order_classification(rec: PerP, r: int) -> dict:
    """Admissible prime orders of a cover automorphism, split by whether it
    can have fixed points, for prime-power p > 2.

    With fixed points: primes <= p, plus p+2 when prime, plus prime
    divisors of s = (p+2)^2 - 2 exceeding p (the latter conservatively,
    including proper divisors of s in that range).  Without fixed points:
    prime divisors of (p+1)(p+4).
    """
    p, s = rec.p, rec.s
    At4Params(p, r)
    label = "cover-order-classification"
    if rec.base is None or p == 2:
        return _inapplicable(label, (p, r), "requires p a prime power with p > 2")
    above = {t for t, _ in rec[s] if t > p}
    if rec.q_prime:
        above.add(p + 2)
    free = {t for n in (p + 1, p + 4) for t, _ in rec[n]}
    return _case(
        label,
        (p, r),
        PASS,
        data={
            "fixed_point_orders": primes_upto(p) + sorted(above),
            "fixed_point_free_orders": sorted(free),
            "s": s,
        },
        notes=(
            f"order {s}: the fixed set is a single antipodal class of {r} vertices",
            f"order {p + 2}: the fixed set is a {2 * r}-coclique, the union of two antipodal classes",
        ),
    )


def cover_fix_bound(p: int, r: int) -> int:
    """Bound r(p+1)(p+2)(p+4) on the fixed set of a non-trivial cover
    automorphism: r times the fixed-point bound of the antipodal quotient."""
    At4Params(p, r)
    return r * fixed_point_order_bound(quotient_params(p))


# ---------------------------------------------------------------------------
# block, centralizer and solvability filters on the local graph
# ---------------------------------------------------------------------------


def block_size_filter(rec: PerP) -> tuple[int, ...]:
    """Admissible sizes of the common fixed set of a point stabilizer under
    a vertex-transitive group: divisors of (p+2)((p+2)^2-2) not exceeding
    (p+2)^2 - 2."""
    q, s = rec.q, rec.s
    # from the factorizations of p+2 and s: their product passes the reach
    # of rho once p > 1.5e8
    out = divisors(q * s, rec[q], rec[s])
    return tuple(out[: bisect_right(out, s)])


def centralizer_filter(rec: PerP) -> dict:
    """Constraints on prime orders commuting with an element of the maximal
    order s = (p+2)^2 - 2, applicable when s is prime and p is a prime
    power above 2.

    Outside the cyclic group generated by the long element, such an order
    must divide p+1 and be below p; its fixed subgraph is regular on s
    vertices, it displaces (p+1)s vertices to distance 1, and each of its
    non-trivial orbits is a clique.  Feeding that displacement count back
    through the character congruences refines the order list further (the
    order must in fact divide (p+1)/2), reported separately as
    ``alpha1_admissible_orders``.
    """
    label = "long-element-centralizer"
    p, s = rec.p, rec.s
    if rec.base is None or p == 2:
        return _inapplicable(label, (p,), "requires p a prime power with p > 2")
    if not rec.s_prime:
        return _inapplicable(label, (p,), f"requires (p+2)^2 - 2 = {s} prime")
    admissible = [t for t, _ in rec[p + 1] if t < p]
    alpha1 = (p + 1) * s
    refined = [t for t in admissible if alpha1 in alpha1_candidates(p, t, s)]
    notes = [
        "the fixed subgraph is regular on s vertices",
        "every non-singleton orbit of the commuting element is a clique",
    ]
    if refined != admissible:
        dropped = sorted(set(admissible) - set(refined))
        notes.append(
            f"orders {dropped} cannot realize alpha1 = {alpha1} with {s} fixed "
            "points: the displacement congruence eliminates them"
        )
    return _case(
        label,
        (p,),
        PASS,
        data={
            "s": s,
            "admissible_orders": admissible,
            "alpha1_admissible_orders": refined,
            "fixed_set_size": s,
            "alpha1": alpha1,
        },
        notes=tuple(notes),
    )


def solvable_cases(rec: PerP) -> dict:
    """The two arithmetic branches available to a solvable vertex-transitive
    group containing an element of prime order s = (p+2)^2 - 2.

    Branch one needs p+2 to be a power of 3 with s = 1 mod 3 and bounds the
    stabilizer spectrum by the prime divisors of (p+1)(s-1).  Branch two
    needs a minimal normal subgroup of order t^e with t | p+2, e >= 2,
    t^e = 1 mod s, s dividing the invertible-matrix group order, and p+2
    composite.  A report in which both branches fail certifies that no
    solvable group of this kind exists.
    """
    label = "solvable-transitive-cases"
    p, s = rec.p, rec.s
    if rec.base is None or p == 2:
        return _inapplicable(label, (p,), "requires p a prime power with p > 2")
    if not rec.s_prime:
        return _inapplicable(label, (p,), f"requires (p+2)^2 - 2 = {s} prime")
    q_primes = [t for t, _ in rec[rec.q]]
    power_of_3 = q_primes == [3]
    case_i_ok = power_of_3 and s % 3 == 1
    case_i = {
        "q_power_of_3": power_of_3,
        "s_mod_3": s % 3,
        "applicable": case_i_ok,
        "stabilizer_prime_bound": sorted({t for n in (p + 1, s - 1) for t, _ in rec[n]}) if case_i_ok else None,
    }
    case_ii = []
    any_ii = False
    q_composite = not rec.q_prime
    for t in q_primes:
        # s is prime: the order of t divides s - 1
        e = mult_order(t, s, rec[s - 1])
        # s divides the invertible-matrix group order iff s divides some
        # t^e - t^i; the i = 0 factor is t^e - 1, zero mod s by choice of e.
        entry = {
            "t": t,
            "e": e,
            "e_at_least_2": e >= 2,
            "s_divides_gl_order": pow(t, e, s) == 1,
            "q_composite": q_composite,
        }
        entry["survives"] = entry["e_at_least_2"] and entry["s_divides_gl_order"] and q_composite
        any_ii = any_ii or entry["survives"]
        case_ii.append(entry)
    conds = (
        {"code": "normal-s-subgroup-branch", "ok": case_i_ok, "detail": "p+2 a power of 3 and s = 1 mod 3"},
        {
            "code": "elementary-abelian-branch",
            "ok": any_ii,
            "detail": "t^e = 1 mod s with e >= 2 and p+2 composite for some t | p+2",
        },
    )
    return _case(
        label,
        (p,),
        PASS if (case_i_ok or any_ii) else FAIL,
        conditions=conds,
        data={"s": s, "case_i": case_i, "case_ii": case_ii},
    )


# ---------------------------------------------------------------------------
# prime-spectrum bounds
# ---------------------------------------------------------------------------


def spectrum_bounds(rec: PerP) -> tuple[list[int], list[int], list[int]] | None:
    """Sandwich on the prime spectrum of an arc-transitive automorphism
    group of a cover, as ascending lists (lower, edge, above).  lower is the
    prime divisors of (p+2)(p^2+4p+2)(p+1)(p+4).  The upper bound, the
    primes up to p+2 joined with the prime divisors of (p^2+4p+2)(p+4), is
    edge + above: edge is every prime up to p, which bounds the prime
    spectrum of an edge stabilizer, and above the few members above p.
    None when p is not a prime power above 2."""
    p = rec.p
    if rec.base is None or p == 2:
        return None
    lower = sorted({t for n in (p + 1, p + 2, p + 4, rec.s) for t, _ in rec[n]})
    # Past p the two bounds agree: a prime up to p+2 above p is p+1 or p+2,
    # which then divides itself, so above is the tail of lower past p.
    return (lower, primes_upto(p), lower[bisect_right(lower, p) :])


def exclusion_arithmetic(rec: PerP) -> dict:
    """Arithmetic skeleton of the arc-transitivity exclusion at p.

    Reports primality of q = p+2 and s = p^2+4p+2, the order s(s^2-1)/2 of
    the simple group PSL(2, s) that survives the spectrum sandwich, the gcd
    of s^2-1 with q (always a divisor of 3, which blocks q from the outer
    automorphism order), and the centralizer and solvable-case filters.
    The verdict is PASS exactly when both primality gates hold.
    """
    p, q, s = rec.p, rec.q, rec.s
    q_prime, s_prime = rec.q_prime, rec.s_prime
    g = math.gcd(s * s - 1, q)
    conds = (
        {"code": "q-prime", "ok": q_prime, "detail": f"q = {q}"},
        {"code": "s-prime", "ok": s_prime, "detail": f"s = {s}"},
    )
    return _case(
        "arc-transitive-exclusion",
        (p,),
        PASS if (q_prime and s_prime) else FAIL,
        conditions=conds,
        data={
            "q": q,
            "s": s,
            "q_prime": q_prime,
            "s_prime": s_prime,
            "psl2_s_order": s * (s * s - 1) // 2 if s_prime else None,
            "gcd_s2_minus_1_q": g,
            "gcd_divides_3": 3 % g == 0,
            "prime_power_p": rec.base is not None,
            "centralizer": centralizer_filter(rec) if p > 2 else None,
            "solvable": solvable_cases(rec) if p > 2 else None,
        },
    )
