"""Checks of every report, made apart from the program.

The oracles are sympy (factorisations, primality, divisors, the spectrum of
the tridiagonal intersection matrix, permutation orders), networkx (strong
and distance regularity) and the closed forms of the paper written out here
again.  No report is compared with a stored copy of an earlier output.

``check(op, rc, text)`` returns a list of problems, empty when the report is
right.  Operations that raised are not checked: they count as failed.
"""

from __future__ import annotations

import functools
import json
import math
from fractions import Fraction
from pathlib import Path

import networkx as nx
import sympy
from sympy.combinatorics import Permutation
from sympy.ntheory import n_order

from workloads import feasible_r

SCHEMA = "at4.report/1"
INAPPLICABLE = "inapplicable"


class Problems(list):
    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.append(f"{what}: got {_short(got)}, want {_short(want)}")


def _short(value) -> str:
    text = json.dumps(value, default=str)
    return text if len(text) <= 120 else text[:117] + "..."


def check(op: dict, rc, text: str) -> list[str]:
    """Problems with one report."""
    kind, meta, out = op["kind"], op["meta"], Problems()
    if kind == "verify" and meta["graph"] == "oversize":
        # the documented outcome of an input error: exit 3, no report
        out.expect("exit code", rc, 3)
        out.expect("report", text, "")
        return out
    try:
        report = json.loads(text)
    except ValueError:
        return [f"exit {rc}, output is not JSON: {text[:80]!r}"]
    out.expect("schema", report.get("schema"), SCHEMA)
    out.expect("command", report.get("command"), kind)
    if "timing_ms" in report:
        out.append("timing_ms present under --deterministic")
    if kind == "audit":
        _check_audit(op, rc, report, out)
        return out
    out.expect("exit code", rc, 0)
    if kind == "scan":
        _check_scan(op, report, out)
    elif kind == "array":
        _check_array_report(meta["p"], meta["r"], report, out)
    elif kind == "bounds":
        _check_bounds(meta["p"], report, out)
    elif kind == "profile":
        _check_profile(meta["p"], meta["r"], meta["ell"], report, out)
    elif kind == "verify":
        _check_verify(op, report, out)
    else:
        out.append(f"unknown operation kind {kind!r}")
    return out


# ---------------------------------------------------------------------------
# closed forms of the family
# ---------------------------------------------------------------------------


def _s(p: int) -> int:
    return p * p + 4 * p + 2


def _srg_spectrum(v: int, k: int, lam: int, mu: int):
    """(theta, multiplicity) of the two non-principal eigenvalues, larger
    first; None when they are irrational."""
    disc = (lam - mu) ** 2 + 4 * (k - mu)
    root = math.isqrt(disc)
    if root * root != disc:
        return None
    f = Fraction((v - 1) * root - (2 * k + (v - 1) * (lam - mu)), 2 * root)
    return ((lam - mu + root) // 2, f), ((lam - mu - root) // 2, v - 1 - f)


def _local_srg(p: int) -> list[int]:
    return [(p + 2) * _s(p), p * (p + 3), p - 2, p]


@functools.cache
def _multiplicities(p: int) -> tuple[int, int]:
    (_, n1), (_, n2) = _srg_spectrum(*_local_srg(p))
    return int(n1), int(n2)


def _arrays(p: int, r: int):
    """Intersection arrays of the candidate and of its second subconstituent."""
    b0, b1, c2 = (p + 2) * _s(p), (p + 3) * (p + 1) ** 2, 2 * (p + 1) * (p + 2) // r
    sb0, sb1, sc2 = p * (p + 2) ** 2, (p + 1) ** 3, 2 * p * (p + 1) // r
    return (
        ([b0, b1, (r - 1) * c2, 1], [1, c2, b1, b0]),
        ([sb0, sb1, (r - 1) * sc2, 1], [1, sc2, sb1, sb0]),
    )


def _layers(b, c) -> list[int]:
    sizes = [1]
    for bi, ci in zip(b, c):
        sizes.append(sizes[-1] * bi // ci)
    return sizes


def _prime_power(p: int):
    fac = sympy.factorint(p)
    return list(next(iter(fac.items()))) if len(fac) == 1 else None


def _pp_gt2(p: int) -> bool:
    return p > 2 and _prime_power(p) is not None


def _admissible(p: int, ell: int, a0: int, a1: int) -> bool:
    """Both characters of the displacement profile (a0, a1, v - a0 - a1),
    chi1 = ((p+3)a0/2 + a1/2 - a2/(2(p+1)))/(p+2) and
    chi2 = (p(p+3)a0/2 - (p+2)a1/2 + p a2/(2(p+1)))/s, are integers
    congruent mod ell to the dimensions of their eigenspaces."""
    s, v = _s(p), (p + 2) * _s(p)
    a2 = v - a0 - a1
    num1, den1 = (p + 3) * (p + 1) * a0 + (p + 1) * a1 - a2, 2 * (p + 1) * (p + 2)
    num2, den2 = p * (p + 3) * (p + 1) * a0 - (p + 2) * (p + 1) * a1 + p * a2, 2 * (p + 1) * s
    if num1 % den1 or num2 % den2:
        return False
    n1, n2 = _multiplicities(p)
    return (num1 // den1 - n1) % ell == 0 and (num2 // den2 - n2) % ell == 0


def _prime_gate_fields(p: int, rep: dict, out: Problems) -> None:
    s = _s(p)
    if _pp_gt2(p):
        out.expect("edge_stabilizer_primes", rep["edge_stabilizer_primes"], list(sympy.primerange(2, p + 1)))
        out.expect("spectrum_lower", rep["spectrum_lower"], sympy.primefactors((p + 2) * s * (p + 1) * (p + 4)))
        upper = set(sympy.primerange(2, p + 3)) | set(sympy.primefactors(s * (p + 4)))
        out.expect("spectrum_upper", rep["spectrum_upper"], sorted(upper))
    else:
        for key in ("edge_stabilizer_primes", "spectrum_lower", "spectrum_upper"):
            out.expect(key, rep[key], INAPPLICABLE)


def _check_centralizer(p: int, rep, out: Problems) -> None:
    s = _s(p)
    if not (_pp_gt2(p) and sympy.isprime(s)):
        verdict = rep if rep == INAPPLICABLE else rep.get("verdict")
        out.expect("centralizer verdict", verdict, INAPPLICABLE)
        return
    data = rep["data"]
    out.expect("centralizer verdict", rep["verdict"], "pass")
    out.expect("centralizer s", data["s"], s)
    out.expect("centralizer alpha1", data["alpha1"], (p + 1) * s)
    admissible = [t for t in sympy.primefactors(p + 1) if t < p]
    out.expect("centralizer admissible_orders", data["admissible_orders"], admissible)
    refined = [t for t in admissible if _admissible(p, t, s, (p + 1) * s)]
    out.expect("centralizer alpha1_admissible_orders", data["alpha1_admissible_orders"], refined)
    for t in data["alpha1_admissible_orders"]:
        if (p + 1) // 2 % t:
            out.append(f"alpha1-admissible order {t} does not divide (p+1)/2 = {(p + 1) // 2}")


def _check_array(p: int, r: int, rep: dict, out: Problems, by_sympy: bool) -> None:
    (b, c), (sb, sc) = _arrays(p, r)
    tag = f"array({p},{r})"
    out.expect(f"{tag} b", rep["b"], b)
    out.expect(f"{tag} c", rep["c"], c)
    a = [b[0] - bi - ci for bi, ci in zip(b + [0], [0] + c)]
    out.expect(f"{tag} a", rep["a"], a)
    sizes = _layers(b, c)
    out.expect(f"{tag} layer_sizes", rep["layer_sizes"], sizes)
    out.expect(f"{tag} vertices", rep["vertices"], sum(sizes))
    out.expect(f"{tag} antipodal_classes", rep["antipodal_classes"], sum(sizes) // r)
    out.expect(f"{tag} antipodal", rep["antipodal"], True)
    out.expect(f"{tag} recovered_r", rep["recovered_r"], str(r))
    out.expect(f"{tag} triple_constant", rep["triple_constant"], 2 * (p + 1) // r)
    eig = [b[0], _s(p), p, -(p + 2), -((p + 2) ** 2)]
    out.expect(f"{tag} eigenvalues", rep["eigenvalues"], eig)
    out.expect(f"{tag} fundamental_bound", rep["fundamental_bound"], "equality")
    out.expect(f"{tag} second_subconstituent", rep["second_subconstituent"], {"b": sb, "c": sc})
    if by_sympy:
        # the spectrum of the tridiagonal intersection matrix
        m = sympy.zeros(5, 5)
        for i in range(5):
            m[i, i] = rep["a"][i]
            if i < 4:
                m[i, i + 1], m[i + 1, i] = rep["b"][i], rep["c"][i]
        x = sympy.Symbol("x")
        roots = sympy.roots(m.charpoly(x).as_expr(), x)
        want = {str(e): 1 for e in rep["eigenvalues"]}
        out.expect(f"{tag} eigenvalues by sympy", {str(k): v for k, v in roots.items()}, want)


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------


def _check_scan(op: dict, report: dict, out: Problems) -> None:
    lo, hi = int(op["argv"][-2]), int(op["argv"][-1])
    out.expect("inputs", report["inputs"], {"p_min": lo, "p_max": hi})
    out.expect("entries", [e["p"] for e in report["entries"]], list(range(lo, hi + 1)))
    for e in report["entries"]:
        p = e["p"]
        s = _s(p)
        out.expect(f"p={p} q", e["q"], p + 2)
        out.expect(f"p={p} s", e["s"], s)
        out.expect(f"p={p} prime_power", e["prime_power"], _prime_power(p))
        out.expect(f"p={p} q_prime", e["q_prime"], sympy.isprime(p + 2))
        out.expect(f"p={p} s_prime", e["s_prime"], sympy.isprime(s))
        out.expect(f"p={p} local_srg", e["local_srg"], _local_srg(p))
        out.expect(f"p={p} local_fix_bound", e["local_fix_bound"], s)
        out.expect(f"p={p} clique_bound", e["clique_bound"], (p + 2) ** 2)
        rs = feasible_r(p)
        out.expect(f"p={p} feasible_r", e["feasible_r"], rs)
        out.expect(f"p={p} array indices", [a["r"] for a in e["arrays"]], rs)
        for arr in e["arrays"]:
            # one sympy cross-check per report keeps the checks cheap
            _check_array(p, arr["r"], arr, out, by_sympy=p == lo)
        _prime_gate_fields(p, e, out)
        _check_centralizer(p, e["centralizer_filter"], out)


def _check_array_report(p: int, r: int, report: dict, out: Problems) -> None:
    out.expect("inputs", report["inputs"], {"p": p, "r": r})
    _check_array(p, r, report, out, by_sympy=True)
    for key, params, theta in (
        ("quotient_srg", report["quotient_srg"], (p, -((p + 2) ** 2))),
        ("second_subconstituent_quotient_srg", report["second_subconstituent_quotient_srg"], (p, -(p * p + 2 * p + 2))),
    ):
        v, k, lam, mu = params
        out.expect(f"{key} counting identity", k * (k - lam - 1), (v - k - 1) * mu)
        spectrum = _srg_spectrum(v, k, lam, mu)
        if spectrum is None:
            out.append(f"{key}: irrational eigenvalues")
            continue
        (t1, m1), (t2, m2) = spectrum
        out.expect(f"{key} eigenvalues", (t1, t2), theta)
        if m1.denominator != 1 or m2.denominator != 1:
            out.append(f"{key}: non-integral multiplicities {m1}, {m2}")
    out.expect("quotient_srg order", report["quotient_srg"][0], report["vertices"] // r)


def _check_bounds(p: int, report: dict, out: Problems) -> None:
    s = _s(p)
    out.expect("inputs", report["inputs"], {"p": p})
    local = _local_srg(p)
    out.expect("local_srg", report["local_srg"], local)
    (tp, mp), (tn, mn) = _srg_spectrum(*local)
    spectrum = {"k": local[1], "theta_pos": tp, "m_pos": mp, "theta_neg": tn, "m_neg": mn}
    out.expect("spectrum", report["spectrum"], spectrum)
    out.expect("feasibility", report["feasibility"], {"ok": True, "reasons": []})
    out.expect("clique_bound", report["clique_bound"], (p + 2) ** 2)
    out.expect("fix_bound", report["fix_bound"], local[3] * local[0] // (local[1] - tp))
    out.expect("block_sizes", report["block_sizes"], [d for d in sympy.divisors((p + 2) * s) if d <= s])
    _prime_gate_fields(p, report, out)
    ex = report["exclusion"]
    q_prime, s_prime = sympy.isprime(p + 2), sympy.isprime(s)
    out.expect("exclusion verdict", ex["verdict"], "pass" if q_prime and s_prime else "fail")
    data = ex["data"]
    out.expect("exclusion q_prime", data["q_prime"], q_prime)
    out.expect("exclusion s_prime", data["s_prime"], s_prime)
    out.expect("exclusion psl2_s_order", data["psl2_s_order"], s * (s * s - 1) // 2 if s_prime else None)
    out.expect("exclusion gcd", data["gcd_s2_minus_1_q"], math.gcd(s * s - 1, p + 2))
    out.expect("exclusion prime_power_p", data["prime_power_p"], _prime_power(p) is not None)
    _check_centralizer(p, data["centralizer"], out)
    solvable = data["solvable"]
    if _pp_gt2(p) and s_prime:
        orders = [(t["t"], t["e"]) for t in solvable["data"]["case_ii"]]
        want = [(t, n_order(t, s)) for t in sympy.primefactors(p + 2)]
        out.expect("solvable multiplicative orders", orders, want)
    else:
        out.expect("solvable verdict", solvable["verdict"], INAPPLICABLE)


def _check_profile(p: int, r: int, ell: int, report: dict, out: Problems) -> None:
    s, v = _s(p), (p + 2) * _s(p)
    out.expect("inputs", report["inputs"], {"p": p, "r": r, "ell": ell})
    (b, c), (sb, sc) = _arrays(p, r)
    out.expect("cover_congruences", report["cover_congruences"], [k % ell for k in _layers(b, c)[1:]])
    out.expect(
        "subconstituent_congruences", report["subconstituent_congruences"], [k % ell for k in _layers(sb, sc)[1:]]
    )
    out.expect("cover_fix_bound", report["cover_fix_bound"], r * (p + 1) * (p + 2) * (p + 4))
    out.expect("local_fix_bound", report["local_fix_bound"], s)
    # Both characters are affine in alpha_1 (alpha_0 = 0, alpha_2 = v - alpha_1)
    # with slopes +-1/(2(p+1)), so admissibility has period m = 2(p+1)ell:
    # one period searched in full gives the whole list.
    m = 2 * (p + 1) * ell
    residues = [a for a in range(m) if _admissible(p, ell, 0, a)]
    want = sorted(a for r0 in residues for a in range(r0, v + 1, m))
    got = report["alpha1_fixed_point_free"]
    if got != want:
        out.append(
            f"alpha1_fixed_point_free: {len(got)} values from {got[:2]}, want {len(want)} from {want[:2]} step {m}"
        )
    if _pp_gt2(p):
        cls = report["order_classification"]
        fixed = set(sympy.primerange(2, p + 1)) | {t for t in sympy.primefactors(s) if t > p}
        if sympy.isprime(p + 2):
            fixed.add(p + 2)
        free = sympy.primefactors((p + 1) * (p + 4))
        out.expect("fixed_point_orders", cls["data"]["fixed_point_orders"], sorted(fixed))
        out.expect("fixed_point_free_orders", cls["data"]["fixed_point_free_orders"], free)
        out.expect("order_admissible_with_fixed_points", report["order_admissible_with_fixed_points"], ell in fixed)
        out.expect("order_admissible_fixed_point_free", report["order_admissible_fixed_point_free"], ell in free)
        fpf = ell % 2 == 1 and (s % ell == 0 or (p + 2) % ell == 0) or (ell == 2 and p % 2 == 0)
        data = report["local_fixed_structure"]["data"]
        out.expect("local_fixed_structure fixed_point_free_possible", data["fixed_point_free_possible"], fpf)
    else:
        out.expect("order_classification", report["order_classification"], INAPPLICABLE)


# ---------------------------------------------------------------------------
# graphs
# ---------------------------------------------------------------------------


def _read_graph(path: str) -> nx.Graph:
    """The adjacency text format, parsed apart from the program."""
    g = nx.Graph()
    lines = [ln.split("#", 1)[0].strip() for ln in Path(path).read_text().splitlines()]
    lines = [ln for ln in lines if ln]
    g.add_nodes_from(range(int(lines[0].split()[1])))
    for ln in lines[1:]:
        head, tail = ln.split(":")
        g.add_edges_from((int(head), int(t)) for t in tail.split())
    return g


def _check_verify(op: dict, report: dict, out: Problems) -> None:
    meta, path = op["meta"], op["argv"][-1]
    out.expect("inputs", report["inputs"], {"graph": Path(path).name})
    out.expect("warnings", report["warnings"], [])
    kind = meta["graph"]
    if kind == "hamming":
        d, q = meta["d"], meta["q"]
        n, k = q**d, d * (q - 1)
        drg = {"b": [(d - i) * (q - 1) for i in range(d)], "c": list(range(1, d + 1))}
        srg = [n, k, q - 2, 2] if d == 2 else None
        edges, connected = n * k // 2, True
    elif kind == "johnson":
        nn, kk = meta["n"], meta["k"]
        d = min(kk, nn - kk)
        n, k = math.comb(nn, kk), kk * (nn - kk)
        drg = {"b": [(kk - i) * (nn - kk - i) for i in range(d)], "c": [i * i for i in range(1, d + 1)]}
        srg = [n, k, nn - 2, 4] if d == 2 else None
        edges, connected = n * k // 2, True
    else:
        g = _read_graph(path)
        n, edges, connected = g.number_of_nodes(), g.number_of_edges(), nx.is_connected(g)
        drg = srg = None
        if nx.is_distance_regular(g):
            b, c = nx.intersection_array(g)
            drg = {"b": list(b), "c": list(c)}
        if nx.is_strongly_regular(g):
            b, c = nx.intersection_array(g)
            srg = [n, b[0], b[0] - b[1] - 1, c[1]]
        if kind == "gewirtz":
            out.expect("gewirtz srg", srg, [56, 10, 0, 2])
    out.expect("vertices", report["vertices"], n)
    out.expect("edges", report["edges"], edges)
    out.expect("connected", report["connected"], connected)
    out.expect("srg", report["srg"], srg)
    out.expect("drg", report["drg"], drg)


def _check_audit(op: dict, rc, report: dict, out: Problems) -> None:
    graph_path, perm_path = op["argv"][-3], op["argv"][-2]
    g = _read_graph(graph_path)
    edges = {frozenset(e) for e in g.edges}
    perms = [[int(x) for x in ln.split()] for ln in Path(perm_path).read_text().splitlines() if ln.strip()]
    n = g.number_of_nodes()

    def is_automorphism(perm) -> bool:
        return sorted(perm) == list(range(n)) and all(frozenset((perm[u], perm[v])) in edges for u, v in g.edges)

    bad = [i for i, perm in enumerate(perms) if not is_automorphism(perm)]
    corrupted = op["meta"]["corrupted"]
    out.expect("corrupted permutations found by the check", bad, [] if corrupted is None else [corrupted])
    out.expect("total", report["total"], len(perms))
    out.expect("flagged indices", [i for i, _ in report["failures"]], bad)
    out.expect("passed", report["passed"], len(perms) - len(bad))
    out.expect("exit code", rc, 1 if bad else 0)
    for i, perm in enumerate(perms):
        if i not in bad:
            out.expect(f"order of element {i}", report["orders"][i], Permutation(perm).order())
