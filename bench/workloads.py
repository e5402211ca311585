"""Seeded inputs for the three benchmark workloads.

An operation is a dict ``{"kind", "argv", "meta"}``: ``argv`` goes to
``at4tools.cli.main`` unchanged and ``meta`` tells the checks what the
report must say.  A round is a fixed list of operations.  The work in a
round is fixed by the workload's strata; the seed only orders the round and
makes choices that leave the work unchanged (which antipodality index r an
``array`` or ``profile`` report uses, how graph vertices are labelled, where
a graph is perturbed, which automorphisms an audit gets).  That keeps
throughput and memory independent of the seed, so runs with different
seeds can be compared.

Everything here is pure Python except graph-check, which builds its graph
files with the public generators and writers of ``at4tools.graphcheck``.
"""

from __future__ import annotations

import functools
import itertools
import random
from pathlib import Path

JSON = ["--format", "json", "--deterministic"]

# scan-sweep: the contiguous range 2..601 in windows of 10 p values
SCAN_P_MIN, SCAN_P_MAX, SCAN_WIDTH = 2, 601, 10

# single-p: (command, stratum, p band, count).  Strata switch code paths:
#   pp  p is a prime power;  sp  s = p^2 + 4p + 2 is prime (bounds then runs
#   the centralizer filter when pp holds too);  lv  ell divides
#   v = (p+2)s, so profile materialises alpha1_fixed_point_free.
# Centralizer bounds and materialising profiles cost about p^2, so their
# bands sit lower to keep every operation under a second.
PROFILE_ELL = 7
SINGLE_P_PLAN = (
    ("array", ("pp", "sp"), (1000, 2000), 2),
    ("array", ("pp",), (2000, 4000), 2),
    ("array", ("sp",), (2000, 4000), 2),
    ("array", (), (2000, 4000), 2),
    ("bounds", ("pp", "sp"), (1000, 2000), 4),
    ("bounds", ("pp",), (2000, 4000), 6),
    ("bounds", ("sp",), (2000, 4000), 6),
    ("bounds", (), (2000, 4000), 6),
    ("profile", ("pp", "lv"), (1000, 1500), 2),
    ("profile", ("pp",), (1000, 1500), 2),
    ("profile", ("lv",), (1000, 1500), 2),
    ("profile", (), (1000, 1500), 2),
)

# graph-check: distance-regular families with closed-form arrays, the two
# named strongly regular graphs, and four perturbed graphs that are not
# distance-regular.  Each audit gets AUDIT_SIZE of the first AUDIT_POOL
# Gewirtz automorphisms; one audit holds one corrupted permutation.
HAMMING = ((2, 24), (3, 8), (4, 5), (5, 3), (3, 5), (2, 10))
JOHNSON = ((12, 3), (10, 3), (16, 2), (9, 4))
PERTURBED = (("gewirtz", "swap"), ("petersen", "swap"), ("hamming-3-5", "swap"), ("johnson-10-3", "drop"))
AUDITS, AUDIT_SIZE, AUDIT_POOL = 20, 30, 600
OVERSIZE_HEADER = "n 10000000000000\n"

WORKLOADS = ("scan-sweep", "single-p", "graph-check")


def build(workload: str, seed: int, workdir: Path) -> tuple[list[dict], dict]:
    """The round of operations for ``workload`` and the warm-up operation,
    which is the round's first operation before the seeded shuffle."""
    rng = random.Random(f"{workload}/{seed}")
    if workload == "scan-sweep":
        ops = _scan_sweep()
    elif workload == "single-p":
        ops = _single_p(rng)
    elif workload == "graph-check":
        ops = _graph_check(rng, workdir)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    warmup = ops[0]
    rng.shuffle(ops)
    return ops, warmup


def make_op(kind: str, args, **meta) -> dict:
    return {"kind": kind, "argv": [*JSON, kind, *map(str, args)], "meta": meta}


# ---------------------------------------------------------------------------
# scan-sweep
# ---------------------------------------------------------------------------


def _scan_sweep() -> list[dict]:
    return [
        make_op("scan", (lo, min(lo + SCAN_WIDTH - 1, SCAN_P_MAX)))
        for lo in range(SCAN_P_MIN, SCAN_P_MAX + 1, SCAN_WIDTH)
    ]


# ---------------------------------------------------------------------------
# single-p
# ---------------------------------------------------------------------------


def _is_prime(n: int) -> bool:
    # deterministic Miller-Rabin for n < 3.3e24
    if n < 2:
        return False
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for b in bases:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d, r = d // 2, r + 1
    for b in bases:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _is_prime_power(n: int) -> bool:
    t = next(t for t in itertools.count(2) if n % t == 0 or t * t > n)
    if n % t:
        return True  # n itself is prime
    while n % t == 0:
        n //= t
    return n == 1


def feasible_r(p: int) -> list[int]:
    """Antipodality indices r with 2 < r < p+2, r | 2(p+1) and
    2p(p+1)(p+2)/r even (the existence conditions of the family)."""
    return [
        r
        for r in range(3, p + 2)
        if 2 * (p + 1) % r == 0 and 2 * p * (p + 1) * (p + 2) // r % 2 == 0
    ]


@functools.cache
def _strata(p: int) -> frozenset[str]:
    s = p * p + 4 * p + 2
    tags = set()
    if _is_prime_power(p):
        tags.add("pp")
    if _is_prime(s):
        tags.add("sp")
    if (p + 2) * s % PROFILE_ELL == 0:
        tags.add("lv")
    return frozenset(tags)


def _spread(members: list[int], k: int) -> list[int]:
    # k members evenly spaced through the band
    return [members[(2 * i + 1) * len(members) // (2 * k)] for i in range(k)]


def _single_p(rng: random.Random) -> list[dict]:
    ops = []
    for kind, tags, (lo, hi), count in SINGLE_P_PLAN:
        # profile strata ignore sp and bounds/array strata ignore lv
        relevant = {"lv", "pp"} if kind == "profile" else {"pp", "sp"}
        members = [p for p in range(lo, hi) if _strata(p) & relevant == set(tags)]
        for p in _spread(members, count):
            meta = {"p": p, "stratum": list(tags)}
            if kind == "bounds":
                ops.append(make_op(kind, (p,), **meta))
            elif kind == "array":
                r = rng.choice(feasible_r(p))
                ops.append(make_op(kind, (p, r), r=r, **meta))
            else:
                r = rng.choice(feasible_r(p))
                ops.append(make_op(kind, (p, r, PROFILE_ELL), r=r, ell=PROFILE_ELL, **meta))
    return ops


# ---------------------------------------------------------------------------
# graph-check
# ---------------------------------------------------------------------------


def hamming_edges(d: int, q: int) -> tuple[int, list[tuple[int, int]]]:
    """H(d, q): words of length d over q letters, adjacent at distance 1."""
    words = list(itertools.product(range(q), repeat=d))
    index = {w: i for i, w in enumerate(words)}
    edges = [
        (index[w], index[w[:i] + (x,) + w[i + 1 :]])
        for w in words
        for i in range(d)
        for x in range(w[i] + 1, q)
    ]
    return len(words), edges


def johnson_edges(n: int, k: int) -> tuple[int, list[tuple[int, int]]]:
    """J(n, k): k-subsets of an n-set, adjacent when they share k-1 points."""
    sets = list(itertools.combinations(range(n), k))
    index = {s: i for i, s in enumerate(sets)}
    edges = []
    for s in sets:
        rest = [x for x in range(n) if x not in s]
        for out in s:
            for x in rest:
                t = tuple(sorted(set(s) - {out} | {x}))
                if index[s] < index[t]:
                    edges.append((index[s], index[t]))
    return len(sets), edges


def _connected(n: int, edges) -> bool:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    seen, stack = {0}, [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def _perturb(n: int, edges, how: str, rng: random.Random) -> list[tuple[int, int]]:
    """Drop one edge, or swap the ends of two edges (which keeps every
    degree), at a seeded place that leaves the graph connected."""
    edges = sorted(tuple(sorted(e)) for e in edges)
    present = set(edges)
    while True:
        if how == "drop":
            e = rng.choice(edges)
            out = [x for x in edges if x != e]
        else:
            (a, b), (c, d) = rng.sample(edges, 2)
            new = {tuple(sorted((a, c))), tuple(sorted((b, d)))}
            if len({a, b, c, d}) < 4 or new & present:
                continue
            out = [x for x in edges if x not in {(a, b), (c, d)}] + sorted(new)
        if _connected(n, out):
            return out


def _relabel(n: int, edges, rng: random.Random) -> list[tuple[int, int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [(perm[u], perm[v]) for u, v in edges]


def _graph_check(rng: random.Random, workdir: Path) -> list[dict]:
    from at4tools import graphcheck

    workdir.mkdir(parents=True, exist_ok=True)

    def write(name: str, text: str) -> str:
        path = workdir / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def graph_file(name: str, n: int, edges) -> str:
        g = graphcheck.Graph.from_edges(n, _relabel(n, edges, rng))
        return write(f"{name}.txt", graphcheck.graph_to_text(g))

    gewirtz = graphcheck.generate_gewirtz()
    petersen = graphcheck.generate_petersen()
    base = {
        "gewirtz": (gewirtz.n, edge_list(gewirtz)),
        "petersen": (petersen.n, edge_list(petersen)),
        "hamming-3-5": hamming_edges(3, 5),
        "johnson-10-3": johnson_edges(10, 3),
    }
    ops = [
        make_op("verify", (graph_file("gewirtz", *base["gewirtz"]),), graph="gewirtz"),
        make_op("verify", (graph_file("petersen", *base["petersen"]),), graph="petersen"),
    ]
    for d, q in HAMMING:
        path = graph_file(f"hamming-{d}-{q}", *hamming_edges(d, q))
        ops.append(make_op("verify", (path,), graph="hamming", d=d, q=q))
    for n, k in JOHNSON:
        path = graph_file(f"johnson-{n}-{k}", *johnson_edges(n, k))
        ops.append(make_op("verify", (path,), graph="johnson", n=n, k=k))
    for name, how in PERTURBED:
        n, edges = base[name]
        path = graph_file(f"{name}-{how}", n, _perturb(n, edges, how, rng))
        ops.append(make_op("verify", (path,), graph="perturbed", base=name))
    ops.append(make_op("verify", (write("oversize.txt", OVERSIZE_HEADER),), graph="oversize"))

    gewirtz_path = write("gewirtz-audit.txt", graphcheck.graph_to_text(gewirtz))
    pool = graphcheck.gewirtz_automorphisms(AUDIT_POOL)
    corrupted_audit = rng.randrange(AUDITS)
    for a in range(AUDITS):
        perms = [list(pool[i]) for i in rng.sample(range(len(pool)), AUDIT_SIZE)]
        corrupted = None
        if a == corrupted_audit:
            # swapping two images of an automorphism of a graph without
            # twin vertices never gives an automorphism
            corrupted = rng.randrange(AUDIT_SIZE)
            i, j = rng.sample(range(gewirtz.n), 2)
            perms[corrupted][i], perms[corrupted][j] = perms[corrupted][j], perms[corrupted][i]
        perm_path = write(f"audit-{a}.txt", graphcheck.permutations_to_text(perms))
        ops.append(make_op("audit", (gewirtz_path, perm_path, 2), p=2, corrupted=corrupted))
    return ops


def edge_list(g) -> list[tuple[int, int]]:
    return [(u, v) for u in range(g.n) for v in g.neighbors(u) if u < v]

