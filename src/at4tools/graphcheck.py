"""Concrete-graph verification: witness generators, SRG/DRG checking, and
the audit of automorphisms of a family member.

A graph is stored as the sorted neighbour tuple of each vertex, and every
check is exact.  A graph file is parsed a line at a time, each id read by
one lookup in a table of the canonical decimals of 0..n-1 built once per
file (``_id_table``); only a line with a token the table misses runs the
per-token loop, which reads it (``007`` as 7) or names its first offending
token.  Each row is then sorted as a list, and symmetry is tested by
transposing the rows (``_symmetric``), with no set per vertex, before the
rows are made tuples.  Distance-regularity, and strong regularity as its
diameter-2 case, is checked by the three-term recurrence of the distance
matrices on rows of packed counts: about n·d sums of k big-int rows for n
vertices of valency k and diameter d, each sum one C-level call, in place
of a Python step per vertex pair.  Connectivity is tested before those
rows are built, by a walk from vertex 0 in layers of one set union each,
so a disconnected graph costs memory linear in its size.  An audit maps
each permutation to its profile (order, alpha_0, alpha_1) by one kernel
(``_displacement_kernel``).  On at most 256 vertices the permutation is a
byte string: it is a bijection if ``bytes`` takes it and it has n distinct
bytes below n, and an automorphism iff translating it by the 0/1 row table
of each image vertex, a table built once per graph, gives the adjacency
bytes of the graph; its order is the number of ``bytes.translate`` powers
that bring it back to the identity, and alpha_1 counts the pairs
(u, sigma[u]) among the 16-bit edge codes.  A larger graph is tested on
int edge codes u·n + v, gathered from each permutation by two
``itemgetter``s built once per graph (``_edge_code_kernel``).  Every check
past the automorphism test reads only the profile, so each distinct
profile is judged once per audit.  The profile needs no distance matrix,
and the characters are integer numerators over fixed denominators
(``higman.chi_numerators``), without a Fraction; tests/oracles.py keeps
the distance-matrix, Fraction and per-token routes they are held to.
The star witness is the unique SRG(56, 10, 0, 2), the disjointness graph
of a class of 56 hyperovals of the order-4 projective plane, accepted only
after it verifies its own parameters.  The class is the orbit of the
regular hyperoval (a conic and its nucleus) under the elementary
transvections, and the automorphisms listed are those the transvections and
the field automorphism generate; both come from one breadth-first closure,
``_closure``, the automorphisms on 56-byte strings composed by
``bytes.translate``.
"""

from __future__ import annotations

import math
import operator
from bisect import bisect_left
from functools import lru_cache
from itertools import combinations, groupby, permutations, repeat

from .at4 import IntersectionArray
from .exactnum import is_prime
from .higman import alpha1_candidates, chi_numerators
from .srg import SrgParams, family_multiplicities, fixed_point_order_bound, local_family_params


# Largest vertex count a graph file may declare; the parser refuses a larger
# header before it allocates anything.
MAX_VERTICES = 1 << 20


class GraphError(Exception):
    """Parse or construction failure for a concrete graph."""


def _bits(mask: int):
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _has(row, x) -> bool:
    """True iff the sorted list ``row`` holds x."""
    k = bisect_left(row, x)
    return k < len(row) and row[k] == x


def _symmetric(rows) -> bool:
    """True iff the sorted rows list each neighbour once, none out of range
    or equal to its vertex, and every edge at both ends.

    The test is a transposition: the upper part of row i, its neighbours
    above i, is walked in order of i and i appended to column j for each j
    in it, so column i is complete and sorted when row i is reached, and
    must equal the lower part of row i.  A repeat in an upper part, or its
    vertex, shows as a neighbour equal to the one before it; a repeat in a
    lower part then fails the column test.  A vertex with no neighbours
    shares one empty column, which stays empty iff no edge reaches it."""
    n = len(rows)
    spill = []
    cols = [[] if row else spill for row in rows]
    for i, row in enumerate(rows):
        if row:
            k = bisect_left(row, i)
            if row[-1] >= n or cols[i] != row[:k]:
                return False
            prev = i
            for j in row[k:]:
                if j == prev:
                    return False
                cols[j].append(i)
                prev = j
    return not spill


def _symmetrized(rows, warnings: list[str] | None) -> list:
    """The rows of ``Graph(rows, warnings)`` for sorted rows that fail
    ``_symmetric``: each checked in order of its vertex, for range, then a
    loop, then each edge listed at this end only, by binary search in the
    row at its other end."""
    n = len(rows)
    added: dict[int, list[int]] = {}
    for i, row in enumerate(rows):
        if not row:
            continue
        if row[0] < 0 or row[-1] >= n:
            raise GraphError(f"vertex {i} has a neighbor out of range")
        if _has(row, i):
            raise GraphError(f"loop at vertex {i}")
        for j, _ in groupby(row):
            if not _has(rows[j], i):
                if warnings is None:
                    raise GraphError(f"asymmetric edge {i}-{j}")
                warnings.append(f"edge {i}-{j} listed only once; symmetrized")
                added.setdefault(j, []).append(i)
    for j, extra in added.items():
        rows[j] = sorted(rows[j] + extra)
    return [[j for j, _ in groupby(row)] for row in rows]


class Graph:
    """Simple undirected graph on vertices 0..n-1, stored as the sorted
    neighbour tuple of each vertex."""

    __slots__ = ("n", "adj")

    def __init__(self, neighbours, warnings: list[str] | None = None):
        """Graph of one iterable of neighbours per vertex.  A neighbour out
        of range or a loop raises GraphError, and so does an edge listed at
        one end only, unless a ``warnings`` list is given: the edge is then
        added at its other end and a warning appended, in order of (i, j).
        A neighbour listed twice counts once."""
        # rows are sorted as lists, in linear time on the sorted rows a file
        # holds.  A vertex with no neighbours listed shares one empty row, so
        # sparse graphs pay no list per vertex, and no row needs a set: the
        # symmetry test is a transposition of the rows, and only rows that
        # fail it are checked one edge at a time.
        empty = []
        rows = [sorted(nbrs) if nbrs else empty for nbrs in neighbours]
        if not _symmetric(rows):
            rows = _symmetrized(rows, warnings)
        self.n = len(rows)
        self.adj = tuple(map(tuple, rows))

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        neighbours = [[] for _ in range(n)]
        for u, v in edges:
            if u == v:
                raise GraphError(f"loop at vertex {u}")
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge {u}-{v} has an end out of range for n = {n}")
            neighbours[u].append(v)
            neighbours[v].append(u)
        return cls(neighbours)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self.adj[v]

    def edge_count(self) -> int:
        return sum(map(len, self.adj)) // 2

    def is_connected(self) -> bool:
        """True iff vertex 0 reaches every vertex, walked in layers of one
        C-level set union each."""
        if self.n <= 1:
            return True
        adj = self.adj
        seen = {0}
        frontier = seen
        while frontier:
            frontier = set().union(*map(adj.__getitem__, frontier)) - seen
            seen |= frontier
        return len(seen) == self.n


# ---------------------------------------------------------------------------
# text formats
# ---------------------------------------------------------------------------


def _content_lines(text: str):
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            yield lineno, line


def _natural(tok: str) -> int | None:
    # ASCII digits only: str.isdigit also accepts characters such as '²'
    # that int() rejects and such as the Arabic-Indic '٣' that int() reads
    # as 3, and int() refuses numbers of thousands of digits.
    if tok.isascii() and tok.isdigit():
        try:
            return int(tok)
        except ValueError:
            pass
    return None


def _naturals(toks: list[str]) -> list[int] | None:
    # _natural of a whole line at once: split tokens are non-empty, so their
    # concatenation is all ASCII digits iff each token is
    line = "".join(toks)
    if line.isascii() and line.isdigit():
        try:
            return list(map(int, toks))
        except ValueError:
            pass
    return None


def _id_table(text: str, n: int) -> dict[str, int]:
    """The canonical decimals "0".."n-1" of a file on n vertices, each
    mapped to its int, so that a listed id is read by one lookup; any other
    token is a miss.  The table costs about 100 B per vertex, so it is
    built only for a text that lists more ids than n, as its spaces and
    tabs count them (one precedes each neighbour, and each image after a
    line's first); other texts get an empty table and miss on every token."""
    listed = text.count(" ") + text.count("\t")
    return dict(zip(map(str, range(n)), range(n))) if listed > n else {}


def _quoted(text: str) -> str:
    """The repr of a refused token or line for an error message: at most its
    first 32 characters, then ``...`` and its length."""
    return repr(text) if len(text) <= 32 else f"{text[:32]!r}... ({len(text)} characters)"


def parse_graph(text: str) -> tuple[Graph, tuple[str, ...]]:
    """Parse the adjacency text format, returning the graph and a warning
    per edge that had to be symmetrized.

    Format: a header line ``n <count>``, then one line per vertex
    ``i: j k l`` with sorted 0-based neighbors.  Blank lines and ``#``
    comments are ignored.  Loops, malformed lines and a count above
    MAX_VERTICES raise GraphError with the offending line number.
    """
    lines = _content_lines(text)
    lineno, header = next(lines, (0, ""))
    if not header:
        raise GraphError("empty input: expected header line 'n <count>'")
    parts = header.split()
    n = _natural(parts[1]) if len(parts) == 2 and parts[0] == "n" else None
    if n is None:
        raise GraphError(f"line {lineno}: expected header 'n <count>', got {_quoted(header)}")
    if n > MAX_VERTICES:
        raise GraphError(f"line {lineno}: vertex count {n} exceeds the limit {MAX_VERTICES}")
    ids = _id_table(text, n)
    listed: list = [()] * n
    for lineno, line in lines:
        head, sep, tail = line.partition(":")
        toks = tail.split()
        i = ids.get(head.strip()) if sep else None
        if i is not None:
            # a miss reads as i, so the loop test also finds every token
            # that is no canonical id
            js = list(map(ids.get, toks, repeat(i)))
            if i not in js:
                if listed[i]:
                    listed[i] += js
                else:
                    listed[i] = js
                continue
        # a line with a miss, which this loop reads or names the first
        # offending token of, in order
        i = _natural(head.strip()) if sep else None
        if i is None:
            raise GraphError(f"line {lineno}: expected 'i: neighbors', got {_quoted(line)}")
        if i >= n:
            raise GraphError(f"line {lineno}: vertex {i} out of range for n = {n}")
        if not listed[i]:
            listed[i] = []
        add = listed[i].append
        for tok in toks:
            j = _natural(tok)
            if j is None:
                raise GraphError(f"line {lineno}: bad neighbor {_quoted(tok)}")
            if j >= n:
                raise GraphError(f"line {lineno}: neighbor {j} out of range for n = {n}")
            if j == i:
                raise GraphError(f"line {lineno}: loop at vertex {i}")
            add(j)
    # the table is dropped before the graph is built
    del ids
    warnings: list[str] = []
    g = Graph(listed, warnings)
    return g, tuple(warnings)


def graph_to_text(g: Graph) -> str:
    """Byte-deterministic rendering of the adjacency text format."""
    out = [f"n {g.n}"]
    for v in range(g.n):
        nbrs = " ".join(map(str, g.neighbors(v)))
        out.append(f"{v}: {nbrs}" if nbrs else f"{v}:")
    return "\n".join(out) + "\n"


def parse_permutations(text: str, n: int) -> tuple[tuple[int, ...], ...]:
    """Parse one permutation per line: n space-separated images, each a
    natural number in ASCII digits, as ``parse_graph`` reads neighbours.

    Being a bijection is not checked here; a line of the right shape with
    an image of n or more, or an image repeated, is reported by the audit
    rather than rejected at parse time.  Any other token (a sign, an
    underscore, a non-ASCII digit) raises GraphError naming its line.
    """
    ids = _id_table(text, n)
    perms = []
    for lineno, line in _content_lines(text):
        toks = line.split()
        if len(toks) != n:
            raise GraphError(f"line {lineno}: expected {n} images, got {len(toks)}")
        # a miss reads as -1, and sends the line to the whole-line route
        images = list(map(ids.get, toks, repeat(-1)))
        if -1 in images:
            images = _naturals(toks)
            if images is None:
                bad = next(tok for tok in toks if _natural(tok) is None)
                raise GraphError(f"line {lineno}: bad image {_quoted(bad)}")
        perms.append(tuple(images))
    return tuple(perms)


def permutations_to_text(perms) -> str:
    return "".join(" ".join(map(str, p)) + "\n" for p in perms)


def perm_order(perm: tuple[int, ...]) -> int:
    """Order of a permutation: lcm of its cycle lengths."""
    seen = [False] * len(perm)
    order = 1
    for start in range(len(perm)):
        if seen[start]:
            continue
        length = 0
        v = start
        while not seen[v]:
            seen[v] = True
            v = perm[v]
            length += 1
        order = math.lcm(order, length)
    return order


# ---------------------------------------------------------------------------
# witness generators
# ---------------------------------------------------------------------------


def generate_petersen() -> Graph:
    """Kneser graph on the 2-subsets of a 5-set: SRG(10, 3, 0, 1)."""
    pairs = list(combinations(range(5), 2))
    edges = [
        (i, j)
        for i, j in combinations(range(10), 2)
        if not set(pairs[i]) & set(pairs[j])
    ]
    return Graph.from_edges(10, edges)


# GF(4) as {0, 1, w, w+1} encoded 0..3; addition is xor
_GF4_MUL = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 3, 1), (0, 3, 1, 2))
_GF4_INV = (0, 1, 3, 2)


def _normalize(v: tuple[int, int, int]) -> tuple[int, int, int]:
    for c in v:
        if c:
            inv = _GF4_INV[c]
            return tuple(_GF4_MUL[inv][x] for x in v)
    raise ValueError("zero vector has no projective point")


@lru_cache(maxsize=1)
def _plane():
    """Points and line bitmasks of the projective plane of order 4."""
    pts = sorted(
        {
            _normalize((x, y, z))
            for x in range(4)
            for y in range(4)
            for z in range(4)
            if x or y or z
        }
    )
    index = {pt: i for i, pt in enumerate(pts)}
    lines = []
    for form in pts:
        mask = 0
        for i, pt in enumerate(pts):
            dot = 0
            for a, b in zip(form, pt):
                dot ^= _GF4_MUL[a][b]
            if dot == 0:
                mask |= 1 << i
        assert mask.bit_count() == 5
        lines.append(mask)
    assert len(pts) == len(lines) == 21
    return tuple(pts), index, tuple(sorted(lines))


def _point_perm(f) -> tuple[int, ...]:
    """Permutation of plane points induced by a map ``f`` on coordinate
    triples that sends points to points."""
    pts, index, _ = _plane()
    perm = tuple(index[_normalize(f(pt))] for pt in pts)
    assert len(set(perm)) == 21
    return perm


def _regular_hyperoval() -> int:
    """The conic {(1, t, t^2)} with (0, 0, 1), and its nucleus (0, 1, 0), as
    a bitmask of plane points; every line meets it in 0 or 2 points."""
    _, index, lines = _plane()
    points = [(1, t, _GF4_MUL[t][t]) for t in range(4)] + [(0, 0, 1), (0, 1, 0)]
    mask = sum(1 << index[pt] for pt in points)
    assert all((mask & line).bit_count() in (0, 2) for line in lines)
    return mask


@lru_cache(maxsize=1)
def _transvection_perms() -> tuple[tuple[int, ...], ...]:
    """Point permutations of the 18 elementary transvections x_i += lam*x_j,
    which generate the determinant-1 collineations."""

    def transvection(i, j, lam):
        def f(pt):
            v = list(pt)
            v[i] ^= _GF4_MUL[lam][pt[j]]
            return v

        return f

    ijs = permutations(range(3), 2)
    return tuple(_point_perm(transvection(i, j, lam)) for i, j in ijs for lam in (1, 2, 3))


def _apply_point_perm(mask: int, perm: tuple[int, ...]) -> int:
    out = 0
    for b in _bits(mask):
        out |= 1 << perm[b]
    return out


def _closure(seeds, gens, act, count=None) -> list:
    """The elements reached from ``seeds`` by ``act(element, gen)``, seeds
    first and the rest breadth-first in the order found; once ``count``
    elements are found, no more are sought."""
    out = list(seeds)
    seen = set(out)
    for cur in out:
        for gen in gens:
            if count is not None and len(out) >= count:
                return out
            nxt = act(cur, gen)
            if nxt not in seen:
                seen.add(nxt)
                out.append(nxt)
    return out


def _disjointness_graph(vertices: tuple[int, ...]) -> Graph:
    """Graph on the point sets ``vertices``, adjacency being disjointness."""
    return Graph([j for j, other in enumerate(vertices) if not mask & other] for mask in vertices)


@lru_cache(maxsize=1)
def _gewirtz_class() -> tuple[int, ...]:
    """The 56-hyperoval class the graph is built on, sorted: the orbit of
    the regular hyperoval under the determinant-1 collineations, validated
    as SRG(56, 10, 0, 2)."""
    vertices = tuple(sorted(_closure([_regular_hyperoval()], _transvection_perms(), _apply_point_perm)))
    if verify_srg(_disjointness_graph(vertices)) != SrgParams(56, 10, 0, 2):
        raise GraphError("the regular hyperoval's class is not SRG(56, 10, 0, 2)")
    return vertices


def generate_gewirtz() -> Graph:
    """The SRG(56, 10, 0, 2) on a 56-hyperoval class of the order-4
    projective plane, adjacency being disjointness; self-validating."""
    return _disjointness_graph(_gewirtz_class())


def gewirtz_automorphisms(count: int = 150) -> tuple[tuple[int, ...], ...]:
    """The first ``count`` automorphisms of the hyperoval-class graph, all
    40,320 if ``count`` is larger and the identity alone if it is below 1:
    the closure of the identity, breadth-first, under the construction's own
    symmetries (the elementary transvections and the field automorphism,
    which preserves the class).  The closure runs on 56-byte strings, each
    generator a 256-byte ``bytes.translate`` table, so composing with a
    generator and hashing the result are each one C-level call."""
    vertices = _gewirtz_class()
    vindex = {mask: i for i, mask in enumerate(vertices)}
    frobenius = _point_perm(lambda pt: [_GF4_MUL[c][c] for c in pt])  # x -> x^2
    pad = bytes(256 - 56)
    gens = [
        bytes([vindex[_apply_point_perm(mask, perm)] for mask in vertices]) + pad
        for perm in (*_transvection_perms(), frobenius)
    ]
    return tuple(map(tuple, _closure([bytes(range(56))], gens, bytes.translate, count)))


# ---------------------------------------------------------------------------
# verification
# ---------------------------------------------------------------------------


def verify_drg(g: Graph) -> IntersectionArray | None:
    """Return the intersection array iff g is distance-regular: connected
    and k-regular, with constants b_{j-1}, a_j, c_{j+1} such that
    A·A_j = b_{j-1}A_{j-1} + a_jA_j + c_{j+1}A_{j+1} for every j, where A_j
    is the distance-j matrix (Brouwer, Cohen and Neumaier, Distance-Regular
    Graphs, 4.1).  Entry (w, x) of A·A_j counts the neighbours of w at
    distance j from x, so the identity says that the counts one layer in,
    on the layer and one layer out depend only on the distance, from every
    base vertex x.  The constants are read from vertex 0, whose
    eccentricity is d.

    Connectivity is tested first, by the set-union walk of
    ``Graph.is_connected``, so a disconnected graph is refused before any
    packed row is built.  The identity is then checked for j < d.  It fixes
    |Γ_{j+1}(w)| for every w from the sizes of the layers before, so every
    vertex has the layer sizes of vertex 0; as vertex 0 reaches all n
    vertices within distance d, every vertex does, and has eccentricity d.
    At j = d that leaves b_d = 0, a_d = k - c_d and
    b_{d-1} = k - a_{d-1} - c_{d-1}, so only row 0 of level d is computed,
    for b_{d-1}.

    Row w of A_j is one int with a B-bit count slot per vertex,
    B = k.bit_length() + 1, so row w of A·A_j is one C-level sum of k rows
    in which no slot exceeds k < 2^(B-1) and no carry crosses a slot.  Row w
    of A_{j+1} is the set of non-zero slots of that sum outside rows w of
    A_{j-1} and A_j, and row w of A_{j-1} is overwritten by it once row w
    is checked."""
    n = g.n
    if n < 2:
        return None
    adj = g.adj
    k = len(adj[0])
    if k == 0 or set(map(len, adj)) != {k} or not g.is_connected():
        return None
    width = k.bit_length() + 1
    top = width - 1
    slot = (1 << width) - 1
    ones = ((1 << (width * n)) - 1) // slot  # a 1 in every slot
    high = ones << top
    low = high - ones
    prev = [1 << (width * v) for v in range(n)]
    cur = [sum(map(prev.__getitem__, nbrs)) for nbrs in adj]
    b_seq, c_seq = [], [1]
    while True:
        get_row = cur.__getitem__
        s = sum(map(get_row, adj[0]))
        nxt = (((s + low) & high) >> top) & ~(prev[0] | cur[0])
        # each count from the lowest vertex of its layer
        b = (s >> ((prev[0] & -prev[0]).bit_length() - 1)) & slot
        b_seq.append(b)
        if not nxt:
            break
        a = (s >> ((cur[0] & -cur[0]).bit_length() - 1)) & slot
        c = (s >> ((nxt & -nxt).bit_length() - 1)) & slot
        c_seq.append(c)
        for w, nbrs in enumerate(adj):
            s = sum(map(get_row, nbrs))
            inner = prev[w]
            here = cur[w]
            hit = ((s + low) & high) >> top
            out = hit ^ (hit & (inner | here))
            if s != b * inner + a * here + c * out:
                return None
            prev[w] = out
        prev, cur = cur, prev
    return IntersectionArray(tuple(b_seq), tuple(c_seq))


def srg_of_array(n: int, arr: IntersectionArray | None) -> SrgParams | None:
    """The (v, k, lam, mu) of a graph on n vertices whose intersection array
    is arr, iff arr has diameter 2: b = (k, k - lam - 1) and c = (1, mu)."""
    if arr is None or arr.diameter != 2:
        return None
    k, b1 = arr.b
    return SrgParams(n, k, k - b1 - 1, arr.c[1])


def verify_srg(g: Graph) -> SrgParams | None:
    """Return (v, k, lam, mu) iff g is strongly regular: connected,
    non-complete, constant valency, constant common-neighbor counts over
    edges and over non-edges; that is, distance-regular of diameter 2."""
    return srg_of_array(g.n, verify_drg(g))


def is_permutation(seq, n: int) -> bool:
    """True iff seq lists each of 0..n-1 exactly once."""
    return len(seq) == n and (n == 0 or (min(seq) >= 0 and max(seq) < n and len(set(seq)) == n))


def _edge_code_kernel(g: Graph):
    """``_displacement_kernel`` of a graph on any number of vertices.  An
    edge {u, v} is the code u·n + v, and ``edges`` holds both orientations;
    ``gu`` and ``gv`` gather the ends u < v of every edge from a sequence
    indexed by vertex, each one C-level call.  A bijection sigma
    (``is_permutation``) is an automorphism iff the code sigma[u]·n +
    sigma[v] of every edge lies in ``edges``; its order is read from its
    cycles (``perm_order``), and alpha_1 counts the codes u·n + sigma[u]
    among ``edges``."""
    n = g.n
    ends = [(u, v) for u, nbrs in enumerate(g.adj) for v in nbrs if u < v]
    edges = frozenset([u * n + v for u, v in ends] + [v * n + u for u, v in ends])
    if ends:
        # the first edge once more, reversed: an itemgetter of one index
        # returns the item, not a 1-tuple
        us, vs = zip(*ends, ends[0][::-1])
        gu, gv = operator.itemgetter(*us), operator.itemgetter(*vs)
    else:
        gu = gv = lambda seq: ()
    ident = range(n)
    heads = range(0, n * n, n)

    def profile(sigma):
        if not is_permutation(sigma, n):
            return "not-a-permutation"
        if not edges.issuperset(map(operator.add, gu(list(map(n.__mul__, sigma))), gv(sigma))):
            return "not-automorphism"
        fix = sum(map(operator.eq, sigma, ident))
        return perm_order(sigma), fix, len(edges.intersection(map(operator.add, heads, sigma)))

    return profile


def _displacement_kernel(g: Graph):
    """The function that takes a sequence sigma of vertices of g to
    ``"not-a-permutation"`` unless it lists each vertex once, to
    ``"not-automorphism"`` unless it is an automorphism of g, and otherwise
    to its profile (order, alpha_0, alpha_1): its order, its number of fixed
    vertices and the number of vertices u with sigma[u] adjacent to u.

    On at most 256 vertices a vertex is a byte and sigma the byte string
    ``image``.  ``bytes`` refuses an image outside 0..255, translating
    ``image`` with ``ident`` = bytes 0..n-1 deleted leaves the images n or
    more, and a frozenset of n bytes finds a repeat.  ``rows[x]`` is the
    256-byte 0/1 table of x's neighbours and ``matrix`` the n·n adjacency
    bytes, both built once per graph: ``image.translate(rows[sigma[u]])``
    is the row (M[sigma u][sigma v])_v, so a bijection is an automorphism
    iff the n rows joined equal ``matrix``.  The order is the number of
    ``translate`` steps by sigma that bring ``image`` back to ``ident``, at
    most n of them, past which ``perm_order`` reads the cycles (an order
    can exceed n).  The pairs (u, sigma[u]) are read as 16-bit codes from
    one bytearray whose even bytes are 0..n-1 and whose odd bytes take
    sigma, and alpha_1 counts those among the codes of both orientations of
    every edge, a set that does not depend on the host's byte order.  On
    more vertices an edge is an int code (``_edge_code_kernel``)."""
    n = g.n
    adj = g.adj
    if n > 256:
        return _edge_code_kernel(g)
    ident = bytes(range(n))
    rows = []
    for nbrs in adj:
        row = bytearray(256)
        for v in nbrs:
            row[v] = 1
        rows.append(bytes(row))
    matrix = b"".join(row[:n] for row in rows)
    arcs = bytes([x for u, nbrs in enumerate(adj) for v in nbrs for x in (u, v)])
    edges = frozenset(memoryview(arcs).cast("H"))
    pad = bytes(256 - n)
    pairs = bytearray(2 * n)
    pairs[::2] = ident
    codes = memoryview(pairs).cast("H")

    def profile(sigma):
        try:
            image = bytes(sigma)
        except ValueError:
            return "not-a-permutation"
        if len(image) != n or image.translate(None, ident) or len(frozenset(image)) != n:
            return "not-a-permutation"
        if b"".join(map(image.translate, map(rows.__getitem__, image))) != matrix:
            return "not-automorphism"
        table = image + pad
        power = image
        order = 1
        while power != ident and order <= n:
            power = power.translate(table)
            order += 1
        if power != ident:
            order = perm_order(sigma)
        pairs[1::2] = image
        return order, sum(map(operator.eq, image, ident)), len(edges.intersection(codes))

    return profile


# ---------------------------------------------------------------------------
# end-to-end audit against the constraint engine
# ---------------------------------------------------------------------------


def audit_family_graph(g: Graph, p: int, sigmas) -> dict:
    """Audit each permutation of a concrete family member: automorphism
    check, fixed-set bound, character integrality for every element, and
    the congruence filter plus alpha_1 admissibility for prime orders
    (the latter only when p > 2).

    Every check past the automorphism test reads only the element's profile
    (order, alpha_0, alpha_1), since g is strongly regular, so of diameter
    2, and alpha_2 is what is left of n.  Each distinct profile is judged
    once per audit and its verdict reused for every element that shares it.

    The report ``{"p", "total", "passed", "failures", "orders"}``: of
    ``total`` elements at p, ``passed`` passed; ``failures`` holds (index,
    failure codes) per failed element, empty when all pass, and ``orders``
    the order of each element (0 for one that is not an automorphism)."""
    params = local_family_params(p)
    measured = verify_srg(g)
    if measured != params:
        raise GraphError(
            f"graph verifies as {measured and tuple(measured)}, expected {tuple(params)}"
        )
    bound = fixed_point_order_bound(params)
    n1, n2 = family_multiplicities(p)
    n = g.n

    def judge(profile) -> tuple[int, tuple[str, ...]]:
        """(order, failure codes) of a kernel result."""
        if isinstance(profile, str):
            return 0, (profile,)
        order, fix, adjacent = profile
        codes = []
        if order > 1 and fix > bound:
            codes.append("fix-bound-exceeded")
        (num1, den1), (num2, den2) = chi_numerators(p, fix, adjacent, n - fix - adjacent)
        chi1, rem1 = divmod(num1, den1)
        chi2, rem2 = divmod(num2, den2)
        if rem1 or rem2:
            codes.append("non-integral-character")
        elif is_prime(order):
            # the character congruences: the order divides chi_1 - n1 and chi_2 - n2
            if (chi1 - n1) % order:
                codes.append("chi1-congruence")
            if (chi2 - n2) % order:
                codes.append("chi2-congruence")
            if p > 2 and fix <= bound and adjacent not in alpha1_candidates(p, order, fix):
                codes.append("alpha1-not-admissible")
        return order, tuple(codes)

    verdicts: dict = {}
    failures = []
    orders = []
    for idx, profile in enumerate(map(_displacement_kernel(g), sigmas)):
        verdict = verdicts.get(profile)
        if verdict is None:
            verdict = verdicts[profile] = judge(profile)
        order, codes = verdict
        orders.append(order)
        if codes:
            failures.append((idx, codes))
    return {
        "p": p,
        "total": len(sigmas),
        "passed": len(sigmas) - len(failures),
        "failures": tuple(failures),
        "orders": tuple(orders),
    }
