"""Differential tests of SRG/DRG verification against networkx.

verify_srg, verify_drg and the ``srg``/``drg`` fields of an ``at4 verify``
report are compared with ``nx.is_strongly_regular``,
``nx.is_distance_regular`` and ``nx.intersection_array`` on named graphs,
vertex-relabelled copies of them, degenerate graphs, random G(n, 1/2)
graphs and random regular graphs.  ``at4 verify`` runs verify_drg once and
reads the SRG parameters off a diameter-2 array; the named graphs hold both
kinds: strongly regular ones, and distance-regular ones of diameter 3 or more
(cycles up to C_20, hypercubes up to Q_7, H(3,4) and J(7,3)).
"""

import io
import json
import pathlib
import random
import tempfile
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from at4tools import cli
from at4tools.graphcheck import Graph, generate_gewirtz, graph_to_text, verify_drg, verify_srg

nx = pytest.importorskip("networkx")


def hamming(d: int, q: int) -> tuple[int, list]:
    words = list(product(range(q), repeat=d))
    return len(words), [
        (i, j)
        for i, j in combinations(range(len(words)), 2)
        if sum(a != b for a, b in zip(words[i], words[j])) == 1
    ]


def johnson(n: int, k: int) -> tuple[int, list]:
    sets = [frozenset(c) for c in combinations(range(n), k)]
    return len(sets), [
        (i, j) for i, j in combinations(range(len(sets)), 2) if len(sets[i] & sets[j]) == k - 1
    ]


def named_graphs() -> dict[str, tuple[int, list]]:
    petersen = nx.petersen_graph()
    gewirtz = generate_gewirtz()
    return {
        "petersen": (10, list(petersen.edges())),
        "gewirtz": (56, [(u, w) for u in range(56) for w in gewirtz.neighbors(u) if u < w]),
        "c5": (5, [(i, (i + 1) % 5) for i in range(5)]),
        "cube4": hamming(4, 2),
        # networkx stops its search at diameter 8 log2(n) / 3, a bound on
        # distance-regular graphs of valency 3 or more, so it calls C_n with
        # n >= 30 not distance-regular; the cycles here stay below that
        **{f"C{n}": (n, [(i, (i + 1) % n) for i in range(n)]) for n in (6, 7, 12, 20)},
        **{f"Q{d}": hamming(d, 2) for d in (3, 5, 7)},
        **{f"H(2,{q})": hamming(2, q) for q in (3, 4, 5)},
        "H(3,4)": hamming(3, 4),
        **{f"J({n},2)": johnson(n, 2) for n in (5, 6, 7)},
        "J(7,3)": johnson(7, 3),
        "prism": (6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]),
        # regular, triangle-free, diameter 2, two non-adjacent pairs with 1
        # and 2 common neighbours: b is constant on every layer, c is not
        "wagner": (8, list(nx.circulant_graph(8, [1, 4]).edges())),
        "K2": (2, [(0, 1)]),
        "K4": (4, list(combinations(range(4), 2))),
        "empty": (0, []),
        "single": (1, []),
        "two-petersens": (20, [*petersen.edges(), *((u + 10, w + 10) for u, w in petersen.edges())]),
    }


NAMED = named_graphs()
# diameter 2: strongly regular
SRG_NAMES = {"petersen", "gewirtz", "c5", "H(2,3)", "H(2,4)", "H(2,5)", "J(5,2)", "J(6,2)", "J(7,2)"}
# distance-regular of diameter 3 or more: not strongly regular
DRG_ONLY_NAMES = {"cube4", "H(3,4)", "J(7,3)", "C6", "C7", "C12", "C20", "Q3", "Q5", "Q7"}


def relabelled(n: int, edges, seed: str) -> tuple[int, list]:
    perm = list(range(n))
    random.Random(seed).shuffle(perm)
    return n, [(perm[u], perm[w]) for u, w in edges]


def nx_srg(G):
    """(v, k, lambda, mu) from networkx, or None."""
    if G.number_of_nodes() == 0 or not nx.is_strongly_regular(G):
        return None
    b, c = nx.intersection_array(G)
    k = b[0]
    return (G.number_of_nodes(), k, k - b[1] - 1, c[1])


def nx_drg(G):
    """(b, c) from networkx, or None.  A graph on fewer than two vertices
    has diameter 0 and no intersection array here, where networkx either
    raises (no vertex) or gives ([], []) (one vertex)."""
    if G.number_of_nodes() < 2 or not nx.is_distance_regular(G):
        return None
    b, c = nx.intersection_array(G)
    return (list(b), list(c))


def verify_report(g: Graph) -> dict:
    with tempfile.TemporaryDirectory() as tmp:
        path = pathlib.Path(tmp) / "g.txt"
        path.write_text(graph_to_text(g), encoding="utf-8")
        buf = io.StringIO()
        assert cli.main(["--format", "json", "--deterministic", "verify", str(path)], out=buf) == 0
    return json.loads(buf.getvalue())


def check(n: int, edges) -> tuple:
    """Compare all three answers with networkx; return (srg, drg) as
    verify_srg and verify_drg give them."""
    G = nx.Graph()
    G.add_nodes_from(range(n))
    G.add_edges_from(edges)
    g = Graph.from_edges(n, edges)
    srg, drg = verify_srg(g), verify_drg(g)
    expect_srg, expect_drg = nx_srg(G), nx_drg(G)
    assert srg == expect_srg
    assert ((list(drg.b), list(drg.c)) if drg else None) == expect_drg
    report = verify_report(g)
    assert report["srg"] == (list(expect_srg) if expect_srg else None)
    assert report["drg"] == ({"b": expect_drg[0], "c": expect_drg[1]} if expect_drg else None)
    return srg, drg


@pytest.mark.parametrize("name", sorted(NAMED))
def test_named_graph_matches_networkx(name):
    n, edges = NAMED[name]
    srg, drg = check(n, edges)
    relabelled_srg, relabelled_drg = check(*relabelled(n, edges, name))
    assert relabelled_srg == srg and relabelled_drg == drg
    if name in SRG_NAMES:
        # the SRG parameters are the diameter-2 reading of the array
        assert srg is not None and drg is not None
        assert (drg.b, drg.c) == ((srg.k, srg.k - srg.lam - 1), (1, srg.mu))
    if name in DRG_ONLY_NAMES:
        assert srg is None and drg is not None and drg.diameter >= 3


@st.composite
def gnp_half(draw) -> tuple[int, list]:
    """G(n, 1/2) with n <= 24: each vertex pair an edge by a fair coin."""
    n = draw(st.integers(0, 24))
    pairs = list(combinations(range(n), 2))
    coins = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [pair for pair, coin in zip(pairs, coins) if coin]


@settings(max_examples=200, deadline=None)
@given(gnp_half())
def test_random_graphs_match_networkx(graph):
    check(*graph)


@settings(max_examples=100, deadline=None)
@given(st.integers(2, 5), st.integers(0, 7), st.integers(0, 2**32 - 1))
def test_random_regular_graphs_match_networkx(k, extra, seed):
    # G(n, 1/2) is almost never regular, so regular graphs get their own
    # draw: every BFS layer check then runs past the degree test
    n = k + 1 + extra + (k * (k + 1 + extra)) % 2
    G = nx.random_regular_graph(k, n, seed=seed)
    check(n, list(G.edges()))
