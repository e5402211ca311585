import hashlib
import random
import tracemalloc
from collections import Counter
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from at4tools import graphcheck
from at4tools.at4 import IntersectionArray
from at4tools.exactnum import is_prime
from at4tools.graphcheck import (
    MAX_VERTICES,
    Graph,
    GraphError,
    _bits,
    audit_family_graph,
    generate_petersen,
    gewirtz_automorphisms,
    graph_to_text,
    is_permutation,
    parse_graph,
    parse_permutations,
    perm_order,
    permutations_to_text,
    verify_drg,
    verify_srg,
)
from at4tools.srg import SrgParams

from oracles import (
    AutProfile,
    alpha_profile,
    antipodal_check,
    chi_values,
    diameter,
    is_automorphism,
    reference_audit,
    reference_codes,
    reference_parse_graph,
    reference_parse_permutations,
)


def cycle(n):
    return Graph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def test_parse_triangle():
    g, _ = parse_graph("n 3\n0: 1 2\n1: 0 2\n2: 0 1\n")
    assert g.n == 3 and g.edge_count() == 3


def test_parse_comments_and_blanks():
    g, _ = parse_graph("# a triangle\n\nn 3\n0: 1 2\n1: 0 2\n2: 0 1  # last\n")
    assert g.edge_count() == 3


def test_parse_loop_reports_line():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 2\n0: 0\n")


def test_parse_bad_header():
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("vertices 3\n0: 1\n")


def test_parse_out_of_range():
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 2\n0: 5\n")


def test_parse_rejects_oversize_header():
    # refused from the header alone, before any per-vertex allocation
    with pytest.raises(GraphError, match="exceeds the limit"):
        parse_graph(f"n {MAX_VERTICES + 1}\n")
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("n 10000000000000\n")


def test_parse_rejects_non_ascii_and_overlong_numbers():
    with pytest.raises(GraphError, match="line 1"):
        parse_graph("n \u00b2\n")  # '²' passes str.isdigit but not int()
    with pytest.raises(GraphError, match="line 3: bad neighbor '\u0663'"):
        parse_graph("n 4\n0: 1\n1: \u0663\n")  # Arabic-Indic 3, which int() reads
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 2\n" + "9" * 5000 + ": 1\n")
    with pytest.raises(GraphError, match="line 2"):
        parse_graph("n 2\n0: " + "9" * 5000 + "\n")


def test_parse_symmetrizes_with_warning():
    g, warnings = parse_graph("n 3\n0: 1\n1: 2\n")
    assert g.adj == ((1,), (0, 2), (1,))
    assert len(warnings) == 2


def test_parse_makes_no_set_for_a_vertex_without_neighbours():
    # an empty set costs 216 bytes; the graph itself needs a few pointers
    # per vertex, so a header-only file must stay well below the former
    n = 1 << 16
    tracemalloc.start()
    try:
        g, warnings = parse_graph(f"n {n}\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.adj == ((),) * n and warnings == ()
    assert peak < 64 * n
    # a vertex listed by its neighbours only still gets every symmetrized edge
    g, warnings = parse_graph("n 4\n0: 3\n1: 3\n")
    assert g.adj == ((3,), (3,), (), (0, 1))
    assert warnings == ("edge 0-3 listed only once; symmetrized", "edge 1-3 listed only once; symmetrized")


def test_graph_rejects_bad_rows_passed_directly():
    with pytest.raises(GraphError, match="asymmetric edge 0-1"):
        Graph([[1], []])
    with pytest.raises(GraphError, match="loop at vertex 0"):
        Graph([[0]])
    with pytest.raises(GraphError, match="out of range"):
        Graph([[2], []])
    with pytest.raises(GraphError, match="out of range"):
        Graph([[-1], []])
    assert Graph([[1], [0]]).edge_count() == 1
    # from_edges names an edge with an end outside 0..n-1
    for edge in ((0, 5), (-1, 1), (-3, 1), (1, 3)):
        with pytest.raises(GraphError, match=f"edge {edge[0]}-{edge[1]} has an end out of range for n = 3"):
            Graph.from_edges(3, [edge])


@given(
    st.integers(min_value=1, max_value=12).flatmap(
        lambda n: st.tuples(
            st.just(n),
            st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=40),
        )
    )
)
def test_parse_symmetrizes_each_one_sided_edge_once(case):
    n, arcs = case
    directed = [0] * n
    for i, j in arcs:
        if i != j:
            directed[i] |= 1 << j
    text = f"n {n}\n" + "".join(f"{i}: {' '.join(map(str, _bits(row)))}\n" for i, row in enumerate(directed))
    g, warnings = parse_graph(text)
    # reference: every arc i -> j without j -> i, in order of (i, j), made two-way
    one_sided = [(i, j) for i in range(n) for j in _bits(directed[i]) if not (directed[j] >> i) & 1]
    assert warnings == tuple(f"edge {i}-{j} listed only once; symmetrized" for i, j in one_sided)
    rows = list(directed)
    for i, j in one_sided:
        rows[j] |= 1 << i
    assert g.adj == tuple(tuple(_bits(row)) for row in rows)


# tokens that are no natural in ASCII digits: a superscript digit, which
# str.isdigit passes and int() refuses, signs and an underscore, which int()
# reads, the Arabic-Indic digit three, which both pass and int() reads as 3,
# and a number beyond int()'s 4300 digits
ODD_TOKENS = ("\u00b2", "-3", "+3", "1_0", "\u0663", "9" * 5000)
# one digit past that limit, the shortest number int() refuses
LONG_TOKEN = "1" + "0" * 4300
# separators between the tokens of a line, and line ends: splitlines also
# ends a line at \x0c and \x1c, which str.split takes as whitespace, so
# between two tokens they cut the line in two
TOKEN_SEPS = (" ", "  ", "\t", "\x0c", "\x1c")
LINE_ENDS = ("\n", "\r\n", "\x0c", "\x1c")


def _spelled(j: int):
    """An id as a file may write it: canonical, or with leading zeros."""
    return st.sampled_from((str(j), f"0{j}", f"00{j}"))


@settings(max_examples=400, deadline=None)
@given(st.integers(1, 8), st.booleans(), st.data())
def test_parse_matches_the_per_token_reference(n, clean, data):
    # a clean file lists in-range neighbours other than the vertex itself,
    # so it parses, with duplicates, one-sided edges, empty rows, leading
    # zeros, comments, and repeated and out-of-order vertex lines; the
    # others mix in loops, ends out of range, odd tokens, heads that are
    # empty or hold whitespace, a second colon and separators that end a
    # line.  Spaced tokens past n per vertex make the parser build its id
    # table, so both of its routes are drawn.
    good = st.integers(0, n - 1)
    spelled = good.flatmap(lambda j: _spelled(j).map(lambda tok: (j, tok)))
    token = spelled
    if not clean:
        token = st.one_of(
            spelled,
            spelled,
            st.integers(n, n + 2).map(lambda j: (j, str(j))),
            st.sampled_from((*ODD_TOKENS, LONG_TOKEN)).map(lambda tok: (None, tok)),
            good.map(lambda j: (None, f"{j}:")),
        )

    def head(i):
        return _spelled(i) if clean else st.one_of(_spelled(i), st.sampled_from(("", f"{i} {i}", "-0", "x")))
    sep = data.draw(st.sampled_from(TOKEN_SEPS[:3] if clean else TOKEN_SEPS))
    end = data.draw(st.sampled_from(LINE_ENDS))
    rows = data.draw(
        st.lists(
            st.integers(0, n - 1).flatmap(
                lambda i: st.tuples(st.just(i), head(i), st.lists(token, max_size=6), st.sampled_from(("", "  # note")))
            ),
            max_size=n + 2,
        )
    )
    text = f"n {n}{end}" + "".join(
        f"{spelling}: {sep.join(tok for j, tok in toks if not clean or j != i)}{comment}{end}"
        for i, spelling, toks, comment in rows
    )
    try:
        expected = reference_parse_graph(text)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            parse_graph(text)
        assert str(got.value) == str(exc)
    else:
        g, warnings = parse_graph(text)
        assert (g.adj, warnings) == expected


def test_graph_text_round_trip():
    pet = generate_petersen()
    text = graph_to_text(pet)
    again, warnings = parse_graph(text)
    assert warnings == ()
    assert again.n == pet.n and again.adj == pet.adj
    assert graph_to_text(again) == text
    assert text.endswith("\n")


def test_tab_separated_file_gets_the_id_table(gewirtz):
    # tabs count as separators when the parser decides to build its table
    spaced = graph_to_text(gewirtz)
    tabbed = spaced.replace(": ", ":\t").replace(" ", "\t").replace("n\t", "n ", 1)
    assert " " not in tabbed.split("\n", 1)[1]
    assert graphcheck._id_table(tabbed, gewirtz.n)
    g, warnings = parse_graph(tabbed)
    assert warnings == () and g.adj == gewirtz.adj


def test_permutation_text_round_trip():
    perms = ((0, 1, 2), (2, 0, 1))
    text = permutations_to_text(perms)
    assert parse_permutations(text, 3) == perms
    with pytest.raises(GraphError, match="line 1"):
        parse_permutations("0 1\n", 3)


@pytest.mark.parametrize("token", ["+0", "1_0", "\u0663", "-1", "\u00b2", "9" * 5000])
def test_parse_permutations_refuses_what_parse_graph_refuses(token):
    # int() would read the first three as 0, 10 and 3 and the fourth as -1;
    # an image is a natural in ASCII digits, as a neighbour is.  The message
    # quotes at most 32 characters of the token.
    text = f"0 1 2\n# a comment\n2 {token} 0\n"
    with pytest.raises(GraphError) as got:
        parse_permutations(text, 3)
    quoted = repr(token) if len(token) < 32 else "'" + "9" * 32 + "'... (5000 characters)"
    assert str(got.value) == f"line 3: bad image {quoted}"
    with pytest.raises(GraphError, match="line 2: bad neighbor"):
        parse_graph(f"n 3\n0: {token}\n")


def test_parse_permutations_leaves_non_bijections_to_the_audit():
    # naturals of n or more and repeated images are audit findings
    assert parse_permutations("0 1 3\n0 0 1\n", 3) == ((0, 1, 3), (0, 0, 1))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 8), st.data())
def test_parse_permutations_matches_the_per_token_reference(n, data):
    # lines of images in and past range, with leading zeros, odd tokens and
    # wrong counts among them, and comments; two lines or more of n > 2
    # images make the parser build its id table, so both routes are drawn
    image = st.one_of(
        st.integers(0, n - 1).map(str),
        st.integers(0, n - 1).map(str),
        st.integers(0, n - 1).map(lambda j: f"0{j}"),
        st.integers(n, n + 2).map(str),
        st.sampled_from((*ODD_TOKENS, LONG_TOKEN)),
    )
    count = st.one_of(st.just(n), st.just(n), st.integers(0, n + 1))
    lines = data.draw(
        st.lists(st.tuples(count.flatmap(lambda k: st.lists(image, min_size=k, max_size=k)), st.booleans()), max_size=5)
    )
    text = "".join(" ".join(images) + ("  # note" if comment else "") + "\n" for images, comment in lines)
    try:
        expected = reference_parse_permutations(text, n)
    except GraphError as exc:
        with pytest.raises(GraphError) as got:
            parse_permutations(text, n)
        assert str(got.value) == str(exc)
    else:
        assert parse_permutations(text, n) == expected


def test_generate_petersen():
    pet = generate_petersen()
    assert pet.n == 10 and pet.edge_count() == 15
    assert verify_srg(pet) == SrgParams(10, 3, 0, 1)
    assert diameter(pet) == 2


def test_verify_srg_negative_cases():
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_srg(path3) is None
    k3 = Graph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
    assert verify_srg(k3) is None  # complete graphs are excluded
    assert verify_srg(cycle(5)) == SrgParams(5, 2, 0, 1)
    two_triangles = Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    assert verify_srg(two_triangles) is None  # disconnected


def test_verify_drg():
    assert verify_drg(cycle(5)).b == (2, 1)
    assert verify_drg(cycle(5)).c == (1, 1)
    pet = generate_petersen()
    arr = verify_drg(pet)
    assert arr.b == (3, 2) and arr.c == (1, 1)
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert verify_drg(path3) is None
    # vertex 0 of the highest degree: only the regularity test rejects it
    assert verify_drg(Graph.from_edges(3, [(0, 1), (0, 2)])) is None


def test_verify_drg_of_long_cycles_matches_the_closed_form():
    # C_n has diameter d = n // 2, b = (2, 1, ..., 1) and c = (1, ..., 1),
    # with c_d = 2 for even n, the antipode; networkx's distance-regularity
    # search stops short of it at n >= 30
    for n in [*range(3, 301), 1024]:
        d = n // 2
        arr = verify_drg(cycle(n))
        assert arr.b == (2, *(1,) * (d - 1)), n
        assert arr.c == (*(1,) * (d - 1), 2 if n % 2 == 0 else 1), n


def test_verify_drg_diameter_4_antipodal():
    # the 4-dimensional hypercube: distance-regular of diameter 4 and an
    # antipodal 2-cover, so the measured array feeds antipodal_check
    edges = [
        (u, u ^ (1 << b))
        for u in range(16)
        for b in range(4)
        if u < u ^ (1 << b)
    ]
    q4 = Graph.from_edges(16, edges)
    arr = verify_drg(q4)
    assert arr is not None
    assert arr.b == (4, 3, 2, 1) and arr.c == (1, 2, 3, 4)
    ok, r = antipodal_check(arr)
    assert ok and r == 2
    assert verify_srg(q4) is None  # diameter 4, not strongly regular
    # complementation is an automorphism displacing every vertex to
    # distance 4
    comp = tuple(u ^ 15 for u in range(16))
    assert is_automorphism(q4, comp)
    assert alpha_profile(q4, comp) == (0, 0, 0, 0, 16)


def test_drg_and_srg_agree_at_diameter_2(gewirtz):
    for g in (generate_petersen(), cycle(5), gewirtz):
        arr = verify_drg(g)
        params = verify_srg(g)
        assert arr is not None and params is not None
        assert arr.c[1] == params.mu
        assert arr.a[1] == params.lam
        assert arr.b[0] == params.k


def test_is_automorphism():
    c5 = cycle(5)
    assert is_automorphism(c5, (0, 1, 2, 3, 4))
    assert is_automorphism(c5, (1, 2, 3, 4, 0))
    path3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert not is_automorphism(path3, (1, 0, 2))
    assert not is_automorphism(c5, (0, 0, 1, 2, 3))  # not a bijection
    with pytest.raises(ValueError):
        is_automorphism(c5, (0, 1, 2))


def test_is_permutation():
    assert is_permutation((), 0) and is_permutation((2, 0, 1), 3)
    assert not is_permutation((0, 1), 3)  # too short
    assert not is_permutation((0, 1, 1), 3)  # repeated image
    assert not is_permutation((0, 1, 3), 3)  # image out of range
    assert not is_permutation((0, 1, -1), 3)  # negative image
    assert not is_permutation((-1, 0, 1, 3), 4)  # distinct, in count, out of range


def test_alpha_profile():
    c5 = cycle(5)
    assert alpha_profile(c5, (0, 1, 2, 3, 4)) == (5, 0, 0)
    assert alpha_profile(c5, (1, 2, 3, 4, 0)) == (0, 5, 0)
    with pytest.raises(ValueError):
        alpha_profile(c5, (1, 0, 2, 3, 4))


def test_witness_profiles_sum_to_order(gewirtz, gewirtz_witnesses):
    for sigma in gewirtz_witnesses[:25]:
        profile = alpha_profile(gewirtz, sigma)
        assert sum(profile) == 56
    assert alpha_profile(gewirtz, tuple(range(56)))[0] == 56


def test_perm_order():
    assert perm_order((0, 1, 2)) == 1
    assert perm_order((1, 2, 0)) == 3
    assert perm_order((1, 0, 3, 2)) == 2
    assert perm_order((1, 0, 3, 4, 2)) == 6


def test_gewirtz_self_validates(gewirtz):
    assert gewirtz.n == 56
    assert gewirtz.edge_count() == 280
    assert verify_srg(gewirtz) == SrgParams(56, 10, 0, 2)
    # valency 10 keeps cliques far below the (p+2)^2 = 16 ceiling
    assert max(map(len, gewirtz.adj)) + 1 <= 16


def test_gewirtz_witnesses_are_automorphisms(gewirtz, gewirtz_witnesses):
    assert len(gewirtz_witnesses) >= 150
    assert len(set(gewirtz_witnesses)) == len(gewirtz_witnesses)
    for sigma in gewirtz_witnesses:
        assert is_automorphism(gewirtz, sigma)


def test_gewirtz_witness_bytes_are_pinned(gewirtz, gewirtz_witnesses):
    # the graph file and the first 600 automorphisms that the verify and
    # audit golden cases and the benchmark read, as first generated
    graph_text = graph_to_text(gewirtz)
    assert len(graph_text) == 1799
    assert hashlib.sha256(graph_text.encode()).hexdigest() == (
        "4c657eae19f224fe2c7d090b627a11ead1628b359bf664aa8a79976896e9d6ae"
    )
    perms_text = permutations_to_text(gewirtz_witnesses)
    assert len(perms_text) == 94800
    assert hashlib.sha256(perms_text.encode()).hexdigest() == (
        "709926bb447b6b98faf4700f6c3b9b53651ac516fe420821e652892c56409f7f"
    )
    # after the identity come the 19 generators themselves (18 elementary
    # transvections and the field automorphism); they generate a group of
    # order 40,320
    combinatorics = pytest.importorskip("sympy.combinatorics")
    gens = gewirtz_automorphisms(20)[1:]
    group = combinatorics.PermutationGroup([combinatorics.Permutation(list(g)) for g in gens])
    assert group.order() == 40320


def test_gewirtz_witness_order_diversity(gewirtz_witnesses):
    orders = {perm_order(s) for s in gewirtz_witnesses}
    # every prime order of the class-preserving group is represented, so
    # the congruence filter is exercised at each of them
    assert {1, 2, 3, 5, 7} <= orders


def test_gewirtz_fixed_subgraph_bound(gewirtz, gewirtz_witnesses):
    ident = tuple(range(56))
    for sigma in gewirtz_witnesses:
        if sigma == ident:
            continue
        assert sum(sigma[v] == v for v in range(56)) <= 14


def test_measured_profiles_satisfy_both_alpha1_expressions(gewirtz, gewirtz_witnesses):
    # the two displacement-count congruences are derived without any
    # hypothesis on p beyond the family shape, so every measured
    # prime-order profile of the p = 2 member must satisfy both
    from at4tools.higman import alpha1_residues

    checked = 0
    for sigma in gewirtz_witnesses:
        order = perm_order(sigma)
        if not is_prime(order):
            continue
        fix, a1, _ = alpha_profile(gewirtz, sigma)
        r1, r2, m = alpha1_residues(2, order, fix)
        assert r1 == r2 == a1 % m
        checked += 1
    assert checked >= 100


def test_gewirtz_profiles_pass_divisibility(gewirtz, gewirtz_witnesses):
    report = audit_family_graph(gewirtz, 2, gewirtz_witnesses)
    assert not report["failures"]
    assert report["total"] == len(gewirtz_witnesses)
    assert report["passed"] == report["total"]


def test_audit_flags_corrupted_permutation(gewirtz, gewirtz_witnesses):
    bad = list(gewirtz_witnesses[1])
    bad[0], bad[1] = bad[1], bad[0]
    sigmas = [gewirtz_witnesses[0], tuple(bad)]
    report = audit_family_graph(gewirtz, 2, sigmas)
    assert report["failures"]
    assert report["failures"][0][0] == 1


def test_audit_flags_non_bijection(gewirtz, gewirtz_witnesses):
    bad = list(gewirtz_witnesses[0])
    bad[0] = bad[1]
    report = audit_family_graph(gewirtz, 2, [tuple(bad)])
    assert report["failures"] == ((0, ("not-a-permutation",)),)


@settings(max_examples=60, deadline=None)
@given(st.data())
def test_audit_matches_the_rational_reference(gewirtz, gewirtz_witnesses, data):
    # automorphisms, products of two (of mixed and composite orders), ones
    # with two images swapped, and lists that are no permutation: a
    # repeated image, an image out of range, one image short
    witness = st.sampled_from(gewirtz_witnesses)

    def swapped(sigma, i, j):
        out = list(sigma)
        out[i], out[j] = out[j], out[i]
        return tuple(out)

    def broken(sigma, how, i):
        out = list(sigma)
        if how == 0:
            out[i] = out[(i + 1) % 56]
        elif how == 1:
            out[i] = 56
        else:
            del out[i]
        return tuple(out)

    element = st.one_of(
        witness,
        st.builds(lambda a, b: tuple(a[x] for x in b), witness, witness),
        st.builds(swapped, witness, st.integers(0, 55), st.integers(0, 55)),
        st.builds(broken, witness, st.integers(0, 2), st.integers(0, 55)),
    )
    sigmas = data.draw(st.lists(element, min_size=1, max_size=8))
    report = audit_family_graph(gewirtz, 2, sigmas)
    assert (report["failures"], report["orders"]) == reference_audit(gewirtz, 2, sigmas)
    assert report["passed"] == report["total"] - len(report["failures"])


def test_audit_judges_each_profile_once(monkeypatch, gewirtz):
    # a kernel that returns each element as its own profile lets the audit
    # judge profiles no automorphism has, failing ones among them; each
    # distinct one reaches the characters once, and every element gets the
    # verdict the Fraction reference gives its profile alone
    profiles = [
        (2, 8, 0), (2, 20, 0), (2, 8, 0), "not-automorphism", (3, 2, 1), (2, 20, 0),
        (5, 1, 10), (3, 2, 1), "not-a-permutation", (2, 14, 2), (3, 2, 0), (2, 14, 2),
    ]
    calls = []
    chi = graphcheck.chi_numerators
    monkeypatch.setattr(graphcheck, "_displacement_kernel", lambda g: lambda sigma: sigma)
    monkeypatch.setattr(graphcheck, "chi_numerators", lambda *args: calls.append(args) or chi(*args))
    report = audit_family_graph(gewirtz, 2, profiles)
    expected = [
        (idx, (x,) if isinstance(x, str) else reference_codes(2, *x)) for idx, x in enumerate(profiles)
    ]
    assert report["failures"] == tuple((idx, codes) for idx, codes in expected if codes)
    assert report["orders"] == tuple(0 if isinstance(x, str) else x[0] for x in profiles)
    assert len(calls) == len({x for x in profiles if isinstance(x, tuple)}) == 6
    # the profiles above hold passing and failing verdicts of equal order
    verdicts = {x: codes for x, (_, codes) in zip(profiles, expected)}
    assert not verdicts[(2, 8, 0)] and verdicts[(2, 20, 0)]
    assert not verdicts[(3, 2, 0)] and verdicts[(3, 2, 1)]


def _hamming_square(q):
    """H(2, q): the pairs (a, b) as a * q + b, adjacent when they differ in
    exactly one coordinate."""
    n = q * q
    return n, [(u, v) for u, v in combinations(range(n), 2) if (u // q == v // q) != (u % q == v % q)]


def _cycle_symmetries(n):
    return [tuple((u + t) % n for u in range(n)) for t in (1, 2, n // 2)] + [
        tuple((t - u) % n for u in range(n)) for t in (0, 1)
    ]


def _hamming_symmetries(q):
    def image(f):
        return tuple(x * q + y for x, y in (f(u // q, u % q) for u in range(q * q)))

    return [
        image(lambda a, b: ((a + 1) % q, b)),
        image(lambda a, b: (a, (b + 3) % q)),
        image(lambda a, b: (b, a)),
        image(lambda a, b: ((b + 1) % q, (q - a) % q)),
    ]


def _conjugate(sigma, relabel):
    out = [0] * len(sigma)
    for u, image in enumerate(sigma):
        out[relabel[u]] = relabel[image]
    return tuple(out)


def _oracle_profile(g, sigma):
    """What ``graphcheck._displacement_kernel(g)`` must return for sigma,
    read from the oracles: the bijection by sorting, ``is_automorphism``,
    ``perm_order``, and alpha_0 and alpha_1 from ``alpha_profile`` on a
    connected graph, counted from ``g.neighbors`` on any other."""
    n = g.n
    if len(sigma) != n or sorted(sigma) != list(range(n)):
        return "not-a-permutation"
    if not is_automorphism(g, sigma):
        return "not-automorphism"
    if g.is_connected():
        alpha0, alpha1 = alpha_profile(g, sigma)[:2]
    else:
        alpha0 = sum(sigma[u] == u for u in range(n))
        alpha1 = sum(sigma[u] in g.neighbors(u) for u in range(n))
    return perm_order(sigma), alpha0, alpha1


def _non_permutations(sigma, rng):
    """sigma with one image set to n, to 255 and to -1, with one image
    repeated, one image short and one image too many."""
    n = len(sigma)
    out = []
    for bad in (n, 255, -1, None):
        i, j = rng.sample(range(n), 2)
        if sigma[i] == 255:
            # so that 255 changes the image it replaces
            i, j = j, i
        broken = list(sigma)
        broken[i] = sigma[j] if bad is None else bad
        out.append(tuple(broken))
    return out + [sigma[:-1], sigma + sigma[:1]]


@pytest.mark.parametrize(
    "n, edges, symmetries",
    [
        (256, [(i, (i + 1) % 256) for i in range(256)], _cycle_symmetries(256)),
        (257, [(i, (i + 1) % 257) for i in range(257)], _cycle_symmetries(257)),
        (*_hamming_square(17), _hamming_symmetries(17)),
    ],
    ids=["C_256", "C_257", "H(2,17)"],
)
def test_displacement_kernel_on_both_sides_of_256_vertices(monkeypatch, n, edges, symmetries):
    # the byte-table route holds graphs on at most 256 vertices and the
    # edge codes the rest; no family graph that large is known, so the
    # audit never reaches the second route and only this test covers it
    calls = []
    edge_code_kernel = graphcheck._edge_code_kernel

    def counted(g):
        profile = edge_code_kernel(g)

        def each(sigma):
            calls.append(1)
            return profile(sigma)

        return each

    rng = random.Random(n)
    relabel = rng.sample(range(n), n)
    cases = []
    for graph_edges, perms in (
        (edges, symmetries),
        # the graph relabelled, with its symmetries conjugated to match
        ([(relabel[u], relabel[v]) for u, v in edges], [_conjugate(s, relabel) for s in symmetries]),
    ):
        g = Graph.from_edges(n, graph_edges)
        sigmas = list(perms)
        for sigma in perms:
            i, j = rng.sample(range(n), 2)
            swapped = list(sigma)
            swapped[i], swapped[j] = swapped[j], swapped[i]
            sigmas.append(tuple(swapped))
        sigmas += [tuple(rng.sample(range(n), n)) for _ in range(4)]
        sigmas += _non_permutations(perms[0], rng)
        cases.append((g, sigmas))
    monkeypatch.setattr(graphcheck, "_edge_code_kernel", counted)
    results = []
    for g, sigmas in cases:
        profile = graphcheck._displacement_kernel(g)
        for sigma in sigmas:
            results.append(profile(sigma))
            assert results[-1] == _oracle_profile(g, sigma)
    assert sum(isinstance(r, tuple) for r in results) == 2 * len(symmetries)
    assert results.count("not-a-permutation") == 2 * 6
    assert len(calls) == (len(results) if n > 256 else 0)


@pytest.mark.parametrize("edges", [[], [(3, 290)]], ids=["no edge", "one edge"])
def test_edge_code_kernel_on_fewer_than_two_edges(edges):
    # the kernel gathers edge ends with itemgetters, which return a tuple
    # only for two indices or more, and tests the bijection itself
    n = 300
    g = Graph.from_edges(n, edges)
    profile = graphcheck._displacement_kernel(g)
    rng = random.Random(300)
    swap = list(range(n))
    swap[3], swap[290] = 290, 3
    sigmas = [tuple(range(n)), tuple(swap), tuple(rng.sample(range(n), n))]
    for sigma in sigmas + _non_permutations(tuple(swap), rng):
        assert profile(sigma) == _oracle_profile(g, sigma)
    assert profile(tuple(swap)) == (2, n - 2, 2 * len(edges))


def test_displacement_kernel_past_order_n(monkeypatch):
    # the rotation of C_3 + C_4 + C_5 + C_7 has order 420 on 19 vertices, so
    # n powers do not bring it back and the kernel falls back to perm_order
    sizes = (3, 4, 5, 7)
    starts = [sum(sizes[:i]) for i in range(len(sizes))]
    edges = [(a + i, a + (i + 1) % m) for a, m in zip(starts, sizes) for i in range(m)]
    rotation = tuple(a + (i + 1) % m for a, m in zip(starts, sizes) for i in range(m))
    g = Graph.from_edges(19, edges)
    calls = []
    monkeypatch.setattr(graphcheck, "perm_order", lambda sigma: calls.append(1) or perm_order(sigma))
    profile = graphcheck._displacement_kernel(g)
    assert profile(tuple(range(19))) == (1, 19, 0)
    assert not calls
    assert profile(rotation) == _oracle_profile(g, rotation) == (420, 0, 19)
    assert len(calls) == 1
    # its square, of order 210, moves only C_3 along its edges
    square = tuple(rotation[x] for x in rotation)
    assert profile(square) == _oracle_profile(g, square) == (210, 0, 3)
    for sigma in _non_permutations(rotation, random.Random(19)):
        assert profile(sigma) == "not-a-permutation"


def test_audit_of_the_whole_gewirtz_group(gewirtz, gewirtz_group):
    report = audit_family_graph(gewirtz, 2, gewirtz_group)
    assert report["total"] == report["passed"] == 40320 and not report["failures"]
    assert dict(Counter(report["orders"])) == {
        1: 1, 2: 435, 3: 2240, 4: 6300, 5: 8064, 6: 6720, 7: 5760, 8: 5040, 14: 5760
    }
    # the five prime-order profiles (order, alpha_0, alpha_1) and their counts
    profile = graphcheck._displacement_kernel(gewirtz)
    profiles = Counter(map(profile, gewirtz_group))
    assert {key: count for key, count in profiles.items() if is_prime(key[0])} == {
        (2, 8, 0): 315, (2, 14, 0): 120, (3, 2, 0): 2240, (5, 1, 10): 8064, (7, 0, 14): 5760
    }
    assert sum(profiles.values()) == 40320
    for sigma in random.Random(56).sample(gewirtz_group, 200):
        assert profile(sigma) == _oracle_profile(gewirtz, sigma)


def test_gewirtz_group_closes_whole(gewirtz, gewirtz_witnesses, gewirtz_group):
    # the order sympy gives from the generators; the first 600 elements are
    # the witnesses whose bytes test_gewirtz_witness_bytes_are_pinned pins,
    # and the whole list keeps the bytes and order it had as tuples
    group = gewirtz_group
    assert len(group) == len(set(group)) == 40320
    assert group[:600] == gewirtz_witnesses
    assert hashlib.sha256(permutations_to_text(group).encode()).hexdigest() == (
        "6ff407f7cde0e9e9ca19f1779b7d789c497454e98fd0060abcdec61f9382e614"
    )
    for sigma in random.Random(40320).sample(group, 200):
        assert is_automorphism(gewirtz, sigma)


def test_audit_requires_family_params():
    with pytest.raises(GraphError):
        audit_family_graph(generate_petersen(), 2, [tuple(range(10))])


def test_corrupted_profile_fails_integrality(gewirtz, gewirtz_witnesses):
    # an off-by-one transfer between alpha_1 and alpha_2 shifts chi_1 by a
    # non-integer, so the integrality audit must catch it
    sigma = next(s for s in gewirtz_witnesses if perm_order(s) == 2)
    profile = alpha_profile(gewirtz, sigma)
    chi1, chi2 = chi_values(2, AutProfile(2, profile[0], profile[1], profile[2]))
    assert chi1.denominator == 1 and chi2.denominator == 1
    corrupted = AutProfile(2, profile[0], profile[1] + 1, profile[2] - 1)
    bad1, bad2 = chi_values(2, corrupted)
    assert bad1.denominator != 1 or bad2.denominator != 1


# ---------------------------------------------------------------------------
# reference verifiers: one BFS per base vertex, and common neighbours of
# every vertex pair
# ---------------------------------------------------------------------------


def _bfs_counts(rows, u, expect=None):
    """One bitset BFS from u.  Per distance i, the counts (b_i, c_i) of
    neighbours one layer out and one layer in that every vertex at distance
    i shares; None as soon as two of them disagree, a count differs from
    expect, or u does not reach every vertex."""
    counts = []
    layer = 1 << u
    unseen = ((1 << len(rows)) - 1) ^ layer
    inner = 0
    while layer:
        want_b, want_c = expect[len(counts)] if expect is not None else (-1, -1)
        nxt = 0
        for w in _bits(layer):
            out = rows[w] & unseen
            b = out.bit_count()
            c = (rows[w] & inner).bit_count()
            if want_b < 0:
                want_b, want_c = b, c
            elif b != want_b or c != want_c:
                return None
            nxt |= out
        counts.append((want_b, want_c))
        inner = layer
        layer = nxt
        unseen ^= layer
    return None if unseen else counts


def bitset_rows(g):
    """Adjacency row of each vertex as an int with bit w set per neighbour w."""
    return [sum(1 << w for w in g.neighbors(v)) for v in range(g.n)]


def reference_drg(g):
    """Intersection array iff the BFS counts from every base vertex agree
    with those from vertex 0 (which also makes every eccentricity equal)."""
    if g.n < 2:
        return None
    rows = bitset_rows(g)
    first = _bfs_counts(rows, 0)
    if first is None or any(_bfs_counts(rows, u, first) is None for u in range(1, g.n)):
        return None
    b, c = zip(*first)
    return IntersectionArray(b[:-1], c[1:])


def reference_srg(g):
    """(v, k, lam, mu) iff g is connected, regular, non-complete, and every
    edge has lam and every non-edge mu common neighbours."""
    n = g.n
    if n < 3 or not g.is_connected() or len({len(g.neighbors(v)) for v in range(n)}) != 1:
        return None
    k = len(g.neighbors(0))
    if k == n - 1:
        return None
    rows = bitset_rows(g)
    common = {True: set(), False: set()}
    for u, v in combinations(range(n), 2):
        common[bool(rows[u] >> v & 1)].add((rows[u] & rows[v]).bit_count())
    if len(common[True]) != 1 or len(common[False]) != 1:
        return None
    return SrgParams(n, k, *common[True], *common[False])


def _edges_of(n, adjacent):
    return [(u, v) for u, v in combinations(range(n), 2) if adjacent(u, v)]


def _drg_families():
    """Distance-regular graphs of diameter 2 to 6: H(3,4), J(8,3), Q_6, C_n."""
    words = list(product(range(4), repeat=3))
    triples = list(combinations(range(8), 3))
    return {
        "H(3,4)": (64, _edges_of(64, lambda u, v: sum(a != b for a, b in zip(words[u], words[v])) == 1)),
        "J(8,3)": (56, _edges_of(56, lambda u, v: len(set(triples[u]) & set(triples[v])) == 2)),
        "Q_6": (64, _edges_of(64, lambda u, v: (u ^ v).bit_count() == 1)),
        **{f"C_{n}": (n, [(i, (i + 1) % n) for i in range(n)]) for n in (3, 4, 5, 8, 13)},
    }


DRG_FAMILIES = _drg_families()


def _switch(edges, rng):
    """One degree-preserving switch: edges a-b and c-d become a-c and b-d,
    when all four ends differ and neither new edge exists; else unchanged."""
    present = {frozenset(e) for e in edges}
    (a, b), (c, d) = rng.sample(edges, 2)
    if len({a, b, c, d}) < 4 or {frozenset((a, c)), frozenset((b, d))} & present:
        return edges
    return [e for e in edges if frozenset(e) not in ({a, b}, {c, d})] + [(a, c), (b, d)]


def assert_matches_reference(g):
    drg, srg = verify_drg(g), verify_srg(g)
    assert drg == reference_drg(g)
    assert srg == reference_srg(g)
    return drg


def test_reference_accepts_each_family():
    for name, (n, edges) in DRG_FAMILIES.items():
        assert assert_matches_reference(Graph.from_edges(n, edges)) is not None, name


@settings(max_examples=60, deadline=None)
@given(st.sampled_from(sorted(DRG_FAMILIES)), st.integers(0, 2**32 - 1), st.integers(1, 2))
def test_switched_drgs_match_reference(name, seed, switches):
    rng = random.Random(seed)
    n, edges = DRG_FAMILIES[name]
    perm = list(range(n))
    rng.shuffle(perm)
    edges = [(perm[u], perm[v]) for u, v in edges]
    for _ in range(switches):
        edges = _switch(edges, rng)
    assert_matches_reference(Graph.from_edges(n, edges))


@settings(max_examples=150, deadline=None)
@given(st.integers(4, 40), st.data())
def test_random_regular_graphs_match_reference(n, data):
    # a circulant graph on a random set of jumps, then random switches: every
    # degree stays, so the count checks run past the regularity test
    jumps = data.draw(st.sets(st.integers(1, n // 2), min_size=1, max_size=4))
    edges = sorted({tuple(sorted((i, (i + j) % n))) for i in range(n) for j in jumps})
    rng = random.Random(data.draw(st.integers(0, 2**32 - 1)))
    for _ in range(data.draw(st.integers(0, 6))):
        edges = _switch(edges, rng)
    assert_matches_reference(Graph.from_edges(n, edges))


def test_disconnected_copies_of_a_drg_are_rejected():
    # every vertex sees the same counts, but vertex 0 reaches half the graph
    n, edges = DRG_FAMILIES["C_5"]
    g = Graph.from_edges(2 * n, [*edges, *((u + n, v + n) for u, v in edges)])
    assert verify_drg(g) is None and reference_drg(g) is None


@pytest.mark.parametrize("m", [3, 5])
def test_regular_graph_distance_regular_around_one_side_is_rejected(m):
    # K_{m,m+1} plus a perfect matching on the side of m+1 is (m+1)-regular.
    # From every base vertex, the counts at a vertex of the side of m are
    # those of a distance-regular graph, but an edge has m common neighbours
    # on one side and 1 across, so only the rows of the other side fail.
    left, right = range(m), range(m, 2 * m + 1)
    edges = [(u, v) for u in left for v in right] + [(v, v + 1) for v in right[::2]]
    n = 2 * m + 1
    for first in range(n):
        order = [first, *(v for v in range(n) if v != first)]
        pos = {v: i for i, v in enumerate(order)}
        g = Graph.from_edges(n, [(pos[u], pos[v]) for u, v in edges])
        assert verify_drg(g) is None and reference_drg(g) is None
        assert verify_srg(g) is None and reference_srg(g) is None
