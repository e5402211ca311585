import contextlib
import io
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import at4tools
from at4tools import at4, cli, exactnum, graphcheck, higman, srg
from test_graphcheck import ODD_TOKENS

try:
    import resource
except ImportError:  # not on every platform
    resource = None

DATA = Path(__file__).resolve().parent / "data"


def child_env() -> dict:
    """The environment of a child interpreter that imports this at4tools."""
    src = str(Path(at4tools.__file__).resolve().parents[1])
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}


def run(argv):
    buf = io.StringIO()
    rc = cli.main(argv, out=buf)
    return rc, buf.getvalue()


def run_json(argv):
    rc, text = run(["--format", "json", "--deterministic", *argv])
    return rc, (json.loads(text) if text else None)


def test_scan_soicher_entry():
    rc, rep = run_json(["scan", "2", "2"])
    assert rc == 0
    assert rep["schema"] == "at4.report/1"
    entry = rep["entries"][0]
    assert entry["feasible_r"] == [3]
    assert entry["arrays"][0]["b"] == [56, 45, 16, 1]
    assert entry["arrays"][0]["c"] == [1, 8, 45, 56]
    assert entry["arrays"][0]["fundamental_bound"] == "equality"
    assert entry["edge_stabilizer_primes"] == "inapplicable"
    assert "timing_ms" not in rep


def test_scan_p11_entry():
    rc, rep = run_json(["scan", "11", "11"])
    assert rc == 0
    entry = rep["entries"][0]
    assert entry["feasible_r"] == [3, 4, 6, 12]
    assert entry["spectrum_lower"] == [2, 3, 5, 13, 167]
    assert entry["spectrum_upper"] == [2, 3, 5, 7, 11, 13, 167]


def test_scan_p4_gates_inapplicable():
    rc, rep = run_json(["scan", "4", "4"])
    assert rc == 0
    entry = rep["entries"][0]
    assert entry["s"] == 34 and entry["s_prime"] is False
    assert entry["centralizer_filter"] == "inapplicable"
    assert entry["edge_stabilizer_primes"] == [2, 3]  # p = 4 is a prime power


def test_scan_bad_range_usage_error():
    rc, _ = run(["scan", "5", "3"])
    assert rc == 2
    rc, _ = run(["scan", "1", "3"])
    assert rc == 2
    # 10000019 is prime: its report would list every prime up to it
    rc, text = run(["scan", "10000018", "10000020"])
    assert rc == 2 and text == ""


def test_scan_byte_identical_in_one_process(monkeypatch):
    rc1, out1 = run(["--format", "json", "--deterministic", "scan", "2", "6"])
    rc2, out2 = run(["--format", "json", "--deterministic", "scan", "2", "6"])
    assert rc1 == rc2 == 0 and out1 == out2
    # no worker pool: the option is unknown and the variable is ignored
    assert run(["--format", "json", "--deterministic", "--jobs", "2", "scan", "2", "6"]) == (2, "")
    monkeypatch.setenv("AT4_JOBS", "2")
    assert run(["--format", "json", "--deterministic", "scan", "2", "6"]) == (0, out1)


def factorize_calls(monkeypatch, argv) -> list[int]:
    """Each number that ``argv`` factorises, in order: the argument of each
    factorize call and each n of each factorize_range window, counted by
    rebinding both in every module of the package that imported them."""
    calls = []
    factorize, factorize_range = exactnum.factorize, exactnum.factorize_range

    def counting(n):
        calls.append(n)
        return factorize(n)

    def counting_range(lo, hi):
        calls.extend(range(lo, hi + 1))
        return factorize_range(lo, hi)

    for module in (at4, cli, exactnum, graphcheck, higman, srg):
        if getattr(module, "factorize", None) is factorize:
            monkeypatch.setattr(module, "factorize", counting)
        if getattr(module, "factorize_range", None) is factorize_range:
            monkeypatch.setattr(module, "factorize_range", counting_range)
    rc, _ = run(["--deterministic", *argv])
    assert rc == 0
    return calls


@pytest.mark.parametrize(
    "argv",
    [["bounds", "11"], ["bounds", "27"], ["scan", "11", "11"], ["profile", "11", "3", "7"], ["bounds", "25"]],
)
def test_each_report_factorises_p_once(monkeypatch, argv):
    # and every other number it reads once too: one record per report
    calls = factorize_calls(monkeypatch, argv)
    p = int(argv[1])
    assert p in calls and len(calls) == len(set(calls)), calls


@pytest.mark.parametrize("argv", [["array", "11", "4"], ["profile", "23", "8", "7"]])
def test_a_pair_report_validates_its_pair_once_and_composes_once(monkeypatch, argv):
    # counted through the hook that a tracer replaces to count constructions
    made, composed = [], []
    check, compose = at4.At4Params.__post_init__, at4.compose
    monkeypatch.setattr(at4.At4Params, "__post_init__", lambda self: made.append(tuple(self)) or check(self))
    monkeypatch.setattr(at4, "compose", lambda pf, rf: composed.append((pf.p, rf.r)) or compose(pf, rf))
    rc, _ = run(["--deterministic", *argv])
    assert rc == 0
    pair = (int(argv[1]), int(argv[2]))
    assert made == [pair] and composed == [pair]


def test_scan_never_factorises_s_at_a_p_that_is_no_prime_power(monkeypatch):
    # s is past 3.3e24 with no small factor: factorising it takes seconds;
    # the scan factorises the window p..p+4 of its records and nothing else
    p = 2000000000011
    assert factorize_calls(monkeypatch, ["scan", str(p), str(p)]) == [*range(p, p + 5)]


def test_array_report():
    rc, rep = run_json(["array", "2", "3"])
    assert rc == 0
    assert rep["vertices"] == 486
    assert rep["antipodal_classes"] == 162
    assert rep["recovered_r"] == "3"
    assert rep["eigenvalues"] == [56, 14, 2, -4, -16]
    assert rep["quotient_srg"] == [162, 56, 10, 24]


def test_array_invalid_params():
    rc, _ = run(["array", "3", "3"])  # 3 does not divide 8
    assert rc == 2


def test_profile_reports():
    rc, rep = run_json(["profile", "3", "4", "23"])
    assert rc == 0
    assert rep["alpha1_fixed_point_free"] == [23]
    rc, rep = run_json(["profile", "3", "4", "5"])
    assert rep["cover_congruences"] == [0, 4, 0, 3]
    assert rep["subconstituent_congruences"] == [0, 0, 0, 3]
    rc, rep = run_json(["profile", "3", "4", "29"])
    assert rep["order_admissible_with_fixed_points"] is False
    assert rep["order_admissible_fixed_point_free"] is False


def test_profile_rejects_composite_order():
    rc, _ = run(["profile", "3", "4", "6"])
    assert rc == 2


def test_bounds_report():
    rc, rep = run_json(["bounds", "11"])
    assert rc == 0
    assert rep["spectrum_lower"] == [2, 3, 5, 13, 167]
    assert rep["block_sizes"] == [1, 13, 167]
    assert rep["exclusion"]["verdict"] == "pass"
    assert rep["fix_bound"] == 167


def test_bounds_p25_live_solvable_branch():
    # p = 25 is the one small case where both solvable branches survive
    # (27 = 3^3 with 727 = 1 mod 3), while the arc-transitive exclusion
    # gate still fails because 27 is composite
    rc, rep = run_json(["bounds", "25"])
    assert rc == 0
    exclusion = rep["exclusion"]
    assert exclusion["verdict"] == "fail"
    assert exclusion["data"]["s"] == 727 and exclusion["data"]["s_prime"] is True
    assert exclusion["data"]["q_prime"] is False
    assert exclusion["data"]["solvable"]["verdict"] == "pass"
    assert exclusion["data"]["solvable"]["data"]["case_i"]["applicable"] is True


def test_verify_petersen(tmp_path):
    path = tmp_path / "petersen.txt"
    path.write_text(graphcheck.graph_to_text(graphcheck.generate_petersen()))
    rc, rep = run_json(["verify", str(path)])
    assert rc == 0
    assert rep["srg"] == [10, 3, 0, 1]
    assert rep["drg"] == {"b": [3, 2], "c": [1, 1]}


def test_verify_parse_error(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("n 2\n0: 0\n")
    rc, _ = run(["verify", str(path)])
    assert rc == 3


def test_verify_oversize_header_is_input_error(tmp_path):
    path = tmp_path / "huge.txt"
    path.write_text(f"n {graphcheck.MAX_VERTICES + 1}\n")
    rc, text = run(["verify", str(path)])
    assert rc == 3 and text == ""


def test_verify_missing_file():
    rc, _ = run(["verify", "/nonexistent/graph.txt"])
    assert rc == 3


def test_undecodable_file_is_input_error(tmp_path, capsys):
    bad = tmp_path / "latin1.txt"
    bad.write_bytes(b"n 2\n0: 1\n# caf\xe9\n")
    good = tmp_path / "ok.txt"
    good.write_text("n 2\n0: 1\n")
    for argv in (["verify", str(bad)], ["audit", str(bad), str(good), "2"], ["audit", str(good), str(bad), "2"]):
        rc, text = run(argv)
        assert rc == 3 and text == ""
        assert capsys.readouterr().err == f"error: {bad}: not UTF-8 text: invalid continuation byte at byte 14\n"


@pytest.fixture(scope="module")
def refusal_dir(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("refusals")
    (tmp / "loop.txt").write_text("n 2\n0: 0\n")
    (tmp / "latin1.txt").write_bytes(b"n 2\n0: 1\n# caf\xe9\n")
    (tmp / "huge.txt").write_text(f"n {graphcheck.MAX_VERTICES + 1}\n")
    (tmp / "c5.txt").write_text((Path(__file__).parent / "data" / "c5_one_sided.txt").read_text())
    (tmp / "short.txt").write_text("0 1 2\n")
    (tmp / "signed.txt").write_text("0 1 2 3 4\n4 3 2 1 -1\n")
    long = max(ODD_TOKENS, key=len)
    (tmp / "long_neighbor.txt").write_text(f"n 3\n0: 1 {long}\n")
    (tmp / "long_header.txt").write_text(f"n {long}\n")
    (tmp / "long_vertex.txt").write_text(f"n 3\n{long}: 1\n")
    (tmp / "long_image.txt").write_text(f"0 1 2 3 4\n4 3 2 {long} 0\n")
    (tmp / "adir").mkdir()
    return str(tmp)


# Each refusal: the argv ({d} is a directory of input files), the exit code
# and the one stderr line, without its "error: " prefix.  stdout stays empty.
REFUSALS = [
    (["scan", "5", "3"], 2, "bad range 5..3 (need 2 <= p_min <= p_max)"),
    (["scan", "1", "3"], 2, "bad range 1..3 (need 2 <= p_min <= p_max)"),
    (
        ["scan", "10000018", "10000020"],
        2,
        "p = 10000019 is a prime power above 10000000: its report would list every prime up to p",
    ),
    # across several sieve segments: the records past 10^7 come first
    (
        ["scan", "9998000", "10000020"],
        2,
        "p = 10000019 is a prime power above 10000000: its report would list every prime up to p",
    ),
    (["array", "2", "4"], 2, "r must satisfy 2 < r < p+2, got r=4, p=2"),
    (["array", "1", "3"], 2, "p must be >= 2, got 1"),
    (["array", "11", "5"], 2, "r must divide 2(p+1), got r=5, p=11"),
    (["profile", "3", "4", "4"], 2, "order 4 is not prime"),
    (["profile", "3", "5", "7"], 2, "r must satisfy 2 < r < p+2, got r=5, p=3"),
    (["profile", "3", "4", "-7"], 2, "order -7 is not prime"),
    (["bounds", "0"], 2, "p must be >= 2, got 0"),
    (
        ["bounds", "10000019"],
        2,
        "p = 10000019 is a prime power above 10000000: its report would list every prime up to p",
    ),
    (["verify", "{d}/loop.txt"], 3, "line 2: loop at vertex 0"),
    (["verify", "{d}/latin1.txt"], 3, "{d}/latin1.txt: not UTF-8 text: invalid continuation byte at byte 14"),
    (["verify", "{d}/huge.txt"], 3, "line 1: vertex count 1048577 exceeds the limit 1048576"),
    (["verify", "{d}/missing.txt"], 3, "[Errno 2] No such file or directory: '{d}/missing.txt'"),
    (["verify", "{d}/adir"], 3, "[Errno 21] Is a directory: '{d}/adir'"),
    (["audit", "{d}/c5.txt", "{d}/short.txt", "1"], 2, "p must be >= 2, got 1"),
    (["audit", "{d}/c5.txt", "{d}/short.txt", "2"], 3, "line 1: expected 5 images, got 3"),
    # an image is a natural in ASCII digits, as a neighbour is in a graph file
    (["audit", "{d}/c5.txt", "{d}/signed.txt", "2"], 3, "line 2: bad image '-1'"),
    # a refused token or line of 5000 digits is quoted by its first 32
    # characters, so the error line stays short
    (["verify", "{d}/long_neighbor.txt"], 3, "line 2: bad neighbor '" + "9" * 32 + "'... (5000 characters)"),
    (
        ["verify", "{d}/long_header.txt"],
        3,
        "line 1: expected header 'n <count>', got 'n " + "9" * 30 + "'... (5002 characters)",
    ),
    (
        ["verify", "{d}/long_vertex.txt"],
        3,
        "line 2: expected 'i: neighbors', got '" + "9" * 32 + "'... (5003 characters)",
    ),
    (["audit", "{d}/c5.txt", "{d}/long_image.txt", "2"], 3, "line 2: bad image '" + "9" * 32 + "'... (5000 characters)"),
    # both files are read before either is parsed: the read error wins
    (["audit", "{d}/loop.txt", "{d}/missing.txt", "2"], 3, "[Errno 2] No such file or directory: '{d}/missing.txt'"),
    (
        ["audit", "{d}/latin1.txt", "{d}/short.txt", "2"],
        3,
        "{d}/latin1.txt: not UTF-8 text: invalid continuation byte at byte 14",
    ),
    (
        ["audit", "{d}/c5.txt", "{d}/latin1.txt", "2"],
        3,
        "{d}/latin1.txt: not UTF-8 text: invalid continuation byte at byte 14",
    ),
]


@pytest.mark.skipif(os.name != "posix", reason="errno texts and paths as on POSIX")
@pytest.mark.parametrize("fmt", ["json", "text"])
@pytest.mark.parametrize(
    "argv, code, message", REFUSALS, ids=[" ".join(row[0]).replace("{d}/", "") for row in REFUSALS]
)
def test_refusal_contract(refusal_dir, capsys, fmt, argv, code, message):
    argv = [arg.format(d=refusal_dir) for arg in argv]
    rc, text = run(["--format", fmt, "--deterministic", *argv])
    assert (rc, text) == (code, "")
    assert capsys.readouterr().err == "error: " + message.format(d=refusal_dir) + "\n"


@pytest.fixture(scope="module")
def gewirtz_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("audit")
    g = graphcheck.generate_gewirtz()
    witnesses = graphcheck.gewirtz_automorphisms(12)
    gpath = tmp / "gewirtz.txt"
    gpath.write_text(graphcheck.graph_to_text(g))
    ppath = tmp / "gens.txt"
    ppath.write_text(graphcheck.permutations_to_text(witnesses))
    return gpath, ppath, witnesses


@pytest.mark.parametrize(
    "argv, solves",
    [
        (["bounds", "11"], 1),
        (["scan", "11", "11"], 0),
        (["scan", "2", "30"], 0),
        (["array", "11", "4"], 0),
        (["profile", "23", "8", "7"], 0),
        (["audit", "{graph}", "{perms}", "2"], 0),
    ],
)
def test_only_the_feasibility_screen_solves_an_srg_spectrum(monkeypatch, gewirtz_files, argv, solves):
    # the spectra, the fixed-point bounds and the quotients a report prints
    # are closed forms proven in tests/test_closed_forms.py; bounds solves
    # its local graph once, in feasibility_basic
    calls = []
    solve = srg.srg_spectrum
    for module in (at4, cli, graphcheck, higman, srg):
        if getattr(module, "srg_spectrum", None) is solve:
            monkeypatch.setattr(module, "srg_spectrum", lambda params: calls.append(params) or solve(params))
    gpath, ppath, _ = gewirtz_files
    rc, _ = run(["--deterministic", *(a.format(graph=gpath, perms=ppath) for a in argv)])
    assert rc == 0
    assert len(calls) == solves


def test_audit_passes(gewirtz_files):
    gpath, ppath, _ = gewirtz_files
    rc, rep = run_json(["audit", str(gpath), str(ppath), "2"])
    assert rc == 0
    assert rep["passed"] == rep["total"] == 12
    assert rep["failures"] == []


def test_audit_corrupted_permutation(gewirtz_files, tmp_path):
    gpath, _, witnesses = gewirtz_files
    bad = list(witnesses[1])
    bad[0], bad[1] = bad[1], bad[0]
    ppath = tmp_path / "bad.txt"
    ppath.write_text(graphcheck.permutations_to_text([witnesses[0], tuple(bad)]))
    rc, rep = run_json(["audit", str(gpath), str(ppath), "2"])
    assert rc == 1
    assert rep["failures"] == [[1, ["not-automorphism"]]]


def test_audit_reports_images_out_of_range_or_repeated(gewirtz_files, tmp_path):
    # naturals that make no permutation parse, and the audit reports them
    gpath, _, witnesses = gewirtz_files
    out_of_range = list(witnesses[1])
    out_of_range[3] = 56
    repeated = list(witnesses[2])
    repeated[3] = repeated[4]
    ppath = tmp_path / "broken.txt"
    ppath.write_text(graphcheck.permutations_to_text([witnesses[0], out_of_range, repeated]))
    rc, rep = run_json(["audit", str(gpath), str(ppath), "2"])
    assert rc == 1
    assert rep["failures"] == [[1, ["not-a-permutation"]], [2, ["not-a-permutation"]]]


def test_audit_wrong_family(gewirtz_files, tmp_path, capsys):
    pet = tmp_path / "petersen.txt"
    pet.write_text(graphcheck.graph_to_text(graphcheck.generate_petersen()))
    perms = tmp_path / "id.txt"
    perms.write_text(" ".join(map(str, range(10))) + "\n")
    rc, rep = run_json(["audit", str(pet), str(perms), "2"])
    assert rc == 1
    assert "error" in rep
    # a finding, not a refusal: the report names no perms file
    error = "graph verifies as (10, 3, 0, 1), expected (56, 10, 0, 2)"
    assert run(["--format", "text", "--deterministic", "audit", str(pet), str(perms), "2"]) == (
        1,
        f'command = "audit"\nerror = "{error}"\ninputs.graph = "petersen.txt"\ninputs.p = 2\n'
        'schema = "at4.report/1"\n',
    )
    inputs = {"graph": "petersen.txt", "p": 2}
    assert rep == {"command": "audit", "error": error, "inputs": inputs, "schema": cli.SCHEMA}
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("p", [1, 0, -3])
def test_audit_p_below_2_usage_error(gewirtz_files, capsys, p):
    gpath, ppath, _ = gewirtz_files
    rc, text = run(["audit", str(gpath), str(ppath), str(p)])
    assert rc == 2 and text == ""
    assert capsys.readouterr().err == f"error: p must be >= 2, got {p}\n"


def test_text_format_deterministic():
    rc1, out1 = run(["--deterministic", "bounds", "3"])
    rc2, out2 = run(["--deterministic", "bounds", "3"])
    assert rc1 == rc2 == 0 and out1 == out2
    assert "spectrum_lower" in out1


def test_timing_present_without_flag():
    rc, out = run(["--format", "json", "array", "2", "3"])
    assert rc == 0
    assert "timing_ms" in json.loads(out)


def test_parser_is_built_once_and_each_call_gets_its_own_namespace():
    parser = cli._build_parser()
    assert cli._build_parser() is parser
    first = parser.parse_args(["--format", "json", "--deterministic", "bounds", "3"])
    first._t0 = 0.0
    second = parser.parse_args(["bounds", "3"])
    assert second is not first and not hasattr(second, "_t0")
    assert (second.format, second.deterministic) == ("text", False)
    rc1, out1 = run(["--format", "json", "--deterministic", "array", "2", "3"])
    rc2, out2 = run(["array", "2", "3"])
    assert rc1 == rc2 == 0
    assert "timing_ms" not in json.loads(out1)
    assert out2.startswith("a = ") and "\ntiming_ms = " in out2


SMALL = st.integers(min_value=-10, max_value=5000)


@st.composite
def p_and_r(draw, max_p):
    """(p, r): r is often a divisor of 2(p+1), as a valid r must be."""
    p = draw(st.integers(min_value=-10, max_value=max_p))
    divisors = exactnum.divisors(2 * (p + 1)) if p >= 0 else [1]
    r = draw(st.one_of(st.sampled_from(divisors), SMALL))
    return p, r


@st.composite
def integer_argvs(draw):
    """An argv of scan, array, profile or bounds with integer arguments,
    each kept to a report made in well under a second."""
    command = draw(st.sampled_from(["scan", "array", "profile", "bounds"]))
    if command == "scan":
        p_min = draw(SMALL)
        args = [p_min, p_min + draw(st.integers(min_value=-20, max_value=8))]
    elif command == "array":
        args = list(draw(p_and_r(10**6)))
    elif command == "profile":
        p, r = draw(p_and_r(2000))
        ell = draw(st.one_of(st.sampled_from([2, 3, 5, 7, 11, 13, 23, 29]), SMALL))
        args = [p, r, ell]
    else:
        args = [draw(st.one_of(st.integers(min_value=-10, max_value=10**5), st.integers(10**8, 10**12)))]
    fmt = draw(st.sampled_from(["json", "text"]))
    return ["--format", fmt, "--deterministic", command, *map(str, args)]


def assert_succeeds_or_is_refused(argv, rc, out, err):
    """Exit 0 with a report that names its schema and command, or exit 2
    with nothing on stdout and one ``error:`` line unless argparse refused."""
    assert rc in (0, 2), (argv, rc, err)
    if rc == 2:
        assert out == ""
        # argparse prints its usage and its own error lines
        if not err.startswith("usage: "):
            assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n"), err
    elif argv[1] == "json":
        report = json.loads(out)
        assert (report["schema"], report["command"]) == (cli.SCHEMA, argv[3])
    else:
        lines = out.splitlines()
        assert f'command = "{argv[3]}"' in lines and f'schema = "{cli.SCHEMA}"' in lines


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_argvs())
def test_integer_arguments_succeed_or_are_refused(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stderr(err):
        rc = cli.main(argv, out=out)
    assert_succeeds_or_is_refused(argv, rc, out.getvalue(), err.getvalue())


@pytest.mark.skipif(resource is None, reason="the child's memory cap needs the resource module")
@settings(max_examples=25, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(integer_argvs())
def test_integer_arguments_in_a_fresh_process_succeed_or_are_refused(argv):
    # each example is a cold start of the console entry point, with a time
    # limit and a 1 GiB address-space cap set on the child only
    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    proc = subprocess.run(
        [sys.executable, "-m", "at4tools.cli", *argv],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=limit,
        timeout=60,
    )
    assert_succeeds_or_is_refused(argv, proc.returncode, proc.stdout, proc.stderr)


# Run with -S, so that no site hook loads modules: what is loaded is what the
# package imports.  No report holds a Fraction, and the writer keeps no
# per-thread state.
COLD_START = """
import io, sys
from at4tools import cli
assert cli.main(["--deterministic", "bounds", "11"], out=io.StringIO()) == 0
print(sorted({"fractions", "threading", "dataclasses", "at4tools.graphcheck"} & set(sys.modules)))
assert cli.main(["--deterministic", "verify", sys.argv[1]], out=io.StringIO()) == 0
print("at4tools.graphcheck" in sys.modules)
"""


def test_cold_start_loads_graphcheck_only_for_a_graph_command():
    proc = subprocess.run(
        [sys.executable, "-S", "-c", COLD_START, str(DATA / "c5_one_sided.txt")],
        capture_output=True,
        text=True,
        env=child_env(),
        timeout=60,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout == "[]\nTrue\n"


def test_unexpected_exception_is_internal_error(monkeypatch, capsys):
    def fail(p):
        raise ZeroDivisionError("boom\nsecond line")

    monkeypatch.setattr(higman, "block_size_filter", fail)
    rc, text = run(["bounds", "3"])
    assert rc == 4 and text == ""
    assert capsys.readouterr().err == "error: internal: ZeroDivisionError('boom\\nsecond line')\n"


def test_keyboard_interrupt_propagates(monkeypatch):
    def interrupt(p):
        raise KeyboardInterrupt

    monkeypatch.setattr(higman, "block_size_filter", interrupt)
    with pytest.raises(KeyboardInterrupt):
        run(["bounds", "3"])


def test_memory_error_exits_4_without_traceback():
    # scan 9999950 9999991 needs about 125 MB for its report (every prime up
    # to p at each prime power p in the range): under a 96 MiB address-space
    # cap, set on the child only, it cannot be made
    resource = pytest.importorskip("resource")
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "at4tools.cli", "scan", "9999950", "9999991"],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: internal: MemoryError()\n"


def test_reader_that_closes_stdout_early_is_not_an_error():
    # 4.6 MB of JSON, far more than a pipe holds: the writer meets the
    # closed pipe in the middle of the report
    proc = subprocess.Popen(
        [sys.executable, "-m", "at4tools.cli", "--format", "json", "profile", "2003", "3", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=child_env(),
    )
    try:
        assert proc.stdout.read(20) == b'{\n  "alpha1_fixed_po'
        proc.stdout.close()
        _, stderr = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert proc.returncode == 0
    assert stderr == b""


class CharCount:
    """An output stream that keeps only the number of characters written."""

    def __init__(self):
        self.chars = 0

    def write(self, text):
        self.chars += len(text)


class Tee:
    """An output stream that runs another report from inside its first
    write, as a logging tee that reports its own work might."""

    def __init__(self, argv):
        self.argv = argv
        self.parts = []
        self.inner = None

    def write(self, text):
        if self.inner is None:
            self.inner = run(self.argv)
        self.parts.append(text)


def test_a_report_made_inside_another_reports_write_leaves_both_whole():
    # both reports hold long integer sequences (more than 4096 primes)
    outer = ["--format", "json", "--deterministic", "bounds", "60013"]
    inner = ["--format", "json", "--deterministic", "bounds", "40009"]
    tee = Tee(inner)
    assert cli.main(outer, out=tee) == 0
    assert "".join(tee.parts) == run(outer)[1]
    assert tee.inner == run(inner)


def test_reports_made_in_threads_at_once_stay_whole():
    argvs = [
        ["--format", "json", "--deterministic", "bounds", "60013"],
        ["--format", "json", "--deterministic", "profile", "2003", "3", "7"],
    ] * 2
    expected = [run(argv) for argv in argvs]
    results = [[] for _ in argvs]

    def work(i):
        for _ in range(6):
            results[i].append(run(argvs[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(len(argvs))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
    finally:
        sys.setswitchinterval(interval)
    wrong = sum(got != want for got_list, want in zip(results, expected) for got in got_list)
    assert sum(map(len, results)) == 24 and wrong == 0


@pytest.mark.parametrize("fmt", ["json", "text"])
def test_profile_report_is_written_in_flat_memory(fmt):
    # the alpha_1 class of profile 2003 3 7 has 287,288 integers, 4.6 MB of
    # JSON and 3.4 MB of text; joined whole, the report peaked above 20 MB
    tracemalloc = pytest.importorskip("tracemalloc")
    sink = CharCount()
    argv = ["--format", fmt, "--deterministic", "profile", "2003", "3", "7"]
    tracemalloc.start()
    try:
        rc = cli.main(argv, out=sink)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rc == 0
    assert sink.chars > 3_000_000
    assert peak < 2_000_000, f"{fmt}: peak {peak} B for {sink.chars} characters"


def test_verify_of_a_perfect_matching_runs_in_bounded_memory(tmp_path):
    # 2^16 vertices of valency 1: packed count rows for all of them would
    # take n^2 bits per list, 1 GiB for the two, so connectivity must be
    # refused first; the cap is set on the child only
    resource = pytest.importorskip("resource")
    cap = 1 << 30
    n = 1 << 16
    path = tmp_path / "matching.txt"
    path.write_text(f"n {n}\n" + "".join(f"{v}: {v ^ 1}\n" for v in range(n)))

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    proc = subprocess.run(
        [sys.executable, "-m", "at4tools.cli", "--format", "json", "--deterministic", "verify", str(path)],
        capture_output=True,
        text=True,
        env=child_env(),
        preexec_fn=limit,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["drg"] is None and report["connected"] is False
    assert report["vertices"] == n and report["edges"] == n // 2
