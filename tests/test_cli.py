import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import at4tools
from at4tools import cli, exactnum, graphcheck, higman


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


@pytest.mark.parametrize(
    "argv", [["bounds", "11"], ["bounds", "27"], ["scan", "11", "11"], ["profile", "11", "3", "7"]]
)
def test_each_report_factorises_p_once(monkeypatch, argv):
    p = int(argv[1])
    calls = []
    factorize = exactnum.factorize

    def counting(n):
        calls.append(n)
        return factorize(n)

    exactnum.prime_power_base.cache_clear()
    monkeypatch.setattr(exactnum, "factorize", counting)
    rc, _ = run(["--deterministic", *argv])
    assert rc == 0 and calls.count(p) == 1


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
def gewirtz_files(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("audit")
    g = graphcheck.generate_gewirtz()
    witnesses = graphcheck.gewirtz_automorphisms(12)
    gpath = tmp / "gewirtz.txt"
    gpath.write_text(graphcheck.graph_to_text(g))
    ppath = tmp / "gens.txt"
    ppath.write_text(graphcheck.permutations_to_text(witnesses))
    return gpath, ppath, witnesses


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


def test_audit_wrong_family(gewirtz_files, tmp_path):
    pet = tmp_path / "petersen.txt"
    pet.write_text(graphcheck.graph_to_text(graphcheck.generate_petersen()))
    perms = tmp_path / "id.txt"
    perms.write_text(" ".join(map(str, range(10))) + "\n")
    rc, rep = run_json(["audit", str(pet), str(perms), "2"])
    assert rc == 1
    assert "error" in rep


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
    # bounds 9999991 needs about 120 MB for its report (every prime up to p):
    # under a 96 MiB address-space cap, set on the child only, it cannot be made
    resource = pytest.importorskip("resource")
    cap = 96 << 20

    def limit():
        resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

    src = str(Path(at4tools.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "at4tools.cli", "bounds", "9999991"],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=60,
    )
    assert proc.returncode == 4
    assert proc.stdout == ""
    assert proc.stderr == "error: internal: MemoryError()\n"


def test_reader_that_closes_stdout_early_is_not_an_error():
    # 4.6 MB of JSON, far more than a pipe holds: the writer meets the
    # closed pipe in the middle of the report
    src = str(Path(at4tools.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.Popen(
        [sys.executable, "-m", "at4tools.cli", "--format", "json", "profile", "2003", "3", "7"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
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

    src = str(Path(at4tools.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run(
        [sys.executable, "-m", "at4tools.cli", "--format", "json", "--deterministic", "verify", str(path)],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=limit,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout)
    assert report["drg"] is None and report["connected"] is False
    assert report["vertices"] == n and report["edges"] == n // 2
