"""Byte-identity of deterministic CLI reports against stored golden files.

The files under ``tests/golden/`` are the contract that makes refactoring
safe: every report listed in CASES must keep its exact bytes in both the
JSON and the text format, and its exit code.  Regenerate them only when a
report is meant to change, with ``PYTHONPATH=src python tests/test_golden.py``.
``scan 2 2000`` and ``profile 1409 705 7``, too large to store, are pinned
by the sha256 of their bytes, and so is every ``array`` and ``profile``
report at the candidates with p < 60, and every ``bounds`` report at
p = 2..600: that script leaves the digests as they are.
"""

import hashlib
import io
import pathlib
import tempfile

import pytest

from at4tools import cli, graphcheck

GOLDEN = pathlib.Path(__file__).parent / "golden"
DATA = pathlib.Path(__file__).parent / "data"

# Even p exercise the factor 2 shared by p+2 and s; 7 divides v at p = 23,
# so the profile prints a non-empty fixed-point-free alpha_1 class.
# scan 592 601 is the largest window the scan benchmark runs.  The 4-cube
# is distance-regular of diameter 4, not strongly regular; two disjoint
# triangles are disconnected; an audit at p = 1 is a usage error with nothing
# on stdout.  The cycle C_1024 (diameter 512) and the hypercube Q_10
# (diameter 10) are sparse distance-regular graphs of long diameter.
# tests/data/c5_one_sided.txt lists three edges of C_5 at one end only, so
# verify symmetrizes them and prints a warning for each.
# Graph and permutation arguments in braces name files that write_inputs
# creates.
CASES = {
    "scan_2_60": (["scan", "2", "60"], 0),
    "scan_592_601": (["scan", "592", "601"], 0),
    **{f"bounds_{p}": (["bounds", str(p)], 0) for p in (2, 4, 8, 11, 17, 27)},
    "profile_23_8_7": (["profile", "23", "8", "7"], 0),
    "array_11_4": (["array", "11", "4"], 0),
    "verify_petersen": (["verify", "{petersen}"], 0),
    "verify_gewirtz": (["verify", "{gewirtz}"], 0),
    "verify_prism": (["verify", "{prism}"], 0),
    "verify_cube4": (["verify", "{cube4}"], 0),
    "verify_two_triangles": (["verify", "{triangles}"], 0),
    "verify_cycle1024": (["verify", "{cycle1024}"], 0),
    "verify_cube10": (["verify", "{cube10}"], 0),
    "verify_c5_one_sided": (["verify", "{c5_one_sided}"], 0),
    "audit_gewirtz_findings": (["audit", "{gewirtz}", "{perms}", "2"], 1),
    "audit_p1_usage": (["audit", "{gewirtz}", "{perms}", "1"], 2),
}
FORMATS = {"json": "json", "text": "txt"}
# The golden scans stop at p = 601: scan 2 2000 pins the bytes of large
# arrays, and of the text format at scale.
SCAN_2_2000_SHA256 = {
    "json": "356ffc4a1bea71ca04b882e6e55f221261087d304e262ee90fdb6619c7b2a3cb",
    "text": "02849cd34665865e11645525774c3826746d001ecaab2ea28d2055264822c2d1",
}
# The largest profile the single-p benchmark runs: its alpha_1 class has
# 142,309 ints, printed in 35 slices of at most cli._SLICE.  (length, sha256)
PROFILE_1409_705_7 = {
    "json": (2224885, "7d34ff7b1809dc8365ab55479bc3c82ba8e5a26b60bbd4199f404fbb31cdcbd3"),
    "text": (1653837, "796c54b13547ba49d0ef2d07713aacca0b95ac9e63a00f543402deb9c354d77c"),
}
# The prime orders of the profile sweep, and the sha256 of the exit code
# and stdout of each of its 1,176 reports in turn: array at each of the 196
# candidates (p, r) with p < 60, then profile there at each order.
SWEEP_ORDERS = (2, 3, 5, 7, 11)
SWEEP_SHA256 = {
    "json": "b5aa99ea00e7e7e0b8de60e4694451d16a149164cc3d7dd91220047d8231ef7d",
    "text": "9c3c8b157494cf2785d72f657e4e62544cc6e49742512fa23078d1fb928dbd3b",
}

# The sha256 of the exit code and stdout of bounds at each p = 2..600 in
# turn: the goldens hold six p, and this pins the closed-form spectrum and
# fix_bound fields at every p up to 600.
BOUNDS_SWEEP_SHA256 = {
    "json": "64d9a76e8b057f0c2f490380d7031b1c04359da29e7c5777d60ca0ac221367f7",
    "text": "926b5d7dc13121b4fa39cd7d2b14435cdb0261b00295596fa5820ca50d325bdf",
}


def write_inputs(directory: pathlib.Path) -> dict[str, str]:
    """Write the graph files of the verify and audit cases into directory:
    the Petersen and Gewirtz graphs, the triangular prism (regular but not
    distance-regular), the 4-cube, two disjoint triangles, the cycle C_1024,
    the hypercube Q_10, and four Gewirtz
    automorphisms of which the third has two images swapped.  Return their
    paths by name, with the committed inputs under tests/data."""
    prism = graphcheck.Graph.from_edges(
        6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (0, 3), (1, 4), (2, 5)]
    )
    cube4 = graphcheck.Graph.from_edges(
        16, [(u, u ^ (1 << i)) for u in range(16) for i in range(4) if u < u ^ (1 << i)]
    )
    triangles = graphcheck.Graph.from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
    cycle1024 = graphcheck.Graph.from_edges(1024, [(u, (u + 1) % 1024) for u in range(1024)])
    cube10 = graphcheck.Graph.from_edges(
        1024, [(u, u ^ (1 << i)) for u in range(1024) for i in range(10) if u < u ^ (1 << i)]
    )
    perms = [list(s) for s in graphcheck.gewirtz_automorphisms(4)]
    perms[2][0], perms[2][1] = perms[2][1], perms[2][0]
    texts = {
        "petersen": graphcheck.graph_to_text(graphcheck.generate_petersen()),
        "gewirtz": graphcheck.graph_to_text(graphcheck.generate_gewirtz()),
        "prism": graphcheck.graph_to_text(prism),
        "cube4": graphcheck.graph_to_text(cube4),
        "triangles": graphcheck.graph_to_text(triangles),
        "cycle1024": graphcheck.graph_to_text(cycle1024),
        "cube10": graphcheck.graph_to_text(cube10),
        "perms": graphcheck.permutations_to_text(perms),
    }
    paths = {}
    for name, text in texts.items():
        path = directory / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        paths[name] = str(path)
    paths["c5_one_sided"] = str(DATA / "c5_one_sided.txt")
    return paths


def render(fmt: str, argv: list[str], expected_rc: int) -> str:
    buf = io.StringIO()
    rc = cli.main(["--format", fmt, "--deterministic", *argv], out=buf)
    assert rc == expected_rc
    return buf.getvalue()


@pytest.fixture(scope="module")
def inputs(tmp_path_factory):
    return write_inputs(tmp_path_factory.mktemp("golden-inputs"))


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, fmt, inputs):
    argv, expected_rc = CASES[name]
    expected = (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    assert render(fmt, [a.format(**inputs) for a in argv], expected_rc) == expected


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_scan_2_2000_digest(fmt):
    report = render(fmt, ["scan", "2", "2000"], 0)
    assert hashlib.sha256(report.encode("utf-8")).hexdigest() == SCAN_2_2000_SHA256[fmt]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_profile_1409_705_7_digest(fmt):
    report = render(fmt, ["profile", "1409", "705", "7"], 0)
    assert (len(report), hashlib.sha256(report.encode("utf-8")).hexdigest()) == PROFILE_1409_705_7[fmt]


def sweep_pairs() -> list[tuple[int, int]]:
    """The candidates (p, r) with p < 60, by the three existence conditions
    read off their statement: 2 < r < p + 2, r | 2(p+1) and 2p(p+1)(p+2)/r
    even."""
    return [
        (p, r)
        for p in range(2, 60)
        for r in range(3, p + 2)
        if 2 * (p + 1) % r == 0 and 2 * p * (p + 1) * (p + 2) // r % 2 == 0
    ]


def sweep_digest(fmt: str, argvs) -> str:
    """The sha256 of the exit code and stdout of each report of ``argvs``
    in turn."""
    digest = hashlib.sha256()
    for argv in argvs:
        buf = io.StringIO()
        rc = cli.main(["--format", fmt, "--deterministic", *map(str, argv)], out=buf)
        digest.update(b"%d\n" % rc)
        digest.update(buf.getvalue().encode("utf-8"))
    return digest.hexdigest()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_array_and_profile_sweep_digest(fmt):
    pairs = sweep_pairs()
    assert len(pairs) == 196
    argvs = [
        argv
        for p, r in pairs
        for argv in (["array", p, r], *(["profile", p, r, ell] for ell in SWEEP_ORDERS))
    ]
    assert sweep_digest(fmt, argvs) == SWEEP_SHA256[fmt]


@pytest.mark.parametrize("fmt", sorted(FORMATS))
def test_bounds_sweep_digest(fmt):
    assert sweep_digest(fmt, (["bounds", p] for p in range(2, 601))) == BOUNDS_SWEEP_SHA256[fmt]


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_inputs(pathlib.Path(tmp))
        for name, (argv, expected_rc) in CASES.items():
            args = [a.format(**paths) for a in argv]
            for fmt, ext in FORMATS.items():
                (GOLDEN / f"{name}.{ext}").write_text(
                    render(fmt, args, expected_rc), encoding="utf-8"
                )
