"""Byte-identity of deterministic CLI reports against stored golden files.

The files under ``tests/golden/`` are the contract that makes refactoring
safe: every report listed in CASES must keep its exact bytes in both the
JSON and the text format.  Regenerate them only when a report is meant to
change, with ``PYTHONPATH=src python tests/test_golden.py``.
"""

import io
import pathlib

import pytest

from at4tools import cli

GOLDEN = pathlib.Path(__file__).parent / "golden"

# Even p exercise the factor 2 shared by p+2 and s; 7 divides v at p = 23,
# so the profile prints a non-empty fixed-point-free alpha_1 class.
CASES = {
    "scan_2_60": ["scan", "2", "60"],
    **{f"bounds_{p}": ["bounds", str(p)] for p in (2, 4, 8, 11, 17, 27)},
    "profile_23_8_7": ["profile", "23", "8", "7"],
    "array_11_4": ["array", "11", "4"],
}
FORMATS = {"json": "json", "text": "txt"}


def render(fmt: str, argv: list[str]) -> str:
    buf = io.StringIO()
    rc = cli.main(["--format", fmt, "--deterministic", *argv], out=buf)
    assert rc == 0
    return buf.getvalue()


@pytest.mark.parametrize("fmt", sorted(FORMATS))
@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_bytes(name, fmt):
    expected = (GOLDEN / f"{name}.{FORMATS[fmt]}").read_text(encoding="utf-8")
    assert render(fmt, CASES[name]) == expected


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, argv in CASES.items():
        for fmt, ext in FORMATS.items():
            (GOLDEN / f"{name}.{ext}").write_text(render(fmt, argv), encoding="utf-8")
