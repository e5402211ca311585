"""The benchmark's own tests: the checks accept real reports and catch a
report with one corrupted field.

    python3 -m pytest bench -q
"""

from __future__ import annotations

import io
import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks  # noqa: E402
import workloads  # noqa: E402
from at4tools import cli, graphcheck  # noqa: E402


def run(op: dict) -> tuple[int, str]:
    buf = io.StringIO()
    return cli.main(op["argv"], out=buf), buf.getvalue()


def corrupt(text: str, edit) -> str:
    report = json.loads(text)
    edit(report)
    return json.dumps(report)


def _set(path, value):
    def edit(report):
        node = report
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value

    return edit


def _drop_last(path):
    def edit(report):
        node = report
        for key in path:
            node = node[key]
        node.pop()

    return edit


REPORT_CASES = {
    "scan spectrum_upper": (workloads.make_op("scan", (10, 12)), _drop_last(["entries", 1, "spectrum_upper"])),
    "scan eigenvalue": (workloads.make_op("scan", (10, 12)), _set(["entries", 0, "arrays", 0, "eigenvalues", 1], 0)),
    "scan feasible_r": (workloads.make_op("scan", (10, 12)), _drop_last(["entries", 1, "feasible_r"])),
    "scan centralizer": (
        workloads.make_op("scan", (3, 3)),
        _set(["entries", 0, "centralizer_filter", "data", "alpha1_admissible_orders"], []),
    ),
    "bounds block_sizes": (workloads.make_op("bounds", (11,), p=11), _drop_last(["block_sizes"])),
    "bounds s_prime": (workloads.make_op("bounds", (11,), p=11), _set(["exclusion", "data", "s_prime"], False)),
    "profile alpha1 list": (
        workloads.make_op("profile", (11, 4, 13), p=11, r=4, ell=13),
        _drop_last(["alpha1_fixed_point_free"]),
    ),
    "profile congruence": (
        workloads.make_op("profile", (11, 4, 13), p=11, r=4, ell=13),
        _set(["cover_congruences", 0], 1),
    ),
    "array fundamental bound": (workloads.make_op("array", (2, 3), p=2, r=3), _set(["fundamental_bound"], "strict")),
    "array quotient": (workloads.make_op("array", (5, 3), p=5, r=3), _set(["quotient_srg", 2], 11)),
}


@pytest.mark.parametrize("name", sorted(REPORT_CASES))
def test_number_theory_reports(name):
    op, edit = REPORT_CASES[name]
    rc, text = run(op)
    assert checks.check(op, rc, text) == []
    assert checks.check(op, rc, corrupt(text, edit))


def _graph_file(tmp_path, name, n, edges):
    path = tmp_path / f"{name}.txt"
    path.write_text(graphcheck.graph_to_text(graphcheck.Graph.from_edges(n, edges)))
    return str(path)


def _verify(path, **meta):
    return workloads.make_op("verify", (path,), **meta)


def test_verify_reports(tmp_path):
    hamming = _verify(_graph_file(tmp_path, "h", *workloads.hamming_edges(2, 5)), graph="hamming", d=2, q=5)
    johnson = _verify(_graph_file(tmp_path, "j", *workloads.johnson_edges(7, 3)), graph="johnson", n=7, k=3)
    g = graphcheck.generate_petersen()
    petersen = _verify(_graph_file(tmp_path, "p", g.n, workloads.edge_list(g)), graph="petersen")
    for op, edit in (
        (hamming, _set(["srg", 3], 1)),
        (johnson, _set(["drg", "c", 1], 3)),
        (petersen, _set(["drg"], None)),
        (petersen, _set(["edges"], 16)),
    ):
        rc, text = run(op)
        assert checks.check(op, rc, text) == []
        assert checks.check(op, rc, corrupt(text, edit))


def test_oversize_header_must_be_an_input_error(tmp_path):
    path = tmp_path / "big.txt"
    path.write_text(workloads.OVERSIZE_HEADER)
    op = _verify(str(path), graph="oversize")
    assert checks.check(op, 3, "") == []
    assert checks.check(op, 0, "{}")


def test_audit_reports(tmp_path):
    g = graphcheck.generate_gewirtz()
    gewirtz = _graph_file(tmp_path, "g", g.n, workloads.edge_list(g))
    perms = [list(p) for p in graphcheck.gewirtz_automorphisms(40)[-6:]]
    perms[2][0], perms[2][1] = perms[2][1], perms[2][0]
    (tmp_path / "clean.txt").write_text(graphcheck.permutations_to_text(perms[3:]))
    (tmp_path / "bad.txt").write_text(graphcheck.permutations_to_text(perms))
    clean = workloads.make_op("audit", (gewirtz, tmp_path / "clean.txt", 2), p=2, corrupted=None)
    bad = workloads.make_op("audit", (gewirtz, tmp_path / "bad.txt", 2), p=2, corrupted=2)
    for op, edit in (
        (clean, _set(["passed"], 2)),
        (clean, _set(["orders", 1], 1)),
        (bad, _set(["failures"], [])),
    ):
        rc, text = run(op)
        assert checks.check(op, rc, text) == []
        assert checks.check(op, rc, corrupt(text, edit))


def test_seed_changes_no_work(tmp_path):
    def work(seed):
        ops, _ = workloads.build("single-p", seed, tmp_path)
        return sorted((op["kind"], op["meta"]["p"]) for op in ops)

    assert work(1) == work(2)
    ops, _ = workloads.build("graph-check", 3, tmp_path)
    assert sum(op["meta"].get("corrupted") is not None for op in ops) == 1
    assert sum(op["meta"].get("graph") == "oversize" for op in ops) == 1
