"""The report writers against the standard library.

On random nested report values the JSON writer must print the bytes of
``json.dumps(ref_normalise(x), sort_keys=True, indent=2) + "\\n"`` and the
text writer the lines of ``ref_text(ref_normalise(x))``, where both
references are the plain normalise-then-print route kept here."""

import io
import json
from collections import namedtuple

import pytest
from hypothesis import given, settings, strategies as st

from at4tools import at4, cli
from at4tools.at4 import (
    At4Params,
    IntersectionArray,
    PerP,
    closed_forms,
    feasible_r,
    fundamental_bound_check,
    p_forms,
)
from at4tools.graphcheck import audit_family_graph
from at4tools.higman import centralizer_filter, exclusion_arithmetic
from at4tools.srg import SrgParams, feasibility_basic
from test_golden import CASES, write_inputs


def ref_normalise(value):
    """The arrays of a scan entry to their reports, other tuples and ranges
    to lists."""
    if type(value) is cli._ScanArrays:
        return ref_normalise(value._reports())
    if isinstance(value, (list, tuple, range)):
        return [ref_normalise(v) for v in value]
    if isinstance(value, dict):
        return {k: ref_normalise(v) for k, v in value.items()}
    return value


def ref_text(value, path="", lines=None) -> str:
    """One `path = json` line per leaf of a normalised value; a list of
    scalars is one leaf."""
    if lines is None:
        lines = []
        ref_text(value, path, lines)
        return "\n".join(lines) + "\n"
    if isinstance(value, dict):
        for key in sorted(value):
            ref_text(value[key], f"{path}.{key}" if path else key, lines)
    elif isinstance(value, list) and any(isinstance(v, (dict, list)) for v in value):
        for i, v in enumerate(value):
            ref_text(v, f"{path}.{i}", lines)
    elif isinstance(value, list):
        lines.append(f"{path} = [" + ", ".join(json.dumps(v) for v in value) + "]")
    else:
        lines.append(f"{path} = {json.dumps(value)}")


def emit(value, fmt: str) -> str:
    buf = io.StringIO()
    cli._emit(value, fmt, buf)
    return buf.getvalue()


# str with quotes, backslashes, control characters and non-ASCII text
texts = st.text(st.characters() | st.sampled_from('"\\\x00\x1f\x7f\xe9\u2028\U0001f600'), max_size=6)
ints = st.integers() | st.integers(min_value=-(2**256), max_value=2**256) | st.sampled_from([0, -1, 2**63])
# exact-int lists of 6 to 11 items
int_lists = st.lists(ints, min_size=6, max_size=11)
# an exact-int list but for its last item, a bool, which must print as true or false
bool_last = st.builds(lambda items, last: [*items, last], st.lists(st.integers(-3, 3), max_size=10), st.booleans())
leaves = (
    st.none()
    | st.booleans()
    | ints
    | st.floats()
    | texts
    | st.lists(ints, max_size=6)  # the all-int fast path
    | st.lists(st.booleans() | st.integers(-3, 3), max_size=6)  # bool must not take it
    | st.builds(range, st.integers(-5, 5), st.integers(-5, 30), st.integers(1, 7))
    | int_lists
    | int_lists.map(tuple)
    | bool_last
)
# report keys are str: any text, and keys that hold % and braces
keys = texts | st.sampled_from(["1", "True", "%s", "%", "{0}", "}{", "%%d"])

values = st.recursive(
    leaves,
    lambda children: st.lists(children, max_size=4)
    | st.lists(children, max_size=4).map(tuple)
    | st.dictionaries(keys, children, max_size=4),
    max_leaves=20,
)
reports = st.dictionaries(texts, values, max_size=3)
# dicts of scalars and exact-int lists, nested up to three deep
flat_leaves = st.none() | st.booleans() | ints | texts | st.lists(ints, max_size=11) | int_lists.map(tuple)
flat_dicts = flat_leaves
for _ in range(3):
    flat_dicts = st.dictionaries(keys, flat_leaves | flat_dicts, max_size=4)
# dicts that share one key set, with values whose types and lengths vary, so
# that a layout made for one is offered to the next
slot_values = leaves | st.lists(leaves, max_size=3) | st.dictionaries(keys, leaves, max_size=3) | flat_dicts
same_keys = st.lists(keys, min_size=1, max_size=5, unique=True).flatmap(
    lambda ks: st.lists(st.fixed_dictionaries({k: slot_values for k in ks}), min_size=2, max_size=5)
)
# dicts that share one key set and differ only in the lengths of their int
# lists, nested ones too, so that a layout made for one is offered to the next
int_list_values = st.lists(st.integers(-9, 2**40), max_size=10)
same_keys_other_lengths = st.lists(keys, min_size=1, max_size=4, unique=True).flatmap(
    lambda ks: st.lists(
        st.fixed_dictionaries({k: int_list_values | st.fixed_dictionaries({"in": int_list_values}) for k in ks}),
        min_size=2,
        max_size=6,
    )
)


@settings(max_examples=150, deadline=None)
@given(values)
def test_json_writer_matches_stdlib(value):
    expected = json.dumps(ref_normalise(value), sort_keys=True, indent=2) + "\n"
    assert emit(value, "json") == expected


@settings(max_examples=150, deadline=None)
@given(same_keys)
def test_json_writer_matches_stdlib_on_dicts_of_one_key_set(dicts):
    # both formats share one cached layout per key set
    for value in (dicts, dicts[::-1]):
        expected = json.dumps(ref_normalise(value), sort_keys=True, indent=2) + "\n"
        assert emit(value, "json") == expected
        assert emit({"rows": value}, "text") == ref_text(ref_normalise({"rows": value}))


@settings(max_examples=150, deadline=None)
@given(flat_dicts)
def test_json_writer_matches_stdlib_on_flat_dicts(value):
    # print each at three indents
    for wrapped in (value, [value], {"a": [{"b": value}]}):
        assert emit(wrapped, "json") == json.dumps(ref_normalise(wrapped), sort_keys=True, indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(same_keys_other_lengths)
def test_json_writer_matches_stdlib_on_one_key_set_with_other_list_lengths(dicts):
    for value in (dicts, dicts[::-1], *dicts):
        assert emit(value, "json") == json.dumps(ref_normalise(value), sort_keys=True, indent=2) + "\n"


@settings(max_examples=150, deadline=None)
@given(reports)
def test_text_writer_matches_reference(report):
    assert emit(report, "text") == ref_text(ref_normalise(report))


def test_writers_on_template_characters():
    value = {
        "%s": "%d",
        "%": {"{0}": "}{", "%%": ["%", "{", 1]},
        "{}": None,
        "100%": [{"%(x)s": "%(x)s"}, {"%(x)s": 2}],
    }
    for report in (value, {"nested": [value, value]}):
        assert emit(report, "json") == json.dumps(ref_normalise(report), sort_keys=True, indent=2) + "\n"
        assert emit(report, "text") == ref_text(ref_normalise(report))


def test_writers_on_ranges():
    report = {
        "empty": range(0),
        "reversed_empty": range(5, 0),
        "one": range(7, 8),
        "stepped": range(3, 100, 7),
        "negative": range(-5, 5, 3),
        "nested": [range(2), {"r": range(1, 4)}],
    }
    assert emit(report, "json") == json.dumps(ref_normalise(report), sort_keys=True, indent=2) + "\n"
    assert emit(report, "text") == ref_text(ref_normalise(report))


def test_writers_on_edge_values(gewirtz):
    report = {
        "empty": {"d": {}, "l": [], "t": ()},
        "ints": [2**100, -(2**100), 0],
        "bools": [True, False, 1],
        "quote\"keyé": "tab\tnewline\n \U0001f600",
        "nested": [[1, 2], {"a": None}, (3,)],
        # the reports of the screen, the filters and the audit as they are returned
        "verdict": feasibility_basic(SrgParams(8, 3, 0, 1)),
        "case": centralizer_filter(PerP(3)),
        "nested_cases": exclusion_arithmetic(PerP(6)),
        # the identity passes, the shift is not an automorphism
        "audit": audit_family_graph(gewirtz, 2, [tuple(range(56)), (*range(1, 56), 0)]),
    }
    assert emit(report, "json") == json.dumps(ref_normalise(report), sort_keys=True, indent=2) + "\n"
    assert emit(report, "text") == ref_text(ref_normalise(report))


def assert_writers_match(report):
    assert emit(report, "json") == json.dumps(ref_normalise(report), sort_keys=True, indent=2) + "\n"
    assert emit(report, "text") == ref_text(ref_normalise(report))


SLICE = cli._SLICE
# k * SLICE + 1 items leave one item for the last slice
LENGTHS = (SLICE - 1, SLICE, SLICE + 1, 2 * SLICE, 2 * SLICE + 1, 3 * SLICE, 3 * SLICE + 1, 3 * SLICE + 7)


def test_writers_on_sequences_around_the_slice_length():
    for n in LENGTHS:
        assert_writers_match({
            "list": list(range(-n // 2, n - n // 2)),
            "tuple": tuple(range(0, 3 * n, 3)),
            "range": range(5, 5 + 7 * n, 7),
            "big": [2**70 + i for i in range(n)],
        })


def test_writers_on_two_long_sequences_and_a_nested_one():
    long = range(1, 3 * SLICE + 7)
    assert_writers_match({"a": list(long), "b": "between", "c": long})
    assert_writers_match({
        "rows": [{"ints": list(long), "tag": "x"}, {"ints": [1, 2], "tag": "y"}, {"r": long}],
        "tail": [3, 4],
    })


def test_writers_on_holes_and_template_characters_beside_long_sequences():
    long = list(range(2 * SLICE))
    report = {
        "\x00": long,
        "a\x00b": "c\x00d",
        "%s": ["%", "{", "\x00"],
        "{0}": {"\x00%{": long, "%%": "\x00"},
        "z": ["\x00"] * 3 + long,
    }
    assert_writers_match(report)
    assert_writers_match({"nested": [report, report]})


def test_writers_on_short_runs_beside_long_ones():
    # runs of 0, 1 and 2 ints, each printed whole, between runs written in slices
    long = list(range(-SLICE, 2 * SLICE))
    for short in ([], [7], [-7, 2**70], (), (0,), range(0), range(5, 6), range(5, 3, -1)):
        assert_writers_match({"a": long, "b": short, "c": range(3 * SLICE), "d": [short, long, short]})


def test_writers_on_negative_steps_negative_and_large_ints():
    big = 2**70
    assert_writers_match({
        "down": range(10, -SLICE - 10, -1),
        "down_short": range(3, -9, -4),
        "down_big": range(big + 3 * SLICE, big, -3),
        "negative": [-(2**200), -big, -1, -big - 1],
        "large": [big, 2**100, 10**40, 2**256],
        "long_negative": [-(big + i) for i in range(SLICE + 2)],
    })


def test_writers_on_a_short_list_that_holds_a_bool():
    # the exact-type test sends these past the int printer: true and false,
    # never 1 and 0
    for value in ([True], [1, False], [0, 1, True], (2**70, False), [False] * 3):
        assert_writers_match({"v": value, "nested": [{"w": value}]})


def test_one_run_at_two_indents_uses_two_cached_slots():
    # the same runs at two depths: each JSON separator has its own cached
    # slot, and text has one separator at every depth
    for run in ([4, -5, 2**70], list(range(SLICE + 3)), range(2 * SLICE, 0, -1)):
        report = {"a": run, "b": [run], "c": {"d": run}}
        cli._int_slot.cache_clear()
        assert_writers_match(report)
        # three slots made, and these three separators hit them
        for sep in (",\n    ", ",\n      ", ", "):
            assert cli._int_slot(sep) == b"%d" + sep.encode("ascii")
        info = cli._int_slot.cache_info()
        assert info.misses == info.currsize == 3, info


def test_writers_on_a_long_list_that_holds_a_bool():
    for value in ([True] + list(range(2 * SLICE)), list(range(2 * SLICE)) + [False]):
        assert_writers_match({"v": value})


# values outside the report domain, printed alone, nested, and behind long
# sequences
OUT_OF_DOMAIN = {
    "object": object(),
    "set": {1, 2},
    "frozenset": frozenset({"a"}),
    "int key": {1: "a"},
    "bool key": {True: "a"},
    "tuple key": {(1,): "a"},
    "str and int keys": {"a": 1, 2: "b"},
    "list of a set": [1, {2}],
    "list of a dict and a set": [{"a": 1}, {2}],
    "namedtuple": namedtuple("Pair", "first second")(1, 2),
    "intersection array": IntersectionArray((3, 2), (1, 1)),
    "srg params": SrgParams(10, 3, 0, 1),
    "list of srg params": [1, SrgParams(10, 3, 0, 1)],
}


def test_writers_after_printing_raises_behind_a_long_sequence():
    long = {"a": list(range(2 * SLICE)), "b": range(3 * SLICE)}
    for name, value in OUT_OF_DOMAIN.items():
        for bad in (value, {"v": value}, {**long, "c": value}, {**long, "c": [value]}):
            for fmt in ("json", "text"):
                buf = io.StringIO()
                try:
                    cli._emit(bad, fmt, buf)
                except TypeError:
                    pass
                else:
                    raise AssertionError(f"{name} printed in {fmt}")
                assert buf.getvalue() == "", (name, fmt)
        assert_writers_match({"ok": [1, 2, 3], "long": range(SLICE + 1)})
        assert_writers_match({"ok": [1, 2, 3]})


def test_main_exits_4_and_prints_no_report_that_holds_a_set(monkeypatch, capsys):
    # a set, a key that is not str and a record
    for bad in ({2, 3}, {2: 3}, SrgParams(10, 3, 0, 1)):
        # _cmd_bounds looks _spectrum_fields up at each call
        monkeypatch.setattr(cli, "_spectrum_fields", lambda p: {"edge_stabilizer_primes": bad})
        for fmt in ("json", "text"):
            out = io.StringIO()
            assert cli.main(["--format", fmt, "bounds", "11"], out=out) == cli.EXIT_INTERNAL
            assert out.getvalue() == ""
            err = capsys.readouterr().err
            assert err.startswith("error: internal: TypeError(") and err.count("\n") == 1, err


class Writes:
    """An output stream that keeps the length of the longest write."""

    longest = 0

    def write(self, text):
        self.longest = max(self.longest, len(text))


def test_long_sequences_are_written_in_slices():
    # 40 digits per item: a slice is at most 43 * SLICE characters
    long = [10**39 + i for i in range(10 * SLICE)]
    # the second holds an int beside the long list
    for report in ({"v": long, "r": range(10**39, 10**39 + 10 * SLICE)}, {"v": long, "n": 1}):
        for fmt in ("json", "text"):
            sink = Writes()
            cli._emit(report, fmt, sink)
            assert sink.longest < 48 * SLICE


def cli_report(*argv):
    """The report of ``at4 --deterministic argv`` before it is written."""
    args = cli._build_parser().parse_args(["--deterministic", *argv])
    _, report = args.func(args)
    report["schema"] = cli.SCHEMA
    report["command"] = args.command
    return report


def domain_faults(value, path: str) -> list:
    """The paths in ``value`` that leave the report domain: a key that is not
    str, a tuple subclass other than the arrays of a scan entry (a record),
    or a leaf that is not an exact int, str, bool or None (a set, a
    frozenset, a float)."""
    if type(value) is cli._ScanArrays:
        value = value._reports()
    elif isinstance(value, tuple) and type(value) is not tuple:
        return [f"{path}: {type(value).__name__}"]
    if isinstance(value, dict):
        faults = [f"{path}: key {key!r}" for key in value if type(key) is not str]
        for key, v in value.items():
            faults += domain_faults(v, f"{path}.{key}")
        return faults
    if isinstance(value, (list, tuple)):
        return [fault for i, v in enumerate(value) for fault in domain_faults(v, f"{path}.{i}")]
    if type(value) in (range, int, str, bool, type(None)):
        return []
    return [f"{path}: {type(value).__name__}"]


def benchmark_argvs() -> list:
    """scan-sweep's whole range, and one p of each single-p stratum: prime
    power p with s prime, prime power p, s prime, neither; for profile,
    ell = 7 with and without ell | v, at prime power p and at other p.
    bounds 1319 and profile 1369 274 7 print the two remaining report
    shapes that the benchmark's rounds print."""
    argvs = [["scan", "2", "601"], ["bounds", "1319"], ["profile", "1369", "274", "7"]]
    for p in (1069, 2143, 2107, 2173):
        argvs.append(["bounds", str(p)])
        argvs += [["array", str(p), str(r)] for r in feasible_r(PerP(p))]
    for p in (1129, 1109, 1100, 1105):
        r = feasible_r(PerP(p))[0]
        argvs.append(["profile", str(p), str(r), "7"])
    return argvs


def test_every_report_stays_in_the_report_domain(tmp_path):
    # the benchmark's reports and every golden case; audit at p = 1 alone
    # is refused, with no report
    inputs = write_inputs(tmp_path)
    golden = [[a.format(**inputs) for a in argv] for argv, _ in CASES.values()]
    refused = 0
    for argv in benchmark_argvs() + golden:
        try:
            report = cli_report(*argv)
        except cli._Refusal:
            refused += 1
            continue
        assert domain_faults(report, " ".join(argv)) == []
    assert refused == 1


def test_json_writer_matches_stdlib_on_benchmark_reports():
    for argv in benchmark_argvs():
        report = cli_report(*argv)
        assert emit(report, "json") == json.dumps(ref_normalise(report), sort_keys=True, indent=2) + "\n", argv


def test_scan_arrays_print_as_the_dicts_of_their_reports():
    # The arrays of a scan entry print in JSON from a template made from the
    # report of another array, its per-p slots filled once and its per-r
    # slots once per array, and in text as their own reports: at each p the
    # fills must follow that template's layout.  Four spaces is the indent
    # of an entry's arrays in a scan report (entries, an entry), six that of
    # each array.
    for p in (*range(2, 301), 1000003, 9999991, 1000000004):
        rs = feasible_r(PerP(p))
        # r = p + 1 is feasible at every p: an entry's arrays are never empty
        assert rs[-1] == p + 1
        record = cli._ScanArrays((p_forms(p), rs))
        reports = []
        for r in rs:
            f = closed_forms(At4Params(p, r))
            bound = fundamental_bound_check(f.b[0], f.a[1], f.b[1], f.eigenvalues[1], f.eigenvalues[-1])
            reports.append({"r": r, **cli._array_payload(r, f, bound)})
        expected = json.dumps(reports, sort_keys=True, indent=2)
        for at in ("    ", "      ", "", "  "):
            parts = []
            cli._walk(record, at, parts, False)
            assert "".join(parts) == expected.replace("\n", "\n" + at), (p, at)
        parts = []
        cli._walk(record, "arrays", parts, True)
        assert "".join(parts) == ref_text(ref_normalise(reports), "arrays"), p


def test_array_template_refuses_a_value_computed_from_both_parts(monkeypatch):
    # compose must place each value of the per-p and the per-r part: one it
    # computes from both (here v as v/r + r) prints its marks side by side,
    # so the two-stage fill of the Soicher array misses its report
    compose = at4.compose
    monkeypatch.setattr(at4, "compose", lambda pf, rf: compose(pf, rf)._replace(vertices=pf.antipodal_classes + rf.r))
    with pytest.raises(AssertionError, match="two-stage fill"):
        cli._array_template.__wrapped__("  ")
