"""Command line front end: deterministic text or JSON reports.

Subcommands: scan, array, profile, bounds, verify, audit.  Reports are
byte-identical for identical inputs; wall-clock timing is attached in a
separate optional field and suppressed entirely under --deterministic.

A report holds dicts with str keys, lists, tuples, ranges, the arrays of
scan entries, and int, str, bool, None or float leaves, each of exactly
that type; any other value (a set, a record, a key that is not str)
raises TypeError before the first write.  Both formats are printed by one
traversal of the report, ``_walk``: JSON as ``json.dumps(report,
sort_keys=True, indent=2)`` prints it, text as one ``path = value`` line
per leaf.  A scan entry keeps its arrays as one record, the per-p part of
their closed forms and the feasible r, not as dicts.  In JSON the record
prints from one bytes template per indent: its per-p slots are filled
once per entry, and its per-r slots once per r, from the per-r part of
the closed forms.  The walk reads that template, and which slots are per
r, off the report of the Soicher array composed of marks, and checks that
the two-stage fill prints that report's bytes.  In text each array prints
as its report.  A run of exact ints (a list or tuple of exact ints, or
a range) prints, in both formats, through one kernel, ``_ints``: it keeps
one bytes slot, ``%d`` and the separator, per separator, repeats it once
per int into a template, cuts the last separator, fills the template and
decodes it.  A run of more than _SLICE ints stays in the parts as a
(separator, run) pair, which ``_emit`` prints _SLICE items at a time with
the same kernel.  Every other value prints value by value.

Only ``verify`` and ``audit`` need the graph module: they import
``at4tools.graphcheck`` at first use, so the other commands start without it.

Exit codes: 0 success, 1 audit or constraint failure findings, 2 usage
error, 3 input error, 4 internal error (an unexpected exception).  Each
``_cmd_*`` function returns its exit code and report body, or raises
``_Refusal`` with exit 2 or 3 and a message.  ``main`` alone adds the
``schema``, ``command`` and ``timing_ms`` fields, writes the report, and
prints every ``error: ...`` line, one per failed call, to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys
import time
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter

from . import at4, higman
from .exactnum import is_prime
from .srg import (
    clique_bound,
    feasibility_basic,
    fixed_point_order_bound,
    local_family_params,
    srg_spectrum,
)

SCHEMA = "at4.report/1"

EXIT_OK = 0
EXIT_FINDINGS = 1
EXIT_USAGE = 2
EXIT_INPUT = 3
EXIT_INTERNAL = 4

# The report at a prime power p lists every prime up to p; above this p that
# list outgrows bounded time and memory, so such p are refused as usage errors.
MAX_LISTED_P = 10**7


class _Refusal(Exception):
    """``_Refusal(code, message)``: a command refuses its input; main prints
    ``error: message`` and exits with ``code`` (EXIT_USAGE or EXIT_INPUT)."""


def _usage(make, *args):
    """``make(*args)``, or a usage refusal with the ValueError it raises."""
    try:
        return make(*args)
    except ValueError as exc:
        raise _Refusal(EXIT_USAGE, str(exc)) from None


def _listable(rec: at4.PerP) -> at4.PerP:
    """The record, or a usage refusal if its report would list too many primes."""
    if rec.p > MAX_LISTED_P and rec.base:
        message = f"p = {rec.p} is a prime power above {MAX_LISTED_P}: its report would list every prime up to p"
        raise _Refusal(EXIT_USAGE, message)
    return rec


_SEQUENCES = (list, tuple, range)
_CONTAINERS = (dict, *_SEQUENCES)
_INTS = frozenset({int})
_NAMED = {True: "true", False: "false", None: "null"}.__getitem__


class _Slot(str):
    """A leaf that prints as itself: the mark that stands for an int of
    the closed forms while ``_array_template`` reads off its slots."""


# the printers of the exact scalar types
_SCALARS = {int: repr, str: encode_basestring_ascii, bool: _NAMED, type(None): _NAMED, float: json.dumps, _Slot: str}
# The most ints ``_ints`` prints at once: an exact-int list or tuple, or a
# range, longer than this is written to ``out`` in slices of this many items.
_SLICE = 4096


@functools.lru_cache(maxsize=1024)
def _layout(keys: tuple) -> tuple:
    """How a dict whose str keys are ``keys`` in the dict's order prints:
    its keys sorted, and each key's JSON head ``"key": ``."""
    names = (*sorted(keys),)
    return names, (*(encode_basestring_ascii(key) + ": " for key in names),)


@functools.lru_cache(maxsize=64)
def _brackets(indent: str) -> tuple:
    """The indent of the items of a JSON list at ``indent``, and the text
    before, between and after them."""
    inner = indent + "  "
    return inner, "[\n" + inner, ",\n" + inner, "\n" + indent + "]"


def _walk(value, at: str, parts: list, text: bool, lead: str = "") -> None:
    """Append the report value ``value`` to ``parts``.  In text, ``at`` is
    the path of ``value`` and each leaf is one ``path = json`` line; in
    JSON, ``at`` is the indent, ``lead`` the text that goes before
    ``value``, and ``value`` prints as ``json.dumps(value, sort_keys=True,
    indent=2)`` does after the arrays of scan entries become the lists of
    their reports and other tuples and ranges lists.  Values are told apart by their exact type:
    any type out of the report domain, a record or a set among them,
    raises TypeError, and so does a key that is not str, in
    ``encode_basestring_ascii``.  A run of exact ints prints with ``_ints``:
    a run of at most _SLICE items in its str part, a longer one as a
    (sep, run) part that ``_emit`` prints.  Every other part is a str."""
    kind = type(value)
    printer = _SCALARS.get(kind)
    if printer is not None:
        parts.append(f"{at} = {printer(value)}\n" if text else lead + printer(value))
        return
    if kind is _ScanArrays:
        if not text:
            parts.append(lead + value._json(at))
            return
        value, kind = value._reports(), list
    if kind in _SEQUENCES:
        if text:
            head, sep, tail = at + " = [", ", ", "]\n"
        elif value:
            inner, head, sep, tail = _brackets(at)
            head = lead + head
        else:
            parts.append(lead + "[]")
            return
        # exact types: bool is an int subclass that prints as true/false
        if kind is range or _INTS.issuperset(map(type, value)):
            if len(value) > _SLICE:
                parts += (head, (sep, value), tail)
            else:
                parts.append(head + _ints(sep, value) + tail)
        elif not any(isinstance(v, _CONTAINERS) for v in value):
            parts.append(head + sep.join(map(_scalar, value)) + tail)
        elif text:
            for i, v in enumerate(value):
                _walk(v, f"{at}.{i}", parts, True)
        else:
            for v in value:
                _walk(v, inner, parts, False, head)
                head = sep
            parts.append(tail)
        return
    if kind is not dict:
        raise TypeError(f"{kind.__name__} is not a report value")
    names, heads = _layout((*value,))
    if text:
        for name in names:
            _walk(value[name], f"{at}.{name}" if at else name, parts, True)
        return
    if not names:
        parts.append(lead + "{}")
        return
    inner = at + "  "
    lead, sep = lead + "{\n" + inner, ",\n" + inner
    for name, head in zip(names, heads):
        v = value[name]
        printer = _SCALARS.get(type(v))
        if printer is None:
            _walk(v, inner, parts, False, lead + head)
        else:
            parts.append(lead + head + printer(v))
        lead = sep
    parts.append("\n" + at + "}")


@functools.lru_cache(maxsize=64)
def _int_slot(sep: str) -> bytes:
    """A ``%d`` slot followed by ``sep``: the unit of the bytes templates
    of ``_ints``."""
    return b"%d" + sep.encode("ascii")


def _ints(sep: str, run) -> str:
    """The exact ints of ``run``, at most _SLICE of them, printed with
    ``sep`` between them: one slot of ``sep`` per int, the last ``sep`` cut,
    filled and decoded.  The one printer of runs of ints, in both formats."""
    return ((_int_slot(sep) * len(run))[: -len(sep)] % tuple(run)).decode("ascii")


def _scalar(value) -> str:
    """A leaf printed as JSON."""
    printer = _SCALARS.get(type(value))
    if printer is None:
        raise TypeError(f"{type(value).__name__} is not a report value")
    return printer(value)


def _emit(report: dict, fmt: str, out) -> None:
    """Write ``report`` to ``out`` as JSON or as text lines.  All parts are
    made before the first write; str parts are written joined, _SLICE at a
    time, and each (sep, run) part as one ``_ints`` string per slice of
    _SLICE items, with ``sep`` between slices."""
    parts: list = []
    _walk(report, "", parts, fmt == "text")
    # a text report with no leaf is one empty line
    if fmt == "json" or not parts:
        parts.append("\n")
    for kind, group in groupby(parts, type):
        if kind is str:
            while run := [*islice(group, _SLICE)]:
                out.write("".join(run))
        else:
            for sep, seq in group:
                for i in range(0, len(seq), _SLICE):
                    if i:
                        out.write(sep)
                    out.write(_ints(sep, seq[i : i + _SLICE]))


def _array_payload(r: int, f: at4.ClosedForms, bound: str) -> dict:
    """The report of the array of (p, r) from its closed forms ``f`` and
    the fundamental bound check ``bound`` of p."""
    return {
        "b": f.b,
        "c": f.c,
        "a": f.a,
        "layer_sizes": f.layer_sizes,
        "vertices": f.vertices,
        "antipodal_classes": f.antipodal_classes,
        # b_i = c_{4-i} and 1 + b_2/c_2 = r hold by the closed forms; the
        # report/1 schema gives the recovered r as a string
        "antipodal": True,
        "recovered_r": str(r),
        "kernel_order_divides": r,
        "triple_constant": f.triple_constant,
        "eigenvalues": f.eigenvalues,
        "fundamental_bound": bound,
        "second_subconstituent": {"b": f.sub_b, "c": f.sub_c},
    }


def _fundamental_bound(pf: at4.PForms) -> str:
    """The fundamental bound check of every array at p, from the per-p part
    ``pf`` of its closed forms: b_0, a_1, b_1, theta_1 = s and theta_4."""
    return at4.fundamental_bound_check(pf.b0, pf.a1, pf.b1, pf.s, pf.theta4)


def _scan_array(pf: at4.PForms, rf: at4.RForms, bound: str) -> dict:
    """The report of one array of a scan: ``r`` and the array's report."""
    return {"r": rf.r, **_array_payload(rf.r, at4.compose(pf, rf), bound)}


class _ScanArrays(tuple):
    """The arrays of one p in a scan report: the tuple (pf, rs) of the
    per-p part ``pf`` of the closed forms at p and the feasible r, never
    empty (r = p + 1 is feasible at every p).  Its report is the list of
    ``_scan_array`` of each r, which ``_reports`` gives and the text format
    prints; the JSON writer prints it with ``_json``."""

    # Held until the report is written, a record per p takes less memory
    # than a tuple of closed forms per array: `scan 2 4000` as JSON peaks
    # at 86 MB against 128 MB, and a 10-s scan-sweep run at 22.2 MB, as
    # with the tuples (2-vCPU x86-64 host, Python 3.11).
    __slots__ = ()

    def _reports(self) -> list:
        pf, rs = self
        bound = _fundamental_bound(pf)
        return [_scan_array(pf, at4.r_forms(pf, r), bound) for r in rs]

    def _json(self, at: str) -> str:
        """The JSON list of the arrays at indent ``at``: the per-p slots of
        ``_array_template`` filled once, then its per-r slots once per r."""
        pf, rs = self
        inner, head, sep, tail = _brackets(at)
        template, p_slots, r_slots = _array_template(inner)
        per_r = template % p_slots((*pf, _fundamental_bound(pf).encode("ascii")))
        arrays = sep.encode("ascii").join([per_r % r_slots(at4.r_forms(pf, r)) for r in rs])
        return head + arrays.decode("ascii") + tail


@functools.lru_cache(maxsize=64)
def _array_template(at: str) -> tuple:
    """The bytes JSON template of a scan array at indent ``at`` and the
    getters of its slot values, both read off the walk's JSON of the report
    of the Soicher array, (p, r) = (2, 3).

    The report is built from the closed forms composed of marks: each value
    of the per-p part and the bound check is a p slot, ``%d`` for an int
    and ``%s`` for the bound's bytes; each value of the per-r part an r
    slot, ``%%d``, which the p fill leaves as ``%d``.  ``p_slots`` takes
    the per-p part followed by the bound's bytes, ``r_slots`` the per-r
    part, each to the tuple of its slots' values in the template's order.
    Filled in these two stages, the template must print the Soicher
    array's report as the walk prints it."""
    pf = at4.p_forms(2)
    rf = at4.r_forms(pf, 3)
    p_values = (*pf, _fundamental_bound(pf).encode("ascii"))
    marks = at4.PForms(*(_Slot(f"<p{i}>") for i in range(len(pf))))
    # a str value: it prints quoted, as the bound does
    bound = f"<p{len(pf)}>"
    r_marks = at4.RForms(*(_Slot(f"<r{i}>") for i in range(len(rf))))
    marked: list = []
    _walk(_scan_array(marks, r_marks, bound), at, marked, False)
    p_order, r_order = [], []

    def slot(mark) -> str:
        i = int(mark[2])
        if mark[1] == "r":
            r_order.append(i)
            return "%%d"
        p_order.append(i)
        return "%d" if type(p_values[i]) is int else "%s"

    template = re.sub(r"<([pr])(\d+)>", slot, "".join(marked)).encode("ascii")
    p_slots, r_slots = itemgetter(*p_order), itemgetter(*r_order)
    expected: list = []
    _walk(_scan_array(pf, rf, _fundamental_bound(pf)), at, expected, False)
    filled = (template % p_slots(p_values) % r_slots(rf)).decode("ascii")
    assert filled == "".join(expected), "a scan array's two-stage fill does not print its report"
    return template, p_slots, r_slots


def _spectrum_fields(rec: at4.PerP) -> dict:
    """The edge-stabiliser primes and the spectrum sandwich at the record's
    p, each "inapplicable" when p is not a prime power above 2."""
    bounds = higman.spectrum_bounds(rec)
    if bounds is None:
        return dict.fromkeys(("edge_stabilizer_primes", "spectrum_lower", "spectrum_upper"), "inapplicable")
    lower, edge, above = bounds
    return {"edge_stabilizer_primes": edge, "spectrum_lower": lower, "spectrum_upper": edge + above}


def _scan_entry(rec: at4.PerP) -> dict:
    p = rec.p
    rs = at4.feasible_r(rec)
    local = local_family_params(p)
    entry: dict = {
        "p": p,
        "prime_power": rec.base,
        "q": rec.q,
        "q_prime": rec.q_prime,
        "s": rec.s,
        "s_prime": rec.s_prime,
        "feasible_r": [*rs],
        "local_srg": list(local),
        "local_fix_bound": fixed_point_order_bound(local),
        "clique_bound": clique_bound(p),
        "arrays": _ScanArrays((at4.p_forms(p), rs)),
        **_spectrum_fields(rec),
    }
    cf = higman.centralizer_filter(rec)
    entry["centralizer_filter"] = cf if cf["verdict"] != higman.INAPPLICABLE else "inapplicable"
    return entry


def _cmd_scan(args) -> tuple[int, dict]:
    if args.p_min < 2 or args.p_min > args.p_max:
        raise _Refusal(EXIT_USAGE, f"bad range {args.p_min}..{args.p_max} (need 2 <= p_min <= p_max)")
    # the records past MAX_LISTED_P first: a refusal comes before any entry
    ahead = [*map(_listable, at4.records(max(args.p_min, MAX_LISTED_P + 1), args.p_max))]
    entries = [*map(_scan_entry, at4.records(args.p_min, min(args.p_max, MAX_LISTED_P))), *map(_scan_entry, ahead)]
    return EXIT_OK, {"inputs": {"p_min": args.p_min, "p_max": args.p_max}, "entries": entries}


def _cmd_array(args) -> tuple[int, dict]:
    params = _usage(at4.At4Params, args.p, args.r)
    pf = at4.p_forms(params.p)
    report = _array_payload(params.r, at4.compose(pf, at4.r_forms(pf, params.r)), _fundamental_bound(pf))
    report["inputs"] = {"p": args.p, "r": args.r}
    report["quotient_srg"] = list(at4.quotient_params(args.p))
    report["second_subconstituent_quotient_srg"] = list(at4.second_subconstituent_quotient(args.p))
    return EXIT_OK, report


def _cmd_profile(args) -> tuple[int, dict]:
    _usage(at4.At4Params, args.p, args.r)
    if not is_prime(args.ell):
        raise _Refusal(EXIT_USAGE, f"order {args.ell} is not prime")
    p, r, ell = args.p, args.r, args.ell
    rec = at4.PerP(p)
    classification = higman.cover_order_classification(rec, r)
    report = {
        "inputs": {"p": p, "r": r, "ell": ell},
        "cover_congruences": list(higman.cover_congruences(p, r, ell)),
        "subconstituent_congruences": list(higman.subconstituent_congruences(p, r, ell)),
        "alpha1_fixed_point_free": (
            higman.alpha1_candidates(p, ell, 0) if p > 2 else "inapplicable"
        ),
        "cover_fix_bound": higman.cover_fix_bound(p, r),
        "local_fix_bound": fixed_point_order_bound(local_family_params(p)),
        "order_classification": (
            classification
            if classification["verdict"] != higman.INAPPLICABLE
            else "inapplicable"
        ),
    }
    if classification["verdict"] != higman.INAPPLICABLE:
        report["order_admissible_with_fixed_points"] = (
            ell in classification["data"]["fixed_point_orders"]
        )
        report["order_admissible_fixed_point_free"] = (
            ell in classification["data"]["fixed_point_free_orders"]
        )
        report["local_fixed_structure"] = higman.local_fixed_structure(rec, ell)
    return EXIT_OK, report


def _cmd_bounds(args) -> tuple[int, dict]:
    p = args.p
    rec = _listable(_usage(at4.PerP, p))
    params = local_family_params(p)
    spec = srg_spectrum(params)
    report = {
        "inputs": {"p": p},
        "local_srg": list(params),
        "spectrum": {
            "k": spec.k,
            "theta_pos": spec.theta_pos,
            "m_pos": spec.m_pos,
            "theta_neg": spec.theta_neg,
            "m_neg": spec.m_neg,
        },
        "feasibility": feasibility_basic(params),
        "clique_bound": clique_bound(p),
        "fix_bound": fixed_point_order_bound(params),
        "block_sizes": list(higman.block_size_filter(rec)),
        **_spectrum_fields(rec),
        "exclusion": higman.exclusion_arithmetic(rec) if p > 2 else "inapplicable",
    }
    return EXIT_OK, report


def _read(path: str) -> str:
    """The text of an input file, or an input refusal if it cannot be read
    or is not UTF-8."""
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise _Refusal(EXIT_INPUT, f"{path}: not UTF-8 text: {exc.reason} at byte {exc.start}") from None
    except OSError as exc:
        raise _Refusal(EXIT_INPUT, str(exc)) from None


def _parse(parse, *args):
    """``parse(*args)``, or an input refusal for the GraphError it raises."""
    from . import graphcheck

    try:
        return parse(*args)
    except graphcheck.GraphError as exc:
        raise _Refusal(EXIT_INPUT, str(exc)) from None


def _cmd_verify(args) -> tuple[int, dict]:
    from . import graphcheck

    g, warnings = _parse(graphcheck.parse_graph, _read(args.graph))
    drg = graphcheck.verify_drg(g)
    srg_params = graphcheck.srg_of_array(g.n, drg)
    report = {
        "inputs": {"graph": os.path.basename(args.graph)},
        "vertices": g.n,
        "edges": g.edge_count(),
        "connected": drg is not None or g.is_connected(),
        "warnings": list(warnings),
        "srg": list(srg_params) if srg_params else None,
        "drg": {"b": list(drg.b), "c": list(drg.c)} if drg else None,
    }
    return EXIT_OK, report


def _cmd_audit(args) -> tuple[int, dict]:
    if args.p < 2:
        raise _Refusal(EXIT_USAGE, f"p must be >= 2, got {args.p}")
    from . import graphcheck

    # both files are read before either is parsed: a read error comes first
    graph_text, perm_text = _read(args.graph), _read(args.perms)
    g, _ = _parse(graphcheck.parse_graph, graph_text)
    sigmas = _parse(graphcheck.parse_permutations, perm_text, g.n)
    inputs = {"graph": os.path.basename(args.graph), "p": args.p}
    try:
        audit = graphcheck.audit_family_graph(g, args.p, sigmas)
    except graphcheck.GraphError as exc:
        return EXIT_FINDINGS, {"inputs": inputs, "error": str(exc)}
    inputs["perms"] = os.path.basename(args.perms)
    return (EXIT_FINDINGS if audit["failures"] else EXIT_OK), {"inputs": inputs, **audit}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built at first use and shared by later calls:
    parse_args leaves it unchanged and returns a new namespace each time."""
    parser = argparse.ArgumentParser(
        prog="at4",
        description="Feasibility and automorphism-constraint reports for "
        "antipodal tight diameter-4 graph candidates with q = p + 2.",
    )
    parser.add_argument("--format", choices=("text", "json"), default="text")
    parser.add_argument("--deterministic", action="store_true", help="omit timing for reproducible output")
    sub = parser.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="feasibility scan over a p range")
    p_scan.add_argument("p_min", type=int)
    p_scan.add_argument("p_max", type=int)
    p_scan.set_defaults(func=_cmd_scan)

    p_array = sub.add_parser("array", help="intersection array and derived data for (p, r)")
    p_array.add_argument("p", type=int)
    p_array.add_argument("r", type=int)
    p_array.set_defaults(func=_cmd_array)

    p_profile = sub.add_parser("profile", help="congruence profile for (p, r) and a prime order")
    p_profile.add_argument("p", type=int)
    p_profile.add_argument("r", type=int)
    p_profile.add_argument("ell", type=int)
    p_profile.set_defaults(func=_cmd_profile)

    p_bounds = sub.add_parser("bounds", help="spectrum and fixed-point bounds at p")
    p_bounds.add_argument("p", type=int)
    p_bounds.set_defaults(func=_cmd_bounds)

    p_verify = sub.add_parser("verify", help="SRG/DRG verification of a graph file")
    p_verify.add_argument("graph")
    p_verify.set_defaults(func=_cmd_verify)

    p_audit = sub.add_parser("audit", help="audit automorphism profiles of a family graph")
    p_audit.add_argument("graph")
    p_audit.add_argument("perms")
    p_audit.add_argument("p", type=int)
    p_audit.set_defaults(func=_cmd_audit)
    return parser


def main(argv=None, out=None) -> int:
    """Run one command, write its report to ``out`` (stdout by default) and
    return its exit code.  This is the one place that adds the report
    header and timing and prints an ``error: ...`` line to stderr: for a
    refusal, with its code, or for an unexpected exception, with exit 4."""
    out = out if out is not None else sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    start = time.perf_counter()
    try:
        code, report = args.func(args)
        # the writer sorts keys, so the header can go in last
        report["schema"] = SCHEMA
        report["command"] = args.command
        if not args.deterministic:
            report["timing_ms"] = round((time.perf_counter() - start) * 1000, 3)
        _emit(report, args.format, out)
        return code
    except _Refusal as exc:
        code, message = exc.args
        print(f"error: {message}", file=sys.stderr)
        return code
    except BrokenPipeError:
        # the reader closed stdout early, as `| head` does: not an error;
        # stdout goes to devnull so that the flush at exit stays silent
        if out is sys.stdout:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return EXIT_OK
    except Exception as exc:
        # exit 1 means findings only; anything unexpected gets its own code
        print(f"error: internal: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
