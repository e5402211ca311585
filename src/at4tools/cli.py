"""Command line front end: deterministic text or JSON reports.

Subcommands: scan, array, profile, bounds, verify, audit.  Reports are
byte-identical for identical inputs; wall-clock timing is attached in a
separate optional field and suppressed entirely under --deterministic.

A report holds dicts with str keys, lists, tuples, ranges, scan arrays,
and int, str, bool, None or float leaves, each of exactly that type; any
other value (a set, a record, a key that is not str) raises TypeError
before the first write.  Both formats are printed by one traversal of the
report, ``_walk``: JSON as ``json.dumps(report, sort_keys=True, indent=2)``
prints it, text as one ``path = value`` line per leaf.  A scan array is
kept as the tuple of r and its closed forms, not as a dict: in JSON it
prints as one ``template % values``, filled straight from the closed
forms.  The template is the one template of the writer: the walk builds
it once per indent from the report of the Soicher array, with each int
and str made a slot, and checks that its fill prints that report's bytes.
In text a scan array prints as its report; every other value, in both
formats, prints value by value.

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
import sys
import time
from itertools import groupby, islice
from json.encoder import encode_basestring_ascii

from . import at4, higman
from .exactnum import is_prime, prime_power_base
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


def _refuse_too_large(ps) -> None:
    """Refuse ps if the report of some p in it would list too many primes."""
    big = next((p for p in ps if p > MAX_LISTED_P and prime_power_base(p)), None)
    if big is not None:
        message = f"p = {big} is a prime power above {MAX_LISTED_P}: its report would list every prime up to p"
        raise _Refusal(EXIT_USAGE, message)


def _params(p: int, r: int) -> at4.At4Params:
    """The parameters (p, r), or a usage refusal saying why they are invalid."""
    try:
        return at4.At4Params(p, r)
    except ValueError as exc:
        raise _Refusal(EXIT_USAGE, str(exc)) from None


_SEQUENCES = (list, tuple, range)
_CONTAINERS = (dict, *_SEQUENCES)
_INTS = frozenset({int})
_NAMED = {True: "true", False: "false", None: "null"}.__getitem__


class _Slot(str):
    """A leaf that prints as itself: the %d or %s slot that stands for an
    int or a str in ``_array_template``."""


# the printers of the exact scalar types
_SCALARS = {int: repr, str: encode_basestring_ascii, bool: _NAMED, type(None): _NAMED, float: json.dumps, _Slot: str}
# An exact-int list or tuple, or a range, longer than this is written to
# ``out`` in slices of this many items, never joined whole.
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
    indent=2)`` does after scan arrays become their reports and other
    tuples and ranges lists.  Values are told apart by their exact type:
    any type out of the report domain, a record or a set among them,
    raises TypeError, and so does a key that is not str, in
    ``encode_basestring_ascii``.  A part is a str, or a (sep, sequence)
    pair for an exact-int sequence of more than _SLICE items, printed with
    ``sep`` between items."""
    kind = type(value)
    printer = _SCALARS.get(kind)
    if printer is not None:
        parts.append(f"{at} = {printer(value)}\n" if text else lead + printer(value))
        return
    if kind is _ScanArray:
        if not text:
            parts.append(lead + _array_template(at) % value._fill())
            return
        value, kind = value._asdict(), dict
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
                parts.append(head + sep.join(map(repr, value)) + tail)
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


def _scalar(value) -> str:
    """A leaf printed as JSON."""
    printer = _SCALARS.get(type(value))
    if printer is None:
        raise TypeError(f"{type(value).__name__} is not a report value")
    return printer(value)


def _emit(report: dict, fmt: str, out) -> None:
    """Write ``report`` to ``out`` as JSON or as text lines.  All parts are
    made before the first write; str parts are written joined, _SLICE at a
    time, and each long integer sequence in slices of _SLICE items."""
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
                    out.write(sep.join(map(repr, seq[i : i + _SLICE])))


def _array_payload(r: int, f: at4.ClosedForms) -> dict:
    """The report of the array of (p, r) from its closed forms ``f``."""
    return {
        "b": f.b,
        "c": f.c,
        "a": f.a,
        "layer_sizes": f.layer_sizes,
        "vertices": f.vertices,
        "antipodal_classes": f.vertices // r,
        # b_i = c_{4-i} and 1 + b_2/c_2 = r hold by the closed forms; the
        # report/1 schema gives the recovered r as a string
        "antipodal": True,
        "recovered_r": str(r),
        "kernel_order_divides": r,
        "triple_constant": f.triple_constant,
        "eigenvalues": f.eigenvalues,
        "fundamental_bound": _fundamental_bound(f),
        "second_subconstituent": {"b": f.sub_b, "c": f.sub_c},
    }


def _fundamental_bound(f: at4.ClosedForms) -> str:
    """The fundamental bound check of the array of closed forms ``f``."""
    # theta_1 and theta_d: the second largest and the least eigenvalue
    return at4.fundamental_bound_check(f.b[0], f.a[1], f.b[1], f.eigenvalues[1], f.eigenvalues[-1])


class _ScanArray(tuple):
    """The array of (p, r) in a scan report: the tuple (r, f) of r and the
    closed forms ``f`` of (p, r).  Its report is ``{"r": r,
    **_array_payload(r, f)}``, which ``_asdict`` gives and the text format
    prints; the JSON writer prints it as one fill of ``_array_template``."""

    # Held until the report is written, these tuples take less memory than
    # the dicts of lists they replace: `scan 2 4000` as JSON peaks at 127-138
    # MB against 156 MB, and a 30-s scan-sweep run at 22.8-23.2 MB, as with
    # dicts (2-vCPU x86-64 host, Python 3.11).
    __slots__ = ()

    def _asdict(self) -> dict:
        r, f = self
        return {"r": r, **_array_payload(r, f)}

    def _fill(self) -> tuple:
        """The values of the slots of ``_array_template``, in the order of
        its sorted keys: a, antipodal_classes, b, c, eigenvalues,
        fundamental_bound, kernel_order_divides, layer_sizes, r,
        recovered_r, second_subconstituent (b, c), triple_constant and
        vertices; antipodal is true in the template itself."""
        r, f = self
        return (
            *f.a, f.vertices // r, *f.b, *f.c, *f.eigenvalues,
            encode_basestring_ascii(_fundamental_bound(f)), r, *f.layer_sizes, r,
            encode_basestring_ascii(str(r)), *f.sub_b, *f.sub_c, f.triple_constant, f.vertices,
        )


# the array of the Soicher graph, (p, r) = (2, 3): the one whose report gives
# every scan array its template
_SOICHER = _ScanArray((3, at4.closed_forms(at4.At4Params(2, 3))))


def _marked(value):
    """``value`` with each exact int marked as a %d slot and each str as a %s
    slot."""
    kind = type(value)
    if kind is int or kind is str:
        return _Slot("%d" if kind is int else "%s")
    if kind is dict:
        return {key: _marked(v) for key, v in value.items()}
    if kind is list or kind is tuple:
        return [*map(_marked, value)]
    return value


@functools.lru_cache(maxsize=64)
def _array_template(at: str) -> str:
    """The JSON template of a scan array at indent ``at``: the walk's JSON
    of the report of _SOICHER with its ints and str made slots, which must
    print that report when ``_ScanArray._fill`` fills it."""
    report = _SOICHER._asdict()
    marked: list = []
    _walk(_marked(report), at, marked, False)
    expected: list = []
    _walk(report, at, expected, False)
    template = "".join(marked)
    assert template % _SOICHER._fill() == "".join(expected), "a scan array's fill does not print its report"
    return template


def _spectrum_fields(p: int) -> dict:
    """The edge-stabiliser primes and the spectrum sandwich at p, each
    "inapplicable" when p is not a prime power above 2."""
    bounds = higman.spectrum_bounds(p)
    if bounds is None:
        return dict.fromkeys(("edge_stabilizer_primes", "spectrum_lower", "spectrum_upper"), "inapplicable")
    lower, edge, above = bounds
    return {"edge_stabilizer_primes": edge, "spectrum_lower": lower, "spectrum_upper": edge + above}


def _scan_entry(p: int) -> dict:
    q = p + 2
    s = (p + 2) ** 2 - 2
    forms = at4.feasible_closed_forms(p)
    local = local_family_params(p)
    entry: dict = {
        "p": p,
        "prime_power": prime_power_base(p),
        "q": q,
        "q_prime": is_prime(q),
        "s": s,
        "s_prime": is_prime(s),
        "feasible_r": [r for r, _ in forms],
        "local_srg": list(local),
        "local_fix_bound": fixed_point_order_bound(local),
        "clique_bound": clique_bound(p),
        "arrays": [*map(_ScanArray, forms)],
        **_spectrum_fields(p),
    }
    cf = higman.centralizer_filter(p)
    entry["centralizer_filter"] = cf if cf["verdict"] != higman.INAPPLICABLE else "inapplicable"
    return entry


def _cmd_scan(args) -> tuple[int, dict]:
    if args.p_min < 2 or args.p_min > args.p_max:
        raise _Refusal(EXIT_USAGE, f"bad range {args.p_min}..{args.p_max} (need 2 <= p_min <= p_max)")
    ps = range(args.p_min, args.p_max + 1)
    _refuse_too_large(ps)
    entries = [_scan_entry(p) for p in ps]
    return EXIT_OK, {"inputs": {"p_min": args.p_min, "p_max": args.p_max}, "entries": entries}


def _cmd_array(args) -> tuple[int, dict]:
    report = _array_payload(args.r, at4.closed_forms(_params(args.p, args.r)))
    report["inputs"] = {"p": args.p, "r": args.r}
    report["quotient_srg"] = list(at4.quotient_params(args.p))
    report["second_subconstituent_quotient_srg"] = list(at4.second_subconstituent_quotient(args.p))
    return EXIT_OK, report


def _cmd_profile(args) -> tuple[int, dict]:
    _params(args.p, args.r)
    if not is_prime(args.ell):
        raise _Refusal(EXIT_USAGE, f"order {args.ell} is not prime")
    p, r, ell = args.p, args.r, args.ell
    classification = higman.cover_order_classification(p, r)
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
        report["local_fixed_structure"] = higman.local_fixed_structure(p, ell)
    return EXIT_OK, report


def _cmd_bounds(args) -> tuple[int, dict]:
    p = args.p
    if p < 2:
        raise _Refusal(EXIT_USAGE, f"p must be >= 2, got {p}")
    _refuse_too_large([p])
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
        "block_sizes": list(higman.block_size_filter(p)),
        **_spectrum_fields(p),
        "exclusion": higman.exclusion_arithmetic(p) if p > 2 else "inapplicable",
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
