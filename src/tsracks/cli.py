"""Command-line front end.

Verbs:
  validate-rack  check a rack matrix file / text
  rack-rank      rack rank and per-element ranks of a rack
  make-tsrack    build a (t,s)-rack from a spec and print its matrix
  iso-check      decide isomorphism of two racks
  invariant      compute one invariant of one link
  table          compute an invariant for a list of links, grouped by value

Rack sources are either inline JSON specs like
{"type":"linear","n":4,"t":1,"s":2} or paths to files holding a JSON spec
or a rack-matrix text (first line n, then n rows).  Exit codes: 0 success,
2 parse error, 3 structure validation error, 4 internal error.
"""

import argparse
import hashlib
import json
import os
import sys
import tempfile

from . import __version__
from .errors import ParseError, ToolkitError, ValidationError
from .diagrams import parse_link
from .invariants import (additive_enhanced, counting_invariant, s_enhanced,
                         writhe_enhanced)
from .modules import TSRack, tsrack_from_spec, tsrack_iso_check
from .polynomials import order_compare, parse_u_polynomial
from .racks import find_isomorphism, rack_from_text, rack_rank

CACHE_ENV = "TSRACKS_CACHE_DIR"
KINDS = ("count", "writhe", "additive", "s-enh")
# the types _compute_record gives the output fields of a record
OUTPUT_TYPES = {"counting_value": (int,), "polynomial": (list, type(None)),
                "polynomial_text": (str, type(None)),
                "multiset": (list, type(None))}


def _read(path):
    """The text of a file; a file that cannot be read is a parse error."""
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc


class _RackSource:
    """The rack a --rack argument names, a TSRack from a spec or a
    FiniteRack from matrix text, and the spec that keys its records."""

    def __init__(self, text):
        body = text.strip()
        # matrix text starts with its size; anything else names a file
        if not body.startswith("{") and (os.path.exists(body)
                                         or not body[:1].isdigit()):
            body = _read(body).strip()
        if body.startswith("{"):
            try:
                spec = json.loads(body)
            except json.JSONDecodeError as exc:
                raise ParseError("bad rack spec JSON: %s" % exc) from exc
            self.rack = tsrack_from_spec(spec)
            self.spec = self.rack.spec
        else:
            self.rack = rack_from_text(body)
            self.spec = {"type": "matrix", "matrix":
                         [list(r) for r in self.rack.op_matrix]}

    def spec_hash(self):
        return hashlib.sha256(
            json.dumps(self.spec, sort_keys=True).encode()).hexdigest()


def _link_source(text):
    text = text.strip()
    if os.path.exists(text):
        text = _read(text).strip()
    return text


def _compute_record(source, link_spec, kind):
    diagram, rack = parse_link(link_spec), source.rack
    record = dict.fromkeys(OUTPUT_TYPES)
    record.update(invariant=kind, rack_spec=source.spec,
                  rack_spec_hash=source.spec_hash(), link_spec=link_spec,
                  version=__version__)
    if kind == "count":
        record["counting_value"] = counting_invariant(diagram, rack)
        return record
    if kind == "writhe":
        poly, multiset = writhe_enhanced(diagram, rack), None
        count = sum(c for _, _, c in poly.terms())
    elif not isinstance(rack, TSRack):
        raise ValidationError(
            "invariant kind %r needs a (t,s)-rack spec, not a bare matrix"
            % kind)
    elif kind == "additive":
        poly, multiset = additive_enhanced(diagram, rack)
        count = poly.evaluate_u1()
    else:
        poly, multiset = s_enhanced(diagram, rack)
        count = poly.coeff_exponent_sum()
    record.update(polynomial=poly.to_record(), polynomial_text=str(poly),
                  counting_value=count, multiset=None if multiset is None
                  else multiset.to_record())
    return record


# -- result cache ----------------------------------------------------------


def _cache_dir(args):
    return args.cache_dir or os.environ.get(CACHE_ENV)


def _cache_key(record_inputs):
    return hashlib.sha256(
        json.dumps(record_inputs, sort_keys=True).encode()).hexdigest()


def cache_lookup(cache_dir, key):
    """The record stored under key, or None if there is none or it is
    corrupt: unreadable, or with outputs not of OUTPUT_TYPES."""
    path = os.path.join(cache_dir, key + ".json")
    if not os.path.exists(path):
        return None
    try:
        with open(path) as fh:
            record = json.load(fh)
        if all(type(record[f]) in t for f, t in OUTPUT_TYPES.items()) and \
                all(type(c) is int for _, c in record["multiset"] or ()):
            return record
    except (OSError, ValueError, KeyError, TypeError):
        pass
    print("warning: ignoring corrupt cache entry %s" % path, file=sys.stderr)
    return None


def cache_store(cache_dir, key, record):
    os.makedirs(cache_dir, exist_ok=True)
    path = os.path.join(cache_dir, key + ".json")
    fd, tmp = tempfile.mkstemp(dir=cache_dir, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(record, fh, sort_keys=True)
        os.replace(tmp, path)
    except OSError:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _cached_record(args, source, link_spec, kind):
    cache_dir = _cache_dir(args)
    if cache_dir:
        key = _cache_key({"rack": source.spec, "link": link_spec,
                          "kind": kind, "version": __version__})
        hit = cache_lookup(cache_dir, key)
        inputs = {"rack_spec": source.spec, "link_spec": link_spec,
                  "invariant": kind, "version": __version__}
        if hit is not None and hit.items() >= inputs.items():
            return hit
        if hit is not None:
            print("warning: ignoring cache entry %s.json made for other "
                  "inputs" % os.path.join(cache_dir, key), file=sys.stderr)
    record = _compute_record(source, link_spec, kind)
    if cache_dir:
        cache_store(cache_dir, key, record)
    return record


# -- output ----------------------------------------------------------------


def _emit_record(record, fmt):
    if fmt == "json-like":
        print(json.dumps(record, sort_keys=True))
        return
    print("invariant: %s" % record["invariant"])
    print("rack: %s" % json.dumps(record["rack_spec"], sort_keys=True))
    print("link: %s" % record["link_spec"])
    if record.get("polynomial_text") is not None:
        print("value: %s" % record["polynomial_text"])
    if record.get("multiset") is not None:
        entries = ", ".join(
            "%s x%d" % (entry, count) for entry, count in record["multiset"])
        print("multiset: %s" % entries)
    print("counting: %d" % record["counting_value"])


# -- verbs -------------------------------------------------------------------


def cmd_validate_rack(args):
    rack = _RackSource(args.rack).rack
    n, _ = rack_rank(rack)
    print("valid rack on %d elements, rack rank %d" % (len(rack.elements), n))
    return 0


def cmd_rack_rank(args):
    n, per = rack_rank(_RackSource(args.rack).rack)
    print("rack rank: %d" % n)
    print("per-element: %s" % " ".join(str(v) for v in per))
    return 0


def cmd_make_tsrack(args):
    x = _RackSource(args.rack).rack
    if not isinstance(x, TSRack):
        raise ValidationError("make-tsrack needs a (t,s)-rack spec")
    print("order: %d" % x.order)
    print("rack rank: %d" % x.rack_rank())
    print("alexander quandle: %s" % ("yes" if x.is_alexander() else "no"))
    print("elements (lexicographic):")
    for i, v in enumerate(x.carrier, start=1):
        print("  x_%d = %s" % (i, list(v)))
    print("rack matrix:")
    print(x.to_finite_rack().to_text(), end="")
    return 0


def _print_map(title, m):
    print(title)
    for k in sorted(m):
        print("  %s -> %s" % (list(k), list(m[k])))


def cmd_iso_check(args):
    a, b = _RackSource(args.rack).rack, _RackSource(args.rack2).rack
    if isinstance(a, TSRack) and isinstance(b, TSRack):
        cert = tsrack_iso_check(a, b)
        if cert is None:
            print("not isomorphic")
            return 0
        print("isomorphic")
        _print_map("submodule isomorphism h on sX:", cert.h)
        print("coset representatives A: %s"
              % [list(v) for v in cert.coset_reps_a])
        print("coset representatives B: %s"
              % [list(v) for v in cert.coset_reps_b])
        _print_map("orbit bijection g:", cert.g)
        _print_map("assembled rack isomorphism phi:", cert.phi)
        return 0
    f = None
    # racks of different orders are not isomorphic: export no spec
    if len(a.elements) == len(b.elements):
        f = find_isomorphism(*(r.to_finite_rack() if isinstance(r, TSRack)
                               else r for r in (a, b)))
    if f is None:
        print("not isomorphic")
    else:
        print("isomorphic")
        print("witness: %s" % json.dumps(f, sort_keys=True))
    return 0


def cmd_invariant(args):
    source = _RackSource(args.rack)
    link_spec = _link_source(args.link)
    record = _cached_record(args, source, link_spec, args.kind)
    _emit_record(record, args.format)
    return 0


def cmd_table(args):
    source = _RackSource(args.rack)
    lines = [ln.strip() for ln in _read(args.links).split("\n")]
    groups = {}
    failures = []
    for ln in lines:
        if not ln or ln.startswith("#"):
            continue
        name, _, spec = ln.partition(" ")
        try:
            record = _cached_record(args, source, spec.strip(), args.kind)
        except ToolkitError as exc:
            failures.append((name, str(exc)))
            continue
        value = record["polynomial_text"] or str(record["counting_value"])
        groups.setdefault(value, []).append(name)

    rows = sorted(groups.items(), key=lambda kv: sorted(kv[1]))
    width = max((len(v) for v, _ in rows), default=0)
    for value, names in rows:
        print("%-*s | %s" % (width, value, ", ".join(sorted(names))))
    if args.weak_order and len(rows) > 1:
        print()
        print("ordering obstructions (weak reading):")
        for i, (va, na) in enumerate(rows):
            for vb, nb in rows[i + 1:]:
                try:
                    pa, pb = parse_u_polynomial(va), parse_u_polynomial(vb)
                except ValueError:
                    continue
                rel = order_compare(pa, pb)
                print("  {%s} vs {%s}: %s"
                      % (", ".join(sorted(na)), ", ".join(sorted(nb)), rel))
    for name, error in failures:
        print("failed: %s: %s" % (name, error), file=sys.stderr)
    return 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="tsracks",
        description="finite racks, (t,s)-racks and link invariants")
    parser.add_argument("--cache-dir", default=None,
                        help="result cache directory (or $%s)" % CACHE_ENV)
    sub = parser.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("validate-rack", help="check a rack matrix")
    p.add_argument("--rack", required=True)
    p.set_defaults(func=cmd_validate_rack)

    p = sub.add_parser("rack-rank", help="rack rank of a rack")
    p.add_argument("--rack", required=True)
    p.set_defaults(func=cmd_rack_rank)

    p = sub.add_parser("make-tsrack", help="build and print a (t,s)-rack")
    p.add_argument("--rack", required=True)
    p.set_defaults(func=cmd_make_tsrack)

    p = sub.add_parser("iso-check", help="decide rack isomorphism")
    p.add_argument("--rack", required=True)
    p.add_argument("--rack2", required=True)
    p.set_defaults(func=cmd_iso_check)

    p = sub.add_parser("invariant", help="compute one invariant")
    p.add_argument("--rack", required=True)
    p.add_argument("--link", required=True)
    p.add_argument("--kind", choices=KINDS, default="count")
    p.add_argument("--format", choices=("table", "json-like"),
                   default="table")
    p.set_defaults(func=cmd_invariant)

    p = sub.add_parser("table", help="tabulate an invariant over links")
    p.add_argument("--rack", required=True)
    p.add_argument("--links", required=True,
                   help="file with one 'name spec' per line")
    p.add_argument("--kind", choices=KINDS, default="additive")
    p.add_argument("--weak-order", action="store_true",
                   help="report ordering obstructions between rows "
                        "(>= everywhere, > somewhere)")
    p.set_defaults(func=cmd_table)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.verb == "table" and args.weak_order and args.kind == "writhe":
        parser.error("--weak-order compares u-polynomials, and --kind "
                     "writhe gives q-polynomials")
    try:
        return args.func(args)
    except ParseError as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return 2
    except ValidationError as exc:
        print("validation error: %s" % exc, file=sys.stderr)
        return 3
    except ToolkitError as exc:
        print("internal error: %s" % exc, file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
