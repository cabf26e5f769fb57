#!/usr/bin/env python3
"""Dump every invariant of every corpus entry, for comparing two checkouts.

For each rack spec and each entry of the checkout's corpus it records the
counting invariant, the writhe-enhanced polynomial, the additive
polynomial and multiset record, the same again as additive_fresh on a
rack built anew for the entry (so that weights which earlier entries
left on the spec's one rack show if they change a value), the
s-enhanced polynomial and multiset record in both split_fibers
readings, and the labeling plan: its leaf bound, as plan_leaves in
tests/test_invariants.py computes it, and the branch (dst, src) of each
of its stages, so that two plans differ in the dump as soon as they
branch differently; a plan over LEAF_LIMIT reads
"refused" in both keys, whether _compile raises or not.  Among the
entries whose additive enhancement did not raise, it records the
order_compare relation of each additive polynomial to that of every
entry later in name order.  For the entries in LINEAR_ENTRIES it also
records, on each diagram of framed_family, the labelings that the linear
cross-check enumerate_homs_linear gives, in the order it returns them,
and the sorted labelings of the kernel's enumerate_homs.  Under the key
"cli" it records, for each spec, the stdout and exit code of the
in-process command line (cli.main) for validate-rack, rack-rank and
make-tsrack.  An invariant that raises is recorded as its exception
class and message.
The output is JSON with sorted keys, so two checkouts that compute the
same values give byte-identical files:

    python3 tools/same_outputs.py OLD_CHECKOUT SPEC... > old.json
    python3 tools/same_outputs.py NEW_CHECKOUT SPEC... > new.json
    cmp old.json new.json

A SPEC is a rack as the command line's --rack takes it: a spec, for
example '{"type": "quotient", "n": 2, "p": [1, 0, 1]}', or rack-matrix
text (its size, then one row per line), or a file holding either.  A
matrix rack has no module structure, so its additive and s-enhanced
entries record the WrongStructureError they raise.  Only the named
checkout's src/ is imported.

tests/test_same_outputs.py runs dump() in process for eight racks and
compares digests of its records with tests/same_outputs.json, so a
change to what dump() records is a change to that pin.
"""

import argparse
import contextlib
import io
import json
import sys
from pathlib import Path


def import_checkout(root):
    """Import tsracks from root/src and from nowhere else."""
    src = str((Path(root) / "src").resolve())
    if "tsracks" in sys.modules:
        raise RuntimeError("tsracks is already imported")
    sys.path.insert(0, src)
    import tsracks.cli  # binds tsracks, with the cli module loaded
    if not str(Path(tsracks.__file__).resolve()).startswith(src):
        raise RuntimeError("tsracks came from %s, not %s"
                           % (tsracks.__file__, src))
    return tsracks


# small enough for the linear cross-check with Q16: L4a1 takes seconds
LINEAR_ENTRIES = ("3_1", "4_1", "5_1", "L2a1")


def outcome(fn, *args, **kwargs):
    """The value of fn as JSON-ready data, or the exception it raises."""
    try:
        value = fn(*args, **kwargs)
    except Exception as exc:  # recorded, so both sides must raise alike
        return {"raises": [type(exc).__name__, str(exc)]}
    if isinstance(value, tuple):
        poly, multiset = value
        return [str(poly), multiset.to_record()]
    return value if isinstance(value, (int, list)) else str(value)


def element(x):
    """A rack element as JSON data: a module element's coordinates as a
    list, a matrix rack's element as its number."""
    return list(x) if isinstance(x, tuple) else x


def linear_labelings(ts, diagram, rack):
    """Per framing, the ordered labelings of enumerate_homs_linear as
    [arc, value] pairs."""
    family = ts.diagrams.framed_family(diagram, ts.racks.rack_rank(rack)[0])
    return [[list(w), [[[a, element(x)] for a, x in f.items()]
                       for f in ts.invariants.enumerate_homs_linear(d, rack)]]
            for w, d in family.items()]


def kernel_labelings(ts, diagram, rack):
    """Per framing, the labelings of enumerate_homs as sorted lists of
    [arc, value] pairs, in sorted order."""
    family = ts.diagrams.framed_family(diagram, ts.racks.rack_rank(rack)[0])
    return [[list(w), sorted([[a, element(x)] for a, x in sorted(f.items())]
                             for f in ts.invariants.enumerate_homs(d, rack))]
            for w, d in family.items()]


def plan_outline(ts, diagram, rack):
    """(leaves, branches) of the labeling plan of the diagram by the rack:
    its leaf bound and the branch of each stage, or "refused" for both
    for a plan over LEAF_LIMIT."""
    lab, period = ts.labelings, ts.racks.rack_rank(rack)[0]
    comps, crossings, cuts = lab._cut_open(diagram, period)
    try:
        leaves, plan = lab._compile(len(rack.elements), period, crossings,
                                    cuts, len(comps))
    except ts.errors.ValidationError:
        return "refused", "refused"
    if leaves > lab.LEAF_LIMIT:
        return "refused", "refused"
    return leaves, [list(branch) for branch, *_ in plan]


CLI_VERBS = ("validate-rack", "rack-rank", "make-tsrack")


def cli_outputs(ts, text):
    """Per verb of CLI_VERBS, [exit code, stdout] of cli.main on the spec."""
    out = {}
    for verb in CLI_VERBS:
        with contextlib.redirect_stdout(io.StringIO()) as stdout:
            code = ts.cli.main([verb, "--rack", text])
        out[verb] = [code, stdout.getvalue()]
    return out


def dump(ts, specs):
    inv, pol = ts.invariants, ts.polynomials
    corpus = ts.atlas.load_corpus()
    out = {}
    for text in specs:
        rack = ts.cli._RackSource(text).rack
        out[text] = {}
        for name, d in corpus.items():
            leaves, plan = plan_outline(ts, d, rack)
            out[text][name] = {
                "count": outcome(inv.counting_invariant, d, rack),
                "writhe": outcome(inv.writhe_enhanced, d, rack),
                "additive": outcome(inv.additive_enhanced, d, rack),
                "additive_fresh": outcome(
                    inv.additive_enhanced, d, ts.cli._RackSource(text).rack),
                "s_split": outcome(inv.s_enhanced, d, rack,
                                   split_fibers=True),
                "s_plain": outcome(inv.s_enhanced, d, rack,
                                   split_fibers=False),
                "leaves": leaves,
                "plan": plan,
            }
        additive = {name: pol.parse_u_polynomial(rec["additive"][0])
                    for name, rec in out[text].items()
                    if isinstance(rec["additive"], list)}
        for a, p in additive.items():
            out[text][a]["order"] = {b: pol.order_compare(p, q)
                                    for b, q in additive.items() if b > a}
        for name in LINEAR_ENTRIES:
            out[text][name]["linear"] = outcome(linear_labelings, ts,
                                                corpus[name], rack)
            out[text][name]["kernel"] = outcome(kernel_labelings, ts,
                                                corpus[name], rack)
        out[text]["cli"] = cli_outputs(ts, text)
    return out


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("checkout", help="repository root holding src/")
    parser.add_argument("specs", nargs="+", metavar="SPEC",
                        help="rack spec as JSON text, or rack-matrix text")
    args = parser.parse_args(argv)
    ts = import_checkout(args.checkout)
    json.dump(dump(ts, args.specs), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
