#!/usr/bin/env python3
"""Generate and validate src/tsracks/data/links.txt.

Every corpus diagram is built from a construction whose link type is
pinned down by classification facts, then cross-checked against known
data before being written:

* braid closures for torus links, the figure eight, 8_18, 8_19 and the
  Borromean rings;
* 4-plat closures for 2-bridge (rational) knots and links: the fraction
  p/q with continued fraction [a1,...,ak] determines the link, p is the
  determinant, and the double branched cover has H1 = Z_p;
* pretzel closures for P(2,2,2), P(2,2,2,1) and the non-2-bridge
  8-crossing pretzel knots.

Validation per entry: component count, crossing count, alternating-ness
where expected, and dihedral coloring counts R_q for q in {2,3,4,5,7}
against q * |Hom(H1(double cover), Z_q)| computed from the expected H1.
Entries failing any check abort the build.

Run from the repository root:  python3 tools/make_corpus.py
"""

import sys
from math import gcd
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from tsracks.diagrams import EdgeCrossing, LinkDiagram, _UnionFind, pd_code
from tsracks.invariants import enumerate_homs
from tsracks.modules import make_linear

OUT = Path(__file__).resolve().parent.parent / "src" / "tsracks" / "data" / "links.txt"


# -- generic unoriented-diagram assembly -----------------------------------

# slots: NW, NE, SW, SE; a strand through a crossing connects NW-SE or
# NE-SW; over_diag names the diagonal that passes over

_DIAG = {"NW": "SE", "SE": "NW", "NE": "SW", "SW": "NE"}
_POS = {"NW": (-1, 1), "NE": (1, 1), "SW": (-1, -1), "SE": (1, -1)}


def assemble(crossings, identifications):
    """Orient an unoriented diagram and build a LinkDiagram.

    crossings: list of dicts {slot: edge_id} plus key "over" in
    {"NESW", "NWSE"}.  identifications: pairs of edge ids to merge (the
    plat caps / pretzel arcs).
    """
    uf = _UnionFind()
    for c in crossings:
        for slot in ("NW", "NE", "SW", "SE"):
            uf.find(c[slot])
    for a, b in identifications:
        uf.union(a, b)
    canon = lambda e: uf.find(e)

    endpoints = {}
    for idx, c in enumerate(crossings):
        for slot in ("NW", "NE", "SW", "SE"):
            endpoints.setdefault(canon(c[slot]), []).append((idx, slot))
    for e, eps in endpoints.items():
        if len(eps) != 2:
            raise ValueError("edge %r has %d endpoints" % (e, len(eps)))

    # orientation walk: give every edge a head (entry point) and tail
    head = {}
    tail = {}
    for start in sorted(endpoints):
        if start in head or start in tail:
            continue
        edge = start
        entry = endpoints[edge][0]
        while edge not in head:
            head[edge] = entry
            cidx, slot = entry
            exit_slot = _DIAG[slot]
            nxt = canon(crossings[cidx][exit_slot])
            tail[nxt] = (cidx, exit_slot)
            other = [ep for ep in endpoints[nxt] if ep != (cidx, exit_slot)]
            entry = other[0]
            edge = nxt

    records = []
    for idx, c in enumerate(crossings):
        over_slots = ("NE", "SW") if c["over"] == "NESW" else ("NW", "SE")
        under_slots = ("NW", "SE") if c["over"] == "NESW" else ("NE", "SW")
        over_in = over_out = under_in = under_out = None
        for slot in over_slots:
            e = canon(c[slot])
            if head.get(e) == (idx, slot):
                over_in = e
                over_entry = slot
            if tail.get(e) == (idx, slot):
                over_out = e
        for slot in under_slots:
            e = canon(c[slot])
            if head.get(e) == (idx, slot):
                under_in = e
                under_entry = slot
            if tail.get(e) == (idx, slot):
                under_out = e
        assert None not in (over_in, over_out, under_in, under_out)
        ox, oy = _POS[over_entry]
        ux, uy = _POS[under_entry]
        # direction of travel is away from the entry corner
        ox, oy, ux, uy = -ox, -oy, -ux, -uy
        sign = 1 if ox * uy - oy * ux > 0 else -1
        records.append(EdgeCrossing(over_in, over_out, under_in, under_out,
                                    sign))
    return LinkDiagram(records)


def plat_closure(word):
    """Plat closure of a 4-strand braid word (letters +-1, +-2, +-3),
    capped 1-2 and 3-4 at top and bottom."""
    fresh = iter(range(1, 10_000))
    cur = [next(fresh) for _ in range(4)]
    top = list(cur)
    crossings = []
    for letter in word:
        i = abs(letter)
        nl, nr = next(fresh), next(fresh)
        crossings.append({
            "NW": cur[i - 1], "NE": cur[i], "SW": nl, "SE": nr,
            "over": "NESW" if letter > 0 else "NWSE",
        })
        cur[i - 1], cur[i] = nl, nr
    ids = [(top[0], top[1]), (top[2], top[3]),
           (cur[0], cur[1]), (cur[2], cur[3])]
    return assemble(crossings, ids)


def rational_link(partial_quotients):
    """2-bridge link from a continued fraction [a1, ..., ak], all ai >= 1.

    Built as the plat closure of sigma_2^{a1} sigma_1^{-a2} sigma_2^{a3}
    ..., which gives the standard alternating diagram with sum(ai)
    crossings.  The plat closure wants the word to end on a sigma_2 block,
    so even-length fractions are first rewritten to odd length using
    [..., a] = [..., a-1, 1] (same value, same crossing total).
    """
    cf = list(partial_quotients)
    if len(cf) % 2 == 0:
        if cf[-1] == 1:
            cf = cf[:-2] + [cf[-2] + 1]
        else:
            cf = cf[:-1] + [cf[-1] - 1, 1]
    word = []
    for i, a in enumerate(cf):
        letter = 2 if i % 2 == 0 else -1
        word.extend([letter] * a)
    return plat_closure(word)


def pretzel_link(twists):
    """Pretzel closure of vertical twist towers (positive = one sign,
    negative entries give the mirrored tower)."""
    fresh = iter(range(1, 10_000))
    crossings = []
    tops = []
    bottoms = []
    for p in twists:
        tl, tr = next(fresh), next(fresh)
        tops.append((tl, tr))
        cl, cr = tl, tr
        for _ in range(abs(p)):
            nl, nr = next(fresh), next(fresh)
            crossings.append({
                "NW": cl, "NE": cr, "SW": nl, "SE": nr,
                "over": "NESW" if p > 0 else "NWSE",
            })
            cl, cr = nl, nr
        bottoms.append((cl, cr))
    k = len(twists)
    ids = []
    for i in range(k - 1):
        ids.append((tops[i][1], tops[i + 1][0]))
        ids.append((bottoms[i][1], bottoms[i + 1][0]))
    ids.append((tops[0][0], tops[k - 1][1]))
    ids.append((bottoms[0][0], bottoms[k - 1][1]))
    return assemble(crossings, ids)


def braid_link(strands, word):
    from tsracks.diagrams import parse_braid

    return parse_braid(strands, word)


# -- validation -------------------------------------------------------------


def dihedral_count(diagram, q):
    """Colorings by the dihedral quandle R_q (a quandle, single framing)."""
    rack = make_linear(q, q - 1, 2)
    return len(enumerate_homs(diagram, rack))


_S4_CACHE = []


def _conj_s4():
    """Conjugation quandle of S_4; separates knots that share every
    abelian invariant (equal Alexander polynomials)."""
    if not _S4_CACHE:
        from itertools import permutations

        from tsracks.racks import conjugation_rack

        perms = sorted(permutations(range(4)))
        index = {p: i + 1 for i, p in enumerate(perms)}
        table = [[index[tuple(p[q[i]] for i in range(4))] for q in perms]
                 for p in perms]
        _S4_CACHE.append(conjugation_rack(table, 1))
    return _S4_CACHE[0]


def hom_count(h1_factors, q):
    """|Hom(Z_{d1} + ... + Z_{dk}, Z_q)| = prod gcd(di, q)."""
    out = 1
    for d in h1_factors:
        out *= gcd(d, q)
    return out


def is_alternating(diagram):
    """Along every component, passages alternate over/under."""
    passages = {}
    for idx, c in enumerate(diagram.edge_crossings):
        passages[c.over_in] = ("over", idx)
        passages[c.under_in] = ("under", idx)
    next_edge = {}
    for c in diagram.edge_crossings:
        next_edge[c.under_in] = c.under_out
        next_edge[c.over_in] = c.over_out
    seen = set()
    for e0 in diagram.edges:
        if e0 in seen:
            continue
        walk = []
        e = e0
        while e not in seen:
            seen.add(e)
            walk.append(passages[e][0])
            e = next_edge[e]
        if len(walk) > 1:
            for a, b in zip(walk, walk[1:] + walk[:1]):
                if a == b:
                    return False
    return True


class Entry:
    def __init__(self, name, diagram, components, crossings, h1,
                 alternating=True, extra_counts=()):
        self.name = name
        self.diagram = diagram
        self.components = components
        self.crossings = crossings
        self.h1 = h1  # invariant factors of H1 of the double branched cover
        self.alternating = alternating
        self.extra_counts = extra_counts  # (tsrack spec, expected count)

    def validate(self):
        from tsracks.modules import tsrack_from_spec

        d = self.diagram
        problems = []
        if d.component_count != self.components:
            problems.append("components %d != %d"
                            % (d.component_count, self.components))
        if len(d.crossings) != self.crossings:
            problems.append("crossings %d != %d"
                            % (len(d.crossings), self.crossings))
        if self.alternating and not is_alternating(d):
            problems.append("diagram is not alternating")
        for q in (2, 3, 4, 5, 7):
            want = q * hom_count(self.h1, q)
            got = dihedral_count(d, q)
            if got != want:
                problems.append("R_%d count %d != %d" % (q, got, want))
        for spec, want in self.extra_counts:
            if spec == "conj_s4":
                got = len(enumerate_homs(d, _conj_s4()))
            else:
                got = len(enumerate_homs(d, tsrack_from_spec(spec)))
            if got != want:
                problems.append("count with %s: %d != %d" % (spec, got, want))
        return problems


def two_bridge(name, cf, components, h1=None):
    p = _cf_value(cf)
    d = rational_link(cf)
    return Entry(name, d, components, sum(cf), h1 or [p])


def _cf_value(cf):
    num, den = cf[-1], 1
    for a in reversed(cf[:-1]):
        num, den = a * num + den, num
    return num


def build_entries():
    entries = []

    # torus knots and links as braid closures
    entries += [
        Entry("3_1", braid_link(2, [1, 1, 1]), 1, 3, [3]),
        Entry("5_1", braid_link(2, [1] * 5), 1, 5, [5]),
        Entry("7_1", braid_link(2, [1] * 7), 1, 7, [7]),
        Entry("L2a1", braid_link(2, [1, 1]), 2, 2, [2]),
        Entry("L4a1", braid_link(2, [1] * 4), 2, 4, [4]),
        Entry("L6a3", braid_link(2, [1] * 6), 2, 6, [6]),
    ]

    # 2-bridge knots: name -> continued fraction (det = fraction numerator)
    rational_knots = {
        "4_1": [2, 2],
        "5_2": [3, 2],
        "6_1": [4, 2],
        "6_2": [3, 1, 2],
        "6_3": [2, 1, 1, 2],
        "7_2": [5, 2],
        "7_3": [3, 4],
        "7_4": [3, 1, 3],
        "7_5": [3, 2, 2],
        "7_6": [2, 1, 2, 2],
        "7_7": [2, 1, 1, 1, 2],
        "8_1": [6, 2],
        "8_2": [5, 1, 2],
        "8_3": [4, 4],
        "8_4": [3, 1, 4],
        "8_6": [3, 3, 2],
        "8_7": [2, 1, 1, 4],
        "8_8": [2, 1, 3, 2],
        "8_9": [3, 1, 1, 3],
        "8_11": [3, 2, 1, 2],
        "8_12": [2, 2, 2, 2],
        "8_13": [2, 1, 1, 1, 3],
        "8_14": [2, 1, 1, 2, 2],
    }
    for name, cf in rational_knots.items():
        entries.append(two_bridge(name, cf, 1))

    # 2-bridge links
    entries += [
        two_bridge("L5a1", [2, 1, 2], 2),   # Whitehead, det 8
        two_bridge("L6a1", [2, 2, 2], 2),   # det 12
        two_bridge("L6a2", [3, 3], 2),      # det 10
        two_bridge("L7a5", [3, 1, 1, 2], 2),  # det 18
        two_bridge("L7a6", [4, 1, 2], 2),   # det 14
    ]

    # pretzels
    entries += [
        Entry("8_5", pretzel_link([3, 3, 2]), 1, 8, [21]),
        Entry("8_19", pretzel_link([-2, 3, 3]), 1, 8, [3],
              alternating=False),
        Entry("8_20", pretzel_link([3, -3, 2]), 1, 8, [9],
              alternating=False),
        Entry("L6a5", pretzel_link([2, 2, 2]), 3, 6, [2, 6]),
        Entry("L7a7", pretzel_link([2, 2, 2, 1]), 3, 7, [2, 10]),
    ]

    # remaining braid closures; 8_16 and 8_17 are pinned by their
    # determinants (35 and 37: unique among knots and composites under
    # nine crossings), 8_10 by determinant 27 plus the Alexander-quandle
    # count over Z_5 with t=2 that separates it from 8_11
    entries += [
        Entry("8_18", braid_link(3, [1, -2] * 4), 1, 8, [3, 15]),
        Entry("8_10", braid_link(3, [1, 1, 1, -2, 1, 1, -2, -2]), 1, 8,
              [27], alternating=False,
              extra_counts=[({"type": "module", "moduli": [5],
                              "t": [[2]], "s": [[4]]}, 5)]),
        Entry("8_16", braid_link(3, [1, 1, -2, 1, 1, -2, 1, -2]), 1, 8,
              [35], alternating=False),
        Entry("8_17", braid_link(3, [1, 1, -2, 1, -2, 1, -2, -2]), 1, 8,
              [37], alternating=False),
        # determinant 15 narrows the closure to 7_4, 8_21, 3_1#4_1 or
        # 5_1#3_1; the S_4-conjugation count (144 here, vs 72/192/96 for
        # the alternatives) forces 8_21
        Entry("8_21", braid_link(3, [1, 1, 1, 2, -1, -1, 2, 2]), 1, 8,
              [15], alternating=False,
              extra_counts=[("conj_s4", 144)]),
        Entry("L6a4", braid_link(3, [1, -2] * 3), 3, 6, [4, 8],
              alternating=False),
        Entry("L6n1", braid_link(3, [1, 2] * 3), 3, 6, [2, 2],
              alternating=False),
    ]
    return entries


def main():
    entries = build_entries()
    failures = {}
    lines = []
    for entry in entries:
        problems = entry.validate()
        if problems:
            failures[entry.name] = problems
            continue
        if entry.name.endswith("_check"):
            continue
        lines.append("%s %s" % (entry.name, pd_code(entry.diagram)))
    for name, problems in failures.items():
        print("FAIL %s:" % name)
        for p in problems:
            print("   ", p)
    if failures:
        sys.exit(1)
    lines.sort(key=_table_order)
    header = (
        "# Prime knot and link diagrams by table name, as PD codes.\n"
        "# Generated by tools/make_corpus.py; regenerate with\n"
        "#   python3 tools/make_corpus.py\n"
    )
    OUT.write_text(header + "\n".join(lines) + "\n")
    print("wrote %d entries to %s" % (len(lines), OUT))


def _table_order(line):
    name = line.split()[0]
    if name.startswith("L"):
        return (1, len(name), name)
    crossings, _, index = name.partition("_")
    return (0, int(crossings), int(index))


if __name__ == "__main__":
    main()
