"""Blackboard-framed oriented link diagrams.

The working representation is edge-level: a diagram is a list of crossings,
each recording which edge enters and leaves on the over-strand and on the
under-strand, plus the crossing sign.  Arcs (the things rack labelings
live on) are chains of edges glued through over-passages; an arc therefore
runs from one underpass to the next.  Components with no underpasses
(including split unknots) appear as single closed arcs.

Conventions:

* PD code X[a,b,c,d]: slots listed counterclockwise starting at the
  incoming under-strand, so a = under-in, c = under-out and the over-strand
  occupies b and d.  Edges are numbered consecutively along each oriented
  component, so the over-strand runs b -> d when d follows b in the cyclic
  numbering, and d -> b when b follows d.  The crossing is positive when
  the over-strand runs d -> b.  When both readings are cyclically possible
  (two-edge components) the direction is inferred from global consistency
  (every edge enters exactly one crossing and leaves exactly one); if that
  still leaves a choice, the signed forms X+[a,b,c,d] / X-[a,b,c,d] must
  be used.

* Braid words: letter +i is the positive crossing where the strand moving
  from position i+1 to position i passes over; -i is its inverse.  The
  closure of 1 1 1 on two strands is the positive trefoil with writhe 3.

* A positive kink realizes the map x -> x > x on the arc it is inserted
  into, a negative kink the inverse.
"""

import re
from collections import namedtuple
from itertools import product

from .errors import AmbiguousPDError, MalformedPDError, ParseError, ValidationError

EdgeCrossing = namedtuple("EdgeCrossing",
                          ["over_in", "over_out", "under_in", "under_out",
                           "sign"])
Crossing = namedtuple("Crossing", ["over", "under_in", "under_out", "sign"])

# the most braid strands, or unknots, a few digits of a link spec ask for
STRAND_LIMIT = 10 ** 4


class _UnionFind(dict):
    """Union-find on arbitrary keys; find() adds a key it has not seen."""

    def find(self, x):
        self.setdefault(x, x)
        while self[x] != x:
            self[x] = self[self[x]]
            x = self[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self[max(rx, ry)] = min(rx, ry)


class LinkDiagram:
    """Immutable diagram with derived arc and component structure."""

    def __init__(self, edge_crossings, free_loops=(), component_markers=None):
        self.edge_crossings = tuple(EdgeCrossing(*c) for c in edge_crossings)
        self.free_loops = tuple(free_loops)
        self._derive(component_markers)

    def _derive(self, component_markers):
        crossings = self.edge_crossings
        heads = {}
        tails = {}
        edges = set()
        for c in crossings:
            for e in c[:4]:
                edges.add(e)
            for e in (c.over_in, c.under_in):
                heads[e] = heads.get(e, 0) + 1
            for e in (c.over_out, c.under_out):
                tails[e] = tails.get(e, 0) + 1
        for e in edges:
            if heads.get(e, 0) != 1 or tails.get(e, 0) != 1:
                raise ValidationError(
                    "edge %r must enter one crossing and leave one "
                    "(enters %d, leaves %d)"
                    % (e, heads.get(e, 0), tails.get(e, 0)))
        if set(self.free_loops) & edges:
            raise ValidationError("free loop ids collide with edge ids")
        self.edges = tuple(sorted(edges))

        arc_uf = _UnionFind()
        comp_uf = _UnionFind()
        for c in crossings:
            arc_uf.union(c.over_in, c.over_out)
            comp_uf.union(c.over_in, c.over_out)
            comp_uf.union(c.under_in, c.under_out)

        self.arc_of_edge = {e: arc_uf.find(e) for e in edges}
        for a in self.free_loops:
            self.arc_of_edge[a] = a
        self.arcs = tuple(sorted(set(self.arc_of_edge.values())))

        comp_root = {e: comp_uf.find(e) for e in list(edges) + list(self.free_loops)}
        roots = sorted(set(comp_root.values()))
        if component_markers is not None:
            if len(component_markers) != len(roots):
                raise ValidationError("component marker count mismatch")
            marked = [comp_uf.find(m) for m in component_markers]
            if sorted(marked) != roots:
                raise ValidationError("component markers do not cover "
                                      "the components exactly once")
            roots = marked
        root_index = {r: i for i, r in enumerate(roots)}
        self.component_count = len(roots)
        # an arc id is one of its own edges (or a free-loop id), so it
        # indexes comp_root directly
        self.component_of = {arc: root_index[comp_root[arc]]
                             for arc in self.arcs}

        self.crossings = tuple(
            Crossing(self.arc_of_edge[c.over_in],
                     self.arc_of_edge[c.under_in],
                     self.arc_of_edge[c.under_out],
                     c.sign)
            for c in crossings
        )

        under_in_count = {a: 0 for a in self.arcs}
        under_out_count = {a: 0 for a in self.arcs}
        successor = {}
        for c in self.crossings:
            under_in_count[c.under_in] += 1
            under_out_count[c.under_out] += 1
            successor[c.under_in] = c.under_out
        for a in self.arcs:
            if (under_in_count[a], under_out_count[a]) not in ((1, 1), (0, 0)):
                raise ValidationError(
                    "arc %r is under-in %d times and under-out %d times"
                    % (a, under_in_count[a], under_out_count[a]))
            if a in successor:
                if self.component_of[successor[a]] != self.component_of[a]:
                    raise ValidationError(
                        "successor structure leaves the component at %r" % (a,))
        self.successor = successor

        w = [0] * self.component_count
        for c in self.crossings:
            if self.component_of[c.over] == self.component_of[c.under_in]:
                w[self.component_of[c.over]] += c.sign
        self._writhes = tuple(w)

        by_comp = {}
        for a in self.arcs:
            by_comp.setdefault(self.component_of[a], []).append(a)
        self.arcs_by_component = {i: tuple(sorted(v))
                                  for i, v in by_comp.items()}

    # ------------------------------------------------------------------

    def writhe_vector(self):
        """Per-component signed self-crossing counts; mixed crossings do
        not contribute."""
        return self._writhes

    def first_arc(self, component):
        return self.arcs_by_component[component][0]

    def arc_order(self):
        """Arcs in component order, following the successor cycle within
        each component; a stable order for labeling enumeration."""
        out = []
        seen = set()
        for i in range(self.component_count):
            for start in self.arcs_by_component[i]:
                if start in seen:
                    continue
                a = start
                while a not in seen:
                    seen.add(a)
                    out.append(a)
                    a = self.successor.get(a, start)
        return out

    def component_markers(self):
        """One representative edge (or free-loop id) per component, in
        component order; lets a rebuilt diagram keep this ordering."""
        markers = [None] * self.component_count
        for e in list(self.edges) + list(self.free_loops):
            arc = self.arc_of_edge[e]
            i = self.component_of[arc]
            if markers[i] is None:
                markers[i] = e
        return markers

    def __repr__(self):
        return ("LinkDiagram(crossings=%d, components=%d, arcs=%d)"
                % (len(self.crossings), self.component_count, len(self.arcs)))


# -- PD codes -------------------------------------------------------------

_PD_TOKEN = re.compile(
    r"X([+-]?)\[\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*,\s*(\d+)\s*\]")


def parse_pd(text, unknots=0):
    """Parse a PD code; see the module docstring for the conventions."""
    stripped = text.strip()
    quads = []
    for m in _PD_TOKEN.finditer(stripped):
        quads.append((m.group(1),) + tuple(int(g) for g in m.groups()[1:]))
    if re.sub(r"[\s,]", "", _PD_TOKEN.sub("", stripped)):
        raise MalformedPDError("unrecognized text in PD code: %r" % (text,))
    if not quads:
        if unknots:
            return unknot_diagram(unknots)
        raise MalformedPDError("empty PD code and no unknot components")

    usage = {}
    for _, a, b, c, d in quads:
        for e in (a, b, c, d):
            usage[e] = usage.get(e, 0) + 1
    bad = [e for e, k in usage.items() if k != 2]
    if bad:
        raise MalformedPDError(
            "arcs %s are used an inconsistent number of times"
            % sorted(bad))

    comp_uf = _UnionFind()
    for _, a, b, c, d in quads:
        comp_uf.union(a, c)
        comp_uf.union(b, d)
    comps = {}
    for e in usage:
        comps.setdefault(comp_uf.find(e), []).append(e)
    succ = {}
    for members in comps.values():
        members.sort()
        for i, e in enumerate(members):
            succ[e] = members[(i + 1) % len(members)]

    heads = {}
    tails = {}
    for _, a, _b, c, _d in quads:
        heads[a] = heads.get(a, 0) + 1
        tails[c] = tails.get(c, 0) + 1

    resolved = [None] * len(quads)  # (over_in, over_out, sign)
    deferred = []
    for i, (hint, a, b, c, d) in enumerate(quads):
        if hint == "+":
            resolved[i] = (d, b, +1)
        elif hint == "-":
            resolved[i] = (b, d, -1)
        else:
            forward = succ[b] == d   # over runs b -> d
            backward = succ[d] == b  # over runs d -> b
            if forward and backward:
                deferred.append(i)
                continue
            if forward:
                resolved[i] = (b, d, -1)
            elif backward:
                resolved[i] = (d, b, +1)
            else:
                raise MalformedPDError(
                    "over-strand arcs %d,%d are not cyclically adjacent in "
                    "X[%d,%d,%d,%d]" % (b, d, a, b, c, d))
    for i, r in enumerate(resolved):
        if r is not None:
            over_in, over_out, _ = r
            heads[over_in] = heads.get(over_in, 0) + 1
            tails[over_out] = tails.get(over_out, 0) + 1

    changed = True
    while deferred and changed:
        changed = False
        still = []
        for i in deferred:
            _, a, b, c, d = quads[i]
            options = []
            for over_in, over_out, sign in ((b, d, -1), (d, b, +1)):
                if heads.get(over_in, 0) < 1 and tails.get(over_out, 0) < 1:
                    options.append((over_in, over_out, sign))
            if len(options) == 0:
                raise MalformedPDError(
                    "no consistent over-strand direction in X[%d,%d,%d,%d]"
                    % (a, b, c, d))
            if len(options) == 1:
                over_in, over_out, sign = options[0]
                resolved[i] = options[0]
                heads[over_in] = heads.get(over_in, 0) + 1
                tails[over_out] = tails.get(over_out, 0) + 1
                changed = True
            else:
                still.append(i)
        deferred = still
    if deferred:
        _, a, b, c, d = quads[deferred[0]]
        raise AmbiguousPDError(
            "over-strand direction of X[%d,%d,%d,%d] is ambiguous; use the "
            "signed form X+[...] or X-[...]" % (a, b, c, d))

    records = []
    for (hint, a, b, c, d), (over_in, over_out, sign) in zip(quads, resolved):
        records.append(EdgeCrossing(over_in, over_out, a, c, sign))
    loops = _fresh_loop_ids(usage, unknots)
    try:
        return LinkDiagram(records, free_loops=loops)
    except ValidationError as exc:
        raise MalformedPDError("inconsistent PD code: %s" % exc) from exc


def _fresh_loop_ids(used, count):
    base = max(used, default=0)
    return tuple(base + 1 + i for i in range(count))


def unknot_diagram(count=1):
    """Split union of crossing-free unknots."""
    if count < 1:
        raise ValidationError("need at least one component")
    return LinkDiagram((), free_loops=tuple(range(1, count + 1)))


# -- braid closures -------------------------------------------------------


def parse_braid(strands, word, unknots=0):
    """Closure of a braid word on the given number of strands."""
    strands = int(strands)
    if not 1 <= strands <= STRAND_LIMIT:
        raise ValidationError("strand count must be 1 to %d (STRAND_LIMIT)"
                              % STRAND_LIMIT)
    word = [int(w) for w in word]
    for letter in word:
        if letter == 0 or abs(letter) >= strands:
            raise ValidationError(
                "braid letter %d out of range for %d strands"
                % (letter, strands))
    initial = list(range(1, strands + 1))
    cur = list(initial)
    next_edge = strands + 1
    records = []
    for letter in word:
        i = abs(letter)
        left, right = cur[i - 1], cur[i]
        n1, n2 = next_edge, next_edge + 1
        next_edge += 2
        if letter > 0:
            records.append(EdgeCrossing(right, n1, left, n2, +1))
        else:
            records.append(EdgeCrossing(left, n2, right, n1, -1))
        cur[i - 1], cur[i] = n1, n2

    rename = {}
    loops = 0
    for p in range(strands):
        if cur[p] == initial[p]:
            loops += 1
        else:
            rename[cur[p]] = initial[p]
    records = [
        EdgeCrossing(*(rename.get(e, e) for e in c[:4]), c.sign)
        for c in records
    ]
    used = {e for c in records for e in c[:4]}
    loop_ids = _fresh_loop_ids(used, loops + unknots)
    return LinkDiagram(records, free_loops=loop_ids)


# -- link spec strings ----------------------------------------------------


def parse_link(text):
    """Parse a link spec string.

    Segments separated by ';':
      "pd: X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
      "braid: 2: 1 1 1"            (strand count, then letters)
      "unknots: 2"                 (split unknotted components, appendable)
    """
    segments = [seg.strip() for seg in text.split(";") if seg.strip()]
    if not segments:
        raise ParseError("empty link spec")
    main = None
    unknots = 0
    for seg in segments:
        kind, _, rest = seg.partition(":")
        kind = kind.strip().lower()
        if kind == "unknots":
            try:
                unknots += int(rest)
            except ValueError as exc:
                raise ParseError("bad unknot count %r" % rest) from exc
        elif kind in ("pd", "braid"):
            if main is not None:
                raise ParseError("only one pd/braid segment allowed")
            main = (kind, rest)
        else:
            raise ParseError("unknown link spec segment %r" % seg)
    if unknots < 0 or (main is None and unknots == 0):
        raise ParseError("link spec describes no components")
    if unknots > STRAND_LIMIT:
        raise ValidationError("unknot count must be at most %d "
                              "(STRAND_LIMIT)" % STRAND_LIMIT)
    if main is None:
        return unknot_diagram(unknots)
    kind, rest = main
    if kind == "pd":
        return parse_pd(rest, unknots=unknots)
    strands_text, _, letters_text = rest.partition(":")
    try:
        strands = int(strands_text)
        letters = [int(tok) for tok in letters_text.split()]
    except ValueError as exc:
        raise ParseError("bad braid spec %r" % rest) from exc
    return parse_braid(strands, letters, unknots=unknots)


# -- framings -------------------------------------------------------------


def add_kink(diagram, component, sign=+1):
    """Insert one kink at the start of the component's first arc.

    The writhe of that component changes by ``sign``; a labeling of the
    new diagram carries x through the kink to x > x (positive) or its
    inverse (negative).
    """
    if sign not in (+1, -1):
        raise ValidationError("kink sign must be +1 or -1")
    if component not in range(diagram.component_count):
        raise ValidationError("no component %r" % (component,))
    markers = diagram.component_markers()
    arc = diagram.first_arc(component)

    if arc in diagram.free_loops:
        base = max(list(diagram.edges) + list(diagram.free_loops), default=0)
        e1, e2 = base + 1, base + 2
        records = list(diagram.edge_crossings)
        records.append(EdgeCrossing(e1, e2, e2, e1, sign))
        loops = tuple(a for a in diagram.free_loops if a != arc)
        markers[component] = e1
        return LinkDiagram(records, free_loops=loops,
                           component_markers=markers)

    # first edge of the arc: the edge whose tail is the arc's underpass
    # start; for all-over cycles fall back to the smallest edge
    arc_edges = [e for e in diagram.edges if diagram.arc_of_edge[e] == arc]
    starts = [
        e for e in arc_edges
        if any(c.under_out == e for c in diagram.edge_crossings)
    ]
    e = min(starts) if starts else min(arc_edges)
    base = max(list(diagram.edges) + list(diagram.free_loops))
    e1, e2 = base + 1, base + 2
    records = []
    for c in diagram.edge_crossings:
        fields = list(c[:4])
        for slot in (0, 2):  # over_in, under_in: the head slots
            if fields[slot] == e:
                fields[slot] = e2
        records.append(EdgeCrossing(*fields, c.sign))
    records.append(EdgeCrossing(e, e1, e1, e2, sign))
    return LinkDiagram(records, free_loops=diagram.free_loops,
                       component_markers=markers)


def framed_family(diagram, period):
    """All framings over (Z_N)^c: for each residue vector w, the diagram
    with ((w_i - base_i) mod N) positive kinks added to component i."""
    if period < 1:
        raise ValidationError("period must be >= 1")
    base = diagram.writhe_vector()
    c = diagram.component_count
    family = {}
    for w in product(range(period), repeat=c):
        d = diagram
        for i in range(c):
            for _ in range((w[i] - base[i]) % period):
                d = add_kink(d, i, +1)
        family[w] = d
    return family


# -- PD export ------------------------------------------------------------


def pd_code(diagram):
    """Emit the diagram as PD text (plus an unknots suffix if needed).

    Edges are renumbered consecutively along each oriented component in
    component order, so parse_pd(pd_code(D)) reproduces the diagram up to
    edge names.
    """
    next_edge = {}
    for c in diagram.edge_crossings:
        next_edge[c.under_in] = c.under_out
        next_edge[c.over_in] = c.over_out
    number = {}
    counter = 1
    for i in range(diagram.component_count):
        comp_edges = [e for e in diagram.edges
                      if diagram.component_of[diagram.arc_of_edge[e]] == i]
        if not comp_edges:
            continue
        start = min(comp_edges)
        e = start
        while e not in number:
            number[e] = counter
            counter += 1
            e = next_edge[e]
    # a strand of at most two edges that never passes under reads the same
    # both ways round as the over-strand of X[a,b,c,d]: sign its crossings
    under = {diagram.arc_of_edge[c.under_in] for c in diagram.edge_crossings}
    quads = []
    for c in diagram.edge_crossings:
        a = number[c.under_in]
        out = number[c.under_out]
        if c.sign > 0:
            b, d = number[c.over_out], number[c.over_in]
        else:
            b, d = number[c.over_in], number[c.over_out]
        signed = (diagram.arc_of_edge[c.over_in] not in under
                  and next_edge[next_edge[c.over_in]] == c.over_in)
        quads.append("X%s[%d,%d,%d,%d]"
                     % ("+-"[c.sign < 0] if signed else "", a, b, out, d))
    text = " ".join(quads)
    if diagram.free_loops:
        suffix = "unknots: %d" % len(diagram.free_loops)
        return ("pd: %s; %s" % (text, suffix)) if text else suffix
    return "pd: %s" % text
