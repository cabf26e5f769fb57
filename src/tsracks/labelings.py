"""The labeling kernel: one search for the labelings of every framing.

A labeling of a framed diagram by a rack X assigns an element of X to
every arc so that at each positive crossing the outgoing under-arc carries
(under-in > over), and at each negative crossing (under-in >^{-1} over).
diagrams.framed_family defines the framing w by (w_i - writhe_i) mod N
kinks that add_kink puts at the start of component i's first arc, where
they carry the label x to pi^k(x), pi(x) = x > x.  So the diagram is
compiled once with a cut at each of those points (see _cut_open), and one
search finds every labeling of the cut-open diagram once, with the kink
counts k for which it holds (see labeling_orbits).  The search runs on
element indices, through the rack's integer view (see indexed).

For a (t,s)-rack, each c with (t+s)c = c makes x -> x + c a rack
automorphism that commutes with pi, since (x+c) > (y+c) = x > y + (t+s)c;
these c form a submodule F that acts freely on the labelings of every
framing of a nonempty diagram and keeps their kink counts.  So the
search gives its first seed one element of each coset of F only, and
finds one labeling per orbit; the count, writhe, additive and
s-enhancements read the orbits, and only enumerate_homs moves each
orbit's labeling by every shift.
The leaf limit still counts |X| values per seed: it bounds the plan, and
so the inputs refused, for every rack alike.
"""

from math import lcm
from types import SimpleNamespace

from .errors import ValidationError
from .modules import TSRack

# the most leaves a labeling plan may have; larger searches are refused
LEAF_LIMIT = 10 ** 8


def enumerate_homs(diagram, rack):
    """All labelings of the diagram by the rack, as dicts arc -> element:
    the labeling kernel with no cuts.  Deterministic output order: those
    found by the search, then their moves by each further shift."""
    order = diagram.arc_order()
    elements = indexed(rack).elements
    found, shifts = labeling_orbits(diagram, rack, 1)
    return [{a: elements[shift[i]] for a, i in zip(order, labels)}
            for shift in shifts for labels, _ in found]


def labeling_orbits(diagram, rack, period):
    """The one labeling search over all framings in (Z_period)^c, as
    (found, shifts).  found lists (labels, ks), one labeling per orbit of
    the shifts (see indexed): element indices per slot of
    _cut_open(diagram, period) and, per component, the k with
    out = pi^k(in) at its cut; the labeling belongs to every framing in
    the product of those k-sets, and so does each of its moves by a
    shift.  shifts is the identity alone for the empty diagram, whose one
    labeling is its own orbit.  Plans over LEAF_LIMIT leaves are refused.
    The search keeps the values left to try at each stage it entered."""
    comps, crossings, cuts = _cut_open(diagram, period)
    view = indexed(rack)
    tables, n = view.tables, len(view.elements)
    plan = _compile(n, period, crossings, cuts, len(comps))[1]
    # per element: its pi-cycle, its place on it, and per j the k in
    # Z_period with pi^k = pi^j there
    orbits = view.orbits.get(period)
    if orbits is None and cuts:
        classes = {m: [tuple(range(j, period, m)) for j in range(m)]
                   for m in {len(cycle) for cycle, _ in view.cycles}}
        orbits = view.orbits[period] = [(cycle, place, classes[len(cycle)])
                                        for cycle, place in view.cycles]
    labels = [0] * len(comps)
    ks = [(0,)] * diagram.component_count
    found, entered = ([], [iter(view.firsts)]) if plan else ([((), ())], [])
    while entered:
        (dst, src), steps, checks, ties = plan[len(entered) - 1]
        for labels[dst] in entered[-1]:
            for kind, over, s, d in steps:
                labels[d] = tables[kind][labels[over]][labels[s]]
            for kind, over, s, d in checks:
                if tables[kind][labels[over]][labels[s]] != labels[d]:
                    break
            else:
                for i, into, out in ties:
                    cycle, place, classes = orbits[labels[into]]
                    there = orbits[labels[out]]
                    if there[0] is not cycle:
                        break
                    ks[i] = classes[(there[1] - place) % len(cycle)]
                else:
                    if len(entered) < len(plan):  # enter the next stage
                        src = plan[len(entered)][0][1]
                        entered.append(iter(range(n) if src is None
                                            else orbits[labels[src]][0]))
                        break
                    found.append((tuple(labels), tuple(ks)))
        else:
            entered.pop()
    return found, view.shifts if plan else view.shifts[:1]


def _cut_open(diagram, period):
    """(comps, crossings, cuts): the component of each slot (the arcs in
    arc_order(), then the cut ones), each crossing as [sign, over,
    under_in, under_out] slots and, when period > 1, one cut (component,
    in, out) per component where add_kink puts its kinks: the first arc
    keeps its over and under-in roles (out), and the under-out role of
    the crossing it starts at moves to a new slot (in).  A first arc that
    starts at no crossing keeps one slot, and x = pi^k(x) there."""
    order = diagram.arc_order()
    pos = {a: i for i, a in enumerate(order)}
    comps = [diagram.component_of[a] for a in order]
    crossings = [[c.sign, pos[c.over], pos[c.under_in], pos[c.under_out]]
                 for c in diagram.crossings]
    cuts = []
    for i in range(diagram.component_count if period > 1 else 0):
        out = into = pos[diagram.first_arc(i)]
        for x in crossings:
            if x[3] == out:
                into = x[3] = len(comps)
                comps.append(i)
        cuts.append((i, into, out))
    return comps, crossings, cuts


def _compile(n, period, crossings, cuts, size):
    """(leaves, plan) for a cut-open diagram, plan a list of (branch,
    steps, checks, ties).  A branch (dst, src) gives slot dst every
    element (a seed, src None), or at a cut whose side src is known each
    element of src's pi-cycle, and the cut becomes a tie.  A step or
    check (kind, over, src, dst) reads dst = src > over, or src >^{-1}
    over when kind is odd; kinds 2 and 3 mark a kink (over is src).  Steps
    force labels, forward from under-in or back from under-out; checks
    test crossings with three known labels, ties (comp, in, out) cuts
    with two.  Each seed (n leaves) is the unlabelled slot whose label
    forces the most others, the earliest on ties, unless a cut's unknown
    side forces as many and period <= n (period leaves, the first such
    cut); only slots on the frontier are tried.  A plan is refused
    (ValidationError) as soon as its leaves pass LEAF_LIMIT."""
    m = len(crossings)
    touching = [[] for _ in range(size)]
    for k, relation in enumerate(crossings + cuts):
        for a in set(relation[1:]):
            touching[a].append(k)

    def propagate(seed, known, used):
        steps, checks, ties = [], [], []
        known.add(seed)
        queue = list(touching[seed])
        while queue:
            k = queue.pop()
            if k in used:
                continue
            if k >= m:
                if known.issuperset(cuts[k - m][1:]):
                    used.add(k)
                    ties.append(cuts[k - m])
                continue
            sign, over, under_in, under_out = crossings[k]
            if over not in known:
                continue
            if under_in in known:
                inverse, src, dst = sign < 0, under_in, under_out
            elif under_out in known:
                inverse, src, dst = sign > 0, under_out, under_in
            else:
                continue
            used.add(k)
            step = (inverse + 2 * (over == src), over, src, dst)
            if dst in known:
                checks.append(step)
            else:
                steps.append(step)
                known.add(dst)
                queue.extend(touching[dst])
        return steps, checks, ties, known, used

    known, used, plan, leaves, first = set(), set(), [], 1, 0
    while len(known) < size:
        # a crossing is used once its over slot and an under end are known,
        # so only an under end below a known over slot, or an over slot with
        # a known under end or on a kink, can force a label: the frontier
        frontier, forced, trials = set(), set(), {}
        for _, over, under_in, under_out in crossings:
            if over not in known:
                if (under_in in known or under_out in known
                        or over in (under_in, under_out)):
                    frontier.add(over)
            elif under_in not in known and under_out not in known:
                frontier.update((under_in, under_out))
        while first in known:
            first += 1
        loose = [(out, into) if into in known else (into, out)
                 for _, into, out in cuts
                 if period <= n and (into in known) != (out in known)]
        # the most slots forced, a cut over a seed (not an earlier cut) on
        # ties; a slot an earlier trial forced forces no more and loses the
        # tie.  If none forces a slot, the first cut or the earliest slot
        for branch in loose + [(a, None) for a in sorted(frontier)]:
            if branch[0] in frontier and branch[0] not in forced:
                trials[branch] = propagate(branch[0], set(known), set(used))
                forced |= trials[branch][3]
        branch = max(trials, key=lambda b: (len(trials[b][0]),
                                            b[1] is not None), default=None)
        if branch is None or not trials[branch][0]:
            branch = loose[0] if loose else (first, None)
        leaves *= n if branch[1] is None else period
        if leaves > LEAF_LIMIT:
            raise ValidationError("labeling search refused: its plan passes "
                                  "the limit of %d leaves" % LEAF_LIMIT)
        *stage, known, used = (trials.get(branch)
                               or propagate(branch[0], known, used))
        plan.append((branch, *stage))
    return leaves, plan


def indexed(rack):
    """The rack on element indices, built once and kept on the rack as
    _indexed, a namespace of
    - elements, and index (element -> its index);
    - tables: tables[0][j] the column i -> index of elements[i] >
      elements[j], tables[1][j] the same for >^{-1}, each built on first
      use; tables[2] and tables[3] give every j the diagonal i -> index of
      elements[i] > elements[i] (and >^{-1}), all a kink step reads;
    - cycles, each element's pi-cycle and its place on it; rank, the lcm
      of their lengths; orbits, labeling_orbits' tie table per period;
    - shifts, the columns of x -> x + c for c in F = ker(t+s-1) of a
      TSRack, identity first, or the identity alone for any other rack;
      firsts, the least element index of each coset;
    - for a TSRack only: add, the columns of x -> x + c, built on first
      use; orders, the additive orders; weights, additive_enhanced's."""
    view = vars(rack).get("_indexed")
    if view is None:
        elements = tuple(rack.elements)
        index = {x: i for i, x in enumerate(elements)}
        ops = (rack.op, rack.op_inv)
        tables = [_Columns(op, elements, index) for op in ops]
        tables += [[[index[op(x, x)] for x in elements]] * len(elements)
                   for op in ops]
        view = SimpleNamespace(
            elements=elements, index=index, tables=tables,
            cycles=[None] * len(elements), orbits={})
        for x, there in enumerate(view.cycles):
            if there is None:
                cycle = [x]
                while tables[2][0][cycle[-1]] != x:
                    cycle.append(tables[2][0][cycle[-1]])
                for place, y in enumerate(cycle):
                    view.cycles[y] = cycle, place
        view.rank = lcm(*{len(cycle) for cycle, _ in view.cycles})
        if isinstance(rack, TSRack):
            view.add = _Columns(rack.group.add, elements, index)
            view.orders = [rack.group.element_order(x) for x in elements]
            view.weights = {}
            view.shifts = [view.add[c] for c, x in enumerate(elements)
                           if rack.ts_map[x] == x]
        else:
            view.shifts = [list(range(len(elements)))]
        view.firsts, seen = [], set()
        for x in range(len(elements)):
            if x not in seen:
                view.firsts.append(x)
                seen.update(shift[x] for shift in view.shifts)
        rack._indexed = view
    return view


class _Columns(dict):
    """Columns of one rack operation on element indices, built on demand."""

    def __init__(self, op, elements, index):
        super().__init__()
        self.op, self.elements, self.index = op, elements, index

    def __missing__(self, j):
        op, index, y = self.op, self.index, self.elements[j]
        column = self[j] = [index[op(x, y)] for x in self.elements]
        return column

