"""The labeling kernel: one search for the labelings of every framing.

A labeling of a framed diagram by a rack X assigns an element of X to
every arc so that at each positive crossing the outgoing under-arc carries
(under-in > over), and at each negative crossing (under-in >^{-1} over).
diagrams.framed_family defines the framing w by (w_i - writhe_i) mod N
kinks that add_kink puts at the start of component i's first arc, where
they carry the label x to pi^k(x), pi(x) = x > x.  So the diagram is
compiled once with a cut at each of those points (see _cut_open), and one
search finds every labeling of the cut-open diagram once, with the kink
counts k for which it holds (see framed_labelings).  The search runs on
element indices through the rack's operation columns.
"""

from .errors import ValidationError

# the most leaves a labeling plan may have; larger searches are refused
LEAF_LIMIT = 10 ** 8


def enumerate_homs(diagram, rack):
    """All labelings of the diagram by the rack, as dicts arc -> element:
    the labeling kernel with no cuts.  Deterministic output order."""
    order = diagram.arc_order()
    elements = operation_columns(rack)[0]
    return [{a: elements[i] for a, i in zip(order, labels)}
            for labels, _ in framed_labelings(diagram, rack, 1)[1]]


def framed_labelings(diagram, rack, period):
    """The one labeling kernel: the labelings of all framings in
    (Z_period)^c by one search, as (_cut_open(diagram, period), found).
    found lists (labels, ks): element indices per slot and, per
    component, the k with out = pi^k(in) at its cut; the labeling belongs
    to every framing in the product of those k-sets.  Plans over
    LEAF_LIMIT leaves are refused."""
    cut = _cut_open(diagram, period)
    comps, crossings, cuts = cut
    elements, tables = operation_columns(rack)
    leaves, plan = _compile(len(elements), period, crossings, cuts,
                            len(comps))
    if leaves > LEAF_LIMIT:
        raise ValidationError("labeling search of %d leaves refused, the "
                              "limit is %d" % (leaves, LEAF_LIMIT))
    # per element: its pi-cycle, its place on it, and per j the k in
    # Z_period with pi^k = pi^j there
    orbits = [None] * len(elements)
    for x in range(len(elements) if cuts else 0):
        if orbits[x] is None:
            cycle = [x]
            while tables[2][0][cycle[-1]] != x:
                cycle.append(tables[2][0][cycle[-1]])
            classes = [tuple(range(j, period, len(cycle)))
                       for j in range(len(cycle))]
            for place, y in enumerate(cycle):
                orbits[y] = cycle, place, classes
    seeds = range(len(elements))
    labels = [0] * len(comps)
    ks = [(0,)] * diagram.component_count
    found = []

    def run(stage):
        if stage == len(plan):
            found.append((tuple(labels), tuple(ks)))
            return
        (dst, src), steps, checks, ties = plan[stage]
        for value in orbits[labels[src]][0] if src is not None else seeds:
            labels[dst] = value
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
                    run(stage + 1)

    run(0)
    return cut, found


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
    with two.  Each seed is the unlabelled slot whose label forces the
    most others, the earliest on ties.  Of the plans that never and that
    always branch at a cut, the one with fewer leaves is kept (n per seed,
    period per cut branch): the trefoil needs two seeds either way."""
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
        return steps, checks, ties

    def build(branch_at_cuts):
        known, used, plan, leaves = set(), set(), [], 1
        while len(known) < size:
            loose = [(out, into) if into in known else (into, out)
                     for _, into, out in cuts
                     if branch_at_cuts and (into in known) != (out in known)]
            if loose:
                branch, leaves = loose[0], leaves * period
            else:
                dst = max((a for a in range(size) if a not in known),
                          key=lambda a: len(propagate(a, set(known),
                                                      set(used))[0]))
                branch, leaves = (dst, None), leaves * n
            plan.append((branch, *propagate(branch[0], known, used)))
        return leaves, plan

    plans = [build(False)] + ([build(True)] if cuts else [])
    return min(plans, key=lambda p: p[0])


def operation_columns(rack):
    """(elements, tables) for the rack, kept on the rack.  tables[0][j] is
    the column i -> index of elements[i] > elements[j] and tables[1][j]
    the same for >^{-1}, each built on first use.  tables[2] and tables[3]
    give every j the diagonal i -> index of elements[i] > elements[i] (and
    >^{-1}), which is all a kink step reads."""
    if not hasattr(rack, "_label_columns"):
        elements = tuple(rack.elements)
        index = {x: i for i, x in enumerate(elements)}
        ops = (rack.op, rack.op_inv)
        tables = [_Columns(op, elements, index) for op in ops]
        tables += [[[index[op(x, x)] for x in elements]] * len(elements)
                   for op in ops]
        rack._label_columns = elements, tables
    return rack._label_columns


class _Columns(dict):
    """Columns of one rack operation on element indices, built on demand."""

    def __init__(self, op, elements, index):
        super().__init__()
        self.op, self.elements, self.index = op, elements, index

    def __missing__(self, j):
        y = self.elements[j]
        column = self[j] = [self.index[self.op(x, y)] for x in self.elements]
        return column


def holds(tables, g, k, crossings, cuts):
    """Whether the slot labels g, element indices of the rack with
    operation columns ``tables`` (None for a label outside it), hold at
    every crossing and at every cut with k[i] kinks on component i."""
    if None in g:
        return False
    for i, into, out in cuts:
        x = g[into]
        for _ in range(k[i]):
            x = tables[2][0][x]
        if x != g[out]:
            return False
    return all(tables[sign < 0][g[over]][g[src]] == g[dst]
               for sign, over, src, dst in crossings)
