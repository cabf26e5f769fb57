"""Labeling enumeration and the link invariants built from it.

A labeling of a framed diagram by a rack X assigns an element of X to
every arc so that at each positive crossing the outgoing under-arc carries
(under-in > over), and at each negative crossing (under-in >^{-1} over).
Labelings correspond to rack homomorphisms from the fundamental rack of
the framed diagram into X.

The counting invariant sums labeling counts over a full period of
framings (Z_N)^c, N the rack rank of X.  The enhancements refine the
count: by the framing vector (writhe-enhanced), by the additive closure
of the labels (additive enhancement, needs the module structure), or by
the projected labeling under multiplication by s (s-enhancement).
"""

from collections import Counter
from itertools import product

from .errors import ConsistencyError, WrongStructureError
from .groups import invariant_factors, subgroup_closure
from .modules import TSRack, s_submodule
from .polynomials import InvariantPolynomial
from .racks import rack_rank
from .diagrams import framed_family


def rack_rank_of(rack):
    if isinstance(rack, TSRack):
        return rack.rack_rank()
    return rack_rank(rack)[0]


# -- labeling enumeration --------------------------------------------------


def enumerate_homs(diagram, rack):
    """All labelings of the diagram by the rack, as dicts arc -> element.

    The one labeling kernel, for every kind of rack.  The diagram is
    compiled once into a plan (see _compile) whose only choices are its
    seed arcs; the plan runs on element indices through the rack's
    operation columns (see _columns).  Deterministic output order.
    """
    order = diagram.arc_order()
    elements, tables = _columns(rack)
    plan = _compile(diagram, order)
    labels = [0] * len(order)
    results = []

    def run(stage):
        if stage == len(plan):
            results.append({a: elements[i] for a, i in zip(order, labels)})
            return
        seed, steps, checks = plan[stage]
        for value in range(len(elements)):
            labels[seed] = value
            for kind, over, src, dst in steps:
                labels[dst] = tables[kind][labels[over]][labels[src]]
            for kind, over, src, dst in checks:
                if tables[kind][labels[over]][labels[src]] != labels[dst]:
                    break
            else:
                run(stage + 1)

    run(0)
    return results


def _compile(diagram, order):
    """The labeling plan of a diagram: a list of (seed, steps, checks),
    arcs given by their position in ``order``.  A step or check
    (kind, over, src, dst) reads dst = src > over, or src >^{-1} over
    when kind is odd; kinds 2 and 3 mark a kink (over is src).  Once the
    seed holds a label, each step forces a new label, forward from
    under-in or back from under-out, and each check tests a crossing whose
    three labels are known; every crossing is used exactly once.  Each
    seed is the unlabelled arc whose label forces the most others, the
    earliest in ``order`` on ties.
    """
    pos = {a: i for i, a in enumerate(order)}
    crossings = [(c.sign, pos[c.over], pos[c.under_in], pos[c.under_out])
                 for c in diagram.crossings]
    touching = [[] for _ in order]
    for k, (_, over, under_in, under_out) in enumerate(crossings):
        for a in {over, under_in, under_out}:
            touching[a].append(k)

    def propagate(seed, known, used):
        steps, checks = [], []
        known.add(seed)
        queue = list(touching[seed])
        while queue:
            k = queue.pop()
            sign, over, under_in, under_out = crossings[k]
            if k in used or over not in known:
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
        return steps, checks

    known, used, plan = set(), set(), []
    while len(known) < len(order):
        seed = max((a for a in range(len(order)) if a not in known),
                   key=lambda a: len(propagate(a, set(known), set(used))[0]))
        plan.append((seed, *propagate(seed, known, used)))
    return plan


def _columns(rack):
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


def enumerate_homs_linear(diagram, rack):
    """Independent linear-algebra cross-check of enumerate_homs for
    module racks (acceptance criterion 7): the crossing relations are
    linear in the labels, so propagate coefficient matrices along the
    arc order, try every value of the free arcs and keep those that meet
    the constraints of the remaining crossings.  Not a fast path: it filters |X|^free
    candidates.  Same set of labelings as enumerate_homs.
    """
    if not isinstance(rack, TSRack):
        raise WrongStructureError("linear solving needs a module rack")
    group = rack.group
    k = group.rank
    t_mat = _map_matrix(rack, rack.t_map)
    t_inv_mat = _map_matrix(rack, rack.t_inv_map)
    s_mat = _map_matrix(rack, rack.s_map)

    order = diagram.arc_order()
    coeffs, constraints, pending = {}, [], list(diagram.crossings)
    free = 0

    def op(a, b, sign):
        """Coefficients of a > b when sign > 0, else of a >^{-1} b."""
        sb = _mmul(s_mat, coeffs[b], group)
        if sign > 0:
            return _madd(_mmul(t_mat, coeffs[a], group), sb, group)
        return _mmul(t_inv_mat, _msub(coeffs[a], sb, group), group)

    while pending or len(coeffs) < len(order):
        still = []
        for c in pending:
            if c.over in coeffs and c.under_in in coeffs:
                want = op(c.under_in, c.over, c.sign)
                if c.under_out in coeffs:
                    constraints.append(_msub(want, coeffs[c.under_out], group))
                else:
                    coeffs[c.under_out] = want
            elif c.over in coeffs and c.under_out in coeffs:
                coeffs[c.under_in] = op(c.under_out, c.over, -c.sign)
            else:
                still.append(c)
        if len(still) == len(pending):
            # nothing was forced: the next unknown arc in order is free;
            # shorter rows read as zero-padded (_apply zips)
            for a in coeffs:
                coeffs[a] = [row + [0] * k for row in coeffs[a]]
            arc = next(a for a in order if a not in coeffs)
            coeffs[arc] = [[0] * (k * free) + [int(r == c) for c in range(k)]
                           for r in range(k)]
            free += 1
        pending = still

    results = []
    carrier = set(rack.carrier)
    for choice in product(rack.carrier, repeat=free):
        xi = [v for vec in choice for v in vec]
        if any(_apply(mat, xi, group) != group.zero for mat in constraints):
            continue
        labeling = {a: _apply(coeffs[a], xi, group) for a in coeffs}
        if not all(v in carrier for v in labeling.values()):
            raise ConsistencyError("linear solve left the carrier")
        results.append(labeling)
    return results


def _map_matrix(rack, mapping):
    """Matrix of an additive map from its values on the unit vectors."""
    k = rack.group.rank
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    if not all(e in mapping for e in units):
        # a proper-subgroup carrier need not contain the unit vectors
        raise WrongStructureError("linear path needs the full group as carrier")
    return [[mapping[e][i] for e in units] for i in range(k)]


def _mmul(m, a, group):
    k = group.rank
    width = len(a[0]) if a else 0
    out = [[0] * width for _ in range(k)]
    for i in range(k):
        mi = group.moduli[i]
        for l in range(k):
            if m[i][l]:
                for j in range(width):
                    out[i][j] = (out[i][j] + m[i][l] * a[l][j]) % mi
    return out


def _madd(a, b, group):
    return [[(x + y) % group.moduli[i] for x, y in zip(ra, rb)]
            for i, (ra, rb) in enumerate(zip(a, b))]


def _msub(a, b, group):
    return [[(x - y) % group.moduli[i] for x, y in zip(ra, rb)]
            for i, (ra, rb) in enumerate(zip(a, b))]


def _apply(mat, xi, group):
    return tuple(
        sum(mij * xj for mij, xj in zip(row, xi)) % group.moduli[i]
        for i, row in enumerate(mat)
    )


# -- invariants ------------------------------------------------------------


class EnhancedMultiset:
    """Multiset of labeling signatures.

    Entries are invariant-factor tuples for the additive enhancement and
    fiber cardinalities for the s-enhancement.
    """

    def __init__(self, entries=()):
        self._counts = Counter(entries)

    def add(self, entry, count=1):
        self._counts[entry] += count

    def entries(self):
        out = []
        for entry in sorted(self._counts):
            out.extend([entry] * self._counts[entry])
        return out

    def total(self):
        return sum(self._counts.values())

    def counts(self):
        return dict(self._counts)

    def __eq__(self, other):
        return (isinstance(other, EnhancedMultiset)
                and self._counts == other._counts)

    def __repr__(self):
        return "EnhancedMultiset(%r)" % (self.entries(),)

    def to_record(self):
        return [[list(e) if isinstance(e, tuple) else e, c]
                for e, c in sorted(self._counts.items(), key=lambda kv: kv[0])]


def counting_invariant(diagram, rack):
    """Total labelings over a complete period of framings (Z_N)^c."""
    period = rack_rank_of(rack)
    family = framed_family(diagram, period)
    return sum(len(enumerate_homs(d, rack)) for d in family.values())


def writhe_enhanced(diagram, rack):
    """Labeling counts kept separate per framing vector, as coefficients
    of q_1^{w_1}...q_c^{w_c}."""
    period = rack_rank_of(rack)
    family = framed_family(diagram, period)
    terms = Counter()
    for w, d in sorted(family.items()):
        terms[0, w] += len(enumerate_homs(d, rack))
    return InvariantPolynomial(terms)


def _require_module(rack):
    if not isinstance(rack, TSRack):
        raise WrongStructureError(
            "this enhancement needs the module structure, not just the "
            "rack matrix")


def image_subrack(rack, labels):
    """Smallest subset containing the labels and closed under > and >^{-1}:
    the image of the labeling as a homomorphism, not just its values on
    the generators.

    Each right translation x -> x > y is a rack automorphism, so the
    translation by a > b is a conjugate of those by a and b: closing the
    labels under the translations by the labels alone closes them under
    the whole subrack, and in a finite rack under >^{-1} as well.  Runs
    on element indices through the rack's operation columns (see
    _columns).
    """
    elements, tables = _columns(rack)
    index = tables[0].index
    columns = [tables[0][index[y]] for y in labels]
    out = {index[x] for x in labels}
    frontier = list(out)
    while frontier:
        i = frontier.pop()
        for column in columns:
            k = column[i]
            if k not in out:
                out.add(k)
                frontier.append(k)
    return {elements[k] for k in out}


def additive_enhanced(diagram, rack, use_linear_path=False):
    """Additive enhancement: each labeling contributes u^{|AC(Im f)|}
    where Im f is the subrack its labels generate and AC the subgroup
    generated by that; the multiset keeps the invariant factors of those
    subgroups.

    For racks on cyclic groups the subrack closure adds nothing (t and s
    act as integer multiples), so AC(Im f) is just the subgroup generated
    by the arc labels there.

    The weight depends only on the set of labels, so each distinct label
    set over all framings is enhanced once, and each distinct image
    subrack gets its closure and invariant factors once; both memos live
    only for this call.

    The labelings come from enumerate_homs, or with use_linear_path from
    the linear-algebra cross-check enumerate_homs_linear; both give the
    same set.
    """
    _require_module(rack)
    period = rack.rack_rank()
    family = framed_family(diagram, period)
    solver = enumerate_homs_linear if use_linear_path else enumerate_homs
    label_sets = Counter(frozenset(f.values())
                         for _, d in sorted(family.items())
                         for f in solver(d, rack))
    terms = Counter()
    multiset = EnhancedMultiset()
    weights = {}
    for labels, count in label_sets.items():
        image = frozenset(image_subrack(rack, labels))
        if image not in weights:
            closure = subgroup_closure(rack.group, image)
            weights[image] = (len(closure),
                              tuple(invariant_factors(rack.group, closure)))
        size, factors = weights[image]
        terms[size, ()] += count
        multiset.add(factors, count)
    return InvariantPolynomial(terms), multiset


def s_enhanced(diagram, rack, split_fibers=True):
    """s-enhancement: group labelings by their projection to the
    subquandle sX (multiply every label by s) and record fiber sizes.

    Projections of valid labelings are valid sX-labelings; sX-labelings
    with empty fiber are not counted (they would add spurious constant
    terms the fiber structure does not contain).

    With split_fibers=True (the default, and the reading that reproduces
    the reference value tables) each fiber is further broken up along
    the link components: lifts are bucketed by the last component on
    which they differ from the least lift, the least lift itself counting
    toward the last component's bucket, and each bucket contributes its
    own u^size term.  For knots this coincides with the plain fiber count.
    With split_fibers=False every fiber contributes a single term
    u^{|fiber|}.
    """
    _require_module(rack)
    sub = s_submodule(rack)
    period = rack.rack_rank()
    family = framed_family(diagram, period)
    terms = Counter()
    multiset = EnhancedMultiset()
    for w, d in sorted(family.items()):
        arcs = d.arc_order()
        fibers = {}
        for f in enumerate_homs(d, rack):
            projected = tuple(rack.s_map[f[a]] for a in arcs)
            fibers.setdefault(projected, []).append(
                tuple(f[a] for a in arcs))
        sub_labelings = {
            tuple(g[a] for a in arcs) for g in enumerate_homs(d, sub)
        }
        if not set(fibers) <= sub_labelings:
            raise ConsistencyError(
                "an s-projected labeling is not an sX-labeling")
        for g in sorted(fibers):
            lifts = sorted(fibers[g])
            if split_fibers:
                sizes = _component_buckets(d, arcs, lifts)
            else:
                sizes = [len(lifts)]
            for size in sizes:
                terms[size, ()] += 1
                multiset.add(size)
    return InvariantPolynomial(terms), multiset


def _component_buckets(diagram, arcs, lifts):
    """Split a fiber by the last component where a lift leaves the least
    lift; the least lift itself lands in the final component's bucket."""
    comp = diagram.component_of
    base = lifts[0]
    buckets = Counter()
    for lift in lifts[1:]:
        last = max(comp[a] for a, x, y in zip(arcs, lift, base) if x != y)
        buckets[last] += 1
    buckets[diagram.component_count - 1] += 1
    return [buckets[k] for k in sorted(buckets)]


def recover_counting_from_additive(poly):
    """Evaluate at u = 1."""
    return poly.evaluate_u1()


def recover_counting_from_s(poly):
    """Sum coefficient times exponent."""
    return poly.coeff_exponent_sum()
