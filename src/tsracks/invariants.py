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

    Backtracking over arc labels with forward propagation: once an
    under-in arc and its over arc hold labels the outgoing arc is forced
    (and symmetrically through the inverse operation), so the free choices
    are roughly one arc per component.  Deterministic output order.
    """
    order = diagram.arc_order()
    crossings = diagram.crossings
    touching = {a: [] for a in diagram.arcs}
    for idx, c in enumerate(crossings):
        for a in {c.over, c.under_in, c.under_out}:
            touching[a].append(idx)
    elements = list(rack.elements)
    labels = {}
    results = []

    def derive(c):
        """Forced label (arc, value) from a crossing, or 'clash'/None."""
        ov = labels.get(c.over)
        ui = labels.get(c.under_in)
        uo = labels.get(c.under_out)
        if ov is None:
            return None
        if ui is not None:
            want = rack.op(ui, ov) if c.sign > 0 else rack.op_inv(ui, ov)
            if uo is None:
                return (c.under_out, want)
            return None if uo == want else "clash"
        if uo is not None:
            want = rack.op_inv(uo, ov) if c.sign > 0 else rack.op(uo, ov)
            return (c.under_in, want)
        return None

    def propagate(seed_arcs):
        queue = [idx for a in seed_arcs for idx in touching[a]]
        assigned = []
        while queue:
            c = crossings[queue.pop()]
            got = derive(c)
            if got == "clash":
                return assigned, False
            if got is None:
                continue
            arc, value = got
            labels[arc] = value
            assigned.append(arc)
            queue.extend(touching[arc])
        return assigned, True

    def search(pos):
        while pos < len(order) and order[pos] in labels:
            pos += 1
        if pos == len(order):
            results.append(dict(labels))
            return
        arc = order[pos]
        for value in elements:
            labels[arc] = value
            assigned, ok = propagate([arc])
            if ok:
                search(pos + 1)
            for a in assigned:
                del labels[a]
            del labels[arc]

    search(0)
    return results


def enumerate_homs_linear(diagram, rack):
    """Fast path for module racks: the crossing relations are linear in
    the labels, so propagate coefficient matrices along the same traversal
    and enumerate only the free arcs, filtering by the closure constraints.

    Output agrees with enumerate_homs dict-for-dict; the generic
    backtracking path stays the oracle.
    """
    if not isinstance(rack, TSRack):
        raise WrongStructureError("linear solving needs a module rack")
    group = rack.group
    k = group.rank
    t_mat = _map_matrix(rack, rack.t_map)
    t_inv_mat = _map_matrix(rack, rack.t_inv_map)
    s_mat = _map_matrix(rack, rack.s_map)

    order = diagram.arc_order()
    crossings = list(diagram.crossings)
    free_arcs = []
    coeffs = {}
    constraints = []

    def known(a):
        return a in coeffs

    progress = True
    pending = list(crossings)
    pos = 0
    while pending or pos < len(order):
        if progress:
            progress = False
            still = []
            for c in pending:
                ov, ui, uo = c.over, c.under_in, c.under_out
                if known(ov) and known(ui) and known(uo):
                    if c.sign > 0:
                        lhs = _madd(_mmul(t_mat, coeffs[ui], group),
                                    _mmul(s_mat, coeffs[ov], group), group)
                    else:
                        lhs = _mmul(
                            t_inv_mat,
                            _msub(coeffs[ui],
                                  _mmul(s_mat, coeffs[ov], group), group),
                            group)
                    constraints.append(_msub(lhs, coeffs[uo], group))
                    progress = True
                elif known(ov) and known(ui):
                    if c.sign > 0:
                        coeffs[uo] = _madd(
                            _mmul(t_mat, coeffs[ui], group),
                            _mmul(s_mat, coeffs[ov], group), group)
                    else:
                        coeffs[uo] = _mmul(
                            t_inv_mat,
                            _msub(coeffs[ui],
                                  _mmul(s_mat, coeffs[ov], group), group),
                            group)
                    progress = True
                elif known(ov) and known(uo):
                    if c.sign > 0:
                        coeffs[ui] = _mmul(
                            t_inv_mat,
                            _msub(coeffs[uo],
                                  _mmul(s_mat, coeffs[ov], group), group),
                            group)
                    else:
                        coeffs[ui] = _madd(
                            _mmul(t_mat, coeffs[uo], group),
                            _mmul(s_mat, coeffs[ov], group), group)
                    progress = True
                else:
                    still.append(c)
            pending = still
            continue
        # introduce the next free arc
        while pos < len(order) and known(order[pos]):
            pos += 1
        if pos == len(order):
            break
        arc = order[pos]
        j = len(free_arcs)
        free_arcs.append(arc)
        for a in coeffs:
            coeffs[a] = [row + [0] * k for row in coeffs[a]]
        block = [[0] * (k * j) + [1 if r == c else 0 for c in range(k)]
                 for r in range(k)]
        coeffs[arc] = block
        progress = True

    width = k * len(free_arcs)
    for a in coeffs:
        rows = coeffs[a]
        coeffs[a] = [row + [0] * (width - len(row)) for row in rows]
    constraints = [
        [row + [0] * (width - len(row)) for row in mat] for mat in constraints
    ]

    results = []
    carrier = set(rack.carrier)
    for choice in product(rack.carrier, repeat=len(free_arcs)):
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
    group = rack.group
    k = group.rank
    cols = []
    for j in range(k):
        e = tuple(1 if i == j else 0 for i in range(k))
        if e in mapping:
            cols.append(mapping[e])
        else:
            # carrier is a proper subgroup; fall back to any generators
            raise WrongStructureError(
                "linear path needs the full group as carrier")
    return [[cols[j][i] for j in range(k)] for i in range(k)]


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
    poly = InvariantPolynomial()
    for w, d in sorted(family.items()):
        count = len(enumerate_homs(d, rack))
        if count:
            poly = poly + InvariantPolynomial.q_term(w, count)
    return poly


def _require_module(rack):
    if not isinstance(rack, TSRack):
        raise WrongStructureError(
            "this enhancement needs the module structure, not just the "
            "rack matrix")


def image_subrack(rack, labels):
    """Smallest subset containing the labels and closed under > and >^{-1}:
    the image of the labeling as a homomorphism, not just its values on
    the generators."""
    out = set(labels)
    frontier = list(out)
    while frontier:
        x = frontier.pop()
        for y in list(out):
            for z in (rack.op(x, y), rack.op(y, x),
                      rack.op_inv(x, y), rack.op_inv(y, x)):
                if z not in out:
                    out.add(z)
                    frontier.append(z)
    return out


def additive_enhanced(diagram, rack, use_linear_path=False):
    """Additive enhancement: each labeling contributes u^{|AC(Im f)|}
    where Im f is the subrack its labels generate and AC the subgroup
    generated by that; the multiset keeps the invariant factors of those
    subgroups.

    For racks on cyclic groups the subrack closure adds nothing (t and s
    act as integer multiples), so AC(Im f) is just the subgroup generated
    by the arc labels there.
    """
    _require_module(rack)
    period = rack.rack_rank()
    family = framed_family(diagram, period)
    poly = InvariantPolynomial()
    multiset = EnhancedMultiset()
    solver = enumerate_homs_linear if use_linear_path else enumerate_homs
    for w, d in sorted(family.items()):
        for f in solver(d, rack):
            image = image_subrack(rack, set(f.values()))
            closure = subgroup_closure(rack.group, image)
            poly = poly + InvariantPolynomial.u_term(len(closure))
            multiset.add(tuple(invariant_factors(rack.group, closure)))
    return poly, multiset


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
    poly = InvariantPolynomial()
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
                poly = poly + InvariantPolynomial.u_term(size)
                multiset.add(size)
    return poly, multiset


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
