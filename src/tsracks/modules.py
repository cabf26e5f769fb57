"""(t,s)-racks: rack structures on finite modules.

A (t,s)-rack is a finite abelian group A with a commuting pair of
endomorphisms t (invertible) and s satisfying s^2 = (Id - t)s.  The rack
operation is x > y = t(x) + s(y), with inverse x >^{-1} y = t^{-1}(x - s(y)),
and the kink map is multiplication by t + s.  When s = Id - t the rack is a
quandle (an Alexander quandle).

The isomorphism machinery implements two classification criteria:

* Alexander quandles: M and M' are isomorphic as quandles iff |M| = |M'| and
  (1-t)M and (1-t)M' are isomorphic as Z[t^{+-1}]-modules.

* General (t,s)-racks: X and Y are isomorphic as racks iff there is a module
  isomorphism h : sX -> sY together with coset-representative sets A, B for
  X/sX and Y/sY and a bijection g between the (t+s)-orbit sets of A and B
  satisfying h(s a) = s g(a) and g((t+s)a + w) = (t+s)g(a) + h(w).

Both directions of the general criterion are exercised against brute-force
rack isomorphism search in the test suite; a found certificate is always
re-verified end to end as a rack isomorphism, and a failure raises
ConsistencyError.
"""

from dataclasses import dataclass
from itertools import accumulate, product
from math import gcd, lcm

from .errors import (
    ConsistencyError,
    NotInvertibleError,
    RelationViolationError,
    ValidationError,
    WrongStructureError,
)
from .groups import AbelianGroup, QuotientRing
from .racks import FiniteRack, cycle_lengths, inverse_matrix


class TSRack:
    """A (t,s)-rack on a carrier subset of an ambient abelian group.

    For racks built by the constructors below the carrier is the whole
    group; s_submodule() produces carriers that are proper subgroups.
    t_map / s_map are dictionaries on the carrier.
    """

    def __init__(self, group, t_map, s_map, carrier=None, spec=None):
        self.group = group
        self.carrier = tuple(sorted(carrier if carrier is not None
                                    else group.elements()))
        self.t_map = dict(t_map)
        self.s_map = dict(s_map)
        self.spec = spec
        self._validate()
        self.t_inv_map = {v: k for k, v in self.t_map.items()}
        self.ts_map = {x: group.add(self.t_map[x], self.s_map[x])
                       for x in self.carrier}

    # -- structure checks ------------------------------------------------

    def _validate(self):
        g = self.group
        cset = set(self.carrier)
        if g.zero not in cset:
            raise ValidationError("carrier must contain 0")
        # The span of the generating sequence holds every carrier element
        # reduced, so the carrier is closed under + iff it holds the span.
        # A map m with m(0) = 0 is additive iff m(y + e) = m(y) + m(e) on
        # the edges that grew the span.  Each new element is reached from
        # y in the earlier span W along y, y + e, ..., y + ce with c < r,
        # r the order of e modulo W, so m(y + ce) = m(y) + c m(e); the
        # closing edge ((r-1)e, e, re) gives m(re) = r m(e), so that
        # extension of m from W is well defined and additive.
        _, span, edges = _generating_sequence(self)
        if not span.keys() <= cset:
            raise ValidationError("carrier is not closed under +")
        for m, name in ((self.t_map, "t"), (self.s_map, "s")):
            if set(m) != cset or any(v not in cset for v in m.values()):
                raise ValidationError("%s-action must map carrier to carrier"
                                      % name)
            if m[g.zero] != g.zero:
                raise ValidationError("%s-action must fix 0" % name)
            if any(m[z] != g.add(m[y], m[e]) for y, e, z in edges):
                raise ValidationError("%s-action is not additive" % name)
        if len(set(self.t_map.values())) != len(self.carrier):
            raise NotInvertibleError("t-action is not bijective")
        for x in self.carrier:
            if self.t_map[self.s_map[x]] != self.s_map[self.t_map[x]]:
                raise ValidationError("t and s do not commute at %r" % (x,))
        for x in self.carrier:
            ss = self.s_map[self.s_map[x]]
            want = g.sub(self.s_map[x], self.s_map[self.t_map[x]])
            if ss != want:
                raise RelationViolationError(
                    "s^2 != (Id - t)s at %r: s^2 x = %r, (Id-t)s x = %r"
                    % (x, ss, want))

    # -- rack structure ---------------------------------------------------

    @property
    def elements(self):
        return self.carrier

    @property
    def order(self):
        return len(self.carrier)

    def t(self, x):
        return self.t_map[x]

    def s(self, x):
        return self.s_map[x]

    def ts(self, x):
        """Kink map pi(x) = (t+s)x."""
        return self.ts_map[x]

    def op(self, x, y):
        return self.group.add(self.t_map[x], self.s_map[y])

    def op_inv(self, x, y):
        return self.t_inv_map[self.group.sub(x, self.s_map[y])]

    def rack_rank(self):
        """Order of the (t+s)-action, the period of framing dependence:
        the lcm of its cycle lengths."""
        return lcm(*cycle_lengths(self.ts_map).values())

    def is_alexander(self):
        """True when s = Id - t, i.e. the rack is an Alexander quandle."""
        g = self.group
        return all(self.s_map[x] == g.sub(x, self.t_map[x])
                   for x in self.carrier)

    def to_finite_rack(self, order=None):
        """Export the operation matrix, elements enumerated in ``order``
        (default: lexicographic).  Round-trips through validate_rack; of
        its checks only axiom (i) is repeated, as axiom (ii) holds in
        every (t,s)-rack and this one was validated when built."""
        elems = list(order) if order is not None else list(self.carrier)
        if sorted(elems) != list(self.carrier):
            raise ValidationError("order must enumerate the carrier exactly")
        index = {x: i + 1 for i, x in enumerate(elems)}
        matrix = tuple(tuple(index[self.op(x, y)] for y in elems)
                       for x in elems)
        return FiniteRack(matrix, inverse_matrix(matrix))

    def __repr__(self):
        if self.spec is not None:
            return "TSRack(%r)" % (self.spec,)
        return "TSRack(order=%d, moduli=%s)" % (self.order, self.group.moduli)


def _matrix_map(group, matrix, carrier):
    """x -> matrix * x on carrier, the elements of group in lexicographic
    order."""
    matrix = [list(map(int, row)) for row in matrix]
    k = group.rank
    if len(matrix) != k or any(len(row) != k for row in matrix):
        raise ValidationError("endomorphism matrix must be %d x %d" % (k, k))
    # entry (i,j) maps Z_{m_j} into Z_{m_i}: need m_i | a_ij * m_j
    for i in range(k):
        for j in range(k):
            if (matrix[i][j] * group.moduli[j]) % group.moduli[i] != 0:
                raise ValidationError(
                    "matrix entry (%d,%d)=%d is not a well-defined map "
                    "Z_%d -> Z_%d" % (i, j, matrix[i][j],
                                      group.moduli[j], group.moduli[i]))
    # The next element in lexicographic order adds e_j and takes every
    # later coordinate i from m_i - 1 to 0, that is, adds e_i too; so its
    # image adds the image of e_j + ... + e_{k-1}.
    steps = [group.zero]
    for j in reversed(range(k)):
        steps.append(group.add(steps[-1], tuple(
            row[j] % m for row, m in zip(matrix, group.moduli))))
    incs = []
    for j, step in zip(reversed(range(k)), steps[1:]):
        incs += ([step] + incs) * (group.moduli[j] - 1)
    return dict(zip(carrier, accumulate(incs, group.add, initial=group.zero)))


def make_module(moduli, t_matrix, s_matrix, spec=None):
    """(t,s)-rack on a direct sum of cyclic groups from endomorphism
    matrices.  Raises the first violated condition: t not bijective,
    ts != st, or s^2 != (Id-t)s."""
    group = moduli if isinstance(moduli, AbelianGroup) else AbelianGroup(moduli)
    carrier = group.elements()
    t_map = _matrix_map(group, t_matrix, carrier)
    s_map = _matrix_map(group, s_matrix, carrier)
    return TSRack(group, t_map, s_map, carrier=carrier, spec=spec)


def make_linear(n, t, s):
    """Linear (t,s)-rack on Z_n: x > y = tx + sy.

    Needs gcd(t, n) = 1 and s^2 = (1-t)s mod n; each failure is reported
    separately with the offending residues.
    """
    n = int(n)
    if n < 2:
        raise ValidationError("n must be >= 2")
    t, s = int(t) % n, int(s) % n
    if gcd(t, n) != 1:
        raise NotInvertibleError("t=%d is not a unit mod %d" % (t, n))
    if (s * s) % n != ((1 - t) * s) % n:
        raise RelationViolationError(
            "s^2 = %d but (1-t)s = %d mod %d"
            % ((s * s) % n, ((1 - t) * s) % n, n))
    return make_module((n,), [[t]], [[s]],
                       spec={"type": "linear", "n": n, "t": t, "s": s})


def make_quotient(n, coeffs):
    """(t,s)-rack on R + R where R = Z_n[t]/(p(t)), elements (a, b)
    standing for a + b s; t acts coordinatewise, s(a, b) = (0, a + (1-t)b).

    Requires the class of t to be a unit in R.
    """
    ring = QuotientRing(n, coeffs)
    if not ring.t_is_unit:
        raise NotInvertibleError(
            "t is not a unit in %r (constant coefficient %d is not a unit "
            "mod %d)" % (ring, ring.coeffs[0], n))
    d = ring.degree
    one_minus_t = ring.sub(ring.one, ring.t)
    basis = [tuple(int(i == j) for i in range(d)) for j in range(d)]
    # column j is the image of (e_j, 0), column d + j that of (0, e_j)
    t_cols = ([ring.t_times(e) + ring.zero for e in basis]
              + [ring.zero + ring.t_times(e) for e in basis])
    s_cols = ([ring.zero + e for e in basis]
              + [ring.zero + ring.mul(one_minus_t, e) for e in basis])
    spec = {"type": "quotient", "n": n, "p": [c % n for c in coeffs]}
    return make_module((n,) * (2 * d), list(zip(*t_cols)),
                       list(zip(*s_cols)), spec=spec)


def enumerate_linear(n):
    """All (t, s) pairs defining a linear (t,s)-rack on Z_n, in
    lexicographic order."""
    out = []
    for t in range(n):
        if gcd(t, n) != 1:
            continue
        for s in range(n):
            if (s * s) % n == ((1 - t) * s) % n:
                out.append((t, s))
    return out


def s_submodule(rack):
    """The image sX with the restricted t- and s-actions.

    sX is closed under both actions (t s = s t and s^2 = (1-t)s keep it
    stable); the TSRack constructor re-checks everything.
    """
    image = sorted({rack.s_map[x] for x in rack.carrier})
    iset = set(image)
    if not all(rack.t_map[x] in iset and rack.s_map[x] in iset
               for x in image):
        raise ConsistencyError("sX is not stable under t and s")
    t_map = {x: rack.t_map[x] for x in image}
    s_map = {x: rack.s_map[x] for x in image}
    return TSRack(rack.group, t_map, s_map, carrier=image)


# -- module isomorphisms -------------------------------------------------


def _generating_sequence(rack, maps=()):
    """Greedy generating sequence for the carrier: each element not yet in
    the span of the earlier generators becomes one.  The span is closed
    under + and under each of ``maps``, so maps=(t_map,) generates over
    Z[t].  With no maps it also runs on unvalidated carriers.

    Returns (gens, span, edges).  The edges are the triples (y, e, y + e)
    with e a generator: one for each element that + e added to the span,
    and one closing edge ((r-1)e, e, re) per generator, re the first
    multiple of e back in the span of the earlier generators."""
    add = rack.group.add
    gens, edges = [], []
    span = {rack.group.zero: 0}  # element -> the order it joined in
    for x in rack.carrier:
        if x not in span:
            gens.append(x)
            earlier = len(span)
            frontier = list(span)
            while frontier:
                y = frontier.pop()
                z = add(y, x)
                if z not in span:
                    edges.append((y, x, z))
                for z in [z] + [m[y] for m in maps]:
                    if z not in span:
                        span[z] = len(span)
                        frontier.append(z)
            y = rack.group.zero
            while span[z := add(y, x)] >= earlier:
                y = z
            edges.append((y, x, z))
    return gens, span, edges


def _extend(m_from, m_to, gens, images):
    """Extend gen -> image along the edges x -> x + gen and x -> t(x):
    an additive map commuting with t, or None on a clash."""
    g_from, g_to = m_from.group, m_to.group
    h = {g_from.zero: g_to.zero}
    frontier = [g_from.zero]
    while frontier:
        x = frontier.pop()
        edges = [(g_from.add(x, gen), g_to.add(h[x], img))
                 for gen, img in zip(gens, images)]
        edges.append((m_from.t_map[x], m_to.t_map[h[x]]))
        for nx, ny in edges:
            if nx not in h:
                h[nx] = ny
                frontier.append(nx)
            elif h[nx] != ny:
                return None
    return h


def all_module_isos(m_from, m_to):
    """Yield every module isomorphism between two carriers: a bijection
    that preserves +, the t-action and the s-action.

    An additive map commuting with t is fixed by its images of a
    generating sequence over Z[t], so only those are chosen, each among
    the elements of the same additive order.  The extension along
    x -> x + gen and x -> t(x) makes h additive and t-compatible, or
    clashes; s-compatibility and bijectivity are checked on the result.
    """
    if len(m_from.carrier) != len(m_to.carrier):
        return
    gens, _, _ = _generating_sequence(m_from, (m_from.t_map,))
    pools = [[y for y in m_to.carrier
              if m_to.group.element_order(y)
              == m_from.group.element_order(gen)] for gen in gens]
    for images in product(*pools):
        h = _extend(m_from, m_to, gens, images)
        if (h is not None and len(set(h.values())) == len(h)
                and all(h[m_from.s_map[x]] == m_to.s_map[h[x]] for x in h)):
            yield h


def module_iso_exists(m_from, m_to):
    """First module isomorphism found, or None."""
    return next(all_module_isos(m_from, m_to), None)


# -- the (t,s)-rack isomorphism criterion --------------------------------


@dataclass
class TSRackIsoCertificate:
    """Witness data for a (t,s)-rack isomorphism.

    h is a module isomorphism sX -> sY; A and B are coset representative
    sets for X/sX and Y/sY; g is the bijection between the (t+s)-orbit
    sets of A and B; phi is the assembled rack isomorphism
    phi(a + w) = g(a) + h(w), re-verified as a rack homomorphism.
    """

    h: dict
    coset_reps_a: tuple
    coset_reps_b: tuple
    g: dict
    phi: dict


def _cosets(rack, sub):
    """(lex-least coset representatives of the carrier modulo sub,
    element -> representative map), in one pass: the carrier is sorted,
    so the first element met of each coset is its least."""
    rep_of, reps = {}, []
    for x in rack.carrier:
        if x not in rep_of:
            reps.append(x)
            for w in sub.carrier:
                rep_of[rack.group.add(x, w)] = x
    return reps, rep_of


def tsrack_iso_check(x_rack, y_rack):
    """Decide (t,s)-rack isomorphism via the submodule criterion.

    For a module isomorphism h : sX -> sY and representatives A of the
    cosets of sX, phi(a + w) = g0(a) + h(w) is a rack isomorphism iff
      * s g0(a) = h(s a) for each a in A,
      * the images g0(a) lie in distinct cosets of sY (they form B), and
      * t g0(a) = g0(a') + h(t a - a'), a' the representative of t a.
    So h is searched first, then g0 one t-cycle of cosets at a time.  g is
    phi on the (t+s)-orbit of A.  phi is verified before it is returned;
    None means no witness exists.
    """
    if x_rack.order != y_rack.order:
        return None
    # an isomorphism conjugates one kink map onto the other, so the cycle
    # types agree, and with them the rack ranks
    if (sorted(cycle_lengths(x_rack.ts_map).values())
            != sorted(cycle_lengths(y_rack.ts_map).values())):
        return None
    sx, sy = s_submodule(x_rack), s_submodule(y_rack)
    if sx.order != sy.order:
        return None
    reps_a, rep_of_x = _cosets(x_rack, sx)
    _, rep_of_y = _cosets(y_rack, sy)
    gx, gy = x_rack.group, y_rack.group
    for h in all_module_isos(sx, sy):
        g0 = _search_reps(x_rack, y_rack, h, reps_a, rep_of_x, rep_of_y)
        if g0 is None:
            continue
        phi = {x: gy.add(g0[rep_of_x[x]], h[gx.sub(x, rep_of_x[x])])
               for x in x_rack.carrier}
        if (len(set(phi.values())) != x_rack.order
                or any(phi[x_rack.op(x, y)] != y_rack.op(phi[x], phi[y])
                       for x in x_rack.carrier for y in x_rack.carrier)):
            raise ConsistencyError(
                "assembled map is not a rack isomorphism %r -> %r"
                % (x_rack, y_rack))
        orbit = set()
        for a in reps_a:
            while a not in orbit:
                orbit.add(a)
                a = x_rack.ts_map[a]
        return TSRackIsoCertificate(
            h=h, coset_reps_a=tuple(reps_a),
            coset_reps_b=tuple(g0[a] for a in reps_a),
            g={x: phi[x] for x in sorted(orbit)}, phi=phi)
    return None


def _search_reps(x_rack, y_rack, h, reps_a, rep_of_x, rep_of_y):
    """The lex-least g0 : A -> Y meeting the three conditions of
    tsrack_iso_check for h, or None.

    t permutes the cosets of sX, so g0 at the least representative of a
    t-cycle of cosets fixes g0 on the rest of the cycle through
    g0(a') = t g0(a) - h(t a - a'); a choice fails as soon as an image
    repeats a coset of sY or the cycle does not close.  s g0 = h s holds
    along the cycle once it holds at its start.
    """
    gx, gy = x_rack.group, y_rack.group
    cycles, seen = [], set()
    for a in reps_a:
        if a not in seen:
            cycle = [a]
            while (nxt := rep_of_x[x_rack.t_map[cycle[-1]]]) != a:
                cycle.append(nxt)
            seen.update(cycle)
            cycles.append(cycle)
    g0, used = {}, set()

    def choices(cycle):
        """Set g0 along the cycle from each start that closes it, and
        yield with the cosets of sY it takes held in ``used``."""
        target = h[x_rack.s_map[cycle[0]]]
        for start in y_rack.carrier:
            if y_rack.s_map[start] != target:
                continue
            y, taken = start, []
            for a, a_next in zip(cycle, cycle[1:] + cycle[:1]):
                c = rep_of_y[y]
                if c in used:
                    break
                used.add(c)
                taken.append(c)
                g0[a] = y
                y = gy.sub(y_rack.t_map[y], h[gx.sub(x_rack.t_map[a], a_next)])
            if len(taken) == len(cycle) and y == start:
                yield True
            used.difference_update(taken)

    # depth first, without recursion: there may be as many cycles as elements
    stack = [choices(cycles[0])]
    while stack:
        if not next(stack[-1], False):
            stack.pop()
        elif len(stack) == len(cycles):
            return g0
        else:
            stack.append(choices(cycles[len(stack)]))
    return None


def alexander_iso_check(m_rack, m2_rack):
    """Alexander-quandle criterion: equal order and (1-t)M = (1-t)M' as
    Z[t^{+-1}]-modules.  Raises WrongStructureError off Alexander inputs.

    Here s = 1 - t, so (1-t)M is sX, and an additive map commuting with t
    also commutes with s."""
    for r in (m_rack, m2_rack):
        if not r.is_alexander():
            raise WrongStructureError(
                "%r is not an Alexander quandle (s != 1 - t)" % (r,))
    if m_rack.order != m2_rack.order:
        return False
    return module_iso_exists(s_submodule(m_rack),
                             s_submodule(m2_rack)) is not None


# -- textual specs --------------------------------------------------------

# the largest rack order a spec may describe: such a rack builds at once,
# but its operation matrix takes O(ORDER_LIMIT^2) time and memory to export
ORDER_LIMIT = 4096


def tsrack_from_spec(spec):
    """Build a TSRack from its structured-text description.

    Accepted forms:
      {"type": "linear", "n": N, "t": T, "s": S}
      {"type": "quotient", "n": N, "p": [c0, c1, ...]}   (ascending)
      {"type": "module", "moduli": [...], "t": [[...]], "s": [[...]]}
    Every number must be an integer (not a bool) and each module matrix
    square of the group's rank, and the order the spec describes, n,
    n^(2 deg p) or the product of the moduli, at most ORDER_LIMIT; that is
    checked before anything is built.
    """
    if not isinstance(spec, dict) or "type" not in spec:
        raise ValidationError("rack spec must be an object with a 'type'")
    kind = spec["type"]
    try:
        if kind == "linear":
            n, t, s = (_integer(spec[f], f) for f in "nts")
            _check_order([n])
            return make_linear(n, t, s)
        if kind == "quotient":
            n, p = _integer(spec["n"], "n"), _integers(spec["p"], "p")
            _check_order([n] * (2 * len(p) - 2))
            return make_quotient(n, p)
        if kind == "module":
            rank = len(_integers(spec["moduli"], "moduli"))
            for f in "ts":
                m = spec[f]
                if not isinstance(m, list) or len(m) != rank or any(
                        len(_integers(row, f)) != rank for row in m):
                    raise ValidationError("%s must be a %d x %d matrix"
                                          % (f, rank, rank))
            _check_order(spec["moduli"])
            return make_module(spec["moduli"], spec["t"], spec["s"],
                               spec=spec)
    except KeyError as exc:
        raise ValidationError("rack spec is missing field %s" % exc) from exc
    raise ValidationError("unknown rack spec type %r" % (kind,))


def _check_order(factors):
    """Refuse a spec whose order, the product of factors, is over
    ORDER_LIMIT; the product stops as soon as it passes the limit."""
    order = 1
    for f in factors:
        order *= f
        if order > ORDER_LIMIT:
            raise ValidationError("rack spec describes more than %d elements"
                                  " (ORDER_LIMIT)" % ORDER_LIMIT)


def _integer(value, name):
    """value, if it is an integer and not a bool."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValidationError("%s must be an integer, not %r" % (name, value))
    return value


def _integers(value, name):
    """value, if it is a list of integers."""
    if not isinstance(value, list):
        raise ValidationError("%s must be a list, not %r" % (name, value))
    for x in value:
        _integer(x, name)
    return value
