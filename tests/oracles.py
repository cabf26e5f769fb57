"""Brute-force oracles that share no arithmetic with tsracks.

additive_oracle recomputes the additive enhancement of the 16-element
(t,s)-rack Lambda/(2, t^2+1) on closed pure 2-strand braids straight from
the definitions, for checking tsracks.invariants.additive_enhanced.
tsrack_validation_oracle checks the (t,s)-rack conditions on a carrier over
all pairs of elements, for checking the TSRack constructor.
module_iso_oracle lists module isomorphisms by trying every bijection, for
checking tsracks.modules.all_module_isos.
labeling_oracle lists the labelings of a diagram by any rack by trying every
assignment of elements to arcs, for checking tsracks.invariants.enumerate_homs;
it reads the rack only through its op and op_inv.
image_subrack_oracle closes a label set under > and >^-1 over all pairs,
for checking tsracks.invariants.image_subrack; it too reads only op and
op_inv.
additive_weight_oracle gives the size and invariant factors of the subgroup
that a label set's image generates, by pairwise closure and an element-order
census, for checking the additive weight of tsracks.invariants; it reads
the rack's op, op_inv and moduli, and no group arithmetic of tsracks.
greedy_plan builds a labeling plan by scoring every unlabelled slot and
every loose cut at every stage, for checking that the frontier search of
tsracks.labelings._compile picks the same branches in the same order.
ring_mul multiplies in R = Z_n[t]/(p(t)) by the polynomial product reduced
by p, for checking the t- and s-actions of tsracks.modules.make_quotient.

Ring elements of Z_2[t]/(t^2+1) are bit pairs (c0, c1) = c0 + c1 t.  Rack
elements are pairs (a, b) of ring elements standing for a + b s, with
t(a, b) = (ta, tb), s(a, b) = (0, a + (1-t)b) and x > y = t(x) + s(y).
"""

from collections import Counter
from itertools import permutations, product
from math import gcd, prod

RING = list(product(range(2), repeat=2))
RACK = list(product(RING, repeat=2))
ZERO = ((0, 0), (0, 0))


def _radd(p, q):
    return ((p[0] + q[0]) % 2, (p[1] + q[1]) % 2)


def _rsub(p, q):
    return ((p[0] - q[0]) % 2, (p[1] - q[1]) % 2)


def _rt(p):
    """t (c0 + c1 t) = -c1 + c0 t, as t^2 = -1."""
    return (-p[1] % 2, p[0])


def _add(x, y):
    return (_radd(x[0], y[0]), _radd(x[1], y[1]))


def op(x, y):
    a, b = y
    s_y = ((0, 0), _radd(a, _rsub(b, _rt(b))))
    return _add((_rt(x[0]), _rt(x[1])), s_y)


OP_INV = {(op(x, y), y): x for x in RACK for y in RACK}


def op_inv(z, y):
    return OP_INV[(z, y)]


def kink(x):
    return op(x, x)


def rack_rank():
    """Order of the kink map x -> x > x as a permutation of the rack."""
    n, current = 1, {x: kink(x) for x in RACK}
    while any(current[x] != x for x in RACK):
        n, current = n + 1, {x: kink(current[x]) for x in RACK}
    return n


def span_size(labels):
    """|AC(Im f)|: close the labels under > and >^-1, then under +."""
    image, frontier = set(labels), list(labels)
    while frontier:
        x = frontier.pop()
        for y in list(image):
            for z in (op(x, y), op(y, x), op_inv(x, y), op_inv(y, x)):
                if z not in image:
                    image.add(z)
                    frontier.append(z)
    span, frontier = {ZERO}, [ZERO]
    while frontier:
        v = frontier.pop()
        for g in image:
            w = _add(v, g)
            if w not in span:
                span.add(w)
                frontier.append(w)
    return len(span)


def additive_oracle(word):
    """Exponent -> coefficient of the additive enhancement of the closure
    of a pure 2-strand braid word (letters +1/-1), summed over framings
    (w1, w2) in (Z_N)^2: a labeling is a top pair (x, y) that returns to
    itself after the braid and then w_i kinks on strand i.  Letter +1
    sends (x, y) to (y, x > y), the strand from position 2 passing over;
    letter -1 is its inverse."""
    if len(word) % 2:
        raise ValueError("an odd word on 2 strands is not a pure braid")
    n = rack_rank()
    terms = Counter()
    for w1, w2, x, y in product(range(n), range(n), RACK, RACK):
        pair, arcs = (x, y), [x, y]
        for letter in word:
            a, b = pair
            pair = (b, op(a, b)) if letter > 0 else (op_inv(b, a), a)
            arcs.extend(pair)
        ends = list(pair)
        for i, w in enumerate((w1, w2)):
            for _ in range(w):
                ends[i] = kink(ends[i])
                arcs.append(ends[i])
        if tuple(ends) == (x, y):
            terms[span_size(arcs)] += 1
    return terms


def format_u(terms):
    """The 'cu^e' form used by the acceptance values, ascending in e."""
    out = []
    for e in sorted(terms):
        coeff = "" if terms[e] == 1 else str(terms[e])
        out.append(coeff + ("u" if e == 1 else "u^%d" % e))
    return " + ".join(out)


def tsrack_validation_oracle(moduli, carrier, t_map, s_map):
    """The (t,s)-rack conditions on a carrier of Z_m1 + ... + Z_mk, checked
    over all pairs and in the order TSRack checks them.  Returns None when
    they hold, else the (exception class name, message) TSRack raises."""
    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    zero = (0,) * len(moduli)
    carrier = sorted(carrier)
    cset = set(carrier)
    if zero not in cset:
        return "ValidationError", "carrier must contain 0"
    if any(add(x, y) not in cset for x in carrier for y in carrier):
        return "ValidationError", "carrier is not closed under +"
    for m, name in ((t_map, "t"), (s_map, "s")):
        if set(m) != cset or any(v not in cset for v in m.values()):
            return ("ValidationError",
                    "%s-action must map carrier to carrier" % name)
        if m[zero] != zero:
            return "ValidationError", "%s-action must fix 0" % name
        if any(m[add(x, y)] != add(m[x], m[y])
               for x in carrier for y in carrier):
            return "ValidationError", "%s-action is not additive" % name
    if len(set(t_map.values())) != len(carrier):
        return "NotInvertibleError", "t-action is not bijective"
    for x in carrier:
        if t_map[s_map[x]] != s_map[t_map[x]]:
            return "ValidationError", "t and s do not commute at %r" % (x,)
    for x in carrier:
        ss = s_map[s_map[x]]
        want = tuple((a - b) % m for a, b, m
                     in zip(s_map[x], s_map[t_map[x]], moduli))
        if ss != want:
            return ("RelationViolationError",
                    "s^2 != (Id - t)s at %r: s^2 x = %r, (Id-t)s x = %r"
                    % (x, ss, want))
    return None


def module_iso_oracle(source, target):
    """Every module isomorphism between two carriers, by trying every
    bijection h with h(0) = 0.  Each module is (moduli, carrier, t_map,
    s_map): a carrier of Z_m1 + ... + Z_mk with its t- and s-actions as
    dicts.  h must be additive and commute with t and with s."""
    (m1, c1, t1, s1), (m2, c2, t2, s2) = source, target
    if len(c1) != len(c2):
        return []

    def add(x, y, moduli):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    zero1, zero2 = (0,) * len(m1), (0,) * len(m2)
    rest1 = [x for x in c1 if x != zero1]
    out = []
    for images in permutations([y for y in c2 if y != zero2]):
        h = dict(zip(rest1, images))
        h[zero1] = zero2
        if (all(h[t1[x]] == t2[h[x]] and h[s1[x]] == s2[h[x]] for x in c1)
                and all(h[add(x, y, m1)] == add(h[x], h[y], m2)
                        for x in c1 for y in c1)):
            out.append(h)
    return out


def labeling_oracle(diagram, rack):
    """Every labeling of the diagram by the rack, as a set of sorted
    (arc, element) tuples.  Elements are assigned arc by arc in sorted
    arc order, every element to every arc; a labeling is kept when at
    every crossing the outgoing under-arc carries (under-in > over), or
    (under-in >^-1 over) at a negative crossing.  A partial assignment is
    dropped as soon as a crossing whose three arcs it holds fails, which
    only skips assignments that could not be kept."""
    arcs = sorted(diagram.arcs)
    due = [[] for _ in arcs]   # crossings whose last arc is arcs[i]
    for c in diagram.crossings:
        due[max(arcs.index(a) for a in c[:3])].append(c)
    out, f = set(), {}

    def extend(i):
        if i == len(arcs):
            out.add(tuple(sorted(f.items())))
            return
        for x in rack.elements:
            f[arcs[i]] = x
            if all(f[c.under_out] == (rack.op if c.sign > 0 else rack.op_inv)(
                    f[c.under_in], f[c.over]) for c in due[i]):
                extend(i + 1)

    extend(0)
    return out


def greedy_plan(n, period, crossings, cuts, size):
    """(leaves, plan) as tsracks.labelings._compile gives them, with no
    leaf limit, for a cut-open diagram of ``size`` slots, crossings
    [sign, over, under_in, under_out] and cuts (component, in, out).  At
    every stage it tries each branch: a seed at every unlabelled slot (n
    leaves) and, when period <= n, the unknown side of every cut with one
    side known (period leaves).  A trial labels the branch's slot, then
    pops the relations it touches off a stack: a crossing with its over
    slot and one under end known forces the other under end (a step) or
    tests it (a check), a cut with both sides known is a tie, and each
    slot forced pushes the relations that touch it.  The branch whose
    trial forces the most slots is taken; on ties a cut wins over a seed,
    and otherwise the first tried: seeds in slot order, then cuts in cut
    order."""
    relations = [tuple(c) for c in crossings] + list(cuts)
    touching = [[] for _ in range(size)]
    for k, relation in enumerate(relations):
        for a in set(relation[1:]):
            touching[a].append(k)

    def trial(slot, known, used):
        steps, checks, ties = [], [], []
        known.add(slot)
        stack = list(touching[slot])
        while stack:
            k = stack.pop()
            if k in used:
                continue
            if k >= len(crossings):
                if relations[k][1] in known and relations[k][2] in known:
                    used.add(k)
                    ties.append(relations[k])
                continue
            sign, over, under_in, under_out = relations[k]
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
                stack.extend(touching[dst])
        return steps, checks, ties

    known, used, plan, leaves = set(), set(), [], 1
    while len(known) < size:
        branches = [(a, None) for a in range(size) if a not in known]
        if period <= n:
            branches += [(into, out) if out in known else (out, into)
                         for _, into, out in cuts
                         if (into in known) != (out in known)]
        best = None
        for branch in branches:
            score = (len(trial(branch[0], set(known), set(used))[0]),
                     branch[1] is not None)
            if best is None or score > best[0]:
                best = score, branch
        branch = best[1]
        leaves *= n if branch[1] is None else period
        plan.append((branch, *trial(branch[0], known, used)))
    return leaves, plan


def image_subrack_oracle(rack, labels):
    """The smallest set holding the labels and closed under > and >^-1:
    apply both operations to every ordered pair until nothing new
    appears."""
    out = set(labels)
    while True:
        new = {z for x in out for y in out
               for z in (rack.op(x, y), rack.op_inv(x, y))} - out
        if not new:
            return out
        out |= new


def additive_weight_oracle(rack, labels):
    """(|AC|, invariant factors of AC) for AC the subgroup generated by
    the image subrack of the labels.  AC is the image with 0, closed under
    pairwise sums until nothing new appears.  Its invariant factors are
    the divisor chain d_1 | ... | d_k (each d_i >= 2) of product |AC| with
    prod_i gcd(m, d_i) = #{x in AC : m x = 0} for every m dividing |AC|,
    the counts read off the order of each element, found by repeated
    addition."""
    moduli = rack.group.moduli
    zero = (0,) * len(moduli)

    def add(x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, moduli))

    def order(x):
        k, y = 1, x
        while y != zero:
            k, y = k + 1, add(y, x)
        return k

    span = set(image_subrack_oracle(rack, labels)) | {zero}
    while True:
        new = {add(x, y) for x in span for y in span} - span
        if not new:
            break
        span |= new
    n = len(span)
    census = Counter(order(x) for x in span)
    for chain in _divisor_chains(n, 2):
        if all(prod(gcd(m, d) for d in chain)
               == sum(c for o, c in census.items() if m % o == 0)
               for m in range(1, n + 1) if n % m == 0):
            return n, tuple(chain)
    raise ValueError("no divisor chain fits the order census")


def _divisor_chains(n, least):
    """Every list d_1 | d_2 | ... of integers >= least with product n."""
    if n == 1:
        yield []
    for d in range(least, n + 1):
        if n % d == 0:
            for rest in _divisor_chains(n // d, d):
                if not rest or rest[0] % d == 0:
                    yield [d] + rest


def ring_mul(n, p, a, b):
    """a b in Z_n[t]/(p(t)), p monic: the polynomial product with its
    terms of degree d = deg p and above cancelled, top first, by
    subtracting multiples of t^k p.  Polynomials are coefficient tuples,
    ascending; the result has d coefficients in range(n)."""
    d = len(p) - 1
    c = [0] * max(len(a) + len(b) - 1, d)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            c[i + j] += x * y
    for k in reversed(range(d, len(c))):
        top = c[k]
        for i, pi in enumerate(p):
            c[k - d + i] -= top * pi
    return tuple(x % n for x in c[:d])
