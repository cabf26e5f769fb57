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

Ring elements of Z_2[t]/(t^2+1) are bit pairs (c0, c1) = c0 + c1 t.  Rack
elements are pairs (a, b) of ring elements standing for a + b s, with
t(a, b) = (ta, tb), s(a, b) = (0, a + (1-t)b) and x > y = t(x) + s(y).
"""

from collections import Counter
from itertools import permutations, product

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
