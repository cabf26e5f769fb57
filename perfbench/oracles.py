"""Independent computations the benchmark checks the program against.

Nothing here imports tsracks.  Each function works from a definition:

* Fox n-colourings of a PD code, counted from the integer relation
  matrix by diagonalising it over Z;
* module (t,s)-racks as integer matrices acting on Z_m1 + ... + Z_mk,
  derived from a rack spec (for quotient specs, from the ring's companion
  matrix), with their operation tables;
* the additive enhancement by exhaustive search over the arc labels of a
  PD code, summed over every framing;
* rack certificates, a rack profile that separates non-isomorphic racks,
  u-polynomial text and the coefficientwise order.
"""

import re
from collections import Counter
from itertools import product
from math import gcd

_PD_TOKEN = re.compile(r"X\[(\d+),(\d+),(\d+),(\d+)\]")


class OracleError(Exception):
    """An input the oracles cannot decide on their own."""


# -- PD codes ----------------------------------------------------------------


def pd_crossings(spec):
    """[(a, b, c, d), ...] from a 'pd: X[a,b,c,d] ...' link spec."""
    kind, _, body = spec.partition(":")
    body = body.replace(" ", "")
    crossings = [tuple(int(v) for v in m) for m in _PD_TOKEN.findall(body)]
    if kind.strip() != "pd" or _PD_TOKEN.sub("", body) or not crossings:
        raise OracleError("not a plain PD code: %r" % spec)
    return crossings


def fox_colourings(crossings, n):
    """Number of edge vectors mod n with b = d and a + c = 2b at every
    crossing X[a,b,c,d]: the Fox n-colourings of the diagram."""
    edges = sorted({e for x in crossings for e in x})
    col = {e: i for i, e in enumerate(edges)}
    rows = []
    for a, b, c, d in crossings:
        r1 = [0] * len(edges)
        r1[col[b]] += 1
        r1[col[d]] -= 1
        r2 = [0] * len(edges)
        r2[col[a]] += 1
        r2[col[c]] += 1
        r2[col[b]] -= 2
        rows += [r1, r2]
    diagonal = diagonalise(rows)
    count = n ** (len(edges) - len(diagonal))
    for v in diagonal:
        count *= gcd(v, n)
    return count


def diagonalise(matrix):
    """Diagonal entries of an integer matrix brought to diagonal form by
    unimodular row and column operations (zeros included, one per pivot
    position up to min(rows, cols)).  The solution count of M x = 0 mod n
    is then n^(cols - len) times the product of gcd(entry, n)."""
    m = [list(r) for r in matrix]
    n_rows, n_cols = len(m), len(m[0]) if m else 0
    out = []
    for k in range(min(n_rows, n_cols)):
        while True:
            nonzero = [(abs(m[i][j]), i, j) for i in range(k, n_rows)
                       for j in range(k, n_cols) if m[i][j]]
            if not nonzero:
                return out + [0] * (min(n_rows, n_cols) - k)
            _, i, j = min(nonzero)
            m[k], m[i] = m[i], m[k]
            for row in m:
                row[k], row[j] = row[j], row[k]
            p = m[k][k]
            done = True
            for i in range(k + 1, n_rows):
                q = m[i][k] // p
                m[i] = [x - q * y for x, y in zip(m[i], m[k])]
                done &= m[i][k] == 0
            for j in range(k + 1, n_cols):
                q = m[k][j] // p
                for row in m:
                    row[j] -= q * row[k]
                done &= m[k][j] == 0
            if done:
                out.append(abs(p))
                break
    return out


def pd_structure(crossings):
    """(signs, arc_of_edge, component_of_edge) for a PD code.

    The over-strand direction at each crossing is fixed by requiring that
    every edge enters exactly one crossing and leaves exactly one; a
    crossing is positive when its over-strand runs d -> b."""
    role = {}  # edge -> set of "in"/"out" already fixed
    for a, _, c, _ in crossings:
        role.setdefault(a, set()).add("in")
        role.setdefault(c, set()).add("out")
    signs = [None] * len(crossings)
    changed = True
    while changed:
        changed = False
        for i, (_, b, _, d) in enumerate(crossings):
            if signs[i] is not None:
                continue
            if "in" in role.get(b, ()) or "out" in role.get(d, ()):
                signs[i] = +1  # b is the over-out edge here
            elif "out" in role.get(b, ()) or "in" in role.get(d, ()):
                signs[i] = -1
            else:
                continue
            out_edge, in_edge = (b, d) if signs[i] > 0 else (d, b)
            role.setdefault(out_edge, set()).add("out")
            role.setdefault(in_edge, set()).add("in")
            changed = True
    if None in signs:
        raise OracleError("over-strand directions are not determined")
    arc = _UnionFind()
    comp = _UnionFind()
    for a, b, c, d in crossings:
        arc.union(b, d)
        arc.union(a, a)
        arc.union(c, c)
        comp.union(b, d)
        comp.union(a, c)
    edges = {e for x in crossings for e in x}
    return (signs, {e: arc.find(e) for e in edges},
            {e: comp.find(e) for e in edges})


class _UnionFind(dict):
    def find(self, x):
        self.setdefault(x, x)
        while self[x] != x:
            x = self[x]
        return x

    def union(self, x, y):
        rx, ry = self.find(x), self.find(y)
        if rx != ry:
            self[max(rx, ry)] = min(rx, ry)


def component_count(spec):
    _, _, comp = pd_structure(pd_crossings(spec))
    return len(set(comp.values()))


# -- module racks from specs ---------------------------------------------------


def companion(n, coeffs):
    """Matrix of multiplication by t on Z_n[t]/(p), basis 1, t, ...;
    coeffs ascending, p monic."""
    d = len(coeffs) - 1
    m = [[0] * d for _ in range(d)]
    for j in range(d - 1):
        m[j + 1][j] = 1
    for i in range(d):
        m[i][d - 1] = (-coeffs[i]) % n
    return m


def spec_matrices(spec):
    """(moduli, T, S) of a linear, quotient or module rack spec, in the
    coordinates the spec's elements are written in."""
    kind = spec["type"]
    if kind == "linear":
        n = spec["n"]
        return (n,), [[spec["t"] % n]], [[spec["s"] % n]]
    if kind == "module":
        return tuple(spec["moduli"]), spec["t"], spec["s"]
    if kind == "quotient":
        # elements (a, b) = a + b s over R = Z_n[t]/(p); t acts on both
        # halves, s(a, b) = (0, a + (1 - t) b)
        n = spec["n"]
        c = companion(n, spec["p"])
        d = len(c)
        eye = [[int(i == j) for j in range(d)] for i in range(d)]
        zero = [[0] * d for _ in range(d)]
        one_minus_c = [[(eye[i][j] - c[i][j]) % n for j in range(d)]
                       for i in range(d)]
        t = [r + z for r, z in zip(c, zero)] + [z + r for z, r in zip(zero, c)]
        s = ([z + z for z in zero]
             + [e + r for e, r in zip(eye, one_minus_c)])
        return (n,) * (2 * d), t, s
    raise OracleError("unknown spec type %r" % kind)


def spec_order(spec):
    moduli, _, _ = spec_matrices(spec)
    out = 1
    for m in moduli:
        out *= m
    return out


class ModuleRack:
    """x > y = T x + S y on Z_m1 + ... + Z_mk; elements are tuples in
    lexicographic order, as the program writes them."""

    def __init__(self, moduli, t, s):
        self.moduli = tuple(moduli)
        self.elements = [tuple(v) for v in
                         product(*(range(m) for m in self.moduli))]
        self.index = {x: i for i, x in enumerate(self.elements)}
        self.t = [self.index[self.apply(t, x)] for x in self.elements]
        self.s = [self.index[self.apply(s, x)] for x in self.elements]
        add = self.add
        els = self.elements
        self.op = [[self.index[add(els[self.t[i]], els[self.s[j]])]
                    for j in range(len(els))] for i in range(len(els))]
        self.op_inv = [[0] * len(els) for _ in els]
        for i, row in enumerate(self.op):
            for j, k in enumerate(row):
                self.op_inv[k][j] = i
        self.kink = [self.op[i][i] for i in range(len(els))]

    @classmethod
    def from_spec(cls, spec):
        return cls(*spec_matrices(spec))

    def apply(self, mat, x):
        return tuple(sum(a * b for a, b in zip(row, x)) % m
                     for row, m in zip(mat, self.moduli))

    def add(self, x, y):
        return tuple((a + b) % m for a, b, m in zip(x, y, self.moduli))

    @property
    def order(self):
        return len(self.elements)

    def rank(self):
        """Order of the kink permutation."""
        n = 1
        for length in cycle_type(self.kink):
            n = n * length // gcd(n, length)
        return n

    def span_size(self, labels):
        """|AC(Im f)|: close labels under > and >^-1, then under +."""
        image, frontier = set(labels), list(labels)
        while frontier:
            x = frontier.pop()
            for y in list(image):
                for z in (self.op[x][y], self.op[y][x],
                          self.op_inv[x][y], self.op_inv[y][x]):
                    if z not in image:
                        image.add(z)
                        frontier.append(z)
        zero = self.index[(0,) * len(self.moduli)]
        gens = [self.elements[g] for g in image]
        span, frontier = {zero}, [zero]
        while frontier:
            v = self.elements[frontier.pop()]
            for g in gens:
                w = self.index[self.add(v, g)]
                if w not in span:
                    span.add(w)
                    frontier.append(w)
        return len(span)


def cycle_type(perm):
    """Sorted cycle lengths of a permutation given as a list."""
    seen = [False] * len(perm)
    lengths = []
    for start in range(len(perm)):
        length, x = 0, start
        while not seen[x]:
            seen[x] = True
            x = perm[x]
            length += 1
        if length:
            lengths.append(length)
    return tuple(sorted(lengths))


def rack_profile(rack):
    """Isomorphism invariant: the multiset over x of (kink cycle length
    through x, #{y : x > y = x}, #{y : y > x = y}, cycle type of y -> y > x).
    For s = 0 the last entry is the cycle type of t."""
    n = rack.order
    kink_len = {}
    for start in range(n):
        if start in kink_len:
            continue
        cyc, x = [], start
        while x not in cyc:
            cyc.append(x)
            x = rack.kink[x]
        for x in cyc:
            kink_len[x] = len(cyc)
    op = rack.op
    return tuple(sorted(
        (kink_len[x],
         sum(1 for y in range(n) if op[x][y] == x),
         sum(1 for y in range(n) if op[y][x] == y),
         cycle_type([op[y][x] for y in range(n)]))
        for x in range(n)))


def check_certificate(phi, x_rack, y_rack):
    """True when phi (element tuple -> element tuple) is a bijection from
    X onto Y that preserves > on every pair."""
    if set(phi) != set(x_rack.elements):
        return False
    if set(phi.values()) != set(y_rack.elements) or len(phi) != y_rack.order:
        return False
    ix, iy = x_rack.index, y_rack.index
    f = [iy[phi[x]] for x in x_rack.elements]
    return all(f[x_rack.op[a][b]] == y_rack.op[f[a]][f[b]]
               for a in range(x_rack.order) for b in range(x_rack.order))


def check_matrix_isomorphism(f, x_rack, y_rack):
    """True when f (1-based index -> 1-based index over the lexicographic
    element order) is a bijection preserving > on every pair."""
    phi = {x_rack.elements[i - 1]: y_rack.elements[j - 1]
           for i, j in f.items()}
    return len(f) == x_rack.order and check_certificate(phi, x_rack, y_rack)


def operation_matrix(rack):
    """1-based operation matrix in lexicographic element order."""
    return [[k + 1 for k in row] for row in rack.op]


# -- change of basis -------------------------------------------------------------


def random_invertible(rng, n, k):
    """A k x k matrix invertible mod the prime n, with its inverse."""
    while True:
        p = [[rng.randrange(n) for _ in range(k)] for _ in range(k)]
        inv = inverse_mod_prime(p, n)
        if inv is not None:
            return p, inv


def inverse_mod_prime(mat, n):
    k = len(mat)
    aug = [list(r) + [int(i == j) for j in range(k)] for i, r in enumerate(mat)]
    for c in range(k):
        piv = next((r for r in range(c, k) if aug[r][c] % n), None)
        if piv is None:
            return None
        aug[c], aug[piv] = aug[piv], aug[c]
        inv = pow(aug[c][c], -1, n)
        aug[c] = [v * inv % n for v in aug[c]]
        for r in range(k):
            if r != c and aug[r][c]:
                q = aug[r][c]
                aug[r] = [(v - q * w) % n for v, w in zip(aug[r], aug[c])]
    return [row[k:] for row in aug]


def matmul(a, b, n):
    return [[sum(x * y for x, y in zip(row, col)) % n for col in zip(*b)]
            for row in a]


def rebased_spec(spec, rng):
    """Module spec of the same rack written in a seeded random basis of
    Z_n^k (n prime): T' = P T P^-1, S' = P S P^-1, so x -> P x is an
    isomorphism from the spec's rack onto the rebased one."""
    moduli, t, s = spec_matrices(spec)
    n, k = moduli[0], len(moduli)
    if any(m != n for m in moduli):
        raise OracleError("rebasing needs equal prime moduli")
    p, p_inv = random_invertible(rng, n, k)
    return {"type": "module", "moduli": list(moduli),
            "t": matmul(matmul(p, t, n), p_inv, n),
            "s": matmul(matmul(p, s, n), p_inv, n)}


# -- additive enhancement by exhaustive search --------------------------------------


def additive_by_search(spec, rack):
    """Exponent -> coefficient of the additive enhancement of the PD code
    by the ModuleRack, summed over every framing in (Z_N)^c.

    Framing k_i puts k_i positive kinks on component i just after one of
    its underpasses, so the arc leaving that crossing carries
    pi^k_i(under-in > over), pi the kink map; the labels the kinks pass
    through join the image.  Arc labels are searched exhaustively, a
    crossing being checked as soon as its three arcs hold labels."""
    crossings = pd_crossings(spec)
    signs, arc_of, comp_of = pd_structure(crossings)
    arcs = sorted(set(arc_of.values()))
    comps = sorted(set(comp_of.values()))
    cut = {}  # component -> index of the crossing whose under-out is cut
    for i, (_, _, c, _) in enumerate(crossings):
        cut.setdefault(comp_of[c], i)
    relations = [(arc_of[a], arc_of[b], arc_of[c], sign)
                 for (a, b, c, _), sign in zip(crossings, signs)]
    pos = {a: i for i, a in enumerate(arcs)}
    checks = [[] for _ in arcs]  # relations completed at each arc depth
    for idx, (ui, ov, uo, _) in enumerate(relations):
        checks[max(pos[ui], pos[ov], pos[uo])].append(idx)
    period = rack.rank()
    powers = [list(range(rack.order))]
    for _ in range(period):
        powers.append([rack.kink[x] for x in powers[-1]])
    terms = Counter()
    for ks in product(range(period), repeat=len(comps)):
        kinks = {cut[cp]: k for cp, k in zip(comps, ks)}
        label = {}

        def relation_holds(idx):
            ui, ov, uo, sign = relations[idx]
            table = rack.op if sign > 0 else rack.op_inv
            y = table[label[ui]][label[ov]]
            return powers[kinks.get(idx, 0)][y] == label[uo]

        def search(depth):
            if depth == len(arcs):
                labels = set(label.values())
                for idx, k in kinks.items():
                    ui, ov, _, sign = relations[idx]
                    table = rack.op if sign > 0 else rack.op_inv
                    y = table[label[ui]][label[ov]]
                    labels.update(powers[j][y] for j in range(k))
                terms[rack.span_size(labels)] += 1
                return
            for x in range(rack.order):
                label[arcs[depth]] = x
                if all(relation_holds(i) for i in checks[depth]):
                    search(depth + 1)
            del label[arcs[depth]]

        search(0)
    return dict(terms)


# -- polynomials -------------------------------------------------------------------


def parse_u_text(text):
    """'4u + 12u^2 + 8' -> {1: 4, 2: 12, 0: 8}."""
    out = {}
    for part in text.replace(" ", "").split("+"):
        m = re.fullmatch(r"(\d*)(u(?:\^(\d+))?)?", part)
        if not m or not part:
            raise OracleError("bad u-polynomial term %r" % part)
        coeff = int(m.group(1)) if m.group(1) else 1
        exp = (int(m.group(3)) if m.group(3) else 1) if m.group(2) else 0
        out[exp] = out.get(exp, 0) + coeff
    return out


def weak_order(p, q):
    """Coefficientwise comparison: 'greater' when every coefficient of p
    is >= q's with one strictly greater, and symmetrically."""
    diffs = [p.get(e, 0) - q.get(e, 0) for e in set(p) | set(q)]
    if all(d == 0 for d in diffs):
        return "equal"
    if all(d >= 0 for d in diffs):
        return "greater"
    if all(d <= 0 for d in diffs):
        return "less"
    return "incomparable"
