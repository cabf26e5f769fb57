"""Finite racks as operation matrices.

A rack on {x_1, ..., x_n} is stored as an n x n matrix ``op`` with entries
in 1..n, where op[i][j] = k means x_i > x_j = x_k (writing > for the rack
operation).  Rack axioms, as checked by validate_rack:

  (i)  every column j is a permutation of 1..n, so the inverse operation
       >^{-1} exists (inv_op is the columnwise inverse matrix);
  (ii) (x > y) > z = (x > z) > (y > z) for all triples.

Everything is 1-indexed to match the usual rack-matrix convention.
"""

from math import lcm

from .errors import ConsistencyError, RackAxiomError, ValidationError


class FiniteRack:
    """A validated finite rack.  Build through validate_rack()."""

    def __init__(self, op, inv_op):
        self.n = len(op)
        self.op_matrix = op
        self.inv_matrix = inv_op
        self.elements = tuple(range(1, self.n + 1))

    def op(self, i, j):
        return self.op_matrix[i - 1][j - 1]

    def op_inv(self, i, j):
        return self.inv_matrix[i - 1][j - 1]

    def __eq__(self, other):
        return isinstance(other, FiniteRack) and self.op_matrix == other.op_matrix

    def __hash__(self):
        return hash(self.op_matrix)

    def __repr__(self):
        return "FiniteRack(n=%d)" % self.n

    def to_text(self):
        lines = [str(self.n)]
        for row in self.op_matrix:
            lines.append(" ".join(str(k) for k in row))
        return "\n".join(lines) + "\n"


def validate_rack(matrix):
    """Check the rack axioms and return a FiniteRack.

    Raises RackAxiomError naming the first failing axiom instance: the
    offending column for axiom (i), a witness triple for axiom (ii).
    """
    op = tuple(tuple(int(k) for k in row) for row in matrix)
    n = len(op)
    if n == 0 or any(len(row) != n for row in op):
        raise ValidationError("rack matrix must be square and nonempty")
    for row in op:
        for k in row:
            if not 1 <= k <= n:
                raise ValidationError(
                    "rack matrix entries must lie in 1..%d, got %d" % (n, k)
                )

    inv = inverse_matrix(op)
    for x in range(1, n + 1):
        for y in range(1, n + 1):
            xy = op[x - 1][y - 1]
            for z in range(1, n + 1):
                left = op[xy - 1][z - 1]
                right = op[op[x - 1][z - 1] - 1][op[y - 1][z - 1] - 1]
                if left != right:
                    raise RackAxiomError(
                        2, (x, y, z),
                        "axiom (ii) fails at (x,y,z)=(%d,%d,%d): "
                        "(x>y)>z=%d but (x>z)>(y>z)=%d" % (x, y, z, left, right),
                    )
    return FiniteRack(op, inv)


def inverse_matrix(op):
    """The columnwise inverse of an operation matrix, checking axiom (i):
    raises RackAxiomError naming the first column that is not a
    permutation."""
    n = len(op)
    inv = [[0] * n for _ in range(n)]
    for j in range(n):
        col = [op[i][j] for i in range(n)]
        if sorted(col) != list(range(1, n + 1)):
            raise RackAxiomError(
                1, j + 1,
                "axiom (i) fails: column %d is not a permutation" % (j + 1),
            )
        for i in range(n):
            inv[col[i] - 1][j] = i + 1
    return tuple(tuple(row) for row in inv)


def rack_from_text(text):
    """Parse the rack matrix text format: first line n, then n rows."""
    tokens = text.split()
    if not tokens:
        raise ValidationError("empty rack matrix text")
    try:
        n = int(tokens[0])
        values = [int(v) for v in tokens[1:]]
    except ValueError as exc:
        raise ValidationError("rack matrix text must contain integers") from exc
    if len(values) != n * n:
        raise ValidationError(
            "expected %d matrix entries, got %d" % (n * n, len(values))
        )
    rows = [values[i * n : (i + 1) * n] for i in range(n)]
    return validate_rack(rows)


def cycle_lengths(perm):
    """Length of the cycle through each element of a permutation given as
    a dict x -> perm(x); returns a dict x -> length."""
    lengths = {}
    for start in perm:
        if start in lengths:
            continue
        cycle = [start]
        x = perm[start]
        while x != start:
            cycle.append(x)
            x = perm[x]
        for e in cycle:
            lengths[e] = len(cycle)
    return lengths


def rack_rank(rack):
    """(N, per-element ranks in the order of rack.elements) of any rack:
    N(x) is the cycle length of pi(x) = x > x through x, N their lcm."""
    lengths = cycle_lengths({x: rack.op(x, x) for x in rack.elements})
    per = [lengths[x] for x in rack.elements]
    return lcm(*per), per


def constant_action_rack(sigma):
    """Rack with x > y = sigma(x); sigma given as a 1-indexed image list."""
    sigma = tuple(int(v) for v in sigma)
    n = len(sigma)
    if sorted(sigma) != list(range(1, n + 1)):
        raise ValidationError("sigma is not a permutation of 1..%d" % n)
    return validate_rack([[sigma[i]] * n for i in range(n)])


def conjugation_rack(table, n_exp=1):
    """Conjugation rack x > y = y^{-n} x y^{n} on a finite group.

    ``table`` is the 1-indexed multiplication table.  The result is always
    a quandle.
    """
    table = tuple(tuple(int(v) for v in row) for row in table)
    k = len(table)
    if any(len(row) != k for row in table):
        raise ValidationError("group table must be square")
    for j in range(k):
        if sorted(table[i][j] for i in range(k)) != list(range(1, k + 1)):
            raise ValidationError("group table column %d not a permutation" % (j + 1))
        if sorted(table[j]) != list(range(1, k + 1)):
            raise ValidationError("group table row %d not a permutation" % (j + 1))
    identity = None
    for e in range(1, k + 1):
        if all(table[e - 1][x - 1] == x and table[x - 1][e - 1] == x
               for x in range(1, k + 1)):
            identity = e
            break
    if identity is None:
        raise ValidationError("group table has no identity element")
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            for c in range(1, k + 1):
                ab_c = table[table[a - 1][b - 1] - 1][c - 1]
                a_bc = table[a - 1][table[b - 1][c - 1] - 1]
                if ab_c != a_bc:
                    raise ValidationError(
                        "group table is not associative at (%d,%d,%d)" % (a, b, c)
                    )
    inverse = [0] * k
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            if table[a - 1][b - 1] == identity:
                inverse[a - 1] = b

    def power(y, m):
        base = y if m >= 0 else inverse[y - 1]
        out = identity
        for _ in range(abs(m)):
            out = table[out - 1][base - 1]
        return out

    op = [[0] * k for _ in range(k)]
    for x in range(1, k + 1):
        for y in range(1, k + 1):
            yn = power(y, n_exp)
            yninv = power(y, -n_exp)
            op[x - 1][y - 1] = table[table[yninv - 1][x - 1] - 1][yn - 1]
    return validate_rack(op)


def maximal_subquandle(rack):
    """Elements of rack rank 1, i.e. {x : x > x = x}.  May be empty.

    The subset is closed under the rack operation; we check that rather
    than trust it.
    """
    q = [x for x in rack.elements if rack.op(x, x) == x]
    qset = set(q)
    if not all(rack.op(x, y) in qset for x in q for y in q):
        raise ConsistencyError("maximal subquandle is not closed under >")
    return tuple(q)


def is_homomorphism(f, source, target):
    """True iff f respects > on all pairs.  f maps 1..n to target elements.

    Preservation of >^{-1} follows from preservation of >; we check it
    outright.
    """
    for x in source.elements:
        if f[x] not in target.elements:
            return False
    for x in source.elements:
        for y in source.elements:
            if f[source.op(x, y)] != target.op(f[x], f[y]):
                return False
    for x in source.elements:
        for y in source.elements:
            if f[source.op_inv(x, y)] != target.op_inv(f[x], f[y]):
                raise ConsistencyError(
                    "map preserves > but not >^-1 at (%d,%d)" % (x, y))
    return True


def _element_profiles(rack, per):
    """Per-element invariants used to prune the isomorphism search;
    ``per`` holds the per-element ranks."""
    # refine once with the size of the row image {x > y}, and the rank
    # multisets of the row and column through x
    rows = rack.op_matrix
    return {x: (per[x - 1], len(set(row)),
                tuple(sorted(per[z - 1] for z in row)),
                tuple(sorted(per[z - 1] for z in col)))
            for x, row, col in zip(rack.elements, rows, zip(*rows))}


def find_isomorphism(x_rack, y_rack):
    """Backtracking search for a rack isomorphism, or None.

    Candidate targets are restricted by necessary profile invariants
    (per-element rack rank, kink cycle type, row image size, row/column
    rank multisets), and each choice x -> y forces f(a > x) = f(a) > y
    and f(x > a) = y > f(a) for every mapped a, in turn; a forced element
    is not chosen again.  The pruning only discards non-isomorphisms, and
    the search itself decides.  Deterministic: the same pair always yields
    the same witness, the first in candidate order.
    """
    if x_rack.n != y_rack.n:
        return None
    # equal kink cycle types, which also give equal rack ranks
    _, per_x = rack_rank(x_rack)
    _, per_y = rack_rank(y_rack)
    if sorted(per_x) != sorted(per_y):
        return None
    px = _element_profiles(x_rack, per_x)
    py = _element_profiles(y_rack, per_y)
    if sorted(px.values()) != sorted(py.values()):
        return None
    candidates = {
        x: tuple(y for y in y_rack.elements if py[y] == px[x])
        for x in x_rack.elements
    }
    order = sorted(x_rack.elements, key=lambda x: len(candidates[x]))
    n = x_rack.n
    xop, yop = x_rack.op_matrix, y_rack.op_matrix
    f, used = {}, set()

    def assign(x, y, trail):
        """Set f(x) = y and every image it forces through > with the
        elements already mapped; False on a clash, a used target or a
        profile mismatch.  Mapped elements go on ``trail``."""
        queue = [(x, y)]
        while queue:
            x, y = queue.pop()
            if x in f:
                if f[x] != y:
                    return False
                continue
            if y in used or py[y] != px[x]:
                return False
            f[x] = y
            used.add(y)
            trail.append(x)
            i, j = x - 1, y - 1
            for a, b in f.items():
                queue += [(xop[a - 1][i], yop[b - 1][j]),
                          (xop[i][a - 1], yop[j][b - 1])]
        return True

    def extend(idx):
        while idx < n and order[idx] in f:
            idx += 1
        if idx == n:
            return dict(f)
        x = order[idx]
        for y in candidates[x]:
            trail = []
            if assign(x, y, trail):
                result = extend(idx + 1)
                if result is not None:
                    return result
            for a in trail:
                used.discard(f.pop(a))
        return None

    witness = extend(0)
    if witness is not None and (len(set(witness.values())) != n or not
                                is_homomorphism(witness, x_rack, y_rack)):
        raise ConsistencyError("isomorphism search returned a non-isomorphism")
    return witness
