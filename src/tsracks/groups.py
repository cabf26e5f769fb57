"""Finite abelian groups as explicit direct sums of cyclic groups.

A group is a tuple of moduli (m_1, ..., m_k), each >= 2, and an element
is an integer tuple of the same length with component i reduced mod m_i.
Addition is componentwise.  Everything here is exhaustive and meant for
desk-scale groups (order up to a few thousand).
"""

from collections import Counter
from itertools import product
from math import gcd, prod
from operator import add, mod, sub

from .errors import (ConsistencyError, MalformedElementError,
                     NotASubgroupError, ValidationError)


class AbelianGroup:
    """Direct sum of cyclic groups Z_{m_1} + ... + Z_{m_k}."""

    def __init__(self, moduli):
        moduli = tuple(moduli)
        if not moduli or not all(isinstance(m, int) and m >= 2
                                 for m in moduli):
            raise ValidationError(
                "moduli must be a nonempty list of integers >= 2")
        self.moduli = moduli
        self.rank = len(moduli)
        self.order = prod(moduli)
        self.zero = (0,) * self.rank

    def __eq__(self, other):
        return isinstance(other, AbelianGroup) and self.moduli == other.moduli

    def __hash__(self):
        return hash(self.moduli)

    def __repr__(self):
        return "AbelianGroup(%s)" % (self.moduli,)

    def elements(self):
        """All elements in lexicographic order."""
        return [tuple(v) for v in product(*(range(m) for m in self.moduli))]

    def check_element(self, x):
        if len(x) != self.rank or any(
            not (0 <= xi < mi) for xi, mi in zip(x, self.moduli)
        ):
            raise MalformedElementError(
                "%r is not an element of %r" % (x, self)
            )
        return tuple(x)

    def add(self, x, y):
        return tuple(map(mod, map(add, x, y), self.moduli))

    def sub(self, x, y):
        return tuple(map(mod, map(sub, x, y), self.moduli))

    def element_order(self, x):
        """Additive order: lcm over components of m_i / gcd(x_i, m_i)."""
        self.check_element(x)
        n = 1
        for a, m in zip(x, self.moduli):
            d = m // gcd(a, m)
            n = n * d // gcd(n, d)
        return n


def subgroup_closure(group, gens):
    """Smallest subset containing gens and 0, closed under + and negation
    (free in a finite group): add generators from 0 until nothing is new."""
    gens = list(dict.fromkeys(group.check_element(g) for g in gens))
    closed, frontier = {group.zero}, [group.zero]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = group.add(x, g)
            if y not in closed:
                closed.add(y)
                frontier.append(y)
    return frozenset(closed)


def is_subgroup(group, subset):
    subset = set(subset)
    if group.zero not in subset:
        return False
    return all(group.add(x, y) in subset for x in subset for y in subset)


def invariant_factors(group, subset):
    """Invariant factors d_1 | d_2 | ... | d_k of a subgroup, from its
    element-order census (see census_factors)."""
    subset = [group.check_element(x) for x in subset]
    if len(set(subset)) != len(subset):
        raise NotASubgroupError("element set has repeats")
    subset = set(subset)
    if not is_subgroup(group, subset):
        raise NotASubgroupError("set is not closed under addition")
    return census_factors([group.element_order(x) for x in subset])


def census_factors(orders):
    """Invariant factors of a finite abelian group from the additive orders
    of its elements, [] for the trivial group.  For each prime p, r_j =
    #{cyclic factors of the p-part with exponent >= j} comes from the
    census c_j = #{x : p^j x = 0} as c_j / c_{j-1} = p^{r_j}; the exponents
    are the conjugate partition, aligned by size across the primes."""
    n = len(orders)
    if n == 1:
        return []
    census = Counter(orders)
    exps_by_prime = {}
    for p in _prime_factors(n):
        r = []
        prev = 1
        while True:
            pj = p ** (len(r) + 1)
            cur = sum(c for order, c in census.items() if pj % order == 0)
            if cur == prev:
                break
            r.append(_int_log(cur // prev, p))
            prev = cur
        exps = [sum(1 for rj in r if rj >= i + 1) for i in range(max(r))]
        exps_by_prime[p] = exps  # largest exponent first

    k = max(len(e) for e in exps_by_prime.values())
    factors = [1] * k
    for p, exps in exps_by_prime.items():
        for i, e in enumerate(exps):
            factors[k - 1 - i] *= p**e
    if prod(factors) != n or any(b % a for a, b in zip(factors, factors[1:])):
        raise ConsistencyError(
            "invariant factors %r do not form a chain of product %d"
            % (factors, n))
    return factors


def _int_log(x, p):
    e = 0
    while x > 1 and x % p == 0:
        x //= p
        e += 1
    return e


def _prime_factors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out

