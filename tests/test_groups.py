from itertools import product
from math import prod

import pytest

from oracles import ring_mul
from tsracks.errors import (
    InvalidPolynomialError,
    MalformedElementError,
    NotASubgroupError,
    NotInvertibleError,
)
from tsracks.groups import (
    AbelianGroup,
    invariant_factors,
    is_subgroup,
    subgroup_closure,
)
from tsracks.modules import make_quotient


Z4 = AbelianGroup([4])
Z12 = AbelianGroup([12])
Z2Z2 = AbelianGroup([2, 2])


def members(group, *values):
    return [(v,) for v in values]


class TestSubgroupClosure:
    def test_order_two_element(self):
        assert subgroup_closure(Z4, [(2,)]) == {(0,), (2,)}

    def test_empty_generating_set(self):
        assert subgroup_closure(Z4, []) == {(0,)}

    def test_order_three_element_of_z12(self):
        assert subgroup_closure(Z12, [(4,)]) == {(0,), (4,), (8,)}

    def test_malformed_generator(self):
        with pytest.raises(MalformedElementError):
            subgroup_closure(Z4, [(4,)])
        with pytest.raises(MalformedElementError):
            subgroup_closure(Z4, [(1, 1)])

    def test_idempotent(self):
        for gens in ([(3,)], [(2,), (9,)], [(6,), (8,)]):
            once = subgroup_closure(Z12, gens)
            assert subgroup_closure(Z12, once) == once

    def test_lagrange(self):
        for g in Z12.elements():
            assert Z12.order % len(subgroup_closure(Z12, [g])) == 0
        for g in Z2Z2.elements():
            assert Z2Z2.order % len(subgroup_closure(Z2Z2, [g])) == 0


class TestInvariantFactors:
    def test_order_two_subgroup(self):
        assert invariant_factors(Z4, [(0,), (2,)]) == [2]

    def test_klein_four(self):
        assert invariant_factors(Z2Z2, Z2Z2.elements()) == [2, 2]

    def test_even_residues_of_z12(self):
        evens = [(x,) for x in range(0, 12, 2)]
        assert invariant_factors(Z12, evens) == [6]

    def test_not_closed(self):
        with pytest.raises(NotASubgroupError):
            invariant_factors(Z4, [(0,), (1,)])

    def test_full_groups_recover_their_own_factors(self):
        cases = {
            (12,): [12],
            (2, 4): [2, 4],
            (6,): [6],
            (2, 6): [2, 6],
            (2, 2, 2): [2, 2, 2],
            (3, 4): [12],
        }
        for moduli, expected in cases.items():
            g = AbelianGroup(moduli)
            assert invariant_factors(g, g.elements()) == expected

    def test_divisor_chain_and_product(self):
        g = AbelianGroup([2, 12])
        for gens in ([(1, 2)], [(0, 3), (1, 0)], [(1, 6), (0, 4)]):
            sub = subgroup_closure(g, gens)
            factors = invariant_factors(g, sub)
            assert prod(factors) == len(sub)
            assert all(b % a == 0 for a, b in zip(factors, factors[1:]))

    def test_census_determines_factors(self):
        # two distinct order-4 subgroups of Z2+Z4 with cyclic census
        g = AbelianGroup([2, 4])
        s1 = subgroup_closure(g, [(0, 1)])
        s2 = subgroup_closure(g, [(1, 1)])
        assert s1 != s2
        assert invariant_factors(g, s1) == invariant_factors(g, s2) == [4]


class TestQuotientRing:
    """R = Z_n[t]/(p(t)) as the (t,s)-rack on R + R built from it: R's
    element a is (a, 0), so t((1, 0)) is the class of t."""

    def test_degree_one(self):
        x = make_quotient(2, [1, 1])  # t + 1
        assert x.order == 2 ** 2
        assert x.t((1, 0)) == (1, 0)

    def test_t_squared_plus_one_mod_two(self):
        x = make_quotient(2, [1, 0, 1])
        assert x.order == 4 ** 2
        assert x.t((1, 0, 0, 0)) == (0, 1, 0, 0)
        # t^2 = -1 = 1 mod 2, so t is its own inverse
        assert all(x.t(x.t(v)) == v for v in x.carrier)
        assert x.t_inv_map == x.t_map

    def test_z4_linear_quotient(self):
        x = make_quotient(4, [-3, 1])  # t - 3
        assert x.order == 4 ** 2
        assert x.t((1, 0)) == (3, 0)
        assert x.t((3, 0)) == (1, 0)  # 3 * 3 = 9 = 1 mod 4

    def test_non_monic_rejected(self):
        with pytest.raises(InvalidPolynomialError):
            make_quotient(4, [1, 2])
        with pytest.raises(InvalidPolynomialError):
            make_quotient(2, [1])
        with pytest.raises(InvalidPolynomialError):
            make_quotient(2, [1, 1, 0])

    def test_unit_detection_matches_exhaustive_search(self):
        for n, coeffs in [(2, [1, 1]), (2, [1, 0, 1]), (4, [2, 0, 1]),
                          (4, [1, 1, 1]), (6, [3, 0, 1]), (6, [5, 1])]:
            d = len(coeffs) - 1
            one = ring_mul(n, coeffs, (1,), (1,))
            has_inverse = any(ring_mul(n, coeffs, (0, 1), b) == one
                              for b in product(range(n), repeat=d))
            try:
                make_quotient(n, coeffs)
                t_is_unit = True
            except NotInvertibleError:
                t_is_unit = False
            assert t_is_unit == has_inverse


def test_is_subgroup():
    assert is_subgroup(Z4, {(0,), (2,)})
    assert not is_subgroup(Z4, {(0,), (1,)})
    assert not is_subgroup(Z4, {(2,)})
