from itertools import product

import pytest

from oracles import module_iso_oracle
from tsracks.errors import (
    NotInvertibleError,
    RelationViolationError,
    ValidationError,
    WrongStructureError,
)
from tsracks.groups import QuotientRing
from tsracks.modules import (
    alexander_iso_check,
    all_module_isos,
    enumerate_linear,
    make_linear,
    make_module,
    make_quotient,
    module_iso_exists,
    s_submodule,
    tsrack_from_spec,
    tsrack_iso_check,
)
from tsracks.racks import find_isomorphism, is_homomorphism, rack_rank, validate_rack

PAPER_ORDER_Z4 = [(1,), (2,), (3,), (0,)]
EXAMPLE_36 = ((3, 1, 3, 1), (4, 2, 4, 2), (1, 3, 1, 3), (2, 4, 2, 4))
EXAMPLE_37 = ((1, 3, 1, 3), (2, 4, 2, 4), (3, 1, 3, 1), (4, 2, 4, 2))


def _alexander(n, coeffs):
    """Module spec of the Alexander quandle A(n; p): t is the companion
    matrix of the monic p (ascending coefficients) over Z_n, s = 1 - t."""
    d = len(coeffs) - 1
    t = [[int(i == j + 1) for j in range(d)] for i in range(d)]
    for i in range(d):
        t[i][d - 1] = -coeffs[i] % n
    s = [[(int(i == j) - t[i][j]) % n for j in range(d)] for i in range(d)]
    return {"type": "module", "moduli": [n] * d, "t": t, "s": s}


def _rebased_spec(rack, p):
    """Module spec of ``rack`` on Z_n^k written in the basis given by the
    invertible matrix p: T' = P T P^-1 and S' = P S P^-1, so x -> Px is a
    rack isomorphism onto it."""
    n, k = rack.group.moduli[0], len(p)

    def apply(x):
        return tuple(sum(a * b for a, b in zip(row, x)) % n for row in p)

    p_inv = {apply(x): x for x in rack.carrier}
    assert len(p_inv) == rack.order, "p is not invertible"
    basis = [tuple(int(i == j) for i in range(k)) for j in range(k)]
    t = [list(r) for r in zip(*(apply(rack.t(p_inv[e])) for e in basis))]
    s = [list(r) for r in zip(*(apply(rack.s(p_inv[e])) for e in basis))]
    return {"type": "module", "moduli": [n] * k, "t": t, "s": s}


def _assert_rack_isomorphism(x, y, phi):
    assert sorted(phi) == list(x.carrier)
    assert sorted(phi.values()) == list(y.carrier)
    for u in x.carrier:
        for v in x.carrier:
            assert phi[x.op(u, v)] == y.op(phi[u], phi[v])


def _assert_certificate(x, y, cert):
    """The conditions of the (t,s)-rack criterion on a certificate."""
    gx, gy = x.group, y.group
    sx, sy = s_submodule(x), s_submodule(y)
    h, g, phi = cert.h, cert.g, cert.phi
    reps_a, reps_b = cert.coset_reps_a, cert.coset_reps_b
    # h is an additive bijection sX -> sY commuting with t and s
    assert sorted(h) == list(sx.carrier)
    assert sorted(h.values()) == list(sy.carrier)
    for v in sx.carrier:
        assert h[x.t(v)] == y.t(h[v]) and h[x.s(v)] == y.s(h[v])
        for w in sx.carrier:
            assert h[gx.add(v, w)] == gy.add(h[v], h[w])
    # A and B = g(A) meet every coset of sX and sY exactly once, and
    # s g(a) = h(s a)
    assert sorted(gx.add(a, w) for a in reps_a for w in sx.carrier) \
        == list(x.carrier)
    assert reps_b == tuple(g[a] for a in reps_a)
    assert sorted(gy.add(b, w) for b in reps_b for w in sy.carrier) \
        == list(y.carrier)
    for a in reps_a:
        assert y.s(g[a]) == h[x.s(a)]
    # g lives on the (t+s)-orbit of A: g((t+s)a + w) = (t+s)g(a) + h(w)
    orbit, frontier = set(reps_a), list(reps_a)
    while frontier:
        v = x.ts(frontier.pop())
        if v not in orbit:
            orbit.add(v)
            frontier.append(v)
    assert set(g) == orbit
    for a in orbit:
        for w in sx.carrier:
            v = gx.add(x.ts(a), w)
            if v in orbit:
                assert g[v] == gy.add(y.ts(g[a]), h[w])
    # phi(a + w) = g(a) + h(w), a rack isomorphism
    for a in reps_a:
        for w in sx.carrier:
            assert phi[gx.add(a, w)] == gy.add(g[a], h[w])
    _assert_rack_isomorphism(x, y, phi)


class TestMakeLinear:
    def test_smallest_nonquandle(self):
        x = make_linear(4, 1, 2)
        assert x.rack_rank() == 2
        assert x.to_finite_rack(order=PAPER_ORDER_Z4).op_matrix == EXAMPLE_36

    def test_t_must_be_unit(self):
        with pytest.raises(NotInvertibleError):
            make_linear(4, 2, 2)

    def test_s_relation_checked(self):
        with pytest.raises(RelationViolationError) as info:
            make_linear(4, 3, 1)
        assert "1" in str(info.value) and "2" in str(info.value)

    def test_kink_map_is_t_plus_s(self):
        for n, t, s in [(4, 1, 2), (4, 3, 2), (6, 5, 2), (8, 3, 2)]:
            x = make_linear(n, t, s)
            for v in x.carrier:
                assert x.op(v, v) == x.ts(v)
                assert x.ts(v) == ((t + s) * v[0] % n,)


class TestMakeQuotient:
    def test_four_element_quotient_table(self):
        y = make_quotient(2, [1, 1])
        assert y.order == 4
        rack = y.to_finite_rack(order=[(0, 0), (1, 0), (0, 1), (1, 1)])
        assert rack.op_matrix == EXAMPLE_37

    def test_sixteen_element_quotient(self):
        x = make_quotient(2, [1, 0, 1])
        assert x.order == 16
        assert x.rack_rank() == 4

    def test_s_action_sends_one_to_s(self):
        y = make_quotient(2, [1, 1])
        assert y.s((1, 0)) == (0, 1)

    def test_t_must_be_unit_in_ring(self):
        with pytest.raises(NotInvertibleError):
            make_quotient(4, [2, 1])  # constant term 2 not a unit mod 4

    @pytest.mark.parametrize("n, coeffs", [
        (2, [1, 1]), (2, [1, 0, 1]), (2, [1, 1, 1]), (3, [1, 1]),
        (5, [2, 1]), (3, [2, 0, 1]), (2, [1, 0, 0, 1, 1]),
        (2, [1, 0, 0, 0, 0, 1]),
    ])
    def test_maps_match_ring_definition(self, n, coeffs):
        # element by element: x = (a, b) stands for a + b s, with
        # t(x) = (t a, t b) and s(x) = (0, a + (1-t) b) in R = Z_n[t]/(p)
        ring = QuotientRing(n, coeffs)
        d = ring.degree
        one_minus_t = ring.sub(ring.one, ring.t)
        pairs = [a + b for a in ring.elements() for b in ring.elements()]
        x = make_quotient(n, coeffs)
        assert x.carrier == tuple(sorted(pairs))
        assert x.spec == {"type": "quotient", "n": n, "p": coeffs}
        assert set(x.t_map) == set(x.s_map) == set(pairs)
        for v in pairs:
            a, b = v[:d], v[d:]
            assert x.t(v) == ring.t_times(a) + ring.t_times(b)
            assert x.s(v) == ring.zero + ring.add(a, ring.mul(one_minus_t, b))


class TestMakeModule:
    def test_klein_four_structure_matches_quotient(self):
        m = make_module((2, 2), [[1, 0], [0, 1]], [[0, 0], [1, 0]])
        q = make_quotient(2, [1, 1])
        assert m.to_finite_rack().op_matrix == q.to_finite_rack().op_matrix

    def test_z4_structure_matches_linear(self):
        m = make_module((4,), [[1]], [[2]])
        x = make_linear(4, 1, 2)
        assert m.to_finite_rack().op_matrix == x.to_finite_rack().op_matrix

    def test_trivial_quandle(self):
        m = make_module((2, 3), [[1, 0], [0, 1]], [[0, 0], [0, 0]])
        rack = m.to_finite_rack()
        assert all(rack.op(x, y) == x for x in rack.elements
                   for y in rack.elements)

    def test_errors_are_distinct(self):
        with pytest.raises(NotInvertibleError):
            make_module((4,), [[2]], [[0]])
        with pytest.raises(ValidationError):
            # t = swap and s = project do not commute
            make_module((2, 2), [[0, 1], [1, 0]], [[0, 0], [1, 0]])
        with pytest.raises(RelationViolationError):
            make_module((4,), [[3]], [[1]])

    def test_mixed_moduli_congruence(self):
        with pytest.raises(ValidationError):
            # entry maps Z_2 -> Z_4 by 1, not well-defined
            make_module((4, 2), [[1, 1], [0, 1]], [[0, 0], [0, 0]])

    @pytest.mark.parametrize("moduli, t, s", [
        ((2, 4), [[1, 1], [2, 3]], [[0, 1], [2, 2]]),
        ((3, 9), [[2, 1], [3, 4]], [[2, 8], [6, 6]]),
        ((2, 2, 2), [[1, 1, 0], [0, 1, 1], [0, 0, 1]],
         [[0, 1, 0], [0, 0, 1], [0, 0, 0]]),
        ((32, 32), [[0, 31], [1, 0]], [[1, 1], [31, 1]]),
    ], ids=["Z2+Z4", "Z3+Z9", "Z2^3", "Z32^2"])
    def test_maps_match_matrix_product(self, moduli, t, s):
        # every element in lexicographic order, x -> A x mod the moduli
        def product_map(a):
            return [(x, tuple(sum(aij * xj for aij, xj in zip(row, x)) % m
                              for row, m in zip(a, moduli)))
                    for x in product(*(range(m) for m in moduli))]

        rack = make_module(moduli, t, s)
        assert list(rack.t_map.items()) == product_map(t)
        assert list(rack.s_map.items()) == product_map(s)


class TestEnumerateLinear:
    def test_n4(self):
        assert enumerate_linear(4) == [(1, 0), (1, 2), (3, 0), (3, 2)]

    def test_n2(self):
        # t=1 is the only unit mod 2 and s=1 fails s^2 = (1-t)s,
        # consistent with the prime-field dichotomy (s=0 or s=1-t=0)
        assert enumerate_linear(2) == [(1, 0)]

    def test_prime_dichotomy(self):
        # over a prime field: constant action (s=0) or Alexander (s=1-t)
        for p in (2, 3, 5, 7):
            for t, s in enumerate_linear(p):
                assert s == 0 or s == (1 - t) % p

    def test_all_validate(self):
        for n in range(2, 13):
            for t, s in enumerate_linear(n):
                make_linear(n, t, s)


class TestToFiniteRack:
    def test_default_order_is_lexicographic(self):
        x = make_linear(4, 1, 2)
        rack = x.to_finite_rack()
        # row 1 is the element 0: 0 > y = 2y, i.e. 0, 2, 0, 2 -> 1, 3, 1, 3
        assert rack.op_matrix[0] == (1, 3, 1, 3)

    def test_trivial(self):
        rack = make_linear(5, 1, 0).to_finite_rack()
        assert all(rack.op(x, y) == x for x in rack.elements
                   for y in rack.elements)

    def test_bad_order_rejected(self):
        x = make_linear(4, 1, 2)
        with pytest.raises(ValidationError):
            x.to_finite_rack(order=[(0,), (1,), (2,), (2,)])

    def test_export_is_the_validated_rack(self):
        # the export skips axiom (ii); validate_rack checks all of it
        racks = [make_linear(n, t, s) for n in range(2, 9)
                 for t, s in enumerate_linear(n)]
        racks.append(make_quotient(2, [1, 0, 1]))
        for x in racks:
            for order in (None, x.carrier[::-1]):
                exported = x.to_finite_rack(order)
                checked = validate_rack(exported.op_matrix)
                assert checked == exported
                assert checked.inv_matrix == exported.inv_matrix


class TestSSubmodule:
    def test_linear_4_1_2(self):
        sub = s_submodule(make_linear(4, 1, 2))
        assert sub.carrier == ((0,), (2,))
        assert sub.t((2,)) == (2,)
        assert sub.s((2,)) == (0,)

    def test_linear_4_3_2(self):
        assert s_submodule(make_linear(4, 3, 2)).carrier == ((0,), (2,))

    def test_zero_s(self):
        assert s_submodule(make_linear(6, 5, 0)).carrier == ((0,),)


class TestModuleIso:
    def test_paper_s_submodules_isomorphic(self):
        sx = s_submodule(make_linear(4, 1, 2))
        sy = s_submodule(make_linear(4, 3, 2))
        assert module_iso_exists(sx, sy) is not None

    def test_identity(self):
        sx = s_submodule(make_linear(4, 1, 2))
        assert module_iso_exists(sx, sx) is not None

    def test_different_t_actions(self):
        m1 = make_module((5,), [[2]], [[4]])
        m2 = make_module((5,), [[3]], [[3]])
        assert module_iso_exists(m1, m2) is None

    def test_respects_addition(self):
        m = make_module((2, 2), [[1, 0], [0, 1]], [[0, 0], [1, 0]])
        h = module_iso_exists(m, m)
        g = m.group
        for x in m.carrier:
            for y in m.carrier:
                assert h[g.add(x, y)] == g.add(h[x], h[y])


# (moduli, [(t matrix, s matrix), ...]): (t,s)-racks on the whole group;
# some are isomorphic through a change of basis, most are not
MODULES_ON_GROUPS = {
    "Z4": ((4,), [([[t]], [[s]]) for t, s in enumerate_linear(4)]),
    "Z2+Z2": ((2, 2), [
        ([[1, 0], [0, 1]], [[0, 0], [0, 0]]),
        ([[1, 1], [0, 1]], [[0, 1], [0, 0]]),
        ([[0, 1], [1, 1]], [[1, 1], [1, 0]]),
        ([[1, 0], [0, 1]], [[0, 0], [1, 0]]),
        ([[0, 1], [1, 0]], [[0, 0], [0, 0]]),
        ([[1, 0], [1, 1]], [[0, 0], [1, 0]]),
    ]),
    "Z2^3": ((2, 2, 2), [
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]], [[0, 0, 0]] * 3),
        ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[1, 0, 1], [1, 1, 1], [0, 1, 1]]),
        ([[0, 1, 0], [0, 0, 1], [1, 1, 0]], [[1, 1, 0], [0, 1, 1], [1, 1, 1]]),
        ([[0, 0, 1], [1, 0, 1], [0, 1, 0]], [[0, 0, 0]] * 3),
        ([[1, 0, 0], [0, 1, 0], [0, 0, 1]],
         [[0, 0, 0], [1, 0, 0], [0, 0, 0]]),
    ]),
    "Z2+Z4": ((2, 4), [
        ([[1, 0], [0, 1]], [[0, 0], [0, 0]]),
        ([[1, 0], [2, 3]], [[0, 0], [2, 0]]),
        ([[1, 0], [0, 3]], [[0, 1], [0, 0]]),
        ([[1, 1], [2, 3]], [[0, 0], [0, 2]]),
        ([[1, 0], [2, 1]], [[0, 2], [2, 0]]),
        ([[1, 3], [0, 1]], [[0, 1], [0, 2]]),
        ([[1, 2], [2, 1]], [[0, 0], [0, 2]]),
    ]),
}


def _oracle_module(m):
    return m.group.moduli, m.carrier, m.t_map, m.s_map


def _assert_isos_match_oracle(modules):
    """all_module_isos yields exactly the oracle's maps, pair by pair."""
    for a in modules:
        for b in modules:
            found = [frozenset(h.items()) for h in all_module_isos(a, b)]
            assert len(set(found)) == len(found)
            want = module_iso_oracle(_oracle_module(a), _oracle_module(b))
            assert set(found) == {frozenset(h.items()) for h in want}, (a, b)


class TestModuleIsosAgainstOracle:
    @pytest.mark.parametrize("group", sorted(MODULES_ON_GROUPS))
    def test_whole_groups(self, group):
        moduli, maps = MODULES_ON_GROUPS[group]
        _assert_isos_match_oracle([make_module(moduli, t, s)
                                   for t, s in maps])

    def test_s_submodules(self):
        # proper subgroups of their ambient groups, of orders 2, 4 and 8
        racks = [make_linear(8, 1, 4), make_linear(16, 1, 4),
                 make_linear(16, 9, 4), make_quotient(2, [1, 1]),
                 make_quotient(2, [1, 0, 1]), make_quotient(2, [1, 1, 1]),
                 make_quotient(2, [1, 0, 0, 1]),
                 make_quotient(2, [1, 1, 0, 1])]
        _assert_isos_match_oracle([s_submodule(r) for r in racks])

    def test_no_isomorphism(self):
        pair = [make_module((5,), [[2]], [[4]]),
                make_module((5,), [[3]], [[3]])]
        assert list(all_module_isos(*pair)) == []
        _assert_isos_match_oracle(pair)


class TestTSRackIsoCheck:
    def test_paper_isomorphic_pair(self):
        x = make_linear(4, 1, 2)
        y = make_quotient(2, [1, 1])
        cert = tsrack_iso_check(x, y)
        assert cert is not None
        # the assembled map is an honest rack isomorphism
        rx = x.to_finite_rack()
        ry = y.to_finite_rack()
        index_x = {v: i + 1 for i, v in enumerate(x.carrier)}
        index_y = {v: i + 1 for i, v in enumerate(y.carrier)}
        f = {index_x[v]: index_y[cert.phi[v]] for v in x.carrier}
        assert is_homomorphism(f, rx, ry)
        assert len(set(f.values())) == 4

    def test_certificate_conditions(self):
        pairs = [(make_linear(4, 1, 2), make_quotient(2, [1, 1]))]
        for n in range(2, 9):
            racks = [make_linear(n, t, s) for t, s in enumerate_linear(n)]
            pairs += [(a, b) for a in racks for b in racks]
        for i, (x, y) in enumerate(pairs):
            cert = tsrack_iso_check(x, y)
            # the paper's pair and every rack against itself are isomorphic
            assert cert is not None or (i > 0 and x is not y)
            if cert is not None:
                _assert_certificate(x, y, cert)

    def test_rank_obstruction(self):
        assert tsrack_iso_check(make_linear(4, 1, 2),
                                make_linear(4, 3, 2)) is None

    def test_self(self):
        x = make_linear(4, 1, 2)
        assert tsrack_iso_check(x, x) is not None

    def test_kink_cycle_type_obstruction(self):
        # equal order and rack rank, kink cycle types 2^4 1^4 and 2^3 1^6
        x, y = make_linear(12, 5, 0), make_linear(12, 7, 0)
        assert x.rack_rank() == y.rack_rank() == 2
        assert tsrack_iso_check(x, y) is None
        assert tsrack_iso_check(y, x) is None

    @staticmethod
    def assert_agrees_with_brute_force(racks):
        finite = [r.to_finite_rack() for r in racks]
        for a, fa in zip(racks, finite):
            for b, fb in zip(racks, finite):
                brute = find_isomorphism(fa, fb)
                cert = tsrack_iso_check(a, b)
                assert (brute is None) == (cert is None), (a, b)

    def test_agrees_with_brute_force_s_zero(self):
        self.assert_agrees_with_brute_force(
            [make_linear(n, t, s) for n in range(2, 17)
             for t, s in enumerate_linear(n) if s == 0])

    def test_agrees_with_brute_force_small(self):
        # every equal-order pair up to n = 16, about 1 s in all
        for n in range(2, 17):
            racks = [make_linear(n, t, s) for t, s in enumerate_linear(n)]
            if n == 4:
                racks.append(make_quotient(2, [1, 1]))
            self.assert_agrees_with_brute_force(racks)


# fixed invertible matrices over Z_3 for rebasing quotient(3, [2,0,1])
REBASINGS = [
    [[0, 1, 2, 1], [1, 0, 1, 0], [2, 2, 0, 1], [1, 0, 0, 2]],
    [[0, 1, 0, 0], [0, 0, 1, 0], [0, 0, 0, 1], [1, 0, 0, 0]],
    [[1, 2, 0, 1], [0, 1, 1, 0], [2, 0, 1, 0], [0, 0, 1, 1]],
    [[2, 1, 1, 0], [1, 0, 2, 1], [0, 1, 1, 2], [1, 1, 0, 1]],
    [[0, 1, 1, 0], [2, 0, 1, 0], [0, 1, 0, 2], [0, 1, 1, 1]],
]


class TestHardPairs:
    """Pairs the criterion once took seconds or more to decide."""

    # Alexander quandles on Z_2^4 with invertible 1 - t: t of order 15
    # against t of order 6
    A2 = (_alexander(2, [1, 0, 0, 1, 1]), _alexander(2, [1, 0, 1, 0, 1]))

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_alexander_look_alikes_z2(self, order):
        x, y = (tsrack_from_spec(self.A2[i]) for i in order)
        assert tsrack_iso_check(x, y) is None
        assert not alexander_iso_check(x, y)
        assert find_isomorphism(x.to_finite_rack(),
                                y.to_finite_rack()) is None

    def test_alexander_look_alikes_z3(self):
        x = tsrack_from_spec(_alexander(3, [1, 2, 0, 1]))
        y = tsrack_from_spec(_alexander(3, [2, 1, 0, 1]))
        assert tsrack_iso_check(x, y) is None
        assert not alexander_iso_check(x, y)

    @pytest.mark.parametrize("t2", [7, 6])
    def test_s_zero_on_z11(self, t2):
        x, y = make_linear(11, 2, 0), make_linear(11, t2, 0)
        cert = tsrack_iso_check(x, y)
        assert cert is not None
        _assert_rack_isomorphism(x, y, cert.phi)

    @pytest.mark.parametrize("p", REBASINGS)
    def test_rebased_quotient(self, p):
        x = make_quotient(3, [2, 0, 1])
        y = tsrack_from_spec(_rebased_spec(x, p))
        cert = tsrack_iso_check(x, y)
        assert cert is not None
        _assert_rack_isomorphism(x, y, cert.phi)


class TestAlexanderIsoCheck:
    def test_trivial_quandles_of_equal_order(self):
        a = make_module((4,), [[1]], [[0]])
        b = make_module((2, 2), [[1, 0], [0, 1]], [[0, 0], [0, 0]])
        assert alexander_iso_check(a, b)

    def test_z5_t2_vs_t3(self):
        a = make_module((5,), [[2]], [[4]])
        b = make_module((5,), [[3]], [[3]])
        assert not alexander_iso_check(a, b)
        assert find_isomorphism(a.to_finite_rack(), b.to_finite_rack()) is None

    def test_self(self):
        a = make_module((5,), [[2]], [[4]])
        assert alexander_iso_check(a, a)

    def test_rejects_non_alexander(self):
        with pytest.raises(WrongStructureError):
            alexander_iso_check(make_linear(4, 1, 2), make_linear(4, 1, 2))

    def test_agrees_with_brute_force(self):
        quandles = []
        for n in (3, 4, 5, 6, 7, 8):
            for t, s in enumerate_linear(n):
                if s == (1 - t) % n:
                    quandles.append(make_linear(n, t, s))
        for a in quandles:
            for b in quandles:
                expected = find_isomorphism(a.to_finite_rack(),
                                            b.to_finite_rack()) is not None
                assert alexander_iso_check(a, b) == expected


class TestStructureProperties:
    def test_translation_criterion(self):
        # p_z(x) = x + z is a rack isomorphism iff (t+s)z = z
        for n in (4, 6):
            for t, s in enumerate_linear(n):
                x = make_linear(n, t, s)
                rack = x.to_finite_rack()
                elems = list(x.carrier)
                index = {v: i + 1 for i, v in enumerate(elems)}
                for z in elems:
                    f = {index[v]: index[x.group.add(v, z)] for v in elems}
                    translates = is_homomorphism(f, rack, rack)
                    assert translates == (x.ts(z) == z)

    def test_left_distributive_iff_alexander(self):
        for n in range(2, 13):
            for t, s in enumerate_linear(n):
                x = make_linear(n, t, s)
                left = all(
                    x.op(a, x.op(b, c)) == x.op(x.op(a, b), x.op(a, c))
                    for a in x.carrier for b in x.carrier for c in x.carrier)
                assert left == x.is_alexander()

    def test_s_image_inside_maximal_subquandle(self):
        from tsracks.racks import maximal_subquandle

        for n, t, s in [(4, 1, 2), (4, 3, 2), (8, 3, 2), (6, 5, 2)]:
            x = make_linear(n, t, s)
            rack = x.to_finite_rack()
            elems = list(x.carrier)
            index = {v: i + 1 for i, v in enumerate(elems)}
            q = set(maximal_subquandle(rack))
            s_image = {index[x.s(v)] for v in elems}
            assert s_image <= q

    def test_proper_inclusion_witness(self):
        x = make_linear(4, 3, 2)
        s_image = {x.s(v) for v in x.carrier}
        fixed = {v for v in x.carrier if x.ts(v) == v}
        assert s_image == {(0,), (2,)}
        assert fixed == set(x.carrier)
        assert s_image < fixed

    def test_subquandle_operation_is_alexander(self):
        # on Q(X), x > y = t(x) + (Id - t)(y)
        for n, t, s in [(4, 1, 2), (8, 3, 2), (6, 5, 2)]:
            x = make_linear(n, t, s)
            g = x.group
            fixed = [v for v in x.carrier if x.ts(v) == v]
            for a in fixed:
                for b in fixed:
                    assert x.op(a, b) == g.add(x.t(a), g.sub(b, x.t(b)))

    def test_homs_respect_kink_scalar(self):
        x = make_linear(4, 1, 2)
        y = make_quotient(2, [1, 1])
        cert = tsrack_iso_check(x, y)
        for v in x.carrier:
            assert cert.phi[x.ts(v)] == y.ts(cert.phi[v])


class TestSpecParsing:
    def test_linear_spec(self):
        x = tsrack_from_spec({"type": "linear", "n": 4, "t": 1, "s": 2})
        assert x.spec == {"type": "linear", "n": 4, "t": 1, "s": 2}

    def test_quotient_spec(self):
        x = tsrack_from_spec({"type": "quotient", "n": 2, "p": [1, 1]})
        assert x.order == 4

    def test_module_spec(self):
        x = tsrack_from_spec({
            "type": "module", "moduli": [2, 2],
            "t": [[1, 0], [0, 1]], "s": [[0, 0], [1, 0]],
        })
        assert x.order == 4

    def test_bad_specs(self):
        for spec in ({}, {"type": "nope"}, {"type": "linear", "n": 4},
                     "linear"):
            with pytest.raises(ValidationError):
                tsrack_from_spec(spec)
