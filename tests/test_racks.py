import os
import subprocess
import sys
from math import lcm
from pathlib import Path

import pytest

from tsracks.errors import RackAxiomError, ValidationError
from tsracks.racks import (
    constant_action_rack,
    conjugation_rack,
    find_isomorphism,
    is_homomorphism,
    maximal_subquandle,
    rack_from_text,
    rack_rank,
    validate_rack,
)
from tsracks.modules import enumerate_linear, make_linear, make_quotient

CONSTANT_123 = [[2, 2, 2], [3, 3, 3], [1, 1, 1]]
LINEAR_Z4 = [[3, 1, 3, 1], [4, 2, 4, 2], [1, 3, 1, 3], [2, 4, 2, 4]]
PAPER_ORDER_Z4 = [(1,), (2,), (3,), (0,)]
ROOT = Path(__file__).resolve().parent.parent


def trivial_quandle(n):
    return validate_rack([[i + 1] * n for i in range(n)])


class TestValidateRack:
    def test_constant_action_matrix(self):
        rack = validate_rack(CONSTANT_123)
        assert rack.n == 3

    def test_linear_z4_matrix(self):
        rack = validate_rack(LINEAR_Z4)
        assert tuple(rack.op(x, x) for x in rack.elements) == (3, 2, 1, 4)

    def test_column_not_permutation(self):
        with pytest.raises(RackAxiomError) as info:
            validate_rack([[1, 1], [1, 2]])
        assert info.value.axiom == 1
        assert info.value.witness == 1

    def test_distributivity_failure_with_witness(self):
        with pytest.raises(RackAxiomError) as info:
            validate_rack([[1, 2], [2, 1]])
        assert info.value.axiom == 2
        assert len(info.value.witness) == 3

    def test_inverse_operation(self):
        rack = validate_rack(LINEAR_Z4)
        for x in rack.elements:
            for y in rack.elements:
                assert rack.op_inv(rack.op(x, y), y) == x
                assert rack.op(rack.op_inv(x, y), y) == x

    def test_mixed_distributivity(self):
        # (x > y) >^{-1} z = (x >^{-1} z) > (y >^{-1} z), a derived move
        for matrix in (CONSTANT_123, LINEAR_Z4):
            rack = validate_rack(matrix)
            for x in rack.elements:
                for y in rack.elements:
                    for z in rack.elements:
                        left = rack.op_inv(rack.op(x, y), z)
                        right = rack.op(rack.op_inv(x, z), rack.op_inv(y, z))
                        assert left == right


class TestRackRank:
    def test_constant_action_three_cycle(self):
        n, per = rack_rank(validate_rack(CONSTANT_123))
        assert n == 3
        assert per == [3, 3, 3]

    def test_linear_z4(self):
        n, _ = rack_rank(validate_rack(LINEAR_Z4))
        assert n == 2

    def test_quandle(self):
        n, per = rack_rank(trivial_quandle(5))
        assert n == 1
        assert per == [1] * 5

    def test_lcm_property(self):
        for rack in (validate_rack(CONSTANT_123), validate_rack(LINEAR_Z4),
                     constant_action_rack([2, 3, 4, 1, 6, 5])):
            n, per = rack_rank(rack)
            assert n == lcm(*per)


def _kink_order(elements, op):
    """Smallest k >= 1 with pi^k = id, pi(x) = x > x, by composing pi."""
    pi = {x: op(x, x) for x in elements}
    power = dict(pi)
    k = 1
    while any(power[x] != x for x in elements):
        power = {x: pi[power[x]] for x in elements}
        k += 1
    return k


def _cycle_lengths(elements, op):
    """Per element, the length of its pi-cycle, by walking pi."""
    out = []
    for x in elements:
        y, length = op(x, x), 1
        while y != x:
            y, length = op(y, y), length + 1
        out.append(length)
    return out


class TestRackRankOracle:
    def check(self, x):
        k = _kink_order(x.carrier, x.op)
        assert x.rack_rank() == k
        assert rack_rank(x.to_finite_rack())[0] == k
        # read off the rack itself or its export, in carrier order
        per = _cycle_lengths(x.carrier, x.op)
        assert rack_rank(x) == rack_rank(x.to_finite_rack()) == (k, per)

    def test_linear_racks_up_to_twelve(self):
        for n in range(2, 13):
            for t, s in enumerate_linear(n):
                self.check(make_linear(n, t, s))

    def test_quotient_racks(self):
        for coeffs in ([1, 1], [1, 0, 1]):
            self.check(make_quotient(2, coeffs))

    def test_constant_action_racks(self):
        for sigma in ([1, 2, 3], [2, 1], [2, 3, 1], [2, 1, 3, 4],
                      [2, 1, 4, 3], [2, 3, 4, 1, 6, 5]):
            rack = constant_action_rack(sigma)
            assert rack_rank(rack)[0] == _kink_order(rack.elements, rack.op)
            assert rack_rank(rack)[1] == _cycle_lengths(rack.elements,
                                                        rack.op)


class TestConstructors:
    def test_constant_action_swap(self):
        rack = constant_action_rack([2, 1])
        assert rack.op_matrix == ((2, 2), (1, 1))

    def test_constant_action_identity(self):
        rack = constant_action_rack([1, 2, 3])
        assert rack == trivial_quandle(3)

    def test_constant_action_three_cycle(self):
        assert constant_action_rack([2, 3, 1]).op_matrix == \
            tuple(tuple(r) for r in CONSTANT_123)

    def test_constant_action_rejects_non_bijection(self):
        with pytest.raises(ValidationError):
            constant_action_rack([1, 1])

    def test_conjugation_abelian_is_trivial(self):
        z3 = [[1, 2, 3], [2, 3, 1], [3, 1, 2]]
        assert conjugation_rack(z3, 1) == trivial_quandle(3)

    def test_conjugation_exponent_zero(self):
        s3 = _symmetric_group_table(3)
        assert conjugation_rack(s3, 0) == trivial_quandle(6)

    def test_conjugation_s3(self):
        rack = conjugation_rack(_symmetric_group_table(3), 1)
        assert rack.n == 6
        assert rack_rank(rack)[0] == 1
        assert all(rack.op(x, x) == x for x in rack.elements)

    def test_conjugation_rejects_bad_table(self):
        with pytest.raises(ValidationError):
            conjugation_rack([[1, 1], [2, 2]], 1)


class TestMaximalSubquandle:
    def test_all_of_x(self):
        rack = make_linear(4, 3, 2).to_finite_rack()
        assert maximal_subquandle(rack) == (1, 2, 3, 4)

    def test_proper_subquandle(self):
        rack = make_linear(4, 1, 2).to_finite_rack()
        # elements with (t+s)x = 3x = x in Z_4 are 0 and 2; lexicographic
        # export puts them at positions 1 and 3
        assert maximal_subquandle(rack) == (1, 3)

    def test_empty(self):
        assert maximal_subquandle(constant_action_rack([2, 1])) == ()


class TestHomomorphisms:
    def test_identity(self):
        rack = validate_rack(LINEAR_Z4)
        f = {x: x for x in rack.elements}
        assert is_homomorphism(f, rack, rack)

    def test_paper_map_between_quotient_and_linear(self):
        # phi: Y -> X with phi(0)=4, phi(1)=1, phi(s)=2, phi(1+s)=3,
        # Y enumerated 0, 1, s, 1+s and X as residues 1,2,3,4(=0)
        y = make_quotient(2, [1, 1]).to_finite_rack(
            order=[(0, 0), (1, 0), (0, 1), (1, 1)])
        x = validate_rack(LINEAR_Z4)
        phi = {1: 4, 2: 1, 3: 2, 4: 3}
        assert is_homomorphism(phi, y, x)

    def test_rank_obstruction(self):
        # no map from a quandle can land on elements of rack rank 2, since
        # the image rank must divide the source rank
        source = trivial_quandle(2)
        target = constant_action_rack([2, 1])
        for a in (1, 2):
            for b in (1, 2):
                assert not is_homomorphism({1: a, 2: b}, source, target)
        # the other direction admits exactly the constant maps
        back = [f for a in (1, 2) for b in (1, 2)
                if is_homomorphism((f := {1: a, 2: b}), target, source)]
        assert back == [{1: 1, 2: 1}, {1: 2, 2: 2}]

    def test_image_rank_divides(self):
        source = validate_rack(LINEAR_Z4)
        target = validate_rack(LINEAR_Z4)
        _, per_s = rack_rank(source)
        _, per_t = rack_rank(target)
        f = find_isomorphism(source, target)
        for x in source.elements:
            assert per_s[x - 1] % per_t[f[x] - 1] == 0


class TestFindIsomorphism:
    def test_paper_pair(self):
        x = make_linear(4, 1, 2).to_finite_rack()
        y = make_quotient(2, [1, 1]).to_finite_rack()
        f = find_isomorphism(x, y)
        assert f is not None
        assert is_homomorphism(f, x, y)

    def test_rank_mismatch(self):
        assert find_isomorphism(constant_action_rack([2, 1]),
                                trivial_quandle(2)) is None

    def test_self(self):
        rack = validate_rack(CONSTANT_123)
        f = find_isomorphism(rack, rack)
        assert f is not None

    def test_symmetric(self):
        pairs = [
            (make_linear(4, 1, 2).to_finite_rack(),
             make_quotient(2, [1, 1]).to_finite_rack()),
            (make_linear(4, 1, 2).to_finite_rack(),
             make_linear(4, 3, 2).to_finite_rack()),
            (constant_action_rack([2, 1, 4, 3]),
             constant_action_rack([4, 3, 2, 1])),
        ]
        for a, b in pairs:
            assert (find_isomorphism(a, b) is None) == \
                (find_isomorphism(b, a) is None)

    def test_distinguishes_same_profile_racks(self):
        # two commuting involutions vs one: different racks, same size
        a = constant_action_rack([2, 1, 4, 3])
        b = constant_action_rack([2, 1, 3, 4])
        # equal order and rack rank; only the kink cycle types differ
        assert rack_rank(a)[0] == rack_rank(b)[0] == 2
        assert find_isomorphism(a, b) is None
        assert find_isomorphism(b, a) is None

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_row_image_size_separates(self, order):
        # equal profiles but for the row image sizes |{x > y : y}|, 2
        # against 1; without them the search ran for seconds one way
        pair = (make_linear(12, 7, 6).to_finite_rack(),
                make_linear(12, 1, 0).to_finite_rack())
        sizes = [{len({r.op(x, y) for y in r.elements}) for x in r.elements}
                 for r in pair]
        assert sizes == [{2}, {1}]
        a, b = (pair[i] for i in order)
        assert find_isomorphism(a, b) is None

    def test_no_recursion_per_choice(self):
        # on the trivial rack no choice forces another, so the search
        # makes one choice per element, 300 deep
        code = ("import sys\n"
                "from tsracks.modules import make_linear\n"
                "from tsracks.racks import find_isomorphism\n"
                "r = make_linear(300, 1, 0).to_finite_rack()\n"
                "sys.setrecursionlimit(200)\n"
                "f = find_isomorphism(r, r)\n"
                "print(sorted(f) == sorted(f.values()) == list(r.elements))\n")
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True)
        assert (out.returncode, out.stdout) == (0, "True\n"), out.stderr


class TestTextFormat:
    def test_round_trip(self):
        rack = validate_rack(LINEAR_Z4)
        assert rack_from_text(rack.to_text()) == rack

    def test_parse_errors(self):
        with pytest.raises(ValidationError):
            rack_from_text("")
        with pytest.raises(ValidationError):
            rack_from_text("2\n1 2\n")
        with pytest.raises(ValidationError):
            rack_from_text("junk")


def _symmetric_group_table(n):
    from itertools import permutations

    perms = sorted(permutations(range(n)))
    index = {p: i + 1 for i, p in enumerate(perms)}
    table = []
    for p in perms:
        row = []
        for q in perms:
            composed = tuple(p[q[i]] for i in range(n))
            row.append(index[composed])
        table.append(row)
    return table
