import os
import subprocess
import sys
from pathlib import Path

import pytest

from tsracks.diagrams import parse_link
from tsracks.errors import ConsistencyError
from tsracks.invariants import additive_enhanced
from tsracks.modules import make_linear
from tsracks.polynomials import InvariantPolynomial, order_compare, parse_u_polynomial

SRC = Path(__file__).resolve().parent.parent / "src"


def upoly(text):
    return parse_u_polynomial(text)


class TestArithmetic:
    def test_addition_merges_terms(self):
        p = InvariantPolynomial.u_term(2) + InvariantPolynomial.u_term(2, 3)
        assert p.coefficient(2) == 4

    def test_zero_coefficients_dropped(self):
        p = InvariantPolynomial({(1, ()): 2}) + InvariantPolynomial({(1, ()): -2})
        assert not p
        assert str(p) == "0"

    def test_scalar_multiple(self):
        assert 2 * upoly("u + u^2") == upoly("2u + 2u^2")

    def test_parse_round_trip(self):
        for text in ("u + u^2 + 2u^3 + 2u^4 + 2u^6 + 4u^12",
                     "4u + 12u^2 + 20u^4", "2u^2", "4"):
            assert str(upoly(text)) == text


class TestFormatting:
    def test_unit_coefficient_elided(self):
        assert str(InvariantPolynomial.u_term(1)) == "u"
        assert str(InvariantPolynomial.u_term(3)) == "u^3"

    def test_ascending_exponents(self):
        p = (InvariantPolynomial.u_term(12, 4) + InvariantPolynomial.u_term(1)
             + InvariantPolynomial.u_term(3, 2))
        assert str(p) == "u + 2u^3 + 4u^12"

    def test_constant(self):
        assert str(InvariantPolynomial({(0, ()): 4})) == "4"

    def test_q_monomials(self):
        p = InvariantPolynomial.q_term((1, 1), 4)
        assert str(p) == "4q_1q_2"
        assert str(InvariantPolynomial.q_term((0, 2))) == "q_2^2"

    def test_record_form(self):
        p = upoly("u + 3u^2")
        assert p.to_record() == [[1, 1, []], [3, 2, []]]


class TestRecovery:
    def test_evaluate_u1(self):
        assert upoly("u + u^2 + 8u^3 + 2u^4 + 8u^6 + 16u^12").evaluate_u1() == 36
        assert upoly("4u + 12u^2 + 20u^4").evaluate_u1() == 36
        assert InvariantPolynomial().evaluate_u1() == 0

    def test_coeff_exponent_sum(self):
        assert upoly("2u + 2u^3").coeff_exponent_sum() == 8
        assert upoly("2u^2").coeff_exponent_sum() == 4
        assert InvariantPolynomial().coeff_exponent_sum() == 0

    def test_q_polynomial_refused(self):
        p = InvariantPolynomial.q_term((1,), 2)
        with pytest.raises(ConsistencyError):
            p.evaluate_u1()
        with pytest.raises(ConsistencyError):
            p.coeff_exponent_sum()

    def test_q_polynomial_refused_under_optimize(self):
        # the check is a raise, not an assert, so python -O keeps it
        code = (
            "from tsracks.errors import ToolkitError\n"
            "from tsracks.polynomials import InvariantPolynomial\n"
            "try:\n"
            "    InvariantPolynomial.q_term((1,), 2).evaluate_u1()\n"
            "except ToolkitError as exc:\n"
            "    print(type(exc).__name__)\n"
        )
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "ConsistencyError"


Z12_31 = "u + u^2 + 8u^3 + 2u^4 + 8u^6 + 16u^12"
Z12_41 = "u + u^2 + 2u^3 + 2u^4 + 2u^6 + 4u^12"
Z12_818 = "u + u^2 + 26u^3 + 2u^4 + 26u^6 + 52u^12"
Z12_L6A1 = "u + 3u^2 + 8u^3 + 12u^4 + 24u^6 + 96u^12"
Z12_L6A4 = "u + 7u^2 + 2u^3 + 56u^4 + 14u^6 + 112u^12"


class TestOrderCompare:
    def test_reference_chain(self):
        assert order_compare(upoly(Z12_31), upoly(Z12_41)) == "greater"
        assert order_compare(upoly(Z12_818), upoly(Z12_31)) == "greater"
        assert order_compare(upoly(Z12_41), upoly(Z12_818)) == "less"

    def test_equal(self):
        p = upoly(Z12_31)
        assert order_compare(p, p) == "equal"
        assert order_compare(InvariantPolynomial(), InvariantPolynomial()) \
            == "equal"

    def test_incomparable(self):
        assert order_compare(upoly(Z12_L6A1), upoly(Z12_L6A4)) == "incomparable"

    @pytest.mark.parametrize("word", ["1 1 1 2 2 2", "1 1 1 -2 -2 -2"],
                             ids=["granny", "square"])
    def test_connected_sum_beats_its_factor(self, word):
        # K#J >= K, as every colouring of K extends to K#J; the values
        # share the coefficients of u, u^2 and u^4
        z12 = make_linear(12, 11, 2)
        total, _ = additive_enhanced(parse_link("braid: 3: " + word), z12)
        trefoil, _ = additive_enhanced(parse_link("braid: 2: 1 1 1"), z12)
        assert str(total) == Z12_818
        assert str(trefoil) == Z12_31
        assert order_compare(total, trefoil) == "greater"
