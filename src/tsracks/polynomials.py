"""Sparse integer polynomials in u and q_1..q_c, with the canonical text
form used by the invariant tables: ascending exponents, coefficient 1
elided, terms joined by " + "."""

from collections import Counter

from .errors import ConsistencyError


class InvariantPolynomial:
    """Polynomial with integer coefficients, monomials u^e * q_1^{w_1}...

    Keys are (u_exponent, q_exponent_tuple); zero coefficients are never
    stored.  Supports +, integer scaling, evaluation at u=1 and the
    coefficient-times-exponent sum used to recover counting invariants.
    """

    def __init__(self, terms=()):
        data = {}
        items = terms.items() if isinstance(terms, dict) else terms
        for key, coeff in items:
            u_exp, q_exps = key
            key = (int(u_exp), tuple(int(e) for e in q_exps))
            if coeff:
                data[key] = data.get(key, 0) + int(coeff)
        self._terms = {k: v for k, v in data.items() if v}

    def terms(self):
        """(u_exp, q_exps, coeff) triples in canonical order."""
        return [(u, q, self._terms[(u, q)]) for u, q in sorted(self._terms)]

    def coefficient(self, u_exp, q_exps=()):
        return self._terms.get((u_exp, tuple(q_exps)), 0)

    def __add__(self, other):
        out = Counter(self._terms)
        out.update(other._terms)
        return InvariantPolynomial(out)

    def __mul__(self, k):
        return InvariantPolynomial({key: k * v for key, v in self._terms.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        return (isinstance(other, InvariantPolynomial)
                and self._terms == other._terms)

    def __hash__(self):
        return hash(frozenset(self._terms.items()))

    def __bool__(self):
        return bool(self._terms)

    def _require_pure_u(self):
        if any(q for _, q in self._terms):
            raise ConsistencyError("not a pure u-polynomial: %s" % self)

    def evaluate_u1(self):
        """Substitute u = 1 (all q's must be absent)."""
        self._require_pure_u()
        return sum(self._terms.values())

    def coeff_exponent_sum(self):
        """Sum of coefficient * u-exponent over all terms."""
        self._require_pure_u()
        return sum(v * u for (u, _), v in self._terms.items())

    def __str__(self):
        if not self._terms:
            return "0"
        parts = []
        for u_exp, q_exps, coeff in self.terms():
            monomial = ""
            if u_exp == 1:
                monomial += "u"
            elif u_exp > 1:
                monomial += "u^%d" % u_exp
            for i, e in enumerate(q_exps, start=1):
                if e == 1:
                    monomial += "q_%d" % i
                elif e > 1:
                    monomial += "q_%d^%d" % (i, e)
            if not monomial:
                parts.append(str(coeff))
            elif coeff == 1:
                parts.append(monomial)
            else:
                parts.append("%d%s" % (coeff, monomial))
        return " + ".join(parts)

    def __repr__(self):
        return "InvariantPolynomial(%s)" % self

    def to_record(self):
        """JSON-friendly term list [[coeff, u_exp, [q...]], ...]."""
        return [[c, u, list(q)] for u, q, c in self.terms()]


def parse_u_polynomial(text):
    """Inverse of str() for pure u-polynomials, handy in tests."""
    text = text.strip()
    if text == "0":
        return InvariantPolynomial()
    terms = {}
    for part in text.split("+"):
        part = part.replace(" ", "")
        if "u" not in part:
            coeff, exp = int(part), 0
        else:
            coeff_text, _, exp_text = part.partition("u")
            coeff = int(coeff_text) if coeff_text else 1
            exp = int(exp_text.lstrip("^")) if exp_text else 1
        terms[(exp, ())] = terms.get((exp, ()), 0) + coeff
    return InvariantPolynomial(terms)


def order_compare(p, q):
    """Coefficientwise comparison for the knot-ordering obstruction.

    p is "greater" when every coefficient of p is >= the matching
    coefficient of q and one is >.  If K >= K' then the value of K is >=
    that of K' coefficientwise, so only "less" or "incomparable"
    obstructs K >= K'.

    Returns "greater", "less", "equal" or "incomparable".
    """
    keys = set(p._terms) | set(q._terms)
    diffs = [(p._terms.get(k, 0) - q._terms.get(k, 0)) for k in keys]
    if all(d == 0 for d in diffs):
        return "equal"
    if all(d >= 0 for d in diffs):
        return "greater"
    if all(d <= 0 for d in diffs):
        return "less"
    return "incomparable"
