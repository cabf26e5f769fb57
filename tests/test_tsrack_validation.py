"""The TSRack constructor against the all-pairs validation oracle.

Random carriers and t/s dictionaries on small groups, drawn with fixed
seeds, must be accepted or rejected by TSRack exactly as by
oracles.tsrack_validation_oracle, with the same exception class and
message.
"""

from collections import Counter
from functools import cache
from itertools import product
from random import Random

import pytest

from oracles import tsrack_validation_oracle
from tsracks.errors import ToolkitError
from tsracks.groups import AbelianGroup
from tsracks.modules import TSRack

GROUPS = [(4,), (6,), (2, 2), (2, 4), (2, 2, 2), (3, 3)]
CASES_PER_GROUP = 600


def _elements(moduli):
    return list(product(*(range(m) for m in moduli)))


def _add(moduli, x, y):
    return tuple((a + b) % m for a, b, m in zip(x, y, moduli))


@cache
def _subgroups(moduli):
    """Every subgroup, as the span of as many elements as the group has
    cyclic factors: a subgroup of Z_m1 + ... + Z_mk needs at most k
    generators."""
    zero = (0,) * len(moduli)
    out = set()
    for gens in product(_elements(moduli), repeat=len(moduli)):
        span, frontier = {zero}, [zero]
        while frontier:
            x = frontier.pop()
            for g in gens:
                y = _add(moduli, x, g)
                if y not in span:
                    span.add(y)
                    frontier.append(y)
        out.add(tuple(sorted(span)))
    return sorted(out)


@cache
def _matrices(moduli):
    """Integer matrices whose entry (i, j) is a well-defined map
    Z_mj -> Z_mi."""
    k = len(moduli)
    entries = [[a for a in range(moduli[i]) if a * moduli[j] % moduli[i] == 0]
               for i in range(k) for j in range(k)]
    return [[list(flat[i * k:(i + 1) * k]) for i in range(k)]
            for flat in product(*entries)]


def _apply(moduli, a, x):
    return tuple(sum(a[i][j] * x[j] for j in range(len(x))) % moduli[i]
                 for i in range(len(moduli)))


def _random_carrier(rng, moduli):
    elems = _elements(moduli)
    zero, nonzero = elems[0], elems[1:]
    kind = rng.choice(["whole", "subgroup", "cosets", "subset", "no_zero",
                       "out_of_range"])
    if kind == "whole":
        return elems
    if kind == "subgroup":
        return list(rng.choice(_subgroups(moduli)))
    if kind == "cosets":
        # a subgroup with some of its cosets: closed under + by the
        # subgroup, but not always under + by the whole carrier
        sub = rng.choice(_subgroups(moduli))
        reps = rng.sample(elems, rng.randrange(1, 3))
        return sorted({_add(moduli, r, h) for r in reps + [zero] for h in sub})
    if kind == "subset":
        return [zero] + rng.sample(nonzero, rng.randrange(1, len(nonzero)))
    if kind == "no_zero":
        return rng.sample(nonzero, rng.randrange(1, len(nonzero) + 1))
    # a subgroup with one tuple whose entry lies outside 0..m-1
    x = list(rng.choice(elems))
    i = rng.randrange(len(moduli))
    x[i] += moduli[i] * rng.choice([1, 2])
    return list(rng.choice(_subgroups(moduli))) + [tuple(x)]


def _random_map(rng, moduli, carrier):
    kind = rng.choice(["matrix", "scalar", "perturbed", "twisted",
                       "random", "missing"])
    if kind == "scalar":
        k = rng.randrange(max(moduli))
        a = [[k * (i == j) for j in range(len(moduli))]
             for i in range(len(moduli))]
    else:
        a = rng.choice(_matrices(moduli))
    m = {x: _apply(moduli, a, x) for x in carrier}
    if kind == "perturbed":
        m[rng.choice(carrier)] = rng.choice(carrier)
    elif kind == "twisted":
        # x -> A x + x_0 c: additive along every coordinate but the first
        c = rng.choice(carrier)
        m = {x: _add(moduli, m[x], tuple(x[0] % moduli[0] * ci for ci in c))
             for x in carrier}
    elif kind == "random":
        m = {x: rng.choice(carrier) for x in carrier}
        if rng.random() < 0.7 and (0,) * len(moduli) in m:
            m[(0,) * len(moduli)] = (0,) * len(moduli)
    elif kind == "missing":
        del m[rng.choice(carrier)]
    return m


def _random_case(rng, moduli):
    pairing = rng.choice(["matrices", "independent", "alexander", "zero_s"])
    if pairing == "matrices":
        # two matrix maps on the whole group, often not commuting
        carrier = _elements(moduli)
        t_map, s_map = ({x: _apply(moduli, a, x) for x in carrier}
                        for a in rng.sample(_matrices(moduli), 2))
        return carrier, t_map, s_map
    carrier = _random_carrier(rng, moduli)
    t_map = _random_map(rng, moduli, carrier)
    if pairing == "independent":
        s_map = _random_map(rng, moduli, carrier)
    elif pairing == "alexander":
        # s = 1 - t, where t is defined
        s_map = {x: tuple((a - b) % m for a, b, m
                          in zip(x, t_map[x], moduli))
                 for x in carrier if x in t_map}
    else:
        s_map = {x: (0,) * len(moduli) for x in carrier}
    return carrier, t_map, s_map


def _constructor_outcome(moduli, carrier, t_map, s_map):
    try:
        TSRack(AbelianGroup(moduli), t_map, s_map, carrier=carrier)
    except ToolkitError as exc:
        return type(exc).__name__, str(exc)
    return None


def _cases(moduli):
    rng = Random(GROUPS.index(moduli))
    return [_random_case(rng, moduli) for _ in range(CASES_PER_GROUP)]


@pytest.mark.parametrize("moduli", GROUPS, ids=str)
def test_constructor_agrees_with_all_pairs_oracle(moduli):
    for carrier, t_map, s_map in _cases(moduli):
        expected = tsrack_validation_oracle(moduli, carrier, t_map, s_map)
        got = _constructor_outcome(moduli, carrier, t_map, s_map)
        assert got == expected, (moduli, carrier, t_map, s_map)


def test_cases_reach_every_branch():
    seen = Counter()
    for moduli in GROUPS:
        for case in _cases(moduli):
            outcome = tsrack_validation_oracle(moduli, *case)
            seen[outcome[1].split(" at ")[0] if outcome else "accepted"] += 1
    assert set(seen) == {
        "accepted",
        "carrier must contain 0",
        "carrier is not closed under +",
        "t-action must map carrier to carrier",
        "s-action must map carrier to carrier",
        "t-action must fix 0",
        "s-action must fix 0",
        "t-action is not additive",
        "s-action is not additive",
        "t-action is not bijective",
        "t and s do not commute",
        "s^2 != (Id - t)s",
    }, seen
