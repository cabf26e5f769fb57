"""Invariants of the link, not of the diagram: property tests over random
braid words.

Each example draws a braid word on 2 to 4 strands and checks that an
invariant, polynomial and multiset, is the same on three other diagrams
of its closure: the diagram re-read from its PD code (pd_code, then
parse_link, which hands it to parse_pd), the word conjugated by a
generator, and a Markov stabilisation onto one more strand.  The
invariants are the counting invariant and the additive enhancement with
Q16 and with Z12, the writhe enhancement with the same racks on the
draws whose closure is a knot, and the s-enhancement with whole fibers
(split_fibers=False) with R4 and with Q16.  The default split reading is
left out: it depends on how the components are numbered, which
conjugation can change (see test_invariants.py,
test_s_enhanced_ignores_component_order); so do the q variables of the
writhe enhancement on links.  Runs repeat: hypothesis draws from a fixed
seed and keeps no example database.
"""

from hypothesis import given, seed, settings, strategies as st

from tsracks.diagrams import parse_braid, parse_link, pd_code
from tsracks.invariants import (additive_enhanced, counting_invariant,
                                s_enhanced, writhe_enhanced)
from tsracks.modules import make_linear, make_quotient

Q16 = make_quotient(2, [1, 0, 1])
RACKS = {"Q16": Q16, "Z12": make_linear(12, 11, 2)}
S_RACKS = {"R4": make_linear(4, 3, 2), "Q16": Q16}


@st.composite
def moves(draw):
    """(strands, word, conjugating letter, stabilising sign)."""
    strands = draw(st.integers(2, 4))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return (strands, draw(st.lists(letter, max_size=6)), draw(letter),
            draw(st.sampled_from((1, -1))))


def diagrams(case):
    """The drawn diagram and the other diagrams of its closure."""
    strands, word, g, sign = case
    diagram = parse_braid(strands, word)
    return diagram, {
        "PD round trip": parse_link(pd_code(diagram)),
        "conjugated": parse_braid(strands, [g] + word + [-g]),
        "stabilised": parse_braid(strands + 1, word + [sign * strands]),
    }


@seed(2010)
@settings(database=None, max_examples=80, deadline=None)
@given(moves())
def test_additive_enhanced_survives_diagram_moves(case):
    diagram, others = diagrams(case)
    for rack_name, rack in RACKS.items():
        want = additive_enhanced(diagram, rack)
        for move, other in others.items():
            assert additive_enhanced(other, rack) == want, (rack_name, move)


@seed(2010)
@settings(database=None, max_examples=80, deadline=None)
@given(moves())
def test_plain_s_enhanced_survives_diagram_moves(case):
    diagram, others = diagrams(case)
    for rack_name, rack in S_RACKS.items():
        want = s_enhanced(diagram, rack, split_fibers=False)
        for move, other in others.items():
            assert s_enhanced(other, rack, split_fibers=False) == want, \
                (rack_name, move)


@seed(2010)
@settings(database=None, max_examples=80, deadline=None)
@given(moves())
def test_count_and_writhe_survive_diagram_moves(case):
    diagram, others = diagrams(case)
    for rack_name, rack in RACKS.items():
        count = counting_invariant(diagram, rack)
        writhe = writhe_enhanced(diagram, rack)
        for move, other in others.items():
            assert counting_invariant(other, rack) == count, (rack_name, move)
            if diagram.component_count == 1:
                assert writhe_enhanced(other, rack) == writhe, \
                    (rack_name, move)
