"""Invariants of the link, not of the diagram: property tests over random
braid words.

Each example draws a braid word on 2 or 3 strands and checks that the
additive enhancement, polynomial and multiset, with Q16 and with Z12 is
the same on three other diagrams of its closure: the diagram re-read from
its PD code (pd_code, then parse_link, which hands it to parse_pd), the
word conjugated by a generator, and a Markov stabilisation onto one more
strand.  Runs repeat: hypothesis draws from a fixed seed and keeps no
example database.
"""

from hypothesis import given, seed, settings, strategies as st

from tsracks.diagrams import parse_braid, parse_link, pd_code
from tsracks.invariants import additive_enhanced
from tsracks.modules import make_linear, make_quotient

RACKS = {"Q16": make_quotient(2, [1, 0, 1]), "Z12": make_linear(12, 11, 2)}


@st.composite
def moves(draw):
    """(strands, word, conjugating letter, stabilising sign)."""
    strands = draw(st.integers(2, 3))
    letter = st.integers(1, strands - 1).flatmap(
        lambda i: st.sampled_from((i, -i)))
    return (strands, draw(st.lists(letter, max_size=6)), draw(letter),
            draw(st.sampled_from((1, -1))))


@seed(2010)
@settings(database=None, max_examples=80, deadline=None)
@given(moves())
def test_additive_enhanced_survives_diagram_moves(case):
    strands, word, g, sign = case
    diagram = parse_braid(strands, word)
    others = {
        "PD round trip": parse_link(pd_code(diagram)),
        "conjugated": parse_braid(strands, [g] + word + [-g]),
        "stabilised": parse_braid(strands + 1, word + [sign * strands]),
    }
    for rack_name, rack in RACKS.items():
        want = additive_enhanced(diagram, rack)
        for move, other in others.items():
            assert additive_enhanced(other, rack) == want, (rack_name, move)
