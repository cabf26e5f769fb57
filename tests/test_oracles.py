"""The brute-force oracles in oracles.py against the program."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from oracles import (RACK, OP_INV, additive_oracle, format_u,
                     image_subrack_oracle, labeling_oracle, op,
                     tsrack_validation_oracle)
from test_tsrack_validation import GROUPS, _cases, _constructor_outcome
from tsracks.atlas import load_corpus
from tsracks.diagrams import add_kink, framed_family, parse_braid, unknot_diagram
from tsracks.invariants import (additive_enhanced, enumerate_homs,
                                image_subrack, rack_rank_of)
from tsracks.labelings import framed_labelings
from tsracks.modules import enumerate_linear, make_linear, make_quotient, s_submodule
from tsracks.racks import conjugation_rack, constant_action_rack

TESTS = Path(__file__).resolve().parent


def test_oracle_rack_axioms():
    assert len(OP_INV) == len(RACK) ** 2    # right translations are bijective
    for x in RACK:
        for y in RACK:
            for z in RACK:
                assert op(op(x, y), z) == op(op(x, z), op(y, z))


@pytest.mark.parametrize("word", [[1] * 4, [-1] * 4, [1, 1]],
                         ids=["T(2,4)", "mirror T(2,4)", "Hopf"])
def test_additive_oracle_matches_program(word):
    poly, _ = additive_enhanced(parse_braid(2, word),
                                make_quotient(2, [1, 0, 1]))
    assert str(poly) == format_u(additive_oracle(word))


S3_TABLE = [[1, 2, 3, 4, 5, 6], [2, 1, 4, 3, 6, 5], [3, 5, 1, 6, 2, 4],
            [4, 6, 2, 5, 1, 3], [5, 3, 6, 1, 4, 2], [6, 4, 5, 2, 3, 1]]


def labeling_cases():
    """(rack name, rack, diagram name, diagram) for the kernel-against-
    oracle check.  The linear racks are those of enumerate_linear(n),
    n <= 6, but the two of rack rank 4 on Z_5: the Hopf link framed
    (3, 3) alone would cost the oracle 5^8 assignments with either."""
    corpus = load_corpus()
    trefoil = parse_braid(2, [1, 1, 1])
    diagrams = {
        "unknot": unknot_diagram(1), "unlink": unknot_diagram(2),
        "trefoil": trefoil, "Hopf": parse_braid(2, [1, 1]),
        "4_1": corpus["4_1"], "L2a1": corpus["L2a1"],
        "braid 3: 1 -2 1 -2": parse_braid(3, [1, -2, 1, -2]),
        "trefoil with a negative kink": add_kink(trefoil, 0, -1),
    }
    racks = {
        "constant (2 3 1)": constant_action_rack([2, 3, 1]),
        "constant (2 1 4 3)": constant_action_rack([2, 1, 4, 3]),
        "conjugation S3": conjugation_rack(S3_TABLE),
        "quotient(2, [1, 1])": make_quotient(2, [1, 1]),
        "s_submodule(R4)": s_submodule(make_linear(4, 3, 2)),
    }
    for n in range(2, 7):
        for t, s in enumerate_linear(n):
            rack = make_linear(n, t, s)
            if rack.rack_rank() < 4:
                racks["linear(%d, %d, %d)" % (n, t, s)] = rack
    return [(rn, rack, dn, d) for rn, rack in racks.items()
            for dn, d in diagrams.items()]


def labeling_mismatches():
    """Every (rack, diagram, framing) where enumerate_homs and the oracle
    disagree; no assert, so it also runs under python -O."""
    bad = []
    for rack_name, rack, name, diagram in labeling_cases():
        for w, d in framed_family(diagram, rack_rank_of(rack)).items():
            got = {tuple(sorted(f.items())) for f in enumerate_homs(d, rack)}
            if got != labeling_oracle(d, rack):
                bad.append((rack_name, name, w))
    return bad


def test_labeling_kernel_matches_oracle():
    assert labeling_mismatches() == []


def mismatches_under_optimize(name):
    """What the mismatch finder ``name`` of this file returns when run by
    python -O in a fresh interpreter, as printed text."""
    code = "from test_oracles import %s\nprint(%s())\n" % (name, name)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(TESTS.parent / "src"), str(TESTS)]))
    out = subprocess.run([sys.executable, "-O", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    return out.stdout.strip()


def test_labeling_kernel_matches_oracle_under_optimize():
    # the kernel's rules are code, not asserts, so python -O keeps them
    assert mismatches_under_optimize("labeling_mismatches") == "[]"


def framing_mismatches():
    """Every (rack, diagram, framing) where the kernel's one search over
    all framings disagrees with framed_family's diagram of that framing:
    in the labelings' label sets, counted with multiplicity, once the
    labels pi^j(in), 0 < j < k, of each kink chain are added.  The framed
    diagrams are labeled by labeling_oracle, or by enumerate_homs (checked
    against the oracle above) for Q16 and the 3-component L6a4, where the
    oracle would take minutes.  No assert, so it also runs under
    python -O."""
    corpus = load_corpus()
    # 8_18 takes three seeds, 7_6 and 8_8 branch at their cut with Q16
    diagrams = {n: corpus[n] for n in ("7_6", "8_8", "8_18", "L2a1", "L6a4")}
    diagrams["unlink"] = unknot_diagram(2)
    # an unlink whose second component only passes over
    diagrams["braid 2: 1 -1"] = parse_braid(2, [1, -1])
    racks = {
        "Z12": make_linear(12, 11, 2), "R4": make_linear(4, 3, 2),
        "Q16": make_quotient(2, [1, 0, 1]),
        "quotient(3, [1, 1])": make_quotient(3, [1, 1]),
        "linear(8, 3, 2)": make_linear(8, 3, 2),
        "conjugation S3": conjugation_rack(S3_TABLE),
        "constant (2 3 1 5 4)": constant_action_rack([2, 3, 1, 5, 4]),
    }
    bad = []
    for rack_name, rack in racks.items():
        period, elements = rack_rank_of(rack), rack.elements
        for name, diagram in diagrams.items():
            (_, _, cuts), found = framed_labelings(diagram, rack, period)
            got = {}
            for labels, ks in found:
                for k in product(*ks):
                    values = {elements[i] for i in labels}
                    for i, into, _ in cuts:
                        x = elements[labels[into]]
                        for _ in range(k[i] - 1):
                            x = rack.op(x, x)
                            values.add(x)
                    got.setdefault(k, Counter())[frozenset(values)] += 1
            base = diagram.writhe_vector()
            for w, d in framed_family(diagram, period).items():
                if rack_name == "Q16" or name == "L6a4":
                    want = Counter(frozenset(f.values())
                                   for f in enumerate_homs(d, rack))
                else:
                    want = Counter(frozenset(x for _, x in f)
                                   for f in labeling_oracle(d, rack))
                k = tuple((a - b) % period for a, b in zip(w, base))
                if got.get(k, Counter()) != want:
                    bad.append((rack_name, name, w))
    return bad


def test_one_search_matches_framed_diagrams():
    assert framing_mismatches() == []


def test_one_search_matches_framed_diagrams_under_optimize():
    # the cut rules are code, not asserts, so python -O keeps them
    assert mismatches_under_optimize("framing_mismatches") == "[]"


def image_subrack_mismatches():
    """Every (rack, label set) where image_subrack and the oracle
    disagree, over seeded random label sets; no assert, so it also runs
    under python -O."""
    racks = {
        "Q16": make_quotient(2, [1, 0, 1]),
        "quotient(2, [1, 1])": make_quotient(2, [1, 1]),
        "s_submodule(R4)": s_submodule(make_linear(4, 3, 2)),
        "conjugation S3": conjugation_rack(S3_TABLE),
        "constant (2 3 1 5 4)": constant_action_rack([2, 3, 1, 5, 4]),
    }
    for n in range(2, 9):
        for t, s in enumerate_linear(n):
            racks["linear(%d, %d, %d)" % (n, t, s)] = make_linear(n, t, s)
    rng = random.Random(2010)
    bad = []
    for name, rack in racks.items():
        elements = list(rack.elements)
        for _ in range(12):
            labels = rng.sample(elements, rng.randint(1, min(4, len(elements))))
            if image_subrack(rack, labels) != image_subrack_oracle(rack, labels):
                bad.append((name, labels))
    return bad


def test_image_subrack_matches_oracle():
    assert image_subrack_mismatches() == []


def test_image_subrack_matches_oracle_under_optimize():
    assert mismatches_under_optimize("image_subrack_mismatches") == "[]"


def validation_mismatches():
    """Every seeded case of test_tsrack_validation.py where the TSRack
    constructor and the all-pairs oracle disagree; no assert, so it also
    runs under python -O."""
    return [(moduli, case) for moduli in GROUPS for case in _cases(moduli)
            if _constructor_outcome(moduli, *case)
            != tsrack_validation_oracle(moduli, *case)]


def test_validation_matches_oracle_under_optimize():
    # the constructor's checks raise ToolkitErrors, not asserts
    assert mismatches_under_optimize("validation_mismatches") == "[]"
