"""The brute-force oracles in oracles.py against the program."""

import os
import random
import subprocess
import sys
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from oracles import (RACK, OP_INV, additive_oracle, additive_weight_oracle,
                     format_u, greedy_plan, image_subrack_oracle,
                     labeling_oracle, op, tsrack_validation_oracle)
from test_tsrack_validation import GROUPS, _cases, _constructor_outcome
from tsracks.atlas import load_corpus
from tsracks.diagrams import (LinkDiagram, add_kink, framed_family,
                              parse_braid, parse_link, unknot_diagram)
from tsracks.errors import ValidationError
from tsracks.invariants import (_image, _span_weight, additive_enhanced,
                                counting_invariant, enumerate_homs,
                                image_subrack, s_enhanced, writhe_enhanced)
from tsracks.labelings import (LEAF_LIMIT, _compile, _cut_open,
                               framed_labelings, indexed)
from tsracks.modules import (TSRack, enumerate_linear, make_linear,
                             make_module, make_quotient, s_submodule)
from tsracks.racks import conjugation_rack, constant_action_rack, rack_rank

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
    (3, 3) alone would cost the oracle 5^8 assignments with either.  The
    constant rack (2 1 4 5 3) has rack rank 6 above its order 5, so its
    plans never branch at a cut.  The empty diagram, with no components,
    has one labeling by every rack."""
    corpus = load_corpus()
    trefoil = parse_braid(2, [1, 1, 1])
    diagrams = {
        "unknot": unknot_diagram(1), "unlink": unknot_diagram(2),
        "trefoil": trefoil, "Hopf": parse_braid(2, [1, 1]),
        "4_1": corpus["4_1"], "L2a1": corpus["L2a1"],
        "braid 3: 1 -2 1 -2": parse_braid(3, [1, -2, 1, -2]),
        "trefoil with a negative kink": add_kink(trefoil, 0, -1),
        "empty": LinkDiagram(()),
    }
    racks = {
        "constant (2 3 1)": constant_action_rack([2, 3, 1]),
        "constant (2 1 4 3)": constant_action_rack([2, 1, 4, 3]),
        "constant (2 1 4 5 3)": constant_action_rack([2, 1, 4, 5, 3]),
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
        for w, d in framed_family(diagram, rack_rank(rack)[0]).items():
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


def count_mismatches():
    """Every (rack, diagram, invariant) of labeling_cases where
    counting_invariant, or a coefficient of writhe_enhanced, disagrees
    with labeling_oracle's count of the diagrams of framed_family: their
    sum, and the count of each framing.  Both invariants count one
    labeling per orbit of the translations and weigh it by the orbit's
    size.  No assert, so it also runs under python -O."""
    bad = []
    for rack_name, rack, name, diagram in labeling_cases():
        family = framed_family(diagram, rack_rank(rack)[0])
        counts = {w: len(labeling_oracle(d, rack)) for w, d in family.items()}
        if counting_invariant(diagram, rack) != sum(counts.values()):
            bad.append((rack_name, name, "count"))
        coefficients = {q: c for _, q, c in
                        writhe_enhanced(diagram, rack).terms()}
        if coefficients != {w: c for w, c in counts.items() if c}:
            bad.append((rack_name, name, "writhe"))
    return bad


def test_count_and_writhe_match_oracle():
    assert count_mismatches() == []


def test_count_and_writhe_match_oracle_under_optimize():
    # the orbit weights are code, not asserts, so python -O keeps them
    assert mismatches_under_optimize("count_mismatches") == "[]"


def additive_mismatches():
    """Every (rack, diagram, part) of labeling_cases, for each TSRack,
    where additive_enhanced disagrees with brute force: each labeling
    that labeling_oracle gives on each diagram of framed_family, weighed
    by additive_weight_oracle on its values, in the polynomial and in the
    multiset.  Each rack's diagrams are visited in a seeded shuffled
    order on the one rack, so that most calls meet the weights which
    other diagrams left on it.  No assert, so it also runs under
    python -O."""
    by_rack = {}
    for rack_name, rack, name, diagram in labeling_cases():
        if isinstance(rack, TSRack):
            by_rack.setdefault(rack_name, (rack, []))[1].append(
                (name, diagram))
    rng = random.Random(2012)
    bad = []
    for rack_name, (rack, diagrams) in by_rack.items():
        rng.shuffle(diagrams)
        for name, diagram in diagrams:
            terms, factors = Counter(), Counter()
            for d in framed_family(diagram, rack.rack_rank()).values():
                for f in labeling_oracle(d, rack):
                    size, chain = additive_weight_oracle(
                        rack, {x for _, x in f})
                    terms[size] += 1
                    factors[chain] += 1
            poly, multiset = additive_enhanced(diagram, rack)
            if {u: c for u, _, c in poly.terms()} != terms:
                bad.append((rack_name, name, "polynomial"))
            if multiset.counts() != dict(factors):
                bad.append((rack_name, name, "multiset"))
    return bad


def test_additive_matches_oracle():
    assert additive_mismatches() == []


def test_additive_matches_oracle_under_optimize():
    # the span closure raises, and the weights kept on the rack are code
    assert mismatches_under_optimize("additive_mismatches") == "[]"


def s_mismatches():
    """Every (rack, diagram, part) where s_enhanced disagrees with brute
    force, for each TSRack of labeling_cases and three more, by the
    diagrams of labeling_cases and, on the racks of order at most 8, by
    two three-component links.  On each diagram of framed_family the
    labelings that labeling_oracle gives are grouped by their projection
    f -> s f; each projection must be a labeling of that diagram by sX
    (s_submodule), and both readings are taken as the s_enhanced
    docstring defines them, each fiber's lifts bucketed by the last
    component on which they differ from its least lift.  No assert, so it
    also runs under python -O."""
    cases = [case for case in labeling_cases() if isinstance(case[1], TSRack)]
    # t has order 3 on ker s: ker s = X for linear(7, 2, 0), and Z2^2 in
    # Z2^2 + Z3; with linear(8, 3, 4) the split reading of the Hopf link
    # and a split unknot changes when the components are renumbered
    racks = {"linear(7, 2, 0)": make_linear(7, 2, 0),
             "Z2^2 + Z3": make_module([2, 2, 3],
                                      [[0, 1, 0], [1, 1, 0], [0, 0, 2]],
                                      [[0, 0, 0], [0, 0, 0], [0, 0, 2]]),
             "linear(8, 3, 4)": make_linear(8, 3, 4)}
    cases += [(rack_name, rack, name, diagram)
              for rack_name, rack in racks.items()
              for name, diagram in dict(c[2:] for c in cases).items()]
    links = {"braid 3: 1 1 2 2": parse_braid(3, [1, 1, 2, 2]),
             "Hopf and an unknot": parse_link("braid: 2: 1 1; unknots: 1")}
    cases += [(rack_name, rack, name, link)
              for rack_name, rack in dict(c[:2] for c in cases).items()
              if len(rack.elements) <= 8 for name, link in links.items()]
    bad = []
    for rack_name, rack, name, diagram in cases:
        sub = s_submodule(rack)
        split, plain = Counter(), Counter()
        for d in framed_family(diagram, rack.rack_rank()).values():
            fibers = {}
            for f in labeling_oracle(d, rack):
                fibers.setdefault(tuple((a, rack.s_map[x]) for a, x in f),
                                  []).append(f)
            if not set(fibers) <= labeling_oracle(d, sub):
                bad.append((rack_name, name, "projection"))
            last = max(d.component_of.values(), default=0)
            for lifts in fibers.values():
                plain[len(lifts)] += 1
                base = min(lifts)
                buckets = Counter({last: 1})
                for lift in lifts:
                    if lift != base:
                        buckets[max(d.component_of[a] for (a, x), (_, y)
                                    in zip(lift, base) if x != y)] += 1
                split.update(buckets.values())
        for reading, want in (("split", split), ("plain", plain)):
            poly, multiset = s_enhanced(diagram, rack,
                                        split_fibers=reading == "split")
            if {u: c for u, _, c in poly.terms()} != want:
                bad.append((rack_name, name, reading, "polynomial"))
            if multiset.counts() != dict(want):
                bad.append((rack_name, name, reading, "multiset"))
    return bad


def test_s_enhanced_matches_oracle():
    assert s_mismatches() == []


def test_s_enhanced_matches_oracle_under_optimize():
    # the coset count check raises, and the fixed points are code
    assert mismatches_under_optimize("s_mismatches") == "[]"


def translation_mismatches():
    """Every (rack, rule) where the integer view of labelings.indexed
    breaks a rule.  Each element sits at its place on its pi-cycle, and
    pi maps each cycle's j-th element to its next; the rank is
    racks.rack_rank's, and TSRack.rack_rank's too.  Each shift is a
    bijection that commutes with > and >^{-1} on the operation columns and
    with the kink map, and only the identity, listed first, fixes an
    element.  The shifts are closed under composition; for a TSRack they
    are the add columns x -> x + c of the c with (t+s)c = c, in element
    order, and for any other rack the identity alone.  A TSRack's
    additive orders are its group's.  The first seeds number
    |X| / |shifts| and meet every orbit of the shifts, so each once.  No
    assert, so it also runs under python -O."""
    racks = {
        "Q16": make_quotient(2, [1, 0, 1]),
        "quotient(3, [1, 1])": make_quotient(3, [1, 1]),
        "Z2+Z4": make_module((2, 4), [[1, 1], [2, 1]], [[0, 1], [2, 2]]),
        "s_submodule(R4)": s_submodule(make_linear(4, 3, 2)),
        "conjugation S3": conjugation_rack(S3_TABLE),
        "constant (2 3 1 5 4)": constant_action_rack([2, 3, 1, 5, 4]),
    }
    for n in range(2, 13):
        for t, s in enumerate_linear(n):
            racks["linear(%d, %d, %d)" % (n, t, s)] = make_linear(n, t, s)
    bad = []
    for name, rack in racks.items():
        view = indexed(rack)
        elements, tables = view.elements, view.tables
        shifts, firsts = view.shifts, view.firsts
        n = len(elements)
        identity = list(range(n))
        ops = [[tables[kind][j] for j in identity] for kind in (0, 1)]
        kink = tables[2][0]
        if view.rank != rack_rank(rack)[0] or (
                isinstance(rack, TSRack) and view.rank != rack.rack_rank()):
            bad.append((name, "rank"))
        for x, (cycle, place) in enumerate(view.cycles):
            if cycle[place] != x or kink[x] != cycle[(place + 1) % len(cycle)]:
                bad.append((name, "cycle"))
        fixed = ([c for c in elements if rack.op(c, c) == c]
                 if isinstance(rack, TSRack) else [None])
        if shifts[0] != identity or len(shifts) != len(fixed):
            bad.append((name, "shift count"))
        if isinstance(rack, TSRack):
            group = rack.group
            if view.orders != [group.element_order(x) for x in elements]:
                bad.append((name, "orders"))
            for f, c in zip(shifts, fixed):
                if f != view.add[view.index[c]] or f != [
                        view.index[group.add(x, c)] for x in elements]:
                    bad.append((name, "not the add column"))
        for f in shifts:
            if sorted(f) != identity:
                bad.append((name, "not a bijection"))
            elif any(op[f[j]][f[i]] != f[op[j][i]]
                     for op in ops for i in identity for j in identity):
                bad.append((name, "not an automorphism"))
            elif any(kink[f[i]] != f[kink[i]] for i in identity):
                bad.append((name, "does not commute with pi"))
            elif f != identity and any(f[i] == i for i in identity):
                bad.append((name, "fixes an element"))
        table = {tuple(f) for f in shifts}
        if any(tuple(f[i] for i in g) not in table
               for f in shifts for g in shifts):
            bad.append((name, "not closed"))
        if (len(firsts) * len(shifts) != n
                or {f[x] for f in shifts for x in firsts} != set(identity)):
            bad.append((name, "first seeds"))
    return bad


def test_translation_table():
    assert translation_mismatches() == []


def test_translation_table_under_optimize():
    assert mismatches_under_optimize("translation_mismatches") == "[]"


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
        period, elements = rack_rank(rack)[0], rack.elements
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


def braid_closures(count, seed):
    """count seeded random braid closures of 2 or 3 components, on 2 to
    4 strands, as (spec, diagram)."""
    rng, out = random.Random(seed), []
    while len(out) < count:
        strands = rng.randint(2, 4)
        word = [rng.choice((-1, 1)) * rng.randint(1, strands - 1)
                for _ in range(rng.randint(3, 10))]
        diagram = parse_braid(strands, word)
        if diagram.component_count in (2, 3):
            out.append(("braid: %d: %s" % (strands, " ".join(map(str, word))),
                        diagram))
    return out


def plan_mismatches():
    """Every case where labelings._compile and greedy_plan give different
    (leaves, plan), or a plan over LEAF_LIMIT is not refused: the corpus
    by five racks at their order |X| and rack rank N, one of them with N
    above |X|, and seeded random braid closures of 2 or 3 components at
    N <= |X|, where two loose cuts tie on 3 of the 200.  No assert, so it
    also runs under python -O."""
    racks = {
        "Z12": make_linear(12, 11, 2), "R4": make_linear(4, 3, 2),
        "Q16": make_quotient(2, [1, 0, 1]),
        "linear(5, 2, 0)": make_linear(5, 2, 0),
        "constant (2 1 4 5 3)": constant_action_rack([2, 1, 4, 5, 3]),
    }
    cases = [(rack_name, name, len(rack.elements), rack_rank(rack)[0], d)
             for rack_name, rack in racks.items()
             for name, d in load_corpus().items()]
    cases += [("|X| = %d, N = %d" % (n, period), name, n, period, d)
              for name, d in braid_closures(200, 31)
              for n, period in ((4, 1), (2, 2), (3, 3), (4, 2), (16, 4))]
    bad = []
    for rack_name, name, n, period, diagram in cases:
        comps, crossings, cuts = _cut_open(diagram, period)
        want = greedy_plan(n, period, crossings, cuts, len(comps))
        try:
            got = _compile(n, period, crossings, cuts, len(comps))
        except ValidationError:
            got = "refused"
        if got != (want if want[0] <= LEAF_LIMIT else "refused"):
            bad.append((rack_name, name))
    return bad


def test_plan_matches_greedy_oracle():
    assert plan_mismatches() == []


def test_plan_matches_greedy_oracle_under_optimize():
    # the frontier and tie rules are code, not asserts
    assert mismatches_under_optimize("plan_mismatches") == "[]"


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


def weight_mismatches():
    """Every (rack, label set) where the additive weight on element
    indices (_image, then _span_weight) and additive_weight_oracle
    disagree, over seeded random label sets; no assert, so it also runs
    under python -O."""
    racks = {
        "Q16": make_quotient(2, [1, 0, 1]),
        "quotient(3, [1, 1])": make_quotient(3, [1, 1]),
        "s_submodule(R4)": s_submodule(make_linear(4, 3, 2)),
        "Z2+Z4": make_module((2, 4), [[1, 1], [2, 1]], [[0, 1], [2, 2]]),
    }
    for n in range(2, 13):
        for t, s in enumerate_linear(n):
            racks["linear(%d, %d, %d)" % (n, t, s)] = make_linear(n, t, s)
    rng = random.Random(2011)
    bad = []
    for name, rack in racks.items():
        elements = list(rack.elements)
        view = indexed(rack)
        for _ in range(6):
            labels = rng.sample(elements, rng.randint(1, min(3, len(elements))))
            image = _image(view.tables[0], {view.index[x] for x in labels})
            if _span_weight(rack, image) != additive_weight_oracle(rack, labels):
                bad.append((name, labels))
    return bad


def test_additive_weight_matches_oracle():
    assert weight_mismatches() == []


def test_additive_weight_matches_oracle_under_optimize():
    # the span closure and the chain check raise, they do not assert
    assert mismatches_under_optimize("weight_mismatches") == "[]"


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
