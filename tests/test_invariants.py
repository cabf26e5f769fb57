import json
import time
from collections import Counter
from itertools import permutations

import pytest

import tsracks.invariants as invariants
import tsracks.labelings as labelings

from tsracks.atlas import load_corpus, load_corpus_specs
from tsracks.cli import CACHE_ENV, main
from tsracks.diagrams import (LinkDiagram, framed_family, parse_braid,
                              parse_link, parse_pd, unknot_diagram)
from tsracks.errors import ConsistencyError, ValidationError, WrongStructureError
from tsracks.invariants import (
    EnhancedMultiset,
    additive_enhanced,
    counting_invariant,
    enumerate_homs,
    enumerate_homs_linear,
    s_enhanced,
    writhe_enhanced,
)
from tsracks.modules import (make_linear, make_module, make_quotient,
                             s_submodule, tsrack_from_spec)
from tsracks.polynomials import InvariantPolynomial, parse_u_polynomial
from tsracks.racks import constant_action_rack, rack_rank, validate_rack

SIGMA12 = constant_action_rack([2, 1])
Z4_RACK = make_linear(4, 1, 2)
Z12_RACK = make_linear(12, 11, 2)
R4 = make_linear(4, 3, 2)

TREFOIL = parse_braid(2, [1, 1, 1])
HOPF = parse_braid(2, [1, 1])
UNLINK2 = unknot_diagram(2)


def upoly(text):
    return parse_u_polynomial(text)


class TestEnumerateHoms:
    def test_zero_crossing_unknot(self):
        assert len(enumerate_homs(unknot_diagram(1), SIGMA12)) == 2
        assert len(enumerate_homs(unknot_diagram(1), Z4_RACK)) == 4

    def test_hopf_framings(self):
        fam = framed_family(HOPF, 2)
        counts = {w: len(enumerate_homs(d, SIGMA12))
                  for w, d in fam.items()}
        assert counts == {(0, 0): 0, (0, 1): 0, (1, 0): 0, (1, 1): 4}

    def test_unlink_framings(self):
        fam = framed_family(UNLINK2, 2)
        counts = {w: len(enumerate_homs(d, SIGMA12))
                  for w, d in fam.items()}
        assert counts == {(0, 0): 4, (0, 1): 0, (1, 0): 0, (1, 1): 0}

    def test_trefoil_framed_labelings(self):
        # the odd-writhe diagram carries the kink relation x = (t+s)x, so
        # labels live in {0, 2}; the even-writhe stabilization frees them
        # (the tabulated framing sum 2u + 2u^2 + 2u^4 splits this way; the
        # proof table in the source prints these two rows with swapped
        # writhe labels)
        base = enumerate_homs(TREFOIL, Z4_RACK)
        assert len(base) == 2
        for f in base:
            assert set(f.values()) <= {(0,), (2,)}
            assert len(set(f.values())) == 1
        fam = framed_family(TREFOIL, 2)
        even = enumerate_homs(fam[(0,)], Z4_RACK)
        assert len(even) == 4

    def test_generated_image_is_subrack_with_same_closure(self):
        from tsracks.groups import subgroup_closure
        from tsracks.invariants import image_subrack

        found_proper = False
        for f in enumerate_homs(parse_braid(2, [1] * 4), Z4_RACK):
            labels = set(f.values())
            image = image_subrack(Z4_RACK, labels)
            for x in image:
                for y in image:
                    assert Z4_RACK.op(x, y) in image
                    assert Z4_RACK.op_inv(x, y) in image
            found_proper |= image != labels
            # over a cyclic group the subrack closure cannot enlarge the
            # additive closure
            assert subgroup_closure(Z4_RACK.group, labels) == \
                subgroup_closure(Z4_RACK.group, image)
        # arc labels alone are not closed in general
        assert found_proper


LINEAR_DIAGRAMS = [
    TREFOIL, HOPF, parse_braid(2, [1] * 4),
    parse_braid(3, [1, -2, 1, -2]), unknot_diagram(2),
    parse_link("braid: 2: 1 1; unknots: 1"),
]
# the first four have > equal to >^{-1}; the last three do not, so they
# tell the two operations apart at negative crossings
LINEAR_RACKS = [
    Z4_RACK, R4, make_quotient(2, [1, 1]), make_linear(6, 5, 2),
    make_linear(5, 2, 0),
    make_module([2, 4], [[1, 1], [2, 1]], [[0, 1], [2, 2]]),
    make_quotient(2, [1, 0, 1]),
]
# Q16 (the last rack) over the trefoil and the Hopf link only: the other
# four diagrams take half a minute
LINEAR_CASES = [(r, d) for r in range(len(LINEAR_RACKS))
                for d in range(len(LINEAR_DIAGRAMS))
                if r < len(LINEAR_RACKS) - 1 or d < 2]


class TestLinearFastPath:
    @pytest.mark.parametrize("r, d", LINEAR_CASES,
                             ids=["rack%d-diagram%d" % c for c in LINEAR_CASES])
    def test_agrees_with_backtracking(self, r, d):
        rack = LINEAR_RACKS[r]
        for w, framed in framed_family(LINEAR_DIAGRAMS[d],
                                       rack.rack_rank()).items():
            generic = enumerate_homs(framed, rack)
            linear = enumerate_homs_linear(framed, rack)
            assert sorted(tuple(sorted(f.items())) for f in generic) == \
                sorted(tuple(sorted(f.items())) for f in linear)

    def test_needs_module(self):
        with pytest.raises(WrongStructureError):
            enumerate_homs_linear(TREFOIL, SIGMA12)
        # a proper-subgroup carrier lacks the unit vectors
        with pytest.raises(WrongStructureError, match="full group"):
            enumerate_homs_linear(TREFOIL, s_submodule(R4))


class TestCountingInvariant:
    def test_unlink_and_hopf_agree(self):
        assert counting_invariant(UNLINK2, SIGMA12) == 4
        assert counting_invariant(HOPF, SIGMA12) == 4

    def test_unknot_z4(self):
        assert counting_invariant(unknot_diagram(1), Z4_RACK) == 6

    def test_quandle_collapse(self):
        # N=1 means the counting invariant is the single-diagram count
        assert counting_invariant(TREFOIL, Z12_RACK) == \
            len(enumerate_homs(TREFOIL, Z12_RACK))


class TestWritheEnhanced:
    def test_unlink(self):
        assert str(writhe_enhanced(UNLINK2, SIGMA12)) == "4"

    def test_hopf(self):
        assert str(writhe_enhanced(HOPF, SIGMA12)) == "4q_1q_2"

    def test_trivial_rack_unknot(self):
        one = validate_rack([[1]])
        assert str(writhe_enhanced(unknot_diagram(1), one)) == "1"


class TestAdditiveEnhanced:
    def test_torus_formulas(self):
        expected = {
            0: "4u + 12u^2 + 20u^4",
            1: "2u + 2u^2 + 2u^4",
            2: "4u + 12u^2 + 4u^4",
            3: "2u + 2u^2 + 2u^4",
        }
        for n in range(2, 10):
            poly, _ = additive_enhanced(parse_braid(2, [1] * n), Z4_RACK)
            assert str(poly) == expected[n % 4], n

    def test_trefoil_z12(self):
        poly, _ = additive_enhanced(TREFOIL, Z12_RACK)
        assert str(poly) == "u + u^2 + 8u^3 + 2u^4 + 8u^6 + 16u^12"

    def test_requires_module_structure(self):
        with pytest.raises(WrongStructureError):
            additive_enhanced(TREFOIL, SIGMA12)

    def test_multiset_matches_polynomial(self):
        from math import prod

        poly, multiset = additive_enhanced(parse_braid(2, [1] * 4), Z4_RACK)
        rebuilt = InvariantPolynomial()
        for factors in multiset.entries():
            rebuilt = rebuilt + InvariantPolynomial(
                {(prod(factors), ()): 1})
        assert rebuilt == poly

    def test_each_label_set_and_image_enhanced_once(self, monkeypatch):
        # T(2,4) by Q16: 1024 labelings over all framings carry 111
        # distinct label sets, which generate 21 distinct image subracks.
        # The sets are taken on the cut-open diagram, without the kink
        # chains' labels pi^j(in), 0 < j < k, which lie in the image of
        # {in}; on the framed diagrams of framed_family they number 174.
        # The search finds one labeling per orbit of the 4 translations,
        # whose 50 distinct label sets are each closed by _image once; a
        # translate's image is the closed one moved by its shift.  Each
        # image is weighed by _span_weight once per rack, so a second call
        # on the same rack weighs none.  The additive path runs on element
        # indices, without the public image_subrack.
        calls, names = Counter(), ("_image", "_span_weight", "image_subrack")
        for name in names:
            def counted(*args, _fn=getattr(invariants, name), _name=name):
                calls[_name] += 1
                return _fn(*args)
            monkeypatch.setattr(invariants, name, counted)
        rack = make_quotient(2, [1, 0, 1])
        for weighed in (21, 0):
            calls.clear()
            poly, multiset = additive_enhanced(load_corpus()["L4a1"], rack)
            assert [calls[name] for name in names] == [50, weighed, 0]
            assert multiset.total() == 1024
            # the criterion-2 value from the brute-force oracle
            assert str(poly) == "16u + 80u^2 + 320u^4 + 192u^8 + 416u^16"

    def test_linear_path_agrees(self):
        # linear(4, 1, 2) (Z4_RACK) has |F| = 2 and Q16 |F| = 4.  Each
        # rack is built anew for each order: the linear path first on a
        # fresh rack, then the kernel on the weights it left, and the
        # reverse.
        cases = [(diagram, lambda: make_linear(4, 1, 2))
                 for diagram in (TREFOIL, parse_braid(2, [1] * 4))]
        cases.append((TREFOIL, lambda: make_quotient(2, [1, 0, 1])))
        for diagram, build in cases:
            for linear_first in (False, True):
                rack = build()
                a, x = additive_enhanced(diagram, rack,
                                         use_linear_path=linear_first)
                b, y = additive_enhanced(diagram, rack,
                                         use_linear_path=not linear_first)
                assert (a, x) == (b, y)


class TestSEnhanced:
    def test_all_knots_give_2u2(self):
        for diagram in (TREFOIL, parse_braid(3, [1, -2, 1, -2]),
                        parse_braid(3, [1, -2] * 4)):
            poly, _ = s_enhanced(diagram, R4)
            assert str(poly) == "2u^2"

    def test_hopf(self):
        poly, _ = s_enhanced(HOPF, R4)
        assert str(poly) == "2u + 2u^3"

    def test_plain_mode_counts_whole_fibers(self):
        poly, _ = s_enhanced(HOPF, R4, split_fibers=False)
        assert str(poly) == "2u^4"
        assert poly.coeff_exponent_sum() == 8

    def test_projection_is_valid_sublabeling(self):
        sub = s_submodule(R4)
        for f in enumerate_homs(HOPF, R4):
            projected = {arc: R4.s_map[v] for arc, v in f.items()}
            for c in HOPF.crossings:
                want = (sub.op(projected[c.under_in], projected[c.over])
                        if c.sign > 0 else
                        sub.op_inv(projected[c.under_in], projected[c.over]))
                assert projected[c.under_out] == want

    def test_requires_module_structure(self):
        with pytest.raises(WrongStructureError):
            s_enhanced(HOPF, SIGMA12)

    @pytest.mark.parametrize("wrong", [(0,)], ids=["in sX"])
    def test_wrong_projection_raises(self, monkeypatch, wrong):
        # the operation columns, and so the labelings, are built before s
        # is changed at 1; ker s then reads 3 elements, and |K_k|, a power
        # of 3, does not divide the labeling counts, powers of 2
        rack = make_linear(4, 3, 2)
        counting_invariant(TREFOIL, rack)
        monkeypatch.setitem(rack.s_map, (1,), wrong)
        with pytest.raises(ConsistencyError):
            s_enhanced(load_corpus()["L4a1"], rack)


class TestEnhancedMultiset:
    def test_a_counter_read_in_entry_order(self):
        m = EnhancedMultiset()
        m[(2, 4)] += 3
        m[(2,)] += 1
        m[(2, 4)] += 1
        assert isinstance(m, Counter)
        assert m.total() == 5
        assert m.counts() == {(2, 4): 4, (2,): 1}
        assert m.entries() == [(2,), (2, 4), (2, 4), (2, 4), (2, 4)]
        assert m.to_record() == [[[2], 1], [[2, 4], 4]]
        assert m == EnhancedMultiset(m.entries())
        assert EnhancedMultiset([4, 1, 4]).to_record() == [[1, 1], [4, 2]]


class TestRecovery:
    def test_additive_recovery_examples(self):
        assert upoly("u + u^2 + 8u^3 + 2u^4 + 8u^6 + 16u^12"
                     ).evaluate_u1() == 36
        assert upoly("4u + 12u^2 + 20u^4").evaluate_u1() == 36
        assert InvariantPolynomial().evaluate_u1() == 0

    def test_s_recovery_examples(self):
        assert upoly("2u + 2u^3").coeff_exponent_sum() == 8
        assert upoly("2u^2").coeff_exponent_sum() == 4
        assert InvariantPolynomial().coeff_exponent_sum() == 0

    def test_specialization_identities(self):
        racks = [Z4_RACK, R4, make_quotient(2, [1, 1])]
        diagrams = [TREFOIL, HOPF, unknot_diagram(1)]
        for rack in racks:
            for diagram in diagrams:
                count = counting_invariant(diagram, rack)
                add_poly, _ = additive_enhanced(diagram, rack)
                s_poly, _ = s_enhanced(diagram, rack)
                assert add_poly.evaluate_u1() == count
                assert s_poly.coeff_exponent_sum() == count


class TestEmptyDiagram:
    # The diagram with no components has one labeling, the empty one, in
    # one framing.  The shifts of a TSRack all fix it, so it is its own
    # orbit and counts once; the FiniteRack's only shift is the identity.
    EMPTY = LinkDiagram(())

    @pytest.mark.parametrize("rack", [Z12_RACK, make_quotient(2, [1, 0, 1]),
                                      R4, SIGMA12],
                             ids=["Z12", "Q16", "R4", "constant (2 1)"])
    def test_count_and_writhe(self, rack):
        assert len(enumerate_homs(self.EMPTY, rack)) == 1
        assert counting_invariant(self.EMPTY, rack) == 1
        assert str(writhe_enhanced(self.EMPTY, rack)) == "1"

    @pytest.mark.parametrize("rack", [Z12_RACK, make_quotient(2, [1, 0, 1]),
                                      R4], ids=["Z12", "Q16", "R4"])
    def test_enhancements(self, rack):
        for linear in (False, True):
            poly, multiset = additive_enhanced(self.EMPTY, rack,
                                               use_linear_path=linear)
            assert (str(poly), multiset.counts()) == ("u", {(): 1})
        for split in (True, False):
            poly, multiset = s_enhanced(self.EMPTY, rack, split_fibers=split)
            assert (str(poly), multiset.counts()) == ("u", {1: 1})


class TestIntegerView:
    def test_one_attribute_built_once(self):
        # every invariant reads the one view that labelings.indexed keeps
        # on the rack, rack_rank keeps nothing there, and a second round
        # builds nothing new
        q16 = make_quotient(2, [1, 0, 1])
        constant = constant_action_rack([2, 3, 1, 5, 4])
        rounds = {
            q16: [counting_invariant, writhe_enhanced, additive_enhanced,
                  lambda d, x: additive_enhanced(d, x, use_linear_path=True),
                  s_enhanced,
                  lambda d, x: s_enhanced(d, x, split_fibers=False),
                  lambda d, x: x.rack_rank()],
            constant: [counting_invariant, writhe_enhanced],
        }
        for rack, invariants_run in rounds.items():
            before = set(vars(rack))
            views = []
            for _ in range(2):
                for run in invariants_run:
                    run(TREFOIL, rack)
                    run(HOPF, rack)
                assert len(set(vars(rack)) - before) == 1
                views.append(labelings.indexed(rack))
            assert views[0] is views[1]


def plan_leaves(diagram, rack):
    """The leaf bound of the one-search plan of the diagram by the rack."""
    period = rack_rank(rack)[0]
    comps, crossings, cuts = labelings._cut_open(diagram, period)
    return labelings._compile(len(rack.elements), period, crossings, cuts,
                               len(comps))[0]


class TestOneSearch:
    def test_plan_branches_at_a_cut_only_to_save_a_seed(self):
        # |X| = 16 per seed, N = 4 per cut branch: the trefoil takes two
        # seeds (not 4 * 16^2), 7_6 two seeds and a cut (not 16^3)
        corpus, q16 = load_corpus(), make_quotient(2, [1, 0, 1])
        seeds_and_cut = {"7_6", "8_6", "8_8"}
        three_seeds = {"8_5", "8_10", "8_16", "8_17", "8_18", "8_19",
                       "8_20", "8_21", "L6a4", "L6a5", "L6n1", "L7a7"}
        assert len(corpus) == 46
        assert {name: plan_leaves(d, q16) for name, d in corpus.items()} == {
            name: 4 * 16 ** 2 if name in seeds_and_cut
            else 16 ** 3 if name in three_seeds else 16 ** 2
            for name in corpus}
        # rack rank 6 above order 5: a cut costs more than a seed
        rank_six = constant_action_rack([2, 1, 4, 5, 3])
        assert [plan_leaves(corpus[name], rank_six)
                for name in sorted(seeds_and_cut)] == [5 ** 3] * 3

    def test_rank_one_has_no_cuts(self):
        assert labelings._cut_open(TREFOIL, 1)[2] == []


class TestInputLimit:
    Q1024 = {"type": "quotient", "n": 2, "p": [1, 0, 0, 0, 0, 1]}

    def test_limit_applies_to_the_plan(self, monkeypatch):
        # the trefoil by Q16 takes a plan of 16^2 leaves
        q16 = make_quotient(2, [1, 0, 1])
        monkeypatch.setattr(labelings, "LEAF_LIMIT", 16 ** 2 - 1)
        with pytest.raises(ValidationError):
            counting_invariant(TREFOIL, q16)
        monkeypatch.setattr(labelings, "LEAF_LIMIT", 16 ** 2)
        assert counting_invariant(TREFOIL, q16) == 32

    def test_q256_on_8_10_is_within_the_limit(self):
        q256 = make_quotient(2, [1, 0, 0, 1, 1])
        assert plan_leaves(load_corpus()["8_10"], q256) == 256 ** 3
        assert 256 ** 3 <= labelings.LEAF_LIMIT

    def test_q1024_on_8_18_refused_before_the_search(self, monkeypatch,
                                                    capsys):
        monkeypatch.delenv(CACHE_ENV, raising=False)
        link = load_corpus_specs()["8_18"]
        start = time.perf_counter()
        code = main(["invariant", "--rack", json.dumps(self.Q1024),
                     "--link", link])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert "limit" in capsys.readouterr().err
        with pytest.raises(ValidationError):
            counting_invariant(load_corpus()["8_18"],
                               tsrack_from_spec(self.Q1024))

    @pytest.mark.parametrize("link", ["unknots: 4000", "braid: 2000: 1"])
    def test_many_components_refused_while_the_plan_is_built(
            self, monkeypatch, capsys, link):
        # each component takes a seed of 4 leaves: refused at the 14th,
        # not after planning thousands
        monkeypatch.delenv(CACHE_ENV, raising=False)
        start = time.perf_counter()
        code = main(["invariant", "--rack", '{"type":"linear","n":4,'
                     '"t":3,"s":2}', "--link", link])
        assert time.perf_counter() - start < 1
        assert code == 3
        assert capsys.readouterr().err == (
            "validation error: labeling search refused: its plan passes "
            "the limit of %d leaves\n" % labelings.LEAF_LIMIT)


class TestManyStages:
    @pytest.mark.parametrize("count", [1000, 10000])
    def test_one_element_rack_searches_a_stage_per_unknot(
            self, monkeypatch, capsys, count):
        # one leaf per stage never meets the limit: every unknot is a
        # stage of the plan and of the search, up to STRAND_LIMIT of them,
        # so neither may recurse per stage or rescan every slot per stage
        monkeypatch.delenv(CACHE_ENV, raising=False)
        start = time.perf_counter()
        code = main(["invariant", "--rack", "1\n1",
                     "--link", "unknots: %d" % count])
        assert time.perf_counter() - start < 2
        out, err = capsys.readouterr()
        assert (code, err) == (0, "")
        assert out.splitlines()[-1] == "counting: 1"


class TestFramingPeriodicity:
    @pytest.mark.parametrize("rack", [
        SIGMA12, Z4_RACK, R4, make_quotient(2, [1, 1]),
        constant_action_rack([2, 3, 1]),
    ])
    @pytest.mark.parametrize("diagram", [TREFOIL, HOPF])
    def test_n_phone_cord(self, diagram, rack):
        from tsracks.diagrams import add_kink
        period = rack_rank(rack)[0]
        kinked = diagram
        for _ in range(period):
            kinked = add_kink(kinked, 0, +1)
        assert len(enumerate_homs(diagram, rack)) == \
            len(enumerate_homs(kinked, rack))


class TestDiagramIndependence:
    def test_trefoil_braid_vs_pd(self):
        # the table PD is the mirror of the positive braid closure; both
        # mirrors must agree for the involutory racks used here
        pd = parse_pd("X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]")
        for rack in (Z12_RACK, R4):
            a, _ = additive_enhanced(TREFOIL, rack)
            b, _ = additive_enhanced(pd, rack)
            assert a == b

    def test_trefoil_positive_pd(self):
        # same chirality as the braid closure: mirror the table PD
        pd = parse_pd("X[1,5,2,4] X[3,1,4,6] X[5,3,6,2]")
        assert pd.writhe_vector() == (3,)
        for rack in (SIGMA12, Z4_RACK, make_quotient(2, [1, 0, 1])):
            assert counting_invariant(TREFOIL, rack) == \
                counting_invariant(pd, rack)

    def test_hopf_braid_vs_pd(self):
        pd = parse_pd("X[4,1,3,2] X[2,3,1,4]")
        for rack in (SIGMA12, Z4_RACK, R4):
            assert counting_invariant(HOPF, rack) == \
                counting_invariant(pd, rack)
        a, _ = s_enhanced(HOPF, R4)
        b, _ = s_enhanced(pd, R4)
        assert a == b

    @pytest.mark.parametrize("split_fibers", [
        False,
        pytest.param(True, marks=pytest.mark.xfail(
            strict=True, reason="the split reading depends on how the "
                                "components are numbered (FOUND in "
                                "CHANGES.md)")),
    ], ids=["plain", "split"])
    def test_s_enhanced_ignores_component_order(self, split_fibers):
        # Hopf link and a split unknot, components numbered in all six
        # orders; the split reading buckets lifts by component number
        diagram = parse_link("braid: 2: 1 1; unknots: 1")
        q16 = make_quotient(2, [1, 0, 1])
        values = set()
        for order in permutations(diagram.component_markers()):
            renumbered = LinkDiagram(diagram.edge_crossings,
                                     diagram.free_loops,
                                     component_markers=order)
            poly, _ = s_enhanced(renumbered, q16, split_fibers=split_fibers)
            values.add(str(poly))
        assert len(values) == 1

    def test_corpus_l4a1_is_torus_link(self):
        corpus = load_corpus()
        t24 = parse_braid(2, [1] * 4)
        for rack in (Z4_RACK, Z12_RACK):
            a, _ = additive_enhanced(corpus["L4a1"], rack)
            b, _ = additive_enhanced(t24, rack)
            assert a == b
