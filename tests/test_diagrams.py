import pytest

from tsracks.diagrams import (
    STRAND_LIMIT,
    add_kink,
    framed_family,
    parse_braid,
    parse_link,
    parse_pd,
    pd_code,
    unknot_diagram,
)
from tsracks.errors import AmbiguousPDError, MalformedPDError, ParseError, ValidationError

TREFOIL_PD = "X[1,4,2,5] X[3,6,4,1] X[5,2,6,3]"
HOPF_PD = "X[4,1,3,2] X[2,3,1,4]"


class TestParsePD:
    def test_trefoil(self):
        d = parse_pd(TREFOIL_PD)
        assert d.component_count == 1
        assert len(d.crossings) == 3
        signs = {c.sign for c in d.crossings}
        assert len(signs) == 1
        assert abs(d.writhe_vector()[0]) == 3

    def test_hopf(self):
        d = parse_pd(HOPF_PD)
        assert d.component_count == 2
        assert len(d.crossings) == 2
        assert len({c.sign for c in d.crossings}) == 1
        assert d.writhe_vector() == (0, 0)

    def test_empty_with_unknots(self):
        d = parse_pd("", unknots=1)
        assert d.component_count == 1
        assert len(d.crossings) == 0

    def test_inconsistent_arc_usage(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X[1,2,3,4] X[1,2,3,4] X[1,2,3,4]")

    def test_non_adjacent_over_strand(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X[1,3,2,5] X[3,6,4,1] X[5,2,6,4]")

    def test_garbage_rejected(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X[1,4,2,5] banana")

    def test_truly_ambiguous_needs_signed_form(self):
        # one component passes over the other twice and never goes under,
        # so both over directions are globally consistent
        with pytest.raises(AmbiguousPDError):
            parse_pd("X[1,3,2,4] X[2,4,1,3]")
        d = parse_pd("X+[1,3,2,4] X+[2,4,1,3]")
        assert [c.sign for c in d.crossings] == [1, 1]
        d = parse_pd("X-[1,3,2,4] X-[2,4,1,3]")
        assert [c.sign for c in d.crossings] == [-1, -1]

    def test_global_consistency_resolves_two_edge_components(self):
        # every over pair here is cyclically adjacent both ways, but the
        # under usage pins the directions (this is the standard Hopf code)
        d = parse_pd(HOPF_PD)
        assert [c.sign for c in d.crossings] == [-1, -1]
        d2 = parse_pd("X[1,3,2,4] X[3,1,4,2]")
        assert [c.sign for c in d2.crossings] == [1, 1]

    def test_signed_form_accepted_when_consistent(self):
        minus = parse_pd("X-[4,1,3,2] X-[2,3,1,4]")
        assert [c.sign for c in minus.crossings] == [-1, -1]

    def test_signed_form_rejected_when_inconsistent(self):
        with pytest.raises(MalformedPDError):
            parse_pd("X+[4,1,3,2] X+[2,3,1,4]")


class TestParseBraid:
    def test_hopf(self):
        d = parse_braid(2, [1, 1])
        assert d.component_count == 2
        assert d.writhe_vector() == (0, 0)
        assert [c.sign for c in d.crossings] == [1, 1]

    def test_trefoil(self):
        d = parse_braid(2, [1, 1, 1])
        assert d.component_count == 1
        assert d.writhe_vector() == (3,)

    def test_single_strand_unknot(self):
        d = parse_braid(1, [])
        assert d.component_count == 1
        assert len(d.crossings) == 0

    def test_untouched_strand_becomes_free_loop(self):
        d = parse_braid(3, [1, 1])
        assert d.component_count == 3

    def test_letter_out_of_range(self):
        with pytest.raises(ValidationError):
            parse_braid(2, [2])
        with pytest.raises(ValidationError):
            parse_braid(2, [0])

    def test_negative_letters(self):
        d = parse_braid(3, [1, -2, 1, -2])
        assert d.component_count == 1
        assert d.writhe_vector() == (0,)
        assert sorted(c.sign for c in d.crossings) == [-1, -1, 1, 1]


class TestParseLink:
    def test_pd_segment(self):
        assert parse_link("pd: " + TREFOIL_PD).component_count == 1

    def test_braid_segment(self):
        assert parse_link("braid: 2: 1 1 1").writhe_vector() == (3,)

    def test_unknots_segment(self):
        assert parse_link("unknots: 3").component_count == 3

    def test_combined(self):
        d = parse_link("braid: 2: 1 1; unknots: 1")
        assert d.component_count == 3

    def test_errors(self):
        for bad in ("", "wat: 3", "braid: x: 1", "unknots: q",
                    "pd: X[1,4,2,5]; pd: X[1,4,2,5]"):
            with pytest.raises(ParseError):
                parse_link(bad)

    @pytest.mark.parametrize("spec", [
        "unknots: %d", "braid: %d: 1", "braid: 2: 1; unknots: %d",
        "pd: %s; unknots: %%d" % TREFOIL_PD])
    def test_size_limit_is_inclusive(self, spec):
        # a few digits would otherwise build a diagram past memory
        assert STRAND_LIMIT == 10 ** 4
        assert parse_link(spec % STRAND_LIMIT).component_count >= \
            STRAND_LIMIT - 1
        for count in (STRAND_LIMIT + 1, 10 ** 12):
            with pytest.raises(ValidationError, match="STRAND_LIMIT"):
                parse_link(spec % count)


class TestWrithe:
    def test_trefoil_braid(self):
        assert parse_braid(2, [1, 1, 1]).writhe_vector() == (3,)

    def test_hopf_mixed_crossings_do_not_count(self):
        assert parse_braid(2, [1, 1]).writhe_vector() == (0, 0)

    def test_unknot(self):
        assert unknot_diagram(1).writhe_vector() == (0,)


class TestAddKink:
    def test_unknot_positive_kink(self):
        d = add_kink(unknot_diagram(1), 0, +1)
        assert len(d.crossings) == 1
        assert d.writhe_vector() == (1,)
        rel = d.crossings[0]
        # the single relation identifies the arc with its own kink image
        assert rel.under_in == rel.over == rel.under_out
        assert rel.sign == 1

    def test_hopf_kink_on_first_component(self):
        d = add_kink(parse_braid(2, [1, 1]), 0, +1)
        assert d.writhe_vector() == (1, 0)

    def test_two_kinks(self):
        d = parse_braid(2, [1, 1])
        d = add_kink(add_kink(d, 0, +1), 0, +1)
        assert d.writhe_vector() == (2, 0)

    def test_negative_kink(self):
        d = add_kink(unknot_diagram(1), 0, -1)
        assert d.writhe_vector() == (-1,)

    def test_component_order_is_stable(self):
        base = parse_braid(2, [1, 1])
        kinked = add_kink(base, 1, +1)
        assert kinked.writhe_vector() == (0, 1)
        kinked = add_kink(kinked, 0, +1)
        assert kinked.writhe_vector() == (1, 1)

    def test_bad_arguments(self):
        with pytest.raises(ValidationError):
            add_kink(unknot_diagram(1), 5, +1)
        with pytest.raises(ValidationError):
            add_kink(unknot_diagram(1), 0, 2)


class TestFramedFamily:
    def test_unknot_mod_two(self):
        fam = framed_family(unknot_diagram(1), 2)
        assert sorted(fam) == [(0,), (1,)]
        assert fam[(0,)].writhe_vector() == (0,)
        assert fam[(1,)].writhe_vector() == (1,)

    def test_hopf_mod_two(self):
        fam = framed_family(parse_braid(2, [1, 1]), 2)
        assert sorted(fam) == [(0, 0), (0, 1), (1, 0), (1, 1)]
        for w, d in fam.items():
            assert d.writhe_vector() == w

    def test_period_one(self):
        base = parse_braid(2, [1, 1, 1])
        fam = framed_family(base, 1)
        assert list(fam) == [(0,)]
        assert fam[(0,)] is base

    def test_writhes_congruent_to_keys(self):
        base = parse_braid(2, [1] * 5)  # writhe 5
        for w, d in framed_family(base, 3).items():
            assert d.writhe_vector()[0] % 3 == w[0]


class TestCrossingRelations:
    """Each arc-level crossing is the relation under_out = under_in >^sign
    over."""

    def test_zero_crossing(self):
        assert list(unknot_diagram(2).crossings) == []

    def test_braid_trefoil(self):
        rels = parse_braid(2, [1, 1, 1]).crossings
        assert len(rels) == 3
        assert all(r.sign == 1 for r in rels)

    def test_mirror_uses_inverse(self):
        rels = parse_braid(2, [-1, -1, -1]).crossings
        assert all(r.sign == -1 for r in rels)


class TestBookkeeping:
    def test_arc_under_counts(self):
        for d in (parse_pd(TREFOIL_PD), parse_braid(2, [1] * 4),
                  parse_braid(3, [1, -2, 1, -2])):
            ins = {a: 0 for a in d.arcs}
            outs = {a: 0 for a in d.arcs}
            for c in d.crossings:
                ins[c.under_in] += 1
                outs[c.under_out] += 1
            for a in d.arcs:
                assert (ins[a], outs[a]) in ((1, 1), (0, 0))

    def test_successor_cycles_cover_components(self):
        d = parse_braid(3, [1, -2, 1, -2])
        seen = set()
        for a in d.arcs:
            if a in d.successor:
                assert d.component_of[d.successor[a]] == d.component_of[a]
                seen.add(a)
        assert seen == set(d.arcs)


class TestPDExport:
    @pytest.mark.parametrize("diagram", [
        parse_braid(2, [1, 1, 1]),
        parse_braid(2, [1] * 4),
        parse_braid(3, [1, -2, 1, -2]),
        parse_braid(3, [1, -2] * 3),
        parse_pd(TREFOIL_PD),
        # a component of two edges that only passes over, whose crossings
        # pd_code must sign: unsigned, parse_pd refused them as ambiguous
        parse_braid(2, [1, -1]),
        parse_braid(3, [-2, 1, 1, 2]),
    ])
    def test_round_trip_preserves_structure(self, diagram):
        text = pd_code(diagram)
        back = parse_link(text)
        assert back.component_count == diagram.component_count
        assert len(back.crossings) == len(diagram.crossings)
        assert back.writhe_vector() == diagram.writhe_vector()
        assert sorted(c.sign for c in back.crossings) == \
            sorted(c.sign for c in diagram.crossings)

    def test_signs_only_where_needed(self):
        assert pd_code(parse_braid(2, [1, -1])) == "pd: X+[1,4,2,3] X-[2,4,1,3]"
        assert "X+" not in pd_code(parse_braid(2, [1, 1]))   # Hopf

    def test_unknots_survive(self):
        d = parse_link("braid: 2: 1 1; unknots: 2")
        back = parse_link(pd_code(d))
        assert back.component_count == 4
