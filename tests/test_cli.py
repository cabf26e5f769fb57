import json
import random
import re

import pytest

from tsracks.atlas import load_corpus_specs
from tsracks.cli import CACHE_ENV, KINDS, main
from tsracks.modules import (ORDER_LIMIT, TSRack, enumerate_linear,
                             tsrack_from_spec)

Z12_SPEC = '{"type":"linear","n":12,"t":11,"s":2}'
Z4_SPEC = '{"type":"linear","n":4,"t":1,"s":2}'
R4_SPEC = '{"type":"linear","n":4,"t":3,"s":2}'
QUOT_SPEC = '{"type":"quotient","n":2,"p":[1,1]}'
QUOT3_SPEC = '{"type":"quotient","n":3,"p":[1,1]}'
FIG8_PD = ("pd: X[1,6,2,7] X[5,2,6,3] X[3,1,4,8] X[7,5,8,4]")
# Alexander quandles A(2; x^4+x^3+1) and A(2; x^4+x^2+1): t the companion
# matrix, s = 1 - t
A2_SPECS = (
    '{"type":"module","moduli":[2,2,2,2],'
    '"t":[[0,0,0,1],[1,0,0,0],[0,1,0,0],[0,0,1,1]],'
    '"s":[[1,0,0,1],[1,1,0,0],[0,1,1,0],[0,0,1,0]]}',
    '{"type":"module","moduli":[2,2,2,2],'
    '"t":[[0,0,0,1],[1,0,0,0],[0,1,0,1],[0,0,1,0]],'
    '"s":[[1,0,0,1],[1,1,0,0],[0,1,1,1],[0,0,1,1]]}',
)
# quotient(3, [2,0,1]) in the basis P = [[0,1,1,0], [2,0,1,0], [0,1,0,2],
# [0,1,1,1]]: T' = P T P^-1, S' = P S P^-1
Q3_REBASED = (
    '{"type":"module","moduli":[3,3,3,3],'
    '"t":[[1,2,2,0],[0,0,2,0],[0,2,0,0],[0,2,1,2]],'
    '"s":[[2,2,1,0],[2,2,1,0],[1,0,1,0],[1,2,0,0]]}')
Z2_Z4_SPEC = ('{"type":"module","moduli":[2,4],"t":[[1,1],[2,1]],'
              '"s":[[0,1],[2,2]]}')
Q16_SPEC = '{"type":"quotient","n":2,"p":[1,0,1]}'
# well-typed specs over ORDER_LIMIT: the first hung validate-rack for
# minutes, and the others describe more elements than could be listed
OVERSIZED_SPECS = {
    "linear 100000": {"type": "linear", "n": 100000, "t": 1, "s": 0},
    "linear 10**9": {"type": "linear", "n": 10**9, "t": 1, "s": 0},
    "long quotient": {"type": "quotient", "n": 2,
                      "p": [1] + [0] * 9998 + [1]},
    "module": {"type": "module", "moduli": [10**6] * 8,
               "t": [[int(i == j) for j in range(8)] for i in range(8)],
               "s": [[0] * 8 for _ in range(8)]},
}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestValidateRack:
    def test_good_matrix_file(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("2\n2 2\n1 1\n")
        code, out, _ = run(capsys, "validate-rack", "--rack", str(path))
        assert code == 0
        assert "valid rack" in out and "rack rank 2" in out

    def test_axiom_failure(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("2\n1 1\n1 2\n")
        code, _, err = run(capsys, "validate-rack", "--rack", str(path))
        assert code == 3
        assert "axiom" in err

    def test_garbage(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("banana\n")
        code, _, err = run(capsys, "validate-rack", "--rack", str(path))
        assert code == 3


class TestRackRank:
    def test_constant_action(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("3\n2 2 2\n3 3 3\n1 1 1\n")
        code, out, _ = run(capsys, "rack-rank", "--rack", str(path))
        assert code == 0
        assert "rack rank: 3" in out
        assert "3 3 3" in out


class TestMakeTSRack:
    def test_linear(self, capsys):
        code, out, _ = run(capsys, "make-tsrack", "--rack", Z4_SPEC)
        assert code == 0
        assert "order: 4" in out and "rack rank: 2" in out

    def test_invalid_spec(self, capsys):
        code, _, err = run(capsys, "make-tsrack", "--rack",
                           '{"type":"linear","n":4,"t":2,"s":2}')
        assert code == 3

    def test_bad_json(self, capsys):
        code, _, err = run(capsys, "make-tsrack", "--rack", "{oops")
        assert code == 2


class TestIsoCheck:
    def test_isomorphic_pair_prints_certificate(self, capsys):
        code, out, _ = run(capsys, "iso-check",
                           "--rack", Z4_SPEC, "--rack2", QUOT_SPEC)
        assert code == 0
        assert out.startswith("isomorphic")
        assert "phi" in out

    def test_non_isomorphic(self, capsys):
        code, out, _ = run(capsys, "iso-check",
                           "--rack", Z4_SPEC, "--rack2", R4_SPEC)
        assert code == 0
        assert out.strip() == "not isomorphic"

    @pytest.mark.parametrize("order", [(0, 1), (1, 0)])
    def test_module_specs_not_isomorphic(self, capsys, order):
        code, out, _ = run(capsys, "iso-check", "--rack", A2_SPECS[order[0]],
                           "--rack2", A2_SPECS[order[1]])
        assert code == 0
        assert out.strip() == "not isomorphic"

    def test_module_spec_isomorphic(self, capsys):
        code, out, _ = run(capsys, "iso-check", "--rack",
                           '{"type":"quotient","n":3,"p":[2,0,1]}',
                           "--rack2", Q3_REBASED)
        assert code == 0
        assert out.startswith("isomorphic")
        assert "phi" in out

    def test_matrix_route(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        a.write_text("2\n2 2\n1 1\n")
        b = tmp_path / "b.txt"
        b.write_text("2\n1 1\n2 2\n")
        code, out, _ = run(capsys, "iso-check",
                           "--rack", str(a), "--rack2", str(b))
        assert code == 0
        assert "not isomorphic" in out


class TestSpecMatrixParity:
    """validate-rack and rack-rank read a spec's rack directly, and print
    what they print on the spec's exported matrix."""

    @pytest.mark.parametrize("spec", [
        json.dumps({"type": "linear", "n": n, "t": t, "s": s})
        for n in range(2, 9) for t, s in enumerate_linear(n)]
        + [Q16_SPEC, QUOT3_SPEC, Z2_Z4_SPEC], ids=lambda spec: spec)
    def test_rank_verbs(self, tmp_path, capsys, spec):
        matrix = tmp_path / "rack.txt"
        matrix.write_text(
            tsrack_from_spec(json.loads(spec)).to_finite_rack().to_text())
        for verb in ("validate-rack", "rack-rank"):
            on_spec = run(capsys, verb, "--rack", spec)
            assert on_spec[0] == 0
            assert on_spec == run(capsys, verb, "--rack", str(matrix))

    def test_iso_check_of_other_orders_exports_nothing(self, tmp_path,
                                                        capsys, monkeypatch):
        matrix = tmp_path / "rack.txt"
        matrix.write_text("2\n2 2\n1 1\n")

        def export(rack, order=None):
            raise AssertionError("exported %r" % (rack,))

        monkeypatch.setattr(TSRack, "to_finite_rack", export)
        for pair in ((Q16_SPEC, str(matrix)), (str(matrix), Z4_SPEC)):
            code, out, _ = run(capsys, "iso-check", "--rack", pair[0],
                               "--rack2", pair[1])
            assert code == 0
            assert out == "not isomorphic\n"


class TestInvariant:
    def test_additive_figure_eight(self, capsys):
        code, out, _ = run(capsys, "invariant", "--rack", Z12_SPEC,
                           "--link", FIG8_PD, "--kind", "additive")
        assert code == 0
        assert "value: u + u^2 + 2u^3 + 2u^4 + 2u^6 + 4u^12" in out

    def test_malformed_pd_names_quadruple(self, capsys):
        code, _, err = run(capsys, "invariant", "--rack", Z4_SPEC,
                           "--link", "pd: X[1,4,2,5] X[3,6,4,1] X[5,2,6,9]")
        assert code == 2
        assert "9" in err

    def test_count_with_matrix_rack(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("2\n2 2\n1 1\n")
        code, out, _ = run(capsys, "invariant", "--rack", str(path),
                           "--link", "unknots: 2", "--kind", "count")
        assert code == 0
        assert "counting: 4" in out

    def test_enhanced_requires_module(self, tmp_path, capsys):
        path = tmp_path / "rack.txt"
        path.write_text("2\n2 2\n1 1\n")
        code, _, err = run(capsys, "invariant", "--rack", str(path),
                           "--link", "unknots: 1", "--kind", "additive")
        assert code == 3

    @pytest.mark.parametrize("rack", [R4_SPEC, Q16_SPEC])
    def test_every_kind_records_the_counting_invariant(self, capsys, rack):
        # writhe sums the coefficients, additive evaluates at u = 1 and
        # s-enh sums coefficient times exponent; the two enhancements
        # alone keep a multiset
        for link in ("braid: 2: 1 1", "braid: 2: 1 1 1"):
            records = []
            for kind in KINDS:
                code, out, _ = run(capsys, "invariant", "--rack", rack,
                                   "--link", link, "--kind", kind,
                                   "--format", "json-like")
                assert code == 0
                records.append(json.loads(out))
            assert len({r["counting_value"] for r in records}) == 1
            assert [r["multiset"] is None for r in records] == [
                kind in ("count", "writhe") for kind in KINDS]

    def test_json_format(self, capsys):
        code, out, _ = run(capsys, "invariant", "--rack", Z4_SPEC,
                           "--link", "braid: 2: 1 1 1",
                           "--kind", "additive", "--format", "json-like")
        assert code == 0
        record = json.loads(out)
        assert record["counting_value"] == 6
        assert record["rack_spec"]["n"] == 4


class TestCache:
    def test_round_trip_byte_identical(self, tmp_path, capsys):
        args = ["--cache-dir", str(tmp_path), "invariant",
                "--rack", Z4_SPEC, "--link", "braid: 2: 1 1 1",
                "--kind", "additive", "--format", "json-like"]
        code1, out1, _ = run(capsys, *args)
        code2, out2, _ = run(capsys, *args)
        assert code1 == code2 == 0
        assert out1 == out2
        assert list(tmp_path.glob("*.json"))

    def test_version_bump_misses(self, tmp_path, capsys, monkeypatch):
        args = ["--cache-dir", str(tmp_path), "invariant",
                "--rack", Z4_SPEC, "--link", "unknots: 1",
                "--kind", "count", "--format", "json-like"]
        run(capsys, *args)
        before = len(list(tmp_path.glob("*.json")))
        monkeypatch.setattr("tsracks.cli.__version__", "0.0.0-test")
        run(capsys, *args)
        after = len(list(tmp_path.glob("*.json")))
        assert after == before + 1

    def test_corrupt_entry_recomputed(self, tmp_path, capsys):
        args = ["--cache-dir", str(tmp_path), "invariant",
                "--rack", Z4_SPEC, "--link", "unknots: 1",
                "--kind", "count", "--format", "json-like"]
        code, out1, _ = run(capsys, *args)
        entry = next(tmp_path.glob("*.json"))
        entry.write_text("{corrupt")
        code, out2, err = run(capsys, *args)
        assert code == 0
        assert out1 == out2
        assert "corrupt" in err

    @pytest.mark.parametrize("verb, damage", [
        ("invariant", lambda r: {f: v for f, v in r.items()
                                 if f != "counting_value"}),
        ("table", lambda r: dict(r, polynomial_text=7)),
        ("invariant", lambda r: dict(r, multiset=[2, 3])),
        ("invariant", lambda r: dict(r, counting_value="8")),
        ("invariant", lambda r: b"\x81\xff"),
    ], ids=["missing counting_value", "int polynomial_text",
            "bare multiset counts", "string counting_value", "binary"])
    def test_entry_with_damaged_outputs_recomputed(self, tmp_path, capsys,
                                                   verb, damage):
        # each ended in a traceback (exit 1) while only unparsable JSON
        # counted as corrupt; its inputs still match
        links = tmp_path / "links.txt"
        links.write_text("3_1 braid: 2: 1 1 1\n")
        argv = ["--cache-dir", str(tmp_path / "cache"), verb, "--rack",
                Z4_SPEC, "--kind", "additive"] + (
            ["--link", "braid: 2: 1 1 1"] if verb == "invariant"
            else ["--links", str(links)])
        _, fresh, _ = run(capsys, *argv)
        entry = next((tmp_path / "cache").glob("*.json"))
        stored = entry.read_bytes()
        damaged = damage(json.loads(stored))
        entry.write_bytes(damaged if isinstance(damaged, bytes)
                          else json.dumps(damaged).encode())
        code, out, err = run(capsys, *argv)
        assert code == 0
        assert out == fresh
        assert err == "warning: ignoring corrupt cache entry %s\n" % entry
        assert entry.read_bytes() == stored

    def test_entry_for_other_inputs_recomputed(self, tmp_path, capsys):
        def args(cache, link):
            return ["--cache-dir", str(cache), "invariant",
                    "--rack", Z4_SPEC, "--link", link,
                    "--kind", "count", "--format", "json-like"]

        _, fresh, _ = run(capsys, *args(tmp_path / "a", "unknots: 1"))
        entry = next((tmp_path / "a").glob("*.json"))
        stored = entry.read_bytes()
        run(capsys, *args(tmp_path / "b", "unknots: 2"))
        other = next((tmp_path / "b").glob("*.json")).read_bytes()
        assert other != stored
        entry.write_bytes(other)
        code, out, err = run(capsys, *args(tmp_path / "a", "unknots: 1"))
        assert code == 0
        assert out == fresh
        assert "other inputs" in err
        assert entry.read_bytes() == stored

    def test_env_var_cache(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("TSRACKS_CACHE_DIR", str(tmp_path))
        code, _, _ = run(capsys, "invariant", "--rack", Z4_SPEC,
                         "--link", "unknots: 1", "--kind", "count")
        assert code == 0
        assert list(tmp_path.glob("*.json"))


class TestTable:
    def links_file(self, tmp_path, lines):
        path = tmp_path / "links.txt"
        path.write_text("\n".join(lines) + "\n")
        return str(path)

    def test_grouping(self, tmp_path, capsys):
        path = self.links_file(tmp_path, [
            "3_1 braid: 2: 1 1 1",
            "unknot braid: 1:",
            "5_1 braid: 2: 1 1 1 1 1",
        ])
        code, out, _ = run(capsys, "table", "--rack", Z4_SPEC,
                           "--links", path, "--kind", "additive")
        assert code == 0
        rows = [ln for ln in out.splitlines() if "|" in ln]
        assert len(rows) == 1
        assert "3_1, 5_1, unknot" in rows[0]

    def test_format_is_not_an_option(self, tmp_path, capsys):
        path = self.links_file(tmp_path, ["3_1 braid: 2: 1 1 1"])
        with pytest.raises(SystemExit) as info:
            main(["table", "--rack", Z4_SPEC, "--links", path,
                  "--format", "json-like"])
        assert info.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_strict_order_is_not_an_option(self, tmp_path, capsys):
        path = self.links_file(tmp_path, ["3_1 braid: 2: 1 1 1"])
        with pytest.raises(SystemExit) as info:
            main(["table", "--rack", Z4_SPEC, "--links", path,
                  "--strict-order"])
        assert info.value.code == 2
        assert "--strict-order" in capsys.readouterr().err

    def test_grouping_independent_of_order(self, tmp_path, capsys):
        lines = ["a braid: 2: 1 1 1", "b braid: 1:", "c braid: 2: 1 1 1 1 1"]
        path1 = self.links_file(tmp_path, lines)
        code, out1, _ = run(capsys, "table", "--rack", Z12_SPEC,
                            "--links", path1, "--kind", "additive")
        path2 = self.links_file(tmp_path, lines[::-1])
        code, out2, _ = run(capsys, "table", "--rack", Z12_SPEC,
                            "--links", path2, "--kind", "additive")
        assert out1 == out2

    def test_single_failure_reported_and_skipped(self, tmp_path, capsys):
        path = self.links_file(tmp_path, [
            "good braid: 2: 1 1 1",
            "bad pd: X[1,2,3]",
        ])
        code, out, err = run(capsys, "table", "--rack", Z4_SPEC,
                             "--links", path, "--kind", "additive")
        assert code == 0
        assert "good" in out
        assert "failed: bad" in err

    def test_empty_file(self, tmp_path, capsys):
        path = self.links_file(tmp_path, [""])
        code, out, _ = run(capsys, "table", "--rack", Z4_SPEC,
                           "--links", path, "--kind", "additive")
        assert code == 0
        assert out.strip() == ""

    def test_ordering_report(self, tmp_path, capsys):
        path = self.links_file(tmp_path, [
            "3_1 braid: 2: 1 1 1",
            "4_1 pd: X[1,6,2,7] X[5,2,6,3] X[3,1,4,8] X[7,5,8,4]",
        ])
        code, out, _ = run(capsys, "table", "--rack", Z12_SPEC,
                           "--links", path, "--kind", "additive",
                           "--weak-order")
        assert code == 0
        assert "greater" in out or "less" in out


    def test_weak_order_with_writhe_is_a_usage_error(self, tmp_path,
                                                     capsys):
        # writhe rows are q-polynomials, which the weak reading cannot
        # compare; the combination is refused before any rack is built
        path = self.links_file(tmp_path, ["3_1 braid: 2: 1 1 1",
                                          "4_1 " + FIG8_PD])
        with pytest.raises(SystemExit) as info:
            main(["table", "--rack", "banana", "--links", path,
                  "--kind", "writhe", "--weak-order"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--weak-order" in captured.err and "writhe" in captured.err


# argv of each verb that reads a rack but table, given two rack specs
RACK_VERBS = {
    "validate-rack": lambda a, b: ["validate-rack", "--rack", a],
    "rack-rank": lambda a, b: ["rack-rank", "--rack", a],
    "make-tsrack": lambda a, b: ["make-tsrack", "--rack", a],
    "iso-check": lambda a, b: ["iso-check", "--rack", a, "--rack2", b],
    "invariant": lambda a, b: ["invariant", "--rack", a,
                               "--link", "braid: 2: 1 1 1"],
}


class TestMalformedRackSpecs:
    """A malformed rack spec exits 2 or 3 with a message, never with a
    traceback."""

    @pytest.mark.parametrize("spec", [
        {"type": "module", "moduli": [0], "t": [[1]], "s": [[0]]},
        {"type": "linear", "n": "x", "t": 1, "s": 0},
        {"type": "linear", "n": 4, "t": None, "s": 2},
        {"type": "module", "moduli": [4], "t": 3, "s": [[0]]},
        {"type": "linear", "n": 4.9, "t": 1.2, "s": 2},
    ], ids=["zero modulus", "string n", "null t", "integer matrix",
            "non-integral numbers"])
    def test_named_case(self, capsys, spec):
        code, out, err = run(capsys, "validate-rack", "--rack",
                             json.dumps(spec))
        assert code == 3
        assert out == "" and err.startswith("validation error: ")

    @pytest.mark.parametrize("spec", [
        {"type": "linear", "n": 4, "t": True, "s": 2},
        {"type": "module", "moduli": [2, 4], "t": [[1, 1], [2]],
         "s": [[0, 1], [2, 2]]},
        {"type": "module", "moduli": [2, 4], "t": [[1, 1], [2, 1]],
         "s": [[0, 1], [2, 2.5]]},
        {"type": "quotient", "n": 2, "p": [1, 0, "1"]},
    ], ids=["bool", "short row", "fractional entry", "string coefficient"])
    def test_types_are_checked(self, capsys, spec):
        code, _, err = run(capsys, "validate-rack", "--rack",
                           json.dumps(spec))
        assert code == 3
        assert err.startswith("validation error: ")

    @pytest.mark.parametrize("verb", RACK_VERBS)
    @pytest.mark.parametrize("name", sorted(OVERSIZED_SPECS))
    def test_oversized_spec_refused(self, capsys, verb, name):
        spec = json.dumps(OVERSIZED_SPECS[name])
        # iso-check refuses it in either place
        pairs = [(spec, Z4_SPEC)] + [(Z4_SPEC, spec)] * (verb == "iso-check")
        for pair in pairs:
            code, out, err = run(capsys, *RACK_VERBS[verb](*pair))
            assert code == 3
            assert out == "" and err == (
                "validation error: rack spec describes more than %d "
                "elements (ORDER_LIMIT)\n" % ORDER_LIMIT)

    @pytest.mark.parametrize("at_limit, past_limit", [
        ({"type": "linear", "n": 4096, "t": 1, "s": 0},
         {"type": "linear", "n": 4097, "t": 1, "s": 0}),
        ({"type": "quotient", "n": 2, "p": [1, 0, 0, 0, 0, 0, 1]},
         {"type": "quotient", "n": 3, "p": [1, 0, 0, 0, 1]}),
        ({"type": "module", "moduli": [64, 64], "t": [[1, 0], [0, 1]],
          "s": [[0, 0], [0, 0]]},
         {"type": "module", "moduli": [64, 65], "t": [[1, 0], [0, 1]],
          "s": [[0, 0], [0, 0]]}),
    ], ids=["linear", "quotient", "module"])
    def test_order_limit_is_inclusive(self, capsys, at_limit, past_limit):
        assert ORDER_LIMIT == 4096
        code, out, _ = run(capsys, "validate-rack", "--rack",
                           json.dumps(at_limit))
        assert code == 0 and out.startswith("valid rack on 4096 elements")
        code, _, err = run(capsys, "validate-rack", "--rack",
                           json.dumps(past_limit))
        assert code == 3 and "ORDER_LIMIT" in err

    def test_fuzzed_specs(self, capsys, monkeypatch, tmp_path):
        # seeded: mutations of small valid rack specs, run through every
        # verb that reads a rack but table; then mutated link specs, run
        # through invariant and table with a valid or a fuzzed rack spec
        monkeypatch.delenv(CACHE_ENV, raising=False)
        rng = random.Random(2026)
        bad = []

        def call(argv):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: a link spec like "-1"
                code = exc.code
            except Exception as exc:  # an escape, reported below
                code = repr(exc)
            err = capsys.readouterr().err
            if code not in (0, 2, 3) or "Traceback" in err:
                bad.append((argv, code, err))

        for _ in range(2000):
            spec = json.dumps(fuzzed_spec(rng))
            verb = rng.choice(sorted(RACK_VERBS))
            # iso-check against a second fuzzed spec, or against itself
            other = spec if rng.random() < 0.5 else json.dumps(
                fuzzed_spec(rng))
            argv = RACK_VERBS[verb](spec, other)
            if verb == "invariant":
                argv += ["--kind", rng.choice(KINDS)]
            call(argv)
        links = tmp_path / "links.txt"
        for _ in range(600):
            rack = rng.choice([Z4_SPEC, R4_SPEC, QUOT_SPEC, Q16_SPEC]) \
                if rng.random() < 0.7 else json.dumps(fuzzed_spec(rng))
            kind = rng.choice(KINDS)
            if rng.random() < 0.5:
                argv = ["invariant", "--rack", rack, "--link",
                        fuzzed_link(rng), "--kind", kind]
            else:
                links.write_text("".join(
                    "%s %s\n" % (rng.choice(["k", "3_1", "#", ""]),
                                 fuzzed_link(rng))
                    for _ in range(rng.randint(1, 3))))
                argv = ["table", "--rack", rack, "--links", str(links),
                        "--kind", kind]
                if kind != "writhe" and rng.random() < 0.5:
                    argv.append("--weak-order")
            if rng.random() < 0.3:
                argv = ["--cache-dir", str(tmp_path / "cache")] + argv
            call(argv)
        assert bad == []


def fuzzed_value(rng, depth=0):
    """A small JSON value of any type."""
    kinds = ["int", "float", "bool", "null", "str", "list", "dict"]
    kind = rng.choice(kinds if depth < 2 else kinds[:5])
    if kind == "int":
        return rng.randint(-3, 9)
    if kind == "float":
        return rng.choice([0.5, 2.0, 4.9, -1.5])
    if kind == "bool":
        return rng.random() < 0.5
    if kind == "null":
        return None
    if kind == "str":
        return rng.choice(["", "x", "3", "linear"])
    if kind == "list":
        return [fuzzed_value(rng, depth + 1) for _ in range(rng.randint(0, 3))]
    return {"type": fuzzed_value(rng, depth + 1)}


def fuzzed_spec(rng):
    """A valid linear, quotient or module spec of order at most 16, with
    up to three of its fields, rows or entries replaced by fuzzed values
    or dropped."""
    kind = rng.choice(["linear", "quotient", "module"])
    if kind == "linear":
        spec = {"n": rng.randint(2, 9), "t": rng.randint(-2, 9),
                "s": rng.randint(-2, 9)}
    elif kind == "quotient":
        spec = {"n": rng.randint(2, 3),
                "p": [rng.randint(0, 2)] + [0] * rng.randint(0, 1) + [1]}
    else:
        moduli = [rng.randint(2, 4) for _ in range(rng.randint(1, 2))]
        spec = {"moduli": moduli}
        for f in "ts":
            spec[f] = [[rng.randint(0, 3) for _ in moduli] for _ in moduli]
    spec["type"] = kind
    for _ in range(rng.randint(0, 3)):
        field = rng.choice(sorted(spec))
        target, key = spec, field
        while isinstance(target[key], list) and target[key] and \
                rng.random() < 0.6:
            target, key = target[key], rng.randrange(len(target[key]))
        if rng.random() < 0.2 and isinstance(target, dict):
            del target[key]
        else:
            target[key] = fuzzed_value(rng)
    return spec


LINK_TOKENS = ["0", "-1", "2", "7", "99", "x", "", " ", "X[", "]", ",",
               ";", ":", "pd", "braid", "unknots", "X+[1,2,3,4]", "-"]


def fuzzed_link(rng):
    """A corpus link spec or a small braid or unknot spec, with up to
    three of its tokens or separators replaced, dropped or joined by
    one of LINK_TOKENS."""
    base = rng.choice(list(load_corpus_specs().values()) + [
        "braid: 3: 1 -2 1", "unknots: 2", "braid: 2: 1 1; unknots: 1"])
    tokens = re.split(r"([\s,:;\[\]]+)", base)
    for _ in range(rng.randint(0, 3)):
        i, roll = rng.randrange(len(tokens)), rng.random()
        if roll < 0.4:
            tokens[i] = rng.choice(LINK_TOKENS)
        elif roll < 0.7:
            del tokens[i]
        else:
            tokens.insert(i, rng.choice(LINK_TOKENS))
        tokens = tokens or [""]
    return "".join(tokens)


class TestUnreadableFiles:
    """A named file that cannot be read is a parse error (exit 2)."""

    @pytest.fixture
    def paths(self, tmp_path):
        binary = tmp_path / "binary"
        binary.write_bytes(b"\x81\xff\xfe\x00")
        return {"missing": str(tmp_path / "missing.txt"),
                "binary": str(binary), "directory": str(tmp_path)}

    @pytest.mark.parametrize("which", ["missing", "binary", "directory"])
    def test_table_links(self, paths, capsys, which):
        code, out, err = run(capsys, "table", "--rack", Z4_SPEC,
                             "--links", paths[which])
        assert code == 2
        assert out == "" and err.startswith("parse error: cannot read ")

    @pytest.mark.parametrize("which", ["missing", "binary", "directory"])
    def test_rack(self, paths, capsys, which):
        code, _, err = run(capsys, "validate-rack", "--rack", paths[which])
        assert code == 2
        assert err.startswith("parse error: cannot read ")

    @pytest.mark.parametrize("which", ["binary", "directory"])
    def test_link(self, paths, capsys, which):
        code, _, err = run(capsys, "invariant", "--rack", Z4_SPEC,
                           "--link", paths[which])
        assert code == 2
        assert err.startswith("parse error: cannot read ")
