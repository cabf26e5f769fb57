"""The four workloads: inputs, operations and output checks.

A workload's ``setup`` is timed and uses only the program; ``expect``
computes the expected outputs with ``oracles`` and is not timed.  Each
operation is a callable; ``check`` returns None when its result is right
and a message otherwise.  Every pass runs the same operations, in an
order drawn from the seed.
"""

import contextlib
import io
import json
import os
import random
import re
import shutil
from functools import partial
from types import SimpleNamespace

from . import oracles

Z12 = {"type": "linear", "n": 12, "t": 11, "s": 2}
Q16 = {"type": "quotient", "n": 2, "p": [1, 0, 1]}
R4 = {"type": "linear", "n": 4, "t": 3, "s": 2}


def corpus_specs(root):
    """name -> spec read straight from the shipped corpus file."""
    path = os.path.join(root, "src", "tsracks", "data", "links.txt")
    out = {}
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if line and not line.startswith("#"):
                name, _, spec = line.partition(" ")
                out[name] = spec.strip()
    return out


FOX_12 = {"3_1": 36, "4_1": 12, "8_18": 108, "L6a4": 192}


def _require(ok, message):
    if not ok:
        raise oracles.OracleError("self-check: " + message)


class Workload:
    """One workload.  Subclasses define ``setup(ts)`` (timed, uses only the
    program), ``expect()`` and ``self_check()`` (oracles, not timed),
    ``operations()`` (one pass of (key, callable) in a seeded order),
    ``check(key, result)`` (None, or a message when the result is wrong)
    and ``confirm(layer, op_counts, keys)`` ([(statement, holds)] about
    what the traced run stressed)."""

    passes_per_10s = 1

    def __init__(self, root, seed):
        self.root = root
        self.seed = seed
        self.rng = random.Random(seed)

    def close(self):
        pass


# -- count-z12 ----------------------------------------------------------------


class CountZ12(Workload):
    """counting_invariant of every corpus entry with Z12."""

    name = "count-z12"

    def setup(self, ts):
        self.ts = ts
        self.diagrams = ts.atlas.load_corpus()
        self.rack = ts.modules.tsrack_from_spec(Z12)

    def expect(self):
        # Z12 = linear(12, 11, 2) is the dihedral quandle R12: x > y =
        # 2y - x with rack rank 1, so one framing and Fox colourings
        self.expected = {
            name: oracles.fox_colourings(oracles.pd_crossings(spec), 12)
            for name, spec in corpus_specs(self.root).items()}

    def self_check(self):
        # H1 of the double branched covers: Z3, Z5, Z3+Z15, Z4+Z4
        for name, value in FOX_12.items():
            _require(self.expected[name] == value,
                     "Fox 12-colourings of %s: %d, not %d"
                     % (name, self.expected[name], value))
            _require(self.check(name, value) is None
                     and self.check(name, value + 1) is not None,
                     "count check does not reject %s = %d" % (name, value + 1))
        _require(set(self.expected) == set(self.diagrams),
                 "the program's corpus differs from the corpus file")

    def operations(self):
        names = sorted(self.diagrams)
        self.rng.shuffle(names)
        count = self.ts.invariants.counting_invariant
        return [(n, partial(count, self.diagrams[n], self.rack))
                for n in names]

    def check(self, key, result):
        if result != self.expected[key]:
            return "%s: count %r, Fox colourings %d" % (
                key, result, self.expected[key])
        return None

    def confirm(self, layer, op_counts, keys):
        homs = layer["invariants.enumerate_homs.self_s"]
        return [
            ("invariants.enumerate_homs.self_s is most of the operation time",
             homs > 0.5 * layer["bench.op_s"]),
            ("invariants.image_subrack.calls is 0",
             layer["invariants.image_subrack.calls"] == 0),
        ]


# -- additive-q16 ---------------------------------------------------------------

ADDITIVE_ENTRIES = ["3_1", "4_1", "5_1", "5_2", "6_1", "6_2", "6_3", "7_4",
                    "7_6", "7_7", "8_8", "8_18", "L2a1", "L4a1", "L6a1"]
# entries also recomputed by exhaustive search over arc labels
ADDITIVE_EXACT = ["3_1", "4_1", "L2a1", "L4a1"]


class AdditiveQ16(Workload):
    """additive_enhanced with Q16 on a fixed corpus subset."""

    name = "additive-q16"
    passes_per_10s = 3

    def setup(self, ts):
        self.ts = ts
        corpus = ts.atlas.load_corpus()
        self.diagrams = {n: corpus[n] for n in ADDITIVE_ENTRIES}
        self.rack = ts.modules.tsrack_from_spec(Q16)

    def expect(self):
        specs = corpus_specs(self.root)
        rack = oracles.ModuleRack.from_spec(Q16)
        self.order = rack.order
        self.components = {n: oracles.component_count(specs[n])
                           for n in ADDITIVE_ENTRIES}
        self.exact = {n: oracles.additive_by_search(specs[n], rack)
                      for n in ADDITIVE_EXACT}

    def operations(self):
        names = list(ADDITIVE_ENTRIES)
        self.rng.shuffle(names)
        additive = self.ts.invariants.additive_enhanced
        return [(n, partial(additive, self.diagrams[n], self.rack))
                for n in names]

    def check(self, key, result):
        poly, multiset = result
        terms = {}
        for u, q, c in poly.terms():
            if q:
                return "%s: term with q exponents %r" % (key, q)
            terms[u] = c
        if any(self.order % e for e in terms):
            return "%s: exponent not dividing %d in %s" % (
                key, self.order, poly)
        if sum(terms.values()) != multiset.total():
            return "%s: value at u = 1 is %d, multiset total %d" % (
                key, sum(terms.values()), multiset.total())
        want_u1 = 4 ** self.components[key]
        if terms.get(1) != want_u1:
            return "%s: u coefficient %r, want 4^c = %d" % (
                key, terms.get(1), want_u1)
        by_order = {}
        for factors, count in multiset.counts().items():
            size = 1
            for f in factors:
                size *= f
            by_order[size] = by_order.get(size, 0) + count
        if by_order != terms:
            return "%s: multiset subgroup orders %r disagree with %s" % (
                key, by_order, poly)
        if key in self.exact and terms != self.exact[key]:
            return "%s: %s, exhaustive search gives %r" % (
                key, poly, sorted(self.exact[key].items()))
        return None

    def self_check(self):
        for name in ADDITIVE_EXACT:
            terms = self.exact[name]
            _require(self.check(name, _fake_additive(terms)) is None,
                     "additive check rejects the search result for %s" % name)
            # one labeling moved between the two largest subgroup orders
            # keeps every method property; only the search catches it
            second, top = sorted(terms)[-2:]
            moved = dict(terms)
            moved[top] -= 1
            moved[second] += 1
            for bad in (_fake_additive(moved),
                        _fake_additive(terms, total_shift=-1)):
                _require(self.check(name, bad) is not None,
                         "additive check accepts a wrong %s" % name)

    def confirm(self, layer, op_counts, keys):
        return [("invariants.labelings_per_label_set is above 1",
                 layer["invariants.labelings_per_label_set"] > 1)]


def _fake_additive(terms, total_shift=0):
    """(poly, multiset) stand-in with the accessors the check reads; the
    multiset holds one factor tuple per subgroup order."""
    poly = SimpleNamespace(
        terms=lambda: [(u, (), c) for u, c in sorted(terms.items())])
    counts = {(u,) if u > 1 else (): c for u, c in terms.items()}
    multiset = SimpleNamespace(
        total=lambda: sum(terms.values()) + total_shift,
        counts=lambda: counts)
    return poly, multiset


# -- rack-iso -----------------------------------------------------------------------


def _linear(n, t, s):
    return {"type": "linear", "n": n, "t": t, "s": s}


def _quotient(n, p):
    return {"type": "quotient", "n": n, "p": p}


def _alexander(n, p):
    """Module spec with t the companion matrix of p and s = 1 - t."""
    t = oracles.companion(n, p)
    s = [[(int(i == j) - v) % n for j, v in enumerate(row)]
         for i, row in enumerate(t)]
    return {"type": "module", "moduli": [n] * len(t), "t": t, "s": s}


def _square_module(n):
    """Z_n + Z_n with t = [[0, -1], [1, 0]] and s = 1 - t."""
    return {"type": "module", "moduli": [n, n],
            "t": [[0, n - 1], [1, 0]], "s": [[1, 1], [n - 1, 1]]}


BUILD_SPECS = [
    _linear(256, 255, 2), _linear(1024, 1023, 2),
    _quotient(2, [1, 0, 0, 1, 1]), _quotient(2, [1, 0, 0, 0, 0, 1]),
    _square_module(16), _square_module(32),
]
# builds per pass of each spec above.  The tail, the eleventh-slowest
# operation, then falls among the twelve builds of order 256 (0.4-0.9 s
# each), below the three of order 1024 and the s = 0 look-alike.  Were it
# a decision of about 100 ms, a slow stretch of the machine that caught
# four of the slowest decisions would lift it by up to 1.7x.
BUILD_REPEATS = [4, 1, 4, 1, 4, 1]

# The pair list is chosen so that the decision times spread evenly, on a
# log scale, from a few ms to about 100 ms, with no large group of equal
# cost.  The speed of the reference machine switches between two levels
# about 1.4x apart, in streaks of seconds; the median of a group of
# equal-cost operations jumps with it from run to run, while the median
# of an even spread moves only as much as the run's mean speed.

# isomorphic pairs: each base against itself in a seeded random basis
REBASED_BASES = [
    _quotient(2, [1, 0, 1]), _quotient(2, [1, 1, 1]), _quotient(3, [1, 1]),
    _quotient(5, [2, 1]), _alexander(2, [1, 0, 0, 0, 1]), _alexander(2, [1, 0, 1, 1, 1]),
    _alexander(3, [1, 0, 1]),
]
# s = 0 racks are permutation racks: isomorphic exactly when the cycle
# types of t agree
S0_ISO = [(_linear(8, 3, 0), _linear(8, 7, 0)),
          (_linear(9, 2, 0), _linear(9, 5, 0))]
# non-isomorphic look-alikes with equal order, rack rank and |sX|, as
# written (a seeded basis would make their cost, and so the figures,
# depend on the seed)
S0_PAIR = (_linear(8, 3, 0), _linear(8, 5, 0))
_A2 = [(_alexander(2, a), _alexander(2, b)) for a, b in [
    ([1, 0, 0, 0, 1], [1, 0, 1, 1, 1]),
    ([1, 1, 0, 1, 1], [1, 1, 1, 0, 1]),
]]
# Alexander quandles on Z_p (s = 1 - t) for t a primitive root g and for
# g^2: the orders of t differ, so do the cycle types of y -> y > x.  The
# decision time grows about as p^2, from 6 ms at p = 17 to 100 ms at 67.
PRIME_PAIRS = [(17, 3, 9), (19, 2, 4), (23, 5, 2), (29, 2, 4), (31, 3, 9),
               (37, 2, 4), (41, 6, 36), (43, 3, 9), (47, 5, 25),
               (53, 2, 4), (59, 2, 4), (61, 2, 4), (67, 2, 4)]
NON_ISO = (
    [S0_PAIR]
    + [(_linear(12, a, 6), _linear(12, b, 6))
       for a, b in [(1, 5), (1, 11), (5, 11), (5, 1), (11, 1), (11, 5)]]
    + [(_linear(16, 1, a), _linear(16, 9, b))
       for a, b in [(4, 4), (4, 12), (12, 4), (12, 12)]]
    + _A2
    + [(_alexander(3, [1, 0, 1]), _alexander(3, [2, 1, 1]))]
    + [(_linear(p, a, (1 - a) % p), _linear(p, b, (1 - b) % p))
       for p, a, b in PRIME_PAIRS])
# decided by find_isomorphism on the exported operation matrices:
# (group, index into that group's pair list)
MATRIX_PAIRS = [("rebased", 0), ("rebased", 2), ("non", NON_ISO.index(_A2[0]))]


# each decision but the s = 0 look-alike is made this often per pass, so
# that the median rests on many samples
DECISION_REPEATS = 4


class RackIso(Workload):
    """Rack construction and the isomorphism criterion."""

    name = "rack-iso"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        rebased = [(b, oracles.rebased_spec(b, self.rng))
                   for b in REBASED_BASES]
        self.pairs = ([(x, y, True) for x, y in rebased + S0_ISO]
                      + [(x, y, False) for x, y in NON_ISO])
        groups = {"rebased": rebased, "non": NON_ISO}
        self.matrix_pairs = [groups[g][i] + (g == "rebased",)
                             for g, i in MATRIX_PAIRS]
        self.spec_texts = [json.dumps(s) for s in BUILD_SPECS] + [
            json.dumps([x, y]) for x, y, _ in self.pairs + self.matrix_pairs]

    def setup(self, ts):
        self.ts = ts
        build = ts.modules.tsrack_from_spec
        texts = [json.loads(t) for t in self.spec_texts]
        self.build_specs = texts[:len(BUILD_SPECS)]
        self.racks = [(build(x), build(y))
                      for x, y in texts[len(BUILD_SPECS):]]

    def expect(self):
        pairs = self.pairs + self.matrix_pairs
        self.oracle_racks = [
            (oracles.ModuleRack.from_spec(x), oracles.ModuleRack.from_spec(y))
            for x, y, _ in pairs]
        self.profiles = [(oracles.rack_profile(x), oracles.rack_profile(y))
                         for x, y in self.oracle_racks]
        for (x, y, iso), (px, py) in zip(pairs, self.profiles):
            if iso != (px == py):
                raise oracles.OracleError(
                    "rack profiles do not %s %r and %r"
                    % ("match on" if iso else "separate", x, y))

    def operations(self):
        ops = []
        for spec, repeats in zip(self.build_specs, BUILD_REPEATS):
            ops += [(("build", spec),
                     partial(self.ts.modules.tsrack_from_spec, spec))
                    ] * repeats
        n_pairs = len(self.pairs)
        for i, (x, y) in enumerate(self.racks):
            if i < n_pairs:
                op = (("criterion", i),
                      partial(self.ts.modules.tsrack_iso_check, x, y))
            else:
                op = (("matrix", i), partial(self._matrix_iso, x, y))
            # the s = 0 look-alike costs more than all other decisions
            # together, so it is decided once
            once = i < n_pairs and self.pairs[i][:2] == S0_PAIR
            ops += [op] * (1 if once else DECISION_REPEATS)
        self.rng.shuffle(ops)
        return ops

    def _matrix_iso(self, x, y):
        fx, fy = x.to_finite_rack(), y.to_finite_rack()
        return fx, fy, self.ts.racks.find_isomorphism(fx, fy)

    def check(self, key, result):
        kind, arg = key
        if kind == "build":
            if result.order != oracles.spec_order(arg):
                return "%r built with order %d" % (arg, result.order)
            return None
        x, y, iso = (self.pairs + self.matrix_pairs)[arg]
        ox, oy = self.oracle_racks[arg]
        if kind == "matrix":
            fx, fy, found = result
            if ([list(r) for r in fx.op_matrix] != oracles.operation_matrix(ox)
                    or [list(r) for r in fy.op_matrix]
                    != oracles.operation_matrix(oy)):
                return "exported matrix of %r or %r is not its rack" % (x, y)
            if found is not None and not oracles.check_matrix_isomorphism(
                    found, ox, oy):
                return "find_isomorphism witness for %r, %r fails" % (x, y)
        else:
            found = result
            if found is not None and not oracles.check_certificate(
                    found.phi, ox, oy):
                return "certificate for %r, %r is not an isomorphism" % (x, y)
        if (found is not None) != iso:
            return "%r, %r decided %s" % (
                x, y, "isomorphic" if found is not None else "not isomorphic")
        return None

    def self_check(self):
        ox = self.oracle_racks[0][0]
        identity = {x: x for x in ox.elements}
        swapped = dict(identity)
        a, b = ox.elements[1], ox.elements[2]
        swapped[a], swapped[b] = b, a
        _require(oracles.check_certificate(identity, ox, ox)
                 and not oracles.check_certificate(swapped, ox, ox),
                 "certificate check does not reject two swapped images")
        cert = SimpleNamespace(phi=identity)
        first_non_iso = next(i for i, p in enumerate(self.pairs) if not p[2])
        _require(self.check(("criterion", first_non_iso), cert) is not None,
                 "a certificate for a non-isomorphic pair is accepted")
        _require(self.check(("criterion", 0), None) is not None,
                 "an isomorphic pair decided not isomorphic is accepted")
        wrong = SimpleNamespace(order=255)
        _require(self.check(("build", BUILD_SPECS[0]), wrong) is not None,
                 "a rack of the wrong order is accepted")

    def confirm(self, layer, op_counts, keys):
        return [("invariants.enumerate_homs.calls is 0",
                 layer["invariants.enumerate_homs.calls"] == 0)]


# -- cli-table ------------------------------------------------------------------------

WARM_PER_COLD = 4
COLD_PER_PASS = 40
_ROW = re.compile(r"^(.*?) \| (.*)$")
_ORDER = re.compile(r"^  \{(.*)\} vs \{(.*)\}: (\w+)$")


class CliTable(Workload):
    """In-process `tsracks table --kind s-enh --weak-order` with R4, cold
    and warm cache."""

    name = "cli-table"

    def __init__(self, root, seed):
        super().__init__(root, seed)
        self.work = os.path.join(root, ".bench_run",
                                 "%s-%d" % (self.name, os.getpid()))
        self.cold_count = 0
        self.reference = None  # (stdout, {file: bytes}) of the first cold run

    def setup(self, ts):
        import tsracks.cli

        self.cli = tsracks.cli
        specs = ts.atlas.load_corpus_specs()
        names = sorted(specs)
        # the same order on every set-up of the run
        random.Random(self.seed).shuffle(names)
        os.makedirs(self.work, exist_ok=True)
        self.links = os.path.join(self.work, "links.txt")
        with open(self.links, "w") as fh:
            fh.writelines("%s %s\n" % (n, specs[n]) for n in names)
        self.names = set(names)

    def expect(self):
        specs = corpus_specs(self.root)
        self.fox = {n: oracles.fox_colourings(oracles.pd_crossings(s), 4)
                    for n, s in specs.items()}
        self.name_of = {s: n for n, s in specs.items()}

    def operations(self):
        ops = []
        for _ in range(COLD_PER_PASS):
            self.cold_count += 1
            cache = os.path.join(self.work, "cache-%d" % self.cold_count)
            ops.append((("cold", cache), partial(self._invoke, cache)))
            ops += [(("warm", cache), partial(self._invoke, cache))
                    ] * WARM_PER_COLD
        return ops

    def _invoke(self, cache):
        argv = ["--cache-dir", cache, "table", "--rack",
                json.dumps(R4), "--links", self.links, "--kind", "s-enh",
                "--weak-order"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def check(self, key, result):
        kind, cache = key
        code, out, err = result
        if code != 0 or err:
            return "%s invocation exited %r: %s" % (kind, code, err.strip())
        if kind == "warm":
            if out != self.last_cold_out:
                return "warm output differs from cold output"
            return None
        records = {}
        for fname in sorted(os.listdir(cache)):
            with open(os.path.join(cache, fname), "rb") as fh:
                records[fname] = fh.read()
        message = self._check_cold(out, records)
        if self.reference is None:
            self.reference = (out, records)
        elif (out, records) != self.reference:
            message = message or "cold output or cached records differ " \
                                 "between cold invocations"
        previous = os.path.join(self.work, "cache-%d" % (
            int(cache.rsplit("-", 1)[1]) - 1))
        shutil.rmtree(previous, ignore_errors=True)
        self.last_cold_out = out
        return message

    def _check_cold(self, out, records):
        rows, orders = {}, []
        table, _, footer = out.partition("\n\n")
        for line in table.splitlines():
            m = _ROW.match(line)
            if not m:
                return "unreadable row %r" % line
            rows[m.group(1).strip()] = m.group(2).split(", ")
        seen = [n for names in rows.values() for n in names]
        if sorted(seen) != sorted(self.names):
            return "entries do not appear in exactly one row each"
        if len(records) != len(self.names):
            return "%d cached records for %d entries" % (
                len(records), len(self.names))
        value_of = {n: v for v, names in rows.items() for n in names}
        for fname, data in records.items():
            record = json.loads(data)
            name = self.name_of.get(record["link_spec"])
            if name is None:
                return "record %s for an unknown link" % fname
            total = sum(c * u for c, u, _ in record["polynomial"])
            if not total == record["counting_value"] == self.fox[name]:
                return "%s: s-polynomial sum %d, counting value %d, Fox " \
                       "colourings %d" % (name, total,
                                          record["counting_value"],
                                          self.fox[name])
            if value_of[name] != record["polynomial_text"]:
                return "%s: row value differs from its record" % name
        polys = {v: oracles.parse_u_text(v) for v in rows}
        for line in footer.splitlines()[1:]:
            m = _ORDER.match(line)
            if not m:
                return "unreadable ordering line %r" % line
            a, b = (next(v for v, names in rows.items()
                         if ", ".join(sorted(names)) == g)
                    for g in m.group(1, 2))
            orders.append(line)
            if oracles.weak_order(polys[a], polys[b]) != m.group(3):
                return "ordering %r disagrees with the coefficients" % line
        if len(orders) != len(rows) * (len(rows) - 1) // 2:
            return "%d ordering lines for %d rows" % (len(orders), len(rows))
        return None

    def self_check(self):
        specs = {n: s for s, n in self.name_of.items()}
        records = {}
        for name in sorted(self.names):
            text = "%du" % self.fox[name]
            records[name + ".json"] = json.dumps({
                "link_spec": specs[name], "counting_value": self.fox[name],
                "polynomial": [[self.fox[name], 1, []]],
                "polynomial_text": text}).encode()
        rows = {}
        for name in self.names:
            rows.setdefault("%du" % self.fox[name], []).append(name)
        rows = sorted(rows.items(), key=lambda kv: sorted(kv[1]))
        lines = ["%s | %s" % (v, ", ".join(sorted(n))) for v, n in rows]
        lines += ["", "ordering obstructions (weak reading):"]
        for i, (va, na) in enumerate(rows):
            for vb, nb in rows[i + 1:]:
                rel = oracles.weak_order(oracles.parse_u_text(va),
                                         oracles.parse_u_text(vb))
                lines.append("  {%s} vs {%s}: %s" % (
                    ", ".join(sorted(na)), ", ".join(sorted(nb)), rel))
        out = "\n".join(lines) + "\n"
        _require(self._check_cold(out, records) is None,
                 "table check rejects a consistent table")
        name = sorted(self.names)[0]
        bad = json.loads(records[name + ".json"])
        bad["counting_value"] += 1
        _require(self._check_cold(out, dict(records, **{
            name + ".json": json.dumps(bad).encode()})) is not None,
                 "table check accepts a counting value off by one")
        flipped = out.replace(": less", ": greater", 1)
        _require(flipped != out and self._check_cold(flipped, records)
                 is not None, "table check accepts a wrong ordering line")

    def confirm(self, layer, op_counts, keys):
        warm = [c for c, (kind, _) in zip(op_counts, keys) if kind == "warm"]
        return [("cli.cache_hits equals the entry count on every warm "
                 "operation",
                 bool(warm) and all(c["cli.cache_hits"] == len(self.names)
                                    for c in warm))]

    def close(self):
        shutil.rmtree(self.work, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(os.path.dirname(self.work))


WORKLOADS = {w.name: w for w in (CountZ12, AdditiveQ16, RackIso, CliTable)}
