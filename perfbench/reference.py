#!/usr/bin/env python3
"""Reference figures for perfbench/README.md: the full-corpus workloads of
the ROADMAP baseline table and a few single timings, measured once and
not gated.  Takes about 15 minutes of one core.

    python3 perfbench/reference.py
"""

import os
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def timed(fn, *args, **kwargs):
    start = time.perf_counter()
    fn(*args, **kwargs)
    return time.perf_counter() - start


def corpus_row(label, fn, corpus, rack, **kwargs):
    times = {name: timed(fn, d, rack, **kwargs) for name, d in corpus.items()}
    worst = max(times, key=times.get)
    print("| %s | %.1fs | %s, %.2fs |" % (label, sum(times.values()), worst,
                                         times[worst]), flush=True)


def main():
    sys.path.insert(0, SRC)
    import tsracks
    from tsracks import invariants

    corpus = tsracks.load_corpus()
    z12 = tsracks.make_linear(12, 11, 2)
    r4 = tsracks.make_linear(4, 3, 2)
    q16 = tsracks.make_quotient(2, [1, 0, 1])
    print("| Workload (full corpus, %d entries) | Total | Worst link |"
          % len(corpus))
    print("|---|---|---|")
    corpus_row("count, Z12", invariants.counting_invariant, corpus, z12)
    corpus_row("additive, Z12", invariants.additive_enhanced, corpus, z12)
    corpus_row("additive, Z12, `use_linear_path=True`",
               invariants.additive_enhanced, corpus, z12,
               use_linear_path=True)
    corpus_row("s-enh, R4", invariants.s_enhanced, corpus, r4)
    corpus_row("additive, Q16", invariants.additive_enhanced, corpus, q16)
    corpus_row("writhe, Q16", invariants.writhe_enhanced, corpus, q16)

    env = dict(os.environ, PYTHONPATH=SRC)
    links = os.path.join(SRC, "tsracks", "data", "links.txt")
    for label, argv in [
        ("CLI cold start (`validate-rack` on R4)",
         ["validate-rack", "--rack", '{"type":"linear","n":4,"t":3,"s":2}']),
        ("`tsracks table` (additive, Z12), no cache",
         ["table", "--rack", '{"type":"linear","n":12,"t":11,"s":2}',
          "--links", links, "--kind", "additive"]),
    ]:
        start = time.perf_counter()
        subprocess.run([sys.executable, "-m", "tsracks.cli"] + argv, env=env,
                       check=True, stdout=subprocess.DEVNULL)
        print("| %s | %.2fs wall |" % (label, time.perf_counter() - start),
              flush=True)
    print("| `make_linear(1024, 1023, 2)` | %.1fs |"
          % timed(tsracks.make_linear, 1024, 1023, 2), flush=True)
    print("| `make_quotient(2, [1, 0, 0, 0, 0, 1])` | %.1fs |"
          % timed(tsracks.make_quotient, 2, [1, 0, 0, 0, 0, 1]), flush=True)


if __name__ == "__main__":
    main()
