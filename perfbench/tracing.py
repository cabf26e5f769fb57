"""Spans and counters recorded around the public functions of tsracks.

The tracer replaces a function with a wrapper in every tsracks module
namespace that holds it, which is where its callers look it up, so the
program's own files stay untouched.  Each call records a span (name,
start, end, parent) in memory.  A span's parent is the innermost open
span of the same thread; for a span started on a worker thread with no
open span of its own, it is the innermost open span of the thread that
runs the benchmark operation.

A layer's self time is the processor time its spans' threads spent in
them, minus the part spent in their child spans on the same thread.
Processor time rather than wall time keeps worker threads that wait for
the interpreter lock from counting each other's work.
"""

import sys
import threading
import time
from collections import Counter

OP_SPAN = "bench.op"


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index]
        self.self_s = Counter()  # name -> processor time net of children
        self.counts = Counter()
        self.maxima = Counter()
        self.op_counts = []  # one Counter per operation
        self.label_sets = set()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._op = None
        self._op_stack = []

    # -- spans --------------------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        elif self._op_stack:
            parent = self._op_stack[-1][0]
        else:
            parent = None
        with self._lock:
            index = len(self.spans)
            self.spans.append([name, time.perf_counter(), None, parent])
        # [span index, processor time at start, children's processor time]
        stack.append([index, time.thread_time(), 0.0])
        return index

    def _close(self, index):
        now = time.thread_time()
        self.spans[index][2] = time.perf_counter()
        stack = self._stack()
        _, start, children = stack.pop()
        total = now - start
        with self._lock:
            self.self_s[self.spans[index][0]] += total - children
        if stack:
            stack[-1][2] += total

    def parent_name(self):
        """Name of the innermost open span of this thread, or None."""
        stack = self._stack()
        return self.spans[stack[-1][0]][0] if stack else None

    def begin_op(self):
        self._op_stack = self._stack()
        self._op = self._open(OP_SPAN)
        self.op_counts.append(Counter())
        self.label_sets = set()

    def end_op(self):
        self.count("invariants.label_sets_distinct", len(self.label_sets))
        self._close(self._op)
        self._op = None

    def count(self, name, n=1):
        with self._lock:
            self.counts[name] += n
            if self.op_counts:
                self.op_counts[-1][name] += n

    def note_max(self, name, value):
        with self._lock:
            self.maxima[name] = max(self.maxima[name], value)

    def note_label_set(self, labels):
        with self._lock:
            self.label_sets.add(frozenset(labels))

    # -- wrapping -----------------------------------------------------------

    def wrap(self, fn, name, after=None):
        def traced(*args, **kwargs):
            index = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(index)
            with self._lock:
                self.counts[name + ".calls"] += 1
            if after is not None:
                after(self, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def wrap_generator(self, fn, counter):
        def counted(*args, **kwargs):
            for item in fn(*args, **kwargs):
                self.count(counter)
                yield item

        counted.__wrapped__ = fn
        return counted

    # -- results ------------------------------------------------------------

    def dump(self):
        """Spans as [name, start, end, parent] rows, times relative to the
        first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        return [[n, round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in self.spans if e is not None]


def replace_everywhere(old, new):
    """Point every tsracks module attribute holding ``old`` at ``new``."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == "tsracks"
                                  or mod_name.startswith("tsracks.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is old:
                setattr(module, attr, new)


def _after_homs(tracer, result, args):
    tracer.count("invariants.labelings", len(result))
    tracer.note_max("invariants.labelings_max_per_call", len(result))


def _after_image(tracer, result, args):
    tracer.note_label_set(args[1])


def _after_framings(tracer, result, args):
    tracer.count("diagrams.framings", len(result))


def _after_build(tracer, result, args):
    if tracer.parent_name() != "modules.build":
        tracer.count("modules.build.elements", result.order)


def _after_lookup(tracer, result, args):
    tracer.count("cli.cache_hits" if result is not None else "cli.cache_misses")


# (module, attribute, span name, counter hook)
TRACED = [
    ("tsracks.invariants", "enumerate_homs", "invariants.enumerate_homs",
     _after_homs),
    ("tsracks.invariants", "image_subrack", "invariants.image_subrack",
     _after_image),
    ("tsracks.invariants", "s_enhanced", "invariants.s_enhanced", None),
    ("tsracks.groups", "subgroup_closure", "groups.subgroup_closure", None),
    ("tsracks.groups", "invariant_factors", "groups.invariant_factors", None),
    ("tsracks.polynomials", "order_compare", "polynomials.order_compare",
     None),
    ("tsracks.diagrams", "framed_family", "diagrams.framed_family",
     _after_framings),
    ("tsracks.diagrams", "parse_link", "diagrams.parse_link", None),
    ("tsracks.atlas", "load_corpus", "atlas.load_corpus", None),
    ("tsracks.modules", "tsrack_from_spec", "modules.build", _after_build),
    ("tsracks.modules", "make_linear", "modules.build", _after_build),
    ("tsracks.modules", "make_quotient", "modules.build", _after_build),
    ("tsracks.modules", "make_module", "modules.build", _after_build),
    ("tsracks.modules", "tsrack_iso_check", "modules.tsrack_iso_check", None),
    ("tsracks.modules", "s_submodule", "modules.s_submodule", None),
    ("tsracks.racks", "find_isomorphism", "racks.find_isomorphism", None),
    ("tsracks.cli", "main", "cli.main", None),
    ("tsracks.cli", "cache_lookup", "cli.cache_lookup", _after_lookup),
    ("tsracks.cli", "cache_store", "cli.cache_store", None),
]


def install(tracer):
    """Wrap every traced function of the imported tsracks modules."""
    import importlib

    for mod_name, attr, span, after in TRACED:
        module = importlib.import_module(mod_name)
        original = getattr(module, attr)
        replace_everywhere(original, tracer.wrap(original, span, after))
    modules = importlib.import_module("tsracks.modules")
    original = modules.all_module_isos
    replace_everywhere(original, tracer.wrap_generator(
        original, "modules.module_isos_tried"))
    polynomials = importlib.import_module("tsracks.polynomials")
    cls = polynomials.InvariantPolynomial
    cls.__add__ = tracer.wrap(cls.__add__, "polynomials.add")
