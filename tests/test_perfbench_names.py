"""The benchmark in perfbench/ wraps and calls tsracks functions by name.

A deletion that removes one of them breaks the traced benchmark run, not
the rest of the suite, so check here that every name it relies on still
resolves.
"""

import importlib
import inspect
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench.tracing import TRACED  # noqa: E402


def test_traced_names_resolve():
    for mod_name, attr, _, _ in TRACED:
        module = importlib.import_module(mod_name)
        assert callable(getattr(module, attr, None)), (mod_name, attr)


def test_other_wrapped_names_resolve():
    from tsracks.modules import all_module_isos
    from tsracks.polynomials import InvariantPolynomial

    assert inspect.isgeneratorfunction(all_module_isos)
    assert callable(InvariantPolynomial.__add__)


def test_reference_options_kept():
    from tsracks.invariants import EnhancedMultiset, additive_enhanced

    assert "use_linear_path" in inspect.signature(additive_enhanced).parameters
    assert callable(EnhancedMultiset.counts)
    assert callable(EnhancedMultiset.total)
