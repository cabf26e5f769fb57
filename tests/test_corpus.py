"""tools/make_corpus.py rebuilds the shipped corpus: every entry passes its
validation and exports the PD code in src/tsracks/data/links.txt.  The
tool's build and checks run in process; nothing is written."""

import importlib.util
from pathlib import Path

from tsracks.atlas import load_corpus_specs
from tsracks.diagrams import pd_code

TOOL = Path(__file__).resolve().parent.parent / "tools" / "make_corpus.py"


def load_tool():
    spec = importlib.util.spec_from_file_location("make_corpus", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_corpus_regenerates():
    entries = load_tool().build_entries()
    problems = {e.name: e.validate() for e in entries}
    assert {name: p for name, p in problems.items() if p} == {}
    shipped = load_corpus_specs()
    built = {e.name: pd_code(e.diagram) for e in entries
             if not e.name.endswith("_check")}
    assert built == shipped
