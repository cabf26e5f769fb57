"""Shipped diagram corpus: prime knots to 8 crossings and prime links to
7 crossings, by their usual table names, as PD codes in data/links.txt.

The data file holds one named link spec per line ("name  spec"); blank
lines and #-comments are skipped.  Loading is a file parse, nothing is
fetched.
"""

from importlib import resources

from .diagrams import parse_link
from .errors import ParseError


def corpus_path():
    return resources.files(__package__).joinpath("data/links.txt")


def load_corpus_specs():
    """Ordered dict name -> link spec string."""
    text = corpus_path().read_text()
    out = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        name, _, spec = line.partition(" ")
        spec = spec.strip()
        if not name or not spec:
            raise ParseError("line %d: expected 'name spec'" % lineno)
        if name in out:
            raise ParseError("line %d: duplicate name %s" % (lineno, name))
        out[name] = spec
    return out


def load_corpus():
    """Ordered dict name -> LinkDiagram."""
    return {name: parse_link(spec)
            for name, spec in load_corpus_specs().items()}
