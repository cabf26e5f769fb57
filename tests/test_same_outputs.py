"""The same outputs as before, for eight racks over the whole corpus.

tools/same_outputs.py dumps every invariant of every corpus entry and the
command line's output for a rack spec.  This test runs that dump in
process and compares a digest of each (rack, entry) record and of each
(rack, key) column, the key's values over all entries, with
same_outputs.json.  The file pins the program's past output against
regressions; it is no oracle.  A deliberate change of a value edits the
digests it moves, and the change log names each (rack, entry, key);
regenerating the file to turn this test green defeats it.

    python tests/test_same_outputs.py

prints the digests of the checkout's src/ in the file's format.
"""

import hashlib
import importlib.util
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PINNED = Path(__file__).resolve().parent / "same_outputs.json"

# label -> rack spec as the command line's --rack takes it
RACKS = {
    "R4": '{"type": "linear", "n": 4, "t": 3, "s": 2}',
    "Q16": '{"type": "quotient", "n": 2, "p": [1, 0, 1]}',
    "Z12": '{"type": "linear", "n": 12, "t": 11, "s": 2}',
    "quotient(3,[1,1])": '{"type": "quotient", "n": 3, "p": [1, 1]}',
    "linear(5,2,0)": '{"type": "linear", "n": 5, "t": 2, "s": 0}',
    "linear(8,3,2)": '{"type": "linear", "n": 8, "t": 3, "s": 2}',
    "Z2+Z4": ('{"type": "module", "moduli": [2, 4], '
              '"t": [[1, 1], [2, 1]], "s": [[0, 1], [2, 2]]}'),
    # the matrix text of constant_action_rack([2, 3, 1, 5, 4])
    "constant(2,3,1,5,4)": "5\n2 2 2 2 2\n3 3 3 3 3\n1 1 1 1 1\n"
                           "5 5 5 5 5\n4 4 4 4 4\n",
}


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "same_outputs", ROOT / "tools" / "same_outputs.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def digest(value):
    text = json.dumps(value, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def digests():
    """Per rack label, the digest of each entry's record and of each
    key's values over all entries, from the dump of the imported
    tsracks."""
    import tsracks.cli  # binds tsracks with every module the dump reads

    dump = load_tool().dump(tsracks, list(RACKS.values()))
    out = {}
    for label, text in RACKS.items():
        columns = {}
        for entry, record in dump[text].items():
            for key, value in record.items():
                columns.setdefault(key, {})[entry] = value
        out[label] = {
            "entries": {e: digest(r) for e, r in dump[text].items()},
            "keys": {k: digest(c) for k, c in columns.items()},
        }
    return out


def test_same_outputs_as_pinned():
    pinned = json.loads(PINNED.read_text())
    now = digests()
    assert sorted(now) == sorted(pinned)
    changed = []
    for label in RACKS:
        for part in ("entries", "keys"):
            old, new = pinned[label][part], now[label][part]
            names = sorted(n for n in old.keys() | new.keys()
                           if old.get(n) != new.get(n))
            if names:
                changed.append("%s: %s %s" % (label, part, ", ".join(names)))
    assert not changed, ("outputs differ from %s; rack: entries and keys "
                         "changed:\n%s" % (PINNED.name, "\n".join(changed)))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    json.dump(digests(), sys.stdout, sort_keys=True, indent=1)
    sys.stdout.write("\n")
