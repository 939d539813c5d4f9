"""The CLI reproduces the golden corpus of tests/golden byte for byte.

The corpus is regenerated into a temporary directory and compared with
the committed one, file by file.  On the build the corpus came from
(build.json) every byte must match.  On another build every number must
match within 1e-12 relative and every other token exactly.
"""

import importlib.util
import re
from pathlib import Path

GOLDEN = Path(__file__).resolve().parent / "golden"
_spec = importlib.util.spec_from_file_location("golden_regenerate", GOLDEN / "regenerate.py")
regenerate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(regenerate)

NUMBER = re.compile(r"([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
REL = 1e-12


def _files(root: Path) -> dict:
    return {
        path.relative_to(root).as_posix(): path.read_bytes()
        for path in sorted(root.rglob("*"))
        if path.is_file() and path.suffix != ".py" and "__pycache__" not in path.parts
    }


def _close(got: str, want: str) -> bool:
    """Same tokens, numbers within REL relative of each other."""
    got_parts, want_parts = NUMBER.split(got), NUMBER.split(want)
    if len(got_parts) != len(want_parts):
        return False
    for i, (g, w) in enumerate(zip(got_parts, want_parts)):
        # split puts the captured numbers at the odd positions.
        if i % 2 == 0 and g != w:
            return False
        if i % 2 == 1 and abs(float(g) - float(w)) > REL * max(abs(float(g)), abs(float(w))):
            return False
    return True


def test_cli_reproduces_the_golden_corpus(tmp_path):
    regenerate.write_corpus(tmp_path)
    got, want = _files(tmp_path), _files(GOLDEN)
    assert sorted(got) == sorted(want)
    same_build = got.pop("build.json") == want.pop("build.json")
    same = (lambda g, w: g == w) if same_build else (lambda g, w: _close(g.decode(), w.decode()))
    differing = [name for name, text in want.items() if not same(got[name], text)]
    assert not differing, "differ from the golden corpus:\n" + "\n".join(differing)


def test_number_tokens_compare_within_the_tolerance():
    assert _close("a_plus: 0.5 (n=3)", "a_plus: 0.50000000000000011 (n=3)")
    assert not _close("a_plus: 0.5 (n=3)", "a_plus: 0.5000000001 (n=3)")
    assert not _close("a_plus: 0.5 (n=3)", "a_minus: 0.5 (n=3)")
    assert not _close("[1, 2]", "[1, 2, 3]")
