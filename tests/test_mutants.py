import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_every_mutant_applies_exactly_once():
    # tools/mutants.py reports a stale mutant only in its full run, minutes
    # long; this finds one in milliseconds
    spec = importlib.util.spec_from_file_location("mutants", ROOT / "tools" / "mutants.py")
    mutants = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mutants)
    assert len(mutants.MUTANTS) == len({name for name, *_ in mutants.MUTANTS})
    for name, path, text, _ in mutants.MUTANTS:
        source = (ROOT / "src" / "groupkit" / path).read_text(encoding="utf-8")
        assert source.count(text) == 1, name
