"""The mutation runner's mutants: its operators, names, and allow-list."""
import json

import mutants


def test_each_comparison_and_integer_constant_gives_its_mutants():
    source = "def f(x):\n    return x < 2 or x == True\n"
    assert [name for name, _ in mutants.mutants(source)] == [
        "f: x < 2 -> x >= 2", "f: x < 2 -> x <= 2", "f: x < 2 -> x < 3", "f: x < 2 -> x < 1",
        "f: x == True -> x != True"]
    assert [text for _, text in mutants.mutants(source)][0] == (
        "def f(x):\n    return x >= 2 or x == True")


def test_repeated_names_are_numbered_in_source_order():
    names = [name for name, _ in mutants.mutants("a = 1\nb = 1\n")]
    assert names == ["<module>: 1 -> 2", "<module>: 1 -> 0", "<module>: 1 -> 2 #2",
                     "<module>: 1 -> 0 #2"]


def test_every_allowed_mutant_exists():
    with open(mutants.ALLOWED) as fh:
        allowed = json.load(fh)
    for module, reasons in allowed.items():
        with open(f"{mutants.ROOT}/{module}") as fh:
            names = {name for name, _ in mutants.mutants(fh.read())}
        assert sorted(set(reasons) - names) == [], module
        assert all(reasons.values()), module
