"""Each input rule is raised from one place, so its copies cannot drift apart."""

import ast
from collections import Counter
from pathlib import Path

import pytest

import diaghooks
from diaghooks import abacus
from diaghooks.abacus import from_core_and_quotient
from diaghooks.errors import NotACore
from diaghooks.formula import core_counts, delta_general
from diaghooks.partitions import _EMPTY, Partition

SINGLE_SITE_RULES = (
    "BadResidue",
    "NotSymmetric",
    "NotSymmetricBisequence",
    "LengthMismatch",
    "WrongQuotientLength",
    "TooFewBeads",
    "NotACore",
)


def raise_sites() -> Counter:
    """`raise Name(...)` statements per exception name across the package sources."""
    sites: Counter = Counter()
    for path in sorted(Path(diaghooks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            call = node.exc if isinstance(node, ast.Raise) else None
            if isinstance(call, ast.Call) and isinstance(call.func, ast.Name):
                sites[call.func.id] += 1
    return sites


def test_each_input_rule_has_one_raise_site():
    sites = raise_sites()
    assert {name: sites[name] for name in SINGLE_SITE_RULES} == dict.fromkeys(SINGLE_SITE_RULES, 1)


def test_every_core_check_reads_the_one_rule(monkeypatch):
    # a symmetric 5-core and five empty components pass every check, so only the patched core test refuses them
    core = Partition((2, 1))
    monkeypatch.setattr(abacus, "is_p_core", lambda la, p: False)
    refusals = []
    for call in (lambda: delta_general(core, [_EMPTY] * 5, 5), lambda: core_counts(core, 5),
                 lambda: from_core_and_quotient(core, [_EMPTY] * 5, 5)):
        with pytest.raises(NotACore) as info:
            call()
        refusals.append(str(info.value))
    assert refusals == ["(2,1) has a hook of length 5"] * 3


def test_boundary_checks_are_assigned():
    # a check whose value is dropped leaves the function computing with the caller's object, not the int it checked
    bare = []
    for path in sorted(Path(diaghooks.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            call = node.value if isinstance(node, ast.Expr) else None
            if isinstance(call, ast.Call) and getattr(call.func, "id", None) in ("require_modulus", "require_residue"):
                bare.append(f"{path.name}:{node.lineno}")
    assert bare == []


def test_checks_no_input_can_reach_are_gone():
    # the formula's arm values cannot repeat (each runner pair writes only to its own two residues), nor can
    # unquotient's sides (each residue and row gives one value): the one raise left of each is an input rule
    sites = raise_sites()
    assert (sites["InconsistentQuotient"], sites["InternalInconsistency"]) == (1, 1)


def test_the_modulus_rule_has_no_second_copy():
    # errors.require_modulus (p in 2..MAX_P), the Abacus bead count that is no multiple of p, run_verify's empty
    # moduli and the CLI's verify work bound: the command line reads p through require_modulus, not a check of its own
    assert raise_sites()["BadModulus"] == 4
