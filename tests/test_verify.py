import operator

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import swapped_components, symmetric_up_to, unpushed_core
from diaghooks import abacus, formula, verify
from diaghooks.abacus import p_quotient
from diaghooks.bisequence import diagonal_bisequence, is_symmetric_p_core
from diaghooks.cli import main
from diaghooks.errors import BadModulus, NonPositivePart
from diaghooks.partitions import DeltaSet, Partition, delta_of, from_delta_lengths
from diaghooks.verify import run_verify


def test_even_and_composite_moduli_up_to_32():
    report = run_verify(32, (2, 3, 4, 5, 6, 7, 8, 9, 11))
    assert report.cells == 2016
    assert report.failures == 0 and report.first_failure is None


@pytest.mark.parametrize("moduli", [["3"], [3.7], [3.0], [True, 3], [None]])
def test_moduli_must_be_integers(moduli):
    with pytest.raises(BadModulus):
        run_verify(6, moduli)


@pytest.mark.parametrize("n_max", [6.5, "6", True, -1])
def test_n_max_must_be_a_non_negative_integer(n_max):
    with pytest.raises(NonPositivePart):
        run_verify(n_max, [3])


def test_index_only_moduli_and_n_max_are_read_as_ints():
    class Five:
        __index__ = lambda self: 5

    report = run_verify(Five(), [Five(), 3])
    assert report.n_max == 5 and report.moduli == (3, 5)
    assert report.cells == 2 * 5 and report.ok  # one self-conjugate partition of each n <= 5 but 2


def test_partition_only_values_are_read_once_per_partition(count_calls):
    oracles = count_calls(verify, "delta_of")
    diagonals = count_calls(verify, "diagonal_bisequence")
    report = run_verify(12, (3, 5, 7))
    assert report.ok and report.cells == 3 * len(symmetric_up_to(12))
    assert [args[0] for args in oracles] == [args[0] for args in diagonals] == list(symmetric_up_to(12))


def test_each_cell_checks_its_core_twice(count_calls):
    core_checks = [count_calls(owner, "is_p_core") for owner in (verify, abacus)]  # the formula's guard reads abacus
    report = run_verify(12, (3, 5, 7))
    assert report.ok
    # the formula's guard and the direct core-criterion test; the rebuild repeats neither
    assert sum(map(len, core_checks)) == 2 * report.cells


# distinct odd diagonal hook lengths of weight up to 40,000, each set a sum of 2k + 1 over distinct k
LARGE_DELTAS = st.one_of(
    st.sets(st.integers(0, 199), max_size=8).map(lambda gone: {k for k in range(200) if k not in gone}),  # near 200^2
    st.sets(st.integers(0, 499), max_size=40),  # many mid-sized hooks: 40 * 999 < 40,000
    st.sets(st.integers(0, 3332), max_size=6),  # a few long arms: 6 * 6665 < 40,000
).map(lambda ks: sorted((2 * k + 1 for k in ks), reverse=True))


@settings(max_examples=200, deadline=None)
@given(LARGE_DELTAS, st.sampled_from([*range(2, 17), 97, 101, 499, 997]))
def test_random_large_weight_cells_pass_every_check(lengths, p):
    la = from_delta_lengths(lengths)
    assert la.weight == sum(lengths) <= 40_000
    assert verify._cell_problems(la, p, delta_of(la), diagonal_bisequence(la)) == []



SWEEP_6 = [(la, p) for la in symmetric_up_to(6) for p in (3, 5)]  # 12 cells in sweep order


def _wrong_at_5(route, wrong):
    """verify.<route>, and a stand-in that answers with `wrong` on every p = 5 cell."""
    real = getattr(verify, route)
    return route, lambda *args: wrong(*args) if args[-1] == 5 else real(*args)


BROKEN_ROUTES = {
    # one broken route: the checks that fail on a p = 5 cell of weight n, and the first failure
    "delta": (
        _wrong_at_5("delta_general", lambda core, quotient, p: DeltaSet(())),
        lambda n: ["delta"] if n else [],
        (1, (1,), 5, "delta", "formula () vs diagram (1,)"),
    ),
    "roundtrip": (
        _wrong_at_5("_rebuild", lambda core, quotient, p: Partition(())),
        lambda n: ["roundtrip"] if n else [],
        (1, (1,), 5, "roundtrip", "rebuilt () from core (1) and quotient"),
    ),
    "core-criterion": (
        _wrong_at_5("is_symmetric_p_core", lambda d, p: not is_symmetric_p_core(d, p)),
        lambda n: ["core-criterion"],
        (0, (), 5, "core-criterion", "residue test disagrees with direct hook check"),
    ),
    "core-and-quotient": (  # every check that reads the pair fails
        _wrong_at_5("core_and_quotient", lambda la, p: (Partition(()), (Partition(()),) * p)),
        lambda n: ["roundtrip", "weight", "delta"] if n else [],
        (1, (1,), 5, "roundtrip", "rebuilt () from core () and quotient"),
    ),
}


@pytest.mark.parametrize("broken", BROKEN_ROUTES)
def test_every_problem_on_every_cell_is_counted(broken, monkeypatch):
    (route, stand_in), checks, first = BROKEN_ROUTES[broken]
    monkeypatch.setattr(verify, route, stand_in)
    real, seen = verify._cell_problems, []

    def recording(la, p, *rest):
        problems = real(la, p, *rest)
        seen.append((la, p, [check for check, _ in problems]))
        return problems

    monkeypatch.setattr(verify, "_cell_problems", recording)
    report = run_verify(6, (3, 5))
    expected = [(la, p, checks(la.weight) if p == 5 else []) for la, p in SWEEP_6]
    assert seen == expected  # the sweep goes on past a failing cell
    assert report.cells == 12 and report.failures == sum(len(c) for *_, c in expected) and not report.ok
    assert report.first_failure == verify.Failure(*first)


REFUSED_PAIRS = {
    # a reader stand-in whose pair `delta_general`'s guard refuses: the route it replaces, the cells of
    # run_verify(12, (3,)) it spoils, and the first failure, named by the guard's error
    "swapped-components": (
        (verify, "core_and_quotient", swapped_components(verify.core_and_quotient)),
        lambda la: operator.ne(*p_quotient(la, 3)[:2]),
        (3, (2, 1), 3, "NotSymmetricQuotient", "component g must equal conjugate of component p-1-g"),
    ),
    "unpushed-core": (
        (abacus, "_core_of", unpushed_core),
        lambda la: not abacus.is_p_core(la, 3),
        (3, (2, 1), 3, "NotACore", "(2,1) has a hook of length 3"),
    ),
}


@pytest.mark.parametrize("reader", REFUSED_PAIRS)
def test_a_refused_pair_is_its_cells_one_failure(reader, monkeypatch):
    (owner, route, stand_in), spoilt, first = REFUSED_PAIRS[reader]
    expected = [(la, [first[3]] if spoilt(la) else []) for la in symmetric_up_to(12)]
    monkeypatch.setattr(owner, route, stand_in)
    real, seen = verify._cell_problems, []

    def recording(la, p, *rest):
        problems = real(la, p, *rest)
        seen.append((la, [check for check, _ in problems]))
        return problems

    monkeypatch.setattr(verify, "_cell_problems", recording)
    report = run_verify(12, (3,))
    assert seen == expected  # the sweep goes on past a refused pair, and no other check reads that pair
    assert report.cells == len(expected) and report.failures == sum(len(c) for _, c in expected) > 0
    assert report.first_failure == verify.Failure(*first)


@pytest.mark.parametrize("reader", REFUSED_PAIRS)
def test_a_report_counts_its_failures_per_check(reader, monkeypatch):
    (owner, route, stand_in), spoilt, first = REFUSED_PAIRS[reader]
    spoilt_cells = [la for la in symmetric_up_to(12) if spoilt(la)]
    monkeypatch.setattr(owner, route, stand_in)
    report = run_verify(12, (3,))
    assert report.failures_by_check == {first[3]: len(spoilt_cells)}
    listed = spoilt_cells[: verify.MAX_LISTED]
    assert [(f.partition, f.check) for f in report.first_failures] == [(la.parts, first[3]) for la in listed]
    assert report.first_failures[0] == report.first_failure == verify.Failure(*first)


@pytest.mark.parametrize("reader", REFUSED_PAIRS)
@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_verify_prints_its_failures_by_check_on_stderr(reader, json_flag, monkeypatch, capsys):
    (owner, route, stand_in), spoilt, first = REFUSED_PAIRS[reader]
    spoilt_cells = sum(1 for la in symmetric_up_to(12) if spoilt(la))
    monkeypatch.setattr(owner, route, stand_in)
    assert main(["verify", "--n-max", "12", "--primes", "3", *json_flag]) == 1
    assert capsys.readouterr().err == f"failures by check: {first[3]}={spoilt_cells}\n"


@pytest.mark.parametrize("json_flag", [[], ["--json"]])
def test_a_clean_verify_writes_nothing_to_stderr(json_flag, capsys):
    assert main(["verify", "--n-max", "12", "--primes", "3", *json_flag]) == 0
    assert capsys.readouterr().err == ""


def _at_10(change):
    # enumerate_partitions with the list of the two self-conjugate partitions of 10 changed by `change`
    real = verify.enumerate_partitions
    return lambda n, symmetric_only=False: (change if n == 10 else list)(list(real(n, symmetric_only)))


@pytest.mark.parametrize(
    "change, checked", [(lambda got: got[1:], 1), (lambda got: got + got[:1], 3)], ids=["lost", "repeated"]
)
def test_a_sweep_that_loses_or_repeats_a_partition_says_so(change, checked, monkeypatch):
    assert run_verify(12, (5, 3)).failures_by_check == {}
    monkeypatch.setattr(verify, "enumerate_partitions", _at_10(change))
    report = run_verify(12, (5, 3))
    assert report.failures_by_check == {"coverage": 1}
    assert report.first_failure == verify.Failure(10, (), 3, "coverage", f"checked {checked} partitions, expected 2")


def test_failures_by_check_are_printed_sorted_by_name(monkeypatch, capsys):
    monkeypatch.setattr(verify, "enumerate_partitions", _at_10(lambda got: got[1:]))
    real = verify.is_symmetric_p_core
    monkeypatch.setattr(verify, "is_symmetric_p_core", lambda d, p: not real(d, p))
    assert main(["verify", "--n-max", "12", "--primes", "3"]) == 1
    assert capsys.readouterr().err == "failures by check: core-criterion=17, coverage=1\n"


def test_a_report_lists_only_the_first_failures(monkeypatch):
    clean = run_verify(12, (3, 5))
    assert (clean.failures_by_check, clean.first_failures, clean.first_failure) == ({}, [], None)
    monkeypatch.setattr(verify, "core_and_quotient", swapped_components(verify.core_and_quotient))
    report = run_verify(24, (3, 5))
    assert sum(report.failures_by_check.values()) == report.failures > verify.MAX_LISTED
    assert len(report.first_failures) == verify.MAX_LISTED and report.first_failures[0] == report.first_failure


def test_an_error_no_guard_raises_still_propagates(monkeypatch):
    monkeypatch.setattr(verify, "core_and_quotient", lambda la, p: (la, (1,) * p))  # components that are no partitions
    with pytest.raises(AttributeError):
        run_verify(3, (3,))


def test_no_moduli_is_refused():
    with pytest.raises(BadModulus, match="need at least one modulus"):
        run_verify(6, [])
