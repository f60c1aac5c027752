import pytest

from conftest import symmetric_up_to
from diaghooks import abacus, formula, verify
from diaghooks.errors import BadModulus, NonPositivePart
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
    core_checks = [count_calls(owner, "is_p_core") for owner in (verify, formula, abacus)]
    report = run_verify(12, (3, 5, 7))
    assert report.ok
    # the formula's guard and the direct core-criterion test; the rebuild repeats neither
    assert sum(map(len, core_checks)) == 2 * report.cells
