from diaghooks.verify import run_verify


def test_even_and_composite_moduli_up_to_32():
    report = run_verify(32, (2, 3, 4, 5, 6, 7, 8, 9, 11))
    assert report.cells == 2016
    assert report.failures == 0 and report.first_failure is None
