import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import swapped_components, unpushed_core
from diaghooks import abacus, bisequence, cli, errors, formula, partitions, verify
from diaghooks.cli import build_parser, main, parse_int_list, parse_partition
from diaghooks.errors import BadPartitionSyntax, NonMonotonic, NonPositivePart
from diaghooks.abacus import from_core_and_quotient
from diaghooks.formula import delta_general
from diaghooks.partitions import DeltaSet, Partition, delta_of, from_delta_lengths
from diaghooks.verify import VerifyReport

WEIGHT_190 = ["--quotient", "6^2,2", "--quotient", "3", "--quotient", "2^2",
              "--quotient", "1^3", "--quotient", "3^2,2^4"]
CORE_DELTA_TEXT = "69,59,49,39,29,27,19,17,9,7"


class TestParsing:
    def test_plain(self):
        assert parse_partition("3,2,1") == Partition((3, 2, 1))

    def test_exponent(self):
        assert parse_partition("6^2,2") == Partition((6, 6, 2))
        assert parse_partition("3^2,2^4") == Partition((3, 3, 2, 2, 2, 2))

    def test_empty(self):
        assert parse_partition("") == Partition(())
        assert parse_partition("   ") == Partition(())

    def test_whitespace(self):
        assert parse_partition(" 3 , 2 , 1 ") == Partition((3, 2, 1))

    def test_syntax_error_reports_position(self):
        with pytest.raises(BadPartitionSyntax) as err:
            parse_partition("3,x,1")
        assert "position 2" in str(err.value)

    def test_order_is_validated_not_fixed(self):
        with pytest.raises(NonMonotonic):
            parse_partition("2,3")

    def test_int_list(self):
        assert parse_int_list("3,5,7") == [3, 5, 7]
        with pytest.raises(BadPartitionSyntax):
            parse_int_list("3,,5")


class TestExponentCap:
    def test_refused_before_allocating(self):
        for text in ("1^10000000000000000000", "2,1^1000000"):
            with pytest.raises(BadPartitionSyntax, match="more than"):
                parse_partition(text)

    def test_digit_strings_too_long_for_int_are_syntax_errors(self):
        for text in ("1^" + "9" * 5000, "9" * 5000):
            with pytest.raises(BadPartitionSyntax):
                parse_partition(text)
        with pytest.raises(BadPartitionSyntax):
            parse_int_list("9" * 5000)

    def test_small_exponents_parse(self):
        assert parse_partition("1^3") == Partition((1, 1, 1))
        assert len(parse_partition(f"1^{cli.MAX_PARTS}")) == cli.MAX_PARTS

    def test_exit_2(self, capsys):
        assert main(["core", "1^10000000000000000000", "--p", "3"]) == 2
        assert "BadPartitionSyntax" in capsys.readouterr().err


class TestCellBound:
    @pytest.mark.parametrize("argv", [
        ["render", "1000001", "--p", "2"],
        ["core", "1000001", "--p", "2"],
        ["quotient", "1000001", "--p", "2"],
        ["delta", "--quotient", "", "--quotient", "1000001", "--p", "2"],
        ["check-core", "2000001", "--from-delta", "--p", "3"],
        ["delta", "--core", "2000001", "--from-delta", *["--quotient", ""] * 3, "--p", "3"],
    ], ids=["render", "core", "quotient", "delta-quotient", "check-core-from-delta", "delta-from-delta"])
    def test_one_large_part_exits_2_before_building_anything(self, argv, count_calls, capsys):
        built = count_calls(Partition, "__post_init__")
        assert main(argv) == 2
        assert built == []
        assert capsys.readouterr().err.startswith("error: BadPartitionSyntax: ")

    def test_the_bound_counts_cells(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_PARTS", 10)
        assert parse_partition("10") == Partition((10,))
        assert parse_partition("4,3^2") == Partition((4, 3, 3))
        assert cli._input_partition("7,3", True) == Partition((4, 3, 2, 1))
        for text in ("11", "4,3^2,1", "0^10000000000000000000"):
            with pytest.raises(BadPartitionSyntax, match="more than 10 cells"):
                parse_partition(text)
        with pytest.raises(BadPartitionSyntax, match="more than 10 cells"):
            cli._input_partition("9,3", True)
        with pytest.raises(NonPositivePart):
            parse_partition("0^3")


class TestNonAsciiDigits:
    @pytest.mark.parametrize("argv", [
        ["core", "3,²", "--p", "3"],
        ["core", "2^²", "--p", "3"],
        ["verify", "--primes", "３"],
    ])
    def test_exit_2_without_traceback(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert "BadPartitionSyntax" in err and "Traceback" not in err

    def test_parsers_refuse_them(self):
        for text in ("²", "3,²", "2^²", "３"):
            with pytest.raises(BadPartitionSyntax):
                parse_partition(text)
        with pytest.raises(BadPartitionSyntax):
            parse_int_list("３")


class TestCoreCommand:
    def test_text(self, capsys):
        assert main(["core", "3,2,1", "--p", "3"]) == 0
        out = capsys.readouterr().out
        assert "core: ()" in out
        assert "quotient: (1), (), (1)" in out

    def test_json(self, capsys):
        assert main(["core", "3,2,1", "--p", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["core"] == []
        assert data["quotient"] == [[1], [], [1]]
        assert data["weights"] == {"total": 6, "core": 0, "quotient": [1, 0, 1]}

    def test_empty_input(self, capsys):
        assert main(["core", "", "--p", "5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["core"] == [] and data["quotient"] == [[]] * 5

    def test_parse_error_exit_2(self, capsys):
        assert main(["core", "2,3", "--p", "3"]) == 2
        assert "NonMonotonic" in capsys.readouterr().err

    def test_bad_modulus_exit_3(self, capsys):
        assert main(["core", "3,2,1", "--p", "1"]) == 3
        assert "BadModulus" in capsys.readouterr().err


    def test_runs_as_a_module(self):
        src = Path(__file__).resolve().parent.parent / "src"
        env = {**os.environ, "PYTHONPATH": str(src)}
        proc = subprocess.run([sys.executable, "-m", "diaghooks", "core", "3,2,1", "--p", "3", "--json"],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["quotient"] == [[1], [], [1]]


class TestQuotientCommand:
    def test_text(self, capsys):
        assert main(["quotient", "4,1,1,1", "--p", "3"]) == 0
        out = capsys.readouterr().out.splitlines()
        assert out == ["0: (1)", "1: ()", "2: (1)"]


class TestDeltaCommand:
    def test_both_agree(self, capsys):
        assert main(["delta", "--core", "", *WEIGHT_190, "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "delta (formula): 51,41,29,23,19,15,7,5" in out
        assert "delta (oracle):  51,41,29,23,19,15,7,5" in out
        assert "conservation: sum=190 n=190 -> OK" in out
        assert "verdict: AGREE" in out

    def test_json(self, capsys):
        assert main(["delta", "--core", "1", "--quotient", "1", "--quotient", "",
                     "--quotient", "1", "--p", "3", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta_formula"] == [7]
        assert data["delta_oracle"] == [7]
        assert data["partition"] == [4, 1, 1, 1]
        assert data["agree"] is True and data["conserved"] is True

    def test_formula_only_still_checks_conservation(self, capsys):
        assert main(["delta", "--core", "", "--quotient", "1", "--quotient", "",
                     "--quotient", "1", "--p", "3", "--method", "formula"]) == 0
        out = capsys.readouterr().out
        assert "conservation:" in out
        assert "oracle" not in out

    def test_core_from_delta(self, capsys):
        args = ["delta", "--core", CORE_DELTA_TEXT, "--from-delta", *WEIGHT_190, "--p", "5", "--json"]
        assert main(args) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["delta_formula"] == [99, 89, 69, 59, 49, 39, 37, 27, 17, 15, 9, 5]
        assert data["n"] == 514 and data["agree"] is True

    def test_not_a_core_exit_4(self, capsys):
        assert main(["delta", "--core", "3,2,1", "--quotient", "", "--quotient", "",
                     "--quotient", "", "--p", "3"]) == 4
        assert "NotACore" in capsys.readouterr().err

    def test_bad_quotient_exit_5(self, capsys):
        assert main(["delta", "--core", "", "--quotient", "1", "--quotient", "",
                     "--quotient", "", "--p", "3"]) == 5
        assert main(["delta", "--core", "", "--quotient", "1", "--p", "3"]) == 5

    @pytest.mark.parametrize("method", ["formula", "oracle", "both"])
    @pytest.mark.parametrize("core, first, code", [
        ("", "1", 5),  # an asymmetric quotient
        ("2", "1", 5),  # the quotient is checked before the core
        ("3,2,1", "1", 5),
        ("2", "", 6),  # a symmetric quotient, an asymmetric core
        ("3,2,1", "", 4),  # a symmetric quotient, a symmetric core with a 3-hook
    ])
    def test_every_method_checks_the_pair_the_same_way(self, method, core, first, code, capsys):
        assert main(["delta", "--core", core, "--quotient", first, "--quotient", "",
                     "--quotient", "", "--p", "3", "--method", method]) == code
        assert capsys.readouterr().out == ""

    @pytest.mark.parametrize("argv", [
        ["delta", "--core", "1", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3"],
        ["delta", "--core", "1", *["--quotient", ""] * 997, "--p", "997", "--method", "both"],
    ], ids=["p3", "p997"])
    def test_checks_the_pair_once_per_line(self, argv, count_calls, capsys):
        core_checks = count_calls(abacus, "is_p_core")  # the formula's guard looks it up in abacus
        symmetry_checks = count_calls(formula, "is_symmetric_quotient")
        assert main(argv) == 0
        assert "verdict: AGREE" in capsys.readouterr().out
        assert len(core_checks) == 1
        assert len(symmetry_checks) == 1


class TestCheckCoreCommand:
    def test_running_core_via_delta_entry(self, capsys):
        assert main(["check-core", CORE_DELTA_TEXT, "--from-delta", "--p", "5"]) == 0
        out = capsys.readouterr().out
        assert "criterion: CORE" in out and "direct:    CORE" in out
        assert "verdict: CORE" in out

    def test_single_box(self, capsys):
        assert main(["check-core", "1", "--p", "5"]) == 0
        assert "verdict: CORE" in capsys.readouterr().out

    def test_staircase_not_a_core(self, capsys):
        assert main(["check-core", "3,2,1", "--p", "3"]) == 0
        assert "verdict: NOT A CORE" in capsys.readouterr().out

    def test_not_symmetric_exit_6(self, capsys):
        assert main(["check-core", "6^2,2", "--p", "3"]) == 6
        assert "NotSymmetric" in capsys.readouterr().err

    def test_json(self, capsys):
        assert main(["check-core", "2,2", "--p", "2", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["is_core"] is False and data["agree"] is True

    @pytest.mark.parametrize("argv", [
        ["check-core", "3,2,1", "--p", "3"],
        ["check-core", CORE_DELTA_TEXT, "--from-delta", "--p", "5", "--json"],
        ["check-core", "2015,1001,21", "--from-delta", "--p", "997"],
    ])
    def test_walks_the_partition_once(self, argv, count_calls, capsys):
        # the arms the symmetry check returns give the residue test its bisequence
        walks = [count_calls(owner, "_frobenius") for owner in (partitions, bisequence, formula)]
        assert main(argv) == 0
        assert "DISAGREE" not in capsys.readouterr().out
        assert sum(map(len, walks)) == 1

    def test_symmetric_large_p_core_from_delta(self, capsys):
        # arms 10, 10 + 997 and 500: one bead on each of runners 10 and 500 past the full rows
        assert main(["check-core", "2015,1001,21", "--from-delta", "--p", "997", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["agree"] is True and data["is_core"] is True


@pytest.mark.parametrize("argv", [
    ["check-core", "", "--p", "3"],
    ["check-core", " ", "--p", "3", "--json"],
    ["delta", "--core", "", "--quotient", "", "--quotient", "", "--quotient", "", "--p", "3"],
    ["delta", "--core", " ", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3", "--json"],
])
def test_blank_from_delta_text_is_the_empty_partition(argv):
    code, out, err = outcome(main, argv)
    assert (code, err) == (0, "")
    assert outcome(main, [*argv, "--from-delta"]) == (code, out, err)


class TestRenderCommand:
    def test_staircase(self, capsys):
        assert main(["render", "3,2,1", "--p", "3"]) == 0
        assert capsys.readouterr().out == "· ● ·\n─────\n● · ●\n"

    def test_empty(self, capsys):
        assert main(["render", "", "--p", "3"]) == 0
        assert capsys.readouterr().out == "● ● ●\n─────\n"

    def test_spike(self, capsys):
        assert main(["render", "4,1,1,1", "--p", "3"]) == 0
        assert capsys.readouterr().out == "● ● ·\n● ● ●\n─────\n· · ·\n● · ·\n"


class TestVerifyCommand:
    def test_trivial(self, capsys):
        assert main(["verify", "--n-max", "0", "--primes", "3,5"]) == 0
        assert "checked 2 (lambda,p) cells, 0 failures" in capsys.readouterr().out

    def test_regression_cell_count(self, capsys):
        # frozen from this implementation's enumeration: 56 self-conjugate
        # partitions with n <= 20, times two moduli
        assert main(["verify", "--n-max", "20", "--primes", "3,5", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["cells"] == 112
        assert data["failures"] == 0 and data["first_failure"] is None

    def test_defaults(self, capsys):
        assert main(["verify", "--json"]) == 0
        data = json.loads(capsys.readouterr().out)
        assert data["n_max"] == 20 and data["primes"] == [3, 5, 7]
        assert data["cells"] == 3 * 56 and data["failures"] == 0

    def test_n_max_is_bounded_before_the_sweep(self, capsys, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "run_verify", lambda n_max, moduli: calls.append(n_max) or VerifyReport(n_max, (3,)))
        assert cli.MAX_N_MAX == 120
        assert main(["verify", "--n-max", "121"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: BadPartitionSyntax: --n-max 121 is above 120\n"
        assert calls == []
        assert main(["verify", "--n-max", "120"]) == 0
        assert calls == [120]

    def test_work_is_bounded_before_the_sweep(self, capsys, monkeypatch):
        # each of these lines passes both the --n-max and the --primes bound
        calls = []

        def report(n_max, moduli):
            calls.append((n_max, moduli))
            return VerifyReport(n_max, (3,))

        monkeypatch.setattr(cli, "run_verify", report)
        assert main(["verify", "--n-max", "120", "--primes", "999999"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err == "error: BadModulus: --n-max 120 times the --primes sum 999999 is above 120000\n"
        assert calls == []
        assert main(["verify", "--n-max", "120", "--primes", "3,5,7"]) == 0
        assert main(["verify", "--n-max", "20", "--primes", "997"]) == 0
        assert calls == [(120, [3, 5, 7]), (20, [997])]

    def test_work_bound_counts_each_modulus_once(self, capsys, monkeypatch):
        # run_verify checks a repeated modulus once, so the bound sums the distinct --primes
        calls = []

        def report(n_max, moduli):
            calls.append((n_max, moduli))
            return VerifyReport(n_max, (997,))

        monkeypatch.setattr(cli, "run_verify", report)
        assert main(["verify", "--n-max", "120", "--primes", "997,997"]) == 0
        assert main(["verify", "--n-max", "120", "--primes", "997,499,997"]) == 3
        out, err = capsys.readouterr()
        assert err == "error: BadModulus: --n-max 120 times the --primes sum 1496 is above 120000\n"
        assert calls == [(120, [997, 997])]

    def test_parses_primes_once(self, count_calls, capsys):
        parses = count_calls(cli, "parse_int_list")
        assert main(["verify", "--n-max", "6", "--primes", "3,5", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["cells"] == 2 * 6  # six self-conjugate partitions of n <= 6
        assert [args[0] for args in parses] == ["3,5"]

    @pytest.mark.parametrize("primes", ["", " "])
    def test_blank_primes_exit_2(self, primes, capsys):
        assert main(["verify", "--primes", primes]) == 2
        assert capsys.readouterr() == ("", "error: BadPartitionSyntax: bad integer '' at position 0\n")



class TestFailureReports:
    """The exit 1 paths: a route is broken on purpose and the output alone says where."""

    VERIFY = ["verify", "--n-max", "6", "--primes", "3,5"]
    SMALL = ["delta", "--core", "", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3"]

    @pytest.fixture
    def criterion_broken_at_5(self, monkeypatch):
        real = verify.is_symmetric_p_core
        monkeypatch.setattr(verify, "is_symmetric_p_core", lambda d, p: real(d, p) != (p == 5))

    def test_verify_text_names_the_first_failure(self, criterion_broken_at_5, capsys):
        assert main(self.VERIFY) == 1
        assert capsys.readouterr().out.splitlines() == [
            "checked 12 (lambda,p) cells, 6 failures",
            "first failure: n=0 partition=() p=5 check=core-criterion",
            "  residue test disagrees with direct hook check",
        ]

    def test_verify_json_names_the_first_failure(self, criterion_broken_at_5, capsys):
        assert main([*self.VERIFY, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "n_max": 6, "primes": [3, 5], "cells": 12, "failures": 6,
            "first_failure": {"n": 0, "partition": [], "p": 5, "check": "core-criterion",
                              "detail": "residue test disagrees with direct hook check"},
        }

    SWEEP_12 = ["verify", "--n-max", "12", "--primes", "3"]

    @pytest.fixture
    def components_swapped(self, monkeypatch):
        monkeypatch.setattr(verify, "core_and_quotient", swapped_components(verify.core_and_quotient))

    @pytest.fixture
    def core_unpushed(self, monkeypatch):
        monkeypatch.setattr(abacus, "_core_of", unpushed_core)

    def test_verify_text_names_the_asymmetric_quotient(self, components_swapped, capsys):
        assert main(self.SWEEP_12) == 1
        assert capsys.readouterr().out.splitlines() == [
            "checked 18 (lambda,p) cells, 12 failures",
            "first failure: n=3 partition=(2,1) p=3 check=NotSymmetricQuotient",
            "  component g must equal conjugate of component p-1-g",
        ]

    def test_verify_json_names_the_core_that_is_no_core(self, core_unpushed, capsys):
        assert main([*self.SWEEP_12, "--json"]) == 1
        assert json.loads(capsys.readouterr().out) == {
            "n_max": 12, "primes": [3], "cells": 18, "failures": 14,
            "first_failure": {"n": 3, "partition": [2, 1], "p": 3, "check": "NotACore",
                              "detail": "(2,1) has a hook of length 3"},
        }

    def test_verify_bug_still_exits_7(self, monkeypatch, capsys):
        monkeypatch.setattr(verify, "core_and_quotient", lambda la, p: (la, (1,) * p))
        assert main(self.SWEEP_12) == 7
        assert capsys.readouterr() == ("", "error: internal: AttributeError: 'int' object has no attribute 'parts'\n")

    def test_delta_disagreement_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "delta_of", lambda la: DeltaSet((5,)))
        assert main(self.SMALL) == 1
        assert capsys.readouterr().out.splitlines() == [
            "partition: (3,2,1)  (n=6)", "delta (formula): 5,1", "delta (oracle):  5",
            "conservation: sum=6 n=6 -> OK", "verdict: DISAGREE"]

    def test_delta_conservation_failure_exits_1(self, monkeypatch, capsys):
        monkeypatch.setattr(cli, "delta_general", lambda core, quotient, p: DeltaSet((3,)))
        assert main([*self.SMALL, "--method", "formula"]) == 1
        assert capsys.readouterr().out.splitlines() == [
            "partition: (3,2,1)  (n=6)", "delta (formula): 3", "conservation: sum=3 n=6 -> FAIL"]

    def test_quotient_json(self, capsys):
        assert main(["quotient", "4,1,1,1", "--p", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out) == {"partition": [4, 1, 1, 1], "p": 3, "quotient": [[1], [], [1]]}


# a p = 997 line with repeated component texts: three conjugate pairs, a self-conjugate center and 990 blank runners
P997_TEXTS = [{0: "3,1", 1: "3,1", 2: "3,1", 498: "2,1", 994: "2,1,1", 995: "2,1,1", 996: "2,1,1"}.get(g, "")
              for g in range(997)]
P997_DELTA = ["delta", "--from-delta", "--core", "2015,1001,21", *[a for t in P997_TEXTS for a in ("--quotient", t)],
              "--p", "997"]
P997_PARTITION = ",".join(map(str, from_core_and_quotient(
    from_delta_lengths((2015, 1001, 21)), tuple(map(parse_partition, P997_TEXTS)), 997).parts))


class TestJsonRoundtrip:
    def test_core_output_feeds_delta(self, capsys):
        assert main(["core", "4,4,2,2", "--p", "3", "--json"]) == 0
        core_data = json.loads(capsys.readouterr().out)
        args = ["delta", "--core", ",".join(str(x) for x in core_data["core"]), "--p", "3", "--json"]
        for comp in core_data["quotient"]:
            args += ["--quotient", ",".join(str(x) for x in comp)]
        assert main(args) == 0
        delta_data = json.loads(capsys.readouterr().out)
        assert delta_data["partition"] == core_data["partition"]
        assert delta_data["agree"] is True

    @pytest.mark.parametrize("argv", [
        ["core", "6,6,2", "--p", "3"],
        ["core", "", "--p", "5"],
        ["quotient", "4,1,1,1", "--p", "3"],
        ["delta", "--core", "", *WEIGHT_190, "--p", "5", "--method", "formula"],
        ["delta", "--from-delta", "--core", "1", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3"],
        ["check-core", "3,1,1", "--p", "3"],
        ["check-core", "--from-delta", "--p", "5", CORE_DELTA_TEXT],
        ["verify", "--n-max", "6", "--primes", "3,5"],
        P997_DELTA,
        ["core", P997_PARTITION, "--p", "997"],
    ], ids=["core", "core-empty", "quotient", "delta", "delta-from-delta", "check-core", "check-core-from-delta",
            "verify", "delta-p997", "core-p997"])
    def test_json_bytes_are_the_default_encoders(self, argv, capsys):
        # the CLI encodes without the cycle check; on the fresh values it prints, the bytes are json.dumps'
        assert main([*argv, "--json"]) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out)) + "\n"


class TestRepeatedQuotientTexts:
    def test_the_first_refused_text_in_the_line_is_reported(self, capsys):
        # refused texts repeat and interleave; whichever is read first, the one reported is the line's first
        ys = [f"y{k}" for k in range(60)]
        values = ["1", "x", "2,,1", "x", "", "2,,1", "3,4", *ys, "x", *ys[::-1], "2,,1", "", ""]  # one per runner
        with pytest.raises(BadPartitionSyntax) as expected:
            tuple(map(parse_partition, values))
        assert main(["delta", *[a for v in values for a in ("--quotient", v)], "--p", str(len(values))]) == 2
        assert capsys.readouterr().err == f"error: BadPartitionSyntax: {expected.value}\n"


class TestExitCodes:
    def test_every_error_carries_its_documented_code(self):
        documented = {
            errors.BadModulus: 3,
            errors.EvenModulus: 3,
            errors.BadResidue: 3,
            errors.CenterResidue: 3,
            errors.NotACore: 4,
            errors.WrongQuotientLength: 5,
            errors.NotSymmetricQuotient: 5,
            errors.InconsistentQuotient: 5,
            errors.NotSymmetric: 6,
            errors.NotSymmetricBisequence: 6,
        }
        subclasses = errors.DiagHookError.__subclasses__()
        assert set(documented) <= set(subclasses)
        assert errors.DiagHookError.exit_code == 2
        for cls in subclasses:
            assert cls.exit_code == documented.get(cls, 2), cls.__name__

    def test_readme_table_names_the_verify_work_bound(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        row = next(line for line in readme.splitlines() if line.startswith("| 3 |"))
        assert "--n-max" in row and "MAX_N_MAX * 1000" in row


class TestModulusBound:
    HUGE = "100000000"

    @pytest.mark.parametrize("argv", [
        ["core", "1", "--p", HUGE],
        ["quotient", "1", "--p", HUGE],
        ["render", "1", "--p", HUGE],
        ["check-core", "1", "--p", HUGE],
        ["delta", "--quotient", "", "--p", HUGE],
        ["verify", "--primes", f"3,{HUGE}"],
    ], ids=["core", "quotient", "render", "check-core", "delta", "verify"])
    def test_exits_3_before_building_anything(self, argv, count_calls, capsys):
        built = count_calls(Partition, "__post_init__")
        assert main(argv) == 3
        assert built == []
        assert capsys.readouterr().err == f"error: BadModulus: p={self.HUGE} is above {cli.MAX_P}\n"

    def test_the_bound_itself_is_accepted(self, capsys):
        # one component for p runners fails at once, after the bound check and before any O(p) work
        assert main(["delta", "--quotient", "", "--p", str(cli.MAX_P)]) == 5
        assert main(["delta", "--quotient", "", "--p", str(cli.MAX_P + 1)]) == 3
        err = capsys.readouterr().err
        assert "WrongQuotientLength" in err and "BadModulus" in err


class TestEmptyRunnerLines:
    def test_p997_lines_build_a_partition_per_non_empty_component(self, count_calls, capsys):
        p = 997
        components = [""] * p
        components[3], components[p - 4], components[(p - 1) // 2] = "3,1", "2,1,1", "2,1"
        quotient = [arg for c in components for arg in ("--quotient", c)]
        core = "2015,1001,21"  # arms 10, 10 + p and 500: a symmetric p-core
        built = count_calls(Partition, "__post_init__")
        assert main(["delta", "--from-delta", "--core", core, *quotient, "--p", str(p), "--json"]) == 0
        assert len(built) <= 3 + 2
        data = json.loads(capsys.readouterr().out)
        assert data["agree"] is True and data["conserved"] is True
        built.clear()
        assert main(["core", ",".join(map(str, data["partition"])), "--p", str(p), "--json"]) == 0
        assert len(built) <= 3 + 2
        assert json.loads(capsys.readouterr().out)["quotient"] == data["quotient"]

    def test_p997_quotient_line_gives_the_core_lines_quotient(self, capsys):
        # component g stays at index g: the quotient of this partition is not its own reverse
        p = 997
        texts = [{3: "3,1", p - 4: "2,1,1", (p - 1) // 2: "2,1"}.get(g, "") for g in range(p)]
        la = from_core_and_quotient(from_delta_lengths((2015, 1001, 21)), tuple(map(parse_partition, texts)), p)
        line = [",".join(map(str, la.parts)), "--p", str(p), "--json"]
        assert main(["core", *line]) == 0
        quotient = json.loads(capsys.readouterr().out)["quotient"]
        assert quotient != quotient[::-1]
        assert main(["quotient", *line]) == 0
        assert json.loads(capsys.readouterr().out) == {"partition": list(la.parts), "p": p, "quotient": quotient}

    @pytest.mark.parametrize("p, core_lengths, components", [
        (5, CORE_DELTA_TEXT, ["6^2,2", "3", "2^2", "1^3", "3^2,2^4"]),
        (997, "2015,1001,21", {3: "3,1", 993: "2,1,1", 498: "2,1"}),
        (997, "2015,1001,21", P997_TEXTS),
    ], ids=["p5", "p997", "p997-repeats"])
    def test_json_is_what_lists_would_give(self, p, core_lengths, components, capsys):
        # `json` writes the parts tuples as arrays: the output is the dump of the same dict built with lists
        texts = components if isinstance(components, list) else [components.get(g, "") for g in range(p)]
        core, quotient = from_delta_lengths(parse_int_list(core_lengths)), tuple(map(parse_partition, texts))
        rebuilt = from_core_and_quotient(core, quotient, p)
        formula, oracle = delta_general(core, quotient, p), delta_of(rebuilt)
        n = core.weight + p * sum(c.weight for c in quotient)
        argv = ["delta", "--from-delta", "--core", core_lengths, *[a for t in texts for a in ("--quotient", t)]]
        assert main([*argv, "--p", str(p), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "core": list(core.parts), "quotient": [list(c.parts) for c in quotient], "p": p,
            "partition": list(rebuilt.parts), "n": n, "delta_formula": list(formula.lengths),
            "delta_oracle": list(oracle.lengths), "conserved": formula.total == n, "agree": formula == oracle,
        }) + "\n"
        assert main(["core", ",".join(map(str, rebuilt.parts)), "--p", str(p), "--json"]) == 0
        assert capsys.readouterr().out == json.dumps({
            "partition": list(rebuilt.parts), "p": p, "core": list(core.parts),
            "quotient": [list(c.parts) for c in quotient],
            "weights": {"total": rebuilt.weight, "core": core.weight, "quotient": [c.weight for c in quotient]},
        }) + "\n"


class TestInternalErrors:
    def test_exit_7_without_traceback(self, monkeypatch, capsys):
        def broken(la, p):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "core_and_quotient", broken)
        assert main(["core", "3,2,1", "--p", "3"]) == 7
        err = capsys.readouterr().err
        assert err == "error: internal: RuntimeError: boom\n"

    def test_argparse_errors_still_exit_2(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["delta", "--p"])
        assert exc.value.code == 2
        assert "expected one argument" in capsys.readouterr().err


REFERENCE_PARSER = build_parser()


def reference_main(argv: list[str]) -> int:
    """`main` as it was before the --quotient pass: argparse reads the whole line."""
    args = REFERENCE_PARSER.parse_args(argv)
    try:
        return args.func(args)
    except errors.DiagHookError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return exc.exit_code
    except Exception as exc:
        print(f"error: internal: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 7


def outcome(run, argv: list[str]) -> tuple:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = run(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


TOKENS = ["--quotient", "--quotient=1", "--quotient=", "--quot", "--q", "--core", "--core=1", "--p",
          "--p=3", "3", "1", "", "2,1", "x", "-1", "--", "--json", "--method", "both", "--from-delta", "-h"]
# symmetric 3-quotients: component 0 is the conjugate of component 2, component 1 is self-conjugate
QUOTIENTS = [("1", "", "1"), ("2", "", "1^2"), ("1^2", "1", "2"), ("", "2,1", "")]


# a --quotient together with a value, so that the lines often hold whole occurrences
QUOTIENT_UNITS = st.builds(lambda spaced, v: ["--quotient", v] if spaced else [f"--quotient={v}"],
                           st.booleans(), st.sampled_from(["", "1", "2,1", "x", "-1", "--p"]))
TOKEN_LINES = st.lists(st.one_of(st.sampled_from(TOKENS).map(lambda t: [t]), QUOTIENT_UNITS), max_size=8)


@st.composite
def well_formed_with_extras(draw) -> list[str]:
    units = [["--quotient", q] for q in draw(st.sampled_from(QUOTIENTS))] + [["--p", "3"]]
    units += [[t] for t in draw(st.lists(st.sampled_from(TOKENS), max_size=4))]
    return [t for unit in draw(st.permutations(units)) for t in unit]


class TestQuotientPass:
    @settings(max_examples=200, deadline=None)
    @given(st.one_of(TOKEN_LINES.map(lambda units: [t for unit in units for t in unit]),
                     well_formed_with_extras()))
    def test_main_matches_argparse_alone(self, tokens):
        argv = ["delta", *tokens]
        assert outcome(main, argv) == outcome(reference_main, argv)

    @pytest.mark.parametrize("tokens", [
        ["--p", "3", "--quotient", "1", "--", "x", "--quotient", "1"],
        ["--core", "--quotient", "1", "x", "--p", "3"],
        ["--p", "--quotient=1", "3"],
        ["--quot", "2", "--quotient", "", "--quotient", "1^2", "--p", "3"],
        ["--quotient", "-1", "--quotient", "", "--quotient", "1", "--p", "3"],
        ["--json", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3"],
        ["--quotient", "1", "--quotient", "", "--quotient"],
        ["--quotient=1", "--quotient", "", "--quotient", "1", "--p", "3", "-h"],
    ])
    def test_edge_lines_match_argparse_alone(self, tokens):
        argv = ["delta", *tokens]
        assert outcome(main, argv) == outcome(reference_main, argv)

    def test_argparse_sees_no_quotient_at_p_997(self, monkeypatch, capsys):
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, args=None, namespace=None):
            seen.append(list(args))
            return parse_args(self, args, namespace)

        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        argv = ["delta", "--core", "1", *["--quotient", ""] * 997, "--p", "997", "--method", "both"]
        assert main(argv) == 0
        assert "verdict: AGREE" in capsys.readouterr().out
        assert seen and not any(t.startswith("--quotient") for line in seen for t in line)

    def test_equals_spelling_reaches_argparse_whole(self, monkeypatch, capsys):
        seen = []
        parse_args = argparse.ArgumentParser.parse_args

        def spy(self, args=None, namespace=None):
            seen.append(list(args))
            return parse_args(self, args, namespace)

        spaced = ["delta", "--quotient", "2", "--quotient", "", "--quotient", "1^2", "--p", "3", "--json"]
        assert main(spaced) == 0
        expected = capsys.readouterr().out
        monkeypatch.setattr(argparse.ArgumentParser, "parse_args", spy)
        argv = ["delta", "--quotient=2", "--quotient=", "--quotient=1^2", "--p", "3", "--json"]
        assert main(argv) == 0
        assert capsys.readouterr().out == expected
        assert seen == [argv]

    def test_parser_built_once(self, monkeypatch, capsys):
        calls = []

        def counting():
            calls.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", counting)
        assert main(["core", "3,2,1", "--p", "3"]) == 0
        assert main(["delta", "--quotient", "1", "--quotient", "", "--quotient", "1", "--p", "3"]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("spelling", [
        ["--quot", "2", "--quot", "", "--quot", "1^2"],
        ["--quotient=2", "--quotient=", "--quotient=1^2"],
        ["--quotient=2", "--quotient", "", "--quotient=1^2"],
    ])
    def test_components_keep_their_order(self, spelling, capsys):
        assert main(["delta", *spelling, "--p", "3", "--json"]) == 0
        assert json.loads(capsys.readouterr().out)["quotient"] == [[2], [], [1, 1]]


MODULI = ["2", "3", "5", "997"]
PARTS = ["", "1", "2,1", "3,1,1", "3^2,2", "4,3^2,1", "7,5,1"]  # small, so no line builds a large abacus
MALFORMED = ["2,,1", "x", "-1", "2.5", "1000001", "--quotient=1", "--"]
COMMANDS = {  # each subcommand: the values of its positional argument (None if it has none), then its options,
    # each with the values it takes (None for a switch); --p and, on `delta`, one --quotient per runner come by default
    "core": (PARTS, {"--json": None}),
    "quotient": (PARTS, {"--json": None}),
    "delta": (None, {"--core": PARTS, "--from-delta": None, "--method": ["formula", "oracle", "both"], "--json": None}),
    "check-core": (PARTS, {"--from-delta": None, "--json": None}),
    "render": (PARTS, {}),
    "verify": (None, {"--n-max": ["0", "3", "6", "12"], "--primes": ["3", "2,3", "3,5,7", "2,997"], "--json": None}),
}


@st.composite
def command_lines(draw) -> list[str]:
    """A `diaghooks` line: well-formed options in any order, then mostly no, else one or two malformed tokens."""
    command = draw(st.sampled_from(sorted(COMMANDS)))
    positional, options = COMMANDS[command]
    units = [[draw(st.sampled_from(positional))]] if positional else []
    flags = draw(st.lists(st.sampled_from(sorted(options)), max_size=3, unique=True)) if options else []
    units += [[flag] if options[flag] is None else [flag, draw(st.sampled_from(options[flag]))] for flag in flags]
    placed = []
    if command != "verify":
        p = draw(st.sampled_from(MODULI))
        units.append(["--p", p])
        if command == "delta":  # mostly one component per runner, at most two of them non-empty
            components = [""] * (int(p) + draw(st.sampled_from([0, 0, 0, -1, 1])))
            for _ in range(draw(st.integers(0, 2))):
                components[draw(st.integers(0, len(components) - 1))] = draw(st.sampled_from(["1", "2,1", "2"]))
            placed = [["--quotient", c] for c in components]
    for unit in units:  # each at a drawn place: a uniform order, with one draw per unit and not per component
        placed.insert(draw(st.integers(0, len(placed))), unit)
    line = [command, *(t for unit in placed for t in unit)]
    for _ in range(draw(st.sampled_from([0, 0, 0, 1, 2]))):
        at, token = draw(st.integers(1, len(line))), draw(st.sampled_from(MALFORMED))
        line[at : at + draw(st.integers(0, 1))] = [token]  # insert, or replace the token there
    return line


class TestCommandLineFuzz:
    @settings(max_examples=200, deadline=None)
    @given(command_lines())
    def test_no_line_is_an_internal_error(self, argv):
        code, _, err = outcome(main, argv)
        assert code != 7, (argv, err)
