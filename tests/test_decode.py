"""The trusted decode path: partitions read off bead positions skip Partition's checks and lose nothing.

`beta._decoded` builds a `Partition` from distinct ascending bead positions
without `__post_init__`; every reader and the rebuild decode through it. Each
value it gives must equal the checked construction of its own parts, with
plain-int parts, and the readers must build no bead set, so no membership
set that nothing asks for.
"""

import json
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

import diaghooks
from conftest import Index, bead_sets, partitions
from diaghooks.abacus import _rebuild, core_and_quotient, from_core_and_quotient, p_core, p_quotient
from diaghooks.beta import BetaSet, _decoded, partition_of
from diaghooks.cli import main
from diaghooks.errors import InvalidDeltaSet, _ints
from diaghooks.partitions import _EMPTY, DeltaSet, Partition, _frobenius, delta_of, from_delta_lengths

MODULI = st.sampled_from([*range(2, 14), 97, 997])


def assert_checked(la):
    """la is a Partition equal to the checked construction of its parts, all of them plain ints."""
    assert type(la) is Partition
    assert all(type(v) is int for v in la.parts)
    assert Partition(la.parts) == la
    assert hash(Partition(la.parts)) == hash(la)


class TestDecodedValues:
    @given(partitions(), MODULI, st.data())
    def test_readers_and_rebuilds_equal_the_checked_construction(self, la, p, data):
        core, quotient = core_and_quotient(la, p)
        others = [data.draw(partitions(max_part=4, max_rows=4)) for _ in range(3)]
        moved = tuple(others[g] if g < 3 else c for g, c in enumerate(quotient))  # the same core, other beads
        decoded = [core, *quotient, p_core(la, p), *p_quotient(la, p), from_core_and_quotient(core, quotient, p),
                   _rebuild(core, quotient, p), _rebuild(core, moved, p)]
        for value in decoded:
            assert_checked(value)
        assert decoded[-2] == la
        assert core_and_quotient(decoded[-1], p) == (core, moved)

    @given(bead_sets())
    def test_partition_of_equals_the_checked_construction(self, x):
        assert_checked(partition_of(x))

    @pytest.mark.parametrize("ascending", [(), (0,), (0, 1, 2), (3,), (0, 2, 3, 7), [1, 4, 5, 9, 10]])
    def test_decoded_parts(self, ascending):
        la = _decoded(ascending)
        assert_checked(la)
        assert la.parts == tuple(sorted((b - j for j, b in enumerate(ascending) if b > j), reverse=True))

    def test_one_bypass_of_the_checks(self):
        sources = [path.read_text(encoding="utf-8") for path in Path(diaghooks.__file__).parent.glob("*.py")]
        assert sum(text.count("object.__new__(Partition)") for text in sources) == 1
        assert "b[j+1] - (j+1) >= b[j] - j" in _decoded.__doc__


class TestMembershipSet:
    def test_readers_build_no_membership_set(self, count_calls):
        built = count_calls(BetaSet, "__post_init__")
        core_and_quotient(Partition((4, 1, 1, 1)), 3)
        assert built == []  # no bead set, so no membership set either

    def test_answered_from_the_sorted_beads_alone(self):
        x = BetaSet((5, 0, 2))
        assert 2 in x and 1 not in x and 5 in x
        assert vars(x) == {"beads": (0, 2, 5)}  # no second copy of the beads is kept
        assert x == BetaSet((0, 2, 5)) and hash(x) == hash(BetaSet((0, 2, 5)))

    @pytest.mark.parametrize("beads, message", [
        ((3, 1, 3), "duplicate bead position 3"),
        ((0, 0), "duplicate bead position 0"),
        ((4, 2, 7, 2, 4), "duplicate bead position 2"),
    ])
    def test_duplicates_keep_their_message(self, beads, message):
        with pytest.raises(diaghooks.errors.InvalidBetaSet, match=f"^{message}$"):
            BetaSet(beads)


class TestWorkloadRoutes:
    def test_no_route_builds_a_bead_set_or_an_abacus(self, count_calls, capsys):
        # a sweep, one (partition, p) cell of every check, and the p = 997 delta line with the core line it feeds
        bead_sets, abaci = count_calls(BetaSet, "__post_init__"), count_calls(diaghooks.Abacus, "__post_init__")
        assert diaghooks.run_verify(12, (2, 3, 5, 7)).ok
        la, p = from_delta_lengths([61, 45, 31, 23, 15, 13, 9, 3, 1]), 11
        core, quotient = p_core(la, p), p_quotient(la, p)
        assert from_core_and_quotient(core, quotient, p) == la
        assert diaghooks.delta_general(core, quotient, p) == delta_of(la)
        assert diaghooks.is_symmetric_p_core(diaghooks.diagonal_bisequence(la), p) == diaghooks.is_p_core(la, p)
        components = [""] * 997
        components[3], components[993], components[498] = "3,1", "2,1,1", "2,1"
        quotient = [arg for c in components for arg in ("--quotient", c)]
        assert main(["delta", "--from-delta", "--core", "2015,1001,21", *quotient, "--p", "997", "--json"]) == 0
        partition = ",".join(map(str, json.loads(capsys.readouterr().out)["partition"]))
        assert main(["core", partition, "--p", "997", "--json"]) == 0
        assert (len(bead_sets), len(abaci)) == (0, 0)


def reference_delta_set(given):
    """DeltaSet's checks as two loops: every length positive and odd, then strictly decreasing."""
    lengths = tuple(map(diaghooks.errors._as_int, given))
    for k, d in enumerate(lengths):
        if d < 1 or d % 2 == 0:
            raise InvalidDeltaSet(f"{given[k]!r} is not a positive odd integer")
    for a, b in zip(lengths, lengths[1:]):
        if b >= a:
            raise InvalidDeltaSet(f"lengths must strictly decrease, found {a} then {b}")
    return lengths


def outcome(call, *args):
    try:
        return "value", call(*args)
    except InvalidDeltaSet as exc:
        return "error", str(exc)


class TestDeltaSetChecks:
    @given(st.lists(st.one_of(st.integers(-3, 40), st.booleans(), st.sampled_from([2.5, "3", Index(7)])), max_size=7))
    def test_matches_the_loops(self, values):
        given = tuple(values)
        got = outcome(lambda: DeltaSet(given).lengths)
        assert got == outcome(reference_delta_set, given)

    @given(st.sets(st.integers(0, 60), max_size=9))
    def test_valid_lengths_are_kept(self, halves):
        lengths = tuple(sorted((2 * h + 1 for h in halves), reverse=True))
        assert DeltaSet(lengths).lengths == lengths
        assert DeltaSet(tuple(map(Index, lengths))).lengths == lengths


class TestFrobeniusWalk:
    @given(partitions(max_part=12, max_rows=12))
    def test_stops_at_the_durfee_square(self, la):
        durfee = sum(1 for i, part in enumerate(la.parts, 1) if part >= i)
        legs, arms = _frobenius(la)
        assert len(legs) == len(arms) == durfee == la.durfee
        assert arms == tuple(la.parts[i] - i - 1 for i in range(durfee))
        assert legs == tuple(sum(1 for part in la.parts if part > i) - i - 1 for i in range(durfee))


class TestIntsEarlyExit:
    def test_plain_ints_come_back_as_given(self):
        values = (5, 3, 0, -2)
        assert _ints(values) is values

    @pytest.mark.parametrize("values, expected", [
        ((Index(4), 2), (4, 2)),
        ((4, Index(2)), (4, 2)),
        ((1, True, 2.0, "3", Index(9)), (1, -1, -1, -1, 9)),
    ])
    def test_other_values_are_read_one_by_one(self, values, expected):
        got = _ints(values)
        assert got == expected and all(type(v) is int for v in got)


class TestIteration:
    def test_partition_iterates_its_parts(self):
        assert list(Partition((4, 2, 2, 1))) == [4, 2, 2, 1]
        assert list(_EMPTY) == []
        assert tuple(p_core(Partition((4, 1, 1, 1)), 3)) == (1,)

    def test_delta_set_iterates_its_lengths(self):
        assert list(DeltaSet((9, 5, 1))) == [9, 5, 1]
        assert list(DeltaSet(())) == []
        la = from_delta_lengths((7, 3))
        assert sum(delta_of(la)) == la.weight == sum(la)


class TestTokenBounds:
    LONG = "1" * 4301

    @pytest.mark.parametrize("text, shown", [
        ("3,,1", "'' at position 2"),
        ("3, ,1", "'' at position 2"),
        ("3,1,", "'' at position 4"),
        ("2," + LONG, f"{LONG!r} at position 2"),
        (",".join(["1"] * 2500) + "," + LONG, f"{LONG!r} at position 5000"),
        (LONG + ",1", f"{LONG!r} at position 0"),
    ], ids=["empty", "blank", "trailing", "long", "long-after-many", "long-first"])
    def test_refused_tokens_exit_2_with_their_position(self, text, shown, capsys):
        assert main(["core", text, "--p", "3"]) == 2
        assert capsys.readouterr().err == f"error: BadPartitionSyntax: bad token {shown}\n"

    def test_many_short_tokens_past_the_digit_limit_parse(self, capsys):
        text = ",".join(["12"] * 2200)  # 4400 digits together, two in each token
        assert main(["core", text, "--p", "5", "--json"]) == 0
        assert capsys.readouterr().err == ""
