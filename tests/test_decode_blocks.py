"""The reader's block check: each block of rows must equal the writer's text
of those rows, and a faulty file must give the same ParseError whatever the
block size, naming the first failing row whether its profile or its entries
text fails."""

import numpy as np
import pytest

from mechlearn import (
    GridSpec,
    MechanismTable,
    ParseError,
    PriorCell,
    PriorDescription,
    ProfileDomain,
    deserialize_mechanism,
    enumerate_multi_item,
    learn_dsic,
    sample_prior,
    serialize_mechanism,
)
from mechlearn import mechanism

from conftest import dense
from test_decode_reference import (
    SMALL_BLOCK,
    TWO_ENTRY_TEXT,
    _drop_last_row,
    _edit_late_row,
    reference_deserialize,
)

BLOCKS = (SMALL_BLOCK, 2**16, 10**9)


def _errors(monkeypatch, text: str) -> list[str]:
    errors = []
    for block in BLOCKS:
        monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
        with pytest.raises(ParseError) as err:
            deserialize_mechanism(text)
        errors.append(str(err.value))
    return errors


def _replace_in_row(rank: int, old: str, new: str):
    return _edit_late_row(lambda row: row.replace(old, new, 1), rank)


def _bad_number(rank: int):
    return _replace_in_row(rank, '"p":"0.5"', '"p":"x0.5"')


# ---------------------------------------------------------------------------
# Order: a bad profile and a bad entries text in different rows of one block
# give the first row's error, as they do in blocks of a row or two.
# ---------------------------------------------------------------------------


def _row_start(text: str, rank: int) -> int:
    start = -1
    for _ in range(rank + 1):
        start = text.index('{"entries":[{"outcome":', start + 1)
    return start


def _profile_at(rank: int, profile: str):
    """Row ``rank`` with the profile ``[profile]``."""
    def mutate(text: str) -> str:
        at = text.index('"profile":[', _row_start(text, rank)) + len('"profile":[')
        return text[:at] + profile + text[text.index("]", at):]
    return mutate


ORDER_CASES = {
    "bad_number_before_bad_profile": (
        lambda t: _profile_at(10, "9,0")(_bad_number(5)(t)),
        "row 5 entry 0: bad number 'x0.5'",
    ),
    "bad_profile_before_bad_number": (
        lambda t: _bad_number(10)(_profile_at(5, "9,0")(t)),
        "row 5: profile [9,0] out of order; expected [1,0]",
    ),
    "bad_profile_and_bad_number_in_one_row": (
        lambda t: _bad_number(5)(_profile_at(5, "9,0")(t)),
        "row 5: profile [9,0] out of order; expected [1,0]",
    ),
    # the row's separator does not match, so its entries text runs on into
    # the next row's; a block must not end between them
    "stray_bracket_after_a_profile": (
        _profile_at(5, "1,0]"),
        "row 5: profile [1,1] out of order; expected [1,0]",
    ),
    # the last row does not end as a row, and nothing follows it
    "bad_number_before_a_malformed_last_row": (
        lambda t: _profile_at(24, "4,4]")(_bad_number(5)(t)),
        "row 5 entry 0: bad number 'x0.5'",
    ),
    "malformed_last_row": (
        _profile_at(24, "4,4]"),
        'mechanism file does not follow the layout {"header":{...},"rows":['
        '{"entries":[{"outcome":O,"p":"P","pay":["X",...]},...],"profile":[I,...]},...]}:'
        " the rows text is not a list of such rows",
    ),
    # a row past the 25 of the domain
    "a_row_past_the_domain": (
        lambda t: t[:-2] + ',{"entries":[],"profile":[0,0]}' + t[-2:],
        "row 25: the declared domain has only 25 rows",
    ),
}


@pytest.mark.parametrize("case", ORDER_CASES)
@pytest.mark.parametrize("block", [SMALL_BLOCK, 10**9])
def test_the_first_failing_row_is_named_whatever_the_block(monkeypatch, case, block):
    mutate, message = ORDER_CASES[case]
    text = mutate(TWO_ENTRY_TEXT)
    monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
    with pytest.raises(ParseError) as err:
        deserialize_mechanism(text)
    assert str(err.value) == message
    with pytest.raises(ParseError):
        reference_deserialize(text)


# ---------------------------------------------------------------------------
# Where in a block: 1296 rows of about a hundred characters make three blocks
# of 2**16 characters; a bad profile at either side of a block boundary and
# in the final row reads alike in blocks of one row, 2**16 characters and
# the whole text.
# ---------------------------------------------------------------------------


def _many_rows_text() -> str:
    """1296 rows (n = 2, m = 2, six levels), each a lottery of two entries."""
    spec = GridSpec(epsilon=0.25, h=1.25)
    domain = ProfileDomain.full_grid(spec, 2, 2)
    space = enumerate_multi_item(2, 2)
    r = domain.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    probs[:, 0] = 0.5
    probs[np.arange(r), 1 + np.arange(r) % 5] = 0.5
    payments = np.stack([np.arange(r) / 8, np.arange(r) % 7 / 4], axis=1)
    return serialize_mechanism(MechanismTable(
        domain=domain, space=space, probs=probs, payments=payments
    ))


MANY_ROWS_TEXT = _many_rows_text()
ROWS = 1296


def _second_block_row(text: str) -> int:
    """Rank of the first row of the second block of 2**16 characters."""
    rows = text.index('"rows":[') + len('"rows":[')
    cut = text.index(']},{"entries":[', rows + 2**16) + len("]},")
    return text.count('{"entries":[{"outcome":', rows, cut)


FIRST_OF_BLOCK = _second_block_row(MANY_ROWS_TEXT)


BLOCK_EDGE_CASES = {
    "first_row_of_a_block": (_profile_at(FIRST_OF_BLOCK, "0,0,0,0"), FIRST_OF_BLOCK),
    "first_row_of_a_block_short": (_profile_at(FIRST_OF_BLOCK, "0,0,0"), FIRST_OF_BLOCK),
    "last_row_of_a_block": (_profile_at(FIRST_OF_BLOCK - 1, "0,0,0,0"), FIRST_OF_BLOCK - 1),
    "last_row_of_a_block_long": (
        _profile_at(FIRST_OF_BLOCK - 1, "0,0,0,0,0"), FIRST_OF_BLOCK - 1
    ),
    "final_row": (_profile_at(ROWS - 1, "0,0,0,0"), ROWS - 1),
    "final_row_empty": (_profile_at(ROWS - 1, ""), ROWS - 1),
}


def test_the_text_spans_three_blocks():
    assert len(MANY_ROWS_TEXT) > 2 * 2**16
    assert MANY_ROWS_TEXT.count('{"entries":[{"outcome":') == ROWS
    assert 0 < FIRST_OF_BLOCK < ROWS - 1


@pytest.mark.parametrize("case", BLOCK_EDGE_CASES)
def test_a_bad_profile_at_a_block_edge_reads_alike_in_every_block(monkeypatch, case):
    mutate, rank = BLOCK_EDGE_CASES[case]
    text = mutate(MANY_ROWS_TEXT)
    errors = _errors(monkeypatch, text)
    assert len(set(errors)) == 1
    assert errors[0].startswith(f"row {rank}: profile [")
    with pytest.raises(ParseError):
        reference_deserialize(text)


# ---------------------------------------------------------------------------
# A row separator inside an entries string: the block splits inside the
# string, and the pieces must still fail as the one row they are.
# ---------------------------------------------------------------------------

LATE = 20  # profile [4,0]

SEPARATOR_CASES = {
    # the split makes one row more; the first piece is not JSON
    "separator_in_a_string": _replace_in_row(
        LATE, '"p":"0.5"', '"p":"],"profile":[4,0]},{"entries":[0.5"'
    ),
    # the same with a wrong profile inside the string
    "separator_with_a_wrong_profile_in_a_string": _replace_in_row(
        LATE, '"p":"0.5"', '"p":"],"profile":[0,0]},{"entries":[0.5"'
    ),
    # a whole row opener, with the last row gone so that the row count holds
    "opener_in_a_string_and_a_row_less": lambda t: _replace_in_row(
        LATE, '"p":"0.5"', '"p":"],"profile":[4,0]},{"entries":[{"outcome":0.5"'
    )(_drop_last_row(t)),
}


@pytest.mark.parametrize("case", SEPARATOR_CASES)
def test_a_row_separator_inside_a_string_reads_alike_in_every_block(monkeypatch, case):
    text = SEPARATOR_CASES[case](TWO_ENTRY_TEXT)
    errors = _errors(monkeypatch, text)
    assert len(set(errors)) == 1
    assert errors[0].startswith(("row 20", "mechanism file does not follow the layout"))
    assert "row 20" in errors[0]
    with pytest.raises(ParseError):
        reference_deserialize(text)


# ---------------------------------------------------------------------------
# A learned table of three bidders decodes and re-serializes to its bytes.
# ---------------------------------------------------------------------------


def test_a_learned_three_bidder_table_round_trips_in_every_block(monkeypatch, additive):
    cell = PriorCell("uniform", {"low": 0.0, "high": 1.0})
    desc = PriorDescription(n=3, m=2, h=1.0, cells=((cell,) * 2,) * 3)
    samples = sample_prior(desc, 3, 2, 20, seed=5)
    inner = learn_dsic(samples, 0.5, enumerate_multi_item(3, 2), additive).inner
    assert inner.domain.is_full_grid and inner.domain.num_profiles == 3**6
    text = serialize_mechanism(inner)
    for block in BLOCKS:
        monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
        back = deserialize_mechanism(text)
        assert serialize_mechanism(back) == text
        (back_probs, back_pay), (probs, pay) = dense(back), dense(inner)
        assert back_probs.tobytes() == probs.tobytes()
        assert back_pay.tobytes() == pay.tobytes()
