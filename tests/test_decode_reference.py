"""The array decoder of mechanism files against the ``json.loads`` decoder it
replaced, kept here verbatim as the reference.

The reference accepts any valid JSON of the document; the array decoder
also needs the writer's key order. So whenever the array decoder accepts a
text, the reference must accept it too and give bit-identical arrays, and
whenever the reference rejects a text, the array decoder must raise
ParseError.
"""

import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mechlearn import (
    GridSpec,
    MechanismTable,
    ParseError,
    ProfileDomain,
    UsageError,
    deserialize_mechanism,
    enumerate_multi_item,
    serialize_mechanism,
)
from mechlearn import mechanism
from mechlearn.mechanism import _FORMAT, _num_from_str
from mechlearn.outcomes import OutcomeSpace

from conftest import dense, enumerate_profiles


# ---------------------------------------------------------------------------
# The reference: the json.loads decoder, verbatim but for its entry point's
# name.
# ---------------------------------------------------------------------------


def reference_deserialize(text: str) -> MechanismTable:
    """Load a mechanism file; any malformed content raises ParseError."""
    try:
        doc = json.loads(text)
        return _decode_mechanism(doc["header"], doc["rows"])
    except ParseError:
        raise
    except (
        UsageError, KeyError, TypeError, ValueError, AttributeError, OverflowError
    ) as exc:
        raise ParseError(f"mechanism file is not valid: {exc}") from exc


def _decode_mechanism(header: dict, rows: list) -> MechanismTable:
    if header.get("format") != _FORMAT:
        raise ParseError(f"unknown mechanism format {header.get('format')!r}")
    n, m = int(header["n"]), int(header["m"])
    spec = GridSpec(
        epsilon=_num_from_str(header["epsilon"], "header.epsilon"),
        h=_num_from_str(header["h"], "header.h"),
    )
    space_doc = dict(header["space"])
    alloc = [
        [[_num_from_str(x, "space.alloc") for x in row] for row in out]
        for out in space_doc["alloc"]
    ]
    space = OutcomeSpace(
        kind=space_doc["kind"], n=n, m=m, alloc=np.asarray(alloc)
    )
    if header.get("space_hash") != space.content_hash():
        raise ParseError("space_hash does not match the embedded space")
    if header["domain"] == "full":
        # count before enumerating: a corrupt grid step can be huge
        _check_row_count(spec.levels ** (n * m), rows)
        domain = ProfileDomain.full_grid(spec, n, m)
    else:
        domain = ProfileDomain(
            spec=spec,
            supports=tuple(
                tuple(tuple(cell) for cell in row) for row in header["domain"]
            ),
        )
    r, k = domain.num_profiles, space.num_outcomes
    _check_row_count(r, rows)
    probs = np.zeros((r, k))
    payments = np.zeros((r, n))
    for rank, (row, profile) in enumerate(zip(rows, enumerate_profiles(domain))):
        flat = [idx for bidder in profile for idx in bidder]
        if row.get("profile") != flat:
            raise ParseError(
                f"row {rank}: profile {row.get('profile')} out of order; expected {flat}"
            )
        total = 0.0
        for e, entry in enumerate(row.get("entries", [])):
            where = f"row {rank} entry {e}"
            o = int(entry["outcome"])
            if not (0 <= o < k):
                raise ParseError(f"{where}: outcome {o} outside the space")
            p = _num_from_str(entry["p"], where)
            probs[rank, o] += p
            total += p
            pay = [_num_from_str(x, where) for x in entry["pay"]]
            if e and pay != payments[rank].tolist():
                raise ParseError(f"{where}: payments {pay} disagree with entry 0")
            payments[rank] = pay
        if not abs(total - 1.0) <= 1e-9:
            raise ParseError(f"row {rank}: lottery probabilities sum to {total!r}")
    return MechanismTable(
        domain=domain,
        space=space,
        probs=probs,
        payments=payments,
        meta=dict(header.get("meta", {})),
    )


def _check_row_count(expected: int, rows: list) -> None:
    if len(rows) != expected:
        raise ParseError(
            f"expected {expected} rows for the declared domain, got {len(rows)}"
        )


# ---------------------------------------------------------------------------
# Random tables.
# ---------------------------------------------------------------------------

_META_STRINGS = [
    "naïve ε-grid, 日本語",
    ']},{"entries":[',
    '],"profile":[',
    " spaced\tout\nacross lines ",
    '{"outcome":0,"p":"1.0"}',
    "",
]
_PAYMENTS = [0.0, -0.0, 1 / 3, 2 / 3, 1.1, -2.5, 1e-300, 123456.789, 0.1 + 0.2]
MAX_ROWS = 300


def _random_supports(rng, levels: int, n: int, m: int):
    while True:
        supports = tuple(
            tuple(
                tuple(sorted(rng.choice(levels, int(rng.integers(1, levels + 1)),
                                        replace=False).tolist()))
                for _ in range(m)
            )
            for _ in range(n)
        )
        size = np.prod([len(c) for row in supports for c in row])
        if size <= MAX_ROWS:
            return supports


def _random_lottery(rng, k: int) -> np.ndarray:
    row = np.zeros(k)
    kind = rng.integers(4)
    if kind == 0 or k < 3:  # a point mass
        row[rng.integers(k)] = 1.0
    elif kind == 1:  # thirds
        row[rng.choice(k, 3, replace=False)] = 1 / 3
    else:  # random weights, some exactly zero, one maybe a negative zero
        support = rng.choice(k, int(rng.integers(1, k + 1)), replace=False)
        w = rng.random(len(support))
        row[support] = w / w.sum()
        row[rng.integers(k)] *= rng.integers(2)
        if row.sum() == 0.0:
            row[0] = 1.0
        row /= row.sum()
        if kind == 3:
            row[row == 0.0] = -0.0
    return row


def random_table(rng) -> MechanismTable:
    n, m = int(rng.integers(1, 4)), int(rng.integers(1, 3))
    spec = GridSpec(epsilon=0.5, h=float(rng.choice([0.5, 1.0, 1.5])))
    levels = spec.levels
    if rng.random() < 0.4 and levels ** (n * m) <= MAX_ROWS:
        domain = ProfileDomain.full_grid(spec, n, m)
    else:
        domain = ProfileDomain(spec=spec, supports=_random_supports(rng, levels, n, m))
    space = enumerate_multi_item(n, m)
    r, k = domain.num_profiles, space.num_outcomes
    probs = np.stack([_random_lottery(rng, k) for _ in range(r)])
    payments = rng.choice(np.array(_PAYMENTS), size=(r, n))
    keys = rng.choice(len(_META_STRINGS), int(rng.integers(0, 4)), replace=False)
    meta = {f"k{int(i)}": _META_STRINGS[i] for i in keys}
    if rng.random() < 0.5:
        meta["nested"] = {"bound": 0.1, "list": [1, None, True, "ü"]}
    return MechanismTable(
        domain=domain, space=space, probs=probs, payments=payments, meta=meta
    )


def assert_same_table(a: MechanismTable, b: MechanismTable) -> None:
    assert a.domain == b.domain
    assert a.space.content_hash() == b.space.content_hash()
    (a_probs, a_pay), (b_probs, b_pay) = dense(a), dense(b)
    assert a_probs.tobytes() == b_probs.tobytes()
    assert a_pay.tobytes() == b_pay.tobytes()
    assert a.meta == b.meta


def test_random_tables_decode_as_the_reference():
    rng = np.random.default_rng(20181018)
    for _ in range(300):
        text = serialize_mechanism(random_table(rng))
        back = deserialize_mechanism(text)
        assert_same_table(back, reference_deserialize(text))
        assert serialize_mechanism(back) == text


@pytest.mark.parametrize("seed", range(5))
def test_whitespace_layouts_decode_alike(seed):
    table = random_table(np.random.default_rng(seed))
    text = serialize_mechanism(table)
    doc = json.loads(text)
    at = text.index(',"rows":[')  # spread out the rows, whose strings hold no , or :
    spread = text[:at] + text[at:].replace(",", " ,\t").replace(":", " :\r\n")
    for variant in (json.dumps(doc), json.dumps(doc, indent=2), text + "\n",
                    "\r\n " + spread + " \n"):
        back = deserialize_mechanism(variant)
        assert_same_table(back, deserialize_mechanism(text))
        assert serialize_mechanism(back) == text


def test_fraction_numbers_decode_as_the_reference():
    table = MechanismTable(
        domain=ProfileDomain.full_grid(GridSpec(epsilon=1.0, h=1.0), 1, 1),
        space=enumerate_multi_item(1, 1),
        probs=np.array([[1.0, 0.0], [0.25, 0.75]]),
        payments=np.array([[0.0], [1 / 3]]),
    )
    text = serialize_mechanism(table)
    text = text.replace('"0.25"', '"1/4"').replace('"0.3333333333333333"', '" 1/3 "')
    assert_same_table(deserialize_mechanism(text), reference_deserialize(text))
    with pytest.raises(ParseError, match="row 1 entry 0: bad number '1/0'"):
        deserialize_mechanism(text.replace('"1/4"', '"1/0"'))


# ---------------------------------------------------------------------------
# Mutated documents.
# ---------------------------------------------------------------------------


def _small_texts() -> list[str]:
    rng = np.random.default_rng(7)
    tables = [random_table(rng) for _ in range(40)]
    small = [t for t in tables if t.domain.num_profiles <= 12][:4]
    texts = [serialize_mechanism(t) for t in small]
    return texts + [json.dumps(json.loads(texts[0]), indent=1)]


SMALL_TEXTS = _small_texts()


def assert_agrees_with_reference(text: str) -> None:
    try:
        ref = reference_deserialize(text)
    except ParseError:
        ref = None
    try:
        back = deserialize_mechanism(text)
    except ParseError:
        return
    assert ref is not None, "accepted a document the reference rejects"
    assert_same_table(back, ref)


_SNIPPETS = st.sampled_from([
    "{", "}", "[", "]", ":", ",", '"', " ", "\n", "\\", "0", "1", "-", ".", "/",
    "e", "1.0", "-0.0", '"0.5"', '"1/2"', "null", '"outcome":', '"p":', '"pay":',
    '"profile":', '"entries":', ']},{"entries":[', '],"profile":[', "\x01",
])


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_text_mutations_agree_with_reference(data):
    text = data.draw(st.sampled_from(SMALL_TEXTS))
    for _ in range(data.draw(st.integers(1, 3))):
        a = data.draw(st.integers(0, len(text)))
        b = data.draw(st.integers(a, min(len(text), a + 8)))
        op = data.draw(st.sampled_from(["delete", "insert", "replace", "copy"]))
        if op == "delete":
            text = text[:a] + text[b:]
        elif op == "insert":
            text = text[:a] + data.draw(_SNIPPETS) + text[a:]
        elif op == "replace":
            text = text[:a] + data.draw(_SNIPPETS) + text[b:]
        else:  # copy a slice of the document elsewhere
            at = data.draw(st.integers(0, len(text)))
            text = text[:at] + text[a:b] + text[at:]
    assert_agrees_with_reference(text)


_JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 20) | st.floats()
    | st.sampled_from(["1.0", "0.5", "1/2", "-0.0", "nan", " 1", "x"])
    | st.text(max_size=6),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=6), inner, max_size=3),
    max_leaves=6,
)


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_json_mutations_agree_with_reference(data):
    doc = json.loads(data.draw(st.sampled_from(SMALL_TEXTS)))
    node = doc
    while True:  # walk down to a random container, then mutate one child
        key = data.draw(st.sampled_from(list(node) if isinstance(node, dict)
                                        else range(len(node))))
        child = node[key]
        if not (isinstance(child, (dict, list)) and child and data.draw(st.booleans())):
            break
        node = child
    action = data.draw(st.sampled_from(["delete", "replace", "duplicate"]))
    if action == "delete":
        del node[key]
    elif action == "replace":
        node[key] = data.draw(_JSON_VALUES)
    elif isinstance(node, list):
        node.insert(key, json.loads(json.dumps(node[key])))
    indent = data.draw(st.sampled_from([None, 1]))
    separators = data.draw(st.sampled_from([None, (",", ":")]))
    assert_agrees_with_reference(json.dumps(doc, indent=indent, separators=separators))


# ---------------------------------------------------------------------------
# Guards: a text that fails its layout or row count is refused before
# anything of the declared number of rows is allocated.
# ---------------------------------------------------------------------------


def _guard_table() -> MechanismTable:
    spec = GridSpec(epsilon=1.0, h=4.0)  # 5 levels: 5**6 = 15625 rows
    domain = ProfileDomain.full_grid(spec, 3, 2)
    space = enumerate_multi_item(3, 2)
    probs = np.zeros((domain.num_profiles, space.num_outcomes))
    probs[:, 0] = 1.0
    return MechanismTable(
        domain=domain, space=space, probs=probs,
        payments=np.zeros((domain.num_profiles, 3)),
    )


GUARD_TEXT = serialize_mechanism(_guard_table())
GUARD_ROWS = 15625
FIRST_ENTRY = '{"outcome":0,"p":"1.0","pay":["0.0","0.0","0.0"]}'


def _big_support_domain(text: str) -> str:
    doc = json.loads(text)
    header = doc["header"]
    header["epsilon"] = "0.25"  # 17 levels, 10 of them in each support cell:
    header["domain"] = [[list(range(10))] * 2] * 3  # 10**6 rows, probs of 128 MB
    head = json.dumps(header, sort_keys=True, separators=(",", ":"))
    return '{"header":' + head + text[text.index(',"rows":['):]


def _rows_first(text: str) -> str:
    at = text.index(',"rows":[')
    return '{"rows":' + text[at + len(',"rows":'):-1] + ',"header":' + text[10:at] + "}"


def _profile_first(text: str) -> str:
    doc = json.loads(text)
    doc["rows"] = [{"profile": r["profile"], "entries": r["entries"]} for r in doc["rows"]]
    return json.dumps(doc, separators=(",", ":"))


GUARD_CASES = {
    "huge_full_grid": lambda t: t.replace('"epsilon":"1.0"', '"epsilon":"1e-6"'),
    "big_support_domain": _big_support_domain,
    "truncated": lambda t: t[: len(t) // 2],
    "extra_key_after_rows": lambda t: t[:-1] + ',"extra":[]}',
    "extra_data_after_rows": lambda t: t + "{}",
    "empty_entries": lambda t: t.replace(FIRST_ENTRY, "", 1),
    "entry_keys_reordered": lambda t: t.replace(
        '{"outcome":0,"p":"1.0",', '{"p":"1.0","outcome":0,'),
    "row_keys_reordered": _profile_first,
    "rows_before_header": _rows_first,
}


# valid JSON of the same document, in another layout than the writer's
VALID_JSON = {"extra_key_after_rows", "entry_keys_reordered", "row_keys_reordered",
              "rows_before_header"}


@pytest.mark.parametrize("case", GUARD_CASES)
def test_guards_refuse_before_allocating_rows(case):
    text = GUARD_CASES[case](GUARD_TEXT)
    reference_error = None
    try:
        reference_deserialize(text)
    except ParseError as exc:
        reference_error = exc
    valid_json = case in VALID_JSON
    assert (reference_error is None) == valid_json
    tracemalloc.start()
    try:
        with pytest.raises(ParseError) as err:
            deserialize_mechanism(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * GUARD_ROWS, f"{peak} bytes allocated"
    if valid_json:
        assert '{"header":{...},"rows":[{"entries":[{"outcome":O' in str(err.value)


# ---------------------------------------------------------------------------
# Blocks: with blocks of a few dozen characters nearly every row is a block
# of its own, and the decoder must accept, refuse and report as with one.
# ---------------------------------------------------------------------------

SMALL_BLOCK = 40


@pytest.fixture
def small_blocks(monkeypatch):
    monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", SMALL_BLOCK)


@pytest.mark.parametrize(
    "prop",
    [
        test_random_tables_decode_as_the_reference,
        test_fraction_numbers_decode_as_the_reference,
        test_text_mutations_agree_with_reference,
        test_json_mutations_agree_with_reference,
    ],
)
def test_agreement_holds_in_small_blocks(small_blocks, prop):
    prop()


@pytest.mark.parametrize("seed", range(5))
def test_whitespace_layouts_decode_alike_in_small_blocks(small_blocks, seed):
    test_whitespace_layouts_decode_alike(seed)


def _two_entry_text() -> str:
    """25 rows (n = 1, m = 2, five levels), each a lottery of two entries."""
    spec = GridSpec(epsilon=0.5, h=2.0)
    domain = ProfileDomain.full_grid(spec, 1, 2)
    space = enumerate_multi_item(1, 2)
    r = domain.num_profiles
    probs = np.zeros((r, space.num_outcomes))
    probs[:, 0] = 0.5
    probs[np.arange(r), 1 + np.arange(r) % 3] = 0.5
    payments = np.arange(r, dtype=float)[:, None] / 4
    return serialize_mechanism(MechanismTable(
        domain=domain, space=space, probs=probs, payments=payments
    ))


TWO_ENTRY_TEXT = _two_entry_text()
LATE = 20  # the row each case breaks, far past the first small block


def _late_row(text: str, rank: int = LATE) -> tuple[int, int]:
    """Start and end of row ``rank``'s text, without the comma after it."""
    start = -1
    for _ in range(rank + 1):
        start = text.index('{"entries":[{"outcome":', start + 1)
    return start, text.index("]}", text.index('"profile":[', start)) + 2


def _edit_late_row(edit, rank: int = LATE):
    def mutate(text: str) -> str:
        a, b = _late_row(text, rank)
        return text[:a] + edit(text[a:b]) + text[b:]
    return mutate


def _swap_profiles(text: str) -> str:
    a, b = _late_row(text)
    c, d = _late_row(text, LATE + 1)
    row, after = text[a:b], text[c:d]
    mine, theirs = (r[r.index('"profile":'):] for r in (row, after))
    return (text[:a] + row.replace(mine, theirs) + text[b:c]
            + after.replace(theirs, mine) + text[d:])


def _opener_in_profile(text: str) -> str:
    return _edit_late_row(lambda row: row.replace(
        '"profile":[', '"profile":[{"entries":[{"outcome":'))(text)


def _drop_last_row(text: str) -> str:
    a, b = _late_row(text, 24)
    return text[: a - 1] + text[b:]


def _drop_comma_after_row(text: str) -> str:
    b = _late_row(text)[1]
    return text[:b] + text[b + 1:]


def _in_last_entry(key: str, insert: str):
    """Insert text at the start of the row's last entry's ``key`` value."""
    def edit(row: str) -> str:
        head, sep, tail = row.rpartition(key)
        return head + sep + insert + tail
    return _edit_late_row(edit)


LATE_BLOCK_CASES = {
    "missing_comma_between_rows": _drop_comma_after_row,
    "opener_in_a_profile": _opener_in_profile,
    # the same with the last row gone, so that the row count still holds
    "opener_in_a_profile_and_a_row_less": lambda t: _opener_in_profile(_drop_last_row(t)),
    "profile_out_of_order": _swap_profiles,
    "bad_outcome": _in_last_entry('"outcome":', "9"),
    "bad_number": _in_last_entry('"p":"', "x"),
    "disagreeing_payments": _in_last_entry('"pay":["', "7"),
    "bad_lottery_sum": _edit_late_row(lambda row: row.replace('"p":"0.5"', '"p":"0.25"', 1)),
}


@pytest.mark.parametrize("case", LATE_BLOCK_CASES)
def test_late_block_errors_read_as_with_one_block(monkeypatch, case):
    text = LATE_BLOCK_CASES[case](TWO_ENTRY_TEXT)
    errors = []
    for block in (10**9, SMALL_BLOCK):
        monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
        with pytest.raises(ParseError) as err:
            deserialize_mechanism(text)
        errors.append(str(err.value))
    assert errors[0] == errors[1]
    with pytest.raises(ParseError):
        reference_deserialize(text)
    if case not in ("missing_comma_between_rows", "opener_in_a_profile"):
        assert f"row {LATE}" in errors[0]


def test_decode_peak_memory_stays_under_one_and_a_half_arrays():
    # n = 3, m = 2 on a five-level grid: 15625 rows of 16 outcomes, each a
    # lottery of one or two of them
    spec = GridSpec(epsilon=1.0, h=4.0)
    domain = ProfileDomain.full_grid(spec, 3, 2)
    space = enumerate_multi_item(3, 2)
    r, k = domain.num_profiles, space.num_outcomes
    rng = np.random.default_rng(0)
    probs = np.zeros((r, k))
    probs[np.arange(r), rng.integers(0, k, r)] = 0.5
    probs[np.arange(r), rng.integers(0, k, r)] += 0.5
    payments = rng.uniform(0.0, 2.0, size=(r, 3))
    text = serialize_mechanism(MechanismTable(
        domain=domain, space=space, probs=probs, payments=payments
    ))
    tracemalloc.start()
    try:
        back = deserialize_mechanism(text)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * (probs.nbytes + payments.nbytes)
    back_probs, back_pay = dense(back)
    assert back_probs.tobytes() == probs.tobytes()
    assert back_pay.tobytes() == payments.tobytes()


# ---------------------------------------------------------------------------
# Entries: each distinct entries text is read with json.loads, so JSON
# escapes in its strings read as the reference reads them, while an entry
# must still hold exactly the writer's keys.
# ---------------------------------------------------------------------------


def _one_item_text() -> str:
    """Two rows: the point mass {"outcome":0,"p":"1.0","pay":["0.0"]} and a
    two-entry lottery paying 1/3."""
    return serialize_mechanism(MechanismTable(
        domain=ProfileDomain.full_grid(GridSpec(epsilon=1.0, h=1.0), 1, 1),
        space=enumerate_multi_item(1, 1),
        probs=np.array([[1.0, 0.0], [0.25, 0.75]]),
        payments=np.array([[0.0], [1 / 3]]),
    ))


@pytest.mark.parametrize("block", [10**9, SMALL_BLOCK])
def test_json_escapes_in_number_strings_decode_as_the_reference(monkeypatch, block):
    monkeypatch.setattr(mechanism, "DECODE_BLOCK_CHARS", block)
    text = _one_item_text()
    escaped = text.replace('"p":"1.0"', '"p":"\\u0031.0"').replace(
        '"0.3333333333333333"', '"0.\\u0033333333333333333"'
    ).replace('"0.75"', '"0\\u002e75"')
    assert escaped.count("\\u") == 4
    back = deserialize_mechanism(escaped)
    assert_same_table(back, reference_deserialize(escaped))
    assert serialize_mechanism(back) == text


@pytest.mark.parametrize(
    "entry",
    [
        '{"outcome":0,"p":"1.0","pay":["0.0"],"p":"1.0"}',
        '{"outcome":0,"outcome":0,"p":"1.0","pay":["0.0"]}',
        '{"outcome":0,"p":"1.0","pay":["0.0"],"note":1}',
    ],
    ids=["repeated_p", "repeated_outcome", "extra_key"],
)
def test_entries_with_repeated_or_extra_keys_are_refused(entry):
    text = _one_item_text().replace('{"outcome":0,"p":"1.0","pay":["0.0"]}', entry, 1)
    reference_deserialize(text)  # valid JSON of a document the reference reads
    with pytest.raises(ParseError) as err:
        deserialize_mechanism(text)
    assert str(err.value).startswith(
        'mechanism file does not follow the layout {"header":{...},"rows":['
    )
    assert "row 0 entry 0" in str(err.value)
