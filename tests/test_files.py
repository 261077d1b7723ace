import re

import pytest
from hypothesis import example, given, settings, strategies as st

from kadlab.algebra import (Profile, bool2_model, check_axioms, lemma4_model,
                            near_as_model, trivial_model)
from kadlab import files
from kadlab.errors import KadlabError, ParseError
from kadlab.files import dump_model, load_model, load_program_file
from kadlab.relations import Rel, rel_algebra_model
from naive_oracle import naive_load_model

LEMMA4_TEXT = """
# the three-element separation witness
carrier: 0 a 1
zero: 0
one: 1
tests: 0 1
plus: 0 0 -> 0
plus: 0 a -> a
plus: 0 1 -> 1
plus: a 0 -> a
plus: a a -> a
plus: a 1 -> 1
plus: 1 0 -> 1
plus: 1 a -> 1
plus: 1 1 -> 1
times: 0 0 -> 0
times: 0 a -> 0
times: 0 1 -> 0
times: a 0 -> 0
times: a a -> 0
times: a 1 -> a
times: 1 0 -> 0
times: 1 a -> a
times: 1 1 -> 1
star: 0 -> 1
star: a -> 1
star: 1 -> 1
not: 0 -> 1
not: 1 -> 0
"""


def test_load_lemma4_equivalent():
    m = load_model(LEMMA4_TEXT, name="file")
    assert check_axioms(m, Profile.KAT).passed
    ref = lemma4_model()
    assert m.carrier == ref.carrier
    for i in range(3):
        for j in range(3):
            assert m.plus(i, j) == ref.plus(i, j)
            assert m.times(i, j) == ref.times(i, j)


@pytest.mark.parametrize("factory", [
    lemma4_model, bool2_model, near_as_model, trivial_model,
    lambda: rel_algebra_model(1)])
def test_dump_load_roundtrip(factory):
    m = factory()
    again = load_model(dump_model(m), name=m.name)
    assert again.carrier == m.carrier
    assert again.zero == m.zero and again.one == m.one
    assert again.tests == m.tests
    for i in range(m.size):
        for j in range(m.size):
            assert again.plus(i, j) == m.plus(i, j)
            assert again.times(i, j) == m.times(i, j)
        for op in ("star", "adom", "aran"):
            if m.has_op(op):
                assert getattr(again, op)(i) == getattr(m, op)(i)


def test_missing_row_is_an_error():
    text = LEMMA4_TEXT.replace("times: a a -> 0\n", "")
    with pytest.raises(ParseError, match="missing times row for a a"):
        load_model(text)


def test_duplicate_row_is_an_error():
    text = LEMMA4_TEXT + "plus: 0 0 -> 0\n"
    with pytest.raises(ParseError, match="duplicate"):
        load_model(text)


def test_partial_unary_table_is_an_error():
    text = LEMMA4_TEXT.replace("star: a -> 1\n", "")
    with pytest.raises(ParseError, match="missing star row"):
        load_model(text)


def test_unknown_element_is_an_error():
    text = LEMMA4_TEXT + "plus: 0 b -> 0\n"
    with pytest.raises(ParseError, match="unknown element"):
        load_model(text)


# the bulk reader refuses an empty carrier, so each of these texts, with
# rows, a comment or neither, is read line by line and fails in _build
@pytest.mark.parametrize("text", [
    "carrier:\nzero: 0\none: 0\n", "carrier:  # none\nzero: 0\none: 0\n",
    "carrier:\nzero: 0\none: 0\nplus: 0 0 -> 0\ntimes: 0 0 -> 0\n",
    "carrier:\nzero: 0\none: 0\nplus: 0 0 -> 0\n# a comment\n"])
def test_empty_carrier_line_is_an_error(text):
    with pytest.raises(ParseError, match="^m: empty carrier line$"):
        load_model(text, name="m")
    assert _outcome(naive_load_model, text) == _outcome(load_model, text)


def test_unknown_directive_is_an_error():
    with pytest.raises(ParseError, match="unknown directive"):
        load_model("carrier: 0\nzero: 0\none: 0\nfoo: bar\n")


def test_duplicate_carrier_elements_are_an_error():
    with pytest.raises(ParseError) as info:
        load_model("carrier: a b a\nzero: a\none: b\n", name="m")
    assert (type(info.value), str(info.value)) == (
        ParseError, "m: duplicate carrier elements")


@pytest.mark.parametrize("key,first,again", [
    ("carrier", "carrier: 0 a 1", "carrier: 0 a 1 b"),
    ("zero", "zero: 0", "zero: 1"),
    ("one", "one: 1", "one: a"),
    ("tests", "tests: 0 1", "tests: 0 1"),
])
def test_repeated_header_line_is_an_error(key, first, again):
    lines = LEMMA4_TEXT.splitlines()
    assert first in lines
    text = "\n".join(lines + [again]) + "\n"
    with pytest.raises(ParseError, match=f"duplicate {key} line") as info:
        load_model(text)
    assert info.value.line == len(lines) + 1


def test_row_spacing_is_free_around_colon_and_arrow():
    text = LEMMA4_TEXT.replace("plus: 0 a -> a", "plus:0 a->a").replace(
        "star: a -> 1", "  star :a   ->1  # spaced")
    assert dump_model(load_model(text)) == dump_model(load_model(LEMMA4_TEXT))


# ---------------------------------------------------------------------------
# the one-pass loader against the loader it replaced

_HEADERS = ("carrier", "zero", "one", "tests")
_BASES = [dump_model(m) for m in (lemma4_model(), bool2_model(),
                                  near_as_model(), trivial_model(),
                                  rel_algebra_model(1), rel_algebra_model(2))]
# lemma4's + and ; alone, a dioid: with no unary rows, an element renamed to
# a name holding "->" breaks only binary rows
_DIOID_TEXT = "\n".join(
    line for line in _BASES[0].splitlines()
    if line.startswith(("carrier", "zero", "one", "plus", "times"))) + "\n"
_BASES += [_DIOID_TEXT, LEMMA4_TEXT]


# a find-models block: its comment line, then the dump
COMMENTED_DUMP = "# model 1 (search-kad-4-1)\n" + _BASES[0]


def _record_read_lines(monkeypatch):
    """The (line number, line) pairs that ``files._read_lines`` is given
    from now on, in the order given."""
    read = []
    read_lines = files._read_lines

    def recording(numbered, name):
        numbered = list(numbered)
        read.extend(numbered)
        return read_lines(numbered, name)

    monkeypatch.setattr(files, "_read_lines", recording)
    return read


def test_a_commented_dump_has_its_rows_read_in_bulk(monkeypatch):
    pairs = _record_read_lines(monkeypatch)
    assert dump_model(load_model(COMMENTED_DUMP)) == _BASES[0]
    read = [line for _, line in pairs]
    assert read[0] == "# model 1 (search-kad-4-1)"
    assert not [line for line in read if line.startswith(("plus", "times"))]


def _respace(line, style):
    key, _, rest = line.partition(":")
    lhs, arrow, out = rest.partition("->")
    if style == 0:
        return f"{key}:{lhs.strip()}{arrow}{out.strip()}"
    if style == 1:
        return f"  {key} :\t{'  '.join(lhs.split())}  {arrow}{out}  "
    return f"{key}: {lhs.strip()} {arrow}  {out.strip()} # note"


# lemma4 with its rows spaced by hand, the three styles in turn, and a dump
# with tabs around "->": the bulk read refuses both by their bulk lines alone
_HAND_SPACED = "".join(
    (_respace(line, k % 3) if "->" in line else line) + "\n"
    for k, line in enumerate(LEMMA4_TEXT.splitlines()))
_TABBED_DUMP = _BASES[0].replace(" -> ", "\t->\t")


@pytest.mark.parametrize("text", [_HAND_SPACED, _TABBED_DUMP],
                         ids=["hand-spaced", "tabbed"])
def test_a_text_the_bulk_read_refuses_is_read_once(monkeypatch, text):
    expected = dump_model(load_model(text))
    read = _record_read_lines(monkeypatch)
    assert dump_model(load_model(text)) == expected
    assert read == list(enumerate(text.splitlines(), start=1))


@st.composite
def _mutated_model_texts(draw):
    """A valid model text, then up to five edits: shuffled lines, comments,
    other spacing, dropped and duplicated lines, unknown names, unknown
    directives, malformed rows, ``->`` inside a name, repeated header
    lines, CRLF line ends, a tab or a double space inside a binary row, a
    space after a row's result and a carrier element renamed everywhere to
    a name holding ``->``, its unary rows dropped or kept."""
    lines = draw(st.sampled_from(_BASES)).strip().splitlines()
    end = "\n"
    for _ in range(draw(st.integers(0, 5))):
        kind = draw(st.sampled_from([
            "shuffle", "comment", "respace", "drop", "duplicate", "reroute",
            "unknown", "strangers", "directive", "arrow", "blank", "crlf",
            "inner", "trailing", "rename"]))
        at = draw(st.integers(0, len(lines)))
        pick = min(at, len(lines) - 1) if lines else None
        if kind == "shuffle":
            lines = draw(st.permutations(lines))
        elif kind == "comment":
            lines.insert(at, "# " + draw(st.sampled_from(
                ["note", "plus: 0 0 -> 0"])))
        elif kind == "respace" and lines:
            lines[pick] = _respace(lines[pick], draw(st.integers(0, 2)))
        elif kind == "drop" and lines:
            del lines[pick]
        elif kind == "duplicate" and lines:
            lines.insert(at, lines[pick])
        elif kind == "reroute" and lines and "->" in lines[pick]:
            lines.insert(at, lines[pick].rpartition("->")[0] + "-> 0")
        elif kind in ("unknown", "arrow") and lines and lines[pick].split():
            toks = lines[pick].split()
            at_name = draw(st.integers(min(1, len(toks) - 1), len(toks) - 1))
            toks[at_name] = (draw(st.sampled_from(["zz", "yy"]))
                             if kind == "unknown" else "a->b")
            lines[pick] = " ".join(toks)
        elif kind == "strangers" and lines and "->" in lines[pick]:
            key, *names = lines[pick].split()
            lines[pick] = " ".join([key] + [
                f"u{i}" if name != "->" and draw(st.booleans()) else name
                for i, name in enumerate(names)])
        elif kind == "directive":
            lines.insert(at, draw(st.sampled_from(
                ["foo: bar", "carrier : 0 1", "zero: 1", "one:", "tests:",
                 "plus 0 0 -> 0", "times: 0 0 ->", "star: 0 0 -> 0"])))
        elif kind == "blank":
            lines.insert(at, draw(st.sampled_from(["", "   ", "\t"])))
        elif kind == "crlf":
            end = "\r\n"
        elif (kind == "inner" and lines and " " in lines[pick]
              and lines[pick].startswith(("plus", "times"))):
            line = lines[pick]
            spaces = [k for k, ch in enumerate(line) if ch == " "]
            k = draw(st.sampled_from(spaces))
            lines[pick] = (line[:k] + draw(st.sampled_from(["\t", "  "]))
                           + line[k + 1:])
        elif kind == "trailing" and lines and "->" in lines[pick]:
            lines[pick] += " "
        elif kind == "rename":
            carriers = [line.split()[1:] for line in lines
                        if line.startswith("carrier:")]
            if carriers and carriers[0]:
                old = draw(st.sampled_from(carriers[0]))
                if draw(st.booleans()):
                    # with no unary row read first, the rows holding the
                    # new name reach the bulk reader's check for "->"
                    lines = [line for line in lines if not line.startswith(
                        tuple(f"{k}: {old} ->"
                              for k in ("star", "adom", "aran", "not")))]
                lines = _rename(lines, old, old + "->x")
    return end.join(lines) + end


def _rename(lines, old, new):
    """The lines with every whitespace-separated token ``old`` made
    ``new``."""
    token = re.compile(rf"(?<!\S){re.escape(old)}(?!\S)")
    return [token.sub(lambda _: new, line) for line in lines]


def _outcome(load, text):
    try:
        m = load(text, name="m")
    except KadlabError as e:
        return "error", type(e), str(e), getattr(e, "line", None)
    return "model", m.carrier, m.tables


def _first_repeated_header(text):
    seen = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        key = line.partition(":")[0].strip()
        if ":" in line and key in _HEADERS:
            if key in seen:
                return lineno, key
            seen.add(key)
    return None


@settings(max_examples=500, deadline=None)
@given(_mutated_model_texts())
@example(LEMMA4_TEXT.replace("not: 0 -> 1", "not: zz -> 1"))
@example(LEMMA4_TEXT.replace("not: 0 -> 1", "not: 0 -> zz"))
@example(LEMMA4_TEXT.replace("times: a a -> 0", "times: yy a -> zz"))
@example(LEMMA4_TEXT.replace("star: a -> 1", "star: yy -> zz"))
@example(LEMMA4_TEXT.replace("plus: 0 a -> a", "plus: 0 a -> a->b"))
@example(LEMMA4_TEXT.replace("plus: 0 a -> a", "plus: 0 a->b -> a"))
@example("\n".join(_rename(_DIOID_TEXT.splitlines(), "a", "a->x")) + "\n")
@example(_BASES[0] + "plus:0 0->0\n")
@example(COMMENTED_DUMP)
@example(_BASES[0].replace("plus: 0 a -> a\n", "plus: 0 a -> a  # note\n"))
@example(_BASES[0].replace("tests: 0 1\n", "tests: 0 1\n# plus: 0 0 -> 0\n"))
def test_loader_matches_the_naive_loader(text):
    expected = _outcome(naive_load_model, text)
    repeated = _first_repeated_header(text)
    # the one intended difference: the naive loader lets a repeated header
    # line override the earlier one, and load_model stops there unless an
    # earlier line is already an error
    if repeated is not None:
        lineno, key = repeated
        if not (expected[0] == "error" and expected[3] is not None
                and expected[3] < lineno):
            expected = ("error", ParseError,
                        f"m:{lineno}: duplicate {key} line", lineno)
    assert _outcome(load_model, text) == expected


# ---------------------------------------------------------------------------
# fuzzing: malformed files end in a KadlabError

_MODEL_WORDS = ["carrier:", "zero:", "one:", "tests:", "plus:", "times:",
                "star:", "adom:", "aran:", "not:", "->", "0", "1", "a", "#",
                ":", "-", ">", "foo:"]
_PROGRAM_WORDS = ["states:", "rel", "test", "pre:", "post:", "program:", "=",
                  "{", "}", "(", ")", ",", "1", "2", "x", "p", "!p", "id",
                  "full", "empty", "{(1,1)}", "{(1,2)}", ";", "if", "then",
                  "else", "fi", "while", "do", "od", "skip", "&", "|", "#"]


def _line_texts(words):
    line = st.lists(st.sampled_from(words), max_size=7).map(" ".join)
    return st.lists(line, max_size=12).map("\n".join)


def _only_kadlab_errors(load, text):
    try:
        load(text)
    except KadlabError:
        pass


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _line_texts(_MODEL_WORDS)))
def test_model_loader_fuzz(text):
    _only_kadlab_errors(load_model, text)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.text(), _line_texts(_PROGRAM_WORDS)))
def test_program_loader_fuzz(text):
    _only_kadlab_errors(load_program_file, text)


# ---------------------------------------------------------------------------
# program files

PROGRAM_TEXT = """
states: 1 2 3
rel x = {(1,2)}
rel y = {(2,3)}
test p = {(1,1)}
test q = {(3,3)}
pre: p
post: q
program:
  x ;
  y
"""


def test_load_program_file():
    pf = load_program_file(PROGRAM_TEXT)
    assert pf.bindings.space.names == ("1", "2", "3")
    assert set(pf.bindings.atoms) == {"x", "y"}
    assert set(pf.bindings.tests) == {"p", "q"}
    assert pf.pre == Rel.test_from_states(pf.bindings.space, ["1"])
    assert pf.post == Rel.test_from_states(pf.bindings.space, ["3"])
    from kadlab.hoare import denote
    assert denote(pf.program, pf.bindings).pairs() == {("1", "3")}


def test_program_file_keywords():
    pf = load_program_file(
        "states: 1 2\nrel x = full\ntest p = id\nrel z = empty\n")
    sp = pf.bindings.space
    assert pf.bindings.atoms["x"] == Rel.full(sp)
    assert pf.bindings.atoms["z"] == Rel.empty(sp)
    assert pf.bindings.tests["p"] == Rel.identity(sp)
    assert pf.program is None


def test_program_file_errors():
    with pytest.raises(ParseError, match="states"):
        load_program_file("rel x = {(1,1)}\n")
    with pytest.raises(ParseError, match="subidentity"):
        load_program_file("states: 1 2\ntest p = {(1,2)}\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_program_file("states: 1\nrel x = id\nrel x = id\n")
    with pytest.raises(ParseError):
        load_program_file("states: 1\nprogram: nosuchatom\n")


# each text holds two faults; the one on the earlier line is reported
@pytest.mark.parametrize("text,message", [
    ("states: 1\nrel x = id\nrel x = id\nfrob: 1\n",
     "f:3: duplicate rel 'x'"),
    ("states: 1\ntest p = id\nrel p = id\ntest p = id\n",
     "f:3: duplicate name 'p'"),
    ("states: 1\nrel x = id\ntest x = id\nrel y = {(1,2)}\n",
     "f:3: duplicate name 'x'"),
    ("states: 1 2\ntest p = full\nrel x = id\nrel x = id\n",
     "f:2: test 'p' is not a subidentity"),
    ("states: 1\nrel x = id\nrel x = id\nrel y = {(1,2)}\n",
     "f:3: duplicate rel 'x'"),
], ids=["rel-then-directive", "test-then-rel", "rel-then-test",
        "non-test-then-rel", "rel-then-literal"])
def test_program_file_faults_are_reported_in_reading_order(text, message):
    with pytest.raises(ParseError) as info:
        load_program_file(text, name="f")
    assert (type(info.value), str(info.value)) == (ParseError, message)


@pytest.mark.parametrize("key,again", [
    ("pre", "pre: q"), ("post", "post: p"), ("program", "program: x")])
def test_repeated_program_file_line_is_an_error(key, again):
    lines = PROGRAM_TEXT.splitlines()
    text = "\n".join(lines + [again]) + "\n"
    with pytest.raises(ParseError, match=f"^f:{len(lines) + 1}: "
                       f"duplicate {key} line$"):
        load_program_file(text, name="f")


@pytest.mark.parametrize("old,new,line", [
    ("  y\n", "  y ; if zz then x else y fi\n", 11),
    ("  y\n", "  y ;\n  # a comment\n\n  while p do\n", 14),
    ("pre: p", "pre: zz", 7), ("post: q", "post: q &", 8)])
def test_program_file_parse_errors_name_their_line(old, new, line):
    assert old in PROGRAM_TEXT
    with pytest.raises(ParseError) as info:
        load_program_file(PROGRAM_TEXT.replace(old, new), name="f")
    assert (info.value.source, info.value.line) == ("f", line)
    assert info.value.column is None
