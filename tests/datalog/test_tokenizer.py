"""The master-regex tokenizer against the original character scanner.

``tokenize`` scans with one compiled regular expression.  The character-
by-character scanner it replaced is kept below as the reference: on every
input both must produce the same tokens (kind, value, 1-based line and
column) or raise a :class:`ParseError` with the same message at the same
position.  Inputs: the example programs (every string literal of every
``examples/`` script, and each script's whole text), the error cases of
``test_parser.py``, and Hypothesis text over an alphabet that covers every
token shape, including non-ASCII letters and digits.
"""

from __future__ import annotations

import ast
from pathlib import Path

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.datalog.parser import tokenize
from repro.exceptions import ParseError

EXAMPLES = sorted((Path(__file__).resolve().parents[2] / "examples").glob("*.py"))

_PUNCTUATION = {"(": "lparen", ")": "rparen", ",": "comma", ".": "dot"}


def reference_tokenize(text: str) -> list[tuple[str, str, int, int]]:
    """The original character-by-character scanner, verbatim in behaviour."""
    tokens = []
    line = 1
    column = 1
    index = 0
    length = len(text)

    def error(message: str) -> ParseError:
        return ParseError(message, line=line, column=column)

    while index < length:
        char = text[index]
        if char == "\n":
            line += 1
            column = 1
            index += 1
            continue
        if char in " \t\r":
            index += 1
            column += 1
            continue
        if char in "%#":
            while index < length and text[index] != "\n":
                index += 1
            continue
        start_line, start_column = line, column
        if text.startswith(":-", index) or text.startswith("<-", index):
            tokens.append(("implies", text[index : index + 2], start_line, start_column))
            index += 2
            column += 2
            continue
        if char in _PUNCTUATION:
            tokens.append((_PUNCTUATION[char], char, start_line, start_column))
            index += 1
            column += 1
            continue
        if char in "~" or text.startswith("\\+", index):
            width = 2 if text.startswith("\\+", index) else 1
            tokens.append(("not", text[index : index + width], start_line, start_column))
            index += width
            column += width
            continue
        if char == '"' or char == "'":
            quote = char
            end = index + 1
            while end < length and text[end] != quote:
                end += 1
            if end >= length:
                raise error("unterminated string literal")
            tokens.append(("string", text[index + 1 : end], start_line, start_column))
            column += end - index + 1
            index = end + 1
            continue
        if char.isdigit() or (char == "-" and index + 1 < length and text[index + 1].isdigit()):
            end = index + 1
            while end < length and text[end].isdigit():
                end += 1
            tokens.append(("number", text[index:end], start_line, start_column))
            column += end - index
            index = end
            continue
        if char.isalpha() or char == "_":
            end = index
            while end < length and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[index:end]
            kind = "not" if word == "not" else "name"
            tokens.append((kind, word, start_line, start_column))
            column += end - index
            index = end
            continue
        raise error(f"unexpected character {char!r}")
    return tokens


def outcome(scanner, text: str):
    try:
        return [tuple(token) for token in scanner(text)]
    except ParseError as error:
        return ("error", str(error), error.line, error.column)


def assert_same(text: str) -> None:
    assert outcome(tokenize, text) == outcome(reference_tokenize, text)


def example_texts():
    """``(label, text)`` for every examples/ script and each of its string
    literals (the example programs live in those)."""
    for path in EXAMPLES:
        source = path.read_text(encoding="utf-8")
        yield f"{path.name}:whole", source
        for index, node in enumerate(ast.walk(ast.parse(source))):
            if isinstance(node, ast.Constant) and isinstance(node.value, str) and node.value:
                yield f"{path.name}:{index}", node.value


ERROR_CASES = [
    'p("oops',
    "p ? q",
    "Pred(a)",
    "p(a) q",
    "p :- q",
    "p :- .",
    "p(X) :- q(X), .",
    "'unterminated\nacross lines",
    "p :- q, - r.",
    "p <= q.",
    "p \\ q.",
    "p(1½).",
]


class TestMatchesReferenceScanner:
    def test_example_programs(self):
        checked = 0
        for label, text in example_texts():
            assert outcome(tokenize, text) == outcome(reference_tokenize, text), label
            checked += 1
        assert checked > len(EXAMPLES)

    @pytest.mark.parametrize("text", ERROR_CASES)
    def test_error_cases(self, text):
        assert_same(text)

    @pytest.mark.parametrize(
        "text",
        [
            "p(X, 1) :- q(X).",
            "p. % comment\n# another\nq.",
            "p(-3). q(12abc). r(a-1). s(-x).",
            "label(X, \"a\nb\"), next(Y).",
            "\tp :- \\+ q, ~r, not s, note, nota, _v.",
            "é(x²3). q(Ⅻ). r(١٢٣). s(x١).",
            "p(00é, 12²3, -45١).",
            "p :- q.\r\n  r <- s.",
        ],
    )
    def test_token_shapes(self, text):
        assert_same(text)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from(
                list("pqXY_01 \t\r\n%#(),.:-<~\\+\"'?!") + ["not", "é", "²", "١", "½", "Ⅻ"]
            ),
            max_size=60,
        ).map("".join)
    )
    def test_random_text(self, text):
        assert_same(text)


def test_positions_are_one_based():
    tokens = tokenize("p.\n  q.")
    assert (tokens[2].line, tokens[2].column) == (2, 3)
