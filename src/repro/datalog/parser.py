"""Parser for the concrete rule syntax.

The textual syntax follows the paper's examples, adapted to ASCII:

* a rule is ``head :- lit1, lit2, ..., litN.`` (``<-`` is accepted as a
  synonym for ``:-``);
* a fact is ``head.``;
* negation is written ``not p(X)`` (``\\+`` and ``~`` are accepted);
* variables start with an uppercase letter or ``_``; constants are
  lowercase identifiers, integers, or quoted strings;
* compound terms ``f(a, X)`` are allowed inside atom arguments;
* ``%`` and ``#`` start comments that run to the end of the line.

The parser is a small hand-written recursive-descent parser over a
tokeniser that scans with one compiled master regular expression; it
reports 1-based line/column positions in error messages.
"""

from __future__ import annotations

import re
from typing import Iterator, NamedTuple

from ..exceptions import ParseError
from .atoms import Atom, Literal
from .rules import Program, Rule
from .terms import Compound, Constant, Term, Variable

__all__ = ["parse_program", "parse_rule", "parse_atom", "parse_literal", "tokenize"]


# --------------------------------------------------------------------- #
# Tokeniser
# --------------------------------------------------------------------- #
class Token(NamedTuple):
    """A lexical token with its source position (1-based)."""

    kind: str
    value: str
    line: int
    column: int


_PUNCTUATION = {
    "(": "lparen",
    ")": "rparen",
    ",": "comma",
    ".": "dot",
}

#: One master pattern, one alternative per token shape, tried in order at
#: each position.  ``\w`` is exactly ``str.isalnum()`` plus ``_``, so an
#: identifier with an ASCII start is matched here in full; everything
#: involving non-ASCII digits or letters falls through to the ``word``
#: alternative and is split by the character predicates the language is
#: defined with (see :func:`_split_word`).  The ASCII number's lookahead
#: also rejects a following digit, so backtracking cannot split a run of
#: digits that a non-ASCII character ends.
_SCANNER = re.compile(
    r"""
    (?P<newline>\n)
  | [ \t\r]+
  | [%\#][^\n]*
  | (?P<implies>:-|<-)
  | (?P<punct>[(),.])
  | (?P<not>~|\\\+)
  | ["](?P<dq>[^"]*)["]
  | ['](?P<sq>[^']*)[']
  | (?P<quote>["'])
  | (?P<number>-?[0-9]+)(?![0-9]|[^\x00-\x7f])
  | (?P<name>[A-Za-z_]\w*)
  | (?P<word>-?\w+)
  | (?P<other>.)
    """,
    re.VERBOSE | re.DOTALL,
)


def tokenize(text: str) -> list[Token]:
    """Split *text* into tokens, skipping whitespace and comments."""
    tokens: list[Token] = []
    append = tokens.append
    # tuple.__new__ builds the NamedTuple without its Python-level __new__
    # frame: a fifth of the scan on fact-heavy inputs.
    new = tuple.__new__
    line = 1
    line_start = 0
    for match in _SCANNER.finditer(text):
        kind = match.lastgroup
        if kind is None:  # blanks and comments
            continue
        start = match.start()
        if kind == "newline":
            line += 1
            line_start = start + 1
            continue
        column = start - line_start + 1
        if kind == "name":
            word = match.group()
            append(new(Token, ("not" if word == "not" else "name", word, line, column)))
        elif kind == "punct":
            value = match.group()
            append(new(Token, (_PUNCTUATION[value], value, line, column)))
        elif kind == "number":
            append(new(Token, ("number", match.group(), line, column)))
        elif kind == "dq" or kind == "sq":
            append(new(Token, ("string", match.group(kind), line, column)))
        elif kind == "implies" or kind == "not":
            append(new(Token, (kind, match.group(), line, column)))
        elif kind == "word":
            _split_word(match.group(), line, column, append)
        elif kind == "quote":
            raise ParseError("unterminated string literal", line=line, column=column)
        else:
            raise ParseError(f"unexpected character {match.group()!r}", line=line, column=column)
    return tokens


def _split_word(word: str, line: int, column: int, append) -> None:
    """Tokenise a run of ``-?\\w+`` by the language's character classes: a
    number is ``-`` or a digit followed by digits (``str.isdigit``), a name
    starts with a letter (``str.isalpha``) or ``_`` and runs to the end of
    the word; any other character is an error."""
    index = 0
    length = len(word)
    while index < length:
        char = word[index]
        if char.isdigit() or (char == "-" and index + 1 < length and word[index + 1].isdigit()):
            end = index + 1
            while end < length and word[end].isdigit():
                end += 1
            append(Token("number", word[index:end], line, column + index))
            index = end
        elif char.isalpha() or char == "_":
            append(Token("not" if word[index:] == "not" else "name", word[index:], line, column + index))
            return
        else:
            raise ParseError(f"unexpected character {char!r}", line=line, column=column + index)


# --------------------------------------------------------------------- #
# Recursive-descent parser
# --------------------------------------------------------------------- #
class _Parser:
    """Stateful cursor over a token list."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._position = 0

    def _peek(self) -> Token | None:
        if self._position < len(self._tokens):
            return self._tokens[self._position]
        return None

    def _advance(self) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError("unexpected end of input")
        self._position += 1
        return token

    def _expect(self, kind: str) -> Token:
        token = self._peek()
        if token is None:
            raise ParseError(f"expected {kind}, found end of input")
        if token.kind != kind:
            raise ParseError(
                f"expected {kind}, found {token.value!r}", token.line, token.column
            )
        return self._advance()

    @property
    def exhausted(self) -> bool:
        return self._position >= len(self._tokens)

    # ------------------------------------------------------------------ #
    def parse_program(self) -> Program:
        rules: list[Rule] = []
        while not self.exhausted:
            rules.append(self.parse_rule())
        return Program(rules)

    def parse_rule(self) -> Rule:
        head = self.parse_atom()
        token = self._peek()
        if token is not None and token.kind == "implies":
            self._advance()
            body = self._parse_body()
        else:
            body = ()
        self._expect("dot")
        return Rule(head, tuple(body))

    def _parse_body(self) -> list[Literal]:
        literals = [self.parse_literal()]
        while True:
            token = self._peek()
            if token is not None and token.kind == "comma":
                self._advance()
                literals.append(self.parse_literal())
            else:
                return literals

    def parse_literal(self) -> Literal:
        token = self._peek()
        if token is not None and token.kind == "not":
            self._advance()
            return Literal(self.parse_atom(), positive=False)
        return Literal(self.parse_atom(), positive=True)

    def parse_atom(self) -> Atom:
        token = self._expect("name")
        if token.value[0].isupper() or token.value[0] == "_":
            raise ParseError(
                f"atom predicate {token.value!r} must not start with an uppercase letter",
                token.line,
                token.column,
            )
        next_token = self._peek()
        if next_token is None or next_token.kind != "lparen":
            return Atom(token.value, ())
        self._advance()
        args = [self.parse_term()]
        while True:
            punct = self._advance()
            if punct.kind == "rparen":
                break
            if punct.kind != "comma":
                raise ParseError(
                    f"expected ',' or ')', found {punct.value!r}", punct.line, punct.column
                )
            args.append(self.parse_term())
        return Atom(token.value, tuple(args))

    def parse_term(self) -> Term:
        token = self._advance()
        if token.kind == "number":
            return Constant(int(token.value))
        if token.kind == "string":
            return Constant(token.value)
        if token.kind != "name":
            raise ParseError(
                f"expected a term, found {token.value!r}", token.line, token.column
            )
        if token.value[0].isupper() or token.value[0] == "_":
            return Variable(token.value)
        next_token = self._peek()
        if next_token is not None and next_token.kind == "lparen":
            self._advance()
            args = [self.parse_term()]
            while True:
                punct = self._advance()
                if punct.kind == "rparen":
                    break
                if punct.kind != "comma":
                    raise ParseError(
                        f"expected ',' or ')', found {punct.value!r}",
                        punct.line,
                        punct.column,
                    )
                args.append(self.parse_term())
            return Compound(token.value, tuple(args))
        return Constant(token.value)


# --------------------------------------------------------------------- #
# Public entry points
# --------------------------------------------------------------------- #
def parse_program(text: str) -> Program:
    """Parse a complete program (zero or more rules)."""
    return _Parser(tokenize(text)).parse_program()


def parse_rule(text: str) -> Rule:
    """Parse a single rule or fact, requiring the whole input to be consumed."""
    parser = _Parser(tokenize(text))
    rule = parser.parse_rule()
    if not parser.exhausted:
        raise ParseError("trailing input after rule")
    return rule


def parse_atom(text: str) -> Atom:
    """Parse a single atom (no trailing period)."""
    parser = _Parser(tokenize(text))
    result = parser.parse_atom()
    if not parser.exhausted:
        raise ParseError("trailing input after atom")
    return result


def parse_literal(text: str) -> Literal:
    """Parse a single literal (possibly negated, no trailing period)."""
    parser = _Parser(tokenize(text))
    result = parser.parse_literal()
    if not parser.exhausted:
        raise ParseError("trailing input after literal")
    return result


def parse_rules(texts: Iterator[str] | list[str]) -> Program:
    """Parse an iterable of rule strings into a single program."""
    rules = [parse_rule(text) for text in texts]
    return Program(rules)
