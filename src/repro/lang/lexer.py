"""Shared tokenizer and token readers for the four Serena front ends:
the DDL, the Serena Algebra Language (SAL), Serena SQL and the rule
calculus.

A small hand-rolled lexer: identifiers, integer/real literals,
single-quoted strings (with ``''`` escaping), and the punctuation used by
the languages.  Tokens carry line/column for error reporting.

The token shapes the front ends share are read here, once: a literal
(:meth:`TokenStream.literal`, the only number conversion), an integer
such as a window period (:meth:`TokenStream.integer`), a comma-separated
identifier list (:meth:`TokenStream.identifiers`) and a comparator
(:meth:`TokenStream.expect_comparator`).  Every malformed token raises
:class:`ParseError` with its line and column.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ParseError

__all__ = ["Token", "TokenStream", "tokenize"]

_PUNCTUATION = (
    ":=",
    "->",
    "<=",
    ">=",
    "!=",
    "(",
    ")",
    "[",
    "]",
    ",",
    ";",
    ":",
    "=",
    "<",
    ">",
    "*",
    "-",  # only reachable when not starting a number (see tokenize)
)

#: The comparators of a selection formula; ``contains`` is a keyword.
_COMPARATORS = frozenset({"=", "!=", "<", "<=", ">", ">=", "contains"})
_BOOLEANS = {"TRUE": True, "FALSE": False}


@dataclass(frozen=True)
class Token:
    """One lexical token."""

    kind: str  # "ident" | "number" | "string" | "punct" | "eof"
    value: str
    line: int
    column: int

    def is_keyword(self, word: str) -> bool:
        """Case-insensitive keyword match (identifiers only)."""
        return self.kind == "ident" and self.value.upper() == word.upper()

    def is_punct(self, symbol: str) -> bool:
        return self.kind == "punct" and self.value == symbol

    def is_name(self) -> bool:
        """An identifier other than the literals ``true`` / ``false``."""
        return self.kind == "ident" and self.value.upper() not in _BOOLEANS

    def comparator(self) -> str | None:
        """The comparator this token spells, if it spells one."""
        if self.kind == "punct" and self.value in _COMPARATORS:
            return self.value
        if self.is_keyword("contains"):
            return "contains"
        return None


def tokenize(text: str) -> list[Token]:
    """Tokenize ``text``; raises :class:`ParseError` on illegal input."""
    tokens: list[Token] = []
    line, column = 1, 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            column = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            column += 1
            continue
        if text.startswith("--", i):  # line comment
            while i < n and text[i] != "\n":
                i += 1
            continue
        if ch == "'":
            value, consumed = _scan_string(text, i, line, column)
            tokens.append(Token("string", value, line, column))
            i += consumed
            column += consumed
            continue
        if ch.isdigit() or (
            ch in "+-" and i + 1 < n and (text[i + 1].isdigit() or text[i + 1] == ".")
        ):
            start = i
            i += 1
            seen_dot = text[start] == "."
            while i < n:
                nxt = text[i]
                if nxt.isdigit() or nxt in "eE" or (nxt in "+-" and text[i - 1] in "eE"):
                    i += 1
                elif nxt == "." and not seen_dot and i + 1 < n and text[i + 1].isdigit():
                    seen_dot = True
                    i += 1
                else:
                    break
            literal = text[start:i]
            tokens.append(Token("number", literal, line, column))
            column += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            i += 1
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(Token("ident", text[start:i], line, column))
            column += i - start
            continue
        for symbol in _PUNCTUATION:
            if text.startswith(symbol, i):
                tokens.append(Token("punct", symbol, line, column))
                i += len(symbol)
                column += len(symbol)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, column)
    tokens.append(Token("eof", "", line, column))
    return tokens


def _scan_string(text: str, start: int, line: int, column: int) -> tuple[str, int]:
    """Scan a single-quoted string starting at ``start``; returns
    (unescaped value, characters consumed)."""
    i = start + 1
    n = len(text)
    out: list[str] = []
    while i < n:
        ch = text[i]
        if ch == "'":
            if i + 1 < n and text[i + 1] == "'":
                out.append("'")
                i += 2
                continue
            return "".join(out), i + 1 - start
        if ch == "\n":
            break
        out.append(ch)
        i += 1
    raise ParseError("unterminated string literal", line, column)


class TokenStream:
    """Cursor over a token list with expectation helpers."""

    def __init__(self, tokens: list[Token]):
        self._tokens = tokens
        self._index = 0

    @property
    def current(self) -> Token:
        return self._tokens[self._index]

    def peek(self, ahead: int = 1) -> Token:
        index = min(self._index + ahead, len(self._tokens) - 1)
        return self._tokens[index]

    def advance(self) -> Token:
        token = self.current
        if token.kind != "eof":
            self._index += 1
        return token

    def at_end(self) -> bool:
        return self.current.kind == "eof"

    # -- expectation helpers ------------------------------------------------------

    def error(self, message: str) -> ParseError:
        token = self.current
        found = token.value or "<end of input>"
        return ParseError(f"{message}, found {found!r}", token.line, token.column)

    def expect_punct(self, symbol: str) -> Token:
        if not self.current.is_punct(symbol):
            raise self.error(f"expected {symbol!r}")
        return self.advance()

    def expect_keyword(self, word: str) -> Token:
        if not self.current.is_keyword(word):
            raise self.error(f"expected keyword {word}")
        return self.advance()

    def expect_ident(self) -> Token:
        if self.current.kind != "ident":
            raise self.error("expected an identifier")
        return self.advance()

    def accept_punct(self, symbol: str) -> bool:
        if self.current.is_punct(symbol):
            self.advance()
            return True
        return False

    def accept_keyword(self, word: str) -> bool:
        if self.current.is_keyword(word):
            self.advance()
            return True
        return False

    # -- shared token shapes ------------------------------------------------------

    def literal(self, expected: str = "a literal value") -> object:
        """A string, a number or ``true`` / ``false``."""
        token = self.current
        if token.kind == "string":
            value: object = token.value
        elif token.kind == "number":
            value = _number(token)
        elif token.kind == "ident" and not token.is_name():
            value = _BOOLEANS[token.value.upper()]
        else:
            raise self.error(f"expected {expected}")
        self.advance()
        return value

    def integer(self, what: str) -> int:
        """An integer literal, such as a window period (named ``what``)."""
        token = self.current
        if token.kind != "number" or not isinstance(value := _number(token), int):
            raise self.error(f"{what} must be an integer")
        self.advance()
        return value

    def identifiers(self, parenthesized: bool = False) -> list[str]:
        """``a, b, …`` — or ``( a, b, … )``, which may be empty."""
        if parenthesized:
            self.expect_punct("(")
            if self.accept_punct(")"):
                return []
        names = [self.expect_ident().value]
        while self.accept_punct(","):
            names.append(self.expect_ident().value)
        if parenthesized:
            self.expect_punct(")")
        return names

    def expect_comparator(self) -> str:
        """One of ``= != < <= > >= contains``."""
        op = self.current.comparator()
        if op is None:
            raise self.error("expected a comparison operator")
        self.advance()
        return op


def _number(token: Token) -> int | float:
    """The value of a number token: an int when it is digits after an
    optional sign, else a float (it has a dot or an exponent)."""
    text = token.value
    try:
        return int(text) if text.lstrip("+-").isdigit() else float(text)
    except ValueError:
        raise ParseError(f"bad number literal {text!r}", token.line, token.column) from None
