"""Tokenizer for the C subset.

Positions are derived from offsets, not counted: the lexer tracks only the
current line and the offset where it starts, and a token's or an error's
column is its offset less that start, plus one. A line ends at `\n`, at
`\r\n` or at a lone `\r`.
"""

import re
from dataclasses import dataclass

from .errors import CSyntaxError, SourceTooLarge, UnsupportedFeature

# The longest source lexed, in characters. Lexing, parsing and renaming take
# time and memory in proportion to a source's length (a 1 MB source took
# seconds through them), and a submission is a few hundred characters.
MAX_SOURCE_CHARS = 262_144

KEYWORDS = {"int", "double", "float", "void", "if", "else", "while", "for",
            "return", "scanf", "printf"}

# Recognized so the diagnostic can name the construct.
UNSUPPORTED_KEYWORDS = {
    "switch", "case", "default", "do", "goto", "break", "continue",
    "struct", "union", "enum", "typedef", "char", "long", "short",
    "unsigned", "signed", "const", "static", "extern", "register",
    "volatile", "sizeof", "auto",
}

# C's digit sets. str.isdigit also accepts other Unicode digits ('²', '٣'),
# which int() and float() reject or read as some other value.
DIGITS = "0123456789"
OCTAL_DIGITS = "01234567"

TWO_CHAR_OPS = {"++", "--", "<=", ">=", "==", "!=", "&&", "||"}
ONE_CHAR_OPS = set("+-*/%<>=!(){}[],;&")

UNSUPPORTED_CHARS = {
    "|": "bitwise or", "^": "bitwise xor", "~": "bitwise not",
    "?": "ternary operator", ":": "label or ternary operator",
    ".": "member access", "'": "character literal",
    "#": "preprocessor directive",
}

# Letter after a backslash -> the character it stands for; unparse prints
# each character back with its letter.
ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0", "r": "\r"}

LINE_END = re.compile(r"\r\n?|\n")


@dataclass
class Token:
    kind: str  # ident, kw, int, float, string, op, eof
    value: object
    line: int
    col: int


def lex(text):
    if len(text) > MAX_SOURCE_CHARS:
        raise SourceTooLarge(len(text), MAX_SOURCE_CHARS)
    tokens = []
    i = 0
    line = 1
    line_start = 0  # offset of the current line's first character
    n = len(text)

    def err(msg):
        raise CSyntaxError(line, i - line_start + 1, msg)

    while i < n:
        c = text[i]
        if c in "\r\n":
            i += 2 if text.startswith("\r\n", i) else 1
            line += 1
            line_start = i
            continue
        if c in " \t":
            i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] not in "\r\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                err("unterminated comment")
            ends = list(LINE_END.finditer(text, i, j))
            if ends:
                line += len(ends)
                line_start = ends[-1].end()
            i = j + 2
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeature(f"keyword '{word}'", line)
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, i - line_start + 1))
            i = j
            continue
        if c in DIGITS or (c == "." and i + 1 < n and text[i + 1] in DIGITS):
            j = i
            while j < n and text[j] in DIGITS:
                j += 1
            is_float = False
            if j < n and text[j] == ".":
                is_float = True
                j += 1
                while j < n and text[j] in DIGITS:
                    j += 1
            if j < n and text[j] in "eE":
                k = j + 1
                if k < n and text[k] in "+-":
                    k += 1
                if k < n and text[k] in DIGITS:
                    is_float = True
                    j = k
                    while j < n and text[j] in DIGITS:
                        j += 1
            lit = text[i:j]
            if j < n and (text[j].isalpha() or text[j] == "_"):
                err(f"malformed number '{lit}{text[j]}'")
            if is_float:
                value = float(lit)
            elif lit[0] != "0":
                value = int(lit)
            elif lit.strip(OCTAL_DIGITS):  # a leading 0 makes it octal
                err(f"invalid digit in octal constant '{lit}'")
            else:
                value = int(lit, 8)
            tokens.append(Token("float" if is_float else "int", value, line,
                                i - line_start + 1))
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] in "\r\n":
                    err("unterminated string literal")
                if text[j] == "\\":
                    j += 1
                    if j >= n:
                        err("unterminated string literal")
                    esc = text[j]
                    if esc == "0" and j + 1 < n and text[j + 1] in OCTAL_DIGITS:
                        # C reads "\01" as one octal escape, not "\0" + "1".
                        raise UnsupportedFeature(
                            f"escape sequence '\\0{text[j + 1]}'", line)
                    if esc == "%":
                        out.append("%")
                    elif esc in ESCAPES:
                        out.append(ESCAPES[esc])
                    else:
                        raise UnsupportedFeature(f"escape sequence '\\{esc}'", line)
                else:
                    out.append(text[j])
                j += 1
            if j >= n:
                err("unterminated string literal")
            tokens.append(Token("string", "".join(out), line, i - line_start + 1))
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, i - line_start + 1))
            i += 2
            continue
        if two in ("<<", ">>", "+=", "-=", "*=", "/=", "%=", "->"):
            raise UnsupportedFeature(f"operator '{two}'", line)
        if c in ONE_CHAR_OPS:
            tokens.append(Token("op", c, line, i - line_start + 1))
            i += 1
            continue
        if c in UNSUPPORTED_CHARS:
            raise UnsupportedFeature(UNSUPPORTED_CHARS[c], line)
        err(f"unexpected character {c!r}")
    tokens.append(Token("eof", None, line, i - line_start + 1))
    return tokens
