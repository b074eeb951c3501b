"""Tokenizer for the C subset."""

from dataclasses import dataclass

from .errors import CSyntaxError, UnsupportedFeature

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
    ".": "member access", "'": "character literal", '"': None,
}

# Letter after a backslash -> the character it stands for; unparse prints
# each character back with its letter.
ESCAPES = {"n": "\n", "t": "\t", "\\": "\\", '"': '"', "0": "\0", "r": "\r"}


@dataclass
class Token:
    kind: str  # ident, kw, int, float, string, op, eof
    value: object
    line: int
    col: int


def lex(text):
    tokens = []
    i = 0
    line = 1
    col = 1
    n = len(text)

    def err(msg):
        raise CSyntaxError(line, col, msg)

    while i < n:
        c = text[i]
        if c == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "/":
            while i < n and text[i] != "\n":
                i += 1
            continue
        if c == "/" and i + 1 < n and text[i + 1] == "*":
            j = text.find("*/", i + 2)
            if j < 0:
                err("unterminated comment")
            for ch in text[i:j]:
                if ch == "\n":
                    line += 1
                    col = 1
                else:
                    col += 1
            i = j + 2
            col += 2
            continue
        if c == "#":
            raise UnsupportedFeature("preprocessor directive", line)
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            word = text[i:j]
            if word in UNSUPPORTED_KEYWORDS:
                raise UnsupportedFeature(f"keyword '{word}'", line)
            kind = "kw" if word in KEYWORDS else "ident"
            tokens.append(Token(kind, word, line, col))
            col += j - i
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
                tokens.append(Token("float", float(lit), line, col))
            elif lit[0] != "0":
                tokens.append(Token("int", int(lit), line, col))
            elif lit.strip(OCTAL_DIGITS):  # a leading 0 makes it octal
                err(f"invalid digit in octal constant '{lit}'")
            else:
                tokens.append(Token("int", int(lit, 8), line, col))
            col += j - i
            i = j
            continue
        if c == '"':
            j = i + 1
            out = []
            while j < n and text[j] != '"':
                if text[j] == "\n":
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
            tokens.append(Token("string", "".join(out), line, col))
            col += j + 1 - i
            i = j + 1
            continue
        two = text[i:i + 2]
        if two in TWO_CHAR_OPS:
            tokens.append(Token("op", two, line, col))
            i += 2
            col += 2
            continue
        if two in ("<<", ">>", "+=", "-=", "*=", "/=", "%=", "->"):
            raise UnsupportedFeature(f"operator '{two}'", line)
        if c in ONE_CHAR_OPS:
            tokens.append(Token("op", c, line, col))
            i += 1
            col += 1
            continue
        if c in UNSUPPORTED_CHARS:
            raise UnsupportedFeature(UNSUPPORTED_CHARS[c] or "string literal", line)
        err(f"unexpected character {c!r}")
    tokens.append(Token("eof", None, line, col))
    return tokens
