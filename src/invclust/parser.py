"""Recursive-descent parser for the C subset.

Parsing normalizes as it goes: multi-declarator declarations are split into
one decl node per declarator, control-statement bodies are always wrapped in
a block, and prefix ++/-- statements are stored in the same form as postfix.
"""

import re

from .errors import CSyntaxError, UnsupportedFeature
from .lexer import lex
from .nodes import Kind, Node

TYPE_KEYWORDS = {"int": "int", "double": "double", "float": "double"}

# The format language. Group 1 of a match is what follows a '%': printf
# takes literal text, "%%" and the conversions d, f and lf; scanf takes
# d and lf with only whitespace around them, so a match without group 1
# is literal text. Any other group 1 is an unsupported conversion.
PRINTF_CONVERSION = re.compile(r"%(%|d|lf|f|.?)", re.S)
SCANF_CONVERSION = re.compile(r"%(d|lf|.{0,2})|[^ \t\n]", re.S)
# Per statement: its pattern, and the group 1 values it accepts.
_FORMATS = {"printf": (PRINTF_CONVERSION, {"%", "d", "f", "lf"}),
            "scanf": (SCANF_CONVERSION, {"d", "lf"})}

# The parser rejects nesting deeper than this, counted in its own levels
# (see _Parser.enter), and so does the tree check after it, counted in
# tree depth. The parser spends at most five Python frames per level and
# later stages walk the tree recursively, so either limit fits Python's
# stack with room to spare even for a caller a few hundred frames deep.
MAX_DEPTH = 100

# Binary operators by precedence, loosest first; all are left-associative.
BINARY_PREC = {op: prec for prec, ops in enumerate((
    ("||",), ("&&",), ("==", "!="), ("<", ">", "<=", ">="), ("+", "-"),
    ("*", "/", "%"))) for op in ops}


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens  # ends in eof, which next() never moves past
        self.pos = 0
        self.depth = 0

    def peek(self, ahead=0):
        """The current token, or one `ahead` of it if that is not past eof."""
        return self.toks[self.pos + ahead]

    def next(self):
        tok = self.toks[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def err(self, msg, tok=None):
        tok = tok or self.peek()
        raise CSyntaxError(tok.line, tok.col, msg)

    def unsupported(self, construct, tok=None):
        tok = tok or self.peek()
        raise UnsupportedFeature(construct, tok.line)

    def expect_op(self, op):
        tok = self.next()
        if tok.kind != "op" or tok.value != op:
            self.err(f"expected '{op}', found {self._show(tok)}", tok)
        return tok

    def expect_kw(self, kw):
        tok = self.next()
        if tok.kind != "kw" or tok.value != kw:
            self.err(f"expected '{kw}', found {self._show(tok)}", tok)
        return tok

    def expect_ident(self):
        tok = self.next()
        if tok.kind != "ident":
            self.err(f"expected identifier, found {self._show(tok)}", tok)
        return tok

    @staticmethod
    def _show(tok):
        if tok.kind == "eof":
            return "end of input"
        return repr(tok.value)

    def at_op(self, *ops):
        tok = self.toks[self.pos]
        return tok.kind == "op" and tok.value in ops

    def at_kw(self, *kws):
        tok = self.toks[self.pos]
        return tok.kind == "kw" and tok.value in kws

    def at_type(self):
        tok = self.toks[self.pos]
        return tok.kind == "kw" and tok.value in TYPE_KEYWORDS

    def enter(self):
        """One level deeper, rejected past MAX_DEPTH at the next token. A
        level is a block, an unbraced control body, an expression (a
        parenthesized one, an index, an argument, ...) or the operand of a
        unary operator. The caller steps back out with `self.depth -= 1`;
        an error ends the parse, so nothing restores the depth then."""
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.err("nesting too deep")

    # --- grammar ---

    def translation_unit(self):
        tok = self.peek()
        root = Node(Kind.TRANSLATION_UNIT, line=tok.line, col=tok.col)
        if tok.kind == "eof":
            self.err("empty translation unit", tok)
        while self.peek().kind != "eof":
            root.children.append(self.function_def())
        self._check_calls(root)
        return root

    def function_def(self):
        tok = self.peek()
        if self.at_kw("void"):
            self.next()
            ret = "void"
        elif self.at_type():
            ret = TYPE_KEYWORDS[self.next().value]
        else:
            self.err(f"expected function definition, found {self._show(tok)}", tok)
        name = self.expect_ident()
        if not self.at_op("("):
            self.unsupported("global declaration", name)
        self.expect_op("(")
        fn = Node(Kind.FUNCTION_DEF, identifier=name.value, type_name=ret,
                  line=tok.line, col=tok.col)
        if self.at_kw("void") and self.peek(1).kind == "op" and self.peek(1).value == ")":
            self.next()
        elif not self.at_op(")"):
            while True:
                ptok = self.peek()
                if not self.at_type():
                    self.err(f"expected parameter type, found {self._show(ptok)}", ptok)
                ptype = TYPE_KEYWORDS[self.next().value]
                if self.at_op("*"):
                    self.unsupported("pointer parameter", ptok)
                pname = self.expect_ident()
                if self.at_op("["):
                    self.unsupported("array parameter", pname)
                fn.children.append(Node(Kind.PARAM, identifier=pname.value,
                                        type_name=ptype, line=ptok.line, col=ptok.col))
                if self.at_op(","):
                    self.next()
                    continue
                break
        self.expect_op(")")
        if self.at_op(";"):
            self.unsupported("function prototype", name)
        fn.children.append(self.block())
        return fn

    def block(self):
        tok = self.expect_op("{")
        self.enter()
        blk = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        while True:
            tok = self.toks[self.pos]
            if tok.kind == "op" and tok.value == "}":
                break
            if tok.kind == "eof":
                self.err("unterminated block")
            blk.children.extend(self.statement())
        self.pos += 1
        self.depth -= 1
        return blk

    def statement(self):
        """Returns a list of nodes (declarations may split)."""
        tok = self.toks[self.pos]
        kind, value = tok.kind, tok.value
        if kind == "kw":
            if value in TYPE_KEYWORDS:
                return self.declaration()
            if value == "if":
                return [self.if_stmt()]
            if value == "printf":
                return [self.format_stmt(self.expression, "arguments")]
            if value == "for":
                return [self.for_stmt()]
            if value == "while":
                return [self.while_stmt()]
            if value == "scanf":
                return [self.format_stmt(self.scanf_target, "targets")]
            if value == "return":
                self.next()
                node = Node(Kind.RETURN, line=tok.line, col=tok.col)
                if not self.at_op(";"):
                    node.children.append(self.expression())
                self.expect_op(";")
                return [node]
            if value == "void":
                self.unsupported("void declaration", tok)
            if value == "else":
                self.err("'else' without matching 'if'", tok)
        elif kind == "op":
            if value == "{":
                return [self.block()]
            if value == ";":
                self.next()
                return []
        return [self.simple_stmt(expect_semi=True)]

    def declaration(self):
        ttok = self.next()
        base = TYPE_KEYWORDS[ttok.value]
        out = []
        while True:
            if self.at_op("*"):
                self.unsupported("pointer declaration", ttok)
            name = self.expect_ident()
            if self.at_op("["):
                self.next()
                size = self.next()
                if size.kind != "int" or size.value <= 0:
                    self.err("array size must be a positive integer literal", size)
                self.expect_op("]")
                if self.at_op("["):
                    self.unsupported("multi-dimensional array", name)
                if self.at_op("="):
                    self.unsupported("array initializer", name)
                out.append(Node(Kind.ARRAY_DECL, identifier=name.value,
                                type_name=base, literal=size.value,
                                line=name.line, col=name.col))
            else:
                node = Node(Kind.DECL, identifier=name.value, type_name=base,
                            line=name.line, col=name.col)
                if self.at_op("="):
                    self.next()
                    node.children.append(self.expression())
                out.append(node)
            if self.at_op(","):
                self.next()
                continue
            self.expect_op(";")
            return out

    def if_stmt(self):
        tok = self.expect_kw("if")
        self.expect_op("(")
        cond = self.expression()
        self.expect_op(")")
        node = Node(Kind.IF, children=[cond, self.body_block()],
                    line=tok.line, col=tok.col)
        if self.at_kw("else"):
            self.next()
            node.children.append(self.body_block())
        return node

    def while_stmt(self):
        tok = self.expect_kw("while")
        self.expect_op("(")
        cond = self.expression()
        self.expect_op(")")
        return Node(Kind.WHILE, children=[cond, self.body_block()],
                    line=tok.line, col=tok.col)

    def for_stmt(self):
        tok = self.expect_kw("for")
        self.expect_op("(")
        if self.at_type():
            self.unsupported("declaration in for initializer", tok)
        init = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        if not self.at_op(";"):
            init = self.simple_stmt(expect_semi=False)
        self.expect_op(";")
        cond = Node(Kind.LITERAL, literal=1, line=tok.line, col=tok.col)
        if not self.at_op(";"):
            cond = self.expression()
        self.expect_op(";")
        step = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        if not self.at_op(")"):
            step = self.simple_stmt(expect_semi=False)
        self.expect_op(")")
        return Node(Kind.FOR, children=[init, cond, step, self.body_block()],
                    line=tok.line, col=tok.col)

    def body_block(self):
        """Control body, normalized to a block."""
        if self.at_op("{"):
            return self.block()
        tok = self.peek()
        self.enter()
        blk = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        blk.children.extend(self.statement())
        self.depth -= 1
        return blk

    def simple_stmt(self, expect_semi):
        """Assignment, increment/decrement, or call statement."""
        tok = self.peek()
        if self.at_op("++", "--"):
            op = self.next().value
            name = self.expect_ident()
            node = Node(Kind.UNARY_OP, literal=op,
                        children=[Node(Kind.IDENT_REF, identifier=name.value,
                                       line=name.line, col=name.col)],
                        line=tok.line, col=tok.col)
        elif tok.kind == "ident":
            target = self.reference()
            if target.kind == Kind.CALL:
                node = target
            elif self.at_op("++", "--"):
                if target.kind != Kind.IDENT_REF:
                    self.unsupported("increment of array element", tok)
                node = Node(Kind.UNARY_OP, literal=self.next().value,
                            children=[target], line=tok.line, col=tok.col)
            elif self.at_op("="):
                self.next()
                node = Node(Kind.ASSIGN, children=[target, self.expression()],
                            line=tok.line, col=tok.col)
            else:
                self.err("expected assignment, call, or increment statement", tok)
        else:
            self.err(f"expected statement, found {self._show(tok)}", tok)
        if expect_semi:
            self.expect_op(";")
        return node

    def format_stmt(self, item, noun):
        """`scanf`/`printf` `(` format {`,` item} `)` `;`, one item per
        conversion in the format."""
        tok = self.next()
        self.expect_op("(")
        fmt = self.next()
        if fmt.kind != "string":
            self.err(f"{tok.value} format must be a string literal", fmt)
        pattern, accepted = _FORMATS[tok.value]
        convs = 0
        for m in pattern.finditer(fmt.value):
            if m[1] is None:
                self.unsupported("literal text in scanf format", tok)
            if m[1] not in accepted:
                self.unsupported(f"{tok.value} conversion '%{m[1]}'", tok)
            convs += m[1] != "%"
        node = Node(tok.value, literal=fmt.value,  # Kind.SCANF or PRINTF
                    line=tok.line, col=tok.col)
        while self.at_op(","):
            self.next()
            node.children.append(item())
        self.expect_op(")")
        self.expect_op(";")
        if convs != len(node.children):
            self.err(f"{tok.value} format has {convs} conversions but "
                     f"{len(node.children)} {noun}", tok)
        return node

    def reference(self):
        """A call `name(args)`, or an l-value."""
        name = self.expect_ident()
        if self.at_op("("):
            return Node(Kind.CALL, identifier=name.value,
                        children=self.call_args(), line=name.line,
                        col=name.col)
        return self.lvalue(name)

    def lvalue(self, name):
        """`name` or `name[expr]`, after its name token: the target of an
        assignment, a scanf or an increment, and a variable read."""
        node = Node(Kind.IDENT_REF, identifier=name.value, line=name.line,
                    col=name.col)
        if self.at_op("["):
            self.next()
            idx = self.expression()
            self.expect_op("]")
            if self.at_op("["):
                self.unsupported("multi-dimensional array indexing", name)
            node = Node(Kind.ARRAY_INDEX, children=[node, idx],
                        line=name.line, col=name.col)
        return node

    def scanf_target(self):
        self.expect_op("&")
        return self.lvalue(self.expect_ident())

    def call_args(self):
        self.expect_op("(")
        args = []
        if not self.at_op(")"):
            while True:
                args.append(self.expression())
                if self.at_op(","):
                    self.next()
                    continue
                break
        self.expect_op(")")
        return args

    # --- expressions, by precedence ---

    def expression(self):
        self.enter()
        node = self.binary()
        if self.at_op("="):
            self.unsupported("assignment inside expression", self.peek())
        self.depth -= 1
        return node

    def binary(self):
        """Unary operands joined by binary operators, grouped by
        BINARY_PREC with an operator stack: a chain of any length costs
        one Python frame."""
        operands = [self.unary()]
        ops = []
        while True:
            tok = self.toks[self.pos]
            prec = BINARY_PREC.get(tok.value) if tok.kind == "op" else None
            while ops and (prec is None or ops[-1][0] >= prec):
                _, op = ops.pop()
                rhs = operands.pop()
                operands[-1] = Node(Kind.BINARY_OP, literal=op.value,
                                    children=[operands[-1], rhs],
                                    line=op.line, col=op.col)
            if prec is None:
                return operands[0]
            ops.append((prec, self.next()))
            operands.append(self.unary())

    def unary(self):
        tok = self.toks[self.pos]
        if tok.kind != "op":
            return self.postfix(tok)
        op = tok.value
        if op == "-" or op == "!":
            self.pos += 1
            self.enter()
            operand = self.unary()
            self.depth -= 1
            return Node(Kind.UNARY_OP, literal=op, children=[operand],
                        line=tok.line, col=tok.col)
        if op == "++" or op == "--":
            self.unsupported("increment inside expression", tok)
        if op == "&":
            self.unsupported("address-of outside scanf", tok)
        if op == "*":
            self.unsupported("pointer dereference", tok)
        return self.postfix(tok)

    def postfix(self, tok):
        """The primary expression that starts at `tok`, the current token."""
        kind = tok.kind
        if kind == "ident":
            node = self.reference()
            if node.kind != Kind.CALL and self.at_op("++", "--"):
                self.unsupported("increment inside expression", tok)
            return node
        if kind == "int" or kind == "float":
            self.pos += 1
            return Node(Kind.LITERAL, literal=tok.value, line=tok.line, col=tok.col)
        if kind == "op" and tok.value == "(":
            self.pos += 1
            node = self.expression()
            self.expect_op(")")
            if self.at_op("++", "--"):
                self.unsupported("increment inside expression", tok)
            return node
        if kind == "string":
            self.unsupported("string literal in expression", tok)
        if kind == "kw" and tok.value in ("scanf", "printf"):
            self.unsupported(f"'{tok.value}' inside expression", tok)
        self.err(f"expected expression, found {self._show(tok)}", tok)

    def _check_calls(self, root):
        funcs = {}
        for fn in root.children:
            if fn.identifier in funcs:
                self.err(f"duplicate function definition '{fn.identifier}'", None)
            nparams = sum(1 for c in fn.children if c.kind == Kind.PARAM)
            funcs[fn.identifier] = nparams
        for fn in root.children:
            _check_calls_in(fn, funcs)


def _check_calls_in(fn, funcs):
    """Call arity and nesting depth, in pre-order."""
    stack = [(fn, 1)]
    while stack:
        node, depth = stack.pop()
        if depth > MAX_DEPTH:
            raise CSyntaxError(node.line, node.col, "nesting too deep")
        if node.kind == Kind.CALL:
            if node.identifier not in funcs:
                raise CSyntaxError(
                    node.line, node.col,
                    f"call to undefined function '{node.identifier}'")
            if funcs[node.identifier] != len(node.children):
                raise CSyntaxError(node.line, node.col,
                                   f"'{node.identifier}' expects "
                                   f"{funcs[node.identifier]} arguments, got "
                                   f"{len(node.children)}")
        stack.extend((c, depth + 1) for c in reversed(node.children))


def parse(source):
    """Parse source text, or the tokens `lex` made of it, into its
    translation-unit Node."""
    parser = _Parser(lex(source) if isinstance(source, str) else source)
    try:
        tree = parser.translation_unit()
    except RecursionError:  # only for a caller already deep in the stack
        tok = parser.peek()
        raise CSyntaxError(tok.line, tok.col, "nesting too deep") from None
    return tree
