"""Recursive-descent parser for the C subset.

Parsing normalizes as it goes: multi-declarator declarations are split into
one decl node per declarator, control-statement bodies are always wrapped in
a block, and prefix ++/-- statements are stored in the same form as postfix.
"""

from .errors import CSyntaxError, UnsupportedFeature
from .lexer import lex
from .nodes import Kind, Node, SyntaxTree

TYPE_KEYWORDS = {"int": "int", "double": "double", "float": "double"}

# Later stages walk the tree recursively; a tree this shallow fits their
# Python stack with room to spare.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, tokens):
        self.toks = tokens
        self.pos = 0

    def peek(self, ahead=0):
        return self.toks[min(self.pos + ahead, len(self.toks) - 1)]

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
        tok = self.peek()
        return tok.kind == "op" and tok.value in ops

    def at_kw(self, *kws):
        tok = self.peek()
        return tok.kind == "kw" and tok.value in kws

    def at_type(self):
        return self.at_kw("int", "double", "float")

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
        blk = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        while not self.at_op("}"):
            if self.peek().kind == "eof":
                self.err("unterminated block")
            blk.children.extend(self.statement())
        self.expect_op("}")
        return blk

    def statement(self):
        """Returns a list of nodes (declarations may split)."""
        tok = self.peek()
        if self.at_type():
            return self.declaration()
        if self.at_kw("void"):
            self.unsupported("void declaration", tok)
        if self.at_op("{"):
            return [self.block()]
        if self.at_kw("if"):
            return [self.if_stmt()]
        if self.at_kw("while"):
            return [self.while_stmt()]
        if self.at_kw("for"):
            return [self.for_stmt()]
        if self.at_kw("return"):
            self.next()
            node = Node(Kind.RETURN, line=tok.line, col=tok.col)
            if not self.at_op(";"):
                node.children.append(self.expression())
            self.expect_op(";")
            return [node]
        if self.at_kw("scanf"):
            return [self.scanf_stmt()]
        if self.at_kw("printf"):
            return [self.printf_stmt()]
        if self.at_kw("else"):
            self.err("'else' without matching 'if'", tok)
        if self.at_op(";"):
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
        blk = Node(Kind.BLOCK, line=tok.line, col=tok.col)
        blk.children.extend(self.statement())
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
            name = self.next()
            if self.at_op("("):
                args = self.call_args()
                node = Node(Kind.CALL, identifier=name.value, children=args,
                            line=name.line, col=name.col)
            else:
                target = Node(Kind.IDENT_REF, identifier=name.value,
                              line=name.line, col=name.col)
                if self.at_op("["):
                    self.next()
                    idx = self.expression()
                    self.expect_op("]")
                    target = Node(Kind.ARRAY_INDEX, children=[target, idx],
                                  line=name.line, col=name.col)
                if self.at_op("++", "--"):
                    if target.kind != Kind.IDENT_REF:
                        self.unsupported("increment of array element", name)
                    op = self.next().value
                    node = Node(Kind.UNARY_OP, literal=op, children=[target],
                                line=tok.line, col=tok.col)
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

    def scanf_stmt(self):
        tok = self.expect_kw("scanf")
        self.expect_op("(")
        fmt = self.next()
        if fmt.kind != "string":
            self.err("scanf format must be a string literal", fmt)
        convs = _scanf_conversions(fmt, tok.line)
        node = Node(Kind.SCANF, literal=fmt.value, line=tok.line, col=tok.col)
        while self.at_op(","):
            self.next()
            self.expect_op("&")
            name = self.expect_ident()
            target = Node(Kind.IDENT_REF, identifier=name.value,
                          line=name.line, col=name.col)
            if self.at_op("["):
                self.next()
                idx = self.expression()
                self.expect_op("]")
                target = Node(Kind.ARRAY_INDEX, children=[target, idx],
                              line=name.line, col=name.col)
            node.children.append(target)
        self.expect_op(")")
        self.expect_op(";")
        if len(convs) != len(node.children):
            self.err(f"scanf format has {len(convs)} conversions but "
                     f"{len(node.children)} targets", tok)
        return node

    def printf_stmt(self):
        tok = self.expect_kw("printf")
        self.expect_op("(")
        fmt = self.next()
        if fmt.kind != "string":
            self.err("printf format must be a string literal", fmt)
        convs = _printf_conversions(fmt, tok.line)
        node = Node(Kind.PRINTF, literal=fmt.value, line=tok.line, col=tok.col)
        while self.at_op(","):
            self.next()
            node.children.append(self.expression())
        self.expect_op(")")
        self.expect_op(";")
        if len(convs) != len(node.children):
            self.err(f"printf format has {len(convs)} conversions but "
                     f"{len(node.children)} arguments", tok)
        return node

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
        node = self.or_expr()
        if self.at_op("="):
            self.unsupported("assignment inside expression", self.peek())
        return node

    def _binary_level(self, sub, ops):
        node = sub()
        while self.at_op(*ops):
            tok = self.next()
            node = Node(Kind.BINARY_OP, literal=tok.value,
                        children=[node, sub()], line=tok.line, col=tok.col)
        return node

    def or_expr(self):
        return self._binary_level(self.and_expr, ("||",))

    def and_expr(self):
        return self._binary_level(self.equality, ("&&",))

    def equality(self):
        return self._binary_level(self.relational, ("==", "!="))

    def relational(self):
        return self._binary_level(self.additive, ("<", ">", "<=", ">="))

    def additive(self):
        return self._binary_level(self.multiplicative, ("+", "-"))

    def multiplicative(self):
        return self._binary_level(self.unary, ("*", "/", "%"))

    def unary(self):
        tok = self.peek()
        if self.at_op("-"):
            self.next()
            return Node(Kind.UNARY_OP, literal="-", children=[self.unary()],
                        line=tok.line, col=tok.col)
        if self.at_op("!"):
            self.next()
            return Node(Kind.UNARY_OP, literal="!", children=[self.unary()],
                        line=tok.line, col=tok.col)
        if self.at_op("++", "--"):
            self.unsupported("increment inside expression", tok)
        if self.at_op("&"):
            self.unsupported("address-of outside scanf", tok)
        if self.at_op("*"):
            self.unsupported("pointer dereference", tok)
        return self.postfix()

    def postfix(self):
        tok = self.peek()
        if tok.kind == "int" or tok.kind == "float":
            self.next()
            return Node(Kind.LITERAL, literal=tok.value, line=tok.line, col=tok.col)
        if tok.kind == "string":
            self.unsupported("string literal in expression", tok)
        if tok.kind == "ident":
            name = self.next()
            if self.at_op("("):
                args = self.call_args()
                return Node(Kind.CALL, identifier=name.value, children=args,
                            line=name.line, col=name.col)
            node = Node(Kind.IDENT_REF, identifier=name.value,
                        line=name.line, col=name.col)
            if self.at_op("["):
                self.next()
                idx = self.expression()
                self.expect_op("]")
                if self.at_op("["):
                    self.unsupported("multi-dimensional array indexing", name)
                node = Node(Kind.ARRAY_INDEX, children=[node, idx],
                            line=name.line, col=name.col)
            if self.at_op("++", "--"):
                self.unsupported("increment inside expression", name)
            return node
        if self.at_op("("):
            self.next()
            node = self.expression()
            self.expect_op(")")
            if self.at_op("++", "--"):
                self.unsupported("increment inside expression", tok)
            return node
        if self.at_kw("scanf", "printf"):
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


def _scanf_conversions(fmt_tok, line):
    convs = []
    i = 0
    s = fmt_tok.value
    while i < len(s):
        c = s[i]
        if c == "%":
            if s[i + 1:i + 2] == "d":
                convs.append("d")
                i += 2
            elif s[i + 1:i + 3] == "lf":
                convs.append("lf")
                i += 3
            else:
                raise UnsupportedFeature(f"scanf conversion '%{s[i+1:i+3]}'", line)
        elif c in " \t\n":
            i += 1
        else:
            raise UnsupportedFeature("literal text in scanf format", line)
    return convs


def _printf_conversions(fmt_tok, line):
    convs = []
    i = 0
    s = fmt_tok.value
    while i < len(s):
        if s[i] == "%":
            nxt = s[i + 1:i + 2]
            if nxt == "%":
                i += 2
            elif nxt == "d":
                convs.append("d")
                i += 2
            elif nxt == "f":
                convs.append("f")
                i += 2
            elif s[i + 1:i + 3] == "lf":
                convs.append("lf")
                i += 3
            else:
                raise UnsupportedFeature(f"printf conversion '%{nxt}'", line)
        else:
            i += 1
    return convs


def parse(source):
    """Parse a SourceProgram (or raw text) into a SyntaxTree."""
    text = source.text if hasattr(source, "text") else source
    parser = _Parser(lex(text))
    try:
        tree = parser.translation_unit()
    except RecursionError:
        tok = parser.peek()
        raise CSyntaxError(tok.line, tok.col, "nesting too deep") from None
    return SyntaxTree(root=tree)
