"""Exception types shared across the pipeline."""


class ProgramRejected(Exception):
    """A submission the pipeline cannot use; str(e) is its exclusion
    diagnostic."""


class CSyntaxError(ProgramRejected):
    """Malformed input rejected by the lexer or parser."""

    def __init__(self, line, col, message):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col
        self.message = message


class UnsupportedFeature(ProgramRejected):
    """Input is valid C but outside the supported subset."""

    def __init__(self, construct, line):
        super().__init__(f"line {line}: unsupported construct: {construct}")
        self.construct = construct
        self.line = line


class UnresolvedIdentifier(ProgramRejected):
    """A reference has no visible declaration."""

    def __init__(self, name, line):
        super().__init__(f"line {line}: unresolved identifier '{name}'")
        self.name = name
        self.line = line


class TraceRuntimeError(Exception):
    """Runtime failure during interpretation.

    kind is one of: div-by-zero, array-out-of-bounds, scanf-exhausted,
    integer-overflow, step-limit, uninitialized-read, type-error.
    """

    def __init__(self, kind, point, detail=""):
        msg = f"{kind} at {point}"
        if detail:
            msg += f" ({detail})"
        super().__init__(msg)
        self.kind = kind
        self.point = point
        self.detail = detail


class RuntimeFailure(ProgramRejected):
    """A test ended in a runtime error; the message is the diagnostic the
    tracer logged for the first such test."""


class UnmappedPoint(Exception):
    """Point map does not cover every program point on both sides."""


class EmptyCorpus(Exception):
    """No usable programs (or no grams) in the corpus."""


class MissingTests(Exception):
    def __init__(self, assignment):
        super().__init__(f"assignment '{assignment}' has no test suite")
        self.assignment = assignment


class MissingLabel(Exception):
    def __init__(self, program_id):
        super().__init__(f"no label for program '{program_id}'")
        self.program_id = program_id


class KTooLarge(Exception):
    pass


class DimensionMismatch(Exception):
    pass


class EmptyCandidates(Exception):
    pass


class ModeMismatch(Exception):
    pass
