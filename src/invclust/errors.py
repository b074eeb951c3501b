"""Exception types shared across the pipeline."""


class InvclustError(Exception):
    """Base of every error here; the CLI reports each as one `error:` line
    and exit 2."""


class ProgramRejected(InvclustError):
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


class TraceRuntimeError(InvclustError):
    """Runtime failure during interpretation, at the most recently entered
    point. str(e) is the diagnostic a trace logs: `<kind> at <point>`, then
    `: <detail>` when there is a detail.

    kind is one of: div-by-zero, array-out-of-bounds, scanf-exhausted,
    integer-overflow, step-limit, uninitialized-read, type-error.
    """

    def __init__(self, kind, point, detail=""):
        msg = f"{kind} at {point}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)
        self.kind = kind
        self.point = point
        self.detail = detail


class RuntimeFailure(ProgramRejected):
    """A test ended in a runtime error; the message is the diagnostic the
    tracer logged for the first such test."""


class EmptyCorpus(InvclustError):
    """No usable programs (or no grams) in the corpus."""


class MissingTests(InvclustError):
    def __init__(self, assignment):
        super().__init__(f"assignment '{assignment}' has no test suite")
        self.assignment = assignment


class BadTestFile(InvclustError):
    """A t<i>.in / t<i>.out file that is not UTF-8 text."""

    def __init__(self, path, err):
        super().__init__(f"{path}: not UTF-8 text ({err.reason} at byte "
                         f"{err.start})")
        self.path = path


class BadModel(InvclustError):
    """A persisted model.json (from corpus.load_model), vectors.npy (from
    corpus.load_vectors) or documents.json (from corpus.load_labels) that
    does not hold what persist wrote; the message names the file at
    fault."""

    def __init__(self, path, err):
        detail = f"missing key {err}" if isinstance(err, KeyError) else err
        super().__init__(f"{path}: malformed model file ({detail})")
        self.path = path


class MissingLabel(InvclustError):
    def __init__(self, program_id):
        super().__init__(f"no label for program '{program_id}'")
        self.program_id = program_id


class KTooLarge(InvclustError):
    pass


class DimensionMismatch(InvclustError):
    pass


class EmptyCandidates(InvclustError):
    pass


class ModeMismatch(InvclustError):
    pass
