"""Exception types shared across the analyzer."""


class AnalyzerError(Exception):
    """Base class for every error raised by this package."""


class MessageSyntaxError(AnalyzerError):
    """Malformed message or protocol text; the message names the offset of
    the offending token and what was expected there."""

    def __init__(self, text: str, position: int, expected: str):
        snippet = text[position:position + 12] or "<end of input>"
        super().__init__(f"at offset {position}: expected {expected}, found {snippet!r}")


class UndeclaredIdentifier(AnalyzerError):
    def __init__(self, name: str):
        super().__init__(f"identifier {name!r} is not declared")


class VariableInKeyPosition(AnalyzerError):
    def __init__(self, name: str):
        super().__init__(f"variable {name!r} cannot be used as an encryption key")


class SubstitutedIntoKeyPosition(AnalyzerError):
    def __init__(self, key: str, image: str):
        super().__init__(f"binding of key {key!r} to {image!r} is not an atomic key")


class NotAKey(AnalyzerError):
    def __init__(self, name: str):
        super().__init__(f"{name!r} is not registered as a key")


class ContextError(AnalyzerError):
    """Inconsistent input: missing or conflicting declarations, a rule that
    is not keys-monotone or whose right-hand side has an unbound
    metavariable, or a role view that sends a variable it has not received."""


class NonTermination(AnalyzerError):
    def __init__(self, budget: int):
        super().__init__(f"rewriting did not reach a normal form within {budget} steps")


class NoProtectivePattern(AnalyzerError):
    """A non-public atom or a variable is sent outside any encryption."""

    def __init__(self, atom: str, message: str):
        super().__init__(f"{atom} occurs in clear in sent message {message}")


class WellProtectionViolation(AnalyzerError):
    def __init__(self, atom: str, message: str):
        super().__init__(f"{atom} is not protected by any qualifying key in {message}")


class NoWellProtectedSample(AnalyzerError):
    """The oracle found no well-protected message set to start from: the
    context leaves too few public names or strong enough keys."""

    def __init__(self):
        super().__init__("could not build a well-protected sample; context too restrictive")
