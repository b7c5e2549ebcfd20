"""Exception types shared across the analyzer."""


class AnalyzerError(Exception):
    """Base class for every error raised by this package."""


class MessageSyntaxError(AnalyzerError):
    """Malformed message or protocol text.

    Carries the offset of the offending token and what was expected there.
    """

    def __init__(self, text: str, position: int, expected: str):
        self.text = text
        self.position = position
        self.expected = expected
        snippet = text[position:position + 12] or "<end of input>"
        super().__init__(f"at offset {position}: expected {expected}, found {snippet!r}")


class UndeclaredIdentifier(AnalyzerError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"identifier {name!r} is not declared")


class VariableInKeyPosition(AnalyzerError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"variable {name!r} cannot be used as an encryption key")


class SubstitutedIntoKeyPosition(AnalyzerError):
    def __init__(self, key: str, image: str):
        super().__init__(f"binding of key {key!r} to {image!r} is not an atomic key")


class NotAKey(AnalyzerError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"{name!r} is not registered as a key")


class MismatchedUniverse(AnalyzerError):
    """Lattice operation applied to something that is not a security level."""


class UnleveledKey(AnalyzerError):
    def __init__(self, name: str):
        self.name = name
        super().__init__(f"key {name!r} has no usable level on either side of its pair")


class ContextError(AnalyzerError):
    """Inconsistent verification context (missing declarations)."""


class NonTermination(AnalyzerError):
    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"rewriting did not reach a normal form within {budget} steps")


class NoProtectivePattern(AnalyzerError):
    """A non-public atom or a variable is sent outside any encryption."""

    def __init__(self, atom: str, message: str):
        self.atom = atom
        self.message = message
        super().__init__(f"{atom} occurs in clear in sent message {message}")


class WellProtectionViolation(AnalyzerError):
    def __init__(self, atom: str, message: str):
        self.atom = atom
        self.message = message
        super().__init__(f"{atom} is not protected by any qualifying key in {message}")
