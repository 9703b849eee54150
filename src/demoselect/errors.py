"""Exception types shared across the package."""


class DemoselectError(Exception):
    """Base class for all package errors."""


class ParseError(DemoselectError):
    """Raised when a program cannot be parsed. Carries a character offset."""

    def __init__(self, message: str, position: int | None = None):
        self.position = position
        if position is not None:
            message = f"{message} (at offset {position})"
        super().__init__(message)


class InvalidKError(DemoselectError):
    """Requested selection size k is not a positive integer."""


class BudgetTooSmallError(DemoselectError):
    """The token budget cannot fit even the test block of a prompt."""


class ConfigError(DemoselectError):
    """Inconsistent or unsupported configuration."""


class UnknownIdError(ConfigError):
    """A stage row names an example id that the stage cannot resolve."""


class CorpusError(DemoselectError):
    """Corpus-level failure, e.g. too many unparseable examples."""

    def __init__(self, message: str, failures: list | None = None):
        self.failures = failures or []
        super().__init__(message)


class IoError(DemoselectError):
    """A required file could not be read or written."""


class IndexVersionError(DemoselectError):
    """Persisted index file has an unknown magic string or version."""


class GenerationError(DemoselectError):
    """The fixture grammar cannot satisfy the requested corpus size or split."""


class TransportError(DemoselectError):
    """Network-level failure talking to the completion endpoint, after retries."""


class ApiError(DemoselectError):
    """Non-success HTTP response from the completion endpoint."""

    def __init__(self, status: int, body: str = ""):
        self.status = status
        self.body = body
        super().__init__(f"endpoint returned status {status}: {body[:200]}")
