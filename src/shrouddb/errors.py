"""Exception hierarchy shared by all shrouddb modules."""


class ShroudError(Exception):
    """Base class for all shrouddb errors."""


class ParameterError(ShroudError, ValueError):
    """An argument violates a documented precondition."""


class DataError(ShroudError, ValueError):
    """Input data is malformed (duplicate IDs, out-of-domain keys, ...)."""


class QueryError(ShroudError, ValueError):
    """A query is malformed or outside the configured domain."""


class BudgetError(ShroudError):
    """Registering an attribute would exceed the total privacy budget."""


class AuthenticationError(ShroudError):
    """Ciphertext failed tag verification (wrong key or corruption)."""


class StorageError(ShroudError):
    """Base class for key-value storage failures."""


class BatchError(StorageError):
    """A batch operation failed; ``missing`` lists the offending keys."""

    def __init__(self, message: str, missing: list[bytes] | None = None):
        super().__init__(message)
        self.missing = missing or []


class StorageClosedError(StorageError):
    """Operation on a closed handle or dropped connection."""


class StorageNotEmptyError(StorageError):
    """ORAM initialisation over storage that already holds buckets."""


class AddressError(ShroudError, ValueError):
    """ORAM access outside [0, capacity)."""


class StashOverflowError(ShroudError):
    """Client stash exceeded its configured limit; the run must abort."""
