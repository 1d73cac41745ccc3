"""Exception types shared across the package."""


class ContrastiveRetrievalError(Exception):
    """Base class for all errors raised by this package."""


# --- vector math ---

class ZeroVectorError(ContrastiveRetrievalError):
    """A vector with (near-)zero norm cannot be normalized or compared."""


class DimensionMismatchError(ContrastiveRetrievalError):
    """Vectors of different dimensions were combined."""


class EmptyListError(ContrastiveRetrievalError):
    """An aggregate over vectors received an empty list."""


# --- hypothesis generation ---

class TooFewOptionsError(ContrastiveRetrievalError):
    """A question needs at least two answer options."""


class ParseFailureError(ContrastiveRetrievalError):
    """No usable hypothesis pair could be parsed from generator output."""


class BackendUnavailableError(ContrastiveRetrievalError):
    """A backend could not be reached after transport-level retries."""


class EmbedderFailureError(ContrastiveRetrievalError):
    """The embedding backend returned an error or an unusable vector."""


# --- retrieval ---

class MissingEmbeddingError(ContrastiveRetrievalError):
    """A hypothesis pair lacks the embedding required for scoring."""


class EmptyCorpusError(ContrastiveRetrievalError):
    """Retrieval was attempted against a corpus with no documents."""


# --- pipeline / analysis ---

class UnknownDocIdError(ContrastiveRetrievalError):
    """A ranked hit references a document id absent from the corpus."""


class EmptyInputError(ContrastiveRetrievalError):
    """An aggregate was requested over an empty record collection."""


class NoQualifyingCasesError(ContrastiveRetrievalError):
    """The overlap analysis filter selected zero cases."""


class UnknownItemIdError(ContrastiveRetrievalError):
    """A rating references an item id absent from the records or the dataset."""


# --- ingestion / persistence ---

class MalformedLineError(ContrastiveRetrievalError):
    """A JSONL line failed to parse or validate.

    Carries the 1-based line number in ``line_no``.
    """

    def __init__(self, line_no: int, message: str):
        super().__init__(f"line {line_no}: {message}")
        self.line_no = line_no


class DuplicateIdError(ContrastiveRetrievalError):
    """Two records in one file share an id."""

    def __init__(self, line_no: int, doc_id: str):
        super().__init__(f"line {line_no}: duplicate id {doc_id!r}")
        self.line_no = line_no
        self.doc_id = doc_id


class InvalidAnswerKeyError(ContrastiveRetrievalError):
    """A dataset item's answer key is not one of its option letters."""


class BadMagicError(ContrastiveRetrievalError):
    """The embedding cache file does not start with the expected magic bytes."""


class VersionMismatchError(ContrastiveRetrievalError):
    """The embedding cache file uses an unsupported format version.

    Carries the version the file declares in ``version``.
    """

    def __init__(self, message: str, version: int):
        super().__init__(message)
        self.version = version


class TruncatedFileError(ContrastiveRetrievalError):
    """The embedding cache file ended mid-record."""


class MalformedCacheError(ContrastiveRetrievalError):
    """The embedding cache's tables hold an id twice, or text that is not UTF-8."""


class NormDriftError(ContrastiveRetrievalError):
    """A cached embedding drifted outside unit norm beyond float32 tolerance."""


class StaleEmbeddingError(ContrastiveRetrievalError):
    """A cached embedding was computed from another text than its document's."""

    def __init__(self, line_no: int, doc_id: str):
        super().__init__(
            f"line {line_no}: the cached embedding of {doc_id!r} embeds another text; "
            f"rebuild the cache with `chr-rag embed`"
        )
        self.line_no = line_no
        self.doc_id = doc_id
