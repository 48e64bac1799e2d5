"""Errors raised by the binary dataset/model file readers."""


class FileFormatError(Exception):
    """Base class for malformed dataset or model files."""


class BadMagicError(FileFormatError):
    """File does not start with the expected magic bytes."""


class FormatVersionError(FileFormatError):
    """File carries a format version this reader does not understand."""


class TruncatedFileError(FileFormatError):
    """File ends before the payload announced by its header."""


class InvalidContentError(FileFormatError):
    """File is well-formed but holds values the model or dataset rejects."""


def check_payload_size(found: int, promised: int, what: str) -> None:
    """Raise unless a file holds exactly the payload bytes its header promises.

    Readers call this before they build arrays from the header's counts, so a
    corrupt count fails here instead of sizing an allocation.
    """
    if found < promised:
        raise TruncatedFileError(f"{what} payload holds {found} bytes, header promises {promised}")
    if found > promised:
        raise FileFormatError(f"trailing bytes after {what} payload")
