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

