"""Exception types shared across the package, and the header tokenizer.

The CLI maps these onto process exit codes: usage and configuration
problems exit 1, data problems exit 2, numeric failures exit 3.

Both file formats describe their contents in ascii ``key=value``
headers; :func:`parse_fields` is the one tokenizer for all of them and
reports every malformed header as a :class:`DataFormatError`.
"""

from __future__ import annotations


class ContractError(ValueError):
    """A caller violated an operation contract (shapes, ranges, arguments)."""


class ConfigError(ValueError):
    """An unknown layer kind, rule name, or inconsistent configuration."""


class DataFormatError(ValueError):
    """A dataset or checkpoint file is malformed.

    ``offset`` holds the byte offset at which parsing failed, when known.
    """

    def __init__(self, message: str, offset: int | None = None):
        if offset is not None:
            message = f"{message} (byte offset {offset})"
        super().__init__(message)
        self.offset = offset


class NumericError(ArithmeticError):
    """A numeric invariant broke: non-finite values, degenerate embeddings."""


def parse_dims(text: str) -> tuple[int, ...]:
    """``"3x16x16"`` -> ``(3, 16, 16)``."""
    return tuple(int(d) for d in text.split("x"))


def parse_fields(tokens: list[str], schema: dict, offset: int | None,
                 optional: tuple = ()) -> dict:
    """Parse ``key=value`` header tokens into a dict.

    Every key of ``schema`` is required, and its value is converted by
    the callable it maps to; keys in ``optional`` may appear and are
    kept as strings.  A token without ``=``, a repeated, unknown or
    missing key, or a value its converter rejects raises
    :class:`DataFormatError` at ``offset``.
    """
    fields: dict = {}
    for token in tokens:
        parts = token.split("=", 1)
        if len(parts) != 2:
            raise DataFormatError(f"header token {token!r} is not key=value", offset)
        if parts[0] in fields:
            raise DataFormatError(f"header key {parts[0]!r} is repeated", offset)
        fields[parts[0]] = parts[1]
    unknown = sorted(fields.keys() - schema.keys() - set(optional))
    if unknown:
        raise DataFormatError(f"header has unknown keys {unknown}", offset)
    missing = sorted(schema.keys() - fields.keys())
    if missing:
        raise DataFormatError(f"header is missing keys {missing}", offset)
    for key, convert in schema.items():
        try:
            fields[key] = convert(fields[key])
        except ValueError as exc:
            raise DataFormatError(f"bad header value {key}={fields[key]!r}: {exc}",
                                  offset) from exc
    return fields
