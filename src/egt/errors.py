"""Exception types, the header tokenizer, and the binary container.

The CLI maps these onto process exit codes: usage and configuration
problems exit 1, as does a size whose arrays cannot be allocated
(``MemoryError``), data problems exit 2, numeric failures exit 3.

``.egtd`` datasets and ``.egt1`` checkpoints share one container: a
magic, ascii ``key=value`` header lines up to a terminator, then raw
typed blocks (:func:`write_container`, :class:`Container`).  Each format
keeps only its own grammar, with its shapes written by :func:`format_dims`
and read by :func:`parse_dims`.  Every malformed file raises
:class:`DataFormatError`, naming the byte where it failed.
"""

from __future__ import annotations

import math
import sys

import numpy as np


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


def check_addressable(shape: tuple[int, ...], itemsize: int, what: str) -> None:
    """Raise ``MemoryError`` if an array of ``shape`` needs more bytes than numpy can address.

    numpy refuses such an array with a ``ValueError`` before it tries to
    allocate; this turns it into the error of any other size too large.
    """
    if math.prod(shape) * itemsize > sys.maxsize:
        raise MemoryError(f"{what} of shape {format_dims(shape)} would need more than "
                          f"{sys.maxsize} bytes")


def format_dims(dims: tuple[int, ...]) -> str:
    """``(3, 16, 16)`` -> ``"3x16x16"``, the token :func:`parse_dims` reads."""
    return "x".join(map(str, dims))


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


def write_container(path: str, magic: bytes, lines: list[str], terminator: bytes,
                    blocks: list[np.ndarray]) -> None:
    """Write ``magic``, the ascii ``lines`` joined by newlines, ``terminator``, then each block.

    A float block holding a non-finite value is refused before the file is opened, as
    :meth:`Container.blocks` refuses it on read: a file already at ``path`` stays whole."""
    if any(block.dtype.kind == "f" and not np.isfinite(block).all() for block in blocks):
        raise NumericError(f"refusing to write {path}: it would hold a non-finite value")
    with open(path, "wb") as fh:
        fh.write(magic + "\n".join(lines).encode("ascii") + terminator)
        for block in blocks:
            block.tofile(fh)


class Container:
    """A file in :func:`write_container`'s layout, read whole; ``what`` names it in messages.

    ``lines`` holds each header line, the magic's own first, as ``(byte offset, text)``;
    the header ends at the first ``terminator``, which starts with a newline.
    """

    def __init__(self, path: str, what: str, magic: bytes, terminator: bytes):
        with open(path, "rb") as fh:
            self.raw = fh.read()
        if not self.raw.startswith(magic):
            raise DataFormatError(f"not an {magic.decode().strip()} {what} (bad magic)", 0)
        cut = self.raw.find(terminator)
        if cut < 0:
            raise DataFormatError(f"{what} header is missing its end line", len(self.raw))
        try:
            header = self.raw[:cut].decode("ascii")
        except UnicodeDecodeError as exc:
            raise DataFormatError(f"{what} header is not ascii: {exc}", exc.start) from exc
        self.what, self.start = what, cut + len(terminator)
        self.lines, offset = [], 0
        for text in header.split("\n"):
            self.lines.append((offset, text))
            offset += len(text) + 1

    def blocks(self, layout: list[tuple[str, tuple[int, ...]]]) -> list[np.ndarray]:
        """The payload as read-only views, one per ``(dtype, shape)`` of ``layout``.

        A short payload fails at its end, a long one at its first trailing
        byte, a non-finite float at its own first byte.
        """
        sizes = [np.dtype(dtype).itemsize * math.prod(shape) for dtype, shape in layout]
        end = self.start + sum(sizes)
        if len(self.raw) < end:
            raise DataFormatError(f"{self.what} payload is truncated", len(self.raw))
        if len(self.raw) > end:
            raise DataFormatError(f"{self.what} payload has trailing bytes", end)
        arrays, pos = [], self.start
        for (dtype, shape), size in zip(layout, sizes):
            block = np.frombuffer(self.raw, dtype, math.prod(shape), pos).reshape(shape)
            if block.dtype.kind == "f" and not np.isfinite(block).all():
                first = int(np.flatnonzero(~np.isfinite(block))[0])
                raise DataFormatError(f"{self.what} payload holds a non-finite value",
                                      pos + first * block.itemsize)
            arrays.append(block)
            pos += size
        return arrays
