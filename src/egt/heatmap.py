"""Relevance heatmap rendering to binary PPM (P6) images.

The palette is white-centered: positive relevance fades white to red,
negative fades white to blue, symmetrically, so flipping the sign of a
relevance map exactly swaps the red and blue channels.  Maps are
normalized by their absolute maximum before coloring, which makes the
output invariant to relevance scale.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError, DataFormatError

Array = np.ndarray
DEFAULT_BLEND = 0.6  # render_heatmap's share of heat color in a pixel over an underlay


def relevance_to_rgb(relevance: Array) -> Array:
    """Map a 2-D relevance array to uint8 RGB with the diverging palette."""
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.ndim != 2:
        raise ContractError(f"expected a 2-D relevance map, got shape {rel.shape}")
    peak = np.abs(rel).max()
    v = rel / peak if peak > 0 else np.zeros_like(rel)
    base = np.rint(255.0 * (1.0 - np.abs(v)))
    red = np.where(v >= 0, 255.0, base)
    blue = np.where(v <= 0, 255.0, base)
    return np.stack([red, base, blue], axis=-1).astype(np.uint8)


def write_ppm(path: str, rgb: Array) -> None:
    rgb = np.asarray(rgb)
    if rgb.ndim != 3 or rgb.shape[2] != 3 or rgb.dtype != np.uint8:
        raise ContractError(f"expected uint8 [H, W, 3] pixels, got "
                            f"{rgb.dtype} {rgb.shape}")
    h, w = rgb.shape[:2]
    with open(path, "wb") as fh:
        fh.write(f"P6\n{w} {h}\n255\n".encode("ascii"))
        fh.write(rgb.tobytes())


def read_ppm(path: str) -> Array:
    with open(path, "rb") as fh:
        raw = fh.read()
    if not raw.startswith(b"P6"):
        raise DataFormatError("not a binary PPM file", offset=0)
    fields: list[int] = []
    pos = 2
    for name in ("width", "height", "max value"):
        while pos < len(raw) and raw[pos:pos + 1].isspace():
            pos += 1
        start = pos
        while pos < len(raw) and not raw[pos:pos + 1].isspace():
            pos += 1
        if start == pos:
            raise DataFormatError("truncated PPM header", offset=pos)
        field = raw[start:pos]
        if not field.isdigit() or int(field) < 1:
            raise DataFormatError(f"PPM {name} {field!r} is not a positive integer", start)
        fields.append(int(field))
    pos += 1
    w, h, maxval = fields
    if maxval != 255:
        raise DataFormatError(f"unsupported PPM max value {maxval}", offset=start)
    body = raw[pos:pos + w * h * 3]
    if len(body) != w * h * 3:
        raise DataFormatError("truncated PPM pixel data", offset=len(raw))
    return np.frombuffer(body, dtype=np.uint8).reshape(h, w, 3)


def render_heatmap(relevance: Array, path: str, underlay: Array | None = None,
                   alpha: float = DEFAULT_BLEND) -> Array:
    """Render input-level relevance to a PPM file; returns the pixels.

    A [C, H, W] relevance tensor is summed over channels first.  With an
    ``underlay`` (image in [0, 1], shape [C, H, W] or [H, W]), the heat
    colors are alpha-blended over the image.
    """
    rel = np.asarray(relevance, dtype=np.float64)
    if rel.ndim == 3:
        rel = rel.sum(axis=0)
    rgb = relevance_to_rgb(rel).astype(np.float64)
    if underlay is not None:
        under = np.asarray(underlay, dtype=np.float64)
        if under.ndim == 2:
            under = under[None]
        if under.ndim != 3 or under.shape[1:] != rel.shape:
            raise ContractError(
                f"underlay shape {np.asarray(underlay).shape} does not match "
                f"relevance {rel.shape}")
        if under.shape[0] == 1:
            under = np.repeat(under, 3, axis=0)
        if under.shape[0] != 3:
            raise ContractError(f"underlay needs 1 or 3 channels, got {under.shape[0]}")
        if not 0.0 <= alpha <= 1.0:
            raise ContractError(f"alpha must lie in [0, 1], got {alpha}")
        img = np.clip(under, 0.0, 1.0).transpose(1, 2, 0) * 255.0
        rgb = alpha * rgb + (1.0 - alpha) * img
    pixels = np.rint(rgb).astype(np.uint8)
    write_ppm(path, pixels)
    return pixels
