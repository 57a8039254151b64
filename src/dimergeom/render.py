"""Deterministic SVG rendering of planar configurations: points as disks,
hyperplanes as lines clipped to the view box, incidences visible.
Identical input gives byte-identical output."""
from __future__ import annotations

import math
import xml.etree.ElementTree as ET

from .config import DoubleCircuitConfig
from .errors import InputError, UnsupportedDimension
from .record import Record, setfield
from .scalars import float_coords, is_zero


class RenderSpec(Record):
    _fields = ("xmin", "xmax", "ymin", "ymax", "width", "labels")
    __slots__ = _fields + ("height",)  # the height in pixels, at the scale of the width

    def __init__(self, xmin=-10.0, xmax=10.0, ymin=-10.0, ymax=10.0, width=640, labels=True):
        if not (all(map(math.isfinite, (xmin, xmax, ymin, ymax))) and xmin < xmax and ymin < ymax):
            raise InputError("render box must be finite with positive size")
        if not width > 0:
            raise InputError(f"render width must be positive, got {width}")
        height = (ymax - ymin) * (width / (xmax - xmin))
        if not (math.isfinite(height) and round(height) > 0):
            raise InputError(f"render box gives a pixel height of {height:g}; need a finite height of at least 1")
        for name, value in zip(self.__slots__, (xmin, xmax, ymin, ymax, width, labels, round(height))):
            setfield(self, name, value)


def _fmt(x: float) -> str:
    return f"{x:.4f}".rstrip("0").rstrip(".")


def _affine(coords):
    x, y, z = float_coords(coords)
    if is_zero(z, scale=max(abs(x), abs(y), 1.0)):
        return None  # at infinity
    return x / z, y / z


def _clip_line(a, b, c, spec: RenderSpec):
    """Segment of the line ax + by + c = 0 inside the box, or None."""
    pts = []
    if abs(b) > 1e-14:
        for x in (spec.xmin, spec.xmax):
            y = -(a * x + c) / b
            if spec.ymin - 1e-9 <= y <= spec.ymax + 1e-9:
                pts.append((x, y))
    if abs(a) > 1e-14:
        for y in (spec.ymin, spec.ymax):
            x = -(b * y + c) / a
            if spec.xmin - 1e-9 <= x <= spec.xmax + 1e-9:
                pts.append((x, y))
    uniq = []
    for p in pts:
        if not any(abs(p[0] - q[0]) + abs(p[1] - q[1]) < 1e-9 for q in uniq):
            uniq.append(p)
    if len(uniq) < 2:
        return None
    return uniq[0], uniq[1]


def render_config(c: DoubleCircuitConfig, spec: RenderSpec = RenderSpec(), project: bool = False) -> str:
    """SVG text for a d=2 configuration (or d=3 with the documented drop-z
    projection of the white points when project=True).  Vertices without
    a label are not drawn."""
    if c.d == 2:
        whites = {v: c.white_labels[v].coords for v in c.graph.white_ids if v in c.white_labels}
        blacks = {v: c.black_labels[v].coords for v in c.graph.black_ids if v in c.black_labels}
    elif c.d == 3 and project:
        # linear projection (x : y : z : w) -> (x : y : w); planes are not
        # projected (no push-forward), only the points are drawn
        whites = {
            v: (c.white_labels[v].coords[0], c.white_labels[v].coords[1], c.white_labels[v].coords[3])
            for v in c.graph.white_ids
            if v in c.white_labels
        }
        blacks = {}
    else:
        raise UnsupportedDimension(f"cannot render d={c.d} without a projection")
    return _render(whites, blacks, spec)


def render_points(points, spec: RenderSpec = RenderSpec()) -> str:
    """SVG for a bare list of planar points (polygon files), given as
    homogeneous coordinate tuples (x, y, z)."""
    whites = {f"v{i}": p for i, p in enumerate(points)}
    return _render(whites, {}, spec)


def _render(whites: dict, blacks: dict, spec: RenderSpec) -> str:
    sx = spec.width / (spec.xmax - spec.xmin)
    height = spec.height

    def to_px(p):
        return (p[0] - spec.xmin) * sx, (spec.ymax - p[1]) * sx

    svg = ET.Element(
        "svg",
        xmlns="http://www.w3.org/2000/svg",
        width=str(spec.width),
        height=str(height),
        viewBox=f"0 0 {spec.width} {height}",
    )
    ET.SubElement(svg, "rect", x="0", y="0", width=str(spec.width), height=str(height), fill="white")
    for name in sorted(blacks):
        a, b, cc = float_coords(blacks[name])
        seg = _clip_line(a, b, cc, spec)
        if seg is None:
            continue
        (x1, y1), (x2, y2) = (to_px(p) for p in seg)
        ET.SubElement(
            svg,
            "line",
            x1=_fmt(x1),
            y1=_fmt(y1),
            x2=_fmt(x2),
            y2=_fmt(y2),
            stroke="black",
            attrib={"stroke-width": "1"},
        )
        if spec.labels:
            lx, ly = to_px(((seg[0][0] + seg[1][0]) / 2, (seg[0][1] + seg[1][1]) / 2))
            t = ET.SubElement(svg, "text", x=_fmt(lx + 3), y=_fmt(ly - 3), attrib={"font-size": "10"})
            t.text = name
    for name in sorted(whites):
        aff = _affine(whites[name])
        if aff is None:
            continue
        x, y = to_px(aff)
        if not (0 <= x <= spec.width and 0 <= y <= height):
            continue
        ET.SubElement(
            svg,
            "circle",
            cx=_fmt(x),
            cy=_fmt(y),
            r="3",
            fill="crimson",
            stroke="black",
            attrib={"stroke-width": "0.5"},
        )
        if spec.labels:
            t = ET.SubElement(svg, "text", x=_fmt(x + 4), y=_fmt(y - 4), attrib={"font-size": "10"})
            t.text = name
    return ET.tostring(svg, encoding="unicode") + "\n"
