"""Deterministic SVG plots of polytopes in FT^3.

Points are drawn in the projective plane through (x1 - x3, x2 - x3); the
covering cells of the covector decomposition are shaded (two-dimensional
cells as filled polygons, one-dimensional cells as segments, vertices as
small dots) and the extremal generators are marked with solid dots.  The
scale is 40 user units per tropical unit, the origin is auto-centred on
the generator bounding box, and all coordinates are formatted from exact
rationals, so identical input yields byte-identical output.
"""

from __future__ import annotations

from fractions import Fraction

from .cells import DEFAULT_MAX_TUPLES, cell_complex, covector_leq
from .errors import DimensionMismatch
from .polytopes import Polytope

UNIT = 40
MARGIN = 40


def projectivise(point):
    """Quotient by tropical scaling: drop the last coordinate."""
    last = point[-1]
    return tuple(v - last for v in point[:-1])


def _fmt(value) -> str:
    # exact two-decimal rendering; round() on Fraction is deterministic
    cents = round(Fraction(value) * 100)
    sign = "-" if cents < 0 else ""
    cents = abs(cents)
    return f"{sign}{cents // 100}.{cents % 100:02d}"


def _hull(points):
    """Convex hull of exact rational plane points, counterclockwise."""
    pts = sorted(set(points))
    if len(pts) <= 2:
        return pts

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return lower[:-1] + upper[:-1]


def render_polytope_svg(polytope: Polytope, max_tuples: int = DEFAULT_MAX_TUPLES) -> str:
    """The SVG scene for a polytope in FT^3."""
    if polytope.ambient != 3:
        raise DimensionMismatch("plots are drawn for polytopes in ambient dimension 3")
    complex_ = cell_complex(polytope, max_tuples)

    gens = polytope.extremals().generators
    marks = [projectivise(g) for g in gens]
    xs = [p[0] for p in marks]
    ys = [p[1] for p in marks]
    cx = (min(xs) + max(xs)) / 2
    cy = (min(ys) + max(ys)) / 2
    width = (max(xs) - min(xs)) * UNIT + 2 * MARGIN
    height = (max(ys) - min(ys)) * UNIT + 2 * MARGIN

    def to_px(p):
        return (width / 2 + (p[0] - cx) * UNIT, height / 2 - (p[1] - cy) * UNIT)

    covering = complex_.covering_faces()
    vertices = [(f.covector, projectivise(f.witness)) for f in covering if f.dim == 1]

    def corners(face):
        return [pt for cov, pt in vertices if covector_leq(face.covector, cov)]

    parts = [
        '<?xml version="1.0" encoding="UTF-8"?>',
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_fmt(width)}" height="{_fmt(height)}" '
        f'viewBox="0 0 {_fmt(width)} {_fmt(height)}">',
        f'<rect width="{_fmt(width)}" height="{_fmt(height)}" fill="#ffffff"/>',
    ]
    for face in covering:
        if face.dim != 3:
            continue
        ring = _hull(corners(face))
        coords = " ".join(f"{_fmt(px)},{_fmt(py)}" for px, py in (to_px(p) for p in ring))
        parts.append(f'<polygon class="cell-area" points="{coords}" fill="#d9d9d9" stroke="none"/>')
    for face in covering:
        if face.dim != 2:
            continue
        ends = corners(face)
        a, b = min(ends), max(ends)
        ax, ay = to_px(a)
        bx, by = to_px(b)
        parts.append(
            f'<line class="cell-edge" x1="{_fmt(ax)}" y1="{_fmt(ay)}" x2="{_fmt(bx)}" y2="{_fmt(by)}" '
            f'stroke="#000000" stroke-width="1.50"/>'
        )
    for _, pt in vertices:
        px, py = to_px(pt)
        parts.append(
            f'<circle class="cell-vertex" cx="{_fmt(px)}" cy="{_fmt(py)}" r="2.00" fill="#555555"/>'
        )
    for mark in marks:
        px, py = to_px(mark)
        parts.append(
            f'<circle class="generator" cx="{_fmt(px)}" cy="{_fmt(py)}" r="4.00" fill="#000000"/>'
        )
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
