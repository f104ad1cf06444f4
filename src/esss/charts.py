"""Deterministic SVG charts of spectral sequence pages.

The horizontal axis is the stem and the vertical axis is the filtration.
Each occupied spot collects its tau-column (the groups over all stored
weights) and is drawn with one glyph per summand family; the legend maps
every family descriptor that occurs to its glyph, so legend coverage of
the chart is total by construction.  Glyphs follow the usual chart
conventions: bullets for order-2 tau towers, red bullets for isolated
order-2 classes, squares for free classes, subscripted squares for larger
cyclic groups, pointed triangles for kernel and cokernel families,
diamonds for divisible families; cokernel (iota) classes are dark green.
"""
from __future__ import annotations

from .engine import Page

CELL = 40
MARGIN = 60


def _family_of(summands):
    """Classify one (s, f) spot's tau-column into glyph families.

    Returns a list of (descriptor, glyph, color) triples, one per family
    present at the spot.
    """
    families = {}
    for cs in summands:
        mono = cs.gen.lead
        iota = mono.iota == 1
        color = "darkgreen" if iota else "black"
        has_units = mono.units != ()
        if cs.order == 0:
            key = ("free class" + (" (iota)" if iota else ""), "square", color)
        elif cs.order == 2 and not has_units and mono.coeff2 == 0:
            key = ("order-2 tau classes" + (" (iota)" if iota else ""), "bullet", color)
        elif has_units and mono.h1 == 0 and mono.v1 > 0:
            kind = "cokernel family" if iota else "kernel family"
            glyph = "triangle-left" if iota else "triangle-right"
            key = (kind, glyph, color)
        elif has_units and mono.h1 == 0:
            key = ("divisible family" + (" (iota)" if iota else ""), "diamond", color)
        elif cs.order > 2 or mono.coeff2 > 0:
            key = ("cyclic 2-power class" + (" (iota)" if iota else ""),
                   "square-subscript", color)
        else:
            key = ("order-2 unit classes" + (" (iota)" if iota else ""), "bullet", color)
        families.setdefault(key, []).append(cs)
    return families


def _glyph_svg(glyph, x, y, color, label=""):
    if glyph == "bullet":
        return [f'<circle cx="{x}" cy="{y}" r="5" fill="{color}"/>']
    if glyph == "square":
        return [f'<rect x="{x - 6}" y="{y - 6}" width="12" height="12" fill="{color}"/>']
    if glyph == "square-subscript":
        out = [f'<rect x="{x - 6}" y="{y - 6}" width="12" height="12" fill="none" stroke="{color}"/>']
        if label:
            out.append(f'<text x="{x + 8}" y="{y + 10}" font-size="9" fill="{color}">{label}</text>')
        return out
    if glyph == "triangle-right":
        return [f'<polygon points="{x - 6},{y - 6} {x - 6},{y + 6} {x + 7},{y}" fill="{color}"/>']
    if glyph == "triangle-left":
        return [f'<polygon points="{x + 6},{y - 6} {x + 6},{y + 6} {x - 7},{y}" fill="{color}"/>']
    if glyph == "diamond":
        return [f'<polygon points="{x},{y - 7} {x + 7},{y} {x},{y + 7} {x - 7},{y}" fill="{color}"/>']
    raise AssertionError(glyph)


def chart_svg(page: Page, s_range, f_range) -> str:
    s_min, s_max = s_range
    f_min, f_max = f_range
    width = MARGIN * 2 + (s_max - s_min + 1) * CELL
    height = MARGIN * 2 + (f_max - f_min + 1) * CELL + 40
    body = []
    legend_entries = {}

    def pos(s, f):
        x = MARGIN + (s - s_min) * CELL + CELL // 2
        y = MARGIN + (f_max - f) * CELL + CELL // 2
        return x, y

    for s in range(s_min, s_max + 1):
        x, _ = pos(s, f_min)
        body.append(f'<text x="{x - 4}" y="{height - 50}" font-size="11">{s}</text>')
    for f in range(f_min, f_max + 1):
        _, y = pos(s_min, f)
        body.append(f'<text x="{MARGIN - 30}" y="{y + 4}" font-size="11">{f}</text>')

    spots = {}
    for deg, dd in sorted(page.data.items()):
        if not (s_min <= deg.s <= s_max and f_min <= deg.f <= f_max):
            continue
        spots.setdefault((deg.s, deg.f), []).extend(dd.summands)

    for (s, f) in sorted(spots):
        families = _family_of(spots[(s, f)])
        x, y = pos(s, f)
        offset = 0
        for (descriptor, glyph, color), members in sorted(families.items()):
            legend_entries[(descriptor, glyph, color)] = True
            label = ""
            if glyph == "square-subscript":
                top = max(cs.order for cs in members)
                label = str(top.bit_length() - 1)
            dx = offset * 9 - (len(families) - 1) * 4
            body.extend(_glyph_svg(glyph, x + dx, y, color, label))
            offset += 1

    ly = height - 26
    lx = MARGIN
    for (descriptor, glyph, color) in sorted(legend_entries):
        body.extend(_glyph_svg(glyph, lx, ly, color))
        body.append(f'<text x="{lx + 12}" y="{ly + 4}" font-size="10">{descriptor}</text>')
        lx += 12 + 8 * len(descriptor) + 18
    title = f"{page.spectrum} over {page.field.text()}, page {page.r}"
    head = (f'<svg xmlns="http://www.w3.org/2000/svg" version="1.1" '
            f'width="{width}" height="{height}">')
    parts = [head,
             f'<text x="{MARGIN}" y="24" font-size="13">{title}</text>']
    parts.extend(body)
    parts.append("</svg>")
    return "\n".join(parts) + "\n"
