"""Deterministic JSON and markdown output for pages and homotopy tables.

Documents are versioned and byte-stable: keys are emitted in sorted order,
entries are sorted by degree and generator, and no timestamps or
environment data are ever included.
"""
from __future__ import annotations

from .engine import Page, RunResult
from .numthy import NU_INFINITY
from .pitable import PiTable

SCHEMA = "esss-page/1"


def _order_text(order: int) -> str:
    return "Z" if order == 0 else str(order)


def page_document(page: Page, result: RunResult | None = None, window=None) -> dict:
    win = window or page.window
    degrees = [deg for deg in sorted(page.data) if deg in win]
    groups = []
    for deg in degrees:
        dd = page.data[deg]
        if not dd.summands:
            continue
        groups.append({
            "s": deg.s, "f": deg.f, "w": deg.w,
            "summands": [{"order": _order_text(cs.order), "generator": cs.gen.text()}
                         for cs in dd.summands],
        })
    diffs = []
    for deg in degrees:
        dd = page.data[deg]
        if not dd.summands or not any(any(row) for row in dd.diff):
            continue
        diffs.append({
            "source": [deg.s, deg.f, deg.w],
            "matrix": dd.diff,
        })
    doc = {
        "schema": SCHEMA,
        "field": page.field.text(),
        "spectrum": page.spectrum,
        "page": page.r,
        "window": {
            "s": [win.s_min, win.s_max],
            "f": [win.f_min, win.f_max],
            "w": [win.w_min, win.w_max],
        },
        "groups": groups,
        "differential": diffs,
    }
    if result is not None:
        doc["status"] = result.status
        if result.certificate is not None:
            doc["certificate"] = {
                "kind": result.certificate.kind,
                "detail": result.certificate.detail,
            }
    return doc


def document_json(doc: dict) -> str:
    import json  # only the JSON writer and reader need it
    return json.dumps(doc, sort_keys=True, indent=1) + "\n"


def parse_document(text: str) -> dict:
    """A JSON document read back, schema checked (public: perfbench/run.py reads it)."""
    import json
    doc = json.loads(text)
    if doc.get("schema") != SCHEMA:
        raise ValueError(f"unsupported schema {doc.get('schema')!r}")
    return doc


def page_markdown(page: Page, result: RunResult | None = None, window=None) -> str:
    win = window or page.window
    lines = [
        f"# {page.spectrum} over {page.field.text()}, page {page.r}",
        "",
        "| s | f | w | group |",
        "|---|---|---|-------|",
    ]
    for deg in sorted(page.data):
        if deg not in win:
            continue
        dd = page.data[deg]
        if not dd.summands:
            continue
        text = " + ".join(cs.text() for cs in dd.summands)
        lines.append(f"| {deg.s} | {deg.f} | {deg.w} | {text} |")
    if result is not None and result.certificate is not None:
        lines += ["", f"certificate: {result.certificate.kind} "
                      f"({result.certificate.detail})"]
    return "\n".join(lines) + "\n"


def _h_text(h) -> str:
    return "inf" if h is NU_INFINITY else str(h)


def pi_markdown(table: PiTable) -> str:
    lines = [
        f"# pi_(s,w) of {table.spectrum} over {table.field.text()}",
        "",
        "| generator | degree | constraints | degree of h-torsion |",
        "|-----------|--------|-------------|---------------------|",
    ]
    for (s, w) in sorted(table.entries):
        status = table.status[(s, w)]
        note = "" if status == "resolved" else status
        for pe in table.entries[(s, w)]:
            lines.append(f"| {pe.name} | ({s},{w}) | {note} | {_h_text(pe.h_torsion)} |")
    return "\n".join(lines) + "\n"


def pi_document(table: PiTable) -> dict:
    entries = []
    for (s, w) in sorted(table.entries):
        entries.append({
            "s": s, "w": w,
            "status": table.status[(s, w)],
            "summands": [{"order": _order_text(pe.order), "generator": pe.name,
                          "h_torsion": _h_text(pe.h_torsion)}
                         for pe in table.entries[(s, w)]],
        })
    return {
        "schema": "esss-pi/1",
        "field": table.field.text(),
        "spectrum": table.spectrum,
        "entries": entries,
    }
