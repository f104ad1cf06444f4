"""One cold benchmark process.

    worker.py probe WORKLOAD SEED SIZE
        import what the workload uses, generate its inputs, print the
        monotonic clock and exit (one cold-start sample);
    worker.py pass WORKLOAD SEED SIZE OUT [--trace SPANS] [--corrupt]
        run one pass of e1_sweep or local_global and write the result as
        JSON to OUT;
    worker.py cli OUT SPANS -- ARGS...
        run one esss CLI command with the tracer installed.

perfbench/run.py starts these with PYTHONPATH set to the checkout's src/.
Only calls into esss are timed; the output checks run outside the timed
calls and are independent of the implementation: they use the public
results (pages, reports, documents) and facts of the mathematics, never
the engine's internals.
"""
from __future__ import annotations

import hashlib
import json
import os
import sys
import time
import traceback

import inputs

# time between reference timings, in seconds of esss calls
REFERENCE_EVERY_S = 0.25

MODULES = {
    "e1_sweep": ("esss.engine", "esss.fields", "esss.groups", "esss.oracles",
                 "esss.coefficients", "esss.numthy"),
    "local_global": ("esss.engine", "esss.fields", "esss.groups", "esss.basechange"),
    "cli_session": ("esss.cli",),
}


def monotonic() -> float:
    """CLOCK_MONOTONIC, comparable between processes on one machine."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def _check_source():
    import esss
    src = os.path.join(os.getcwd(), "src")
    if not os.path.abspath(esss.__file__).startswith(src + os.sep):
        raise SystemExit(f"esss imported from {esss.__file__}, not from {src}")


def _import(workload):
    import importlib
    for name in MODULES[workload]:
        importlib.import_module(name)
    _check_source()


class Ops:
    """Times calls into esss and records failures, one entry per operation.

    The reference loops of speed.py run between operations, about every
    REFERENCE_EVERY_S seconds of esss time, to give this pass's speed.
    """

    def __init__(self):
        self.latencies = []
        self.failed = set()
        self.first_call = None
        self.references = []
        self.reference(0)  # the first timing of a fresh process runs cold
        self.references.clear()
        self.reference(0)
        self.since_reference = 0.0

    def reference(self, index):
        """Time the reference loops before operation `index`."""
        import speed  # here, so that the cold-start probes do not import it
        self.references.append((index, speed.reference()))

    def call(self, fn, *args):
        op = len(self.latencies)
        if self.first_call is None:
            self.first_call = monotonic()
        t0 = time.perf_counter()
        try:
            return fn(*args)
        except Exception:
            traceback.print_exc()
            self.failed.add(op)
            return None
        finally:
            dt = time.perf_counter() - t0
            self.latencies.append(dt)
            self.since_reference += dt
            if self.since_reference >= REFERENCE_EVERY_S:
                self.reference(op + 1)
                self.since_reference = 0.0

    def fail(self, why):
        """Mark the last operation failed by an output check."""
        print(f"check failed: {why}", file=sys.stderr)
        self.failed.add(len(self.latencies) - 1)


def _field(spec):
    from esss.fields import parse_field
    kind = spec[0]
    if kind in ("fq", "qq"):
        return parse_field(kind, q=spec[1])
    if kind == "q":
        return parse_field(kind, support=tuple(spec[1]))
    return parse_field(kind)


def _page_text(page) -> str:
    lines = [f"{page.field.text()} {page.spectrum} r={page.r}"]
    for deg in sorted(page.data):
        dd = page.data[deg]
        lines.append(f"{deg.s},{deg.f},{deg.w}: " + " + ".join(cs.text() for cs in dd.summands))
        if dd.diff:
            lines.append(repr(dd.diff))
    return "\n".join(lines) + "\n"


def dd_violation(page):
    """A composable pair of page-1 differentials whose composite is nonzero.

    Both differentials are read as sparse (row, col, value) lists; the
    composite is checked modulo the orders of the summands it lands in.
    Pairs whose final target leaves the page's window are skipped.
    """
    from esss.groups import d_shift
    step = d_shift(1)

    def sparse(M):
        cols = {}
        for i, row in enumerate(M):
            for j, v in enumerate(row):
                if v:
                    cols.setdefault(j, []).append((i, v))
        return cols

    for deg, dd in page.data.items():
        mid = page.data.get(deg + step)
        end = deg + step + step
        if not dd.diff or mid is None or not mid.diff or end not in page.window:
            continue
        orders = [cs.order for cs in page.summands(end)]
        first, second = sparse(dd.diff), sparse(mid.diff)
        for j, entries in first.items():
            acc = {}
            for i, v in entries:
                for t, u in second.get(i, ()):
                    acc[t] = acc.get(t, 0) + u * v
            for t, v in acc.items():
                if t >= len(orders):
                    return deg, "composite lands outside the target basis"
                o = orders[t]
                if (o and v % o) or (not o and v):
                    return deg, f"d(d(x_{j})) has {v} at summand {t}"
    return None


def e1_sweep(inp, ops, digest, corrupt):
    """Closed-form E1 and d1 of kq and L per weight, then the oracles."""
    from esss.coefficients import coeff_classes
    from esss.engine import PageWindow, build_page1
    from esss.fields import ALG_CLOSED, REALS
    from esss.numthy import NU_INFINITY
    from esss.oracles import les_oracle, mass_hz2n_oracle

    units = 0
    (s0, s1), (f0, f1), (w0, w1) = inp["s"], inp["f"], inp["w"]
    fields = [_field(spec) for spec in inp["fields"]]
    for field in fields:
        for spectrum in ("kq", "L"):
            for w in range(w0, w1 + 1):
                window = PageWindow(s0, s1, f0, f1, w, w)
                page = ops.call(build_page1, field, spectrum, window)
                if page is None:
                    continue
                units += sum(1 for _ in page.window.degrees())
                bad = dd_violation(page)
                if bad:
                    ops.fail(f"d after d over {field.text()} {spectrum} at {bad}")
                digest.update(_page_text(page).encode())

    grid = [(s, w) for s in range(inp["oracle_s"][0], inp["oracle_s"][1] + 1)
            for w in range(inp["oracle_w"][0], inp["oracle_w"][1] + 1)]
    ns = [NU_INFINITY if n == "inf" else n for n in inp["oracle_n"]]
    jobs = [(mass_hz2n_oracle, field) for field in fields]
    jobs += [(les_oracle, field) for field in fields if field in (ALG_CLOSED, REALS)]
    for oracle, field in jobs:
        for n in ns:
            got = ops.call(lambda: [oracle(field, n, s, w) for s, w in grid])
            if got is None:
                continue
            got = [sorted(cs.order for cs in classes) for classes in got]
            if corrupt:
                corrupt = False
                got[0].append(2)
            want = [sorted(cs.order for cs in coeff_classes(field, n, s, w)) for s, w in grid]
            if got != want:
                ops.fail(f"{oracle.__name__} differs from coeff_classes over {field.text()}, n={n}")
            digest.update(repr(got).encode())
    return units


def local_global(inp, ops, digest, corrupt):
    """Comparison maps from Q(support) to R, Q2 and each Q_p, pages 1 and 2."""
    from esss.basechange import compare_e1, compare_e2
    from esss.engine import PageWindow, run
    from esss.fields import Q2, REALS, Q, Qq
    from esss.groups import TriDegree

    src = Q(tuple(inp["support"]))
    dsts = [REALS, Q2] + [Qq(p) for p in src.odd_support()]
    (s0, s1), (f0, f1), (w0, w1) = inp["s"], inp["f"], inp["w"]
    degs = [TriDegree(s, f, w) for s in range(s0, s1 + 1) for f in range(f0, f1 + 1)
            if (s + f) % 2 == 0 and s + f >= 0
            for w in range(w0, min(w1, (s + f) // 2) + 1)]
    window = PageWindow(s0, s1, f0, f1, w0, w1)
    units = 0
    for spectrum in ("kq", "L"):
        for deg in degs:
            rep = ops.call(compare_e1, src, dsts, spectrum, [deg])
            if rep is None:
                continue
            units += 1
            if corrupt:
                corrupt = False
                rep.injective[deg] = False
            if not (rep.all_injective and rep.all_commute):
                ops.fail(f"E1 comparison for {spectrum} at {deg}")
            digest.update(f"{spectrum} {deg} {rep.all_injective} {rep.all_commute}\n".encode())
        pages = [ops.call(lambda f: run(f, spectrum, window, want_einf=False).pages[1], field)
                 for field in [src] + dsts]
        if any(p is None for p in pages):
            continue
        spage, dpages = pages[0], pages[1:]
        for page in pages:
            digest.update(_page_text(page).encode())
        for deg in sorted(spage.data):
            rep = ops.call(compare_e2, src, dsts, spectrum, spage, dpages, [deg])
            if rep is None:
                continue
            units += 1
            if not rep.all_injective:
                ops.fail(f"E2 comparison for {spectrum} at {deg}")
            digest.update(f"{spectrum} {deg} {rep.all_injective}\n".encode())
    return units


PASSES = {"e1_sweep": e1_sweep, "local_global": local_global}


def cmd_probe(workload, seed, size):
    _import(workload)
    inputs.generate(workload, int(seed), size)
    print(repr(monotonic()))


def cmd_pass(workload, seed, size, out, spans_path=None, corrupt=False):
    _import(workload)
    inp = inputs.generate(workload, int(seed), size)
    tracer = None
    if spans_path:
        import tracer as tracing
        tracer = tracing.Tracer()
        tracer.install()
    ops = Ops()
    digest = hashlib.sha256()
    units = PASSES[workload](inp, ops, digest, corrupt)
    ops.reference(len(ops.latencies))
    result = {"latencies": ops.latencies, "references": ops.references,
              "failed": len(ops.failed), "units": units,
              "digest": digest.hexdigest(), "first_call": ops.first_call}
    if tracer is not None:
        result["layers"] = tracer.aggregate()
        result["missing"] = tracer.missing
        tracer.dump(spans_path)
    with open(out, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


def cmd_cli(out, spans_path, args):
    import tracer as tracing
    tracer = tracing.Tracer()
    _import("cli_session")
    tracer.install()
    import esss.cli
    entered = monotonic()
    try:
        code = esss.cli.main(args)
    finally:
        sys.stdout.flush()
        with open(out, "w", encoding="utf-8") as fh:
            json.dump({"layers": tracer.aggregate(), "missing": tracer.missing,
                       "entered": entered}, fh)
        tracer.dump(spans_path)
    return code


def main(argv):
    mode = argv[0]
    if mode == "probe":
        cmd_probe(*argv[1:4])
        return 0
    if mode == "pass":
        workload, seed, size, out = argv[1:5]
        rest = argv[5:]
        spans = rest[rest.index("--trace") + 1] if "--trace" in rest else None
        cmd_pass(workload, seed, size, out, spans, "--corrupt" in rest)
        return 0
    if mode == "cli":
        out, spans = argv[1:3]
        return cmd_cli(out, spans, argv[argv.index("--") + 1:])
    raise SystemExit(f"unknown mode {mode!r}")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
