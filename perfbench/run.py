"""The esss benchmark: cold-process workloads with end-to-end and per-layer metrics.

    python3 perfbench/run.py --workload e1_sweep --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout (it uses src/esss as it is).  Every
pass of a workload is a fresh interpreter, so the module-level caches start
cold as they do for a CLI user.  One sequential client drives the load:
one child process at a time, each started when the previous one ended
(closed loop).  A run makes about --seconds worth of passes with the same
inputs; each operation's time is its median over the passes, scaled to
the reference speed of speed.py.

With --trace 0 the last line of stdout is one JSON object with the
end-to-end metrics; with --trace 1 the passes alternate untraced and
traced, and it holds the per-layer metrics.  The lines above it print the
same numbers for a reader, with sample counts, the tail percentile,
fail_rate and the sha256 digest of all outputs.  See perfbench/README.md.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
import threading
import time
import xml.etree.ElementTree as ET

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import speed  # noqa: E402
import tracer as tracing  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
WORK_ROOT = os.path.join(ROOT, ".perfbench_work")
WORKER = os.path.join(HERE, "worker.py")
DEADLINE_S = 170.0
SETUP_SAMPLES = 21
# Seconds one untraced pass takes on the baseline box.  A run makes
# round(--seconds / PASS_S) passes, at least one, so that every run of a
# workload has the same number of samples whatever the speed.
PASS_S = {"e1_sweep": 7.5, "local_global": 6.0, "cli_session": 10.0}
UNIT_NAMES = {"e1_sweep": "E1 tridegrees", "local_global": "compared tridegrees",
              "cli_session": "commands"}


def monotonic() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class Child:
    """A finished child process: exit code, timing and resource usage."""

    def __init__(self, code, start, end, rss_mb, cpu_s, out_path, err_path):
        self.code, self.start, self.end = code, start, end
        self.rss_mb, self.cpu_s = rss_mb, cpu_s
        self.out_path, self.err_path = out_path, err_path

    @property
    def wall(self):
        return self.end - self.start

    def stdout(self) -> bytes:
        with open(self.out_path, "rb") as fh:
            return fh.read()

    def stderr_tail(self) -> str:
        with open(self.err_path, "rb") as fh:
            return fh.read()[-2000:].decode(errors="replace")


class Runner:
    """Starts the children of one run; their files go to one work directory."""

    def __init__(self, work, seed, deadline):
        self.work = work
        self.deadline = deadline
        self.count = 0
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = SRC + os.pathsep + HERE
        self.env["PYTHONHASHSEED"] = str(seed % 4294967296)

    def reference(self) -> float:
        """Wall time of the reference process of speed.py, now."""
        return self.run([sys.executable, "-c", speed.PROCESS_CODE]).wall

    def path(self, stem):
        return os.path.join(self.work, f"{self.count:05d}-{stem}")

    def run(self, argv) -> Child:
        """Start one child, wait for it, and return its rusage-based record."""
        self.count += 1
        out_path, err_path = self.path("stdout"), self.path("stderr")
        timeout = self.deadline - monotonic()
        if timeout <= 0:
            raise TimeoutError("benchmark deadline reached")
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            start = monotonic()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=self.env, cwd=ROOT)
            killer = threading.Timer(timeout, proc.kill)
            killer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                killer.cancel()
                killer.join()
            end = monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
        return Child(proc.returncode, start, end, usage.ru_maxrss / 1024.0,
                     usage.ru_utime + usage.ru_stime, out_path, err_path)


def per_op_medians(passes, scaled=True):
    """Each operation's median latency over the passes that completed.

    Passes repeat the same operations, so this drops a burst of machine
    noise that hit one operation in one pass."""
    n = max(len(p.raw) for p in passes)
    rows = [p.scaled if scaled else p.raw for p in passes if len(p.raw) == n]
    return [statistics.median(lat) for lat in zip(*rows)]


def tail(samples):
    """(value, percentile) with at least ten samples beyond it, or None."""
    n = len(samples)
    if n < 20:
        return None
    ordered = sorted(samples)
    return ordered[n - 11], 100.0 * (n - 10) / n


# ---- output checks of cli_session (independent of the implementation) ----

def _nu2(k):
    return (k & -k).bit_length() - 1


def check_command(argv, text: str):
    """None if the command's stdout is right, else the reason it is not."""
    from esss.serialize import document_json, parse_document

    if argv[0] == "check":
        return None if text.rstrip("\n").endswith("suite goldens: PASS") else "goldens not PASS"
    if argv[0] == "pi":
        k = int(argv[argv.index("--weight") + 1]) // 2
        orders = [int(x) for x in re.findall(r"Z/(\d+)\{", text)]
        bound = 1 << (_nu2(k) + 3)
        if not orders or max(orders) < bound:
            return f"no cyclic summand of order >= {bound} at k={k}"
        return None
    fmt = argv[argv.index("--format") + 1]
    if fmt == "json":
        try:
            doc = parse_document(text)
        except ValueError as exc:
            return f"JSON does not parse: {exc}"
        return None if document_json(doc) == text else "JSON does not round-trip"
    if fmt == "md":
        lines = text.splitlines()
        if not (lines and lines[0].startswith("# ") and "| s | f | w | group |" in lines):
            return "markdown page table missing"
        return None
    try:
        root = ET.fromstring(text)
    except ET.ParseError as exc:
        return f"SVG does not parse: {exc}"
    return None if root.tag.endswith("svg") else "not an SVG document"


# ---- passes ----

class Pass:
    """One pass: per-operation latencies, raw and scaled to the reference
    speed; failures; process figures.  `factor` scales the pass as a whole
    (its per-layer times, CPU time and start time)."""

    def __init__(self):
        self.raw = []
        self.scaled = []
        self.factor = 1.0
        self.failed = 0
        self.units = 0
        self.rss_mb = 0.0
        self.cpu_s = 0.0
        self.starts = []
        self.layers = None
        self.missing = []
        self.digest = ""


def engine_pass(runner, args, traced, corrupt) -> Pass:
    result_path = runner.path("result.json")
    argv = [sys.executable, WORKER, "pass", args.workload, str(args.seed), args.size,
            result_path]
    if traced:
        argv += ["--trace", runner.path("spans.tsv")]
    if corrupt:
        argv.append("--corrupt")
    child = runner.run(argv)
    p = Pass()
    p.rss_mb, p.cpu_s = child.rss_mb, child.cpu_s
    if child.code != 0:
        sys.stderr.write(child.stderr_tail())
        p.failed = p.units = 1
        p.raw = p.scaled = [child.wall]
        return p
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    err = child.stderr_tail()
    if err:
        sys.stderr.write(err)
    p.raw, p.failed, p.units = res["latencies"], res["failed"], res["units"]
    refs = res["references"]
    p.factor = speed.factor([t for _, t in refs])
    p.scaled = speed.scale(p.raw, refs)
    p.digest = res["digest"]
    p.starts = [res["first_call"] - child.start] if res["first_call"] else []
    p.layers, p.missing = res.get("layers"), res.get("missing", [])
    return p


def cli_pass(runner, args, commands, traced, corrupt) -> Pass:
    p = Pass()
    digest = hashlib.sha256()
    layer_totals = []
    references = [(0, runner.reference())]
    for i, argv in enumerate(commands):
        if traced:
            info = runner.path("trace.json")
            cmd = [sys.executable, WORKER, "cli", info, runner.path("spans.tsv"), "--", *argv]
        else:
            cmd = [sys.executable, "-m", "esss.cli", *argv]
        child = runner.run(cmd)
        references.append((i + 1, runner.reference()))
        p.raw.append(child.wall)
        p.rss_mb = max(p.rss_mb, child.rss_mb)
        p.cpu_s += child.cpu_s
        out = child.stdout()
        if corrupt and i == 0:
            out = b"corrupted output\n"
        digest.update(" ".join(argv).encode() + b"\n" + out)
        why = None if child.code == 0 else f"exit code {child.code}"
        if why is None:
            why = check_command(argv, out.decode(errors="replace"))
        if why is not None:
            sys.stderr.write(f"check failed: esss {' '.join(argv)}: {why}\n")
            sys.stderr.write(child.stderr_tail())
            p.failed += 1
        if traced and child.code == 0:
            with open(info, encoding="utf-8") as fh:
                res = json.load(fh)
            layer_totals.append(res["layers"])
            p.missing = res["missing"]
            p.starts.append(res["entered"] - child.start)
    p.units = len(commands)
    p.factor = speed.factor([t for _, t in references], speed.PROCESS_S)
    p.scaled = speed.scale(p.raw, references, speed.PROCESS_S)
    p.digest = digest.hexdigest()
    if traced:
        p.layers = tracing.merge(layer_totals)
    return p


def setup_samples(runner, args):
    """Cold starts: a fresh interpreter importing the workload's esss modules
    and generating its inputs, up to where the first engine call would be."""
    samples = []
    references = [(0, runner.reference())]
    for i in range(SETUP_SAMPLES):
        child = runner.run([sys.executable, WORKER, "probe", args.workload,
                            str(args.seed), args.size])
        if child.code != 0:
            sys.stderr.write(child.stderr_tail())
            raise SystemExit("setup probe failed")
        samples.append(float(child.stdout().decode().strip()) - child.start)
        references.append((i + 1, runner.reference()))
    return samples, speed.scale(samples, references, speed.PROCESS_S)


def measure(runner, args, commands):
    """The passes of one run; traced passes alternate with untraced ones
    when --trace 1."""
    n = max(1, int(args.seconds / PASS_S[args.workload] + 0.5))
    kinds = [False, True] if args.trace else [False]
    passes = {False: [], True: []}
    for i in range(max(1, n // len(kinds))):
        for traced in kinds:
            corrupt = args.corrupt and i == 0 and not traced
            if args.workload == "cli_session":
                p = cli_pass(runner, args, commands, traced, corrupt)
            else:
                p = engine_pass(runner, args, traced, corrupt)
            passes[traced].append(p)
    return passes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=inputs.SIZES, default="full",
                    help="tiny: the harness self-test size")
    ap.add_argument("--corrupt", action="store_true",
                    help="corrupt the first output (self-test of the checks)")
    args = ap.parse_args(argv)
    deadline = monotonic() + DEADLINE_S

    if not os.path.isfile(os.path.join(SRC, "esss", "cli.py")):
        print(f"error: no esss sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    # the latest run of each workload, size and mode keeps its files (spans
    # of traced runs included) until the next such run
    work = os.path.join(WORK_ROOT, f"{args.workload}-{args.size}-trace{args.trace}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    # byte-compile once so that no cold start pays for it
    subprocess.run([sys.executable, "-m", "compileall", "-q", SRC, HERE], check=True,
                   stdout=subprocess.DEVNULL, timeout=120)

    runner = Runner(work, args.seed, deadline)
    commands = inputs.generate(args.workload, args.seed, args.size).get("commands")
    setup, setup_scaled = setup_samples(runner, args)
    passes = measure(runner, args, commands)
    plain, traced = passes[False], passes[True]
    runs = plain + traced

    attempted = sum(len(p.raw) for p in runs)
    failed = sum(p.failed for p in runs)
    digests = {p.digest for p in runs}
    if len(digests) != 1:
        print("error: passes with the same inputs gave different outputs", file=sys.stderr)
        failed += 1
    lat = per_op_medians(plain)
    wall = sum(lat)
    raw_wall = sum(per_op_medians(plain, scaled=False))
    units = plain[0].units
    op_tail = tail(lat)

    print(f"workload {args.workload}  seed {args.seed}  size {args.size}  "
          f"passes {len(plain)} untraced, {len(traced)} traced  python {sys.version.split()[0]}"
          f"  nproc {os.cpu_count()}")
    print(f"digest sha256:{sorted(digests)[0]}")
    print(f"fail_rate {failed / attempted:.6f} ratio ({failed} of {attempted} operations)")
    print("times are scaled to the reference speed of speed.py; speed factors "
          f"{' '.join(f'{p.factor:.3f}' for p in runs)}; "
          f"unscaled wall_s {raw_wall:.4f} s, setup_s {statistics.median(setup):.4f} s")
    metrics = {}

    def put(name, value, unit, note=""):
        metrics[name] = {"value": value, "unit": unit}
        print(f"{name:<44} {value:>14.6g} {unit:<8} {note}")

    if not args.trace:
        put("setup_s", statistics.median(setup_scaled), "s",
            f"median of {len(setup)} cold starts")
        put("wall_s", wall, "s", f"sum over operations of the median of {len(plain)} passes")
        put("units_per_s", units / wall, "units/s",
            f"{UNIT_NAMES[args.workload]} per second, {units} per pass")
        put("op_p50_s", statistics.median(lat), "s",
            f"{len(lat)} operations, each the median of {len(plain)} passes")
        if op_tail is not None:
            put("op_tail_s", op_tail[0], "s", f"p{op_tail[1]:.1f} of {len(lat)} operations")
        else:
            print(f"op_tail_s omitted: {len(lat)} operations are too few")
        put("peak_rss_mb", statistics.median(p.rss_mb for p in plain), "MB",
            "median over passes of the largest process")
    else:
        missing = sorted(set(m for p in traced for m in p.missing))
        if missing:
            print("missing traced names: " + ", ".join(missing))
        for name, unit in tracing.layer_metrics().items():
            scale = unit == "s"
            if name == "process.cpu_s":
                value = statistics.median(p.cpu_s * p.factor for p in plain)
            elif name == "process.start_s":
                value = statistics.median(x * p.factor for p in traced for x in p.starts)
            elif name == "trace.overhead_s":
                value = sum(per_op_medians(traced)) - wall
            else:
                value = statistics.median(p.layers.get(name, 0) * (p.factor if scale else 1)
                                          for p in traced)
            put(name, value, unit)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
