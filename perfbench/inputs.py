"""Seeded inputs for the three benchmark workloads.

The seed draws the field instances inside a fixed mix, the window offsets
and the pi bidegrees; the shape of each workload (which field kinds, how
many weights, which commands) never changes, so the amount of work stays
nearly constant across seeds.  Nothing here imports esss: the inputs are
plain JSON data, and the program under test only ever sees them.
"""
from __future__ import annotations

import random

SIZES = ("full", "tiny")

# Odd prime powers for F_q and odd primes for Q_q, stratified by q mod 8:
# q mod 4 picks the Milnor unit symbol (u or rho) and q mod 8 the dyadic
# valuations in the torsion orders s_q(i), the two properties the closed
# forms branch on.
FQ_POOLS = {1: (9, 17, 41, 73), 5: (5, 13, 29, 37), 3: (3, 11, 19, 27), 7: (7, 23, 31, 47)}
QQ_POOLS = {1: (17, 41, 73, 89), 5: (5, 13, 29, 37), 3: (3, 11, 19, 43), 7: (7, 23, 31, 47)}
ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)

# Window sizes per workload and size.  "full" is the benchmark, "tiny" the
# self-test of the harness.  The windows of e1_sweep and local_global are
# fixed: drawn offsets moved their work by up to 12 % between seeds.
E1_SIZE = {"full": {"s": (-4, 18), "f": (0, 22), "w": (-7, 3),
                    "oracle_s": (-4, 0), "oracle_w": (-12, 0)},
           "tiny": {"s": (-2, 5), "f": (0, 6), "w": (-1, 1),
                    "oracle_s": (-2, 0), "oracle_w": (-3, 0)}}
LG_SIZE = {"full": {"s": (-3, 8), "f": (0, 9), "w": (-4, 5)},
           "tiny": {"s": (-2, 3), "f": (0, 4), "w": (-1, 2)}}
CLI_SIZE = {"full": {"k": (1, 32), "s_span": 8, "f_hi": 12, "w_span": 8},
            "tiny": {"k": (1, 8), "s_span": 3, "f_hi": 5, "w_span": 2}}


def _draw_q(rng, pools, residue4):
    """One q with q = residue4 (mod 4); the class mod 8 is drawn first."""
    cls = rng.choice(sorted(c for c in pools if c % 4 == residue4))
    return rng.choice(pools[cls])


def _support(rng):
    """The support of Q: 2, one odd prime = 1 (mod 4) and two = 3 (mod 4).

    The number of primes and their classes mod 4 fix the unit symbols and
    so the size of every page; which primes they are does not.
    """
    ones = [p for p in ODD_PRIMES if p % 4 == 1]
    threes = [p for p in ODD_PRIMES if p % 4 == 3]
    return [2] + sorted([rng.choice(ones)] + rng.sample(threes, 2))


def e1_sweep(rng, size):
    p = E1_SIZE[size]
    fields = [["c"],
              ["fq", _draw_q(rng, FQ_POOLS, 1)], ["fq", _draw_q(rng, FQ_POOLS, 3)],
              ["qq", _draw_q(rng, QQ_POOLS, 1)], ["qq", _draw_q(rng, QQ_POOLS, 3)],
              ["q2"], ["r"], ["q", _support(rng)]]
    return {"fields": fields, "s": list(p["s"]), "f": list(p["f"]), "w": list(p["w"]),
            "oracle_n": [1, 2, 3, 4, "inf"],
            "oracle_s": list(p["oracle_s"]), "oracle_w": list(p["oracle_w"])}


def local_global(rng, size):
    p = LG_SIZE[size]
    return {"support": _support(rng), "s": list(p["s"]), "f": list(p["f"]), "w": list(p["w"])}


def cli_session(rng, size):
    """A shuffled list of CLI argument vectors.

    Ranges are passed as --s=a..b: argparse takes "--s -3..25" for a flag
    followed by a missing value, a defect of the CLI that this benchmark
    records rather than hides.
    """
    p = CLI_SIZE[size]
    k_lo, k_hi = p["k"]
    fq = [str(_draw_q(rng, FQ_POOLS, 1)), str(_draw_q(rng, FQ_POOLS, 3))]
    qq = str(_draw_q(rng, QQ_POOLS, 3))
    support = ",".join(str(x) for x in _support(rng))
    cmds = []
    # pi at the image-of-J bidegrees (4k-1, 2k): k is the start of an eighth
    # of the range or the next integer, so nu2(k) varies while the cost,
    # which grows with k (fourfold over 1..32 over Q2), stays put
    eighth = (k_hi - k_lo + 1) // 8
    pi_fields = [["c"], ["fq", "--q", fq[0]], ["fq", "--q", fq[1]], ["q2"]] * 2
    for i, fld in enumerate(pi_fields):
        k = k_lo + i * eighth + rng.randint(0, 1)
        cmds.append(["pi", "--field", *fld, "--spectrum", "L",
                     "--stem", str(4 * k - 1), "--weight", str(2 * k)])

    def window(s0=None, w0=None):
        s0 = rng.randint(-1, 0) if s0 is None else s0
        w0 = rng.randint(-4, -3) if w0 is None else w0
        return [f"--s={s0}..{s0 + p['s_span']}", f"--f=0..{p['f_hi']}",
                f"--w={w0}..{w0 + p['w_span']}"]

    inf_fields = [["c"], ["fq", "--q", fq[0]], ["qq", "--q", qq], ["q2"]]
    for fmt in ("json", "md", "svg"):
        for fld in inf_fields:
            for spectrum in ("kq", "L"):
                cmds.append(["compute", "--field", *fld, "--spectrum", spectrum,
                             "--page", "inf", *window(), "--format", fmt])
    # the spectrum alternates by position, not by draw, so that every seed
    # has the same number of (heavier) L pages; the windows are fixed,
    # because these commands set the session's peak RSS and drawn offsets
    # moved it by 8 %
    low_fields = [["c"], ["r"], ["q", "--support", support]]
    for i, page in enumerate(("1", "2")):
        for j, fld in enumerate(low_fields):
            cmds.append(["compute", "--field", *fld, "--spectrum", ("kq", "L")[(i + j) % 2],
                         "--page", page, *window(-1, -4), "--format", "json"])
    cmds.append(["check", "--suite", "goldens"])
    rng.shuffle(cmds)
    return {"commands": cmds}


GENERATORS = {"e1_sweep": e1_sweep, "local_global": local_global,
              "cli_session": cli_session}


def generate(workload: str, seed: int, size: str = "full") -> dict:
    """The inputs of one workload; the same seed gives the same inputs."""
    if size not in SIZES:
        raise ValueError(f"unknown size {size!r}")
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"), size)
