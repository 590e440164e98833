"""Seeded input generation for every workload (standard library only).

Everything the program under test receives is generated here from the
``--seed`` argument, as plain JSON-ready data, without calling into
``repro``: random blocks come from this module's own generator, not from
``repro.workloads``, so a change to the program cannot silently change
the benchmark's inputs.  Registry kernels and the table-1 RSP kernel are
named here by (kernel, seed) and built by :mod:`problems`; for them the
seed picks the supply ladders.

Each workload is a sequence of *rounds*.  A run always finishes the round
it is in, so every run measures whole rounds and the median operation
does not depend on where the time limit happened to fall.
"""

from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("batch_small", "restricted_sweep", "fallback_ladder", "serve_mixed")

#: batch_small: 48 fresh 60-variable blocks per batch (horizon 24, R=6,
#: static model) -- the batch-of-small-blocks shape of compiler traffic.
BATCH_JOBS = 48
BATCH_SHAPE = {"variables": 60, "horizon": 24, "registers": 6}

#: fallback_ladder: one block per operation, sized so a cycle-cancelling
#: solve takes about 0.1 s on the reference host (the smaller the job,
#: the more jobs a run measures and the less its median depends on
#: which blocks the seed drew).
FALLBACK_SHAPE = {"variables": 36, "horizon": 14, "registers": 4}

#: restricted_sweep: (kernel, memory divisor, registers, banked storage).
#: Registers are one above the smallest count the HiGHS LP finds
#: feasible at that divisor.  Banked passes use storage shapes that
#: legalise in one or two pin rounds; banked RSP needs ten rounds of
#: cold solves (about 5 s a job) and is left out.
SWEEP_PASSES = (
    ("rsp", 1, 16, None),
    ("rsp", 2, 16, None),
    ("rsp", 4, 16, None),
    ("fir", 2, 9, None),
    ("fir", 4, 9, None),
    ("iir", 2, 9, None),
    ("iir", 4, 10, None),
    ("ewf", 4, 9, None),
    ("dct", 2, 7, None),
    ("dct", 4, 9, None),
    ("fir", 1, 8, {"banks": 3, "period": 1, "stagger": True}),
    ("dct", 1, 7, {"banks": 2, "period": 2, "stagger": True}),
    ("iir", 1, 8, {"banks": 2, "period": 2, "stagger": False}),
)
SWEEP_POINTS = 5

#: Every kernel is built with the registry's default seed 2024, so the
#: sweep's programs are fixed like a compiler benchmark suite; for RSP
#: that is the pinned table-1 instance (R=16, activity model).
KERNEL_SEED = 2024

#: Seed of every set-up (warm-up) round, whatever the run's seed: set-up
#: is the same work on every run, so ``setup_s`` does not vary with the
#: blocks a seed happens to draw.
WARMUP_SEED = 0

#: serve_mixed: one round is 20 requests in these exact shares, shuffled.
#: Cache hits are the majority so the median request sits inside the
#: hit latency mode, well away from the fresh-solve mode.
SERVE_MIX = {"hit": 12, "fresh": 5, "bad": 3}
SERVE_JOBS = 8
SERVE_SHAPE = {"variables": 30, "horizon": 16, "registers": 4}
MANIFEST_SCHEMA = "repro.service/manifest/v1"


def rng_for(seed: int, *labels: object) -> random.Random:
    """Independent generator for ``(seed, *labels)``.

    String seeds go through SHA-512 inside :mod:`random`, so the stream
    does not depend on ``PYTHONHASHSEED`` or the platform.
    """
    return random.Random(":".join([str(seed), *map(str, labels)]))


def random_block(rng: random.Random, variables: int, horizon: int) -> list:
    """Random lifetimes ``[name, write, reads, live_out]`` over ``1..horizon``.

    Stratified so that blocks of one shape cost about the same to solve
    and a run's figures depend little on which blocks its seed drew:
    write steps are spread evenly over the block (in random order),
    exactly a quarter of the variables get two or three reads and 15%
    are live out (an extra read at ``horizon + 1``).  Read steps are
    uniform after the write.
    """
    live = set(rng.sample(range(variables), round(0.15 * variables)))
    multi = set(rng.sample(range(variables), round(0.25 * variables)))
    writes = [1 + (index * (horizon - 1)) // variables for index in range(variables)]
    rng.shuffle(writes)
    block = []
    for index, write in enumerate(writes):
        wanted = min(rng.randint(2, 3) if index in multi else 1, horizon - write)
        reads: set[int] = set()
        while len(reads) < wanted:
            reads.add(rng.randint(write + 1, horizon))
        if index in live:
            reads.add(horizon + 1)
        block.append([f"v{index}", write, sorted(reads), index in live])
    return block


def batch_round(seed: int, index: int) -> dict:
    """Round *index* of ``batch_small``: one batch of fresh blocks."""
    shape = BATCH_SHAPE
    return {
        "ops": [
            {
                "kind": "batch",
                "blocks": [
                    random_block(
                        rng_for(seed, "batch_small", index, job),
                        shape["variables"],
                        shape["horizon"],
                    )
                    for job in range(BATCH_JOBS)
                ],
                "horizon": shape["horizon"],
                "registers": shape["registers"],
            }
        ]
    }


def fallback_round(seed: int, index: int) -> dict:
    """Round *index* of ``fallback_ladder``: one block, one job."""
    shape = FALLBACK_SHAPE
    block = random_block(
        rng_for(seed, "fallback_ladder", index),
        shape["variables"],
        shape["horizon"],
    )
    return {
        "ops": [
            {
                "kind": "batch",
                "blocks": [block],
                "horizon": shape["horizon"],
                "registers": shape["registers"],
            }
        ]
    }


def sweep_round(seed: int, index: int) -> dict:
    """Round of ``restricted_sweep``: every pass of :data:`SWEEP_PASSES`.

    The rounds of one run are identical (each pass starts from a fresh
    warm-start cache), so the run's median is the median pass time
    whatever the number of rounds.  The seed picks the spacing of each
    pass's five-point supply ladder; the first point of an RSP pass is
    the table-1 operating point.
    """
    rng = rng_for(seed, "restricted_sweep")
    ops = []
    for kernel, divisor, registers, banked in SWEEP_PASSES:
        step = round(0.05 + 0.1 * rng.random(), 3)
        ops.append(
            {
                "kind": "pass",
                "kernel": kernel,
                "kernel_seed": KERNEL_SEED,
                "divisor": divisor,
                "registers": registers,
                "banked": banked,
                "steps": [round(step * point, 3) for point in range(SWEEP_POINTS)],
            }
        )
    return {"ops": ops}


def serve_manifest(seed: int, kind: str, index: int) -> dict:
    """A fresh (clean, solvable) or bad (provably infeasible) manifest.

    Bad manifests ask for zero registers at memory divisor 4: every block
    then has segments that memory cannot hold at any access time, which
    the admission prover refutes (RA601) before any solve.  Negative
    indices are set-up manifests, drawn from :data:`WARMUP_SEED` whatever
    *seed* is.
    """
    if index < 0:
        seed = WARMUP_SEED
    shape = SERVE_SHAPE
    defaults = {"registers": shape["registers"], "model": "static"}
    if kind == "bad":
        defaults = {"registers": 0, "model": "static", "divisor": 4}
    return {
        "schema": MANIFEST_SCHEMA,
        "defaults": defaults,
        "jobs": [
            {
                "kind": "random",
                "label": f"{kind}{index}",
                "count": SERVE_JOBS,
                "variables": shape["variables"],
                "horizon": shape["horizon"],
                "seed": rng_for(seed, "serve", kind, index).randrange(1 << 30),
            }
        ],
    }


def serve_round(seed: int, index: int) -> dict:
    """Round *index* of ``serve_mixed``: 20 shuffled requests.

    Fresh and bad manifests are numbered per round; a hit names no
    manifest -- the client resends one it has already had answered.
    """
    kinds = [kind for kind, share in SERVE_MIX.items() for _ in range(share)]
    rng_for(seed, "serve_mix", index).shuffle(kinds)
    ops = []
    counters = {"fresh": 0, "bad": 0}
    for kind in kinds:
        op: dict = {"kind": kind}
        if kind != "hit":
            number = index * 100 + counters[kind]
            counters[kind] += 1
            op["manifest"] = serve_manifest(seed, kind, number)
        ops.append(op)
    return {"ops": ops}


def serve_warmup() -> list[dict]:
    """Requests of the serving set-up phase (two fresh, a hit, a bad)."""
    fresh = [serve_manifest(WARMUP_SEED, "fresh", -1 - n) for n in range(2)]
    return [
        {"kind": "fresh", "manifest": fresh[0]},
        {"kind": "fresh", "manifest": fresh[1]},
        {"kind": "hit"},
        {"kind": "bad", "manifest": serve_manifest(WARMUP_SEED, "bad", -1)},
    ]


def warmup_round(workload: str) -> dict:
    """Untimed set-up round for an offline workload (not a timed input)."""
    if workload == "batch_small":
        warm = batch_round(WARMUP_SEED, -1)
        warm["ops"][0]["blocks"] = warm["ops"][0]["blocks"][:4]
        return warm
    if workload == "fallback_ladder":
        return fallback_round(WARMUP_SEED, -1)
    first = sweep_round(WARMUP_SEED, 0)["ops"]
    return {"ops": [op for op in first if op["kernel"] != "rsp"][:2]}


ROUNDS = {
    "batch_small": batch_round,
    "restricted_sweep": sweep_round,
    "fallback_ladder": fallback_round,
    "serve_mixed": serve_round,
}


def round_for(workload: str, seed: int, index: int) -> dict:
    """Round *index* of *workload*."""
    return ROUNDS[workload](seed, index)


def digest(workload: str, seed: int) -> str:
    """SHA-256 over the canonical JSON of the warm-up and first three rounds."""
    payload = [round_for(workload, seed, index) for index in range(3)]
    if workload == "serve_mixed":
        payload.append(serve_warmup())
    else:
        payload.append(warmup_round(workload))
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()
