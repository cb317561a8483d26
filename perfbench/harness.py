"""Closed-loop runner, statistics, set-up timing and metadata shared by every workload.

A workload module provides:

* ``make_round(rng) -> list[Request]``: one round of requests, a fixed class
  mix, so that every round costs about the same (or ``make_rounds``, when
  the rounds follow from the seed itself);
* ``check(req, rc, text) -> list[str]``: the oracle, the reasons the output
  is wrong (empty when it is right);
* ``WARMUP_ROUNDS`` and ``ROUNDS``: rounds drawn for warm-up and at most
  for the timed window, which ends early when they run out; ``RSS_ROUNDS``,
  the round after which peak memory is read, so that it reflects a fixed
  amount of work; optionally ``LATENCY_PER_ROUND``, when a round, not a
  request, is the unit whose latency counts.

Rounds are drawn one at a time from the seeded stream, as the loop needs
them, so that inputs waiting their turn do not count in peak memory.
A request that raises out of ``cli.main``, returns the wrong exit code or
prints a wrong output is a failed request.  Gated timings are scaled to the
reference speed of ``refspeed``, sampled around and during each request.
"""

from __future__ import annotations

import io
import json
import math
import os
import resource
import subprocess
import sys
import time
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

from refspeed import SpeedProbe

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"
SETUP_SPAWNS = 15
# a window stops after this much wall time even if its request time is short,
# so that a much faster program cannot make the oracle overrun the run's limit
WALL_LIMIT_S = 120.0
# timed inside the child, so that process creation and interpreter start-up,
# which smckit does not control and which vary most, do not count
SETUP_CODE = (
    "import sys, time; t0 = time.perf_counter(); sys.path.insert(0, sys.argv[1]); "
    "import smckit.cli; smckit.cli.build_parser(); print(time.perf_counter() - t0)"
)


@dataclass
class Request:
    argv: list
    kind: str
    expect: object = None


@dataclass
class Outcome:
    kind: str
    latency: float
    units: int  # requests it stands for: 1, or a round's for a per-round outcome
    failures: list = field(default_factory=list)
    error: str | None = None
    start: float = 0.0  # perf_counter when the request began and returned
    end: float = 0.0
    round: int = 0

    @property
    def ok(self) -> bool:
        return not self.failures


def rng_for(stream: str, seed: int) -> Random:
    """Independent, reproducible random streams per purpose and seed."""
    return Random(f"{stream}:{seed}")


def make_rounds(workload, stream: str, seed: int, count: int):
    """Up to ``count`` rounds of the ``stream`` ("warmup" or "timed") for a seed, drawn lazily."""
    if hasattr(workload, "make_rounds"):
        yield from workload.make_rounds(stream, seed, count)
        return
    rng = rng_for(f"{workload.NAME}-{stream}", seed)
    for _ in range(count):
        yield workload.make_round(rng)


def import_smckit():
    """Import smckit from this checkout's ``src``; exit non-zero if it is not there."""
    if not (SRC / "smckit" / "__init__.py").is_file():
        print(f"error: no smckit sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import smckit.cli

    if Path(smckit.cli.__file__).resolve().parent.parent != SRC:
        print(f"error: smckit imported from {smckit.cli.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return smckit.cli


# ---------------------------------------------------------------------------
# executing requests


def call_cli(cli, req: Request):
    """Run one request through ``cli.main``: (rc, text, error, seconds)."""
    out = io.StringIO()
    t0 = time.perf_counter()
    try:
        rc = cli.main(list(req.argv), out=out)
        error = None
    except Exception as exc:  # the benchmark's boundary: an escape is a failed request
        rc, error = None, f"{type(exc).__name__}: {exc}"
    dt = time.perf_counter() - t0
    return rc, out.getvalue(), error, dt


def call_traced(cli, tracer, req: Request, index: int):
    """``call_cli`` with the tracer's wrappers seeing the request as ``index``."""
    tracer.request = index
    tracer.begin("cli.main")
    try:
        return call_cli(cli, req)
    finally:
        tracer.end()


def judge(workload, req: Request, rc, text, error, dt) -> Outcome:
    if error is not None:
        failures = [error]
    else:
        try:
            failures = workload.check(req, rc, text)
        except (ValueError, KeyError, TypeError, IndexError, AttributeError) as exc:
            failures = [f"unreadable output: {type(exc).__name__}: {exc}"]
    return Outcome(req.kind, dt, 1, failures, error)


def closed_loop(rounds, seconds: float, execute, judge_one, on_outcome, rss_rounds: int, probe: SpeedProbe,
                on_round=None):
    """Run whole rounds, one request at a time, until ``seconds`` of request time,
    ``WALL_LIMIT_S`` of wall time, or the end of the rounds.

    Only time spent inside requests counts: the oracle and the ``probe``'s
    kernel runs happen between requests, and the kernel runs the probe
    makes on a thread during a request are taken off its time.  Until peak
    memory has been read, after ``rss_rounds`` rounds, outputs are kept
    compressed and judged only afterwards, so that the oracle's own memory
    does not count in it.  Each outcome records when its request began and
    ended, and its round.  Returns the request time spent (measured, not
    scaled) and the peak memory in MB.
    """
    start = time.perf_counter()
    busy, rss, pending = 0.0, None, []

    def judged(req, rc, text, error, dt, when, done):
        outcome = judge_one(req, rc, text, error, dt)
        (outcome.start, outcome.end), outcome.round = when, done
        return outcome

    def flush():
        for req, (rc, packed, error, dt, when, done) in pending:
            on_outcome(req, judged(req, rc, zlib.decompress(packed).decode(), error, dt, when, done))
        pending.clear()

    for done, rnd in enumerate(rounds, 1):
        for req in rnd:
            probe.edge()
            with probe.during():
                rc, text, error, dt = execute(req)
            end = time.perf_counter()
            when = (end - dt, end)
            dt -= probe.taken(*when)
            probe.edge()
            busy += dt
            if rss is None:
                pending.append((req, (rc, zlib.compress(text.encode(), 1), error, dt, when, done)))
            else:
                on_outcome(req, judged(req, rc, text, error, dt, when, done))
        if done == rss_rounds:
            rss = peak_rss_mb()
            flush()
        if on_round is not None:
            on_round(done)
        if busy >= seconds or time.perf_counter() - start >= WALL_LIMIT_S:
            break
    if rss is None:
        rss = peak_rss_mb()
        flush()
    return busy, rss


def rescale(outcomes, probe: SpeedProbe) -> float:
    """Scale each outcome's latency to the reference speed; return their sum."""
    for o in outcomes:
        o.latency *= probe.scale(o.start, o.end)
    return sum(o.latency for o in outcomes)


def per_round(outcomes) -> list:
    """One outcome per round: summed latency, units and failures."""
    rounds: dict = {}
    for o in outcomes:
        r = rounds.setdefault(o.round, Outcome("round", 0.0, 0, [], None, o.start, o.end, o.round))
        r.latency += o.latency
        r.units += o.units
        r.failures += o.failures
        r.error = r.error or o.error
    return list(rounds.values())


# ---------------------------------------------------------------------------
# statistics


def percentile(values, q: float) -> float:
    """Linear-interpolated percentile; ``inf`` marks a failed request."""
    xs = sorted(values)
    pos = q * (len(xs) - 1)
    lo, hi = math.floor(pos), math.ceil(pos)
    if math.isinf(xs[hi]):
        return math.inf
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def latency_ms(outcomes, q: float, busy: float) -> float:
    """Latency percentile in ms with failed requests ranked slowest.

    Should the percentile fall on a failure, the run's whole request time is
    reported: a failure counts as missing any latency limit.
    """
    vals = [o.latency if o.ok else math.inf for o in outcomes]
    p = percentile(vals, q)
    return (busy if math.isinf(p) else p) * 1000.0


def summarize(outcomes, busy: float) -> dict:
    attempted = sum(o.units for o in outcomes)
    failed = sum(min(len(o.failures), o.units) for o in outcomes)
    return {
        "requests": len(outcomes),
        "attempted": attempted,
        "failed": failed,
        "busy_s": busy,
        "ok_per_s": (attempted - failed) / busy if busy > 0 else 0.0,
        "ok_frac": (attempted - failed) / attempted if attempted else 0.0,
        "latency_p50_ms": latency_ms(outcomes, 0.5, busy),
        "latency_p90_ms": latency_ms(outcomes, 0.9, busy),
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# set-up time and metadata


def setup_spawn(probe: SpeedProbe) -> tuple[float, float]:
    """Time a fresh interpreter takes to import smckit.cli and build its parser.

    Returns (measured, scaled to the reference speed).
    """
    probe.edge()
    t0 = time.perf_counter()
    res = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC)],
        check=True, stdin=subprocess.DEVNULL, capture_output=True, text=True,
    )
    t1 = time.perf_counter()
    took = float(res.stdout)
    probe.edge()
    return took, took * probe.scale(t0, t1)


def pin_to_one_cpu() -> None:
    """Keep this process, its threads and its children on one processor, so
    that the reference kernel and the set-up spawns run where the requests do."""
    try:
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    except (AttributeError, OSError):
        pass


def src_lines() -> int:
    return sum(len(p.read_text().splitlines()) for p in sorted(SRC.rglob("*.py")))


def commit() -> str:
    try:
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return res.stdout.strip() if res.returncode == 0 else "unknown"


def metadata() -> dict:
    return {
        "commit": commit(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "src_lines": src_lines(),
    }


# ---------------------------------------------------------------------------
# failures and results on disk


def replay_line(workload: str, seed: int, index: int, req: Request, outcome: Outcome) -> str:
    """One failed request as a line that reproduces it with ``python -m smckit``."""
    return json.dumps({
        "workload": workload,
        "seed": seed,
        "request": index,
        "kind": req.kind,
        "argv": ["python", "-m", "smckit", *req.argv],
        "failures": outcome.failures[:3],
    })


def write_out(name: str, text: str) -> Path:
    OUT.mkdir(exist_ok=True)
    path = OUT / name
    path.write_text(text)
    return path
