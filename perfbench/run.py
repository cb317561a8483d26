#!/usr/bin/env python3
"""smckit benchmark: one workload, one run, one JSON line of metrics.

Usage::

    python3 perfbench/run.py --workload coherence --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off, its
timings scaled to the reference speed of ``refspeed.py``.  ``--trace 1``
runs every round through ``cli.main`` twice, once with the tracer installed
and once without, and reports the per-layer metrics plus the tracing
overhead.  Lines before the
last are a readable report; the last line is the JSON result.  Failed
requests are written as replay lines to ``perfbench/out/``.  See
``perfbench/README.md`` for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import harness  # noqa: E402
import refspeed  # noqa: E402
import wl_coherence  # noqa: E402
import wl_laws  # noqa: E402
import wl_spans  # noqa: E402
import wl_unbias  # noqa: E402
import tracing  # noqa: E402

WORKLOADS = {w.NAME: w for w in (wl_coherence, wl_spans, wl_unbias, wl_laws)}

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
}

LAW_SUITES = tracing.LAW_SUITES

PER_LAYER_UNITS = {
    "cli.parse_s": "s",
    "cli.records_s": "s",
    "cli.render_s": "s",
    "terms.typecheck_s": "s",
    "terms.eval_s": "s",
    "terms.canonical_s": "s",
    "terms.decide_s": "s",
    "terms.nodes": "count",
    "terms.max_depth": "count",
    "terms.normalize_ns_per_node": "ns",
    "terms.normalize_slope": "loglog",
    "terms.cache_entries": "count",
    "terms.cache_hit_ratio": "frac",
    "slist.model_calls": "count",
    "slist.model_s": "s",
    "perms.reduced_word_s": "s",
    "perms.word_len": "count",
    "spans.compose_s": "s",
    "spans.cells_s": "s",
    "spans.pullback_s": "s",
    "spans.pullback_pairs": "count",
    "spans.pullback_yield": "frac",
    "spans.pullback_slope": "loglog",
    "kleisli.compose_s": "s",
    "kleisli.hcomp_s": "s",
    "kleisli.list_len": "count",
    "unbias.eval_s": "s",
    "unbias.comp_iso_s": "s",
    "unbias.arity_max": "count",
    **{f"laws.{s}_s": "s" for s in LAW_SUITES},
    **{f"laws.{s}_cases": "count" for s in LAW_SUITES},
    "trace.overhead_frac": "frac",
}

# per-request self time of these spans; ``cli.parse_s`` adds the self time
# of the ``cli.main`` span, which is the argv parsing outside the commands
SELF_TIMES = {
    "cli.parse_s": "cli.parse",
    "cli.records_s": "cli.records",
    "cli.render_s": "cli.render",
    "terms.typecheck_s": "terms.typecheck",
    "terms.eval_s": "terms.eval",
    "terms.canonical_s": "terms.canonical",
    "terms.decide_s": "terms.decide",
    "slist.model_s": "slist.model",
    "perms.reduced_word_s": "perms.reduced_word",
    "spans.compose_s": "spans.compose",
    "spans.cells_s": "spans.cells",
    "spans.pullback_s": "spans.pullback",
    "kleisli.compose_s": "kleisli.compose",
    "kleisli.hcomp_s": "kleisli.hcomp",
    "unbias.eval_s": "unbias.eval",
    "unbias.comp_iso_s": "unbias.comp_iso",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


def cache_info(terms) -> tuple[int, int, int]:
    """(entries, hits, misses) of the term caches, zero where there are none."""
    entries = hits = misses = 0
    for name in ("mor_src", "mor_tgt"):
        info = getattr(getattr(terms, name, None), "cache_info", None)
        if info is not None:
            ci = info()
            entries, hits, misses = entries + ci.currsize, hits + ci.hits, misses + ci.misses
    return entries, hits, misses


def layer_metrics(tr: tracing.Tracer, n: int, cache_entries: int, hits: int, misses: int, overhead: float) -> dict:
    n = max(n, 1)
    m = {name: tr.self_time.get(span, 0.0) / n for name, span in SELF_TIMES.items()}
    m["cli.parse_s"] += tr.self_time.get("cli.main", 0.0) / n
    c = tr.counters
    m["terms.nodes"] = _ratio(c["terms.nodes"], c["terms.evals"])
    m["terms.max_depth"] = c["terms.max_depth"]
    m["terms.normalize_ns_per_node"] = _ratio(c["terms.eval_incl_s"], c["terms.nodes"]) * 1e9
    m["terms.normalize_slope"] = tr.slope("terms.normalize")
    m["terms.cache_entries"] = cache_entries
    m["terms.cache_hit_ratio"] = _ratio(hits, hits + misses)
    m["slist.model_calls"] = tr.calls.get("slist.model", 0) / n
    m["perms.word_len"] = _ratio(c["perms.word_len"], c["perms.words"])
    m["spans.pullback_pairs"] = c["spans.pullback_pairs"] / n
    m["spans.pullback_yield"] = _ratio(c["spans.pullback_pairs"], c["spans.pullback_inputs"])
    m["spans.pullback_slope"] = tr.slope("spans.pullback")
    m["kleisli.list_len"] = _ratio(c["kleisli.list_len"], tr.calls.get("kleisli.compose", 0))
    m["unbias.arity_max"] = c["unbias.arity_max"]
    for s in LAW_SUITES:
        m[f"laws.{s}_s"] = _ratio(tr.inclusive.get(f"laws.{s}", 0.0), tr.calls.get(f"laws.{s}", 0))
        m[f"laws.{s}_cases"] = c[f"laws.{s}_cases"]
    m["trace.overhead_frac"] = overhead
    return {k: m[k] for k in PER_LAYER_UNITS}


def traced_window(workload, cli, terms, rounds, seconds, tr, record):
    """Run every round twice through ``cli.main``, once traced and once not.

    Rounds alternate which pass goes first, so that neither gains from the
    caches the other filled; the loop ends after an even number of rounds
    once each side has ``seconds`` of request time.  Term-cache hits and
    misses are counted over the traced passes that go first, which meet
    their inputs fresh, as an untraced run does.
    Returns the request time of each side (untraced, traced) and the
    term-cache (hits, misses).
    """
    start = time.perf_counter()
    busy, hits, misses, index = [0.0, 0.0], 0, 0, 0
    for i, rnd in enumerate(rounds):
        for traced in ((1, 0) if i % 2 == 0 else (0, 1)):
            if traced:
                before = cache_info(terms)
                tr.install()
            try:
                for req in rnd:
                    raw = harness.call_traced(cli, tr, req, index) if traced else harness.call_cli(cli, req)
                    index += 1
                    busy[traced] += raw[3]
                    record(req, harness.judge(workload, req, *raw), bool(traced))
            finally:
                if traced:
                    tr.uninstall()
                    if i % 2 == 0:
                        after = cache_info(terms)
                        hits, misses = hits + after[1] - before[1], misses + after[2] - before[2]
        if i % 2 and (min(busy) >= seconds or time.perf_counter() - start >= harness.WALL_LIMIT_S):
            break
    return busy, hits, misses


def main(argv=None) -> int:
    args = parse_args(argv)
    workload = WORKLOADS[args.workload]
    harness.pin_to_one_cpu()
    cli = harness.import_smckit()
    from smckit import terms

    meta = harness.metadata()
    for rnd in harness.make_rounds(workload, "warmup", args.seed, workload.WARMUP_ROUNDS):
        for req in rnd:
            harness.call_cli(cli, req)
    rounds = harness.make_rounds(workload, "timed", args.seed, workload.ROUNDS)

    outcomes, traced = [], []
    failure_lines = []

    def record(req, outcome, is_traced=False):
        (traced if is_traced else outcomes).append(outcome)
        if not outcome.ok:
            index = len(outcomes) + len(traced) - 1
            failure_lines.append(harness.replay_line(workload.NAME, args.seed, index, req, outcome))

    if args.trace:
        tr = tracing.Tracer()
        busy, hits, misses = traced_window(workload, cli, terms, rounds, args.seconds / 2, tr, record)
        base = harness.summarize(outcomes, busy[0])
        tsum = harness.summarize(traced, busy[1])
        overhead = _ratio(base["ok_per_s"], tsum["ok_per_s"]) - 1.0 if tsum["ok_per_s"] else 0.0
        metrics = layer_metrics(tr, len(traced), cache_info(terms)[0], hits, misses, overhead)
        units = PER_LAYER_UNITS
        harness.OUT.mkdir(exist_ok=True)
        tr.dump(harness.OUT / f"{workload.NAME}-seed{args.seed}-spans.jsonl")
        all_outcomes = outcomes + traced
        samples = {"requests": base["requests"], "traced_requests": len(traced)}
        extra = {"spans_dropped": tr.dropped}
    else:
        probe = refspeed.SpeedProbe()
        harness.setup_spawn(probe)  # leaves the bytecode caches warm
        setup_samples = [harness.setup_spawn(probe)]

        def on_round(done):
            # set-up is sampled between rounds, so it meets the same machine states as the requests
            if len(setup_samples) < harness.SETUP_SPAWNS:
                setup_samples.append(harness.setup_spawn(probe))

        busy, rss_mb = harness.closed_loop(
            rounds, args.seconds, lambda req: harness.call_cli(cli, req),
            lambda req, *raw: harness.judge(workload, req, *raw), record, workload.RSS_ROUNDS, probe, on_round,
        )
        while len(setup_samples) < harness.SETUP_SPAWNS:
            setup_samples.append(harness.setup_spawn(probe))
        # the laws workload's latency is that of a whole round, one check-laws run of every suite
        timed = harness.per_round if getattr(workload, "LATENCY_PER_ROUND", False) else list
        measured = harness.summarize(timed(outcomes), busy)
        scaled_busy = harness.rescale(outcomes, probe)
        base = harness.summarize(timed(outcomes), scaled_busy)
        metrics = {
            "setup_s": statistics.median(s for _, s in setup_samples),
            "ok_per_s": base["ok_per_s"],
            "latency_p50_ms": base["latency_p50_ms"],
            "latency_p90_ms": base["latency_p90_ms"],
            "ok_frac": base["ok_frac"],
            "peak_rss_mb": rss_mb,
        }
        units = END_TO_END_UNITS
        all_outcomes = outcomes
        samples = {"setup_s": len(setup_samples), "requests": base["requests"], "attempted": base["attempted"],
                   "kernel_runs": len(probe.costs)}
        # the measured (unscaled) figures, for the readable report
        extra = {
            "measured_setup_s": statistics.median(m for m, _ in setup_samples),
            **{f"measured_{k}": measured[k] for k in ("ok_per_s", "latency_p50_ms", "latency_p90_ms")},
            "kernel_median_ms": probe.median_cost() * 1000.0,
            "setup_samples_s": [s for _, s in setup_samples],
        }

    attempted = sum(o.units for o in all_outcomes)
    failed = sum(min(len(o.failures), o.units) for o in all_outcomes)
    info = {"fail_frac": _ratio(failed, attempted), "busy_s": base["busy_s"], **extra}
    if workload is wl_laws and not args.trace:
        info["laws_wall_s"] = metrics["latency_p50_ms"] / 1000.0
    by_kind = {}
    for o in all_outcomes:
        k = by_kind.setdefault(o.kind, {"requests": 0, "failed": 0, "seconds": 0.0})
        k["requests"] += 1
        k["failed"] += 0 if o.ok else 1
        k["seconds"] += o.latency

    tag = f"{workload.NAME}-seed{args.seed}-trace{args.trace}"
    if failure_lines:
        path = harness.write_out(f"{tag}-failures.jsonl", "\n".join(failure_lines) + "\n")
        print(f"{len(failure_lines)} failed requests; replay lines in {path}", file=sys.stderr)
    full = {"workload": workload.NAME, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
            "meta": meta, "samples": samples, "info": info, "by_kind": by_kind,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    harness.write_out(f"{tag}.json", json.dumps(full, indent=1) + "\n")

    print(f"# smckit benchmark: workload={workload.NAME} seed={args.seed} trace={args.trace}")
    print(f"# meta: {json.dumps(meta)}")
    print(f"# samples: {json.dumps(samples)}")
    for name, value in metrics.items():
        print(f"{name:32s} {value:14.6g} {units[name]}")
    for name, value in info.items():
        if not isinstance(value, list):
            print(f"{name:32s} {value:14.6g}   (info)")
    for kind, k in sorted(by_kind.items()):
        print(f"#   {kind:24s} n={k['requests']:5d} failed={k['failed']:4d} mean_ms={1000 * k['seconds'] / k['requests']:10.3f}")
    result = {
        # a request that raised is failed; a wrong answer also makes the run incorrect
        "correct": all(o.ok or o.error is not None for o in all_outcomes),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
