"""Tests of the benchmark itself: inputs, oracles, names, tracing, failure modes."""

import io
import json
import shutil
import statistics
import subprocess
import sys
import time
from random import Random

import pytest

import harness
import refspeed
import run
import termgen
import tracing
import wl_coherence
import wl_laws
import wl_spans
import wl_unbias
from smckit import cli, spans, terms

ROOT = harness.ROOT
WORKLOADS = (wl_coherence, wl_spans, wl_unbias, wl_laws)


def rounds(workload, seed, count=2, stream="timed"):
    return list(harness.make_rounds(workload, stream, seed, count))


def first(workload, kind, seed=3):
    for rnd in rounds(workload, seed, 3):
        for req in rnd:
            if req.kind == kind:
                return req
    raise LookupError(kind)


def execute(req):
    out = io.StringIO()
    rc = cli.main(list(req.argv), out=out)
    return rc, out.getvalue()


def edit_record(text, line, fn):
    """Apply ``fn`` to the JSON record on one line of ``text``."""
    lines = text.splitlines()
    rec = json.loads(lines[line])
    fn(rec)
    lines[line] = json.dumps(rec, sort_keys=True)
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# inputs


@pytest.mark.parametrize("workload", WORKLOADS, ids=lambda w: w.NAME)
def test_same_seed_gives_identical_inputs(workload):
    dump = lambda rs: json.dumps([[r.argv for r in rnd] for rnd in rs])
    assert dump(rounds(workload, 11)) == dump(rounds(workload, 11))
    assert dump(rounds(workload, 11)) != dump(rounds(workload, 12))
    assert dump(rounds(workload, 11)) != dump(rounds(workload, 11, stream="warmup"))


@pytest.mark.parametrize("workload", (wl_coherence, wl_spans, wl_unbias), ids=lambda w: w.NAME)
def test_every_round_holds_the_same_classes(workload):
    kinds = [sorted(r.kind for r in rnd) for rnd in rounds(workload, 5, 3)]
    assert kinds[0] == kinds[1] == kinds[2]


def test_permutation_words():
    rng = Random(1)
    for n in (2, 5, 9):
        phi = list(range(n))
        rng.shuffle(phi)
        word = termgen.bubble_word(phi)
        assert termgen.apply_word(n, word) == phi
        assert len(word) == termgen.inversions(phi)
        assert termgen.apply_word(n, termgen.padded_word(rng, word, n)) == phi


def test_chain_lengths_straddle_the_recursion_limit():
    reqs = [r for rnd in rounds(wl_coherence, 2, 4) for r in rnd if r.kind.startswith("chain")]
    steps = {r.kind[:9]: r.argv[-1 if r.argv[2] == "normalize" else -2].count(";") + 1 for r in reqs}
    assert steps["chain-100"] < 250 and steps["chain-200"] < 250 and steps["chain-lon"] >= 700


# ---------------------------------------------------------------------------
# oracles accept the program's output and reject corrupted output


def test_coherence_oracle():
    req = first(wl_coherence, "walk-normalize")
    rc, text = execute(req)
    assert wl_coherence.check(req, rc, text) == []

    def bad_phi(r):
        r["phi"] = r["phi"][::-1] if len(r["phi"]) > 1 else [1]

    assert wl_coherence.check(req, rc, edit_record(text, 0, bad_phi))
    assert wl_coherence.check(req, rc, edit_record(text, 0, lambda r: r.update(source=["q"])))

    req = first(wl_coherence, "perm8-ne")
    rc, text = execute(req)
    assert rc == 1 and wl_coherence.check(req, rc, text) == []
    assert wl_coherence.check(req, 0, edit_record(text, 0, lambda r: r.update(equal=True)))
    assert wl_coherence.check(req, rc, edit_record(text, 0, lambda r: r.update(rhs_phi=r["lhs_phi"])))

    req = first(wl_coherence, "walk-equal")
    rc, text = execute(req)
    assert rc == 0 and wl_coherence.check(req, rc, text) == []
    assert wl_coherence.check(req, 1, text)


def test_spans_oracle():
    req = next(r for rnd in rounds(wl_spans, 4, 3) for r in rnd
               if r.kind == "compose3-cells-sparse-w0")
    rc, text = execute(req)
    assert wl_spans.check(req, rc, text) == []

    def bad_leg(r):
        r["left"]["img"][0] = (r["left"]["img"][0] + 1) % r["left"]["target"]

    def bad_assoc(r):
        m = r["map"]
        m[0], m[-1] = m[-1], m[0]

    assert wl_spans.check(req, rc, edit_record(text, 0, lambda r: r.update(apex=r["apex"] + 1)))
    if json.loads(text.splitlines()[0])["left"]["target"] > 1:
        assert wl_spans.check(req, rc, edit_record(text, 0, bad_leg))
    assert wl_spans.check(req, rc, edit_record(text, 1, lambda r: r["lunitor"].reverse()))
    assert wl_spans.check(req, rc, edit_record(text, 2, bad_assoc))
    assert wl_spans.check(req, rc, edit_record(text, 2, lambda r: r["map"].append(0)))


@pytest.mark.parametrize("model", ("term", "slist"))
def test_unbias_oracle(model):
    req = first(wl_unbias, f"{model}-cells-a10")
    rc, text = execute(req)
    assert wl_unbias.check(req, rc, text) == []

    def bad_fiber(r):
        fiber = r["fibers"]["0"]
        fiber[0] = (fiber[0] + 1) % 8

    def bad_object(r):
        r["objects"]["1"] = r["objects"]["1"].replace("p", "q", 1)

    assert wl_unbias.check(req, rc, edit_record(text, 0, bad_fiber))
    assert wl_unbias.check(req, rc, edit_record(text, 0, bad_object))
    assert wl_unbias.check(req, rc, edit_record(text, 1, lambda r: r["unit"].pop("0")))
    assert wl_unbias.check(req, rc, edit_record(text, 1, lambda r: r["composition"].pop("0")))


def law_record(req, **changes):
    name = req.kind.removeprefix("suite-")
    report = {"name": name, "cases": wl_laws.RECORDED[name], "violations": [], **changes}
    return json.dumps({"schema": "smckit/1", "kind": "law-report", "suite": name, "seed": req.expect,
                       "reports": [report]}) + "\n"


def test_laws_oracle():
    first_round = rounds(wl_laws, 0, 1)[0]
    assert [r.kind for r in first_round] == [f"suite-{n}" for n in wl_laws.RECORDED]
    span, pbc = first_round[4], first_round[6]
    assert wl_laws.check(span, 0, law_record(span)) == []
    assert len(wl_laws.check(span, 1, law_record(span, violations=["pentagon"]))) == 1
    assert len(wl_laws.check(span, 0, law_record(span, cases=5119))) == 1
    assert len(wl_laws.check(pbc, 0, law_record(pbc, cases=3394))) == 1
    assert wl_laws.check(span, 0, law_record(span).replace('"span"', '"spam"'))
    # pbc draws random pastes: its count is recorded for seed 0 only
    later = rounds(wl_laws, 7, 1)[0]
    assert wl_laws.check(later[6], 0, law_record(later[6], cases=3392)) == []
    assert wl_laws.check(later[7], 0, law_record(later[7], cases=8394))


def test_escaping_exception_is_a_failed_request():
    req = first(wl_coherence, "chain-long")
    outcome = harness.judge(wl_coherence, req, *harness.call_cli(cli, req))
    assert not outcome.ok and outcome.error.startswith("RecursionError")
    line = json.loads(harness.replay_line("coherence", 3, 0, req, outcome))
    assert line["argv"][:3] == ["python", "-m", "smckit"] and line["argv"][3:] == req.argv


def test_latency_percentiles_rank_failures_slowest():
    ok = [harness.Outcome("k", t, 1) for t in (0.001, 0.002, 0.003)]
    bad = [harness.Outcome("k", 0.0001, 1, ["boom"])]
    assert harness.latency_ms(ok, 0.5, 1.0) == pytest.approx(2.0)
    assert harness.latency_ms(ok + bad, 0.9, 1.0) == 1000.0
    summary = harness.summarize(ok + bad, 0.5)
    assert summary["ok_frac"] == 0.75 and summary["ok_per_s"] == 6.0


def test_timings_scale_by_the_kernel_runs_in_and_next_to_them():
    probe = refspeed.SpeedProbe()
    probe.starts = [0.0, 0.1, 0.2, 0.3, 1.0, 5.0, 5.1, 5.2, 9.0]
    probe.costs = [0.009, 0.001, 0.001, 0.001, 0.003, 0.002, 0.002, 0.002, 0.002]
    ref = refspeed.REFERENCE_S
    # EDGE runs on each side, none inside
    assert probe.scale(0.25, 0.29) == pytest.approx(ref / 0.001)
    # the runs inside too; 0.009 is over OUTLIER times the median and left out
    kept = [0.001, 0.001, 0.001, 0.003, 0.002, 0.002, 0.002]
    assert probe.scale(0.15, 5.05) == pytest.approx(ref / statistics.fmean(kept))
    assert probe.scale(0.05, 0.25) == pytest.approx(ref / 0.001)
    fast = harness.Outcome("k", 0.04, 1, start=0.25, end=0.29)
    slow = harness.Outcome("k", 3.0, 1, start=5.15, end=8.5)
    assert harness.rescale([fast, slow], probe) == pytest.approx(0.04 * ref / 0.001 + 3.0 * ref / 0.002)
    assert probe.taken(0.05, 5.05) == pytest.approx(0.001 * 3 + 0.003 + 0.002)
    # a kernel run lasts about REFERENCE_S on the machine the constant was set on
    t0 = time.perf_counter()
    refspeed.kernel()
    assert 0 < time.perf_counter() - t0 < 50 * ref


def test_kernel_runs_during_a_request_are_taken_off_its_time():
    probe = refspeed.SpeedProbe()
    with probe.during():
        time.sleep(5 * refspeed.INTERVAL_S)
    assert len(probe.costs) >= 2
    assert probe.taken(probe.starts[0], probe.starts[-1]) == pytest.approx(sum(probe.costs))


def test_setup_is_timed_inside_the_fresh_interpreter():
    probe = refspeed.SpeedProbe()
    t0 = time.perf_counter()
    measured, scaled = harness.setup_spawn(probe)
    assert 0 < measured < time.perf_counter() - t0
    assert len(probe.costs) == 2 * refspeed.EDGE and scaled > 0


def test_per_round_outcomes_sum_their_requests():
    reqs = [harness.Outcome("a", 1.0, 1, round=1), harness.Outcome("b", 2.0, 1, ["bad"], round=1),
            harness.Outcome("a", 4.0, 1, round=2)]
    one, two = harness.per_round(reqs)
    assert (one.latency, one.units, one.failures, one.ok) == (3.0, 2, ["bad"], False)
    assert (two.latency, two.units, two.ok) == (4.0, 1, True)


# ---------------------------------------------------------------------------
# names, tracing, and running


def test_names_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert spec["paths"] == ["perfbench"]


def test_tracer_restores_every_reference():
    before = (terms.typecheck, spans.pullback, cli.typecheck, cli.cmd_unbias, cli.emit, terms.normalize)
    tr = tracing.Tracer()
    tr.install()
    try:
        assert spans.pullback is not before[1] and cli.typecheck is not before[2]
        assert cli.cmd_unbias is not before[3] and cli.emit is not before[4]
        assert terms.normalize is before[5]
    finally:
        tr.uninstall()
    assert (terms.typecheck, spans.pullback, cli.typecheck, cli.cmd_unbias, cli.emit, terms.normalize) == before


def traced(req):
    tr = tracing.Tracer()
    tr.install()
    try:
        rc, text, error, _ = harness.call_traced(cli, tr, req, 0)
    finally:
        tr.uninstall()
    assert error is None and not tr._stack
    return tr, rc, text


@pytest.mark.parametrize("workload, layers", (
    (wl_coherence, ("cli.command", "cli.parse", "cli.render", "terms.typecheck", "terms.eval")),
    (wl_spans, ("cli.command", "cli.records", "cli.render", "spans.compose", "spans.pullback")),
    (wl_unbias, ("cli.command", "cli.records", "cli.parse", "cli.render", "unbias.eval", "kleisli.compose")),
), ids=lambda w: getattr(w, "NAME", ""))
def test_traced_cli_gives_the_same_output_and_records_each_layer(workload, layers):
    req = min(rounds(workload, 6, 1)[0], key=lambda r: sum(len(a) for a in r.argv))
    tr, rc, text = traced(req)
    assert (rc, text) == execute(req)
    assert tr.calls["cli.main"] == 1
    for layer in layers:
        assert tr.calls[layer] >= 1, layer


def test_laws_seed_zero_counts_match_the_record():
    assert tuple(wl_laws.RECORDED) == tracing.LAW_SUITES == run.LAW_SUITES
    for req, (name, cases) in zip(rounds(wl_laws, 0, 1)[0], wl_laws.RECORDED.items()):
        tr, rc, text = traced(req)
        assert rc == 0 and wl_laws.check(req, rc, text) == []
        assert tr.counters[f"laws.{name}_cases"] == cases
        assert tr.calls[f"laws.{name}"] == 1


def test_unbias_small_stratum_has_empty_and_single_fibers():
    sizes = set()
    for rnd in rounds(wl_unbias, 1, 20):
        for req in rnd:
            if req.kind.endswith("-a4"):
                right = req.expect["span"]["right"]["img"]
                sizes.update(right.count(k) for k in range(3))
    assert {0, 1} <= sizes and max(sizes) <= 4


def test_oracle_waits_until_peak_memory_is_read(monkeypatch):
    events = []
    monkeypatch.setattr(harness, "peak_rss_mb", lambda: events.append("rss") or 1.0)
    reqs = [[harness.Request(["x"], "k")] for _ in range(3)]
    busy, rss = harness.closed_loop(
        iter(reqs), 10.0, lambda req: (0, "out", None, 0.5),
        lambda req, rc, text, error, dt: events.append(text) or harness.Outcome("k", dt, 1),
        lambda req, outcome: None, 2, refspeed.SpeedProbe(),
    )
    # the fake requests take no time, so the kernel runs before each count as theirs and come off
    assert events == ["rss", "out", "out", "out"] and 1.4 < busy <= 1.5 and rss == 1.0


def run_bench(cwd, *args):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args], cwd=cwd, capture_output=True, text=True, timeout=170
    )


@pytest.mark.parametrize("trace", ("0", "1"))
def test_run_prints_every_metric(trace):
    res = run_bench(ROOT, "--workload", "coherence", "--seed", "1", "--seconds", "0.5", "--trace", trace)
    assert res.returncode == 0, res.stderr
    out = json.loads(res.stdout.strip().splitlines()[-1])
    assert set(out) == {"correct", "attempted", "failed", "metrics"}
    want = run.PER_LAYER_UNITS if trace == "1" else run.END_TO_END_UNITS
    assert {k: v["unit"] for k, v in out["metrics"].items()} == want
    assert out["correct"] and out["attempted"] >= 1


def test_run_fails_without_the_program(tmp_path):
    shutil.copytree(harness.ROOT / "perfbench", tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    res = run_bench(tmp_path, "--workload", "spans", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert res.returncode != 0
    assert not res.stdout.strip()
