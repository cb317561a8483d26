"""The example scripts run end to end."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _load_script(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "scripts" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_unbias_demo_runs():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "unbias_demo.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stdout + proc.stderr
    assert "composite family: [[0, 1, 0]]" in proc.stdout.splitlines()


def test_curves_runs_on_tiny_sizes(tmp_path):
    out = tmp_path / "bench.json"
    out.write_text(json.dumps({"runs": []}))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "curves.py"), "--out", str(out), "--repeats", "1",
         "--psi-sizes", "2", "3", "--term-max-n", "2", "--arities", "1", "2",
         "--apex-sizes", "1", "3", "--list-lengths", "1", "4"],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(out.read_text())
    assert report["runs"] == []  # the file's other keys are kept
    curves = report["curves"]
    assert [n for n, _ in curves["psi_hom_reversal"]["slist"]["points"]] == [2, 3]
    assert [n for n, _ in curves["psi_hom_reversal"]["term"]["points"]] == [2]
    # the canonical text, rendered from the term and joined in the syntax model, for sizes up to 72
    for name in ("term_rendered", "syntax"):
        assert [n for n, _ in curves["psi_hom_reversal"][name]["points"]] == [2, 3]
    assert [n for n, _ in curves["reduced_word"]["points"]] == [2, 3]
    # one canonical term, of the one size up to --term-max-n, against its node count
    assert curves["normalize"]["x"] == "nodes" and len(curves["normalize"]["points"]) == 1
    assert all(n > 1 and t > 0 for c in (curves["reduced_word"], curves["normalize"]) for n, t in c["points"])
    # CLI equal on the texts of permutations of 4, 8, .. 24 labels, which no option changes
    tokens = [n for n, _ in curves["equal_text"]["points"]]
    assert curves["equal_text"]["x"] == "tokens" and len(tokens) == 6 and tokens == sorted(set(tokens))
    assert all(t > 0 for _, t in curves["equal_text"]["points"])
    # its tokenize, parse and normal_forms phases, each timed on its own, at the same token counts
    phases = curves["parse_phases"]
    assert list(phases) == ["tokenize", "parse", "normal_forms"]
    assert all(c["x"] == "tokens" and [n for n, _ in c["points"]] == tokens for c in phases.values())
    assert all(t > 0 for c in phases.values() for _, t in c["points"])
    assert [n for n, _ in curves["unbias_comp_iso"]["term"]["points"]] == [1, 2]
    # the texts of the cells of the same spans, by the syntax model, against arity
    assert set(curves["cells_text"]) == {"syntax"}
    for c in curves["cells_text"].values():
        assert c["x"] == "arity" and [n for n, _ in c["points"]] == [1, 2] and all(t > 0 for _, t in c["points"])
    apex_curves = [curves[name] for name in ("f_comp_cell", "pullback", "compose_span", "assoc_cell", "unitor_cells")]
    assert all([n for n, _ in c["points"]] == [1, 3] for c in apex_curves)
    # a dense pullback of maps of 1 and 3 points onto a foot of four, against its pairs
    dense = curves["pullback_dense"]
    assert dense["x"] == "pairs" and [n for n, _ in dense["points"]] == [1, 3]
    assert all(t > 0 for _, t in dense["points"])
    # span-compose --cells in-process on balanced 3-chains, against the composite's apex, which no option changes
    cells = curves["span_compose_cells"]
    apexes = [n for n, _ in cells["points"]]
    assert cells["x"] == "apex" and len(apexes) == 5 and apexes == sorted(set(apexes))
    assert 400 < apexes[0] and apexes[-1] <= 10_000 and all(t > 0 for _, t in cells["points"])
    # bare span-compose in-process on dense 4-chains of n = 12 .. 28 points per span, against n * (n / 4) ** 3
    chain = curves["span_compose_chain"]
    assert chain["x"] == "apex" and [n for n, _ in chain["points"]] == [324, 1024, 2500, 5184, 9604]
    assert all(t > 0 for _, t in chain["points"])
    assert [n for n, _ in curves["k_hcomp"]["points"]] == [1, 4]
    assert all(t > 0 for c in (*apex_curves, curves["k_hcomp"]) for _, t in c["points"])
    assert all(t > 0 for c in curves["psi_hom_reversal"].values() for _, t in c["points"])
    # the own import time of each smckit module that start-up loads
    startup = curves["startup"]
    modules = {"smckit", *(f"smckit.{p.stem}" for p in (ROOT / "src" / "smckit").glob("*.py") if p.stem[0] != "_")}
    assert {"smckit", "smckit.cli", "smckit.values"} <= set(startup["module_own_s"]) <= modules
    assert all(t >= 0 for t in startup["module_own_s"].values())
    # the wall time of one fresh process per CLI command
    wall = curves["cli_wall"]
    assert wall["unit"] == "s" and wall["runs"] > 0
    assert list(wall["wall_s"]) == ["normalize", "equal", "span-compose", "unbias --cells", "check-laws --suite braiding"]
    assert all(t > 0 for t in wall["wall_s"].values())
    # each run less a bare interpreter's run beside it: below the wall time, whatever the noise
    assert list(wall["over_bare_s"]) == list(wall["wall_s"])
    assert all(wall["over_bare_s"][name] < t for name, t in wall["wall_s"].items())
    # a FinFun's bytes, build and three reads, through each constructor
    values = curves["values"]
    assert values["class"] == "FinFun" and values["count"] > 0
    for path in ("public", "unchecked"):
        assert set(values[path]) == {"bytes", "build_ns", "read3_ns"} and all(v > 0 for v in values[path].values())


def test_same_outputs_finds_a_tree_the_same_as_itself():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "same_outputs.py"), str(ROOT), str(ROOT),
         "--seeds", "5", "--suites", "braiding"],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert [line.split()[0] for line in lines] == ["coherence", "spans", "unbias", "check-laws"]
    assert all(line.endswith("  same") for line in lines)
    # check-laws runs at two seeds, in two formats
    assert lines[-1].split()[1] == "4"


def test_bench_pairs_names_the_commits_of_archived_trees(tmp_path, monkeypatch):
    """``--commit`` and ``--parent-commit`` name trees whose runs record no commit; pairs alternate."""
    bench_pairs = _load_script("bench_pairs")
    calls = []

    def fake_bench(tree, workload, seed, seconds):
        calls.append((workload, seed, tree.name))
        return {"metrics": {"latency_p50_ms": 1.0}, "correct": True, "meta": {"commit": "unknown", "src_lines": 7}}

    monkeypatch.setattr(bench_pairs, "bench", fake_bench)
    for side in ("parent", "change"):
        (tmp_path / side).mkdir()
    out = tmp_path / "bench.json"
    args = ["--parent", str(tmp_path / "parent"), "--change", str(tmp_path / "change"),
            "--seeds", "1", "2", "--seconds", "0.1", "--out", str(out)]

    assert bench_pairs.main(args + ["--commit", "c0ffee", "--parent-commit", "beef"]) == 0
    report = json.loads(out.read_text())
    assert (report["commit"], report["parent_commit"]) == ("c0ffee", "beef")
    assert calls[:4] == [("coherence", 1, "parent"), ("coherence", 1, "change"),
                         ("coherence", 2, "change"), ("coherence", 2, "parent")]
    assert len(calls) == 4 * len(bench_pairs.WORKLOADS)

    # without the flags each side reports the commit its runs recorded
    assert bench_pairs.main(args) == 0
    report = json.loads(out.read_text())
    assert (report["commit"], report["parent_commit"]) == ("unknown", "unknown")


def test_record_ints_times_a_cold_and_a_warm_table_and_keeps_the_table():
    curves = _load_script("curves")
    table = curves.cli._DIGITS
    report = curves.record_ints([10, 100], 1)
    assert curves.cli._DIGITS is table
    assert set(report) == {"below_8", "below_length"}
    for tables in report.values():
        assert set(tables) == {"table_cold", "table_warm"}
        assert all([n for n, _ in c["points"]] == [10, 100] and all(t > 0 for _, t in c["points"])
                   for c in tables.values())
