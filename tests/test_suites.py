"""The law-suite registry: sizes reach every suite, and suites are looked up at call time."""

from smckit import laws

SUITE_NAMES = tuple(name for name in laws.suite_names() if name != "all")


def test_every_suite_runs_at_a_given_size():
    # seed-1 counts at max_size 2; coherence and kleisli have no size and run whole
    reports = laws.run_suite("all", max_size=2, seed=1)
    assert all(r.ok for r in reports), "\n".join(map(str, reports))
    assert {r.name: r.cases for r in reports} == {
        "coxeter": 2009,
        "faithfulness": 4000,
        "braiding": 12,
        "coherence": 2004,
        "span": 5071,
        "kleisli": 32823,
        "pbc": 1435,
        "unbias": 204,
    }


def test_run_suite_calls_the_module_attribute(monkeypatch):
    # the benchmark's tracer wraps a suite by replacing the module attribute
    marker = laws.LawReport("span", -1, ("stub",))
    monkeypatch.setattr(laws, "span_suite", lambda *args, **kwargs: marker)
    assert laws.run_suite("span") == [marker]
    for name in SUITE_NAMES:
        if name != "span":
            stub = laws.LawReport(name, 0, ())
            monkeypatch.setattr(laws, f"{name}_suite", lambda *args, stub=stub, **kwargs: stub)
    reports = laws.run_suite("all", max_size=2, seed=1)
    assert [r.name for r in reports] == list(SUITE_NAMES)
    assert reports[SUITE_NAMES.index("span")] is marker


def test_unbias_naturality_draws_its_cells_on_nonempty_apexes(monkeypatch):
    # the comparison-naturality law of each triple runs on a pith cell of s; a cell of an empty
    # apex is an identity, so a check that drew only those would test nothing
    apexes = []
    draw = laws.random_pith_cell

    def counting(rng, s):
        apexes.append(s.apex.size)
        return draw(rng, s)

    monkeypatch.setattr(laws, "random_pith_cell", counting)
    (report,) = laws.run_suite("unbias", seed=0)
    assert report.ok and report.cases == 8395
    assert len(apexes) == 38 and min(apexes) > 0  # 38 of the 55 triples have a non-empty apex
