"""Self-tests of the benchmark: its statistics, span arithmetic, inputs and BENCHMARK.json."""

import json
import random
import re
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.fixture(scope="module")
def bench():
    return json.loads((HERE.parent / "BENCHMARK.json").read_text())


def test_tail_percentile_keeps_ten_samples_beyond():
    for n in range(11, 120):
        samples = random.Random(n).sample(range(1000), n)
        value, pct = run.tail_percentile(samples)
        beyond = sum(1 for x in samples if x > value)
        assert beyond == run.TAIL_BEYOND  # at least ten, and no higher order statistic has ten
        assert pct == pytest.approx(100.0 * (n - run.TAIL_BEYOND) / n)


def test_tail_percentile_needs_eleven_samples():
    with pytest.raises(ValueError):
        run.tail_percentile(range(10))


def test_self_time_subtracts_union_of_children_clipped_to_parent():
    tree = [
        (1, 0.0, 10.0, None),
        (2, 1.0, 3.0, 1),   # overlaps 3: together they cover [1, 5]
        (3, 2.0, 5.0, 1),
        (4, 8.0, 12.0, 1),  # runs past the parent: only [8, 10] counts
        (5, 2.5, 4.5, 3),   # a grandchild is charged to its own parent only
    ]
    selfs = spans.self_times(tree)
    assert selfs[1] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[3] == pytest.approx(3.0 - 2.0)
    assert selfs[5] == pytest.approx(2.0)
    assert spans.union_length([]) == 0.0


def test_tracer_wraps_every_binding_and_restores_it():
    import spectral_walks
    from spectral_walks import spectra, tree

    eigh, cpl = spectra.eigh, tree.common_prefix_length
    tracer = spans.Tracer()
    tracer.session = 0
    tracer.install()
    try:
        assert spectral_walks.eigh is spectra.eigh is not eigh
        assert spectra.common_prefix_length is tree.common_prefix_length is not cpl
        spectra.reciprocity_spectrum(("1", "11", "111"))
    finally:
        tracer.uninstall()
    assert spectral_walks.eigh is spectra.eigh is eigh
    assert spectra.common_prefix_length is tree.common_prefix_length is cpl
    by_id = {s[0]: s for s in tracer.spans}
    outer = [s for s in tracer.spans if s[1] == "spectra.reciprocity_spectrum"]
    assert len(outer) == 1
    eighs = [s for s in tracer.spans if s[1] == "spectra.eigh"]
    assert eighs and all(by_id[s[4]][1] == "spectra.reciprocity_spectrum" for s in eighs)
    assert tracer.counts[("tree.common_prefix_length", 0)] > 0


def test_inputs_follow_the_seed():
    doc = workloads.dyadic_graph(random.Random(5))
    assert doc == workloads.dyadic_graph(random.Random(5))
    assert len(doc["vertices"]) == 511
    assert len(doc["edges"]) == 510 + 128
    cs = [e["c"] for e in doc["edges"]]
    assert min(cs) >= 1 and max(cs) <= 59
    degree = {v: 0 for v in doc["vertices"]}
    for e in doc["edges"]:
        degree[e["u"]] += 1
        degree[e["v"]] += 1
    assert any(d == 1 for d in degree.values())  # leaves stay in
    ef = workloads.ExactForms(5, "")
    assert len(ef.f40) == len(set(ef.f40)) == 40
    assert len(ef.w6) == 6
    assert run.session_seed(5, 0) == run.session_seed(5, 0) != run.session_seed(5, 1)


def test_names_are_well_formed(bench):
    names = [w["name"] for w in bench["workloads"]]
    names += [m["name"] for m in bench["end_to_end"] + bench["per_layer"]]
    assert len(names) == len(set(names))
    for name in names:
        assert NAME.fullmatch(name), name
    for m in bench["end_to_end"] + bench["per_layer"]:
        assert UNIT.fullmatch(m["unit"]), m


def test_benchmark_json_lists_exactly_the_workloads_and_metrics(bench):
    assert set(bench) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert bench["command"] == ["python3", "perfbench/run.py"]
    assert bench["paths"] == ["perfbench"]
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    for w in bench["workloads"]:
        assert set(w) == {"name", "why"} and 0 < len(w["why"]) <= 200 and "\n" not in w["why"]
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    for m in bench["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"} and 0 < m["bound"] <= 0.25
    for m in bench["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    setup = next(m for m in bench["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in bench["end_to_end"])


def test_failed_checks_are_sorted_into_kinds():
    from spectral_walks.walks import CheckReport, CheckRow

    table = "# table=covariance\nf1,f2,lag,estimate,exact,se,sigmas\n{}\n"
    assert workloads.failed_rows_kind(workloads.parse_tables(table.format("o,d,0,0,0.1,0,inf"))) == "zero_se"
    assert workloads.failed_rows_kind(workloads.parse_tables(table.format("o,d,0,0.2,0.1,0.01,10"))) == "5sigma"
    assert workloads.failed_rows_kind({}) == "exit1"
    rows = (
        CheckRow("a", estimate=0.4 + 1e-16, exact=0.4, se=1e-18),  # rounding
        CheckRow("b", estimate=0.5, exact=0.4, se=0.0),            # rare branch never drawn
        CheckRow("c", estimate=0.5, exact=0.4, se=0.001),          # neither
    )
    never_drawn = {"a": False, "b": True, "c": False}
    fields = workloads.report_verdict("check", CheckReport(rows=rows), never_drawn.get)
    assert fields["verdict_fails"] == ["check.5sigma+rounding+unsampled_transition"]
    ok = workloads.report_verdict("check", CheckReport(rows=rows[:0]), never_drawn.get)
    assert "verdict_fails" not in ok and ok["verdicts"] == 1
