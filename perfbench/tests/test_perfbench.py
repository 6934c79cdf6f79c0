"""Unit tests of the benchmark's own arithmetic and checks.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent), str(HERE.parent.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spans import OP, Recorder, Span  # noqa: E402


def test_self_time_on_synthetic_span_tree():
    #  op [0, 10]
    #  +-- a [1, 5]
    #  |   +-- b [2, 3]
    #  |   +-- c [2.5, 4]   overlaps b: the covered union is [2, 4]
    #  +-- d [6, 7]
    tree = [
        Span(0, OP, 0.0, 10.0, None),
        Span(1, "a", 1.0, 5.0, 0),
        Span(2, "b", 2.0, 3.0, 1),
        Span(3, "c", 2.5, 4.0, 1),
        Span(4, "d", 6.0, 7.0, 0),
    ]
    selfs = spans.self_times(tree)
    assert selfs == pytest.approx({0: 5.0, 1: 2.0, 2: 1.0, 3: 1.5, 4: 1.0})
    m = spans.layer_metrics(tree, traced_op_s=[10.0], untraced_op_s=[9.0])
    assert m["trace.unattributed_s"] == pytest.approx(5.0)
    assert m["trace.unattributed_frac"] == pytest.approx(0.5)
    assert m["trace.overhead_s"] == pytest.approx(1.0)


def test_child_spans_merge_under_the_current_span():
    child = Recorder()
    child.add("cli.import", 1.0, 2.0)
    with child.span("cli.report"):
        with child.span("spectral.build_basis"):
            pass
    parent = Recorder()
    with parent.span(OP) as root:
        parent.merge(json.loads(json.dumps(child.dump())))
    by_name = {s.name: s for s in parent.spans}
    assert by_name["cli.import"].parent == root.sid
    assert by_name["cli.report"].parent == root.sid
    assert by_name["spectral.build_basis"].parent == by_name["cli.report"].sid
    assert {s.op for s in parent.spans} == {root.sid}


def _report(failing=()):
    return {"criteria": [{"id": cid, "passed": cid not in failing, "elapsed_seconds": 0.1}
                         for cid in range(1, 13)]}


def test_report_with_criterion_1_failing_is_a_failed_op():
    def op():
        return workloads.check_report(4, _report(failing=(1, 8, 9))), {}

    _, problems, _ = run.run_op(op)
    assert problems == ["criteria failing: [1]"]


def test_report_checks_exit_code_and_completeness():
    assert workloads.check_report(4, _report(failing=(8, 9))) == []
    assert workloads.check_report(0, _report()) == []
    assert workloads.check_report(1, _report()) == ["report exit code 1"]
    partial = {"criteria": _report()["criteria"][:11]}
    assert workloads.check_report(0, partial) == ["criteria missing: [12]"]


def test_an_exception_in_an_op_is_a_failed_op():
    def op():
        raise FileNotFoundError("acceptance_report.json")

    _, problems, _ = run.run_op(op)
    assert problems == ["FileNotFoundError: acceptance_report.json"]


def _builds(keys):
    rec = Recorder()
    with rec.span(OP):
        for key in keys:
            with rec.span("spectral.build_basis") as s:
                s.attrs["dup"] = rec.note_build(key)
    return rec.spans


def test_dup_frac_counts_a_repeated_key_once():
    m = spans.layer_metrics(_builds(["A", "A", "B", "C"]), [1.0], [1.0])
    assert m["spectral.build_basis.calls"] == 4
    assert m["spectral.build_basis.dup_frac"] == pytest.approx(1 / 4)
    m = spans.layer_metrics(_builds(["A", "B"]), [1.0], [1.0])
    assert m["spectral.build_basis.dup_frac"] == 0.0


def test_basis_key_resolves_defaults():
    # the report builds one key twice because explicit and defaulted
    # with_duals give different lru_cache keys; the benchmark counts it as one
    from watertank.model import Params
    from watertank.spectral import BcKind, build_basis

    p = Params(gamma=0.05, n_modes=20)
    explicit = spans.basis_key(build_basis, (p, BcKind.CONSERVATIVE, 20, True), {})
    defaulted = spans.basis_key(build_basis, (p, BcKind.CONSERVATIVE, 20), {})
    implicit_n = spans.basis_key(build_basis, (p, BcKind.CONSERVATIVE), {})
    assert explicit == defaulted == implicit_n
    assert explicit != spans.basis_key(build_basis, (p, BcKind.CONSERVATIVE, 20, False), {})


def test_traced_wraps_every_binding_and_restores_it():
    import watertank.acceptance
    import watertank.cli
    import watertank.spectral

    orig = watertank.spectral.build_basis
    rec = Recorder()
    with spans.traced(rec):
        for mod in (watertank.spectral, watertank.acceptance, watertank.cli):
            assert mod.build_basis is not orig
            assert mod.build_basis.__wrapped__ is orig
    for mod in (watertank.spectral, watertank.acceptance, watertank.cli):
        assert mod.build_basis is orig


def test_tail_needs_ten_samples_beyond_it():
    assert run.tail(list(range(19))) is None
    t = run.tail([float(i) for i in range(1, 101)])
    assert (t["percentile"], t["value"], t["samples_beyond"]) == (90, 90.0, 10)


def test_benchmark_json_lists_every_metric_the_run_prints():
    bench = json.loads((HERE.parent.parent / "BENCHMARK.json").read_text())
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == spans.PER_LAYER
    e2e = {m["name"] for m in bench["end_to_end"]}
    assert e2e == {"setup_s", "op_s_p50", "ops_per_s", "cpu_s_per_op", "peak_rss_mb"}
    assert {w["name"] for w in bench["workloads"]} == set(workloads.WORKLOADS)
