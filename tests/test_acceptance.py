"""Acceptance suite: one test per criterion, each at its pinned tolerance.

The criteria run once, in one ``acceptance.run_all()`` shared by the
session (``full_run``). Every test prints a PASS/FAIL line with the
measured quantities. The same run checks the memo's lifetime rule and pins
every numeric and boolean detail against ``snapshot.json``, which also pins
the files of the CLI's model commands and ``finite-demo`` (``make_snapshot``).
The lane tests force two lanes (two usable CPUs at one BLAS thread) and check
that they give the one-lane results, that any lane's exception or death
reaches the caller as one exit code and one line, and that no child is left.

Known red: criterion 9. The closed-loop integrator propagates the N = 41
Galerkin matrix, whose weakly damped edge modes (Re ~ -0.26) hold generic
decay fits near 0.5; and the closed loop's norm is e^{-mu t} times a factor
periodic in the 2L round trip, so its logarithm misses the R^2 > 0.98
clause even when the rate is right. The central-subspace form of the
statement passes in test_simulate; see README "Truncation effects".
Criterion 8 passes since the closed-loop spectrum sums the law's tail
beyond N in closed form.
"""

import json
import os
import signal
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import pytest

from make_snapshot import SNAPSHOT, command_values, mismatches, snapshot_values
from watertank import acceptance, cli
from watertank.errors import NumericalError
from watertank.feedback import FeedbackLaw
from watertank.model import Params
from watertank.spectral import BcKind, build_basis


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    detail = json.dumps(result.details, default=str)
    if len(detail) > 400:
        detail = detail[:400] + "...}"
    print(f"ACCEPTANCE {result.cid}: {status} - {result.title} {detail}")


@dataclass
class WatchedRun:
    results: list  # CriterionResult in the order run_all returned them
    raised: dict  # cid -> the exception its criterion raised
    builds: list  # (cid, key) of every build_basis call, in order
    memo_after: dict  # cid -> the memo's keys once run_all has evicted after it


def watched_run(criteria=None) -> WatchedRun:
    """``acceptance.run_all(criteria)`` on one lane from an empty memo, watched from outside.

    Each ``build_basis`` call is recorded with the criterion that made it,
    and so are the memo's keys after each criterion's eviction. A criterion
    that raises is recorded and returns a failed verdict, so run_all goes on
    and each failure stays with its own test. The memo then gets back what
    it held before, and every basis the run built, so later tests share them
    through ``basis_cache`` as they would after ``run_criterion``.
    """
    memo = acceptance._memo
    saved = dict(memo)
    memo.clear()
    raised, builds, built, keys_at_start = {}, [], {}, []
    current = [None]

    def spy(params, kind, N, samples=True):
        basis = build_basis(params, kind, N, samples=samples)
        if samples:  # a basis without samples serves a law only, and cannot serve basis_cache
            built[params, kind, N] = basis
        builds.append((current[0], (params, kind, N)))
        return basis

    def watch(cid, fn):
        def criterion():
            current[0] = cid
            keys_at_start.append(list(memo))
            try:
                return fn()
            except Exception as exc:  # handed to the criterion's own test
                raised[cid] = exc
                return False, {}
        return criterion

    watched = {cid: (title, watch(cid, fn)) for cid, (title, fn) in acceptance.CRITERIA.items()}
    with pytest.MonkeyPatch.context() as mp:
        for var in acceptance._BLAS_THREAD_VARS:  # one lane: the spy cannot see a forked one
            mp.delenv(var, raising=False)
        mp.setattr(acceptance, "build_basis", spy)
        mp.setattr(acceptance, "CRITERIA", watched)
        try:
            results = acceptance.run_all(criteria)
            keys_after = keys_at_start[1:] + [list(memo)]
        finally:
            memo.clear()
            memo.update(saved)
            memo.update(built)
    return WatchedRun(results, raised, builds, {r.cid: k for r, k in zip(results, keys_after)})


@pytest.fixture(scope="session")
def full_run():
    return watched_run()


@pytest.mark.parametrize("cid", sorted(acceptance.CRITERIA))
def test_criterion(cid, full_run):
    if cid in full_run.raised:
        raise full_run.raised[cid]
    (result,) = [r for r in full_run.results if r.cid == cid]
    _report(result)
    assert result.passed, (
        f"criterion {cid} failed: {result.title}; details: {result.details}"
    )


def test_full_run_builds_each_basis_once_and_ends_empty(full_run):
    # the shared points are declared with all their readers: no key is built twice
    keys = [key for _, key in full_run.builds]
    assert [r.cid for r in full_run.results] == sorted(acceptance.CRITERIA)
    assert len(keys) == 13
    assert [k for k, n in Counter(keys).items() if n > 1] == []
    assert full_run.memo_after[12] == []


def test_each_basis_goes_after_its_last_reader():
    run = watched_run([12, 3, 2])
    shared = (acceptance.P_STD, BcKind.CONSERVATIVE, 20)
    assert [r.cid for r in run.results] == [12, 3, 2]
    # 12 builds the shared point; it outlives 3, and 2 finds it in the memo
    assert [key for _, key in run.builds].count(shared) == 1
    assert run.memo_after[12] == [shared]
    # criterion 3's three bases go when it returns; the memo ends empty
    assert len([key for cid, key in run.builds if cid == 3]) == 3
    assert run.memo_after[3] == [shared]
    assert run.memo_after[2] == []


def test_the_shared_law_is_built_once_and_outlives_its_basis(full_run):
    run = watched_run([8, 9])
    # 8 builds P_LOOP's basis, its law and the law's spectra; only the law and the
    # spectra enter the memo, and 9 reads them
    assert run.builds == [(8, (acceptance.P_LOOP, BcKind.CONSERVATIVE, 41))]
    assert run.memo_after[8] == [(acceptance.P_LOOP, FeedbackLaw, 41), (acceptance.P_LOOP, "spectra", 41)]
    assert run.memo_after[9] == []
    assert snapshot_values(run.results) == snapshot_values(full_run.results[7:9])


def test_criterion_9_reads_criterion_8_s_spectra(full_run, monkeypatch):
    # after 8 in the same lane, 9 takes 8's spectra from the memo and calls neither function
    calls = []
    for name in ("closed_loop_spectrum", "galerkin_spectrum"):
        spied = getattr(acceptance, name)
        monkeypatch.setattr(acceptance, name, lambda law, f=spied, name=name: calls.append(name) or f(law))
    title, c9 = acceptance.CRITERIA[9]
    monkeypatch.setitem(acceptance.CRITERIA, 9, (title, lambda: calls.append("criterion 9") or c9()))
    monkeypatch.setattr(acceptance, "_memo", {})
    for var in acceptance._BLAS_THREAD_VARS:  # one lane: the spies cannot see a forked one
        monkeypatch.delenv(var, raising=False)
    results = acceptance.run_all([8, 9])
    assert calls == ["closed_loop_spectrum", "galerkin_spectrum", "criterion 9"]
    assert snapshot_values(results) == snapshot_values(full_run.results[7:9])
    assert acceptance._memo == {}


@pytest.mark.parametrize("criteria", [[9], [9, 8]])
def test_a_shared_law_s_readers_build_it_in_any_order(criteria, full_run):
    run = watched_run(criteria)
    assert [key for _, key in run.builds] == [(acceptance.P_LOOP, BcKind.CONSERVATIVE, 41)]
    assert run.memo_after[criteria[-1]] == []
    serial = {r.cid: r for r in full_run.results}
    assert snapshot_values(run.results) == snapshot_values(serial[cid] for cid in criteria)


def test_run_all_keeps_what_it_did_not_build(monkeypatch):
    # an entry from outside the call, such as a basis the test session shares, stays
    key = (Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=4, grid_points=257), BcKind.CONSERVATIVE, 4)
    outside = object()
    monkeypatch.setitem(acceptance._memo, key, outside)
    acceptance.run_all([11])
    assert acceptance._memo[key] is outside


def test_details_match_snapshot(full_run):
    want = json.loads(SNAPSHOT.read_text())["criteria"]
    got = snapshot_values(full_run.results)
    bad = [f"criterion {cid}: {m}" for cid in want.keys() | got.keys()
           for m in mismatches(got.get(cid, {}), want.get(cid, {}))]
    assert not bad, "details moved from snapshot.json:\n" + "\n".join(sorted(bad))


def test_cli_files_match_snapshot(tmp_path):
    want = json.loads(SNAPSHOT.read_text())["commands"]
    got = command_values(tmp_path)
    bad = [f"{command}: {m}" for command in want.keys() | got.keys()
           for m in mismatches(got.get(command, {}), want.get(command, {}))]
    assert not bad, "CLI files moved from snapshot.json:\n" + "\n".join(sorted(bad))


def test_mismatches_catch_a_relative_move_of_1e8():
    want = {"rate": 0.5, "ok": True, "tiny": 1e-15}
    assert mismatches(dict(want), want) == []
    assert mismatches({**want, "tiny": 5e-13}, want) == []
    assert mismatches({**want, "rate": 0.5 * (1 + 1e-8)}, want) == ["rate: 0.500000005 against 0.5"]
    assert mismatches({**want, "ok": 1}, want) == ["ok: 1 against True"]
    assert mismatches({"rate": 0.5}, want) == ["ok: missing", "tiny: missing"]


def _lanes(monkeypatch, threads, cpus=2):
    """Make ``run_all`` see ``cpus`` usable CPUs and ``threads`` BLAS threads (None: unset)."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    for var in acceptance._BLAS_THREAD_VARS:
        monkeypatch.delenv(var, raising=False)
    if threads is not None:
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", threads)


@pytest.fixture
def two_lanes(monkeypatch):
    _lanes(monkeypatch, "1")


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _run_report(criteria, outdir):
    return cli.main(["report", "--set", f"criteria={criteria}", "--set", f"outdir={outdir}"])


def _raising(message):
    def criterion():
        raise NumericalError(message)
    return criterion


@pytest.mark.parametrize("env, cpus, groups, lanes", [
    ({}, 2, 9, 1),  # OpenBLAS takes a thread per CPU
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 9, 2),
    ({"OPENBLAS_NUM_THREADS": "2"}, 2, 9, 1),
    ({"OPENBLAS_NUM_THREADS": "x"}, 2, 9, 1),
    ({"OPENBLAS_NUM_THREADS": "3"}, 2, 9, 1),
    ({"OMP_NUM_THREADS": "1"}, 2, 9, 2),
    ({"OPENBLAS_NUM_THREADS": "2", "OMP_NUM_THREADS": "1"}, 4, 9, 2),  # OpenBLAS's own first
    ({"OPENBLAS_NUM_THREADS": "0", "OMP_NUM_THREADS": "1"}, 2, 9, 2),
    ({"OPENBLAS_NUM_THREADS": "1"}, 4, 3, 3),  # no more lanes than groups
    ({"OPENBLAS_NUM_THREADS": "1"}, 2, 0, 1),
])
def test_lane_count(env, cpus, groups, lanes, monkeypatch):
    _lanes(monkeypatch, None, cpus)
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    assert acceptance._lane_count(groups) == lanes


@pytest.mark.parametrize("criteria, lane_of", [
    (None, {1: 0, 2: 1, 3: 0, 4: 1, 5: 1, 6: 0, 7: 1, 8: 0, 9: 0, 10: 1, 11: 0, 12: 1}),
    ([12, 3, 8, 2], {12: 0, 3: 1, 8: 0, 2: 0}),  # 2 goes with 12, its shared point's reader
])
def test_two_lanes_give_the_one_lane_results(criteria, lane_of, full_run, two_lanes):
    results = acceptance.run_all(criteria)
    _no_child_left()
    serial = {r.cid: r for r in full_run.results}
    assert [r.cid for r in results] == list(lane_of)
    assert {r.cid: r.lane for r in results} == lane_of
    assert [r.passed for r in results] == [serial[r.cid].passed for r in results]
    assert snapshot_values(results) == snapshot_values(serial[r.cid] for r in results)


@pytest.mark.parametrize("threads, lanes", [(None, 1), ("1", 2)])
def test_report_records_its_lanes(threads, lanes, monkeypatch, tmp_path):
    _lanes(monkeypatch, threads)
    assert _run_report("1,11", tmp_path) == 0
    doc = json.loads((tmp_path / "acceptance_report.json").read_text())
    assert doc["lanes"] == lanes
    assert len(doc["lane_peak_rss_mb"]) == lanes and min(doc["lane_peak_rss_mb"]) > 0
    assert [c["id"] for c in doc["criteria"]] == [1, 11]
    _no_child_left()


def test_a_forked_lane_raises_in_the_caller(two_lanes, monkeypatch, tmp_path, capsys):
    assert acceptance._deal([1, 11]) == [[0], [1]]  # 11 runs in the forked lane
    monkeypatch.setitem(acceptance.CRITERIA, 11, ("raises", _raising("no root in lane 1")))
    code = _run_report("1,11", tmp_path)
    _no_child_left()
    assert code == 4
    assert capsys.readouterr().err == "numerical failure: no root in lane 1\n"


@pytest.mark.parametrize("criteria, first", [
    ([1, 11, 3], 11),  # lanes [1, 3] and [11]: the forked lane's 11 comes first
    ([3, 11, 1], 3),  # lanes [3, 1] and [11]: the calling lane's 3 comes first
])
def test_the_earliest_criterion_s_exception_wins(criteria, first, two_lanes, monkeypatch):
    for cid in (3, 11):
        monkeypatch.setitem(acceptance.CRITERIA, cid, ("raises", _raising(f"criterion {cid}")))
    with pytest.raises(NumericalError, match=f"^criterion {first}$"):
        acceptance.run_all(criteria)
    _no_child_left()


def test_a_killed_lane_is_a_numerical_failure(two_lanes, monkeypatch, tmp_path, capsys):
    caller = os.getpid()

    def kill_own_lane():
        if os.getpid() != caller:  # never the test process
            os.kill(os.getpid(), signal.SIGKILL)
        raise AssertionError("criterion 11 ran in the calling process")

    monkeypatch.setitem(acceptance.CRITERIA, 11, ("killed", kill_own_lane))
    code = _run_report("1,11", tmp_path)
    _no_child_left()
    assert code == 4
    assert capsys.readouterr().err == (
        "numerical failure: the lane running criteria [11] ended by signal 9 without a result\n")


def test_a_lane_that_cannot_start_is_a_numerical_failure(two_lanes, monkeypatch, tmp_path, capsys):
    def no_fork():
        raise BlockingIOError(11, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", no_fork)
    code = _run_report("1,11", tmp_path)
    assert code == 4
    assert capsys.readouterr().err == ("numerical failure: cannot start a lane for criteria [11]: "
                                      "[Errno 11] Resource temporarily unavailable\n")


def test_an_interrupt_in_the_calling_lane_kills_the_others(two_lanes, monkeypatch):
    def interrupted():
        raise KeyboardInterrupt

    monkeypatch.setitem(acceptance.CRITERIA, 1, ("interrupted", interrupted))
    monkeypatch.setitem(acceptance.CRITERIA, 11, ("sleeps", lambda: time.sleep(60)))
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        acceptance.run_all([1, 11])
    _no_child_left()
    assert time.perf_counter() - t0 < 30  # killed, not waited for


def test_no_process_outlives_a_report(tmp_path):
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONPATH": str(Path(acceptance.__file__).parents[1])}
    proc = subprocess.Popen(
        [sys.executable, "-m", "watertank", "report", "--set", "criteria=1,11",
         "--set", f"outdir={tmp_path}"],
        env=env, start_new_session=True, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True)
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 0, err
    with pytest.raises(ProcessLookupError):  # its session's group is gone: no lane outlived it
        os.killpg(proc.pid, 0)
    doc = json.loads((tmp_path / "acceptance_report.json").read_text())
    assert doc["lanes"] == min(2, len(os.sched_getaffinity(0)))
