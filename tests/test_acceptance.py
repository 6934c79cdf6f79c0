"""Acceptance suite: one test per criterion, each at its pinned tolerance.

The criteria run once, in one ``acceptance.run_all()`` shared by the
session (``full_run``). Every test prints a PASS/FAIL line with the
measured quantities. The same run checks the memo's lifetime rule and pins
every numeric and boolean detail against ``snapshot.json``, which also pins
the files of the CLI's model commands and ``finite-demo`` (``make_snapshot``).

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
from collections import Counter
from dataclasses import dataclass

import pytest

from make_snapshot import SNAPSHOT, command_values, mismatches, snapshot_values
from watertank import acceptance
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
    """``acceptance.run_all(criteria)`` from an empty memo, watched from outside.

    Each ``build_basis`` call is recorded with the criterion that made it,
    and so are the memo's keys after each criterion's eviction. A criterion
    that raises is recorded and returns a failed verdict, so run_all goes on
    and each failure stays with its own test. The memo then gets back what
    it held before, and every basis the run built, so later tests share them
    through ``basis_cache`` as they would after ``run_criterion``.
    """
    memo = acceptance._basis_memo
    saved = dict(memo)
    memo.clear()
    raised, builds, built, keys_at_start = {}, [], {}, []
    current = [None]

    def spy(params, kind, N):
        built[params, kind, N] = basis = build_basis(params, kind, N)
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


def test_run_all_keeps_what_it_did_not_build(monkeypatch):
    # an entry from outside the call, such as a basis the test session shares, stays
    key = (Params(gamma=0.05, mu=2.0, nu=0.5, n_modes=4, grid_points=257), BcKind.CONSERVATIVE, 4)
    outside = object()
    monkeypatch.setitem(acceptance._basis_memo, key, outside)
    acceptance.run_all([11])
    assert acceptance._basis_memo[key] is outside


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
