"""fork_map: input order, errors from either side, and no child left behind."""

import os
import threading
import time

import pytest

import lptorus.cli
import lptorus.paraproduct
from lptorus import Grid, single_mode, taylor_green, write_field
from lptorus.parallel import fork_map
from lptorus.solver import OracleInstabilityError


@pytest.fixture
def cpus(monkeypatch):
    """Set the affinity set fork_map sees to range(n)."""

    def use(n):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))

    return use


@pytest.fixture(autouse=True)
def no_child_left():
    yield
    with pytest.raises(ChildProcessError):  # nothing left to reap
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("shares", [1, 2, 4])
def test_results_come_back_in_input_order(shares, cpus):
    cpus(shares)
    parent = os.getpid()
    out, used = fork_map(lambda x: (x * x, os.getpid()), range(9))
    assert [value for value, _ in out] == [x * x for x in range(9)]
    pids = [pid for _, pid in out]
    assert pids[0] == parent
    assert len(set(pids)) == shares == used


def test_few_items_use_few_processes(cpus):
    cpus(4)
    assert fork_map(str, []) == ([], 1) and fork_map(str, [7]) == (["7"], 1)
    assert fork_map(str, range(3)) == (["0", "1", "2"], 3)


def test_serial_while_another_thread_is_alive(cpus):
    cpus(4)
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        pids, used = fork_map(lambda x: os.getpid(), range(8))
        assert set(pids) == {os.getpid()} and used == 1
    finally:
        release.set()
        thread.join()


@pytest.mark.parametrize("error", [ValueError, OracleInstabilityError])
def test_a_childs_exception_re_raises_with_its_type_and_message(error, cpus):
    cpus(2)

    def fn(x):
        if x == 3:
            raise error(f"item {x} failed")
        return x

    with pytest.raises(error, match="^item 3 failed$"):
        fork_map(fn, range(4))


def test_the_first_failing_item_in_input_order_wins(cpus):
    cpus(4)

    def fn(x):
        if x >= 2:
            time.sleep(0.05 * (8 - x))  # the later shares fail first
            raise ValueError(f"item {x}")
        return x

    with pytest.raises(ValueError, match="^item 2$"):
        fork_map(fn, range(8))


def test_children_are_reaped_when_the_parents_share_raises(cpus):
    cpus(3)
    parent = os.getpid()

    def fn(x):
        if os.getpid() == parent:
            raise KeyError(x)
        time.sleep(30)  # killed, not waited for
        return x

    start = time.perf_counter()
    with pytest.raises(KeyError):
        fork_map(fn, range(3))
    assert time.perf_counter() - start < 10


def test_a_child_that_dies_without_a_result_raises_runtime_error(cpus):
    cpus(2)
    with pytest.raises(RuntimeError, match="exited with status 3 and no result"):
        fork_map(lambda x: os._exit(3) if x else x, [0, 1])


def test_an_oracle_error_in_the_worker_exits_2_with_one_error_line(
    tmp_path, cpus, monkeypatch, capsys
):
    grid = Grid(2, 16)
    write_field(tmp_path / "u0.lpfld", taylor_green(grid, 0.004))
    write_field(tmp_path / "th0.lpfld", single_mode(grid, (1, 1), 0.003))
    parent = os.getpid()

    def oracle(*args):
        assert os.getpid() != parent  # runs on the forked worker
        raise OracleInstabilityError("the oracle blew up")

    monkeypatch.setattr(lptorus.cli, "exponential_euler", oracle)
    cpus(2)
    report = tmp_path / "solve.json"
    assert lptorus.cli.main([
        "solve", "--u0", str(tmp_path / "u0.lpfld"), "--theta0",
        str(tmp_path / "th0.lpfld"), "--T", "0.25", "--M", "4", "--oracle",
        "--report", str(report),
    ]) == 2
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: the oracle blew up"]
    assert not report.exists()


def test_a_value_error_in_a_bilinear_worker_exits_2_with_one_error_line(
    tmp_path, cpus, monkeypatch, capsys
):
    parent, real = os.getpid(), lptorus.paraproduct._static_ratio

    def ratio(*args):
        if os.getpid() != parent:
            raise ValueError("a trial failed")
        return real(*args)

    monkeypatch.setattr(lptorus.paraproduct, "_static_ratio", ratio)
    cpus(2)
    report = tmp_path / "bilinear.json"
    assert lptorus.cli.main(["verify", "bilinear", "--lemma", "2.4", "--N", "16,32",
                             "--trials", "2", "--report", str(report)]) == 2
    assert capsys.readouterr().err.splitlines() == ["error: a trial failed"]
    assert not report.exists()
