"""Probe of the machine's current speed, used to scale the end-to-end times.

On a shared host the same job's wall time drifts by up to 1.8x within
minutes, as other tenants load the machine. A fixed pure-Python block
(dict updates and a sort) that runs no program code slows down with it.
``Calibrator.block_s`` times that block on as many cores at once as the
workload uses, and the benchmark multiplies each wall time by
``REF_BLOCK_S`` over the block time measured right before and after it.
Set-up happens once, so its wall time is scaled by the median of all
the run's probes instead. A scaled time is the wall time the work would
take on a machine where the block takes ``REF_BLOCK_S``. It depends far
less than the wall time on what else the host runs at that moment, so
two runs of one program agree, while a change to the program still
moves it in full.
"""
from __future__ import annotations

import multiprocessing
import statistics
import time

# Seconds one block takes at the reference speed. Any fixed value works:
# it only sets the scale that scaled times are reported in.
REF_BLOCK_S = 0.008


def time_block(repeats: int = 5) -> float:
    """Median seconds of the block over ``repeats`` runs, in this process."""
    times = []
    for _ in range(repeats):
        t = time.perf_counter()
        d: dict[int, int] = {}
        for i in range(20000):
            d[i & 1023] = d.get(i & 1023, 0) + i
        sorted((i * 7919) % 10007 for i in range(20000))
        times.append(time.perf_counter() - t)
    return statistics.median(times)


def _worker(conn) -> None:
    while conn.recv():
        conn.send(time_block())
    conn.close()


class Calibrator:
    """Times the block on ``cores`` cores at once: in this process for
    one core, else in that many forked helper processes that idle on a
    pipe between probes. Create it before starting threads (Spark) and
    ``close`` it, which ends and waits for every helper."""

    def __init__(self, cores: int):
        self._conns = []
        self._procs = []
        self.probes: list[float] = []  # every block time measured
        if cores > 1:
            ctx = multiprocessing.get_context("fork")
            for _ in range(cores):
                here, there = ctx.Pipe()
                proc = ctx.Process(target=_worker, args=(there,), daemon=True)
                proc.start()
                there.close()
                self._conns.append(here)
                self._procs.append(proc)

    def block_s(self) -> float:
        """Mean over the cores of the block's median seconds."""
        if self._conns:
            for conn in self._conns:
                conn.send(True)
            self.probes.append(statistics.mean(conn.recv() for conn in self._conns))
        else:
            self.probes.append(time_block())
        return self.probes[-1]

    def scale(self, wall_s: float, before_s: float) -> float:
        """``wall_s`` at the reference speed, given the block time taken
        just before it; probes the block again for the time after."""
        return wall_s * REF_BLOCK_S / ((before_s + self.block_s()) / 2)

    def scale_by_run(self, wall_s: float) -> float:
        """``wall_s`` at the reference speed, by the median of all probes."""
        return wall_s * REF_BLOCK_S / statistics.median(self.probes)

    def close(self) -> None:
        for conn in self._conns:
            try:
                conn.send(False)
            except OSError:  # the helper has already gone
                pass
            conn.close()
        for proc in self._procs:
            proc.join(timeout=30)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []
