"""Shared fixtures for the service-layer tests."""

import threading
from contextlib import contextmanager

import pytest

from repro import check_function, parse_function
from repro.runtime import ENGLISH
from repro.service.queue import Job

EDIT_PROGRAM = '''\
alphabet en = "abcdefghijklmnopqrstuvwxyz"

int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1
'''

FORWARD_PROGRAM = '''\
alphabet dna = "acgt"

hmm h [dna] {
  state b : start
  state m emits { a: 0.4, c: 0.1, g: 0.1, t: 0.4 }
  state e : end
  trans b -> m : 1.0
  trans m -> m : 0.5
  trans m -> e : 0.5
}

prob fw(hmm h, state[h] s, seq[*] x, index[x] i) =
  if i == 0 then (if s.isstart then 1.0 else 0.0)
  else (if s.isend then 1.0 else s.emission[x[i-1]])
    * sum(t in s.transitionsto : t.prob * fw(t.start, i-1))
'''

EDIT_FUNC_SRC = """\
int d(seq[en] s, index[s] i, seq[en] t, index[t] j) =
  if i == 0 then j
  else if j == 0 then i
  else if s[i-1] == t[j-1] then d(i-1, j-1)
  else (d(i-1, j) min d(i, j-1) min d(i-1, j-1)) + 1"""


@pytest.fixture
def edit_func():
    """The checked edit-distance function (standalone form)."""
    return check_function(
        parse_function(EDIT_FUNC_SRC), {"en": ENGLISH.chars}
    )


#: The program hash of :func:`workers_held`'s plug jobs: no real
#: program hashes to it.
PLUG = "plug"


@contextmanager
def workers_held(service):
    """Hold every worker of ``service`` inside ``execute_batch`` until
    the block exits.

    Saturation stated, not raced: each worker takes a plug job of a
    key of its own and is parked in it, so no worker is free and
    whatever the block submits stays in the queue. Once the block
    exits the freed workers take it, oldest key first.
    """
    pool = service.pool
    release = threading.Event()
    parked = threading.Semaphore(0)
    execute = pool.execute_batch

    def hold(engine, batch):
        if batch.program_sha != PLUG:
            execute(engine, batch)
            return
        parked.release()
        release.wait(60)

    pool.execute_batch = hold
    try:
        for index in range(pool.size):
            # One plug at a time: a queue of capacity 1 holds it.
            service.jobs.submit(Job(PLUG, f"plug-{index}", {}, {}, {}))
            assert parked.acquire(timeout=30), "a worker never parked"
        yield
    finally:
        release.set()
        del pool.execute_batch
