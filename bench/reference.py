"""A fixed piece of pure-Python work that tells how fast the machine runs now.

On a shared machine, other tenants slow this one's CPU by up to ~2x, in
stretches from under a second to minutes, longer than a whole run. A run's
raw timings then say more about its neighbours than about regsync. So the
benchmark times this probe between the chunks of ops it measures and
divides each op's time by the probe's slowdown right then:

    normalised = measured * NOMINAL_NS / probe_ns

which gives the op's time at the probe's nominal speed. The probe shares
nothing with regsync (it uses only builtins and ``json``) and runs with the
collector off, so a change to the program does not change the probe. Its
mix is the interpreter work regsync spends its time on: building and
hashing small strings, tuples and dicts, sorting, and ``json.dumps`` with
sorted keys. Neighbours slow such memory-heavy code more than a plain
arithmetic loop; on the recorded baseline's machine, adding such a loop to
the probe made the scaled rep times of every workload spread more.
"""

from __future__ import annotations

import gc
import json
import time

# A round figure between the probe's fast (~0.8 ms) and slow (~1.8 ms) times
# on the 2-vCPU Xeon VM of the recorded baseline (Python 3.11.7). It only
# fixes the unit: scaled times are what the program would take while the
# probe takes this long.
NOMINAL_NS = 1_500_000

_DOC = {
    f"chain{c}": {f"asset{a}": {"state": "ACTIVE", "owner": f"o{a}", "n": a * c} for a in range(40)}
    for c in range(4)
}


def _work() -> None:
    table = {}
    rows = []
    for i in range(800):
        table[str(i)] = (i, str(i))
        rows.append(sorted((i % 13, i % 7, i % 5)))
    for _ in range(2):
        json.dumps(_DOC, sort_keys=True, separators=(",", ":"))


def _timed() -> int:
    t0 = time.perf_counter_ns()
    _work()
    return time.perf_counter_ns() - t0


def probe() -> int:
    """Nanoseconds the fixed work takes now, with the collector off: the
    faster of two tries, so one preemption does not read as a slow phase."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        return min(_timed(), _timed())
    finally:
        if was_enabled:
            gc.enable()


def scale(probe_ns: float) -> float:
    """The factor that turns a time measured while the probe took
    ``probe_ns`` into a time at the probe's nominal speed."""
    return NOMINAL_NS / probe_ns
