"""The scenario documents whose ``regsync`` outputs CI pins, each defined once.

CI writes them all with ``python tests/pinned_inputs.py DIR`` (one
``DIR/NAME.json`` per entry of ``INPUTS``) and the tests take the same
documents from ``write``, so a pinned input is edited in one place. The
bench's generator, ``bench/gen.py``, is loaded here once; documents are
written as its ``write_scenario`` writes them.

- ``replay-1``, ``replay-2``: the bench replay scenario for seeds 1 and 2.
  CI pins the ``regsync sync`` stdout of both;
  tests/test_scenario_cli.py checks every snapshot of ``replay-1`` against
  the ``json.dumps`` form, and tests/test_coverage.py pins its classes.
- ``sim-1``, ``sim-2``: the bench sim scenario for seeds 1 and 2. CI pins
  the ``regsync simulate`` stdout of both, fair and ``--adversarial``;
  tests/test_coverage.py pins the classes of ``sim-1``'s two drains.
- ``replay-1-locked``: ``replay-1`` with the locks of a1 and a7 held and
  no ``expect`` tags, so that ``regsync sync`` exits 0 while 100 of its
  steps fail with Locked. CI pins its stdout, which shows the ``locks``
  object and the ``"locked": true`` cells; tests/test_coverage.py pins its
  24 held classes.
- ``sim-1-wide``: ``sim-1`` with ``lock_timeout`` 6 and ``fairness_bound``
  4, so that up to 3 (fair) and 5 (adversarial) Byzantine locks are held
  at once and each draw skips several held assets. CI pins both drains.
- ``sim-1-split``: ``sim-1`` with the first asset held on two or more
  chains put in another state on its last holder. Every check assumes an
  asset's holders agree, so CI checks that ``regsync simulate`` and
  ``regsync sync`` both refuse it with exit 2 and no stdout.
"""

import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

_spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
gen = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gen)


def _locked_replay():
    doc = gen.replay_scenario(1)[0]
    doc["state"]["locks"] = {"a1": True, "a7": True}
    for table in doc["state"]["chains"].values():
        for aid in doc["state"]["locks"]:
            if aid in table:
                table[aid]["locked"] = True
    for step in doc["sync"]:
        del step["expect"]
    return doc


def _wide_sim():
    doc = gen.sim_scenario(1)[0]
    doc["sim"].update(lock_timeout=6, fairness_bound=4)
    return doc


def _split_sim():
    doc = gen.sim_scenario(1)[0]
    chains = doc["state"]["chains"]
    aid = min(a for t in chains.values() for a in t if sum(a in u for u in chains.values()) > 1)
    cell = chains[max(c for c, t in chains.items() if aid in t)][aid]
    cell["state"] = "FROZEN" if cell["state"] == "ACTIVE" else "ACTIVE"
    return doc


INPUTS = {
    "replay-1": lambda: gen.replay_scenario(1)[0],
    "replay-2": lambda: gen.replay_scenario(2)[0],
    "sim-1": lambda: gen.sim_scenario(1)[0],
    "sim-2": lambda: gen.sim_scenario(2)[0],
    "replay-1-locked": _locked_replay,
    "sim-1-wide": _wide_sim,
    "sim-1-split": _split_sim,
}


def write(name: str, directory: Path) -> Path:
    """Write the input ``name`` to ``directory/name.json`` and return that path."""
    path = Path(directory) / f"{name}.json"
    gen.write_scenario(INPUTS[name](), path)
    return path


if __name__ == "__main__":
    if len(sys.argv) != 2:
        sys.exit(f"usage: python {sys.argv[0]} DIR")
    for name in INPUTS:
        write(name, Path(sys.argv[1]))
