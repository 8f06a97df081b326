"""Seeded input generators for the ``sim`` and ``replay`` workloads.

Each generator returns a scenario document plus a summary of what it drew.
``write_scenario`` serializes the document canonically, so equal seeds give
byte-identical files. The program under test only ever sees these files,
loaded through ``regsync.scenario.parse_scenario``.

The generators carry their own copy of the regulatory transition matrix.
The replay workload compares every sync result against the ``expect`` tag
written here, so the expectations must not be read from the program under
test.
"""

from __future__ import annotations

import json
import random
from pathlib import Path

CHAINS = ("c1", "c2", "c3", "c4")
ACTIONS = ("FREEZE", "SEIZE", "CONFISCATE", "RESTRICT", "UNFREEZE", "UNRESTRICT", "RELEASE")
LIVE_STATES = ("ACTIVE", "FROZEN", "SEIZED", "RESTRICTED")
TERMINAL = "CONFISCATED"
AUTHORITIES = ("Regional", "National", "International")

# The paper's 12 defined cells; every other (state, action) is undefined.
TRANSITIONS = {
    ("ACTIVE", "FREEZE"): "FROZEN",
    ("ACTIVE", "SEIZE"): "SEIZED",
    ("ACTIVE", "CONFISCATE"): "CONFISCATED",
    ("ACTIVE", "RESTRICT"): "RESTRICTED",
    ("FROZEN", "SEIZE"): "SEIZED",
    ("FROZEN", "CONFISCATE"): "CONFISCATED",
    ("FROZEN", "UNFREEZE"): "ACTIVE",
    ("SEIZED", "CONFISCATE"): "CONFISCATED",
    ("SEIZED", "RELEASE"): "ACTIVE",
    ("RESTRICTED", "FREEZE"): "FROZEN",
    ("RESTRICTED", "CONFISCATE"): "CONFISCATED",
    ("RESTRICTED", "UNRESTRICT"): "ACTIVE",
}

# sim: n=4 with node 0 Byzantine (f=1), adversarial schedule.
SIM_NODES = 4
SIM_F = 1
SIM_FAIRNESS = 3
SIM_TIMEOUT = 2
SIM_REQUESTS = 1000
SIM_ASSETS = 200

# replay: ~80% valid steps; CONFISCATE is terminal, so it is drawn rarely
# (per valid step) to keep enough live assets for the valid share to hold.
REPLAY_ASSETS = 32
REPLAY_STEPS = 5000
REPLAY_VALID_SHARE = 0.8
REPLAY_CONFISCATE_P = 0.002


def _placement(rng: random.Random, n_assets: int) -> dict[str, list[str]]:
    """Each asset on a random non-empty subset of the chains.

    Subset sizes cycle through 1..4 so the number of (chain, asset) cells,
    and with it the cost of every snapshot, is the same for every seed.
    """
    return {
        f"a{i + 1}": sorted(rng.sample(CHAINS, i % len(CHAINS) + 1))
        for i in range(n_assets)
    }


def _state_doc(holders: dict[str, list[str]], states: dict[str, str]) -> dict:
    chains: dict[str, dict] = {c: {} for c in CHAINS}
    for aid, held_by in holders.items():
        for c in held_by:
            chains[c][aid] = {"state": states[aid], "owner": "owner", "locked": False}
    return {"chains": chains, "locks": {}}


def sim_scenario(seed: int) -> tuple[dict, dict]:
    """1,000 requests over 200 assets on 4 chains for the Byzantine simulator.

    Each node's timestamps increase strictly, so no two requests share a
    priority key (the premise of the paper's injectivity argument).
    """
    rng = random.Random(f"bench-sim:{seed}")
    holders = _placement(rng, SIM_ASSETS)
    states = {aid: rng.choice(LIVE_STATES) for aid in holders}
    assets = list(holders)
    clock = [0] * SIM_NODES
    requests = []
    for _ in range(SIM_REQUESTS):
        node = rng.randrange(SIM_NODES)
        clock[node] += rng.randint(1, 3)
        requests.append(
            {
                "node": node,
                "authority": rng.choice(AUTHORITIES),
                "timestamp": clock[node],
                "action": rng.choice(ACTIONS),
                "asset": rng.choice(assets),
            }
        )
    doc = {
        "state": _state_doc(holders, states),
        "requests": requests,
        "sim": {
            "nodes": [{"id": i, "honest": i >= SIM_F} for i in range(SIM_NODES)],
            "f_max": SIM_F,
            "lock_timeout": SIM_TIMEOUT,
            "fairness_bound": SIM_FAIRNESS,
            "seed": seed,
        },
    }
    summary = {
        "requests": SIM_REQUESTS,
        "assets": SIM_ASSETS,
        "chains": len(CHAINS),
        "distinct_assets_requested": len({r["asset"] for r in requests}),
    }
    return doc, summary


def replay_scenario(seed: int) -> tuple[dict, dict]:
    """A sync stream with ~80% valid steps; every step carries its expect tag.

    Invalid steps are split evenly between an undefined transition
    (InvalidTransition) and a source chain that does not hold the asset
    (AssetNotFound).
    """
    rng = random.Random(f"bench-replay:{seed}")
    holders = _placement(rng, REPLAY_ASSETS)
    initial = {aid: rng.choice(LIVE_STATES) for aid in holders}
    states = dict(initial)
    assets = list(holders)
    partial = [aid for aid in assets if len(holders[aid]) < len(CHAINS)]
    steps = []
    for _ in range(REPLAY_STEPS):
        draw = rng.random()
        live = [aid for aid in assets if states[aid] != TERMINAL]
        if draw < REPLAY_VALID_SHARE and live:
            aid = rng.choice(live)
            options = [a for a in ACTIONS if (states[aid], a) in TRANSITIONS]
            if rng.random() < REPLAY_CONFISCATE_P:
                action = "CONFISCATE"
            else:
                action = rng.choice([a for a in options if a != "CONFISCATE"])
            source = rng.choice(holders[aid])
            states[aid] = TRANSITIONS[(states[aid], action)]
            expect = "ok"
        elif draw < (1 + REPLAY_VALID_SHARE) / 2 or not partial:
            aid = rng.choice(assets)
            action = rng.choice([a for a in ACTIONS if (states[aid], a) not in TRANSITIONS])
            source = rng.choice(holders[aid])
            expect = "InvalidTransition"
        else:
            aid = rng.choice(partial)
            action = rng.choice(ACTIONS)
            source = rng.choice([c for c in CHAINS if c not in holders[aid]])
            expect = "AssetNotFound"
        steps.append({"source": source, "action": action, "asset": aid, "expect": expect})
    doc = {"state": _state_doc(holders, initial), "sync": steps}
    tags = [s["expect"] for s in steps]
    summary = {
        "steps": len(steps),
        "assets": REPLAY_ASSETS,
        "chains": len(CHAINS),
        "valid_share": tags.count("ok") / len(steps),
        "invalid_transition": tags.count("InvalidTransition"),
        "asset_not_found": tags.count("AssetNotFound"),
        "confiscated_assets": sum(s == TERMINAL for s in states.values()),
    }
    return doc, summary


def write_scenario(doc: dict, path: Path) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n")
