"""Rebuild `pool.json`: the family members the graph workloads draw from.

Run from the repository root (it takes about an hour on one core):

    python3 perfbench/pool.py

The candidates are seeds 0-699 of `wide`, 0-99 of `deep` and 0-179 (for
each u) of `idle`. A member is kept when its analyses run to completion
within a vertex cap and the workload's own condition holds:

* wide: `GenSpec(30, 0.3, 0.8, 0.8, periods=(50,100,200))` under `edf`
  (`me`) is schedulable with 5,000 to 70,000 vertices created;
* deep: the frame-built family of `families.deep_instance`; every member
  is kept while `edf` and `fp-edf` both find it schedulable;
* idle: `GenSpec(20, u, 0.6, 0.6, periods=(50,100,200))`, u in {0.5, 0.6},
  under `cw` and `cp` in both modes, with at most 30,000 vertices each, no
  stuck analysis in `me` mode, at least one re-eligible arc, and a
  schedulable `me` analysis (so simulated finishes can be checked against
  complete bounds).

Vertex counts are a property of the instance, not of the code, so the
pool stays valid as long as the analysis builds the same graphs.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import schedgraph.graph as sg_graph  # noqa: E402
from schedgraph import ME, SE, AnalysisStuck, PolicyKind, generate, generate_instance  # noqa: E402

import families  # noqa: E402


WIDE_SEEDS = 700
DEEP_SEEDS = 100
IDLE_SEEDS = 180


class _Capped(Exception):
    pass


def _capped_generate(instance, kind, mode, cap):
    """`generate` that gives up once `cap` vertices have been created."""
    expand = sg_graph.expand

    def counting_expand(graph, *args):
        if graph.vertices_created >= cap:
            raise _Capped()
        return expand(graph, *args)

    sg_graph.expand = counting_expand
    try:
        return generate(instance, kind, mode)
    finally:
        sg_graph.expand = expand


def wide_pool(seeds: int) -> list[dict]:
    out = []
    for seed in range(seeds):
        instance = generate_instance(families.wide_spec(seed))
        try:
            graph, result = _capped_generate(instance, PolicyKind.EDF, ME, 70_000)
        except _Capped:
            continue
        if result.schedulable and graph.vertices_created >= 5_000:
            out.append({"seed": seed, "vertices": graph.vertices_created})
    return out


def deep_pool(seeds: int) -> list[dict]:
    out = []
    for seed in range(seeds):
        instance = families.deep_instance(seed)
        total = 0
        for kind in (PolicyKind.EDF, PolicyKind.FP_EDF):
            graph, result = _capped_generate(instance, kind, ME, 50_000)
            if not result.schedulable:
                raise SystemExit(f"deep seed {seed} is not schedulable under {kind.value}")
            total += graph.vertices_created
        out.append({"seed": seed, "vertices": total})
    return out


def idle_pool(seeds: int) -> list[dict]:
    out = []
    for u in (0.5, 0.6):
        for seed in range(seeds):
            instance = generate_instance(families.idle_spec(u, seed))
            total = reeligible = 0
            complete = False
            try:
                for kind in (PolicyKind.CW, PolicyKind.CP):
                    for mode in (ME, SE):
                        try:
                            graph, result = _capped_generate(instance, kind, mode, 30_000)
                        except AnalysisStuck:
                            if mode == ME:
                                raise
                            continue
                        total += graph.vertices_created
                        if mode == ME:
                            reeligible += families.reeligible_arcs(graph)
                            complete = complete or result.schedulable
            except (_Capped, AnalysisStuck):
                continue
            if reeligible and complete and total >= 5_000:
                out.append({"u": u, "seed": seed, "vertices": total})
    return out


def main() -> None:
    pool = {
        "deep": deep_pool(DEEP_SEEDS),
        "idle": idle_pool(IDLE_SEEDS),
        "wide": wide_pool(WIDE_SEEDS),
    }
    lines = ",\n".join(
        f'"{name}": [\n' + ",\n".join(json.dumps(e) for e in entries) + "\n]"
        for name, entries in pool.items())
    families.POOL_FILE.write_text("{\n" + lines + "\n}\n", encoding="utf-8")
    for name, entries in pool.items():
        print(f"{name}: {len(entries)} members, "
              f"{sum(e['vertices'] for e in entries)} vertices", file=sys.stderr)


if __name__ == "__main__":
    main()
