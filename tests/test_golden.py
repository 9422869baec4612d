"""Golden graphs: every bundled instance under every policy, mode and miss setting.

Each run is reduced to a sha256 digest of its vertices (id, interval,
finished set, level, in- and out-arc lists), its arcs (id, source,
destination, job position, dispatch window), its levels, its bounds in dict
order, its witness and misses, and its created counts. The digests pin
vertex numbering, which the JSON witness and the DOT output show, so a
change that renumbers or reshapes any graph fails here. When a change is
meant to alter graphs, regenerate the table with
`PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

from __future__ import annotations

import hashlib

import pytest

from schedgraph import ME, SE, PolicyKind, generate, parse_instance
from support import INSTANCE_DIR

INSTANCES = ("anomaly.txt", "edf_jitter.txt", "precautious_idle.txt")
RUNS = [(name, kind, mode, exhaustive) for name in INSTANCES for kind in PolicyKind
        for mode in (ME, SE) for exhaustive in (False, True)]


def run_id(name: str, kind: PolicyKind, mode: str, exhaustive: bool) -> str:
    return f"{name.removesuffix('.txt')}-{kind.value}-{mode}-{'all' if exhaustive else 'first'}"


def graph_digest(name: str, kind: PolicyKind, mode: str, exhaustive: bool) -> str:
    instance = parse_instance((INSTANCE_DIR / name).read_text(encoding="utf-8"))
    graph, result = generate(instance, kind, mode, exhaustive_misses=exhaustive)
    misses = [(m.vertex, m.job.key, m.lft, m.deadline) for m in [result.witness, *result.misses]
              if m is not None]
    record = (
        [(v.id, v.interval, v.finished, v.level, v.in_arcs, v.out_arcs)
         for v in graph.vertices.values()],
        [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in graph.arcs.values()],
        graph.levels,
        list(result.bounds.items()),
        misses,  # the witness first, if any, then every miss
        (graph.vertices_created, graph.arcs_created),
    )
    return hashlib.sha256(repr(record).encode()).hexdigest()


GOLDEN = {
    "anomaly-edf-me-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-edf-me-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-edf-se-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-edf-se-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-fp-edf-me-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-fp-edf-me-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-fp-edf-se-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-fp-edf-se-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-p-fp-edf-me-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-p-fp-edf-me-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-p-fp-edf-se-first":
        "bcc1de38884fff9505e08622082e5ba8a41ca5fe3f8057199937b7b8b622fc69",
    "anomaly-p-fp-edf-se-all":
        "0891bb46497d01d145c9f67c90a173453961e2b41dda5b9794fc0c3f27407dd0",
    "anomaly-cp-me-first":
        "006d9a17433f912df0d0b4903dd6ab805a1f8c7ee0eba1439dff653229bbbdb7",
    "anomaly-cp-me-all":
        "006d9a17433f912df0d0b4903dd6ab805a1f8c7ee0eba1439dff653229bbbdb7",
    "anomaly-cp-se-first":
        "006d9a17433f912df0d0b4903dd6ab805a1f8c7ee0eba1439dff653229bbbdb7",
    "anomaly-cp-se-all":
        "006d9a17433f912df0d0b4903dd6ab805a1f8c7ee0eba1439dff653229bbbdb7",
    "anomaly-cw-me-first":
        "9fefb8fa56fcaba32d2e98e1ecd8bca565d846426de8f860f48a83c225b761b3",
    "anomaly-cw-me-all":
        "c3e4058f5ada6e7b712182127f95c74c6410ae1bd179dc7cc671fbbde4158447",
    "anomaly-cw-se-first":
        "9fefb8fa56fcaba32d2e98e1ecd8bca565d846426de8f860f48a83c225b761b3",
    "anomaly-cw-se-all":
        "c3e4058f5ada6e7b712182127f95c74c6410ae1bd179dc7cc671fbbde4158447",
    "edf_jitter-edf-me-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-edf-me-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-edf-se-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-edf-se-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-fp-edf-me-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-fp-edf-me-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-fp-edf-se-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-fp-edf-se-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-p-fp-edf-me-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-p-fp-edf-me-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-p-fp-edf-se-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-p-fp-edf-se-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-cp-me-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-cp-me-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-cp-se-first":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-cp-se-all":
        "d399d274dfd8dc5b7069cce393007d56c3d73fc6ddd4da6fa1e3c9dd47dfafd1",
    "edf_jitter-cw-me-first":
        "8f2cb250cb6e1f7c51feb830cc5911a97fdf37de13e5cc31241a7a056b419bb3",
    "edf_jitter-cw-me-all":
        "8f2cb250cb6e1f7c51feb830cc5911a97fdf37de13e5cc31241a7a056b419bb3",
    "edf_jitter-cw-se-first":
        "8f2cb250cb6e1f7c51feb830cc5911a97fdf37de13e5cc31241a7a056b419bb3",
    "edf_jitter-cw-se-all":
        "8f2cb250cb6e1f7c51feb830cc5911a97fdf37de13e5cc31241a7a056b419bb3",
    "precautious_idle-edf-me-first":
        "bd94e099c217f78d5402f339139e8da993cfb5402b2ec34be6ec3306ae589383",
    "precautious_idle-edf-me-all":
        "bd94e099c217f78d5402f339139e8da993cfb5402b2ec34be6ec3306ae589383",
    "precautious_idle-edf-se-first":
        "bd94e099c217f78d5402f339139e8da993cfb5402b2ec34be6ec3306ae589383",
    "precautious_idle-edf-se-all":
        "bd94e099c217f78d5402f339139e8da993cfb5402b2ec34be6ec3306ae589383",
    "precautious_idle-fp-edf-me-first":
        "870e3fea0e5ffbff58ee0d85cdc5d16756c469b1d5df774feb24495cb7a76031",
    "precautious_idle-fp-edf-me-all":
        "c6a8f88ba528a351f7f1cd8277b859d8faa3d2979c69076e6eb1868af3a17aba",
    "precautious_idle-fp-edf-se-first":
        "870e3fea0e5ffbff58ee0d85cdc5d16756c469b1d5df774feb24495cb7a76031",
    "precautious_idle-fp-edf-se-all":
        "c6a8f88ba528a351f7f1cd8277b859d8faa3d2979c69076e6eb1868af3a17aba",
    "precautious_idle-p-fp-edf-me-first":
        "4b9c952346b09309ffa2a575c6510bbbdb6308aaf76f3b6d78b98ad2ce75e32d",
    "precautious_idle-p-fp-edf-me-all":
        "4b9c952346b09309ffa2a575c6510bbbdb6308aaf76f3b6d78b98ad2ce75e32d",
    "precautious_idle-p-fp-edf-se-first":
        "0999261983946dfb2deec56939c5f99e8cbb902fb3bb6ebfe664328a4d8d74bb",
    "precautious_idle-p-fp-edf-se-all":
        "b0d20cafb4e0fcca06d24b1b45503c3484caf6f2061c761b75b8d417cde1aa13",
    "precautious_idle-cp-me-first":
        "4b9c952346b09309ffa2a575c6510bbbdb6308aaf76f3b6d78b98ad2ce75e32d",
    "precautious_idle-cp-me-all":
        "4b9c952346b09309ffa2a575c6510bbbdb6308aaf76f3b6d78b98ad2ce75e32d",
    "precautious_idle-cp-se-first":
        "8c1be80309bff24b88de51d92165e3b8ba463ddebf395c13d04c520dd83d28a6",
    "precautious_idle-cp-se-all":
        "20ae6ea40eabb00e06acb9c17d8010aa4afa632892460024cd8cd0491fea834a",
    "precautious_idle-cw-me-first":
        "aea580617ba54c7c3754c37152dbb744f32bc42d9202e96fb441099e4d6ff0cd",
    "precautious_idle-cw-me-all":
        "716d33ec5983c215f436dc40cc000ceacb5b51c4618e7369a9399259c7cb0e62",
    "precautious_idle-cw-se-first":
        "643f76e23d7cb28927c72da36a65fb17a1ae311558b5ef9cc82535efe018edee",
    "precautious_idle-cw-se-all":
        "b40d9a90450276f4dd389995b7896412c3c675aea74b69ec5a92cbf2ad0509c6",
}


@pytest.mark.parametrize("name, kind, mode, exhaustive", RUNS,
                         ids=[run_id(*run) for run in RUNS])
def test_graph_matches_golden_digest(name, kind, mode, exhaustive):
    assert graph_digest(name, kind, mode, exhaustive) == \
        GOLDEN[run_id(name, kind, mode, exhaustive)]


if __name__ == "__main__":
    for run in RUNS:
        print(f'    "{run_id(*run)}":\n        "{graph_digest(*run)}",')
