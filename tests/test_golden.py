"""Golden graphs: every bundled instance under every policy, mode and miss setting.

Each run is reduced to a sha256 digest of its vertices (id, interval,
finished set, level, in- and out-arc lists), its arcs (id, source,
destination, job position, dispatch window), its levels, its bounds in dict
order, its witness and misses, and its created counts. The digests pin
vertex numbering, which the JSON witness and the DOT output show, so a
change that renumbers or reshapes any graph fails here.

A second table pins merge-heavy graphs: seeded crowded draws of both
sampler profiles, where merge groups of three or more vertices are common,
and small generated instances with wide execution-time variation, where an
idling policy dispatches one job over two windows whose successors merge,
so that their arcs fold into one. Each entry digests one draw's runs under
every policy, mode and miss setting; a stuck run is recorded as stuck.

When a change is meant to alter graphs, regenerate both tables with
`PYTHONPATH=src python tests/test_golden.py` and say why in the change.
"""

from __future__ import annotations

import functools
import hashlib
import random

import pytest

from schedgraph import (ME, SE, AnalysisStuck, GenSpec, PolicyKind, generate,
                        generate_instance, parse_instance)
from support import INSTANCE_DIR, MANY_TASKS, sample_crowded_instance

INSTANCES = ("anomaly.txt", "edf_jitter.txt", "precautious_idle.txt")
RUNS = [(name, kind, mode, exhaustive) for name in INSTANCES for kind in PolicyKind
        for mode in (ME, SE) for exhaustive in (False, True)]


def run_id(name: str, kind: PolicyKind, mode: str, exhaustive: bool) -> str:
    return f"{name.removesuffix('.txt')}-{kind.value}-{mode}-{'all' if exhaustive else 'first'}"


def record(graph, result) -> tuple:
    misses = [(m.vertex, m.job.key, m.lft, m.deadline) for m in [result.witness, *result.misses]
              if m is not None]
    return (
        [(v.id, v.interval, v.finished, v.level, v.in_arcs, v.out_arcs)
         for v in graph.vertices.values()],
        [(a.id, a.src, a.dst, a.job_pos, a.est, a.lst) for a in graph.arcs.values()],
        graph.levels,
        list(result.bounds.items()),
        misses,  # the witness first, if any, then every miss
        (graph.vertices_created, graph.arcs_created),
    )


def graph_digest(name: str, kind: PolicyKind, mode: str, exhaustive: bool) -> str:
    instance = parse_instance((INSTANCE_DIR / name).read_text(encoding="utf-8"))
    graph, result = generate(instance, kind, mode, exhaustive_misses=exhaustive)
    return hashlib.sha256(repr(record(graph, result)).encode()).hexdigest()


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



# (profile, seed): 10 draws of the crowded profile and 10 of the many-task
# one; the generated draws are GenSpec(4, 0.6, 0.5, 1.0, periods=(10, 20, 40))
# seeds, where p-fp-edf (all four) and cp (14, 246) fold duplicate arcs.
MERGE_DRAWS = ([("crowded", seed) for seed in range(10)] + [("many", seed) for seed in range(10)]
               + [("generated", seed) for seed in (14, 48, 69, 246)])


def merge_draw_id(profile: str, seed: int) -> str:
    return f"{profile}-s{seed}"


def merge_instance(profile: str, seed: int):
    if profile == "generated":
        return generate_instance(GenSpec(4, 0.6, 0.5, 1.0, periods=(10, 20, 40), seed=seed))
    return sample_crowded_instance(random.Random(seed), **(MANY_TASKS if profile == "many" else {}))


@functools.cache
def merge_draw(profile: str, seed: int) -> tuple[str, int, int]:
    """One draw's digest over its 20 runs, the arcs folded by its completed
    runs, and the most in-arcs of one vertex: a vertex with k in-arcs
    survived a merge group of at least k vertices."""
    instance = merge_instance(profile, seed)
    digests, folded, widest = [], 0, 0
    for kind in PolicyKind:
        for mode in (ME, SE):
            for exhaustive in (False, True):
                try:
                    graph, result = generate(instance, kind, mode, exhaustive_misses=exhaustive)
                except AnalysisStuck as exc:
                    digests.append(("stuck", exc.vertex, str(exc)))
                    continue
                digests.append(hashlib.sha256(repr(record(graph, result)).encode()).hexdigest())
                if result.bounds_complete:
                    folded += graph.arcs_created - len(graph.arcs)
                widest = max(widest, *(len(v.in_arcs) for v in graph.vertices.values()))
    return hashlib.sha256(repr(digests).encode()).hexdigest(), folded, widest


GOLDEN_MERGE = {
    "crowded-s0":
        "a537efa25ae94117b0257f839211a195e746f700c5b5191ee7b0447598f4149b",
    "crowded-s1":
        "bc13615d6a70e1c60960fb6b5973c52f242a437982bd244be62141450863be9f",
    "crowded-s2":
        "ffca070746c5fdafc19c65d91dcf18f749e8b0439ad44d69bc799f1a8343717d",
    "crowded-s3":
        "ffff1c83706d3d5d4897b2383d478486bc9926a542a73d2f61a5cdbbd9ff1d9a",
    "crowded-s4":
        "0e80c9ac86b42f469522d9ebcc639f014578f944fd309cad6d9f631e3d9dc6eb",
    "crowded-s5":
        "e7874de5652a0d590995112ca8e9d57ba2503812f4f5474a93947bca9087a2e1",
    "crowded-s6":
        "656ef9ff60fd6692fc56933b985340eb549c61245afdea2eb2b75cd8d5d3be33",
    "crowded-s7":
        "7dd873403db8d6f049c6377f380d6f3d15b1ed98462b533edaca834ea9094bf7",
    "crowded-s8":
        "dc8cefc6edbbe45f1700a31bd027f5f88f56137f6bad28143473c6b82c3e9b75",
    "crowded-s9":
        "1a929f7ed5e713ae5ee06f6db65a0b7a809a21ee46b84f34e0d690efd98d73b2",
    "many-s0":
        "39a6565cd7bfd5abdac0cd3d6a073d23c429080cbd34a4bf9846fe00a00734c4",
    "many-s1":
        "8a92c84e3258d416992e7d41b229e84928b969f9bc7d32a8a68d1177a1cc7e3d",
    "many-s2":
        "431ba2d5d894a61c6b1f5d504247c7e081b5c8d2900ac2382a7f2c6a88bb652b",
    "many-s3":
        "298cd2c0ee519e195f42fe70c533cf6d8faace94ad0e689b205364c10f93fd30",
    "many-s4":
        "00072e290e08b04974e89eeed215f32a034b278ecf7edcbb545fd5a85e68b16f",
    "many-s5":
        "a491022aad2d049eaca8017705ba261cdd2783968ec1cb3b1d52292af3c475e0",
    "many-s6":
        "6c499e869d16d86dee0f2becb266428e3dab41d9bfd12446bbb917bca6ffe7cd",
    "many-s7":
        "82a5c596e8e72525f0803426b8835848d29518f757454b772e1e733ad2bd1f9f",
    "many-s8":
        "80cc3612a29f070d3180a3e9c55b63d8cf6cdf574e65b841c4f598aa98105500",
    "many-s9":
        "3973fd3711f91515b6cc040025fb4a2f3c3dbe4bf4601510a9fd1bafd2a4da81",
    "generated-s14":
        "839892c77f9936b48409398ef53eb77a394a58678955619b82232ebdff7e72f0",
    "generated-s48":
        "515c56549400631be1780f981ee5b89f621fdd5cd854e110b9a0c5910025b369",
    "generated-s69":
        "40d628b6182597384dbcd63dbced82c429a2c9e48d71183d9e3cdfb0a3ca165a",
    "generated-s246":
        "c948862a2ee464c0add849bab5be62ed218ad5c3a90a4ef0491abf6ac77205c3",
}


@pytest.mark.parametrize("profile, seed", MERGE_DRAWS,
                         ids=[merge_draw_id(*draw) for draw in MERGE_DRAWS])
def test_merge_heavy_graph_matches_golden_digest(profile, seed):
    assert merge_draw(profile, seed)[0] == GOLDEN_MERGE[merge_draw_id(profile, seed)]


def test_merge_heavy_set_folds_arcs_and_merges_groups_of_three():
    draws = [merge_draw(*draw) for draw in MERGE_DRAWS]
    assert sum(folded for _, folded, _ in draws) > 0
    assert max(widest for _, _, widest in draws) >= 3


if __name__ == "__main__":
    for run in RUNS:
        print(f'    "{run_id(*run)}":\n        "{graph_digest(*run)}",')
    print()
    for draw in MERGE_DRAWS:
        print(f'    "{merge_draw_id(*draw)}":\n        "{merge_draw(*draw)[0]}",')
