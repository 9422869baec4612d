"""Golden oracle outputs: every bundled instance under every policy.

Each `enumerate_scenarios` report, with `exhaustive` off and on, is reduced
to a sha256 digest of its JSON dict, and each `simulate` trace of the
worst-case and best-case scenarios to a digest of its dispatches, idle gaps
and misses. A report without `exhaustive` stops at the first dispatch that
misses, so its `first_failure`, its `scenarios_checked` and its partial
finish extremes follow the search order; the README promises they are
stable, and these digests pin them. When a change is meant to alter the
oracle's outputs, regenerate the table with
`PYTHONPATH=src python tests/test_golden_oracle.py` and say why in the change.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from schedgraph import (ExecutionScenario, PolicyKind, enumerate_scenarios, parse_instance,
                        simulate)
from support import INSTANCE_DIR

INSTANCES = ("anomaly.txt", "edf_jitter.txt", "precautious_idle.txt")
OUTPUTS = ("first", "all", "worst", "best")
RUNS = [(name, kind, output) for name in INSTANCES for kind in PolicyKind for output in OUTPUTS]


def run_id(name: str, kind: PolicyKind, output: str) -> str:
    return f"{name.removesuffix('.txt')}-{kind.value}-{output}"


def oracle_digest(name: str, kind: PolicyKind, output: str) -> str:
    instance = parse_instance((INSTANCE_DIR / name).read_text(encoding="utf-8"))
    if output in ("first", "all"):
        report = enumerate_scenarios(instance, kind, exhaustive=output == "all")
        record = json.dumps(report.to_json_dict(), sort_keys=True)
    else:
        if output == "worst":
            scenario = ExecutionScenario.worst_case(instance)
        else:
            scenario = ExecutionScenario({j.key: j.r_min for j in instance.jobs},
                                         {j.key: j.c_min for j in instance.jobs})
        trace = simulate(instance, kind, scenario)
        record = repr((
            [(job.key, start, finish) for job, start, finish in trace.dispatches],
            trace.idle,
            [(job.key, finish, deadline) for job, finish, deadline in trace.misses],
        ))
    return hashlib.sha256(record.encode()).hexdigest()


GOLDEN = {
    "anomaly-edf-first":
        "c871f91997a5d9a1fa36dd86cf926c538ef5bdeef459865b23ce8346920fda07",
    "anomaly-edf-all":
        "33ebffedcd8d4e7b3c399eea42de3f4d9cbb70201091d0c67945ef1938ca8b1e",
    "anomaly-edf-worst":
        "e71c1d92f5fb9b6f2a797a614f1076f6a01fc13a655b41975898169fa392b181",
    "anomaly-edf-best":
        "74998e15ec84c3defd3ce8093d749c9d2d0bea43160aaeaec0b0a309ff98c936",
    "anomaly-fp-edf-first":
        "c871f91997a5d9a1fa36dd86cf926c538ef5bdeef459865b23ce8346920fda07",
    "anomaly-fp-edf-all":
        "33ebffedcd8d4e7b3c399eea42de3f4d9cbb70201091d0c67945ef1938ca8b1e",
    "anomaly-fp-edf-worst":
        "e71c1d92f5fb9b6f2a797a614f1076f6a01fc13a655b41975898169fa392b181",
    "anomaly-fp-edf-best":
        "74998e15ec84c3defd3ce8093d749c9d2d0bea43160aaeaec0b0a309ff98c936",
    "anomaly-p-fp-edf-first":
        "c871f91997a5d9a1fa36dd86cf926c538ef5bdeef459865b23ce8346920fda07",
    "anomaly-p-fp-edf-all":
        "33ebffedcd8d4e7b3c399eea42de3f4d9cbb70201091d0c67945ef1938ca8b1e",
    "anomaly-p-fp-edf-worst":
        "e71c1d92f5fb9b6f2a797a614f1076f6a01fc13a655b41975898169fa392b181",
    "anomaly-p-fp-edf-best":
        "74998e15ec84c3defd3ce8093d749c9d2d0bea43160aaeaec0b0a309ff98c936",
    "anomaly-cp-first":
        "4824a414cd8cff098068cab613ebe8dc5e4393e9ae1431e3676a72c2f0f60337",
    "anomaly-cp-all":
        "4824a414cd8cff098068cab613ebe8dc5e4393e9ae1431e3676a72c2f0f60337",
    "anomaly-cp-worst":
        "e71c1d92f5fb9b6f2a797a614f1076f6a01fc13a655b41975898169fa392b181",
    "anomaly-cp-best":
        "ba9b5bc756b2855b83be3c98ae838661f655a5bee2c74969331b59b8f7592204",
    "anomaly-cw-first":
        "660f228dc48b75ef6e4db36856e045e89986ed04dc282312a402f1f06bb92372",
    "anomaly-cw-all":
        "05c2e396125a67c3b2dcc6db3fb8bc4887519811a782a8a29784ff8abbd1651e",
    "anomaly-cw-worst":
        "c28dc58d68fa489b5f3b52d4afcb95bf452943a59811b36a14e2110592172d56",
    "anomaly-cw-best":
        "f56388b3a455118cd149a4dc7e9bf700fb9485b9ce72856fe3a33410a2562d31",
    "edf_jitter-edf-first":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-edf-all":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-edf-worst":
        "c048518ccd1da2d80f069b1bf83d93889b7f7ab7197140871069f0347c0e84b2",
    "edf_jitter-edf-best":
        "2e55cc759a753f4666112b9c83c9770ec231a63c36d9e9734d813de5dc6b145c",
    "edf_jitter-fp-edf-first":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-fp-edf-all":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-fp-edf-worst":
        "c048518ccd1da2d80f069b1bf83d93889b7f7ab7197140871069f0347c0e84b2",
    "edf_jitter-fp-edf-best":
        "2e55cc759a753f4666112b9c83c9770ec231a63c36d9e9734d813de5dc6b145c",
    "edf_jitter-p-fp-edf-first":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-p-fp-edf-all":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-p-fp-edf-worst":
        "c048518ccd1da2d80f069b1bf83d93889b7f7ab7197140871069f0347c0e84b2",
    "edf_jitter-p-fp-edf-best":
        "2e55cc759a753f4666112b9c83c9770ec231a63c36d9e9734d813de5dc6b145c",
    "edf_jitter-cp-first":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-cp-all":
        "096cf231a156f2e2f05879210f90f48919fe296300903b9ef6abb1f7585ca689",
    "edf_jitter-cp-worst":
        "c048518ccd1da2d80f069b1bf83d93889b7f7ab7197140871069f0347c0e84b2",
    "edf_jitter-cp-best":
        "2e55cc759a753f4666112b9c83c9770ec231a63c36d9e9734d813de5dc6b145c",
    "edf_jitter-cw-first":
        "be7d2ccfbb91d687b904b1274dc030137d8c6be440adea62c8320e18fabe1566",
    "edf_jitter-cw-all":
        "1b1280dfb7ebec44bbc488187c676a55678983a2c4950cc01c116398c6a31a44",
    "edf_jitter-cw-worst":
        "42c36ecc0957322538c40886088739803662ece1b701981986ceff06dbd257e6",
    "edf_jitter-cw-best":
        "39dd25466b02a1fa61aa88ef88937e2dedfb1a1a863a7f26b80c022e4f9253ef",
    "precautious_idle-edf-first":
        "257a16a8d46647f84bf258a4bf1d3b87712371439308b39795db06bb42e5fa54",
    "precautious_idle-edf-all":
        "db0dd0a451e74a7b6bfd756cba8a0ce8486007e2a7254a4e0a6c1bdc90985696",
    "precautious_idle-edf-worst":
        "dea23747c74c8083a2eb0487ff98b6f77d1919c4bf0c9545e83fcf92571e60d9",
    "precautious_idle-edf-best":
        "828fc81b1d7e92b6492406830c142cf9f726a121f76c4fefa0695c4671e73edb",
    "precautious_idle-fp-edf-first":
        "89e77df1216cc229dc50c10066cdb6d11c92ab05647591d985addc432be45719",
    "precautious_idle-fp-edf-all":
        "f115a7ff54a72e9b8e31f997dad3069d1e32c92e0fec1464d22f425259133a4f",
    "precautious_idle-fp-edf-worst":
        "a73a74ddbe3522798a506db9852373d6828ba0b4cc7523de37cac2c6ab7974ed",
    "precautious_idle-fp-edf-best":
        "828fc81b1d7e92b6492406830c142cf9f726a121f76c4fefa0695c4671e73edb",
    "precautious_idle-p-fp-edf-first":
        "539d3c217c8898c97458586c0b3a23ffbc545f92a6c65d122fe070c6457a2885",
    "precautious_idle-p-fp-edf-all":
        "539d3c217c8898c97458586c0b3a23ffbc545f92a6c65d122fe070c6457a2885",
    "precautious_idle-p-fp-edf-worst":
        "dea23747c74c8083a2eb0487ff98b6f77d1919c4bf0c9545e83fcf92571e60d9",
    "precautious_idle-p-fp-edf-best":
        "828fc81b1d7e92b6492406830c142cf9f726a121f76c4fefa0695c4671e73edb",
    "precautious_idle-cp-first":
        "539d3c217c8898c97458586c0b3a23ffbc545f92a6c65d122fe070c6457a2885",
    "precautious_idle-cp-all":
        "539d3c217c8898c97458586c0b3a23ffbc545f92a6c65d122fe070c6457a2885",
    "precautious_idle-cp-worst":
        "dea23747c74c8083a2eb0487ff98b6f77d1919c4bf0c9545e83fcf92571e60d9",
    "precautious_idle-cp-best":
        "828fc81b1d7e92b6492406830c142cf9f726a121f76c4fefa0695c4671e73edb",
    "precautious_idle-cw-first":
        "4635cd56d8c2813e31b54eaf8539c019336154d0370b0ad0f69c5e23f4dfc969",
    "precautious_idle-cw-all":
        "a0e099df4471d20cb75487a49cddfc27834966bb08b8dadf3bd152d92fedcead",
    "precautious_idle-cw-worst":
        "ed7d27d131c87f20c47e2764c2b70afd64e21435e5e2d53e8ff4ef287961c956",
    "precautious_idle-cw-best":
        "828fc81b1d7e92b6492406830c142cf9f726a121f76c4fefa0695c4671e73edb",
}


@pytest.mark.parametrize("name, kind, output", RUNS, ids=[run_id(*run) for run in RUNS])
def test_oracle_matches_golden_digest(name, kind, output):
    assert oracle_digest(name, kind, output) == GOLDEN[run_id(name, kind, output)]


if __name__ == "__main__":
    for run in RUNS:
        print(f'    "{run_id(*run)}":\n        "{oracle_digest(*run)}",')
