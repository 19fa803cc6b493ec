"""Run artifacts stay byte-identical across model and testbench rewrites.

Each digest is one SHA-256 over the VCD, the rendered verification
report and the rendered coverage of a fixed set of seed-1 runs.  The
matrix digests cover every configuration of ``configuration_matrix()``
(all three architectures and all six arbitration policies, including
the stateful ``tick()`` of ``latency_based`` and ``bandwidth_limited``)
on both views; the bug digests cover each injectable BCA bug on the
benchmark configurations, where the reports carry protocol, scoreboard
and arbitration violations.

Regenerate after an intended behaviour change with
``PYTHONPATH=src python tests/catg/test_run_digests.py``.
"""

import hashlib
import os
import tempfile

import pytest

from repro.bca.bugs import (
    ALL_BUGS,
    BUG_CHUNK_IGNORED,
    BUG_LRU_STUCK,
    BUG_PROG_STALE,
    BUG_SRC_TRUNCATION,
    BUG_SUBWORD_LANES,
)
from repro.catg.env import VerificationEnv
from repro.regression.configs import configuration_matrix, load_config_dir
from repro.regression.testcases import build_test

BENCH_CONFIGS = os.path.join(os.path.dirname(__file__), "..", "..",
                             "benchmarks", "e2e", "configs")

MATRIX_TESTS = ("t02_random_uniform", "t04_latency_arbitration",
                "t05_bandwidth_limits")

#: The test that exercises each bug; it runs on every benchmark config.
BUG_TESTS = {
    BUG_LRU_STUCK: "t06_lru_fairness",
    BUG_SUBWORD_LANES: "t09_mixed_sizes",
    BUG_SRC_TRUNCATION: "t12_decode_errors",
    BUG_CHUNK_IGNORED: "t08_locked_chunks",
    BUG_PROG_STALE: "t07_priority_reprogramming",
}

MATRIX_DIGESTS = {
    "cfg00_t2_3x2_w32_full_fixed_priority":
        "fd171dcdfc6f736ccb356a81c4a29ecd2956b17f3146f41922dde37772e67730",
    "cfg01_t2_3x2_w32_full_programmable_priority":
        "c8d980f0227fa72b5a296e8fff323ee4d2bb74d40027122f0eda78155d2ed03c",
    "cfg02_t2_3x2_w32_full_lru":
        "60f506edcc17de5a39c1d4691fd01259df5bcad238a260cfa85067519e76bb77",
    "cfg03_t2_3x2_w32_full_round_robin":
        "be0ac661edaaf3d5e234e390b9dac5d321cfb9d82e3ee06e171fc189003158fc",
    "cfg04_t2_3x2_w32_full_latency_based":
        "36a0c82b730ad74e3c502bef6c119250411a048f492bf2991963aea4fa2adba6",
    "cfg05_t2_3x2_w32_full_bandwidth_limited":
        "5e3e69a2633d644d4532995f2d49766b247ab687df1dfa433234a85a45aad3f7",
    "cfg06_t3_3x2_w32_full_fixed_priority":
        "43652f8c176c196b7e4cb268bf5c8e60e6611228df10b26155fe4b93712a25dd",
    "cfg07_t3_3x2_w32_full_programmable_priority":
        "b1a81a49a41b0f7526b46886ff442ebc26c5f9e5362147c8c220da6de0d510d2",
    "cfg08_t3_3x2_w32_full_lru":
        "992c48da0e907f5c06b9d2af036be936cad072e28d792d5993df88183c3ce8a8",
    "cfg09_t3_3x2_w32_full_round_robin":
        "b48e39ba76d393b8903b5df0a88713ce6fc9222996a8390f9c521ad20795d4ed",
    "cfg10_t3_3x2_w32_full_latency_based":
        "6e0c1a7d68f01c826c7b259eaae5a948f25962eb3103e8aecacd2870daadd7cc",
    "cfg11_t3_3x2_w32_full_bandwidth_limited":
        "c6370a3708555687f9b5cd62dd2920b94fb6dba4873730dbe88ec2865be02ef3",
    "cfg12_t2_2x2_w32_shared_round_robin":
        "112b719a9899dedbf3d1163040ac82472a29d090f882c6ddef6c675d38d921e5",
    "cfg13_t2_2x2_w32_full_round_robin":
        "cb5c61b81ef17a45f4fd7be850f9ad398bc5c152110ac95270aa40f848d9d9d2",
    "cfg14_t2_2x2_w32_partial_round_robin":
        "ff54b60fcfcc1b82a7475e8348dd469974c55b1e1e0b33d3bd53827de3cc0e85",
    "cfg15_t3_2x2_w32_shared_round_robin":
        "063a09dcad442f4ab2e4a2a7c98c33d7f6eacbe7da5e3c820ee240cd09c65594",
    "cfg16_t3_2x2_w32_full_round_robin":
        "2cd442eca4e9787007a6bcb928c5d37931643b1e0920298abbd07085a12d6f65",
    "cfg17_t3_2x2_w32_partial_round_robin":
        "c177898f8ab99e90de7f35ae18657f219cc3055b3820afb16a54ec04e8ae8e37",
    "cfg18_t2_2x2_w8_full_fixed_priority":
        "297efe24b35d3c0054ebc6c47db322b0c010ee3b236f4bb9ca2a769550e5ed2f",
    "cfg19_t2_2x2_w32_full_fixed_priority":
        "effba8b21f3892bd1e6a43e031e9738eef42a65f8c37ade3e4438989169de635",
    "cfg20_t2_2x2_w64_full_fixed_priority":
        "5619afb087f6e43d64d151fc873507c3158122e35f4bd5b4997fcce81a014e28",
    "cfg21_t2_2x2_w128_full_fixed_priority":
        "a3cbe29e90d62b1c4b7bd4054c3907d82f4b47fdfa5aef49a63d4c3ae3232d51",
    "cfg22_t3_2x2_w8_full_fixed_priority":
        "1abe398b8338689b9ea4fea5a86a8dab90d0f408525a6cb517b47c6659f8196e",
    "cfg23_t3_2x2_w32_full_fixed_priority":
        "84cd34156ef41195e55f704a27c4ccc5a4178b1d38c56213a5369e18a6f79b72",
    "cfg24_t3_2x2_w64_full_fixed_priority":
        "852a275426b56576037eea9912964634d3efa6de3bbd88780ce5b9bf77a8ac7e",
    "cfg25_t3_2x2_w128_full_fixed_priority":
        "558b66078d229525bec231f0c50d470a081effd40d9151ed1a6989fe7f6644da",
    "cfg26_t2_1x1_w32_full_lru":
        "c7fc0ef441ac17ae84df5eebbf66ff120d3b8bf545c28b3183759b6a950eee2f",
    "cfg27_t2_4x2_w32_full_lru":
        "b9e3df57ee0a5a4d61b54bb5515fcb33c4de7edc922622e10abbf91d62769d62",
    "cfg28_t2_2x4_w32_full_lru":
        "ae021259f3fa0659df2910a4695b26a2da2099ee9b9d56b03836d5e271e7377c",
    "cfg29_t2_8x4_w32_full_lru":
        "e9a80d0321df586fa5cde743918a31d4213bc4737be997e803424e80c459de29",
    "cfg30_t3_1x1_w32_full_lru":
        "a56f152d890dd68f3ced8dba72a0850c5929adf7633625ac89ee3b136074b004",
    "cfg31_t3_4x2_w32_full_lru":
        "f6b489b76d7e0918b99bd020780e0e90e26522ba845da0d6c2191969c102ba2d",
    "cfg32_t3_2x4_w32_full_lru":
        "6c6bb70306c445a237808bc7eb9fd3f8d48d90985971bcefb3930014a41c7749",
    "cfg33_t3_8x4_w32_full_lru":
        "8c704e5d2d81558fa2f6997fafa7b6b53c22955a191be4bc7758b5eed653a99c",
    "cfg34_t2_2x2_w32_full_fixed_priority":
        "6f79156295b644750da0fc0380b81aa03e1ef5f3e95f0b8120a8b783a2ec85b4",
    "cfg35_t2_2x2_w32_full_fixed_priority":
        "c4c93d98422014134ffd6bb3188ad31e9fdcc0890f5fe51203d0c3ae4023154e",
    "cfg36_t3_2x2_w32_full_fixed_priority":
        "dc8503bb3e6141a25b9f5169050775dbb93c35c1afc364d3efe250f164e60f28",
    "cfg37_t3_2x2_w32_full_fixed_priority":
        "c36cab87b8904e52e40c9d806bd1ddb8c55c7f20840400cc83d11e72b075e19a",
}

BUG_DIGESTS = {
    BUG_LRU_STUCK:
        "52911bab914b41f59cb1ad1333480e37bb5556722da48f7b5aa83f1fdae26c32",
    BUG_SUBWORD_LANES:
        "63d500b38c1d729307cbeec918dca2762b5c65517b35ca436f7400147f52657f",
    BUG_SRC_TRUNCATION:
        "be761e22cd1f5d23499456256358ecd78bb266e6089c56af5d4e04db4c0461d5",
    BUG_CHUNK_IGNORED:
        "cc4e2bee9d666f7a0f3e935b302ea1214f8fb10e278a0d1c43e76a52cdb89cd1",
    BUG_PROG_STALE:
        "598457fb106fd1ac2b3c5fe5ecdd23967b11d8decb0d6799af72b6cb5f8d0eb1",
}


def run_digest(configs, tests, views, bugs=()):
    digest = hashlib.sha256()
    with tempfile.TemporaryDirectory() as tmp:
        vcd = os.path.join(tmp, "run.vcd")
        for config in configs:
            for test in tests:
                for view in views:
                    env = VerificationEnv(config, view=view, bugs=bugs,
                                          vcd_path=vcd)
                    env.load_test(build_test(test, config, 1))
                    result = env.run()
                    with open(vcd, "rb") as handle:
                        digest.update(handle.read())
                    digest.update(result.report.render().encode())
                    digest.update(result.coverage.render().encode())
    return digest.hexdigest()


def matrix_digests():
    return {
        config.name: run_digest([config], MATRIX_TESTS, ("rtl", "bca"))
        for config in configuration_matrix()
    }


def bug_digests():
    bench = load_config_dir(BENCH_CONFIGS)
    return {
        bug: run_digest(bench, (BUG_TESTS[bug],), ("bca",), bugs={bug})
        for bug in ALL_BUGS
    }


def test_matrix_runs_are_byte_identical():
    assert matrix_digests() == MATRIX_DIGESTS


def test_bug_runs_are_byte_identical():
    assert set(BUG_TESTS) == set(ALL_BUGS)
    assert bug_digests() == BUG_DIGESTS


if __name__ == "__main__":
    import json
    print(json.dumps({"matrix": matrix_digests(), "bugs": bug_digests()},
                     indent=4))
