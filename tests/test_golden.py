"""Golden digests of the CLI's outputs on the bundled fixtures.

Each case runs one `plan`/`sweep`/`verify`/`graph` call and hashes its exit
code together with every output file it writes except the manifest, which
carries a timestamp.  Regenerate the table only for an intended output
change: `PYTHONPATH=src python tests/test_golden.py` prints it.
"""

from __future__ import annotations

import hashlib
import json
import tempfile
from pathlib import Path

import pytest

from toolpath.cli import main

DATA_DIR = Path(__file__).resolve().parent.parent / "data"

# (mdt/benchmark stem, tree stem) pairs the CLI plans on.
FIXTURES = (
    ("detection_choice", "detection_choice"),
    ("full", "detection_choice"),
    ("full", "example1"),
    ("full", "example2"),
    ("full", "replacement"),
    ("full", "single_deblur"),
    ("shared_end", "shared_end"),
    ("table1", "detection_choice"),
    ("table1", "example1"),
    ("table1", "replacement"),
)
PLAN_ALPHAS = ("0", "0.5", "1", "2")
# Stochastic plans on these fixtures retry and pass, so their traces carry
# a non-null g_literal; deterministic plans never pass a retry.
STOCHASTIC_FIXTURES = (("full", "detection_choice"), ("full", "example1"), ("full", "example2"))
STOCHASTIC_SEEDS = ("0", "2")
TDG_MDTS = ("detection_choice", "full", "table1")


def _cases() -> dict[str, tuple[list[str], tuple[str, ...]]]:
    """Case name -> (argv with OUT placeholders, output suffixes hashed)."""
    cases = {}
    for tables, tree in FIXTURES:
        mdt = ["--mdt", str(DATA_DIR / f"mdt_{tables}.json")]
        tree_file = ["--tree", str(DATA_DIR / f"tree_{tree}.json")]
        inputs = [*mdt, "--benchmark", str(DATA_DIR / f"benchmark_{tables}.json"), *tree_file]
        name = f"{tables}/{tree}"
        for alpha in PLAN_ALPHAS:
            cases[f"plan {name} alpha={alpha}"] = (
                ["plan", *inputs, "--alpha", alpha, "--out", "OUT"], ("", ".trace.json")
            )
        cases[f"sweep {name}"] = (["sweep", *inputs, "--csv", "OUT"], ("",))
        cases[f"verify {name}"] = (["verify", *inputs, "--alpha", "1", "--out", "OUT"], ("",))
        for fmt in ("json", "dot"):
            cases[f"graph {name} {fmt}"] = (
                ["graph", *mdt, *tree_file, "--format", fmt, "--out", "OUT"], ("",)
            )
    for tables, tree in STOCHASTIC_FIXTURES:
        inputs = [
            "--mdt", str(DATA_DIR / f"mdt_{tables}.json"),
            "--benchmark", str(DATA_DIR / f"benchmark_{tables}.json"),
            "--tree", str(DATA_DIR / f"tree_{tree}.json"),
        ]
        for seed in STOCHASTIC_SEEDS:
            for alpha in PLAN_ALPHAS:
                cases[f"plan {tables}/{tree} stochastic seed={seed} alpha={alpha}"] = (
                    ["plan", *inputs, "--sim", "stochastic", "--seed", seed, "--alpha", alpha,
                     "--out", "OUT"],
                    ("", ".trace.json"),
                )
    for tables in TDG_MDTS:
        for fmt in ("json", "dot"):
            cases[f"graph tdg {tables} {fmt}"] = (
                ["graph", "--mdt", str(DATA_DIR / f"mdt_{tables}.json"), "--format", fmt, "--out", "OUT"],
                ("",),
            )
    return cases


CASES = _cases()


def _digest(case: str, workdir: Path) -> str:
    argv, suffixes = CASES[case]
    out = workdir / "out"
    code = main([str(out) if a == "OUT" else a for a in argv])
    h = hashlib.sha256(f"exit {code}\n".encode())
    for suffix in suffixes:
        path = Path(str(out) + suffix)
        h.update(path.read_bytes() if path.is_file() else b"<missing>")
    return h.hexdigest()


# Recorded before planning stopped building the tool dependency graph.
# The plan/verify digests whose search did less work under the suffix-front
# bound were re-recorded with it; their totals did not change.
GOLDEN = {
    'graph detection_choice/detection_choice dot': '32339f08c117246ecf5884d68b137bc044e29f4dea4acb6277d55cc71999e4c0',
    'graph detection_choice/detection_choice json': 'e56552e15dbfe3a0b38fb02a6d888f2dad4e75b8a03cc78b4a801747131a2511',
    'graph full/detection_choice dot': 'a67b41e12bad45d5a8cf83fbe81e70ce9e03f48a7b583980a62f0657afac471c',
    'graph full/detection_choice json': 'cfaa632c0170fb5e0046c59c592abd2f39e537b7ddd9898b33b402a34e63df4d',
    'graph full/example1 dot': 'db93736282e15e3680b16936ba32df3dc4e116845e07abadf8f3bcce5f0d1998',
    'graph full/example1 json': 'ce83fc77908c90d1072682603f5ab2e7ed4610384d808df46cb4a25376846d3e',
    'graph full/example2 dot': '60958d4cc0f9fc4629cf812da48197d1ba401380214506146627ae9f45a71ad1',
    'graph full/example2 json': 'd808dddefc535eb8f44fcc6ef0283bedb93e90b01b04c232af4f65d7847d6497',
    'graph full/replacement dot': 'd6d1a19f66ab882ad899bb01c714f33fb8531949cf68b41a43e981cea0a9a48a',
    'graph full/replacement json': '2f497fa7de464d6e8360210d6e9d403d58a3bdc63162bcb194d432f2a2df7a28',
    'graph full/single_deblur dot': '6e7c990fde1a2f9da3500f4b9beb987a0bb59e1c696577523816e02f87dd66a3',
    'graph full/single_deblur json': '49a9b040b5581c6ae83e0cb7501ded9e6ed28e07e38165d1c2ef736e1aa7247a',
    'graph shared_end/shared_end dot': '6cc62ed93ad6623635788c28420f63ffda70e435773e4b88f84f6acdbca5af53',
    'graph shared_end/shared_end json': '67f1398c7f46c1c33bbd057bfaac78ae40e48f6e29226f1891dabb9536451ab5',
    'graph table1/detection_choice dot': 'c4d938f97d838869a98f6798cbe0d1fd1bcb4826b340dd090d4c8ee57e772fe5',
    'graph table1/detection_choice json': '3e440acb9cfe0f6bcf6a9c0fdeccca5421c121448f3624c6170ff777b5e8eb9f',
    'graph table1/example1 dot': '9be1284c4149fd526e7308062cb62f2cac9967523b1c2710b761f2d76b3f2887',
    'graph table1/example1 json': 'eb8e40376c5e7a273b108dcf8573e5a8f09c9904955896f30fdd559e5d425f51',
    'graph table1/replacement dot': '8ec9fa5467679d9e8db977ffe63b9224da4f8c152e111feec2e5766b4c4971e1',
    'graph table1/replacement json': '9b8747165cf680b9249634ba3b192012eb0dab7c085fa702f8d2d1c614af8bc7',
    'graph tdg detection_choice dot': '0f959c1188292f7271e4407ac1e21b35b22be9bf25626f6697600f93fd31df66',
    'graph tdg detection_choice json': 'ddba290b0de1006f60adc9f8dae09c7b355e92406b5e67c2611959b585a3bd26',
    'graph tdg full dot': '051d41e9559e7a9cdbd0d0161e544387c9ac58b7e8faa2aa9a6187c44535efe0',
    'graph tdg full json': '7a4e9475b744393102d91c9bcb9baecb3d9484e259614627856acc2e3451acc8',
    'graph tdg table1 dot': '4f30085d0fe7b228c583313d8a1ae303a62aab01a900744e975780dc1cc4760a',
    'graph tdg table1 json': 'b7f481bf4075dd9644a2000d1a8fb9f839310daa4ef229830cb23f0685fcb7ba',
    'plan detection_choice/detection_choice alpha=0': '515ec7b1a357f73df7b5d21265826f38e46975fc2d3bd0b979e9568f2e5a4c6d',
    'plan detection_choice/detection_choice alpha=0.5': '400e976555ef4f904c85307f70a8d46e0217ed93d9d70e55339a02245f0970fb',
    'plan detection_choice/detection_choice alpha=1': '15ac366cfbb121acc5489af3be3d8d574495382bfed155c728235cfe15ce6211',
    'plan detection_choice/detection_choice alpha=2': 'a04a16c616451c1cbbd999b1ad066be11e95d5dabd8348a77f3b295668c2eb8a',
    'plan full/detection_choice alpha=0': '073b92253cd51502eff93f5c5795458b23389049315c50fa962c9635ef9c9260',
    'plan full/detection_choice alpha=0.5': '208dcad182cd917b03460bfc7c5cfde135340e5d49ba1e8320473efa4d045d66',
    'plan full/detection_choice alpha=1': '80b5aec04e0bd5675cc67ab06a5d912599c6e7bf39ff89aea873e028927fffb3',
    'plan full/detection_choice alpha=2': 'd3b6a5c183ddfca52efb35ada2c9fc390d892963515990033fc51a9bde61e438',
    'plan full/example1 alpha=0': '73393987f2f038d65052b6151304b0dbd01802ff30f074e75ccb2dc0d6f52c6b',
    'plan full/example1 alpha=0.5': 'f27d1760147c313eebbf9acec459c1bf40f6cb4e38447e2ac2a29feccc22f47a',
    'plan full/example1 alpha=1': '5c50c30448c8d1ea9d446174d93b8c1cf988a71b1ece3bd0cf930312e1dfbf8f',
    'plan full/example1 alpha=2': '2d1c765081f2fecd989e9fb95a51185b7d00cadfa6b6eff365366b855b3b50d7',
    'plan full/example2 alpha=0': '71131e9a5aca3cd486aabea88681ed01d443648cb1c3ebcccd14b7b1901f30b0',
    'plan full/example2 alpha=0.5': '2ffdc3062c2e74288a033d91fc0a03a4a7349a132fd891889094c30c6f0239ef',
    'plan full/example2 alpha=1': 'da520e729facc36e256424ad987b542caff71cd5f5895331653c2fa6c7187585',
    'plan full/example2 alpha=2': 'a87be0f3341d52227cc4290afc43486dc6657f2cee9b6657aae259f13763cf4b',
    'plan full/replacement alpha=0': 'd151ac594ccdf8c7425c006a0ace3e74272db8447ad0b898851039f784591565',
    'plan full/replacement alpha=0.5': '6ca0a0280aeb10743fec1283b3b5d4fee861058f08ff3cd9ad28cad2f5c74d0f',
    'plan full/replacement alpha=1': 'c142b9f25e7117a2b34ac98326844bcd5492750d8b6144498c2a375527945095',
    'plan full/replacement alpha=2': '39fff4bfedf253e7edd059960c9b13c97c0e80a1b8ccf36646f61de38e862e64',
    'plan full/single_deblur alpha=0': '3f5983ee5afa73184c8a26ea80a5b5e2cc9ea23bcffed721c8c9ab772ce97d01',
    'plan full/single_deblur alpha=0.5': 'c4aa2508fbd615e83fcacbc4d34aaa6c81847a08818e1da13eddf5b5a648cb89',
    'plan full/single_deblur alpha=1': 'eb662a1e6d8e1683d401e61358c70eba3956ad20a18a6497a19a5b59ab4438de',
    'plan full/single_deblur alpha=2': '91671e94ae8f4198949313a8bd75ab50a3d10a257a26d240b1bd350be8106825',
    'plan shared_end/shared_end alpha=0': 'b1656e735533b452cfe9966452135f066939e573d66de360f56703ffa0bfd24d',
    'plan shared_end/shared_end alpha=0.5': '44e63ab67525aba0e51cfb81aa5109245fa7166cb54fd5bc1ec0d886d827a691',
    'plan shared_end/shared_end alpha=1': '4f3b48e30740bd4449826df162f5f54f3de3011b0b20c3f62b5b48931217f5e9',
    'plan shared_end/shared_end alpha=2': '12ce6750158b46966255a54a1c7ae305a0f24e9e9613527045aa02c2be90ed3d',
    'plan table1/detection_choice alpha=0': 'eb00ea90f76927bcd17918d1f49cb8e32200f4bd1fbf0eb4bcd30a9a467c5138',
    'plan table1/detection_choice alpha=0.5': '76fe8c832b0da35b415dd2dcf73c1a3be6a32c2da3fe6c23a7ad9156dea88f38',
    'plan table1/detection_choice alpha=1': 'e40db30460ae45c4ead24276bade81df500facedc0c8e22d21a086aa899acf94',
    'plan table1/detection_choice alpha=2': '35b15d1bbde2060bb4f30b185779ea4efe71fa0b28776bd5371c0f4b2988da9d',
    'plan table1/example1 alpha=0': '8a96f267dd4d4c73437639ef6df0f83de512fe73cebb565dc115ecb790929205',
    'plan table1/example1 alpha=0.5': '056379fd80c2fa69174df7c72b66336ea242b4af9aaa91c696c7875aefe2a192',
    'plan table1/example1 alpha=1': '740edcc9029c33d3c57abc00925554c9bf3abb3b60c5b54f0d7cb3e76ab9a165',
    'plan table1/example1 alpha=2': '7147f29de76b05c376bf9a9ac067c2976b897b5097a39322751d1b379fcc45f7',
    'plan table1/replacement alpha=0': '61a934416fbb0239edca5d27a62cffa9322cc435a9399063a096642277949e47',
    'plan table1/replacement alpha=0.5': '7f53d1fb207afa84368e05723b719b1d719a52f6ccdfb8561b7d0bea1353531f',
    'plan table1/replacement alpha=1': '567936d998b9c272a2b8d294c7b3bf0f3d7a871738a2fb97d818798311f87772',
    'plan table1/replacement alpha=2': 'f31bd2d9bc34ed4312d9e4daf019971e00c4cb5dad4ff3dd29a0c18e30738dca',
    'sweep detection_choice/detection_choice': '2147cd71f3315dec4c129925c94192ffa5c0596b4b0369e8bf1dcda2956d6839',
    'sweep full/detection_choice': 'a69a7dcc01f0b20253bd79f9ee363caedb5a89427d8d0875ba6cca0ae6efe298',
    'sweep full/example1': '904ca8ed052fbc73202a963206daf9f14ffdcb4c3f4f83c7de9f94b6cdbfee92',
    'sweep full/example2': '8a494ca7998e1a2cf23251e2a72fe55a0e5f44926647a80d6d3a834bba07e37b',
    'sweep full/replacement': '8c271b3720e2c64b0c281987955ce267f13773741deea9f2e931f9c775e6a500',
    'sweep full/single_deblur': '1e0b53e0bf8bff4c1aaa5c2407de154a72c7003578666388d18d1d0248938041',
    'sweep shared_end/shared_end': '0c862a39f8eb8d228093e210a5d82cb051361dab76f7fa788b0105a8cc339dc8',
    'sweep table1/detection_choice': '1288cb1fb3e4e934e9b19ae3faa06f96889984214d5ca040cc21d517e5df6011',
    'sweep table1/example1': 'cc3474b4d91e66d88bbcc9261932d0fde4a22437eb8933a18d7ac7dede8b5012',
    'sweep table1/replacement': '6af7b3c8c0a8f29d23482b440d6bdcd9624ea655130ee9e5ec04343f3161d0d5',
    'verify detection_choice/detection_choice': '36ebbe4cfb814977ced2f905908184d41bc680f8a7868006e6550bbee94253d7',
    'verify full/detection_choice': '7e592d62310e7b3e147ef94c25db7984ebd438ff60a6ba48150507f21afd1043',
    'verify full/example1': '47f1f8571c664e86a41d75612b99e55ac32b2f7217a11a67589190df02e9aed2',
    'verify full/example2': '32021953aa5c32948fe6a9ca8331601dceff33718542020b24d91830bc5db1df',
    'verify full/replacement': '15713b2a4ea7eb74d725df31321fe5624f46438181dbec62234881d88ecab661',
    'verify full/single_deblur': 'c58346e2178f95c561c13a5cdf2bbcd90db25d1623f24e5ab1d7689986a2e6d0',
    'verify shared_end/shared_end': '764f74e414b873639bb2516baee55f625ba565e0ff1b24bfab2e3abc9e0dab77',
    'verify table1/detection_choice': '4cfa0ee5eb59c92d1e9b1a08da2e229a1c8b64521dac9276d72ab26c62466617',
    'verify table1/example1': '046bfaf1154353079d3ebd401fa7600382f9fed2c01d354f3647eab7a6be739f',
    'verify table1/replacement': '691557f0816e12a4ed349b4e0fcc0cf23b1064a88cf6bc40fe48c94d133fd46a',
    # Recorded before the search kept parent-linked labels and one attempt loop.
    'plan full/detection_choice stochastic seed=0 alpha=0': '30aa03ec4937a0e9a8522c4f51ec649973ac852c58087d8bb86c657ca9ccee76',
    'plan full/detection_choice stochastic seed=0 alpha=0.5': '23937c7bc40be4e91ea202807bfb9594cf908e424fb35221b8ec1d37f725bd26',
    'plan full/detection_choice stochastic seed=0 alpha=1': '556c388ec9a17a99f28b7f111edc7fa7e120946c2a4ec3a1bd1c594752abd988',
    'plan full/detection_choice stochastic seed=0 alpha=2': '0a890ae7475a4956fffc8c4567198718cea312a4b5a4732ed9e168a87f654b11',
    'plan full/detection_choice stochastic seed=2 alpha=0': '48e91f3ba18120fe2c2551279aa81ca3251757c86781a9994d361310f1037163',
    'plan full/detection_choice stochastic seed=2 alpha=0.5': '0abc6f64386e43c4f5ef21b7059182fc84cb0e2ddb196ce64bebc6970b141702',
    'plan full/detection_choice stochastic seed=2 alpha=1': '338cee1b100aeb1b4aabae0912631475276be0d12f273a3e7b0c130e6c0afa04',
    'plan full/detection_choice stochastic seed=2 alpha=2': '93158b0e44c989805981c8596f6356edc6659d8ecb604602af28dd0408f48e43',
    'plan full/example1 stochastic seed=0 alpha=0': '904540934d975a6636c83cd15f84a31c079cef48a0a9d029d41f3f9951f07cb4',
    'plan full/example1 stochastic seed=0 alpha=0.5': '064c11643888dfbe02fb44ea909b41e27ca31469db4902bb0587f8b21dfb94d6',
    'plan full/example1 stochastic seed=0 alpha=1': '0f5c91af811a999342a5764dd0d09abfd23ac106984e2e15e78cf05f14bf168f',
    'plan full/example1 stochastic seed=0 alpha=2': 'ef865d3842a5d846c4a402e452f004820f089a7408a09546da72f50a25d06180',
    'plan full/example1 stochastic seed=2 alpha=0': 'df619678e2897a30b1f53c3ee193dc2e9a4c092040d95648fe1ad27b0cf877ec',
    'plan full/example1 stochastic seed=2 alpha=0.5': 'f178c3c769ff9864b7441ef44c7efc6085ff8aed8d8186e188f9e75b7e076afa',
    'plan full/example1 stochastic seed=2 alpha=1': '2d03900c805f5f9420a9438a44fbefb24d9ef4f6aec890d926a4a225e6395bbd',
    'plan full/example1 stochastic seed=2 alpha=2': 'e2b23dc082aa51d4e60b9c26465359df69877c6f47a4ca2bccb498d8366bc9a7',
    'plan full/example2 stochastic seed=0 alpha=0': 'f32c78906d7c6243f3bca75c01c3b409a7ddb86729b1274ff7a9553d57f31bc7',
    'plan full/example2 stochastic seed=0 alpha=0.5': 'abc28d6fb3963f4c0aaf0d46833ca6fc02f799371bf8f7bc86deeedd53f5a7a3',
    'plan full/example2 stochastic seed=0 alpha=1': '68bccdb51a718c10cc72f7b3b4a10cd35f8f8c0a92d0fa661894d59021d88a29',
    'plan full/example2 stochastic seed=0 alpha=2': 'fede53791730281b35183d877e21930bc73fe5b5a4cd8896f17959e1c78afc7d',
    'plan full/example2 stochastic seed=2 alpha=0': '5a250b52da8ed4de999cca5c826a9a6d13ec64a01e8e4acc375f54eacac440e7',
    'plan full/example2 stochastic seed=2 alpha=0.5': '2f4f3cc1e4e8676c47e834abbb6e48b40b28a2a3df8f5a770cc1914b2fa163f0',
    'plan full/example2 stochastic seed=2 alpha=1': 'f8a8e26b80859af6c146577ff142fbd68bd85eac635238bbbe9a6b226816051f',
    'plan full/example2 stochastic seed=2 alpha=2': 'b93de9c0f4bc188c581578435151dddf0864d39cfa65d9a61f3e8f34785a6827',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[case]


def test_stochastic_plan_trace_holds_a_passing_retry(tmp_path):
    # Without a passing retry the stochastic digests would not pin g_literal.
    argv, _ = CASES["plan full/example2 stochastic seed=0 alpha=1"]
    out = tmp_path / "out"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 0
    trace = json.loads(Path(f"{out}.trace.json").read_text(encoding="utf-8"))
    assert sum(e["g_literal"] is not None for e in trace["events"]) >= 1


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(sorted(CASES)):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            print(f"    {case!r}: {_digest(case, workdir)!r},")
