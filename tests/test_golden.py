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
# bound were re-recorded with it; their totals did not change.  The plan
# digests whose search ran fewer tools once a tool ran only when its edge
# was popped were re-recorded again: deterministic paths and totals did not
# change, four stochastic plans chose another path.
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
    'plan detection_choice/detection_choice alpha=0': 'e0d9055fff06f8b0b4ca45922e6e5bfe92e675548f013ae3f8682fe1812b5223',
    'plan detection_choice/detection_choice alpha=0.5': '084f68819438842a71cbc92d419af63ad5b64e961321d73f57a3d143baf764e7',
    'plan detection_choice/detection_choice alpha=1': '5cb46b8b81227d5ee86ab0bd7106c075003ca4c7fa9497a55711d290669387bd',
    'plan detection_choice/detection_choice alpha=2': 'd0ea10f58dcc0afd55286c2ba4d7a4764bb5207db36d9498665c6b7539f906fd',
    'plan full/detection_choice alpha=0': '84e15c96ee68ec937bce78e2b6a680a4bccb9bbd424c3772d7b677ca6eea4f72',
    'plan full/detection_choice alpha=0.5': 'ddf9f7d1948f2c6461f795f6b0554f86991fc4427a71ab55ef4e7384750d6415',
    'plan full/detection_choice alpha=1': '55bcaf9c6d307184185c0ef918207ab40ba6425f9f05299c1cd341b2bc60ee0e',
    'plan full/detection_choice alpha=2': '9ba85dd91515e0a76275a809d59b3d565711eb21d3c2d28225c41b1fc0012a9d',
    'plan full/example1 alpha=0': 'ebab70ab7b01a5db2e7eabb7675577bd9847b021c1f4752bf66b9e478d0cf5d1',
    'plan full/example1 alpha=0.5': '64c26656947a61bafeb22ac912a8b0e307435b88db1631c9817f7c3dfd09406c',
    'plan full/example1 alpha=1': 'fd9520ec85638805f753b054832e2966ca39276c63ab0fe5cf31021004ead3d5',
    'plan full/example1 alpha=2': '105a93dc2a502ba3e0d05a37d25f552324ff8b2daff17f0652a5206ceba9179d',
    'plan full/example2 alpha=0': 'c53ac581d6db434544a32640f4dbe2173cc1102afe517135acabd7edec092896',
    'plan full/example2 alpha=0.5': '42d226c9c0ea53291cab8d037ab2885b60fcf28b273a0dc5a2492a3c60160835',
    'plan full/example2 alpha=1': '42e2ceece60feaed4d834d2387da0f12cdfb72111e9531811d56093febe4b990',
    'plan full/example2 alpha=2': 'b60159d1a3fce69d179ddc4b866254e18f78fc77cd7ab245297ea137aa8a48bd',
    'plan full/replacement alpha=0': '76ef3b58e9785698be58f651fdf87f973db559d52fe12bfdc68793254db1c68b',
    'plan full/replacement alpha=0.5': 'dcd6dc0559272acea5eb4c4f8bc931853ffa93e8f1b2a6af0d759a2beac265f2',
    'plan full/replacement alpha=1': '7eee8377d865020c02e6fd3fa661301712c29c5b53f6fe96bbba32136b364000',
    'plan full/replacement alpha=2': '5c40fd09fae7e8c951606834bd6f8a4ed5a45f47019f0a8ee94a9131e98e0f79',
    'plan full/single_deblur alpha=0': '3f5983ee5afa73184c8a26ea80a5b5e2cc9ea23bcffed721c8c9ab772ce97d01',
    'plan full/single_deblur alpha=0.5': 'c4aa2508fbd615e83fcacbc4d34aaa6c81847a08818e1da13eddf5b5a648cb89',
    'plan full/single_deblur alpha=1': 'eb662a1e6d8e1683d401e61358c70eba3956ad20a18a6497a19a5b59ab4438de',
    'plan full/single_deblur alpha=2': '91671e94ae8f4198949313a8bd75ab50a3d10a257a26d240b1bd350be8106825',
    'plan shared_end/shared_end alpha=0': 'b1656e735533b452cfe9966452135f066939e573d66de360f56703ffa0bfd24d',
    'plan shared_end/shared_end alpha=0.5': '9d89b4391e09796d69010d19591158b2de8d8a59e031c0b77d83b8cd29b60f15',
    'plan shared_end/shared_end alpha=1': '4ceea97653c4c9edfd12cb5d44918a50ddd8f08ad5a77ed49d809e4a592676fa',
    'plan shared_end/shared_end alpha=2': '9246af60a5120b7912e8992bfb5e0ee80dc675f78a1ef3f9b4761215ea87e91e',
    'plan table1/detection_choice alpha=0': 'eb00ea90f76927bcd17918d1f49cb8e32200f4bd1fbf0eb4bcd30a9a467c5138',
    'plan table1/detection_choice alpha=0.5': '76fe8c832b0da35b415dd2dcf73c1a3be6a32c2da3fe6c23a7ad9156dea88f38',
    'plan table1/detection_choice alpha=1': 'e40db30460ae45c4ead24276bade81df500facedc0c8e22d21a086aa899acf94',
    'plan table1/detection_choice alpha=2': '35b15d1bbde2060bb4f30b185779ea4efe71fa0b28776bd5371c0f4b2988da9d',
    'plan table1/example1 alpha=0': 'bff6411218e5b6404aabf4c377ee30c04cb8a60609c58f50d56bd76239d8c228',
    'plan table1/example1 alpha=0.5': '2133da666f37e063ac7dafd2504347e9dc61ee9520b1ccfc2b963bfe33100822',
    'plan table1/example1 alpha=1': '8e6b8c29ec1ce0a8c4a4bcefc3a9dcf5b923d6bc5028b668aa62527b14ed686f',
    'plan table1/example1 alpha=2': 'a215bbe2a044c3208abd9d7d0faf95f92e2f0d9ad56977070926d6b38d23ebc4',
    'plan table1/replacement alpha=0': '8bf6a86de38b61ed36f45d6c5071ac05be2a7427e83efdcaf9e9e13e806e4bc2',
    'plan table1/replacement alpha=0.5': '69e8727f2686a5fff740f5382215dfb314d00aeb61f268f83b69ddd7973f2d58',
    'plan table1/replacement alpha=1': 'f7f9e11f5c541370c5923daf2db4f9a3f09acc8981fb071db49682f60836ea2c',
    'plan table1/replacement alpha=2': '2f84b29065b9c283dd51600bcb246a9a3b7f2d739e1b2cc0d21d6aa647df5f6e',
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
    # full/example2 at alpha=2 was re-recorded for both seeds once a failed
    # attempt re-queued its edge: a sibling ran before the retry.
    'plan full/detection_choice stochastic seed=0 alpha=0': '8af55d386478c2286d93f0f2389c295694ba1ce1dba2d9a2f97cfa09216fcbd4',
    'plan full/detection_choice stochastic seed=0 alpha=0.5': 'ba98655cfb15fcf8300c0acd3cb4ad3315d92cdbd3ae40aa1bd287a35afe2211',
    'plan full/detection_choice stochastic seed=0 alpha=1': '83c2602a6f29fdd989c22211adef29635e6b0375d6d9c3fc2bb9d2278e6baaa9',
    'plan full/detection_choice stochastic seed=0 alpha=2': 'baf9c03193819af348535ca9e154224bf3b8399f57e7ce9383cde76b8dde988a',
    'plan full/detection_choice stochastic seed=2 alpha=0': 'c0fbee49bb4049dc14a5f77016a4547650967c849bf826a67e02d74ab9f834c1',
    'plan full/detection_choice stochastic seed=2 alpha=0.5': '2e29ec86891d6cb01e57e878945b4b88044d5c745e96377919217b76bf13fa43',
    'plan full/detection_choice stochastic seed=2 alpha=1': '6ccc0644acd2729d8a10f5996490ab88172a1677316556c4c8faa82ff285a953',
    'plan full/detection_choice stochastic seed=2 alpha=2': '7fe6236885d69b298afebcac0473c3cf01437026f46001fd54d337309e5bf502',
    'plan full/example1 stochastic seed=0 alpha=0': '6f3fbcf278a7f5b80f764930b82c54d2ce34dfeeb6975b2e32033771fad61dbf',
    'plan full/example1 stochastic seed=0 alpha=0.5': '6c0a5b33ea6090edb2fdc844f54efa07518f17665b6358a21022fed7c3a40300',
    'plan full/example1 stochastic seed=0 alpha=1': 'c23d726d85cca8f2e85b2b98c960a0f98c069ca9daccbb8f047ca5c704c8e307',
    'plan full/example1 stochastic seed=0 alpha=2': 'f0822fefb16850314f6f16a84843dbd291829d73fcb06cfc33101f8b1438f4e7',
    'plan full/example1 stochastic seed=2 alpha=0': '7d515115549918fdbdbc533fe815978eaa6c55b133ef56c7f99e7dff9eae38b4',
    'plan full/example1 stochastic seed=2 alpha=0.5': '1ce85096dc18bd7cde1b703558734ca55f2c5f1c5ac56fbe3a18dbf9a50b9c0b',
    'plan full/example1 stochastic seed=2 alpha=1': 'f3f2d0a2e6cac17e6b3211a573b5651287ab64a1fd6e78d7036c53e0035deb10',
    'plan full/example1 stochastic seed=2 alpha=2': '9b539607de259cbe4ae31cdd4b634aeacb9764ab2e53bc99a0bd2cb277a5667c',
    'plan full/example2 stochastic seed=0 alpha=0': '1aad7457f9c65d43cb197a5755a9ffaaf5bcf16008b14310539468f3e6f6d2b4',
    'plan full/example2 stochastic seed=0 alpha=0.5': 'd9cbc733a84cee60063678f0a5a6fc877bc06b5b9d910d8fe351b9e1fa11a18f',
    'plan full/example2 stochastic seed=0 alpha=1': '6145e8101e5dd6831a900fe874aef2d89629a896e41f7c5b50f3bf74eef6e366',
    'plan full/example2 stochastic seed=0 alpha=2': '8795cb78c5993f65cafac03f8c7d933326d3242c58c98aebabfc20896596e81e',
    'plan full/example2 stochastic seed=2 alpha=0': 'a09351d6736242b2a8db0a48045bf296ff0ed6b5606fc0af24392ae64f3e0e75',
    'plan full/example2 stochastic seed=2 alpha=0.5': '671f6bccce8674d9531960ab9d56c7c3114b518acad4cdcf26910d912a071d2f',
    'plan full/example2 stochastic seed=2 alpha=1': '885852d5fd220a5d0020ffc0a7a72fc6abbb1d149709525df5664ee84e7d3cfc',
    'plan full/example2 stochastic seed=2 alpha=2': 'b67b18e07374375f9a1f3e42425ae3fd0739fc6a11cbfc2f8485cba01fb24946',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[case]


def test_stochastic_plan_trace_holds_a_passing_retry(tmp_path):
    # Without a passing retry the stochastic digests would not pin g_literal.
    argv, _ = CASES["plan full/example2 stochastic seed=0 alpha=2"]
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
