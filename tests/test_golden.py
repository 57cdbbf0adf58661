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
# Stochastic plans on these fixtures; full/example2 at seed 2 and alpha 2
# retries and passes, so its trace carries a non-null g_path, and
# deterministic plans never pass a retry.
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
# change, four stochastic plans chose another path.  Every plan and verify
# digest was re-recorded once trace events lost `g_literal` and the verify
# report `astar_status`; no plan JSON changed.  Fifteen plan digests were
# re-recorded once the search broke bound ties depth-first and kept popping
# within its stop window: thirteen deterministic plans ran fewer tools, with
# the same path and totals, and two stochastic traces swapped two events,
# with the same plan JSON.  Eight stochastic plan digests were re-recorded
# once a seen pass set its edge's queue key: fewer tools ran, with the same
# plan JSON apart from `stats` and the same `expanded`.  No digest moved
# when the window came to end at the playback front's least key, and the
# first sink to end a search under any other executor.  Three stochastic
# plan digests were re-recorded once an edge whose least label a live label
# already beats was dropped unrun: full/example1 at seed 0 and alphas 0 and
# 0.5 queue one doomed edge fewer (`peak_frontier` 9 -> 8 and 7 -> 6), and
# full/example2 at seed 2 and alpha 2 skips one seen pass whose label was
# pruned (executions 28 -> 27, `pruned_by_dominance` 1 -> 0), with the same
# path, totals and `expanded`.
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
    'plan detection_choice/detection_choice alpha=0': '1f81bf4e8f4582edae77b8a725a7ef8e0631696ee33559c1b86a778d5236b7f6',
    'plan detection_choice/detection_choice alpha=0.5': 'a965f97f0b7814ae4bcf5038ba8f4f28280ee64fd23d547a4a0cbac0b314e681',
    'plan detection_choice/detection_choice alpha=1': '62aaf30fcd3ec9eeea371ca75fa9077a81ed5f59c8427f55bf1bd9ed33e0f61b',
    'plan detection_choice/detection_choice alpha=2': '95186dd886094ad4a1fecbc2dcf3e793bd68cf29f9f91c32f7e94f6dd554b6e7',
    'plan full/detection_choice alpha=0': '22ce7182d162b8c325f70c107258eeff986994ffdb8180c1f781a73feb78a40e',
    'plan full/detection_choice alpha=0.5': '580d31528def9ba454cc6b5ecf5b04c55d0336d0b43105caf603ac4286f5c28d',
    'plan full/detection_choice alpha=1': '065ebf4502f568d487a7167cad3509209a4a286a21492f0ef9f8972e691c24e7',
    'plan full/detection_choice alpha=2': '9a51a7dca0185fff81f064b6258145ab21cc742f8e7c557e2137a0cb41225930',
    'plan full/example1 alpha=0': '40686571a8646be8a1cc11964c1ea3e2079e6f27be9c67c80f46708674d79050',
    'plan full/example1 alpha=0.5': 'cfaafb531ffd51a3d8bd3efe3956b863a03db704e9a56527b6c49cc4edd44545',
    'plan full/example1 alpha=1': '8f9ca00b4e869590e50410117137525dae0df2ec6f9a155b6a8a10e3b1991a18',
    'plan full/example1 alpha=2': '76249ad50809d48eb92f44786692d8b9d8b6c75bebccb5e59bd7fb18563141d8',
    'plan full/example2 alpha=0': 'd032dc3e17141ccfa4fa74b58b263811e30c3bb3e59eaccbaaddeb984392f3d6',
    'plan full/example2 alpha=0.5': 'c3de8105ad50912777307b326278046b057b83e3e378419369de0e4e7cb512f6',
    'plan full/example2 alpha=1': '147413357aca5f78b1b13190dfef46f27211bf09caa0688fe22d64806ffb14af',
    'plan full/example2 alpha=2': '9ca637bcb26e63df293314981d9163284b5fd3b66092b5a8783876a846c9bd9d',
    'plan full/replacement alpha=0': '2260b0fd39698bd9c424c000d0c2f87c47a5a3c22c7c8b9e764160452bbf0263',
    'plan full/replacement alpha=0.5': '01f3b1d87353e3245fb98c2c93de7d62a7249c819a655296b847cc8df6ac389c',
    'plan full/replacement alpha=1': 'b7c8b0f5964357df38dcf858b48693e6786055f688bde49ec2b7a772f090b89a',
    'plan full/replacement alpha=2': '92888a6998aa87bf2ffb79c51490a32355f5cd945be997183355282d239eaaa7',
    'plan full/single_deblur alpha=0': '1a9350437d9bab193d28f53a1fac4769368301849a8afc03d32e6af763c1dad8',
    'plan full/single_deblur alpha=0.5': '0510e120b807fca349ba02fb7f12dcc17423e9e43057a98eeba9328eba1a6085',
    'plan full/single_deblur alpha=1': 'b373d8b998dcb74065d2595fc4387688504c977cc2d1cfa09ff8113156b4c4d5',
    'plan full/single_deblur alpha=2': 'afa46fd97d27e0393ca9c7439d94dea27f8a3b9810321b63ba57ef5f66464e8e',
    'plan shared_end/shared_end alpha=0': 'b7276ea514d0457ce59a79d228f2a7612f1f31b36189b5776b8f3beb96fcd2b1',
    'plan shared_end/shared_end alpha=0.5': '5635c7023bb55db44a65fb31e61c0f97f9b2ceb36e29abe8774c4660d31dde11',
    'plan shared_end/shared_end alpha=1': '734610176b662ea3e226028b959051ebdf10789c9202c5a1013113379b2d6fa1',
    'plan shared_end/shared_end alpha=2': '70bdb200205ddf11966678ea7559a8b3d45b3b96dc4b06f366027694ec3c7e29',
    'plan table1/detection_choice alpha=0': '84b8ec216b9d3add58d098ddd013d1e668b963e80fb358bdce604d2ce48d95b7',
    'plan table1/detection_choice alpha=0.5': 'af6ae29ec13211a60b74cac9c8b37cb782610336c7a889a2851e5869f37a09d4',
    'plan table1/detection_choice alpha=1': '788d58dd904254a56a3ed0c2f48ba1b2b7b496466974d687722180ee7a2319b1',
    'plan table1/detection_choice alpha=2': 'b8223c2c1cfbf56583370efd0ca5673654d3a603ecd381c1b43a40210660277d',
    'plan table1/example1 alpha=0': '484e581e494a6fbf88a1714ee8ccddf57599d12a36dc521cdec87bf0090ed81a',
    'plan table1/example1 alpha=0.5': '57e0064d1f6eb5404b2bca8e4e3b2f074647773618df7ae0897ea7353aa0ffcc',
    'plan table1/example1 alpha=1': 'f7bee2440bc76fc418e6b9797397a381fe3b6925ad48add3e2176bd84af95b48',
    'plan table1/example1 alpha=2': '86cb410e56ad9f3011eeab1a35c358f37b99f18cffc8017a6ae60a343c300513',
    'plan table1/replacement alpha=0': 'c22627a66d199cb9e04acc78d74123961f59cd0ae0e6fede39951e2718b55c0a',
    'plan table1/replacement alpha=0.5': 'e40e94cf280494d902f476d6c8f764dbe8220e30f7b28f8fd34c205d677868b1',
    'plan table1/replacement alpha=1': '1e90c24a602b6013947952d0ce467fc29ea8e16a8e33a82e850a1481e793ff4c',
    'plan table1/replacement alpha=2': 'f357d30e441517a563174da3e482903691d178fb2545aaa0184fb9c8dd7304dd',
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
    'verify detection_choice/detection_choice': 'a78d637497f53f9a02f5370f1f365283ae2916a542d4d277e3a1924e0c35688a',
    'verify full/detection_choice': '37f94ffef978cbda29df5437d76223d1b57f5ed4c3bd698a5e19c7fd418d9af8',
    'verify full/example1': 'af0eaa242a7d31878ba6aae44fd7d978c509312d28752bfe26e363859e203dfc',
    'verify full/example2': '4920b74871b459fb3bb5204e8898e1b1b3a7d661f737f18c2d89fe0467fddb54',
    'verify full/replacement': 'f049495e8fa9fee131b3f81a76152bdc6c79ae1fd7ca5151bbc12319fbb618e8',
    'verify full/single_deblur': 'e0850e64c0e1a82ed0cd85f49aa90e510c98bed4a3072d03e5c50a19f1613b96',
    'verify shared_end/shared_end': 'e508d295e6e1d8391a8a950f8dfef588827cf8e45238db1d628e744967f7ad94',
    'verify table1/detection_choice': 'b02f51cac5165544d3edf25affb7a5f19d37357642b4be8bdede8e444befd3ed',
    'verify table1/example1': 'bb4583a76b19ab5bb26d2b9188547e4d59a5767421a54f740a2975b3c251338d',
    'verify table1/replacement': '6a103cb3f6420d34fc3d43a313b7cf9438127792f03b3c32cb056e844c75139c',
    # Re-recorded once stochastic draws came from a BLAKE2b digest of the
    # (seed, node, attempt) key instead of numpy's generator: the draws moved.
    'plan full/detection_choice stochastic seed=0 alpha=0': 'a6310bc1f466c727b49917ce382a606985b470ced28217dd09870a71a179e908',
    'plan full/detection_choice stochastic seed=0 alpha=0.5': 'ca8927592cd9e47d58f57120fef48bacccb2444394461f6d8f74a9788f2e3f72',
    'plan full/detection_choice stochastic seed=0 alpha=1': 'a8f0839c3cbb9be9b6565c97a76ff103a5f27b4af805d4e3575a4362fe08a089',
    'plan full/detection_choice stochastic seed=0 alpha=2': '0a4bcef191eaa61edc5cea7b7b345c00d243f01aae356ddbccc4aecfb25da2f4',
    'plan full/detection_choice stochastic seed=2 alpha=0': 'f0836d9d4760e222f8facebdb7198c3c10f5ed2a8962614e13ac941631e9fa68',
    'plan full/detection_choice stochastic seed=2 alpha=0.5': '00319ac1518dad084ef37d295d1859bf06a06d8b7395b3d912b3efb2f1e75a49',
    'plan full/detection_choice stochastic seed=2 alpha=1': 'de4bcc90f2b5e1dfd9a42f0fc17163a83430e2ca101f9e18d9a99888beee09d2',
    'plan full/detection_choice stochastic seed=2 alpha=2': 'afe1f5d7e45e90a29b35b00a5fc65223b1dbb2bbf1775032a53eae3db67a16b3',
    'plan full/example1 stochastic seed=0 alpha=0': 'ecd94f1b30cf4a524d5975de42b7d81c8bf1557598743887286f11288cd94cb4',
    'plan full/example1 stochastic seed=0 alpha=0.5': 'ea6b45cc96e97c07d300f9597929e498bb0c3096d7ca5a7babd7bf48b0ec3ad5',
    'plan full/example1 stochastic seed=0 alpha=1': 'c57313aac9f15cd303e60d28128a86f3df001dc9ff6e6d273256052045ef0e0d',
    'plan full/example1 stochastic seed=0 alpha=2': '11b35274955a41f3fb7c2896ff1456f5577def24a489ef0c328baff715afa705',
    'plan full/example1 stochastic seed=2 alpha=0': 'c6fac10757ef86c087e28ab0a59fadd8c0a494c5f0c6f5c9c72d99faa8af2015',
    'plan full/example1 stochastic seed=2 alpha=0.5': 'd0f79dee4bd83bac9622a500c2070ef4fbd60f79ebed61c11e49f0c6c75b4a37',
    'plan full/example1 stochastic seed=2 alpha=1': 'f04ff86da77b4487e345e508e9099b912ad5bf2389faadd95190b41d94b99c8a',
    'plan full/example1 stochastic seed=2 alpha=2': '5ac024d6158de72d8547f7f86a09ea74f1b14416bed8f196f8df73d31bdc93a5',
    'plan full/example2 stochastic seed=0 alpha=0': 'a243888730379ef505a21510b5fddfd74bdd7c454df890781078545cebb5f564',
    'plan full/example2 stochastic seed=0 alpha=0.5': 'b3c1c0fc51fc006c78ef4ff693017a5913b5dbb5b53c997b3810bf3f91c74e0b',
    'plan full/example2 stochastic seed=0 alpha=1': '0f09944b37748cf884b8c5bfeaa55a3e93094546c984d5151eccd429509e1887',
    'plan full/example2 stochastic seed=0 alpha=2': 'b23df02ab882aa97ff416a25429ce8065276d08a2727e490286450acdd43ea96',
    'plan full/example2 stochastic seed=2 alpha=0': '2b32829763077a5aabd95fc856f23f9ef7d72d54dd3e3a51ec390e95fafeea95',
    'plan full/example2 stochastic seed=2 alpha=0.5': 'f4fd35113d03a4fc9b626729f66fd28beb6291e3a648215c60151078301c92c8',
    'plan full/example2 stochastic seed=2 alpha=1': '90a257d32403b5e22b2bc0393c844060f16a8b625e022ab956101224d98d277c',
    'plan full/example2 stochastic seed=2 alpha=2': '95b9dfb0be8695ac226c1fa2362c9e481008ae4623a2b0a9372cdfbd030420ba',
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_cli_output_digest(case, tmp_path):
    assert _digest(case, tmp_path) == GOLDEN[case]


def _retrying_plan_trace(workdir: Path) -> list[dict]:
    """Trace events of a stochastic plan that retries and passes."""
    argv, _ = CASES["plan full/example2 stochastic seed=2 alpha=2"]
    out = workdir / "out"
    assert main([str(out) if a == "OUT" else a for a in argv]) == 0
    return json.loads(Path(f"{out}.trace.json").read_text(encoding="utf-8"))["events"]


def test_stochastic_plan_trace_holds_a_passing_retry(tmp_path):
    # Without a passing retry the stochastic digests would not pin g_path.
    assert sum(e["g_path"] is not None for e in _retrying_plan_trace(tmp_path)) >= 1


def test_trace_events_carry_one_g(tmp_path):
    events = _retrying_plan_trace(tmp_path)
    keys = {"node", "tool", "subtask", "argument", "ordinal", "attempt", "time_seconds", "quality", "decision", "g_path"}
    assert all(e.keys() == keys for e in events)
    # g_path is set exactly on a passing retry
    assert all((e["g_path"] is not None) == (e["decision"] == "pass" and e["attempt"] > 1) for e in events)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as tmp:
        for i, case in enumerate(sorted(CASES)):
            workdir = Path(tmp) / str(i)
            workdir.mkdir()
            print(f"    {case!r}: {_digest(case, workdir)!r},")
