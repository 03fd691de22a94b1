"""Golden outputs: the SHA-256 of stdout for fixed command lines, run
in-process through ``cli.main``.

A refactor that must keep every report, ``verify exact`` proof and
``qseries`` output bit for bit is held to it here.  A changed digest is a
change of the report: it is made on purpose, and CHANGES.md names every
digest that changed.  ``python tests/test_golden.py`` prints both tables
as the current tree computes them.

A JSON report's digest is backed by a pin per record: its ``worst`` as
``float.hex`` and a 4-hex-digit digest of each other field, so a mismatch
names the first record and field that differ, not only the hash.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math

import pytest

from appell_kit.cli import RECORD_FIELDS, main
from appell_kit.qexact import QSERIES_NAMES

#: The argv the table covers, each a space-separated command line.
COMMANDS = (
    *(f"verify all --samples 100 --seed {seed}{fmt}" for seed in (0, 1) for fmt in ("", " --format csv")),
    *(f"verify exact --exact-order {order}" for order in (1, 2, 3, 5, 80, 81, 800, 801)),
    *(f"qseries {name} --order {order}" for name in QSERIES_NAMES for order in (0, 1, 3, 40, 400)),
)

#: The commands whose stdout is a JSON report, each pinned record by record.
JSON_REPORTS = tuple(c for c in COMMANDS if c.startswith("verify all") and "csv" not in c)

#: SHA-256 of each command's stdout.
GOLDEN = {
    "verify all --samples 100 --seed 0": "952870690a489ce4c3f86722f63d1d4e85537bc82c33503db7d70903551a3aef",
    "verify all --samples 100 --seed 0 --format csv": "e4bfef69375bfae38cb3e3baa505b8c972d38b8edbdd4a230ffe4a8f310ac7bd",
    "verify all --samples 100 --seed 1": "bd1f1c438c422b6c6e010689a0bd3e4395557e0077da8b393c34a4cc31a8e3b2",
    "verify all --samples 100 --seed 1 --format csv": "89aec299aa9d7f5c68a580a42f475bb4cd3db8a45c5fbf551b9aeaf3ecc3970c",
    "verify exact --exact-order 1": "e9d25670983bacddbece139c17e33736d834fea7b024e90dc58f51b4db8af4fb",
    "verify exact --exact-order 2": "700bd7f9baf8d9cb002920c4407ebcd1ba501b670242f44703b78a027de04675",
    "verify exact --exact-order 3": "1681178861d5021dca614b61b29b3088903ef36189e5fe3454f19093893ece3d",
    "verify exact --exact-order 5": "9e3a4783f5e6c6dd23a6b0f1cba02149ec05a84fbbf953c08811a913e1f9f548",
    "verify exact --exact-order 80": "e6154925ab0f338fd67400fe38c9b905b6e9bb88a861dda0e5c5b81274486c15",
    "verify exact --exact-order 81": "36b6f74b7d668274b6ee31378fef961661c53d36a0e4b62a80ff327d850e27eb",
    "verify exact --exact-order 800": "94843dec86a708b115a8aa0228feae06794c36bbf59ddb6c4ec922a7446122b7",
    "verify exact --exact-order 801": "7052d8dc453a3e0b8d914f68d27cac3a289be4dee0346ad113bf74ea2ac2fb02",
    "qseries t3 --order 0": "8eaf95b7bad46016df54fedc69b3757c3b0b8582c08884c07b9487f0c853f749",
    "qseries t3 --order 1": "632782133bba92440f952e138a99436b4f61762c42faa31fd4c98e4b3f4d2a5f",
    "qseries t3 --order 3": "ee24dd29f53a30a4077f4ac499739ad73c7de38e81ad3b11c62b555bc2b68956",
    "qseries t3 --order 40": "4a9048ac8a8590c0a0611c4d5347b36c3dc72861e88174f3ee3f2166d648e1d2",
    "qseries t3 --order 400": "bdd2fd2fde0a8b7d97511f704d5a6fa98228ba3abc8eb7c8d1ce7e7e865954bd",
    "qseries double_sum --order 0": "650095443c35061dbeb8bec1ae0df340ab419bded01c46aa4debe2376be92263",
    "qseries double_sum --order 1": "f89a46d8719a01588104691da57b10ebd6b3c1095af4c49db974fc4b01c57b1e",
    "qseries double_sum --order 3": "646cd99fa714bdc4d3365904d8b9eeec5db86abfdc2d7bab67f8739963f8d4a1",
    "qseries double_sum --order 40": "3e402e018781ec84210fdc2612f94533a43c2c09cd6b34ea44b281aef84b35cc",
    "qseries double_sum --order 400": "2e058e17c60e1121fa85773ac00e0407b24771de7b34115abfd0369a262fa3ec",
    "qseries andrews --order 0": "afef43356423c812c600fe8170081ac2e11c4be5aae8705419c6f92ed94d2824",
    "qseries andrews --order 1": "224d529ff6b6f9bb799e994576f4b50ce31598302e06f1dcc6b5025c80237e5d",
    "qseries andrews --order 3": "e5ed4c30229de435e77d2fa53727f20ea949bf73101f8e923e40f40255868b72",
    "qseries andrews --order 40": "f52fd109d3ce5a2e378a8ffb6468c5b3fc98daaa86b232b5b064666e9e6e1c59",
    "qseries andrews --order 400": "19500cca8096c1d93dd864e2eab6269e23d4fce5c8edc854a3b7d764b91fc7a4",
    "qseries for1_lhs --order 0": "4ecd03d8b78615aa96c36cf8d8fe07c804e7e0f09b1f19138372f9f3ef42ed3b",
    "qseries for1_lhs --order 1": "1e82db733ec756a701214f541796e6bde003d9566c011304ab9d171d51351aac",
    "qseries for1_lhs --order 3": "c5f633d0b3690a9444be9477105832dda948c8236a287258cb638df06ce936a4",
    "qseries for1_lhs --order 40": "b677dc3109b80498ca2b269fbb7591239d3aad7c5a4cbb968e6d396b986df95a",
    "qseries for1_lhs --order 400": "290dd87e235f56dfdf58fefe469fda7b5041d321296af1a5770ffc940f111df7",
    "qseries for1_rhs --order 0": "92477fabde95918f22e7f8b2e42d039468017fa99f712876a056c637d8ed0f0f",
    "qseries for1_rhs --order 1": "4ede1c40cbd632abec5ed2ebcbc6817d193cc2fc7ec0b00bdb060f95cdd28147",
    "qseries for1_rhs --order 3": "338d550399cc118712a2584ff9a5ef46d71929572df967d34a719c590ae31c83",
    "qseries for1_rhs --order 40": "429e21ab26b4a33326a72e7a9134e734b84b7cc3e8871a39427dbca302caa82d",
    "qseries for1_rhs --order 400": "c8351a908c2b859c2754ff0264c3b726a66e3f48c6bd422183e566d2463a077f",
    "qseries for2_lhs --order 0": "822363cb582ab73b9b862783ae0a02cba9df1a6ce3529ef985ed8732931559ee",
    "qseries for2_lhs --order 1": "8059b12c988856d31ab14db029e13733a515dcf8cdae1aaf6549279698e6bab4",
    "qseries for2_lhs --order 3": "bdc4b90a77129991d5a9e81ee40112640c558b309291f18ddf387b23c1a85248",
    "qseries for2_lhs --order 40": "fba60329d2e593fa2ad012ea549a8be960348a11395a21c6765ebd114f2f93a0",
    "qseries for2_lhs --order 400": "3106459ae3dde81e420cbee47cf5ff9da204710e02e751a0d9e1384fdb3f8376",
    "qseries for2_rhs --order 0": "dc218ec5ad467839d17fa274e6a23270c2cbbf0b848f8a153395309767391881",
    "qseries for2_rhs --order 1": "6b5cb43c7ef7b34acb2ab76b0d12714d5e9f3c50b7a11bb34334abd46aa7e388",
    "qseries for2_rhs --order 3": "0e6ecc290ca559ed19a8d0e0ab4cf865eccc5375b5f4eeff55f6f460d97bbf0d",
    "qseries for2_rhs --order 40": "51cfc9abac630a15c4f85f37717ad13e18c611d71231a57c1719c9dee893bdb8",
    "qseries for2_rhs --order 400": "39daaae5eb9fd2efa6952d84418f6ab12ac507aa7d73dc40a53e378746f66097",
}

#: For each JSON report: record id -> its worst as float.hex (None for an
#: exact record), then one 4-hex-digit digest per other field.
RECORD_PINS = {
    "verify all --samples 100 --seed 0": {
        "ADDF": ("0x1.57dd64638da7ep-50", "5d8d79cdb5be689a"),
        "BEZOUT_PAIR": ("0x1.1e3779b97f4a8p-50", "4c5279cdb5be2bf8"),
        "CHI_MULTIPLICATIVITY": ("0x0.0p+0", "878879cdb5be649a"),
        "CONST_CA_CROSS": ("0x1.ea62d612ba915p-52", "4c5279cdb5be479e"),
        "CONST_C_CROSS": ("0x1.99ccc999fff00p-53", "4c5279cdb5be8d94"),
        "DEF": ("0x1.4e16fdacff937p-50", "5d8d79cdb5bed03f"),
        "DEF2": ("0x1.4d991890a5ef2p-50", "5d8d79cdb5be4567"),
        "DET_B_SPREAD": ("0x1.b69d5940c5849p-52", "4c5279cdb5be1a77"),
        "DET_C_SPREAD": ("0x1.01fe03f61bad0p-51", "4c5279cdb5be13a6"),
        "DIVISIBILITY_GENERATORS": ("0x1.94a32883660c6p-50", "878879cdb5bec3c4"),
        "DIVISIBILITY_WORDS": ("0x1.711cf5ecfc2bdp-49", "878879cdb5be7c6a"),
        "FOR1": ("0x1.01fe03f61bad0p-49", "5d8d79cdb5bee8e5"),
        "FOR1_EXACT": (None, "afe37423b5be1c06"),
        "FOR2": ("0x1.7e0ced4480163p-47", "5d8d79cdb5be017b"),
        "FOR2_EXACT": (None, "afe37423b5be1c06"),
        "GAUGE_B_CONJ": ("0x1.75489a2e72855p-49", "4c5279cdb5be357a"),
        "GAUGE_C_CONJ": ("0x1.914614f088a71p-52", "4c5279cdb5bef87d"),
        "HADD": ("0x1.2a34c313063c5p-48", "5d8d79cdb5bef034"),
        "HADD2": ("0x1.3556ef80c257fp-47", "5d8d79cdb5beb3c5"),
        "HADD3": ("0x1.4a77186b5c74fp-48", "5d8d79cdb5be3386"),
        "HALFSER_M": ("0x1.32434873b7250p-51", "5d8d79cdb5be8367"),
        "HALFSER_P": ("0x1.f89c569873383p-52", "5d8d79cdb5be5ba3"),
        "ID4": ("0x1.23dba90ac209bp-44", "5d8d79cdb5be5f7f"),
        "ID55": ("0x1.5eda97b582051p-49", "5d8d79cdb5bea0d9"),
        "ID5PROD": ("0x1.6928b644c5388p-48", "5d8d79cdb5befb9c"),
        "ID5SUM": ("0x1.4fdff1b5f99fep-46", "5d8d79cdb5be4a7a"),
        "ID6": ("0x1.51c36315fdc6dp-45", "5d8d79cdb5be711a"),
        "INV": ("0x1.7d2ad3ad6647fp-51", "5d8d79cdb5be2175"),
        "JAC": ("0x1.19c21e1bdbc05p-50", "5d8d79cdb5bed887"),
        "K_GAMMA_IDENTITY": ("0x0.0p+0", "878879cdb5be1673"),
        "MU_EXPANSION": ("0x1.b365d916f2f52p-49", "4c5279cdb5be035a"),
        "QUASI": ("0x1.15d65aee7a82ap-43", "5d8d79cdb5bef6fa"),
        "SECTION_BASIS": ("0x1.49b95206a4f36p-50", "4c5279cdb5be4cce"),
        "SECTION_KAPPA_THETA": ("0x1.4000000000000p-51", "4c5279cdb5bebdac"),
        "SECTION_PUSH": ("0x1.cd82b446159f3p-52", "4c5279cdb5bee7d7"),
        "SECTION_THETA": ("0x1.4000000000000p-51", "4c5279cdb5be2ec1"),
        "SP1": ("0x1.041f800f9f958p-48", "5d8d79cdb5be933a"),
        "SP2": ("0x1.bce0d4394d874p-51", "5d8d79cdb5becce9"),
        "SP3": ("0x1.1e3779b97f4a8p-51", "5d8d79cdb5be91bb"),
        "SP4": ("0x1.8000000000000p-52", "5d8d79cdb5bedeeb"),
        "SP5": ("0x1.51b8af1b2007bp-51", "5d8d79cdb5be3ea7"),
        "SQRT": ("0x1.accd906dde12bp-49", "5d8d79cdb5be4657"),
        "SYM": ("0x1.2071b0abcd838p-50", "5d8d79cdb5be890f"),
        "TRIANGULAR_ANDREWS": (None, "afe37423b5bed38b"),
        "TRIANGULAR_COUNTS": (None, "afe37423b5bedaa2"),
        "TRIANGULAR_DOUBLE_SUM": (None, "afe37423b5bed38b"),
        "ZETA_SQ_COCYCLE": ("0x1.53835ec79376ap-49", "878879cdb5beadbf"),
    },
    "verify all --samples 100 --seed 1": {
        "ADDF": ("0x1.b586426837645p-50", "5d8d79cdb5be689a"),
        "BEZOUT_PAIR": ("0x1.1e3779b97f4a8p-50", "4c5279cdb5be2bf8"),
        "CHI_MULTIPLICATIVITY": ("0x0.0p+0", "878879cdb5be649a"),
        "CONST_CA_CROSS": ("0x1.e6181bc899a20p-52", "4c5279cdb5be479e"),
        "CONST_C_CROSS": ("0x1.99ccc999fff00p-53", "4c5279cdb5be8d94"),
        "DEF": ("0x1.5a22073490377p-51", "5d8d79cdb5bed03f"),
        "DEF2": ("0x1.3b9b250435465p-49", "5d8d79cdb5be4567"),
        "DET_B_SPREAD": ("0x1.152830d6bc56dp-50", "4c5279cdb5be1a77"),
        "DET_C_SPREAD": ("0x1.6a09e667f3bcdp-52", "4c5279cdb5be13a6"),
        "DIVISIBILITY_GENERATORS": ("0x1.94a32883660c6p-50", "878879cdb5bec3c4"),
        "DIVISIBILITY_WORDS": ("0x1.cea544f13893cp-50", "878879cdb5beccb2"),
        "FOR1": ("0x1.f25131ed54d6cp-50", "5d8d79cdb5bee8e5"),
        "FOR1_EXACT": (None, "afe37423b5be1c06"),
        "FOR2": ("0x1.ca029caa58065p-47", "5d8d79cdb5be017b"),
        "FOR2_EXACT": (None, "afe37423b5be1c06"),
        "GAUGE_B_CONJ": ("0x1.f1cd9cceef239p-50", "4c5279cdb5be357a"),
        "GAUGE_C_CONJ": ("0x1.9033fe230cd0ep-52", "4c5279cdb5bef87d"),
        "HADD": ("0x1.9ad591960574fp-50", "5d8d79cdb5bef034"),
        "HADD2": ("0x1.69c3cb143388ep-46", "5d8d79cdb5beb3c5"),
        "HADD3": ("0x1.a2926e5039dccp-46", "5d8d79cdb5be3386"),
        "HALFSER_M": ("0x1.422c14a675802p-51", "5d8d79cdb5be8367"),
        "HALFSER_P": ("0x1.419894c2329f0p-51", "5d8d79cdb5be5ba3"),
        "ID4": ("0x1.42045f0f4ab98p-47", "5d8d79cdb5be5f7f"),
        "ID55": ("0x1.3dbf1ae96a828p-47", "5d8d79cdb5bea0d9"),
        "ID5PROD": ("0x1.7770f6e8c9e71p-48", "5d8d79cdb5befb9c"),
        "ID5SUM": ("0x1.69b842ea440c9p-47", "5d8d79cdb5be4a7a"),
        "ID6": ("0x1.564fc7cbfb9c8p-47", "5d8d79cdb5be711a"),
        "INV": ("0x1.136f63ded98c7p-50", "5d8d79cdb5be2175"),
        "JAC": ("0x1.f1ef41ba070d7p-51", "5d8d79cdb5bed887"),
        "K_GAMMA_IDENTITY": ("0x0.0p+0", "878879cdb5be1673"),
        "MU_EXPANSION": ("0x1.17e2bca46bab9p-48", "4c5279cdb5be035a"),
        "QUASI": ("0x1.9e48fa02fcf4dp-45", "5d8d79cdb5bef6fa"),
        "SECTION_BASIS": ("0x1.bd0715987e69fp-50", "4c5279cdb5be4cce"),
        "SECTION_KAPPA_THETA": ("0x1.68ac88cc83a94p-51", "4c5279cdb5bebdac"),
        "SECTION_PUSH": ("0x1.a0cd087686c66p-52", "4c5279cdb5bee7d7"),
        "SECTION_THETA": ("0x1.68ac88cc83a94p-51", "4c5279cdb5be2ec1"),
        "SP1": ("0x1.d1e7b8940e1f5p-48", "5d8d79cdb5be933a"),
        "SP2": ("0x1.669e017fe6250p-51", "5d8d79cdb5becce9"),
        "SP3": ("0x1.4000000000000p-51", "5d8d79cdb5be91bb"),
        "SP4": ("0x1.d4fa96b3b1971p-53", "5d8d79cdb5bedeeb"),
        "SP5": ("0x1.72a0a12822145p-51", "5d8d79cdb5be3ea7"),
        "SQRT": ("0x1.0ebef1e70a753p-46", "5d8d79cdb5be4657"),
        "SYM": ("0x1.bb1d632784a1bp-50", "5d8d79cdb5be890f"),
        "TRIANGULAR_ANDREWS": (None, "afe37423b5bed38b"),
        "TRIANGULAR_COUNTS": (None, "afe37423b5bedaa2"),
        "TRIANGULAR_DOUBLE_SUM": (None, "afe37423b5bed38b"),
        "ZETA_SQ_COCYCLE": ("0x1.53835ec79376ap-49", "878879cdb5beadbf"),
    },
}

#: The fields a record pin digests, in RECORD_FIELDS order.
DIGESTED_FIELDS = tuple(field for field in RECORD_FIELDS if field not in ("record_id", "worst"))


def _stdout(command: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = main(command.split())
    return code, out.getvalue()


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _pin(record: dict) -> tuple[str | None, str]:
    worst = record["worst"]
    fields = "".join(_sha256(json.dumps(record[f]))[:4] for f in DIGESTED_FIELDS)
    return (None if worst is None else float.hex(worst)), fields


def _first_difference(pins: dict, records: list[dict]) -> str:
    """Where ``records`` first part from ``pins``, in report order."""
    now = {record["record_id"]: record for record in records}
    for record_id in sorted(set(pins) | set(now)):
        if record_id not in now or record_id not in pins:
            return f"record {record_id} is {'missing' if record_id not in now else 'new'}"
        (worst_was, fields_was), (worst, fields) = pins[record_id], _pin(now[record_id])
        if worst != worst_was:
            return f"record {record_id}: worst is {worst}, pinned {worst_was}"
        for i, field in enumerate(DIGESTED_FIELDS):
            if fields[4 * i:4 * i + 4] != fields_was[4 * i:4 * i + 4]:
                return f"record {record_id}: {field} changed, now {now[record_id][field]!r}"
    return "every record matches its pins: the change lies outside the records"


def test_the_table_covers_every_command():
    assert sorted(GOLDEN) == sorted(COMMANDS)
    assert sorted(RECORD_PINS) == sorted(JSON_REPORTS)


@pytest.mark.parametrize("command", COMMANDS)
def test_stdout_matches_its_golden_digest(command):
    code, out = _stdout(command)
    assert code == 0
    if _sha256(out) == GOLDEN[command]:
        return
    if command in RECORD_PINS:
        pytest.fail(f"{command}: {_first_difference(RECORD_PINS[command], json.loads(out)['records'])}")
    pytest.fail(f"{command}: stdout digest {_sha256(out)}, pinned {GOLDEN[command]}")


def test_first_difference_names_record_and_field():
    _, out = _stdout("verify all --samples 100 --seed 0")
    records = json.loads(out)["records"]
    pins = {record["record_id"]: _pin(record) for record in records}
    assert _first_difference(pins, records).startswith("every record matches")
    by_id = {record["record_id"]: record for record in records}
    by_id["QUASI"]["worst"] = math.nextafter(by_id["QUASI"]["worst"], math.inf)
    by_id["FOR1_EXACT"]["detail"] += "."
    assert _first_difference(pins, records).startswith("record FOR1_EXACT: detail changed")
    by_id["FOR1_EXACT"]["detail"] = by_id["FOR1_EXACT"]["detail"][:-1]
    assert _first_difference(pins, records).startswith("record QUASI: worst is ")
    records.remove(by_id["QUASI"])
    assert _first_difference(pins, records) == "record QUASI is missing"


if __name__ == "__main__":
    print("GOLDEN = {")
    for command in COMMANDS:
        print(f'    "{command}": "{_sha256(_stdout(command)[1])}",')
    print("}\n\nRECORD_PINS = {")
    for command in JSON_REPORTS:
        print(f'    "{command}": {{')
        for record in json.loads(_stdout(command)[1])["records"]:
            worst, fields = _pin(record)
            worst = "None" if worst is None else f'"{worst}"'
            print(f'        "{record["record_id"]}": ({worst}, "{fields}"),')
        print("    },")
    print("}")
