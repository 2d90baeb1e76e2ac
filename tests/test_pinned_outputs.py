"""Pinned command outputs on both bundled corpora.

`transform --transforms all`, `pbsmt generate`, `evaluate --transforms all`
and `mitigate` under each strategy must keep producing exactly these files.
The TSV digests leave out the `id` column (it names a row, not its content)
and the report digest leaves out `provenance.data` (a path). Generators are the session fixtures, saved with
`pbsmt.save_generator`; decoding runs on the validation split only, to keep
the test fast. `mitigate` pins `report.json` and `report.csv`, not
`params_mitigated.bin`, whose float bytes depend on the CPU.
"""

import hashlib
import json
from pathlib import Path

import pytest

from saladbench import cli, corpus, pbsmt, toyclf

DATA_DIR = Path(__file__).resolve().parent.parent / "src" / "saladbench" / "data"

CORPORA = {
    "single": ("toy_sentiment.tsv", ["--task", "single",
                                      "--labels", "negative,positive"],
               "sent"),
    "pair": ("toy_pairs.tsv", ["--task", "pair", "--labels", "no,yes",
                               "--default-label", "yes"], "pair"),
}

EXPECTED = {
    "single": {
        "transform_full":
            "bd6fe259b8526ce27b70fea2a38861c7f96d2d745d704a5beddbb97690b01810",
        "transform_val":
            "c4c0043cafb7b200062e0a3e098e27f5283a2f7c829d747bf3444679835326f6",
        "pbsmt_val":
            "9c1042463ecd61832bb583b1f9724aa78b900616fc5a703189344eafa936aec8",
        "evaluate_full":
            "62800c29e7ba994fb9e46445c85a068fe1e93f7cea8479405a376b1a16e0cf4b",
        "evaluate_val":
            "b79cfc429659686a9ced60ea3511498e9342cffaaa41f299b43c71b28c986093",
    },
    "pair": {
        "transform_full":
            "fd18dc41a0d5897d7f326577716265fa8d1494bbe67a628328efb99227e5ef36",
        "transform_val":
            "d6f5e6ad65af38c68c8bfd6ad5b6cd1b3ec12a391a3e90cf0f1a0008ffa6c035",
        "pbsmt_val":
            "e5aad88605cd0e03d870a54e01d10991987c3c15a165c9a01725d9e73aab704d",
        "evaluate_full":
            "f95016d94b492c120a0ec667f241afeed95d75fed4279c739d7cf2952caf5bc4",
        "evaluate_val":
            "8d1af93b07fe673988cc67ceaba026bea432c2ded9e8d908741fd1cbf9721f54",
    },
}


def _tsv_digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(out.glob("*.tsv")):
        h.update(path.name.encode() + b"\n")
        for line in path.read_text(encoding="utf-8").splitlines():
            h.update(line.split("\t", 1)[1].encode() + b"\n")
    return h.hexdigest()


def _report_digest(path: Path) -> str:
    report = json.loads(path.read_text(encoding="utf-8"))
    del report["provenance"]["data"]
    return hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()


@pytest.mark.parametrize("task", sorted(CORPORA))
def test_outputs_match_pinned_digests(task, request, tmp_path):
    name, task_args, fixture = CORPORA[task]
    params = request.getfixturevalue(f"{fixture}_base")
    gens = request.getfixturevalue(f"{fixture}_gens")
    _, val_ds = request.getfixturevalue(f"{fixture}_split")

    model = tmp_path / "params.bin"
    toyclf.save_params(params, model)
    gen_dir = tmp_path / "gens"
    for label, gen in gens.items():
        pbsmt.save_generator(gen, gen_dir / f"label_{label}")
    val_path = tmp_path / "val.tsv"
    corpus.save_dataset(val_ds, val_path)

    full = ["--data", str(DATA_DIR / name), *task_args]
    val = ["--data", str(val_path), *task_args]
    runs = {
        "transform_full": ["transform", *full, "--transforms", "all",
                           "--model", str(model)],
        "transform_val": ["transform", *val, "--transforms", "all",
                          "--model", str(model), "--pbsmt-dir", str(gen_dir)],
        "pbsmt_val": ["pbsmt", "generate", *val, "--models", str(gen_dir)],
        "evaluate_full": ["evaluate", *full, "--transforms", "all",
                          "--model", str(model)],
        "evaluate_val": ["evaluate", *val, "--transforms", "all",
                         "--model", str(model), "--pbsmt-dir", str(gen_dir)],
    }
    observed = {}
    for label, argv in runs.items():
        out = tmp_path / label
        assert cli.main([*argv, "--out", str(out)]) == 0, label
        observed[label] = (_report_digest(out / "report.json")
                           if argv[0] == "evaluate" else _tsv_digest(out))
    assert observed == EXPECTED[task]


MITIGATE_EXPECTED = {
    ("single", "invalid-class"):
        "08d8f0747f11a83f3ca0729cb533dd4f9d7afd4fc75e6d43bbcf58838b971e15",
    ("single", "threshold"):
        "1e5570a7ffd9769fc5a7d7eda14c8d4c860dc8881f7c34364aafa1135553f567",
    ("single", "entropic-threshold"):
        "d03dd8c2c48d64ee3a0be720a1679448231813b7696fbf25049cb185f731b0a1",
    ("pair", "invalid-class"):
        "bdeb09f6ac692031f5b11ff6ba9aacc7b87792b5af6c227b8fde5b39381858e0",
    ("pair", "threshold"):
        "bbfbcbb047e834b5e6d3a8c0cf03c2a7d4cd8a5acb305d66b4d08ce49f823d46",
    ("pair", "entropic-threshold"):
        "c3113962c3827c9a777ddcdb1d4158485a412465d7dce7027548b17948e5dc6c",
}


@pytest.mark.parametrize("task, strategy", sorted(MITIGATE_EXPECTED))
def test_mitigate_reports_match_pinned_digests(task, strategy, tmp_path):
    name, task_args, _ = CORPORA[task]
    out = tmp_path / "mit"
    assert cli.main(["mitigate", "--data", str(DATA_DIR / name), *task_args,
                     "--strategy", strategy, "--out", str(out)]) == 0
    h = hashlib.sha256()
    for report in ("report.json", "report.csv"):
        h.update((out / report).read_bytes())
    assert h.hexdigest() == MITIGATE_EXPECTED[task, strategy]
