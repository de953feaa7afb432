"""Every artifact of `prsafety run` on two seeded corpora, pinned by SHA-256.

The goldens under tests/golden hold report.txt and the index and model
tables; these digests also pin cues.csv, labels.csv, screening_report.json,
each model_<k>.json, ingest_errors.jsonl and manifest.json.  One corpus
embeds its comments in pulls.jsonl.  The other holds its comments on the
shuffled lines of comments.jsonl, with a line that is not JSON, a comment
whose role is outside ROLES and a comment naming a pull the corpus lacks.
The run uses relative paths, so the manifest's config holds the same text
in every checkout.  A change that moves an artifact byte on purpose updates
its digest here and says why in CHANGES.md.
"""

from __future__ import annotations

import hashlib
import json
import random
from pathlib import Path

import pytest

import synth
from prsafety import cli

EMBEDDED = {
    "cues.csv": "6149b8d45c2da9f1eeb0868f56c2af8fc38d687035b98f47da87e18ad3cb0053",
    "ingest_errors.jsonl": "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "labels.csv": "a88001b96b59398e205f49ff261f19d081f6113137dee03b1693c43273171fa7",
    "manifest.json": "d3453112d179013056f79fb5ae868846015d91d4a461d92de81ec75164d09310",
    "model_1.json": "5e50fe3e8ef0dfd46ac37042b6bc04292d6900726f2cb457d87629760b6a2e1e",
    "model_2.json": "f94231f456e8ba641449962d7d678584c43c5cbbbb4b7873f2352cf6b8ea9e24",
    "model_3.json": "f947675711e6ebeb3414d3cf4449918fdd1f0bb9774f50c9bd358072a6aa0872",
    "models_table.csv": "22fea1e9a99cf68e9bc78f5ef89e8070f919e0ecffd3312f7539dd8b8b76331e",
    "ps_index_contributor.csv": "037332ab805649dc3affdfee192c523b59916ed9d72fe464fd590b927c1f6523",
    "ps_index_repository.csv": "eacd6e5e3f5afe6dfa897f04d0cded14b951311c141cba7db6c2194b06963a6f",
    "report.txt": "6818c50d1e16c0429cf8b4fd6d26b132b9c5cb9d70395018ce0a5f074691feb6",
    "screening_report.json": "ccf2e8b84e6042143ddacf5d1d6923377f7a9e8a66b577845f03048a5407d48f",
}

SEPARATE = {
    "cues.csv": "14ed20068484b73789f7c45c39ad0577175cb6854a26dabc649c6c6e5cfbca38",
    "ingest_errors.jsonl": "abd465c2034d285fcf7c17f6b8f3b31617c1d267a7e02e481d8433734f13ba44",
    "labels.csv": "e43a77b09555eaea8d745a3577e5f57e9ca3e48857a1c738c6d840e1b4b5af89",
    "manifest.json": "374b2288972fa8265d6d47f6daeef51211b35863abcc488094638c3e8915fbf0",
    "model_1.json": "0ee6b885149bdfe0cd4f08229d6e95eced2d03b7cd57d34bb3022b0fd1740383",
    "model_2.json": "c02fe5f9ee53d19c82c457092800d12b71e7db574d0610cc3618e27f3529e6b9",
    "model_3.json": "f947675711e6ebeb3414d3cf4449918fdd1f0bb9774f50c9bd358072a6aa0872",
    "models_table.csv": "06b07762487bc7bfaf4229661a87a10421f0db26405cc0db04aa94847d4e4dc3",
    "ps_index_contributor.csv": "b7db201f0d12d8826f57ec129ebaa5f542a9886aeadd39fa3c885432a7ccc099",
    "ps_index_repository.csv": "0a9f09f2a6f658e4dc356dd9bdc9db80f941486d3c505121db299f4e1b31489d",
    "report.txt": "1a4110df5b176b9749a0ae5927d71454d0e0faec99d246b27f110dd5b948eecb",
    "screening_report.json": "02178d7da22da3585d85e53c94a9f51d0629f11a4536ac97e76202e8f0f60a3e",
}

RUN_FLAGS = ["--corpus", "corpus", "--out", "out", "--data-end", "2025-06-30", "--no-filter"]


def _move_comments_to_their_own_file(corpus: Path, seed: int) -> None:
    pulls, separate = [], []
    for line in (corpus / "pulls.jsonl").read_text("utf-8").splitlines():
        pull = json.loads(line)
        key = {"repo_full_name": pull["repo_full_name"], "pr_number": pull["pr_number"]}
        separate += [json.dumps({**key, **comment}) for comment in pull.pop("comments")]
        pulls.append(json.dumps(pull))
    separate += [
        '{"repo_full_name": "acme/alpha", "pr_number": 3, "role": "oth',
        json.dumps({"repo_full_name": "acme/beta", "pr_number": 2, "role": "owner",
                    "author": "ghost", "body": "bad role", "created_at": "2019-01-01T00:00:00Z"}),
        json.dumps({"repo_full_name": "acme/alpha", "pr_number": 9999, "role": "other",
                    "author": "ghost", "body": "orphan", "created_at": "2019-01-01T00:00:00Z"}),
    ]
    random.Random(seed).shuffle(separate)
    (corpus / "pulls.jsonl").write_text("\n".join(pulls) + "\n", encoding="utf-8")
    (corpus / "comments.jsonl").write_text("\n".join(separate) + "\n", encoding="utf-8")


@pytest.mark.parametrize("seed, split, pinned", [(7, False, EMBEDDED), (29, True, SEPARATE)])
def test_run_artifacts_keep_their_pinned_bytes(tmp_path, monkeypatch, capsys, seed, split, pinned):
    monkeypatch.chdir(tmp_path)
    synth.build_small_corpus(Path("corpus"), seed=seed)
    if split:
        _move_comments_to_their_own_file(Path("corpus"), seed)
    assert cli.main(["run", *RUN_FLAGS]) == 0
    assert capsys.readouterr().out == f"wrote {len(pinned)} artifacts to out\n"
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(Path("out").iterdir())}
    assert digests == pinned
