"""Golden outputs: SHA-256 digests of ``run_experiment`` records.

The digests were computed before the batched constraint protocol replaced
the per-draw and per-edit scalar loops. Any change to the evaluators, the
pool, refinement or the RNG streams that alters a sample shows up here,
which a rerun-determinism check (c10) cannot catch.

``sat-last-step``, ``sat-off`` and ``sudoku-off`` pin the steps without
search. They were recomputed when those steps moved from a per-step
Bernoulli commit to the first-hitting chain, which draws every position's
unmask step up front: the two have the same distribution but draw from the
generator in a different order.

``sat``, ``sudoku``, ``peptide`` and ``sudoku9`` search at every step. They
were recomputed, once and at the same seed, when the guided commit moved
from a per-step coin per masked position to the same up-front draw of
unmask steps (same distribution, different generator order):

- sat: 7262fe70... -> 2b0b6691...
- sudoku: 6422ffa1... -> e8d635a2...
- peptide: 34f57e02... -> 03332582...
- sudoku9: 8bba3913... -> 676da335...

The three placements without search every step stayed byte-identical: under
``last_step`` the coin at t=1 was the last draw of a sample and always
committed.

``sudoku-masked-edits`` and ``sudoku9-masked-edits`` pin refinement with
``allow_unmask_edits`` off, where edits go only to the positions still
masked (168 and 617 refinement rounds). They were computed before the
sampler, rather than ``refine``, took over narrowing the region. A SAT
entry would pin nothing new: its samples make 2 rounds, and its digest
equals the ``sat`` one.
"""

import hashlib
import json
from dataclasses import replace

import pytest

from mdsearch.harness.runner import presets, run_experiment

SEED = 11

CONFIGS = {
    "sat": replace(presets()["sat"], seed=SEED, num_samples=60),
    "sudoku": replace(presets()["sudoku"], seed=SEED, num_samples=60),
    "peptide": replace(presets()["peptide"], seed=SEED, num_samples=60),
    "sudoku9": replace(presets()["sudoku"], seed=SEED, num_samples=6,
                       sudoku_box=3, sudoku_blanks=40),
    "sat-last-step": replace(presets()["sat"], seed=SEED, num_samples=40,
                             placement="last_step"),
    "sat-off": replace(presets()["sat"], seed=SEED, num_samples=60, placement="off"),
    "sudoku-off": replace(presets()["sudoku"], seed=SEED, num_samples=60,
                          placement="off"),
    "sudoku-masked-edits": replace(presets()["sudoku"], seed=SEED, num_samples=60,
                                   allow_unmask_edits=False),
    "sudoku9-masked-edits": replace(presets()["sudoku"], seed=SEED, num_samples=6,
                                    sudoku_box=3, sudoku_blanks=40,
                                    allow_unmask_edits=False),
}

DIGESTS = {
    "sat": "2b0b66911f669e168496ca8d685a680e2f71f21a7bd885198be1ac257dfb17bb",
    "sudoku": "e8d635a281221fe374969d4bf0b9ceeb1e86b15943264f639128bb139fd57ea4",
    "peptide": "03332582c8e4ec0f5bf89c4df0d8cc46ddfed13369ad3ef689e8b86266ad3556",
    "sudoku9": "676da33527f462ffedee454e5acc636187c353d527b5253cccabcfb40545c459",
    "sat-last-step": "4bc031db62d5d4ee3be10ffd0b621dd9a6daf8b2b24aa0435d18f30616205c08",
    "sat-off": "7061bdf57d85a256b2ed01272945290a87f1b41c601e7f989b482561b46b3d47",
    "sudoku-off": "0a58a136a9834c0dc792f166f813ba2e8df3fa7b23c0b2e8649a507e45169286",
    "sudoku-masked-edits":
        "02a175a43447e324ef127730a09908dce00cabd0bbfae0569aeff715fef4dd44",
    "sudoku9-masked-edits":
        "df6c908647c4f21479418257dea3d60600fba962e485597742a23466cc9889c1",
}


def records_digest(cfg) -> str:
    """SHA-256 over (value, total, violations, rounds) of every record."""
    digest = hashlib.sha256()
    for record in run_experiment(cfg).records:
        assert record.error is None, record.error
        line = [record.value, record.total, list(record.violations), record.rounds]
        digest.update(json.dumps(line).encode() + b"\n")
    return digest.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_records_match_golden_digest(name):
    assert records_digest(CONFIGS[name]) == DIGESTS[name]
