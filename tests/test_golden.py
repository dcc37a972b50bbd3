"""A fixed subset of the golden command-line digests (tests/golden).

The full set runs with ``python tests/golden/make_golden.py --check``.
"""

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent / "golden"))

import make_golden  # noqa: E402
from emdkit import cli  # noqa: E402

STORED = json.loads(make_golden.DIGESTS.read_text())
CASES = make_golden.cases()
SUBSET = sorted(
    cid for cid in CASES
    if cid.startswith(("am/", "multitone4/")) or cid.endswith("/emd")
)


@pytest.fixture(scope="module", autouse=True)
def shared_memd():
    """The multitone4 memd cases differ only in --post; decompose once.
    Results are immutable, so sharing them cannot leak between cases."""
    cache = {}
    memd = cli.memd

    def cached(x, K, cfg):
        key = (x.as_array().tobytes(), K, cfg)
        if key not in cache:
            cache[key] = memd(x, K, cfg)
        return cache[key]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(cli, "memd", cached)
        yield


def test_digests_cover_every_accepted_combination():
    assert sorted(STORED) == sorted(CASES)


@pytest.mark.parametrize("case_id", SUBSET)
def test_golden_case(case_id):
    assert make_golden.run_case(CASES[case_id]) == STORED[case_id]
