"""What the CLI prints stays byte for byte what it printed when the digests were recorded.

The corpus (``output_corpus.py``) runs every subcommand, to stdout and to
``--output`` files, and their common errors, on fixtures from two seeds whose
bytes do not depend on numpy's CPU dispatch; files that a run writes are
digested too. Each dispatch path this host supports runs the whole corpus in
one child process and is compared with the digests recorded for that numpy
version and path, and with those common to every recorded path; one with none
recorded is skipped.
"""

import argparse
import json

import pytest

from output_corpus import DIGESTS, NO_AVX512, SEEDS, all_cases, expected_runs, run_child
from uqgate import cli

RECORDED = json.loads(DIGESTS.read_text(encoding="utf-8"))


@pytest.mark.parametrize("disable", [None, NO_AVX512], ids=["default", "no-avx512"])
def test_output_bytes_match_the_recorded_digests(tmp_path, disable):
    child = run_child(tmp_path, disable)
    assert child.returncode == 0, child.stderr
    result = json.loads(child.stdout)
    assert result["fixtures"] == RECORDED["fixtures"]
    expected = expected_runs(RECORDED, result["path"])
    if expected is None:
        pytest.skip(f"no digests recorded for {result['path']}")
    assert sorted(result["runs"]) == sorted(expected)
    changed = {case: run for case, run in result["runs"].items() if run != expected[case]}
    assert not changed, f"output bytes changed in {sorted(changed)}"


def test_every_subcommand_has_a_case():
    parser = cli._build_parser()
    commands = next(action.choices for action in parser._actions
                    if isinstance(action, argparse._SubParsersAction))
    for _, synth_seed in SEEDS.values():
        assert set(commands) <= {argv[0] for argv in all_cases(synth_seed).values()}
