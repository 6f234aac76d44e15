"""Behaviour lock: fixed scenarios must end in the recorded trace and bytes.

The corpus is written by tests/record_golden_corpus.py, which also lists
what each case covers. A mismatch means behaviour changed; rerecord only if
that change is intended.
"""

import json

import pytest

from conftest import convergence_pin
from record_golden_corpus import CORPUS, SUITE_PIN, cases

RECORDED = json.loads(CORPUS.read_text())
CASES = list(cases())


def test_corpus_covers_every_case():
    assert sorted(RECORDED) == sorted([SUITE_PIN, *(name for name, _ in CASES)])


@pytest.mark.parametrize("name,record", CASES, ids=[c[0] for c in CASES])
def test_case_matches_recorded_fingerprint(name, record):
    assert record() == RECORDED[name]


def test_convergence_suite_matches_recorded_pin(convergence_suite):
    assert convergence_pin(convergence_suite) == RECORDED[SUITE_PIN]
