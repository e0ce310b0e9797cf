"""Every run of the committed output corpus (:mod:`corpus`) still prints what
it printed when ``corpus.json`` was written."""

import pytest

import corpus

ENTRIES = corpus.load()


def test_corpus_holds_every_run_once():
    assert [entry["argv"] for entry in ENTRIES] == corpus.RUNS


@pytest.mark.parametrize("entry", ENTRIES, ids=[" ".join(entry["argv"]) for entry in ENTRIES])
def test_run_prints_what_the_corpus_holds(entry):
    assert corpus.outcome(entry["argv"]) == entry
