"""Fixtures shared by several test modules."""

import time

import pytest

from tanbun.expr import DEFAULT_CONFIG
from tanbun.corpus import corpus_list, corpus_run


@pytest.fixture(scope="session")
def corpus():
    """The whole corpus at the default config, run once per session:
    ({name: CorpusResult}, seconds taken)."""
    t0 = time.time()
    results = {e.name: corpus_run(e.name, DEFAULT_CONFIG)
               for e in corpus_list()}
    return results, time.time() - t0
