"""Fixtures shared by several test modules."""

import time

import pytest

from tanbun.expr import DEFAULT_CONFIG
from tanbun.corpus import corpus_run_all


@pytest.fixture(scope="session")
def corpus():
    """The whole corpus at the default config, run once per session:
    ({name: CorpusResult}, seconds taken)."""
    t0 = time.time()
    results = {r.name: r for r in corpus_run_all(DEFAULT_CONFIG)}
    return results, time.time() - t0
