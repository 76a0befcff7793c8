import sys
from pathlib import Path

import pytest
from hypothesis import settings

from seanode.fileformat import load
from seanode.ir import Program

sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).parent.parent
CORPUS_FILES = sorted((REPO / "corpus").glob("*.json"))

# The default profile keeps tier-1 fast. CI also runs every property whose
# name says "differential" and the heap persistence property under this one:
#   pytest tests -k "differential or persistence" --hypothesis-profile=differential
settings.register_profile("differential", max_examples=2000)


def corpus(name: str) -> Program:
    """A fresh load of the shipped program corpus/<name>.json."""
    return load(REPO / "corpus" / f"{name}.json")


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO / "corpus"


@pytest.fixture
def fact_graph():
    p = corpus("factorial")
    return p.graph(p.resolve("fact"))


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"
