import sys
from pathlib import Path

import pytest
from hypothesis import settings

sys.path.insert(0, str(Path(__file__).parent))

REPO = Path(__file__).parent.parent

# The default profile keeps tier-1 fast. CI also runs the differential
# property of test_equivalence and the heap persistence property of
# test_runtime under this one:
#   pytest tests/test_equivalence.py tests/test_runtime.py \
#       -k "differential or persistence" --hypothesis-profile=differential
settings.register_profile("differential", max_examples=2000)


@pytest.fixture(scope="session")
def corpus_dir() -> Path:
    return REPO / "corpus"


@pytest.fixture(scope="session")
def fixtures_dir() -> Path:
    return Path(__file__).parent / "fixtures"
