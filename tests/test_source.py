"""Source-size guard for the package modules."""

import tokenize
from pathlib import Path

import pytest

import aopu

MODULES = sorted(Path(aopu.__file__).parent.glob("*.py"))

# token types the parser never sees
SKIPPED = (tokenize.COMMENT, tokenize.NL, tokenize.ENCODING)


def parser_tokens(path: Path) -> int:
    with open(path, "rb") as fh:
        tokens = tokenize.tokenize(fh.readline)
        return sum(1 for tok in tokens if tok.type not in SKIPPED)


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_stays_below_4096_parser_tokens(path):
    """CPython 3.11's parser keeps a module's tokens in an array that doubles
    when it fills. Past 4096 tokens (comments and blank lines excluded) it
    doubles once more, and a process that compiles the package from source
    (bytecode writing off) peaks about 0.25 MiB higher while compiling that
    module; the benchmark's ``peak_rss_mb`` rises by as much. Split a
    module before it crosses that size."""
    assert parser_tokens(path) < 4096
