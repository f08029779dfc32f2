import pathlib
import tokenize

import cohkit

# CPython's parser holds a module's tokens in one array that it doubles when
# full, so a module past 8,192 tokens costs about 0.5 MB more to compile
# (measured on CPython 3.11). A process that imports cohkit without a bytecode
# cache compiles every module, so a module that crosses the step has to do so
# as a recorded decision.
TOKEN_STEP = 8192


def _parser_tokens(path: pathlib.Path) -> int:
    # comments and line breaks inside statements never reach the parser
    with tokenize.open(path) as f:
        tokens = tokenize.generate_tokens(f.readline)
        return sum(t.type not in (tokenize.COMMENT, tokenize.NL) for t in tokens)


def test_every_module_stays_under_the_parser_token_step():
    modules = sorted(pathlib.Path(cohkit.__file__).parent.glob("*.py"))
    sizes = {path.name: _parser_tokens(path) for path in modules}
    assert "verify.py" in sizes
    assert {name: n for name, n in sizes.items() if n > TOKEN_STEP} == {}
