#!/usr/bin/env bash
# Source lint gate (CTest `source_lint`, label `lint`).
#
# A contract check formats its message only when it fails:
# require(cond, parts...) streams its parts through util::cat on the
# failure path alone, so a passing check costs one branch. This gate fails
# when a require() call under src/ builds its message before the check
# instead — when an argument contains
#   - util::cat(            (a pre-formatted message),
#   - std::to_string(       (a pre-formatted number), or
#   - a `+` next to a string literal ("..." + s or s + "...").
# Pass the pieces as separate arguments: require(ok, "row ", r, " missing").
# Comments and the contents of string literals are ignored.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"

exec python3 - "$ROOT/src" <<'PY'
import pathlib
import re
import sys

src = pathlib.Path(sys.argv[1])
call_start = re.compile(r'\brequire\s*(?:<[^;(){}]*>)?\s*\(')
raw_literal = re.compile(r'\bR"([^(\s]*)\(.*?\)\1"', re.S)
literal = re.compile(r'"(?:[^"\\\n]|\\.)*"|\'(?:[^\'\\\n]|\\.)*\'')
comment = re.compile(r'//[^\n]*|/\*.*?\*/', re.S)
eager = [
    ("util::cat(", re.compile(r'\butil::cat\s*\(')),
    ("std::to_string(", re.compile(r'\bstd::to_string\s*\(')),
    ("'+' next to a string literal", re.compile(r'"S*"\s*\+|\+\s*"S*"')),
]


def blank_out(text):
    """Masks the contents of string/char literals (as S / c) and comments
    (as spaces), keeping every offset, so parentheses and `+` inside them
    do not count and positions still map to the original text."""
    def mask(m):
        s = m.group(0)
        keep = lambda fill: ''.join(c if c == '\n' else fill for c in s)
        if s.startswith('R"'):
            return ' "' + keep('S')[2:-1] + '"'
        if s.startswith('"'):
            return '"' + keep('S')[1:-1] + '"'
        if s.startswith("'"):
            return "'" + keep('c')[1:-1] + "'"
        return keep(' ')
    token = re.compile('|'.join(p.pattern for p in (raw_literal, literal,
                                                     comment)), re.S)
    return token.sub(mask, text)


failures = 0
for path in sorted(list(src.rglob('*.hpp')) + list(src.rglob('*.cpp'))):
    text = path.read_text()
    code = blank_out(text)
    for m in call_start.finditer(code):
        depth, i = 1, m.end()
        while depth and i < len(code):
            depth += {'(': 1, ')': -1}.get(code[i], 0)
            i += 1
        args = code[m.end():i - 1]
        for what, pattern in eager:
            if pattern.search(args):
                line = code.count('\n', 0, m.start()) + 1
                call = ' '.join(text[m.start():i].split())
                print(f"EAGER MESSAGE ({what}): "
                      f"{path.relative_to(src.parent)}:{line}: {call}")
                failures += 1
                break

if failures:
    print(f"{failures} require() call(s) format their message before the "
          "check; pass the parts instead: require(cond, \"a \", x, \" b\")")
    sys.exit(1)
print("source lint: every require() formats its message only on failure")
PY
