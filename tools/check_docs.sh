#!/usr/bin/env bash
# Markdown hygiene gate (CTest `docs_hygiene`, label `docs`).
#
# Checks the invariants the top-level docs must keep:
#   1. Every intra-repo markdown link in the top-level docs resolves to an
#      existing file or directory (external http(s)/mailto links and pure
#      #anchors are skipped; a #section suffix on a file link is stripped).
#   2. Every source subsystem directory src/<dir> has an entry in
#      ARCHITECTURE.md (the subsystem map stays complete as directories
#      are added).
#   3. Every scenario registered in src/scenarios/registry.cpp has an
#      EXPERIMENTS.md entry (a scenario cannot land undocumented).
#   4. Environment knobs match both ways: every PYHPC_* variable src/
#      passes to getenv is documented in DESIGN.md §9 and in README.md, and
#      every PYHPC_* variable §9 lists as "(environment)" is read by src/ —
#      adding a knob without documenting it, or deleting one and leaving
#      its docs behind, fails the gate.
#   5. Config structs match README's "Runtime knobs" table both ways: every
#      data member of comm::CommConfig, odin::DriverOptions and
#      odin::ServiceOptions appears there as `Struct::field`, and every
#      `Struct::field` the table names for those structs exists — a row
#      left behind for a deleted field fails the gate.
set -euo pipefail

ROOT="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
DOCS=(README.md DESIGN.md ARCHITECTURE.md EXPERIMENTS.md ROADMAP.md)
fail=0

for doc in "${DOCS[@]}"; do
  path="$ROOT/$doc"
  if [ ! -f "$path" ]; then
    echo "MISSING DOC: $doc"
    fail=1
    continue
  fi
  # Extract markdown link targets: [text](target), one per line. Fenced
  # code blocks are dropped first — C++ lambdas like `[](T& x)` would
  # otherwise parse as links.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
      *' '*) continue ;;            # inline code, not a path
    esac
    target="${target%%#*}"          # strip section anchor
    [ -z "$target" ] && continue
    if [ ! -e "$ROOT/$target" ]; then
      echo "BROKEN LINK: $doc -> $target"
      fail=1
    fi
  done < <(awk '/^```/ { fence = !fence; next } !fence' "$path" \
             | grep -oE '\]\([^)]+\)' | sed -E 's/^\]\(//; s/\)$//')
done

ARCH="$ROOT/ARCHITECTURE.md"
if [ -f "$ARCH" ]; then
  for dir in "$ROOT"/src/*/; do
    name="$(basename "$dir")"
    if ! grep -q "src/$name" "$ARCH"; then
      echo "UNDOCUMENTED SUBSYSTEM: src/$name has no ARCHITECTURE.md entry"
      fail=1
    fi
  done
fi

REG="$ROOT/src/scenarios/registry.cpp"
EXPS="$ROOT/EXPERIMENTS.md"
if [ -f "$REG" ] && [ -f "$EXPS" ]; then
  # Scenario names are the first string of each registry row: {"name", ...
  while IFS= read -r scenario; do
    if ! grep -q "$scenario" "$EXPS"; then
      echo "UNDOCUMENTED SCENARIO: $scenario has no EXPERIMENTS.md entry"
      fail=1
    fi
  done < <(grep -oE '^\s*\{"[a-z0-9_]+"' "$REG" \
             | grep -oE '"[a-z0-9_]+"' | tr -d '"')
fi

DESIGN="$ROOT/DESIGN.md"
README="$ROOT/README.md"
# §9 runs from its "## 9." heading to the next "## " heading.
knobs="$(awk '/^## 9\./ { in_sec = 1; next } in_sec && /^## / { exit } in_sec' \
           "$DESIGN")"
if [ -z "$knobs" ]; then
  echo "MISSING SECTION: DESIGN.md has no §9 (runtime knobs)"
  fail=1
fi
read_vars="$(grep -rhoE 'getenv\("PYHPC_[A-Z0-9_]+"\)' "$ROOT/src" \
               | grep -oE 'PYHPC_[A-Z0-9_]+' | sort -u || true)"
listed_vars="$(printf '%s\n' "$knobs" | grep -E '\(environment\)' \
                 | grep -oE '`PYHPC_[A-Z0-9_]+' | tr -d '`' | sort -u || true)"
for var in $read_vars; do
  if ! printf '%s\n' "$knobs" | grep -q "$var"; then
    echo "UNDOCUMENTED KNOB: src/ reads $var but DESIGN.md §9 does not list it"
    fail=1
  fi
  if ! grep -q "$var" "$README"; then
    echo "UNDOCUMENTED KNOB: src/ reads $var but README.md does not list it"
    fail=1
  fi
done
for var in $listed_vars; do
  if ! printf '%s\n' "$read_vars" | grep -qx "$var"; then
    echo "STALE KNOB: DESIGN.md §9 lists $var but nothing in src/ reads it"
    fail=1
  fi
done

# README's "## Runtime knobs" section, up to the next "## " heading.
knob_table="$(awk '/^## Runtime knobs/ { in_sec = 1; next }
                   in_sec && /^## / { exit } in_sec' "$README")"
if [ -z "$knob_table" ]; then
  echo "MISSING SECTION: README.md has no \"Runtime knobs\" table"
  fail=1
fi
# Data members of `struct <name> {` ... `};` in <header>: non-comment lines
# that end a declaration and call nothing; the name is the last word before
# any initializer.
struct_fields() {
  awk -v open="struct $1 {" '$0 == open { in_s = 1; next }
                              in_s && /^};/ { exit } in_s' "$2" \
    | grep -vE '^[[:space:]]*//' | grep -E ';[[:space:]]*$' | grep -v '(' \
    | sed -E 's/[[:space:]]*(=|\{).*$//; s/;.*$//' | awk '{ print $NF }' \
    | sort -u
}
for spec in CommConfig:src/comm/config.hpp DriverOptions:src/odin/driver.hpp \
            ServiceOptions:src/odin/service.hpp; do
  name="${spec%%:*}"
  fields="$(struct_fields "$name" "$ROOT/${spec#*:}")" || true
  if [ -z "$fields" ]; then
    echo "MISSING STRUCT: $name not found in ${spec#*:}"
    fail=1
    continue
  fi
  for field in $fields; do
    if ! printf '%s\n' "$knob_table" | grep -q "$name::$field\b"; then
      echo "UNDOCUMENTED FIELD: $name::$field is not in README.md's knob table"
      fail=1
    fi
  done
  for named in $(printf '%s\n' "$knob_table" \
                   | grep -oE "\b$name::[A-Za-z_][A-Za-z0-9_]*" \
                   | sed "s/^$name:://" | sort -u); do
    if ! printf '%s\n' "$fields" | grep -qx "$named"; then
      echo "STALE FIELD: README.md's knob table names $name::$named, which ${spec#*:} does not declare"
      fail=1
    fi
  done
done

if [ "$fail" -ne 0 ]; then
  echo "docs hygiene: FAILED"
  exit 1
fi
echo "docs hygiene: OK"
