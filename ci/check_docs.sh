#!/usr/bin/env bash
# Doc hygiene gate, run by ci/check.sh between the traced smoke and the
# perf baseline:
#
#   1. Relative links in the markdown docs must resolve: every
#      [text](path) whose target is not http(s)/mailto/#anchor is checked
#      against the filesystem, relative to the file containing it.
#   2. Every `--flag` a doc mentions must exist — either in the live
#      `hia_campaign --help` output (so the handbook can never document a
#      flag the binary dropped) or in the allowlist of flags that belong
#      to other tools (cmake/ctest/ci scripts, bench-only harness flags).
#   3. A short list of load-bearing flags (resilience + overload control)
#      must be present in BOTH --help and the docs: the binary growing a
#      flag the handbook never mentions is as much a doc bug as the
#      reverse.
#   4. hia_plan is held to the strictest contract: EVERY flag its --help
#      lists must appear in the docs, and every documented hia_plan flag
#      must exist in --help (the planner handbook is the operator's only
#      interface to the replay engine).
#   5. The `--faults` and `--overload` directives listed in
#      docs/FAILURE_MODEL.md's two directive tables and in the
#      "(directives: ...)" notes of `hia_campaign --help` must be the same
#      two sets, so a directive the parser drops cannot linger in the docs.
#   6. Every tool in tools/ must have a docs section: a markdown heading
#      naming the tool somewhere in README.md or docs/.
#
#   ci/check_docs.sh [path/to/hia_campaign] [path/to/hia_plan]
#
# The binaries default to ./build/examples/hia_campaign and
# ./build/tools/hia_plan; pass paths explicitly when checking a
# non-default build tree.
set -euo pipefail
cd "$(dirname "$0")/.."

campaign="${1:-./build/examples/hia_campaign}"
plan="${2:-./build/tools/hia_plan}"
docs=(README.md DESIGN.md EXPERIMENTS.md ROADMAP.md CHANGES.md docs/*.md)

# Flags documented for tools other than hia_campaign. Keep this list
# short and justified — an unknown flag should fail, not get allowlisted
# reflexively.
allow_flags=(
  --build --preset --test-dir --output-on-failure  # cmake / ctest
  --fast                                           # ci/check.sh
  --no-trace                                       # bench ObsCli harness
  --interval --slo --plain                         # examples/hia_top console
  --top                                            # tools/critical_path
  --stats                                          # tools/events_lint
  --workload --seed --seconds --self-test          # perfbench/run.py
  --numstat                                        # git diff
  --help                                           # meta: docs talk about --help itself
)

fail=0

echo "--- markdown relative links"
for doc in "${docs[@]}"; do
  dir="$(dirname "$doc")"
  # Inline links only: [text](target). Reference-style links are not used
  # in this repo's docs.
  while IFS= read -r target; do
    case "$target" in
      http://*|https://*|mailto:*|'#'*) continue ;;
    esac
    path="${target%%#*}"                 # drop any #anchor
    [[ -z "$path" ]] && continue
    if [[ ! -e "$dir/$path" ]]; then
      echo "BROKEN LINK: $doc -> $target" >&2
      fail=1
    fi
  done < <(grep -oE '\]\([^)[:space:]]+\)' "$doc" | sed 's/^](//; s/)$//')
done

echo "--- documented flags vs hia_campaign + hia_plan --help"
if [[ ! -x "$campaign" ]]; then
  echo "campaign binary not found: $campaign (build first)" >&2
  exit 1
fi
if [[ ! -x "$plan" ]]; then
  echo "planner binary not found: $plan (build first)" >&2
  exit 1
fi
help_text="$("$campaign" --help 2>&1 || true)"
plan_help="$("$plan" --help 2>&1 || true)"
known="$(grep -oE '\-\-[a-z][a-z0-9-]*' <<<"$help_text"$'\n'"$plan_help" |
  sort -u)"
for f in "${allow_flags[@]}"; do known+=$'\n'"$f"; done

# A token counts as a documented flag only when preceded by start-of-line
# or a non-word, non-dash character, so cmake-style `-DFOO` or prose
# em-dashes never match.
mentioned="$(grep -ohE '(^|[^-[:alnum:]])--[a-z][a-z0-9-]*' "${docs[@]}" |
  grep -oE '\-\-[a-z][a-z0-9-]*' | sort -u)"
while IFS= read -r flag; do
  if ! grep -qxF -e "$flag" <<<"$known"; then
    echo "UNDOCUMENTED-IN-BINARY FLAG: docs mention $flag but" \
      "hia_campaign --help does not list it (and it is not allowlisted" \
      "in ci/check_docs.sh)" >&2
    fail=1
  fi
done <<<"$mentioned"

echo "--- required flags present in --help and docs"
# Load-bearing operator knobs: the failure/overload handbook is useless if
# either side silently drops one of these.
required_flags=(--faults --overload --steer --tenants --weights --events
                --status-interval)
for flag in "${required_flags[@]}"; do
  if ! grep -qxF -e "$flag" <<<"$known"; then
    echo "MISSING REQUIRED FLAG: hia_campaign --help no longer lists $flag" >&2
    fail=1
  fi
  if ! grep -qxF -e "$flag" <<<"$mentioned"; then
    echo "UNDOCUMENTED REQUIRED FLAG: no doc mentions $flag" >&2
    fail=1
  fi
done

echo "--- hia_plan flags bidirectional"
# The planner contract is total: every flag in hia_plan --help must be
# documented, and (via the unknown-flag check above) every documented
# flag must exist. A flag the binary grows silently fails here.
plan_flags="$(grep -oE '\-\-[a-z][a-z0-9-]*' <<<"$plan_help" | sort -u)"
while IFS= read -r flag; do
  [[ -z "$flag" ]] && continue
  if ! grep -qxF -e "$flag" <<<"$mentioned"; then
    echo "UNDOCUMENTED PLANNER FLAG: hia_plan --help lists $flag but no" \
      "doc mentions it" >&2
    fail=1
  fi
done <<<"$plan_flags"

echo "--- --faults / --overload directives: FAILURE_MODEL.md vs --help"
# The directives in the "(directives: a/b/...;" note of option $1's help
# entry; the note may wrap across help lines.
help_directives() {
  awk -v opt="$1" '
    $1 == opt { on = 1 }
    on && $1 ~ /^--/ && $1 != opt { exit }
    on { text = text $0 }
    END {
      gsub(/[ \t]/, "", text)
      if (!sub(/.*\(directives:/, "", text)) exit
      sub(/[;)].*/, "", text)
      n = split(text, names, "/")
      for (i = 1; i <= n; i++) print names[i]
    }' <<<"$help_text" | sort -u
}
# The directive names in the first column of the FAILURE_MODEL.md table
# whose header ends in column $1 (a cell may name several: `low=F`,
# `high=F`).
doc_directives() {
  awk -F'|' -v last=" $1 " '
    /^\| Directive \|/ { on = ($4 == last); next }
    !/^\|/ { on = 0 }
    on {
      cell = $2
      while (match(cell, /`[a-z][a-z-]*/)) {
        print substr(cell, RSTART + 1, RLENGTH - 1)
        cell = substr(cell, RSTART + RLENGTH)
      }
    }' docs/FAILURE_MODEL.md | sort -u
}
for pair in "--faults:Default knobs" "--overload:Default"; do
  opt="${pair%%:*}"
  in_help="$(help_directives "$opt")"
  in_docs="$(doc_directives "${pair#*:}")"
  if [[ -z "$in_help" || -z "$in_docs" ]]; then
    echo "DIRECTIVES: could not read the $opt directives from --help or" \
      "docs/FAILURE_MODEL.md" >&2
    fail=1
  elif [[ "$in_help" != "$in_docs" ]]; then
    echo "DIRECTIVES: $opt lists differ (< --help only, > docs only):" >&2
    diff <(echo "$in_help") <(echo "$in_docs") | grep '^[<>]' >&2 || true
    fail=1
  fi
done

echo "--- every tool has a docs section"
# Each tools/*.cpp must be introduced by a markdown heading somewhere in
# README.md or docs/ — a tool an operator cannot discover is half-shipped.
for src in tools/*.cpp; do
  tool="$(basename "$src" .cpp)"
  if ! grep -qE "^#{1,6} .*\b$tool\b" README.md docs/*.md; then
    echo "UNDOCUMENTED TOOL: no markdown heading in README.md or docs/" \
      "names $tool" >&2
    fail=1
  fi
done

if [[ "$fail" -ne 0 ]]; then
  echo "ci/check_docs.sh: FAILED" >&2
  exit 1
fi
echo "ci/check_docs.sh: docs OK (${#docs[@]} files, $(wc -l <<<"$mentioned") flags checked)"
