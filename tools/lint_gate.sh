#!/usr/bin/env bash
# CI lint gate for the llstar repo.
#
#   tools/lint_gate.sh <llstar-binary> <repo-root> <artifact-dir>
#
# Policy:
#  - grammars/*.g and examples/grammars/*.g must lint clean under --werror
#    (real findings there are fixed or suppressed in-grammar);
#  - tests/corpus/*.g are fuzz-generated and legitimately trigger
#    diagnostics (dead rules, unhoisted predicates, ...); they are gated
#    against tests/lint-baseline.txt instead — any diagnostic not in the
#    baseline fails the job, so new findings surface without freezing the
#    corpus. Regenerate the baseline with:
#      tools/lint_gate.sh <llstar> <root> <dir> --update-baseline
#  - a SARIF 2.1.0 log per linted grammar (with verified fixes objects,
#    computed via --fixes) is written to <artifact-dir> for
#    upload;
#  - profiled and unprofiled runs gate identically: when LINT_PROFILE_DIR
#    is set and holds a decision-keyed profile named <grammar>.prof.json
#    (from parse --stats-json / llstar-batch --stats-out), lint runs with
#    --profile — findings gain hotness fields and re-rank by observed
#    cost, but the baseline keys (<path>:<line>:<col>:<id>) are
#    position-based and the baseline is sorted, so the same baseline
#    accepts both modes. Hotness continuation lines ("    hotness: ...")
#    are indented and never match the key pattern.
set -u

LLSTAR=$1
ROOT=$2
ARTIFACTS=$3
UPDATE=${4:-}

mkdir -p "$ARTIFACTS"
BASELINE="$ROOT/tests/lint-baseline.txt"
STATUS=0

sarif_name() {
  echo "$ARTIFACTS/$(echo "$1" | sed 's|/|_|g').sarif"
}

# Emits "--profile <file>" when a profile exists for grammar $1.
profile_args() {
  local base
  base=$(basename "$1" .g)
  if [ -n "${LINT_PROFILE_DIR:-}" ] && \
     [ -f "$LINT_PROFILE_DIR/$base.prof.json" ]; then
    echo "--profile $LINT_PROFILE_DIR/$base.prof.json"
  fi
}

# --- strict set: must be clean under --werror ---------------------------
for g in "$ROOT"/grammars/*.g "$ROOT"/examples/grammars/*.g; do
  rel=${g#"$ROOT"/}
  # shellcheck disable=SC2046
  "$LLSTAR" lint "$g" $(profile_args "$g") --fixes --format=sarif \
    -o "$(sarif_name "$rel")" || true
  # shellcheck disable=SC2046
  if ! "$LLSTAR" lint "$g" $(profile_args "$g") --werror >/dev/null 2>&1; then
    echo "FAIL (lint --werror): $rel"
    "$LLSTAR" lint "$g" 2>&1 | sed 's/^/    /'
    STATUS=1
  fi
done

# --- corpus: baseline-gated ---------------------------------------------
for g in "$ROOT"/tests/corpus/*.g; do
  rel=${g#"$ROOT"/}
  # shellcheck disable=SC2046
  "$LLSTAR" lint "$g" $(profile_args "$g") --fixes --format=sarif \
    -o "$(sarif_name "$rel")" || true
done

CURRENT=$(mktemp)
for g in "$ROOT"/tests/corpus/*.g; do
  # One line per finding: <relpath>:<line>:<col>:<id> (message text is
  # not part of the key, so rewording a diagnostic does not churn the
  # baseline; profile re-ranking does not either, since the key list is
  # sorted).
  # shellcheck disable=SC2046
  "$LLSTAR" lint "$g" $(profile_args "$g") 2>/dev/null |
    sed -n 's|^.*/\([^/]*\.g\):\([0-9]*\):\([0-9]*\): [a-z]*: .* \[\([a-z-]*\)\]$|tests/corpus/\1:\2:\3:\4|p'
done | sort >"$CURRENT"

if [ "$UPDATE" = "--update-baseline" ]; then
  cp "$CURRENT" "$BASELINE"
  echo "baseline updated: $(wc -l <"$BASELINE") findings"
  rm -f "$CURRENT"
  exit 0
fi

if [ ! -f "$BASELINE" ]; then
  echo "FAIL: missing $BASELINE (run with --update-baseline)"
  rm -f "$CURRENT"
  exit 1
fi

NEW=$(comm -13 <(sort "$BASELINE") "$CURRENT")
if [ -n "$NEW" ]; then
  echo "FAIL: new lint diagnostics not in tests/lint-baseline.txt:"
  echo "$NEW" | sed 's/^/    /'
  STATUS=1
fi
rm -f "$CURRENT"

exit $STATUS
