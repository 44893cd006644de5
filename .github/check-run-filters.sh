#!/usr/bin/env bash
# Checks that every `go test -run` selector in a workflow file still
# selects a test: a renamed or deleted test leaves its -run filter
# matching nothing, and `go test` passes such a run silently. Each
# alternative of a selector (split on '|') must match at least one test,
# fuzz target, benchmark or example in the packages of its command line,
# as listed by `go test -list`. The `-run '^$'` idiom (run no tests) is
# skipped.
#
# Usage: .github/check-run-filters.sh [.github/workflows/ci.yml]
set -euo pipefail -f

workflow=${1:-.github/workflows/ci.yml}
failed=0
checked=0
while IFS= read -r cmd; do
	selector=$(sed -E "s/.*-run[ =]('([^']*)'|([^ ]*)).*/\\2\\3/" <<<"$cmd")
	[ "$selector" = '^$' ] && continue
	pkgs=()
	for tok in $cmd; do
		case $tok in .|./*) pkgs+=("$tok") ;; esac
	done
	IFS='|' read -r -a alts <<<"$selector"
	for alt in "${alts[@]}"; do
		top=${alt%%/*} # -list sees top-level names only
		checked=$((checked + 1))
		listed=$(go test -list "$top" "${pkgs[@]}")
		if ! grep -qE '^(Test|Fuzz|Benchmark|Example)' <<<"$listed"; then
			echo "no test matches -run alternative '$alt' in ${pkgs[*]} ($workflow)"
			failed=1
		fi
	done
done < <(grep -oE "go test [^#]*-run[ =][^#]*" "$workflow")
echo "checked $checked -run alternatives in $workflow"
exit $failed
