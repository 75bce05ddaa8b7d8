#!/usr/bin/env bash
# Fails when a test selector pinned in the CI workflow matches nothing.
# `go test -run X` exits 0 with "[no tests to run]" when X matches no test,
# so renaming a pinned test would silently drop its CI step. For every
# `go test` line in ci.yml, each |-separated alternative of its -run, -bench
# and -fuzz regexes must list at least one test, benchmark, fuzz target or
# example (`go test -list`) in one of the line's packages. The deliberate
# "run nothing" selector '^$' is skipped.
#
# Usage: bash .github/scripts/check-selectors.sh
set -euo pipefail
set -f # selectors are regexes, never globs
cd "$(dirname "$0")/../.."

status=0
checked=0
while IFS= read -r cmd; do
	pkgs=()
	sels=()
	want=""
	for tok in $cmd; do
		tok=${tok//\'/}
		if [ -n "$want" ]; then
			sels+=("$tok")
			want=""
			continue
		fi
		case $tok in
		-run | -bench | -fuzz) want=1 ;;
		-run=* | -bench=* | -fuzz=*) sels+=("${tok#*=}") ;;
		. | ./*) pkgs+=("$tok") ;;
		esac
	done
	for sel in "${sels[@]}"; do
		[ "$sel" = '^$' ] && continue
		IFS='|' read -ra alts <<<"$sel"
		for alt in "${alts[@]}"; do
			found=""
			for pkg in "${pkgs[@]}"; do
				listed=$(go test -list "$alt" "$pkg" </dev/null)
				if grep -qE '^(Test|Benchmark|Fuzz|Example)' <<<"$listed"; then
					found=1
					break
				fi
			done
			checked=$((checked + 1))
			if [ -z "$found" ]; then
				echo "ci.yml selector '$alt' matches no test in ${pkgs[*]}: $cmd" >&2
				status=1
			fi
		done
	done
done < <(grep -oE 'go test .*' .github/workflows/ci.yml)

echo "checked $checked pinned selectors"
exit $status
