#!/usr/bin/env bash
# Fails when an alternative of a `go test -run` pattern in a workflow file
# names no test. `go test -run 'A|B'` passes silently when B matches
# nothing, so a renamed test would drop out of the step that gates it.
# For every `go test` line with a -run pattern, each |-separated
# alternative is listed with `go test -list` over that line's packages and
# build tags; one that lists nothing is reported. '^$' (run no tests, as
# the benchmark steps do) is exempt.
#
# Usage, from the module root: .github/scripts/check-run-names.sh [workflow]
set -euo pipefail
workflow="${1:-.github/workflows/ci.yml}"
status=0
while IFS= read -r line; do
	line="${line#*run: }"
	pattern=$(sed -E "s/.*-run ('([^']*)'|([^ ]+)).*/\2\3/" <<<"$line")
	[ "$pattern" = '^$' ] && continue
	tags=()
	pkgs=()
	read -ra words <<<"$line"
	for i in "${!words[@]}"; do
		case "${words[$i]}" in
		-tags) tags=(-tags "${words[$((i + 1))]}") ;;
		. | ./*) pkgs+=("${words[$i]}") ;;
		esac
	done
	IFS='|' read -ra alternatives <<<"$pattern"
	for alt in "${alternatives[@]}"; do
		listed=$(go test "${tags[@]}" -list "$alt" "${pkgs[@]}")
		if ! grep -qvE '^(ok|\?) ' <<<"$listed"; then
			echo "no test in ${pkgs[*]} ${tags[*]} matches -run alternative '$alt'"
			status=1
		fi
	done
done < <(grep -E 'go test .*-run ' "$workflow")
exit "$status"
