#!/usr/bin/env sh
# check_links.sh — verify that every relative markdown link in the repo's
# documentation points at a file or directory that exists, and that every
# link into another markdown file's section (FILE.md#anchor) names a
# heading that file has, by GitHub's slug rule. External links
# (http/https) and pure in-page anchors are skipped; optional link titles
# ([text](target "Title")) are stripped before checking. No dependencies
# beyond POSIX sh + grep/sed/awk.
#
# Usage: scripts/check_links.sh [files...]   (default: all *.md)
set -eu
cd "$(dirname "$0")/.."

if [ "$#" -gt 0 ]; then
  files="$*"
else
  files=$(find . -name '*.md' -not -path './.git/*' | sort)
fi

# slugs prints the anchor of every heading in markdown file $1, one per
# line: lower-cased, punctuation dropped, spaces as hyphens, and a repeated
# slug suffixed -1, -2, … Lines inside fenced code blocks are not headings.
slugs() {
  awk '/^```/ { fenced = !fenced; next } !fenced && /^#+ / { print }' "$1" |
    sed -e 's/^#* *//' -e 's/ *#* *$//' | tr 'A-Z' 'a-z' |
    sed -e 's/[^a-z0-9 _-]//g' -e 's/ /-/g' |
    awk '{ n = seen[$0]++; print (n ? $0 "-" n : $0) }'
}

status=0
for f in $files; do
  dir=$(dirname "$f")
  # Extract inline markdown link targets, dropping any trailing "Title".
  links=$(grep -o '\[[^]]*\]([^)]*)' "$f" 2>/dev/null |
    sed -e 's/.*](\([^)]*\))/\1/' -e 's/ *"[^"]*" *$//') || true
  [ -n "$links" ] || continue
  # Iterate line-by-line in the current shell (no pipe subshell) so that
  # targets containing spaces stay intact and $status propagates.
  while IFS= read -r link; do
    [ -n "$link" ] || continue
    case "$link" in
    http://* | https://* | mailto:* | \#*) continue ;;
    esac
    target=${link%%#*}
    [ -n "$target" ] || continue
    if [ -e "$dir/$target" ]; then
      path="$dir/$target"
    elif [ -e "$target" ]; then
      path=$target
    else
      echo "BROKEN: $f -> $link" >&2
      status=1
      continue
    fi
    case "$link" in
    *.md\#*)
      anchor=${link#*#}
      if ! slugs "$path" | grep -qxF "$anchor"; then
        echo "BROKEN ANCHOR: $f -> $link (no such heading in $path)" >&2
        status=1
      fi
      ;;
    esac
  done <<EOF
$links
EOF
done
if [ "$status" -ne 0 ]; then
  echo "markdown link check failed" >&2
else
  echo "markdown link check OK"
fi
exit $status
